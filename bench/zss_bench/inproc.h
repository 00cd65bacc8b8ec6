// The in-process side of the benchmark: the same model and pool the
// server runs, built from the public library, for three jobs —
//   * the digest oracle every run is checked against,
//   * the traced replay (EnginePool + LiveServer::submit) that splits a
//     request's time into submit, queue, service and commit+deliver,
//   * probes that time one layer's public calls at the shapes the run
//     observed (engine step, journal commit and recovery, segment
//     spill/restore, protocol parse/format, model load).
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/model_io.h"
#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "serve/digest.h"
#include "serve/pool.h"
#include "workload.h"

namespace zss::bench {

/// Everything a pool borrows, under one lifetime — the same assembly
/// tools/zss_serve.cc performs from its flags. Not movable: the model
/// view points into the vectors.
struct ModelAssets {
  ModelAssets() = default;
  ModelAssets(const ModelAssets&) = delete;
  ModelAssets& operator=(const ModelAssets&) = delete;

  std::unique_ptr<nn::LstmCell> cell;  // kRandomCell
  core::LoadedModel loaded;            // checkpoints
  std::deque<core::StatePruner> pruners;
  std::vector<const nn::LstmCell*> cells;
  std::vector<const core::StatePruner*> pruner_ptrs;
  serve::ServeModel model;
  core::QuantConfig quant;
};

/// Writes the seeded stacked checkpoint of a kWrittenCheckpoint
/// workload (untimed preparation).
bool write_checkpoint(const Workload& w, const std::string& path,
                      std::string* error);

/// Builds the served model. `checkpoint` is the file zss_serve is given
/// (ignored for kRandomCell).
bool build_model(const Workload& w, const std::string& checkpoint,
                 ModelAssets& out, std::string* error);

/// The digest table an uncapped single-shard pool produces from exactly
/// these steps (each session's steps in list order) — what the server's
/// table must equal, at any shard count, cap or spill tier.
serve::DigestTable oracle_digests(const ModelAssets& m,
                                  std::span<const Arrival> steps);

/// What the traced in-process replay measured.
struct ReplayResult {
  std::vector<double> submit_ns;
  std::vector<double> queue_us[3];  // per rate phase
  std::vector<double> service_us;   // per response
  /// Per response, grouped by the size (1..8) of the batch that served
  /// it: a batch of b contributes b entries of its service time.
  std::vector<double> service_by_batch[9];
  double lane_sparsity[2] = {0.0, 0.0};
  double effectual_mac_frac = 0.0;
  double shard_cpu_us_per_step = 0.0;
  double imbalance = 0.0;
  double journal_appends_per_step = 0.0;
  double journal_bytes_per_step = 0.0;
  double spilled_per_step = 0.0;   // segment spills (evictions to disk)
  double restored_per_step = 0.0;  // segment restores
  std::uint64_t responses = 0;
  bool stores_ok = true;  // every spill store / journal opened
};

/// One stretch of the TCP run's schedule and the fixed rate (0..2) it
/// was driven at.
struct ReplaySegment {
  std::span<const Arrival> sched;
  int rate = 0;
  /// Each request's ordinal within its session in the TCP run, so the
  /// replayed request's spans carry the same `session:n` id.
  std::vector<std::uint32_t> ordinal;
};

/// Replays `segments` in order through a fresh EnginePool + LiveServer
/// at their real pace (each re-based to start now, after the previous
/// one drained), recording live.submit / live.queue / shard.service /
/// shard.commit_deliver spans on track `track`.
ReplayResult inproc_replay(const Workload& w, const ModelAssets& m,
                           const std::vector<ReplaySegment>& segments,
                           const std::string& spill_dir, SpanBuffer& spans,
                           std::int32_t track);

/// Layer probes: each times one layer's public calls.
struct EngineProbe {
  double step_us[2][2] = {};  // [batch 1 | batch 8][layer 0 | 1]
  double gmacs = 0.0;
  std::vector<float> steady_h, steady_c;  // one session's packed state
};
EngineProbe probe_engine(const ModelAssets& m);

struct JournalProbe {
  double commit_us_p50 = 0.0, commit_us_p99 = 0.0;
  double recover_ms = 0.0;
  double recovered_records = 0.0;
};
/// append x k + commit on a fresh journal in `dir`, and the Journal
/// constructor over a copy of every shard journal in `prefill_dir`.
JournalProbe probe_journal(const EngineProbe& e, int k, const std::string& dir,
                           const std::string& prefill_dir, num::Index shards);

struct SegmentProbe {
  double spill_us_p50 = 0.0;
  double restore_us_p50 = 0.0, restore_us_p99 = 0.0;
  // Means of the fastest 99%, the unit trace.unexplained_frac adds up.
  double spill_us_mean = 0.0, restore_us_mean = 0.0;
};
/// `shards` threads, each on its own (offset-encoded) segment file,
/// spill and restore concurrently — the way the server's shards hit the
/// disk together.
SegmentProbe probe_segment(const EngineProbe& e, const std::string& dir,
                           num::Index shards);

/// Mean of the smallest ceil(0.99 n) values: drops the slowest 1%, which
/// on a shared host is time a descheduled thread spent off the CPU.
double trimmed_mean(std::vector<double> values);

/// parse_command / format_response cost, ns per call.
void probe_protocol(double* parse_ns, double* format_ns);

/// Median time to materialize the model the server loads at start-up.
double probe_model_load_ms(const Workload& w, const std::string& checkpoint);

}  // namespace zss::bench
