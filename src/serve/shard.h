// One serving shard: a stacked engine, its sessions, and a batcher.
//
// A shard is the unit of parallelism in the pool: it owns everything it
// touches (per-layer engines + workspaces, session store, request
// queue, staging buffers), so shards never share mutable state and the
// pool can run them on one thread each with deterministic results — the
// same shared-nothing partitioning discipline as num::parallel_for,
// applied at the request level instead of the row level. The LstmCells,
// StatePruners and Embedding are borrowed read-only and may back every
// shard.
//
// Determinism guarantee (test-enforced, tests/serve/shard_determinism
// _test.cc): a session's output stream depends only on its own request
// stream, never on which batch-mates or shard served it. This follows
// from the bit-exactness contract (docs/exactness.md) — with the
// per-lane skip path a lane accumulates exactly its own kept positions
// whatever the batch around it — plus one restriction this constructor
// enforces: the pruner
// must be batch-composition-independent (kTargetSparsity derives its
// threshold from a whole-batch quantile, so it is rejected; export a
// trained model's threshold via StatePruner::effective_threshold and
// serve with PrunerConfig::fixed instead).
//
// Layer pipelining (opt-in, multi-layer models): flush() can run a
// wavefront — up to L batches in flight, the k-th most recent at layer
// L-1-k — so layer l of step t overlaps layer l-1 of step t+1 across
// num::parallel_for workers. Concurrent flights always occupy DIFFERENT
// layers, and distinct layers are distinct SparseLstmEngine instances
// with disjoint scratch and stats, so the tick needs no locking. Bit-
// identity with the sequential schedule is structural: per layer, batch
// t's step always runs a full tick before batch t+1's (the recurrence
// order), pop_batch order is unchanged (it never reads session state),
// responses retire in admission order, and the two cross-batch hazards
// are fenced — a session appearing in two in-flight batches holds two
// pins (Session::pinned is a count), and a batch whose admission would
// lazily TTL-reset a pinned session waits until the in-flight batches
// drain. Eviction can never hit an in-flight lane: a capped store must
// satisfy max_sessions > layers * max_batch when pipelining.
//
// Zero-allocation contract: once every session in play exists and the
// warm-up batches ran, process_ready()/flush() perform no heap
// allocations (engine reserve() at construction, staging matrices
// resized within capacity, ring-buffered queue, pre-sized flights).
// The pipelined wavefront keeps that contract per tick except inside
// num::parallel_for itself, which spawns its worker threads per call.
#pragma once

#include <atomic>
#include <chrono>
#include <vector>

#include "core/sparse_inference.h"
#include "core/stacked_engine.h"
#include "serve/batcher.h"
#include "serve/model.h"
#include "serve/request.h"
#include "serve/session.h"

namespace zss::serve {

/// Counters for one measurement epoch of a shard (reset_stats() starts
/// a new epoch; the engine's cumulative stats reset with it).
struct ShardStats {
  num::Index requests = 0;
  num::Index batches = 0;
  double busy_us = 0.0;  // wall-clock spent inside step/tick work
  /// CPU time this shard's thread spent inside process_ready. Unlike
  /// busy_us this does not count time spent descheduled, so it is the
  /// right numerator for capacity/scaling claims on machines with
  /// fewer cores than shards (bench_serving records both).
  double cpu_us = 0.0;

  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches);
  }
};

class EngineShard {
 public:
  /// Serves `model` (cells/pruners/embedding borrowed; the pointer
  /// lists are copied, the pointees must outlive the shard). Rejects
  /// batch-composition-dependent pruning — see the determinism note
  /// above. A bounded session store (ttl.max_sessions > 0) must leave
  /// room for every pinned lane plus an eviction victim:
  /// max_sessions > max_batch, and > layers * max_batch with
  /// `pipeline` (up to layers batches hold pins at once).
  /// `quant` selects the engines' datapath: default fp32, or the int8
  /// quantized mode (core::QuantConfig::int8()). Quantized shards keep
  /// the full determinism guarantee — every quantization scale is
  /// fixed at construction, so no batch-composition dependence can
  /// enter through the datapath (docs/exactness.md "int8").
  EngineShard(const ServeModel& model, const BatchPolicy& policy,
              sparse::EncoderConfig encoder = {}, SessionTtl ttl = {},
              core::QuantConfig quant = {}, bool pipeline = false);

  /// Single-layer convenience (the synthetic-load benches and most
  /// tests): serve one borrowed cell/pruner with one-hot inputs.
  EngineShard(const nn::LstmCell& cell, const core::StatePruner& pruner,
              const BatchPolicy& policy,
              sparse::EncoderConfig encoder = {}, SessionTtl ttl = {},
              core::QuantConfig quant = {});

  void enqueue(const Request& r) { batcher_.enqueue(r); }

  /// Serves the next batch if anything is pending — batches never wait
  /// (serve/batcher.h). Returns the number of requests consumed from
  /// the queue (0 = nothing pending): served ones plus any answered
  /// `err timeout` — every consumed request produces exactly one sink
  /// call either way. Always the sequential schedule — the wavefront
  /// lives in flush().
  num::Index process_ready(std::int64_t now_us, const ResponseSink& sink);

  /// Serves everything queued (shutdown, the `flush` verb, closed-loop
  /// benches). Batches still respect max_batch and session conflicts.
  /// With pipelining enabled and a multi-layer model, runs the layer
  /// wavefront described above. Returns requests consumed (served +
  /// timed out), as process_ready.
  num::Index flush(std::int64_t now_us, const ResponseSink& sink);

  num::Index pending() const { return batcher_.pending(); }
  const core::StackedEngine& engine() const { return engine_; }
  SessionStore& sessions() { return sessions_; }
  const SessionStore& sessions() const { return sessions_; }
  bool pipeline() const { return pipeline_; }

  const ShardStats& stats() const { return stats_; }

  /// Lifetime count of requests answered `err timeout` (deadline
  /// expiry). Relaxed atomic: written by the shard's worker thread,
  /// read by the live server's stats path.
  std::uint64_t timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }

  /// Starts a new measurement epoch: clears the shard counters AND the
  /// engines' cumulative InferenceStats (the documented reset between
  /// batcher epochs — benches call this per configuration).
  void reset_stats();

 private:
  /// One batch moving through the layer wavefront. Pre-sized at
  /// construction; flights are reused round-robin, never reallocated.
  struct Flight {
    std::vector<Request> requests;
    std::vector<Session*> lanes;
    num::Index batch = 0;
    num::Index layer = 0;  // next layer this flight will run
    bool admitted = false;  // lanes pinned, x built
    std::chrono::steady_clock::time_point t0;
    num::Matrix x;      // model input (B x input_dim), layer 0 only
    num::Matrix ff[2];  // dense-h ping-pong between layers (B x dh)
    num::Matrix hl;     // gathered layer state, batch > 1 (B x dh)
    num::Matrix cl;
  };

  void init(const BatchPolicy& policy);
  /// Answers every popped request whose deadline passed with a
  /// timed_out Response and compacts the rest in place (FIFO order
  /// preserved). Returns the new batch size.
  num::Index drop_expired(std::vector<Request>& requests, num::Index batch,
                          std::int64_t now_us, const ResponseSink& sink);
  num::Index flush_wavefront(std::int64_t now_us, const ResponseSink& sink);
  void build_input(const std::vector<Request>& requests, num::Index batch,
                   num::Matrix& x);
  /// Pins lanes + builds x. Requires the TTL hazard check to have
  /// passed (no pinned session may lazily reset during admission).
  void admit(Flight& f);
  void run_layer(Flight& f);
  num::Index retire(Flight& f, std::int64_t now_us, double service_us,
                    const ResponseSink& sink);

  std::vector<const nn::LstmCell*> cells_;
  std::vector<const core::StatePruner*> pruners_;
  const nn::Embedding* embedding_;
  core::StackedEngine engine_;
  SessionStore sessions_;
  RequestBatcher batcher_;
  bool pipeline_ = false;
  ShardStats stats_;
  std::atomic<std::uint64_t> timeouts_{0};
  std::vector<Request> batch_;    // reused pop_batch target
  std::vector<Session*> lanes_;   // sessions of the batch being served
  std::vector<std::uint64_t> row_digests_;  // per-lane, reused
  std::vector<num::Index> ids_;   // embedding row indices, reused
  num::Matrix x_;                 // (B x input_dim) staging
  std::vector<num::Matrix> h_;    // per-layer gathered state (B x dh)
  std::vector<num::Matrix> c_;
  num::Matrix dense_top_;         // top layer's dense h (B x dh)
  std::vector<Flight> flights_;   // wavefront slots, layers() entries
};

}  // namespace zss::serve
