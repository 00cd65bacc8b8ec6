// zss_serve — trace-replay and live-serving front end for src/serve/.
//
// Two serving modes over the same pool:
//
//   * Replay (--trace=FILE): replays a request trace under the
//     deterministic virtual clock and prints per-session output
//     digests. Because per-session outputs are bit-identical at any
//     shard count and any max-batch (docs/serving.md), running the
//     same trace with different --shards must print identical digest
//     tables — CI diffs exactly that.
//   * Live (--live): persistent per-shard worker threads serve a
//     line-oriented streaming protocol (serve/protocol.h) on
//     stdin/stdout, or — with --socket=PATH and/or --tcp=PORT — on the
//     epoll-multiplexed connection front end (serve/frontend.h), which
//     accepts any number of concurrent UNIX and TCP clients and routes
//     each response back to exactly the connection that issued its
//     request. With --record=FILE every accepted request is written
//     back out as a trace, and replaying that file reproduces the live
//     run's digest table bit-for-bit — the live loop's determinism
//     contract, and what CI's live-smoke step diffs (under multi-client
//     churn since the front end landed).
//
//   zss_serve --trace=data/traces/serving_200.txt --shards=4
//   zss_serve --live --shards=4 --record=run.txt --digests=live.txt
//   zss_serve --live --socket=/tmp/zss.sock --tcp=9777 --max-queue=64
//   zss_serve --emit-trace=200 --sessions=16 --gap-us=150 > trace.txt
//
// The model is a seeded randomly-initialized cell by default (synthetic
// load), or — with --model=FILE — a trained v2 checkpoint written by
// zss_train: the architecture header decides layers/dh/input mapping,
// the per-layer exported thresholds build the fixed pruners, and
// --quant serves the int8 datapath on the grid the trainer recorded
// (a checkpoint without a recorded grid refuses --quant). --pipeline
// enables the layer wavefront on multi-layer models (serve/shard.h) —
// in a shard's flush only (the flush verb, the final drain at shutdown);
// live serving and trace replay run the sequential schedule;
// --threads sets num::parallel_for workers. --ttl-us and
// --max-sessions bound the per-shard session stores in either mode
// (give the replay the same values to reproduce a recorded live run).
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "core/model_io.h"
#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "num/parallel.h"
#include "num/rng.h"
#include "num/simd/backend.h"
#include "serve/frontend.h"
#include "serve/protocol.h"
#include "serve/supervisor.h"
#include "serve/trace.h"
#include "serve/worker.h"
#include "store/lockfile.h"

namespace {

using namespace zss;

struct Args {
  std::string trace;
  std::string digests_path;
  std::string socket_path;
  int tcp_port = -1;  // >= 0: TCP listener (0 = kernel-chosen ephemeral)
  std::string record_path;
  std::string spill_dir;
  bool spill_encoded = false;
  // Durability ladder (docs/serving.md): "" = default (spill when
  // --spill-dir is given, off otherwise), or explicit off/spill/journal.
  std::string durability;
  std::string journal_sync = "batch";  // batch | none
  std::uint64_t journal_checkpoint_bytes = std::uint64_t{4} << 20;
  std::int64_t deadline_us = 0;     // live: per-request serve deadline
  std::int64_t worker_stall_ms = 0;  // live: watchdog threshold, 0 = off
  num::Index emit_trace = 0;  // >0: generate instead of serve
  bool live = false;
  num::Index shards = 1;
  num::Index max_batch = 8;
  std::int64_t ttl_us = -1;
  num::Index max_sessions = 0;
  num::Index max_queue = 0;
  num::Index dh = 256;
  num::Index dx = 32;
  num::Index sessions = 16;
  std::int64_t gap_us = 150;
  float threshold = 0.05f;  // ~60-80% observed sparsity on the seeded cell
  std::uint64_t seed = 1;
  bool dump = false;
  bool quant = false;  // int8 engine datapath (core::QuantConfig::int8())
  std::string model;   // v2 checkpoint path; empty = seeded random cell
  bool pipeline = false;  // layer wavefront on multi-layer models
  int threads = 1;        // num::parallel_for workers
  // Explicit-flag tracking: the checkpoint header decides these, so
  // passing them alongside --model is a conflict, not a preference.
  bool dh_set = false, dx_set = false, threshold_set = false;
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      const std::string prefix = std::string("--") + name + "=";
      return a.rfind(prefix, 0) == 0 ? a.c_str() + prefix.size() : nullptr;
    };
    if (const char* v = value("trace")) {
      args.trace = v;
    } else if (const char* v = value("digests")) {
      args.digests_path = v;
    } else if (const char* v = value("socket")) {
      args.socket_path = v;
    } else if (const char* v = value("tcp")) {
      args.tcp_port = static_cast<int>(std::atol(v));
    } else if (const char* v = value("record")) {
      args.record_path = v;
    } else if (const char* v = value("spill-dir")) {
      args.spill_dir = v;
    } else if (a == "--spill-encoded") {
      args.spill_encoded = true;
    } else if (const char* v = value("durability")) {
      args.durability = v;
    } else if (const char* v = value("journal-sync")) {
      args.journal_sync = v;
    } else if (const char* v = value("journal-checkpoint-bytes")) {
      args.journal_checkpoint_bytes = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("deadline-us")) {
      args.deadline_us = std::atoll(v);
    } else if (const char* v = value("worker-stall-ms")) {
      args.worker_stall_ms = std::atoll(v);
    } else if (const char* v = value("emit-trace")) {
      args.emit_trace = std::atol(v);
    } else if (a == "--live") {
      args.live = true;
    } else if (const char* v = value("shards")) {
      args.shards = std::atol(v);
    } else if (const char* v = value("max-batch")) {
      args.max_batch = std::atol(v);
    } else if (value("max-wait-us") != nullptr) {
      // Batches never wait (serve/batcher.h); the flag still parses so
      // existing command lines keep working.
      std::fprintf(stderr, "zss_serve: --max-wait-us is ignored (a shard "
                           "serves whatever is pending as soon as it is "
                           "free)\n");
    } else if (const char* v = value("ttl-us")) {
      args.ttl_us = std::atoll(v);
    } else if (const char* v = value("max-sessions")) {
      args.max_sessions = std::atol(v);
    } else if (const char* v = value("max-queue")) {
      args.max_queue = std::atol(v);
    } else if (const char* v = value("dh")) {
      args.dh = std::atol(v);
      args.dh_set = true;
    } else if (const char* v = value("dx")) {
      args.dx = std::atol(v);
      args.dx_set = true;
    } else if (const char* v = value("sessions")) {
      args.sessions = std::atol(v);
    } else if (const char* v = value("gap-us")) {
      args.gap_us = std::atol(v);
    } else if (const char* v = value("threshold")) {
      args.threshold = static_cast<float>(std::atof(v));
      args.threshold_set = true;
    } else if (const char* v = value("seed")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("model")) {
      args.model = v;
    } else if (a == "--pipeline") {
      args.pipeline = true;
    } else if (const char* v = value("threads")) {
      args.threads = static_cast<int>(std::atol(v));
    } else if (a == "--dump") {
      args.dump = true;
    } else if (a == "--quant") {
      args.quant = true;
    } else if (a == "--help" || a == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  // Report bad values as usage errors here; the library layers treat
  // them as contract violations and abort.
  if (args.shards < 1 || args.max_batch < 1 || args.dh < 1 ||
      args.dx < 1 || args.sessions < 1 || args.gap_us < 0 ||
      args.threshold < 0.0f || args.max_sessions < 0 || args.max_queue < 0) {
    std::fprintf(stderr,
                 "invalid flag value (need shards/max-batch/dh/dx/sessions "
                 ">= 1, gap-us/max-sessions/max-queue >= 0, "
                 "threshold >= 0)\n");
    return false;
  }
  if (args.tcp_port > 65535) {
    std::fprintf(stderr, "--tcp port out of range: %d\n", args.tcp_port);
    return false;
  }
  if (args.threads < 1) {
    std::fprintf(stderr, "--threads must be >= 1\n");
    return false;
  }
  if (args.max_sessions > 0 && args.max_sessions <= args.max_batch) {
    std::fprintf(stderr, "--max-sessions must exceed --max-batch (a whole "
                         "batch is pinned while it is served)\n");
    return false;
  }
  // The checkpoint header is the single source of truth for the model
  // architecture and the trained thresholds — conflicting flags are
  // rejected rather than silently overridden (this is a bugfix-grade
  // rule: an ignored --threshold would change digests without warning).
  if (!args.model.empty() &&
      (args.dh_set || args.dx_set || args.threshold_set)) {
    std::fprintf(stderr, "--dh/--dx/--threshold conflict with --model "
                         "(the checkpoint header decides them)\n");
    return false;
  }
  if (!args.model.empty() && args.emit_trace > 0) {
    std::fprintf(stderr, "--model does not apply to --emit-trace\n");
    return false;
  }
  if (args.pipeline && args.model.empty()) {
    std::fprintf(stderr, "--pipeline requires --model (the random cell is "
                         "single-layer; the wavefront needs layers > 1)\n");
    return false;
  }
  // Reject flag combinations that would otherwise be silently ignored
  // (a script passing --live --trace=... would block on stdin forever;
  // --trace with --record would exit success without writing the file).
  const int modes = (args.live ? 1 : 0) + (!args.trace.empty() ? 1 : 0) +
                    (args.emit_trace > 0 ? 1 : 0);
  if (modes > 1) {
    std::fprintf(stderr,
                 "--live, --trace and --emit-trace are mutually exclusive\n");
    return false;
  }
  if (!args.live && (!args.socket_path.empty() || args.tcp_port >= 0 ||
                     !args.record_path.empty() || args.max_queue > 0)) {
    std::fprintf(stderr,
                 "--socket/--tcp/--record/--max-queue only apply to --live\n");
    return false;
  }
  // The spill tier serves the session stores, so it applies to both
  // serving modes (a replay of a recorded spill run needs the same
  // tier to reproduce it) — but never to trace generation.
  if (args.spill_encoded && args.spill_dir.empty()) {
    std::fprintf(stderr, "--spill-encoded requires --spill-dir\n");
    return false;
  }
  if (!args.spill_dir.empty() && args.emit_trace > 0) {
    std::fprintf(stderr, "--spill-dir does not apply to --emit-trace\n");
    return false;
  }
  // Resolve the durability ladder: default follows --spill-dir, an
  // explicit rung must be consistent with it.
  if (args.durability.empty()) {
    args.durability = args.spill_dir.empty() ? "off" : "spill";
  }
  if (args.durability != "off" && args.durability != "spill" &&
      args.durability != "journal") {
    std::fprintf(stderr, "--durability must be off, spill or journal\n");
    return false;
  }
  if (args.durability != "off" && args.spill_dir.empty()) {
    std::fprintf(stderr, "--durability=%s requires --spill-dir\n",
                 args.durability.c_str());
    return false;
  }
  if (args.durability == "off" && !args.spill_dir.empty()) {
    std::fprintf(stderr, "--durability=off conflicts with --spill-dir "
                         "(drop one)\n");
    return false;
  }
  if (args.journal_sync != "batch" && args.journal_sync != "none") {
    std::fprintf(stderr, "--journal-sync must be batch or none\n");
    return false;
  }
  if (args.journal_checkpoint_bytes < 1024) {
    std::fprintf(stderr, "--journal-checkpoint-bytes must be >= 1024\n");
    return false;
  }
  if (args.deadline_us < 0 || args.worker_stall_ms < 0) {
    std::fprintf(stderr, "--deadline-us/--worker-stall-ms must be >= 0\n");
    return false;
  }
  if (!args.live && (args.deadline_us > 0 || args.worker_stall_ms > 0)) {
    std::fprintf(stderr, "--deadline-us/--worker-stall-ms only apply to "
                         "--live (replay re-serves exactly the recorded "
                         "requests)\n");
    return false;
  }
  return true;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: zss_serve --trace=FILE [--shards=N] [--max-batch=B]\n"
      "                 [--dh=D] [--dx=D]\n"
      "                 [--threshold=T] [--seed=S] [--ttl-us=T]\n"
      "                 [--max-sessions=N] [--dump] [--digests=FILE]\n"
      "                 [--spill-dir=DIR] [--spill-encoded] [--quant]\n"
      "                 [--model=FILE] [--pipeline] [--threads=N]\n"
      "                 (--pipeline runs the layer wavefront in flush\n"
      "                 only: the flush verb and the drain at shutdown;\n"
      "                 live serving and replay stay sequential)\n"
      "                 (--quant serves the int8 engine datapath; digests\n"
      "                 stay shard/batch-invariant — docs/exactness.md)\n"
      "                 (--model serves a trained v2 checkpoint from\n"
      "                 zss_train; layers/dh/thresholds come from its\n"
      "                 header — docs/serving.md \"Serving trained models\")\n"
      "                 (--durability=off|spill|journal selects the crash\n"
      "                 ladder; journal write-ahead-logs every committed\n"
      "                 session transition and recovers it on restart —\n"
      "                 docs/store.md. --journal-sync=batch|none,\n"
      "                 --journal-checkpoint-bytes=N tune it)\n"
      "   or: zss_serve --live [same model/policy flags] [--socket=PATH]\n"
      "                 [--tcp=PORT] [--record=FILE] [--max-queue=N]\n"
      "                 [--deadline-us=U] [--worker-stall-ms=M]\n"
      "                 (--deadline-us answers `err timeout` past the\n"
      "                 deadline; --worker-stall-ms arms the shard watchdog\n"
      "                 that restarts wedged workers from the journal)\n"
      "                 (stdin/stdout by default; --socket/--tcp start the\n"
      "                 multiplexed front end serving any number of\n"
      "                 concurrent clients — docs/serving.md; --tcp=0 picks\n"
      "                 an ephemeral port, printed on stderr)\n"
      "                 (each shard worker serves whatever is pending, up\n"
      "                 to --max-batch, as soon as it is free; nothing\n"
      "                 waits for batch-mates, so --max-wait-us is\n"
      "                 accepted and ignored)\n"
      "   or: zss_serve --emit-trace=N [--sessions=S] [--vocab via --dx]\n"
      "                 [--gap-us=G] [--seed=S]   (writes trace to stdout)\n");
}

/// Prints the table in the one format all modes share, so
/// `diff live_digests replay_digests` is the determinism gate.
/// `cap_active`: the LRU cap is per shard, so with --max-sessions set
/// the cross-shard-count half of the claim does not hold (the
/// record/replay half always does) — don't invite a false bug report.
void print_digests(const serve::DigestTable& table, const std::string& path,
                   bool cap_active) {
  if (cap_active) {
    std::printf("\nper-session digests (bit-identical for any --max-batch "
                "and vs record/replay at equal --shards; --max-sessions is "
                "per shard):\n");
  } else {
    std::printf("\nper-session digests (bit-identical for any --shards / "
                "--max-batch):\n");
  }
  std::FILE* df = nullptr;
  if (!path.empty()) {
    df = std::fopen(path.c_str(), "w");
    if (df == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  for (const auto& [id, d] : table) {  // std::map: sorted by id
    std::printf("session %" PRIu64 " steps %" PRIu64 " digest %016" PRIx64 "\n",
                id, d.steps, d.digest);
    if (df != nullptr) {
      std::fprintf(df, "session %" PRIu64 " steps %" PRIu64
                       " digest %016" PRIx64 "\n",
                   id, d.steps, d.digest);
    }
  }
  if (df != nullptr) {
    std::fclose(df);
    std::printf("wrote %s\n", path.c_str());
  }
}

/// Everything the pool borrows, under one lifetime: either the seeded
/// random cell (synthetic load) or a materialized v2 checkpoint, plus
/// the per-layer fixed pruners and the pointer lists ServeModel views.
struct ServingAssets {
  // Random path.
  std::unique_ptr<nn::LstmCell> cell;
  // Checkpoint path.
  core::LoadedModel loaded;
  // Shared. Deque: growing never moves an element a pointer views.
  std::deque<core::StatePruner> pruners;
  std::vector<const nn::LstmCell*> cells;
  std::vector<const core::StatePruner*> pruner_ptrs;
  serve::ServeModel model;
  core::QuantConfig quant;
};

/// Builds the served model from the flags. Fails closed on every
/// checkpoint/flag disagreement — a silently coerced architecture
/// would serve wrong numbers without a diagnostic.
bool build_model(const Args& args, ServingAssets& out) {
  if (args.quant) out.quant = core::QuantConfig::int8();
  if (args.model.empty()) {
    num::Rng rng(args.seed);
    out.cell = std::make_unique<nn::LstmCell>(args.dx, args.dh, rng);
    out.cells.push_back(out.cell.get());
    out.pruners.emplace_back(core::PrunerConfig::fixed(args.threshold));
    out.pruner_ptrs.push_back(&out.pruners.back());
    out.model.cells = out.cells;
    out.model.pruners = out.pruner_ptrs;
    return true;
  }
  std::string error;
  if (!core::load_model(args.model, out.loaded, &error)) {
    std::fprintf(stderr, "zss_serve: cannot serve --model=%s: %s\n",
                 args.model.c_str(), error.c_str());
    return false;
  }
  const core::ModelSpec& spec = out.loaded.spec;
  if (args.quant) {
    if (spec.has_quant_grid == 0) {
      std::fprintf(stderr,
                   "zss_serve: --quant refused: %s records no quantization "
                   "grid (re-save the checkpoint with zss_train, which "
                   "always records one, or serve without --quant)\n",
                   args.model.c_str());
      return false;
    }
    out.quant.pre_clip = spec.quant_pre_clip;
    out.quant.c_clip = static_cast<int>(spec.quant_c_clip);
  }
  for (const auto& c : out.loaded.cells) out.cells.push_back(c.get());
  for (const float t : spec.thresholds) {
    out.pruners.emplace_back(core::PrunerConfig::fixed(t));
  }
  for (const auto& p : out.pruners) out.pruner_ptrs.push_back(&p);
  out.model.cells = out.cells;
  out.model.pruners = out.pruner_ptrs;
  out.model.embedding = out.loaded.embedding.get();
  out.model.name = args.model;
  out.model.vocab = static_cast<num::Index>(spec.vocab);
  // The shard enforces this with an abort; turn it into a usage error
  // while we still can (pipelining pins up to layers batches at once).
  const num::Index pin_span =
      (args.pipeline ? static_cast<num::Index>(spec.layers) : 1) *
      args.max_batch;
  if (args.max_sessions > 0 && args.max_sessions <= pin_span) {
    std::fprintf(stderr,
                 "zss_serve: --max-sessions must exceed %lld "
                 "(layers x max-batch pinned in flight with --pipeline)\n",
                 static_cast<long long>(pin_span));
    return false;
  }
  return true;
}

serve::PoolConfig pool_config(const Args& args, const ServingAssets& assets) {
  serve::PoolConfig config;
  config.shards = args.shards;
  config.policy.max_batch = args.max_batch;
  config.session_ttl.ttl_us = args.ttl_us;
  config.session_ttl.max_sessions = args.max_sessions;
  config.spill.dir = args.spill_dir;
  config.spill.encoded = args.spill_encoded;
  config.spill.journal = args.durability == "journal";
  config.spill.journal_sync = args.journal_sync == "none"
                                  ? store::JournalSync::kNone
                                  : store::JournalSync::kBatch;
  config.spill.journal_checkpoint_bytes = args.journal_checkpoint_bytes;
  config.quant = assets.quant;
  config.pipeline = args.pipeline;
  return config;
}

/// Creates --spill-dir if needed and takes its exclusive ownership
/// lock. Two instances appending into the same segment files would
/// destroy the valid-prefix invariant recovery depends on, so a held
/// lock is a hard startup refusal, not a warning (docs/store.md). The
/// lock must outlive the pool — keep the DirLock in the caller's scope.
bool acquire_spill_lock(const Args& args, store::DirLock& lock) {
  if (args.spill_dir.empty()) return true;
  if (::mkdir(args.spill_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "zss_serve: cannot create spill dir %s: %s\n",
                 args.spill_dir.c_str(), std::strerror(errno));
    return false;
  }
  if (!lock.acquire(args.spill_dir)) {
    std::fprintf(stderr, "zss_serve: refusing to start: %s\n",
                 lock.error().c_str());
    return false;
  }
  if (lock.took_over_stale()) {
    // flock dies with its holder, so a pre-existing-but-free LOCK means
    // the previous owner exited without cleaning up (most likely a
    // crash). That is the expected, recoverable case — say so instead
    // of letting the operator wonder whether the tier is safe to use.
    std::fprintf(stderr,
                 "zss_serve: %s/LOCK was left by a previous instance "
                 "(pid %ld, no longer running); taking ownership. Leftover "
                 ".tmp files will be removed and, with "
                 "--durability=journal, committed sessions restored "
                 "automatically.\n",
                 args.spill_dir.c_str(), lock.previous_pid());
  }
  return true;
}

/// A journal that refuses to open (its checkpoint/header is CRC-valid
/// but carries a different state_width — i.e. the spill dir belongs to
/// a different model) must stop the server: silently serving undurably
/// over history we refused to destroy would be worse than either
/// honoring or rebuilding it. The Journal's diagnostic says how to
/// resolve it (move the dir or fix the model flags).
bool check_durable_tier(const Args& args, serve::EnginePool& pool) {
  if (args.durability != "journal") return true;
  for (num::Index i = 0; i < pool.num_shards(); ++i) {
    const store::Journal* j = pool.journal(i);
    if (j != nullptr && !j->open_error().empty()) {
      std::fprintf(stderr, "zss_serve: %s\n", j->open_error().c_str());
      return false;
    }
  }
  return true;
}

/// Startup line for the durable tier: what was recovered, what debris
/// was cleaned. Printed after pool construction in every mode.
void report_recovery(const Args& args, const serve::EnginePool& pool) {
  if (args.durability != "journal") return;
  std::fprintf(stderr,
               "zss_serve: journal recovery: %" PRIu64 " sessions restored "
               "across %lld shards (max arrival %lld us, %" PRIu64
               " orphaned tmp files removed)\n",
               pool.recovered_sessions(),
               static_cast<long long>(pool.num_shards()),
               static_cast<long long>(pool.recovered_max_arrival_us()),
               pool.orphans_removed());
}

int run_replay(const Args& args) {
  std::vector<serve::TraceEvent> events;
  std::string error;
  if (!serve::load_trace_file(args.trace, events, &error)) {
    std::fprintf(stderr, "zss_serve: %s\n", error.c_str());
    return 1;
  }

  store::DirLock spill_lock;
  if (!acquire_spill_lock(args, spill_lock)) return 1;

  num::set_num_threads(args.threads);
  ServingAssets assets;
  if (!build_model(args, assets)) return 1;
  serve::EnginePool pool(assets.model, pool_config(args, assets));
  if (!check_durable_tier(args, pool)) return 1;
  report_recovery(args, pool);

  // The authoritative per-session digest table now lives in the
  // session stores (folded by commit_step on the serving path, durable
  // under the journal, reconstructed by recovery) — the sink only
  // serves --dump.
  const serve::ResponseSink sink = [&](const serve::Response& r) {
    if (args.dump) {
      std::printf("seq %" PRIu64 " session %" PRIu64 " done_us %lld batch %lld\n",
                  r.seq, r.session, static_cast<long long>(r.done_us),
                  static_cast<long long>(r.batch));
    }
  };

  const serve::ReplayResult result = serve::replay(pool, events, sink);
  const serve::DigestTable digests = pool.merged_digests();

  num::Index batches = 0;
  num::Index kept = 0, positions = 0;
  double mean_batch_num = 0.0;
  for (num::Index s = 0; s < pool.num_shards(); ++s) {
    batches += pool.shard(s).stats().batches;
    mean_batch_num += static_cast<double>(pool.shard(s).stats().requests);
    kept += pool.shard(s).engine().stats().kept_positions;
    positions += pool.shard(s).engine().stats().positions;
  }
  const double obs_sparsity =
      positions == 0 ? 0.0
                     : 1.0 - static_cast<double>(kept) /
                                 static_cast<double>(positions);

  const serve::ModelInfo& mi = pool.model_info();
  std::printf("zss_serve: kernel_backend=%s model=%s layers=%lld dh=%lld "
              "vocab=%lld quant=%s pipeline=%s threads=%d\n",
              num::simd::active_backend().name, mi.name.c_str(),
              static_cast<long long>(mi.layers),
              static_cast<long long>(mi.dh),
              static_cast<long long>(mi.vocab), mi.quant ? "int8" : "off",
              args.pipeline ? "on" : "off", args.threads);
  std::printf(
      "replayed %lld requests -> %lld responses in %lld batches "
      "(mean batch %.2f) over %lld shards, virtual end %lld us\n",
      static_cast<long long>(result.requests),
      static_cast<long long>(result.responses),
      static_cast<long long>(batches),
      batches == 0 ? 0.0 : mean_batch_num / static_cast<double>(batches),
      static_cast<long long>(pool.num_shards()),
      static_cast<long long>(result.end_us));
  std::printf("observed intersected sparsity %.4f across %lld sessions\n",
              obs_sparsity, static_cast<long long>(digests.size()));

  if (!args.spill_dir.empty()) {
    std::uint64_t spilled = 0, restored = 0, corrupt = 0;
    num::Index active = 0;
    for (num::Index s = 0; s < pool.num_shards(); ++s) {
      const serve::SessionStore& ss = pool.shard(s).sessions();
      spilled += ss.spilled();
      restored += ss.restored();
      corrupt += ss.restore_corrupt();
      if (ss.spill_active()) ++active;
    }
    std::printf("spill tier: spilled %" PRIu64 " restored %" PRIu64
                " corrupt %" PRIu64 " active_shards %lld/%lld\n",
                spilled, restored, corrupt, static_cast<long long>(active),
                static_cast<long long>(pool.num_shards()));
  }

  print_digests(digests, args.digests_path,
                args.max_sessions > 0 && args.spill_dir.empty());

  if (result.responses != result.requests) {
    std::fprintf(stderr, "zss_serve: %lld requests but %lld responses\n",
                 static_cast<long long>(result.requests),
                 static_cast<long long>(result.responses));
    return 1;
  }
  return 0;
}

/// Serializes all protocol output onto one dedicated writer thread.
/// Shard workers and the ingest loop only ever enqueue under a short
/// lock — nobody blocks on a slow reader while holding a lock the
/// serving loop needs. A pipelining client that stops reading degrades
/// to queued output; it can never deadlock the server (the failure mode
/// of writing to a full pipe inside the response sink).
class OutputWriter {
 public:
  explicit OutputWriter(std::FILE* f) : f_(f) {
    thread_ = std::thread([this] { run(); });
  }

  /// Any exit path (including a future early return or an exception)
  /// must join the writer, not std::terminate on a joinable thread.
  ~OutputWriter() { finish(); }

  void push(std::string line) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(line));
    }
    cv_.notify_one();
  }

  /// Drains everything queued, then joins. Idempotent; call after the
  /// last push.
  void finish() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
      const bool done = done_;
      std::swap(queue_, taking_);
      lock.unlock();
      for (const std::string& line : taking_) {
        std::fprintf(f_, "%s\n", line.c_str());
      }
      if (!taking_.empty()) std::fflush(f_);
      taking_.clear();
      if (done) return;
      lock.lock();
    }
  }

  std::FILE* f_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> queue_, taking_;
  bool done_ = false;
  std::thread thread_;
};

/// Writes the recorded trace (shared by stdin mode and the front end).
bool write_recording(const serve::LiveServer& server, const std::string& path) {
  std::ofstream rec(path);
  if (!rec) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  serve::write_trace(rec, server.recorded_trace());
  std::printf("recorded %zu requests to %s (replay with --trace= and the "
              "same model/ttl flags)\n",
              server.recorded_trace().size(), path.c_str());
  return true;
}

/// Exit bookkeeping shared by stdin mode and the front end: recording,
/// digest table, and the submitted==responses invariant.
int finish_live(const serve::LiveServer& server,
                const serve::DigestTable& digests, const Args& args) {
  if (!args.record_path.empty() &&
      !write_recording(server, args.record_path)) {
    return 1;
  }
  print_digests(digests, args.digests_path,
                args.max_sessions > 0 && args.spill_dir.empty());
  if (server.restarts() > 0) {
    std::fprintf(stderr,
                 "zss_serve: %" PRIu64 " worker restart(s); %" PRIu64
                 " accepted request(s) abandoned mid-restart (clients "
                 "re-drive them via sync/pos)\n",
                 server.restarts(), server.abandoned());
  }
  // The live ledger: every accepted request was either answered (ok or
  // err timeout) or lost to a worker restart — nothing silently
  // vanishes, nothing is answered twice.
  if (server.responded() + server.abandoned() != server.submitted()) {
    std::fprintf(stderr, "zss_serve: %" PRIu64 " submitted but %" PRIu64
                         " responses + %" PRIu64 " abandoned\n",
                 server.submitted(), server.responded(), server.abandoned());
    return 1;
  }
  return 0;
}

/// SIGINT/SIGTERM land here while the front end runs: Frontend::stop()
/// is async-signal-safe (atomic store + eventfd write), so a ^C drains
/// in-flight requests, sends every client its `bye`, and exits cleanly
/// — the recorded trace and digest table stay intact.
std::atomic<serve::Frontend*> g_frontend{nullptr};

void on_signal(int) {
  if (serve::Frontend* f = g_frontend.load()) f->stop();
}

/// Multiplexed live mode: --socket and/or --tcp. Any number of
/// concurrent clients; the event loop owns all connection state
/// (serve/frontend.h) and --max-queue becomes the fair per-connection
/// in-flight cap.
int run_frontend(const Args& args, serve::EnginePool& pool) {
  serve::FrontendConfig fc;
  fc.unix_path = args.socket_path;
  fc.tcp_port = args.tcp_port;
  fc.max_queue = args.max_queue;
  serve::LiveConfig live;
  live.record = !args.record_path.empty();
  live.deadline_us = args.deadline_us;
  serve::Frontend frontend(pool, fc, live);
  std::string error;
  if (!frontend.start(&error)) {
    std::fprintf(stderr, "zss_serve: %s\n", error.c_str());
    return 1;
  }
  serve::SupervisorConfig sup_cfg;
  sup_cfg.stall_ms = args.worker_stall_ms;
  serve::Supervisor supervisor(frontend.server(), sup_cfg);
  supervisor.start();  // no-op unless --worker-stall-ms > 0
  g_frontend.store(&frontend);
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  std::fprintf(stderr,
               "zss_serve: frontend live, kernel_backend=%s shards=%lld "
               "max_batch=%lld max_queue=%lld\n",
               num::simd::active_backend().name,
               static_cast<long long>(args.shards),
               static_cast<long long>(args.max_batch),
               static_cast<long long>(args.max_queue));
  if (!args.socket_path.empty()) {
    std::fprintf(stderr, "zss_serve: listening on %s\n",
                 args.socket_path.c_str());
  }
  if (args.tcp_port >= 0) {
    // Scripts passing --tcp=0 read the resolved port off this line.
    std::fprintf(stderr, "zss_serve: listening on tcp port %d\n",
                 frontend.tcp_port());
  }

  frontend.join();
  supervisor.stop();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_frontend.store(nullptr);

  const serve::FrontendStats& fs = frontend.stats();
  std::fprintf(stderr,
               "zss_serve: frontend accepted=%" PRIu64 " disconnected=%" PRIu64
               " shed=%" PRIu64 " dropped_responses=%" PRIu64
               " oversize_lines=%" PRIu64 " read_pauses=%" PRIu64
               " discarded_partial=%" PRIu64 "\n",
               fs.accepted, fs.disconnected, fs.shed, fs.dropped_responses,
               fs.oversize_lines, fs.read_pauses, fs.discarded_partial);
  return finish_live(frontend.server(), frontend.digests(), args);
}

int run_live(const Args& args) {
  store::DirLock spill_lock;
  if (!acquire_spill_lock(args, spill_lock)) return 1;

  num::set_num_threads(args.threads);
  ServingAssets assets;
  if (!build_model(args, assets)) return 1;
  serve::EnginePool pool(assets.model, pool_config(args, assets));
  if (!check_durable_tier(args, pool)) return 1;
  report_recovery(args, pool);

  if (!args.socket_path.empty() || args.tcp_port >= 0) {
    return run_frontend(args, pool);
  }

  // stdin/stdout mode: one anonymous client on the standard streams
  // (no connection ids — submit leaves Request::client 0).
  //
  // The sink runs on every shard worker thread. Digest folding already
  // happened on the shard (SessionStore::commit_step — the
  // authoritative, journal-durable table); the sink only formats the
  // line, and the actual write happens on the writer thread.
  // Per-session output ordering is preserved because a session's
  // responses all come from its one shard worker.
  OutputWriter out(stdout);
  const serve::ResponseSink sink = [&](const serve::Response& r) {
    out.push(r.timed_out ? serve::format_error("timeout")
                         : serve::format_response(r, r.row_digest));
  };

  serve::LiveConfig live;
  live.max_queue = args.max_queue;
  live.record = !args.record_path.empty();
  live.deadline_us = args.deadline_us;
  serve::LiveServer server(pool, sink, live);
  serve::SupervisorConfig sup_cfg;
  sup_cfg.stall_ms = args.worker_stall_ms;
  serve::Supervisor supervisor(server, sup_cfg);
  supervisor.start();  // no-op unless --worker-stall-ms > 0

  std::fprintf(stderr,
               "zss_serve: live, kernel_backend=%s shards=%lld max_batch=%lld "
               "ttl_us=%lld max_sessions=%lld\n",
               num::simd::active_backend().name,
               static_cast<long long>(args.shards),
               static_cast<long long>(args.max_batch),
               static_cast<long long>(args.ttl_us),
               static_cast<long long>(args.max_sessions));

  char* line = nullptr;
  std::size_t cap = 0;
  ssize_t len;
  while ((len = ::getline(&line, &cap, stdin)) >= 0) {
    std::string_view sv(line, static_cast<std::size_t>(len));
    // Strip the framing newline: parse errors echo the offending line
    // back, and an embedded '\n' would split the err response in two.
    while (!sv.empty() && (sv.back() == '\n' || sv.back() == '\r')) {
      sv.remove_suffix(1);
    }
    serve::CommandLine cmd;
    std::string error;
    const serve::ParseStatus st = serve::parse_command(sv, cmd, &error);
    if (st == serve::ParseStatus::kBlank) continue;
    if (st == serve::ParseStatus::kError) {
      out.push(serve::format_error(error));
      continue;
    }
    if (cmd.op == serve::CommandLine::Op::kQuit) break;
    if (cmd.op == serve::CommandLine::Op::kFlush) {
      server.flush_all();
      continue;
    }
    if (cmd.op == serve::CommandLine::Op::kStats) {
      out.push(serve::format_stats(serve::snapshot_stats(server, pool)));
      continue;
    }
    if (cmd.op == serve::CommandLine::Op::kSync) {
      serve::SessionDigest d;
      server.with_stable_topology([&] {
        d = pool.shard(pool.shard_of(cmd.session))
                .sessions()
                .digest_of(cmd.session);
      });
      out.push(serve::format_pos(cmd.session, d));
      continue;
    }
    serve::SubmitStatus status = serve::SubmitStatus::kOk;
    if (!server.submit(cmd.session, cmd.token, 0, &status).has_value()) {
      out.push(serve::format_error(
          status == serve::SubmitStatus::kUnavailable
              ? "unavailable, shard restarting"
              : "overloaded, request shed"));
    }
  }
  std::free(line);

  supervisor.stop();
  server.shutdown();
  out.push(serve::format_bye(server.submitted(), server.responded()));
  out.finish();

  return finish_live(server, pool.merged_digests(), args);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }

  if (args.emit_trace > 0) {
    num::Rng rng(args.seed);
    const auto events = serve::synthetic_trace(args.emit_trace, args.sessions,
                                               args.dx, args.gap_us, rng);
    serve::write_trace(std::cout, events);
    return 0;
  }

  if (args.live) return run_live(args);

  if (args.trace.empty()) {
    usage();
    return 2;
  }
  return run_replay(args);
}
