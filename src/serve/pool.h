// Sharded engine pool — hash-pinned sessions over N independent shards.
//
// Sessions are pinned to shards by a SplitMix64 hash of their id, so a
// session's whole request stream is served by one engine in arrival
// order (the invariant per-session determinism rests on). Shards share
// nothing mutable — the cell and pruner are read-only — which gives
// the pool the same property num::parallel_for gives the kernels:
// results are bit-identical whether the shards run sequentially
// (process_ready / flush, the virtual-time replay path) or one thread
// per shard (drain_parallel, the throughput path), and bit-identical
// across shard counts (only the *grouping* of requests into batches
// changes, and grouping cannot change values — docs/serving.md).
//
// Durability ladder (docs/serving.md "Crash recovery"): with a spill
// dir the LRU cap tiers to disk (PR 6); with the journal enabled on
// top, every shard also write-ahead-logs its committed session
// transitions and the pool cold-recovers the full session population —
// sessions, LRU order, digest tables — at construction. The pool also
// supports rebuild_shard(): tearing one crashed/wedged shard down and
// re-recovering it from its own journal while the others keep serving
// (the supervisor's repair primitive, serve/supervisor.h).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "serve/shard.h"
#include "store/io.h"
#include "store/journal.h"
#include "store/segment_store.h"

namespace zss::serve {

/// Durable spill tier of the pool (docs/store.md). When `dir` is
/// non-empty every shard gets its own segment file "<dir>/shard_<i>.seg"
/// — shared-nothing carries through to disk — and its LRU cap becomes a
/// tiering policy instead of a forget policy.
struct SpillConfig {
  std::string dir;  // empty = no spill tier
  /// Spill h through the paper's offset encoding (store/segment_store.h
  /// explains the -0.0 dense fallback that keeps round-trips bit-exact).
  bool encoded = false;
  /// Filesystem to use. Null = the real one (PosixEnv); tests inject
  /// MemEnv / fault wrappers. Borrowed, must outlive the pool.
  store::Env* env = nullptr;
  /// Write-ahead journal per shard ("<dir>/shard_<i>.jnl" + ".ckpt"):
  /// every committed session transition is logged and the pool
  /// cold-recovers the full population at construction. Requires a
  /// non-empty `dir`. This is --durability=journal.
  bool journal = false;
  /// Group-commit fsync policy of the journals (store/journal.h).
  store::JournalSync journal_sync = store::JournalSync::kBatch;
  /// Journal size past which a shard checkpoints at a batch boundary.
  std::uint64_t journal_checkpoint_bytes = std::uint64_t{4} << 20;
};

struct PoolConfig {
  num::Index shards = 1;
  BatchPolicy policy;
  sparse::EncoderConfig encoder;
  /// Session eviction policy, applied per shard (serve/session.h).
  SessionTtl session_ttl;
  SpillConfig spill;
  /// Engine datapath for every shard: default fp32, or the int8
  /// quantized mode (core::QuantConfig::int8()); shard-count
  /// determinism holds for both (tests/serve/shard_determinism_test.cc).
  core::QuantConfig quant;
  /// Layer-pipelined flush on multi-layer models (serve/shard.h's
  /// wavefront). Ignored for single-layer models. Bit-identical to the
  /// sequential schedule at any shard count — only wall-clock changes.
  bool pipeline = false;
};

class EnginePool {
 public:
  /// Serves `model` on every shard. The pool copies the pointer lists
  /// (and name/vocab) so it can rebuild a shard later; the pointees —
  /// cells, pruners, embedding — must outlive the pool.
  EnginePool(const ServeModel& model, const PoolConfig& config);

  /// Single-layer convenience (synthetic-load benches, most tests):
  /// borrows cell and pruner, serves one-hot inputs.
  EnginePool(const nn::LstmCell& cell, const core::StatePruner& pruner,
             const PoolConfig& config);

  num::Index num_shards() const { return static_cast<num::Index>(shards_.size()); }
  num::Index shard_of(SessionId id) const;

  EngineShard& shard(num::Index i) { return *shards_[static_cast<std::size_t>(i)]; }
  const EngineShard& shard(num::Index i) const {
    return *shards_[static_cast<std::size_t>(i)];
  }

  /// Routes a request to its session's shard.
  void enqueue(const Request& r);

  /// Sequentially serves at most one batch per shard. Returns total
  /// requests consumed; call in a loop until 0 to settle a timestep.
  num::Index process_ready(std::int64_t now_us, const ResponseSink& sink);

  /// Sequentially drains every queue (with pipelining, through each
  /// shard's layer wavefront).
  num::Index flush(std::int64_t now_us, const ResponseSink& sink);

  /// Drains every shard on its own thread (shared-nothing, so outputs
  /// are bit-identical to flush()). `shard_sinks` must provide one sink
  /// per shard; each is called only from that shard's thread.
  num::Index drain_parallel(std::int64_t now_us,
                            std::span<const ResponseSink> shard_sinks);

  num::Index pending() const;

  /// Starts a new measurement epoch on every shard (shard counters and
  /// engine cumulative stats).
  void reset_stats();

  /// Tears shard `i` down and rebuilds it from its own durable state:
  /// fresh engine + session store, spill segment reopened, journal
  /// replayed (sessions, LRU order, digest table — exactly what the
  /// crashed/wedged shard last committed). The old shard, spill store
  /// and journal move to a graveyard rather than being destroyed, so a
  /// truly wedged thread still inside the old shard cannot touch freed
  /// memory. The caller must guarantee no *cooperating* thread touches
  /// shard `i` during the call (the supervisor quarantines it first).
  void rebuild_shard(num::Index i);

  /// The shard's spill store, or null when no tier is configured (or
  /// its open failed and the shard runs RAM-only).
  store::SegmentStore* spill_store(num::Index i) {
    return spills_.empty() ? nullptr
                           : spills_[static_cast<std::size_t>(i)].get();
  }
  const store::SegmentStore* spill_store(num::Index i) const {
    return spills_.empty() ? nullptr
                           : spills_[static_cast<std::size_t>(i)].get();
  }

  /// The shard's write-ahead journal, or null when --durability is not
  /// `journal` (or its open failed and the shard runs undurably).
  store::Journal* journal(num::Index i) {
    return journals_.empty() ? nullptr
                             : journals_[static_cast<std::size_t>(i)].get();
  }
  const store::Journal* journal(num::Index i) const {
    return journals_.empty() ? nullptr
                             : journals_[static_cast<std::size_t>(i)].get();
  }

  /// Union of the shards' authoritative digest tables. Sessions are
  /// hash-pinned, so the per-shard tables are disjoint and the union
  /// is exact. Thread-safe (each store's digest mutex).
  DigestTable merged_digests() const;

  /// Newest arrival stamp any shard's journal recovered — the floor a
  /// restarted LiveServer must stamp new arrivals above so per-shard
  /// arrivals stay monotone across the crash (serve/session.h's
  /// eviction determinism needs monotone stamps). 0 when nothing was
  /// recovered.
  std::int64_t recovered_max_arrival_us() const {
    return recovered_max_arrival_us_;
  }

  /// Total sessions recovered into RAM at construction (diagnostics).
  std::uint64_t recovered_sessions() const { return recovered_sessions_; }

  /// Orphaned .tmp files removed across all stores at open — debris of
  /// a crashed instance, surfaced for the startup diagnostics.
  std::uint64_t orphans_removed() const;

  /// Identity of the model every shard serves (protocol stat line).
  /// Immutable after construction, so concurrent readers need no lock.
  const ModelInfo& model_info() const { return model_info_; }

 private:
  void build_shards(const PoolConfig& config);
  std::unique_ptr<EngineShard> make_shard() const;
  void attach_stores(num::Index i);

  // unique_ptr so rebuild_shard can swap one slot without relocating
  // the others (a shard's engine hands out workspace references it
  // must keep valid).
  std::vector<std::unique_ptr<EngineShard>> shards_;
  std::unique_ptr<store::PosixEnv> owned_env_;
  store::Env* env_ = nullptr;  // spill/journal filesystem (if any)
  std::vector<std::unique_ptr<store::SegmentStore>> spills_;
  std::vector<std::unique_ptr<store::Journal>> journals_;
  // Retired by rebuild_shard, destroyed with the pool: a wedged thread
  // abandoned inside an old shard must never see freed memory.
  std::vector<std::unique_ptr<EngineShard>> shard_graveyard_;
  std::vector<std::unique_ptr<store::SegmentStore>> spill_graveyard_;
  std::vector<std::unique_ptr<store::Journal>> journal_graveyard_;
  // The model, re-owned: ServeModel is a span view, so rebuild_shard
  // needs the pool to keep its own backing lists (pointees still
  // borrowed from the caller).
  std::vector<const nn::LstmCell*> cells_;
  std::vector<const core::StatePruner*> pruners_;
  const nn::Embedding* embedding_ = nullptr;
  std::string model_name_;
  num::Index model_vocab_ = 0;
  PoolConfig config_;
  ModelInfo model_info_;
  std::int64_t recovered_max_arrival_us_ = 0;
  std::uint64_t recovered_sessions_ = 0;
};

}  // namespace zss::serve
