// Serving sessions — per-client recurrent state owned outside the engine.
//
// A Session is one client's conversation with the model: its h/c state
// (1 x dh each), a step counter, and the id requests address it by. The
// SparseLstmEngine never owns state (its h/c parameters are bound per
// call by reference — core/sparse_inference.h), so the serving layer
// keeps exactly one Session per client and swaps its matrices into a
// step with no element copies on the batch-of-one path; batched steps
// gather/scatter the rows explicitly (serve/shard.cc), which is one of
// the two costs the batching policy trades against (docs/serving.md).
//
// Eviction (docs/serving.md "Live mode"): a store can be bounded by a
// per-session TTL and an LRU cap so millions of transient clients do
// not exhaust memory. Both rules are *arrival-driven* — they compare
// request arrival stamps, never a wall clock read of their own — so
// every eviction decision is a pure function of the request stream and
// a recorded live run replays bit-identically through the virtual
// clock path:
//   * TTL is lazy: a session whose next request arrives more than
//     ttl_us after its previous one restarts from zero state (the
//     defined start of the recurrence) — decided per session from its
//     own gaps, so it cannot depend on batching or shard count.
//   * The physical sweep (sweep_expired) frees memory for sessions the
//     lazy rule would reset anyway: arrivals are monotone per shard,
//     so any future request of a swept session is guaranteed to arrive
//     past its TTL. Sweeping is therefore value-neutral — it may run
//     at any batch boundary without changing a single output bit.
//   * The LRU cap evicts the least-recently-arrived *alive* session
//     when a new one must be created at capacity, where alive means
//     within the TTL of the incoming arrival stamp. Both the cap
//     check and the victim choice are computed over that stamp-defined
//     set — never over physical size(), which varies with sweep timing
//     — so each eviction decision depends only on the stamped request
//     prefix (identical live and replayed, whatever the grouping).
//     Already-processed lanes are pinned — required so an eviction
//     never invalidates their Session pointers mid-batch, and never
//     the oldest alive session anyway since get_or_create just moved
//     them to the front — while a session whose request sits later in
//     the same batch enjoys no protection, exactly as if requests were
//     served one at a time.
// Tiering (docs/store.md): attaching a store::SegmentStore via
// set_spill turns the LRU cap from a *forget* policy into a *tiering*
// policy. A cap victim's h/c state is appended to the spill tier on
// eviction and read back — bit-for-bit — when the session returns
// within its TTL, so capped serving produces exactly the digests of
// uncapped serving (the oracle equivalence the fuzz suite enforces):
//   * return within TTL: restore bits, generation and step count; the
//     eviction is invisible in every output.
//   * return past TTL: the record could only ever have been restored
//     into a TTL reset, so it is dropped unread and the session
//     restarts from zero with generation+1 — the same transition the
//     lazy TTL rule applies to a resident session.
//   * corrupt record (CRC mismatch): degrade to the pre-spill
//     behavior — a fresh generation-zero session — and count it in
//     restore_corrupt(); never an abort.
//   * spilling disabled (write-error policy) or no store attached:
//     eviction forgets, exactly the pre-spill semantics.
// Sessions freed by sweep_expired are NOT spilled: any future request
// arrives past their TTL (per-shard arrivals are monotone), so the
// record could never be restored.
//
// Durability (docs/store.md "Session journal"): attaching a
// store::Journal via set_journal makes every committed transition of
// this store — create, post-batch state update, TTL reset, evict,
// erase — a write-ahead record, and recover_from() reconstructs the
// exact RAM population (sessions, LRU order, digest table) a crashed
// instance last committed. The store also owns the *authoritative
// digest table*: commit_step() folds each served row into it on the
// shard thread, so every serving mode (replay, stdin live, the
// multiplexed front end, and a recovered restart) reads one table with
// one locking rule instead of each sink keeping its own copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "num/matrix.h"
#include "num/types.h"
#include "serve/digest.h"
#include "store/journal.h"
#include "store/segment_store.h"

namespace zss::serve {

/// Client identifier. Plain 64-bit so requests, trace lines and hash
/// sharding never touch the heap.
using SessionId = std::uint64_t;

/// Eviction policy of a SessionStore. Defaults keep every session
/// forever (the PR-3 behavior; what the closed-loop benches want).
struct SessionTtl {
  /// A session idle for strictly more than this many microseconds of
  /// *arrival time* restarts from zero state on its next request; its
  /// storage may be reclaimed by sweep_expired() meanwhile. Negative
  /// disables the TTL.
  std::int64_t ttl_us = -1;
  /// Hard cap on live sessions per store; creating one past the cap
  /// evicts the least-recently-arrived unpinned session. 0 = unbounded.
  /// A shard requires max_sessions > max_batch (serve/shard.cc) so a
  /// victim always exists outside the batch being served.
  num::Index max_sessions = 0;
};

struct Session {
  Session() = default;
  // The store's LRU list holds raw pointers into the map's nodes;
  // copying or moving a Session would leave those dangling.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  SessionId id = 0;
  /// One (1 x dh) pair per model layer, stored pruned — exactly what
  /// DRAM would hold. Separate matrices (not one L x dh) so the
  /// batch-of-one path binds them straight into the stacked engine's
  /// per-layer step with zero copies (std::span over the vector).
  std::vector<num::Matrix> h;
  std::vector<num::Matrix> c;
  std::uint64_t steps = 0;
  /// Incremented each time the TTL rule restarted this session from
  /// zero state (the client kept its id but lost its conversation).
  std::uint64_t generation = 0;
  /// Arrival stamp of the last request that touched this session.
  std::int64_t last_arrival_us = 0;
  /// Set by the shard while this session is a lane of the batch being
  /// served; pinned sessions are never evicted or swept. A batch never
  /// holds one session twice (serve/batcher.h), so a flag suffices.
  bool pinned = false;

 private:
  friend class SessionStore;
  Session* lru_prev_ = nullptr;  // toward most recently used
  Session* lru_next_ = nullptr;  // toward least recently used
};

/// Owns every session of one shard. Sessions are created on first use
/// with all-zero state (the recurrence's defined start); lookups on the
/// hot path never allocate. Single-threaded by design — a store belongs
/// to exactly one shard, and a shard to exactly one worker thread.
class SessionStore {
 public:
  /// `layers` is the model depth: each session carries one (1 x dh)
  /// h/c pair per layer, and the spill tier packs them side by side
  /// into one record of width layers * hidden_dim (state_width()).
  explicit SessionStore(num::Index hidden_dim, SessionTtl ttl = {},
                        num::Index layers = 1);

  /// Returns the session, creating it with zero state if unseen (or if
  /// the TTL expired since its previous request — same zero state, new
  /// generation). `arrival_us` is the requesting event's arrival stamp;
  /// callers must pass them non-decreasing (per-shard arrival order),
  /// which is what makes eviction replay-deterministic. Creation
  /// allocates; steady-state serving only looks up.
  Session& get_or_create(SessionId id, std::int64_t arrival_us = 0);

  /// Physically frees unpinned sessions whose TTL has expired relative
  /// to `newest_arrival_us` (the newest arrival stamp processed so
  /// far). Value-neutral by the monotone-arrivals argument above; call
  /// it at batch boundaries, never mid-batch. Returns sessions freed.
  num::Index sweep_expired(std::int64_t newest_arrival_us);

  Session* find(SessionId id);
  const Session* find(SessionId id) const;

  num::Index size() const { return static_cast<num::Index>(sessions_.size()); }
  num::Index hidden_dim() const { return dh_; }
  num::Index layers() const { return layers_; }
  /// Row width of one session's packed state (layers * hidden_dim) —
  /// the hidden_dim a spill SegmentStore must be built with.
  num::Index state_width() const { return layers_ * dh_; }
  const SessionTtl& ttl() const { return ttl_; }

  /// Attaches the durable spill tier (non-owning; the pool owns the
  /// store, one per shard). Null detaches — evictions forget again.
  void set_spill(store::SegmentStore* spill) {
    spill_ = spill;
    spill_active_.store(spill != nullptr && spill->spilling_enabled(),
                        std::memory_order_relaxed);
  }
  store::SegmentStore* spill() { return spill_; }

  /// Attaches the write-ahead journal (non-owning, one per shard).
  /// Null detaches — transitions stop being logged. Attach before the
  /// first request; recover_from() must run with the journal attached.
  void set_journal(store::Journal* journal) {
    journal_ = journal;
    journal_active_.store(journal != nullptr && journal->enabled(),
                          std::memory_order_relaxed);
  }
  store::Journal* journal() { return journal_; }

  /// Commits one served step of `s`: folds the row digest into the
  /// authoritative digest table and appends the session's post-step
  /// absolute state to the journal (a kUpdate record). The shard calls
  /// this once per lane, before the batch's group commit; the record
  /// is durable only after the journal's commit() at the batch
  /// boundary.
  void commit_step(Session& s, std::uint64_t row_digest);

  /// Group-commit barrier at the batch boundary: syncs every record
  /// appended since the previous commit. The shard must call this
  /// BEFORE delivering the batch's responses — that ordering is the
  /// entire durability guarantee (a client never observes a response
  /// whose state transition could be lost).
  void commit_batch();

  /// Writes a checkpoint and truncates the journal once it has grown
  /// past its size threshold. Call at batch boundaries only (it reads
  /// every session's state). Returns true if a checkpoint was written.
  bool maybe_checkpoint();

  /// Rebuilds this store from the journal's recovery output: the
  /// checkpoint population, then every post-watermark record in LSN
  /// order, then a reconcile pass erasing the spill tier's stale
  /// records for sessions the journal proved RAM-resident. Call once,
  /// on an empty store, with spill and journal already attached.
  void recover_from(store::Journal& journal);

  /// The session's committed position in the authoritative digest
  /// table (zero-value default when unseen). Thread-safe: the frontend
  /// answers "sync" queries from the event-loop thread while the shard
  /// worker folds.
  SessionDigest digest_of(SessionId id) const;

  /// Snapshot of the authoritative digest table (thread-safe).
  DigestTable digests_copy() const;

  /// Lifetime counters (monotone; not epoch-scoped). Relaxed atomics:
  /// each is written by the one shard thread that owns this store and
  /// may be read concurrently by the live server's stats path.
  std::uint64_t created() const {
    return created_.load(std::memory_order_relaxed);
  }
  std::uint64_t ttl_resets() const {
    return ttl_resets_.load(std::memory_order_relaxed);
  }
  std::uint64_t evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }
  std::uint64_t spilled() const {
    return spilled_.load(std::memory_order_relaxed);
  }
  std::uint64_t restored() const {
    return restored_.load(std::memory_order_relaxed);
  }
  std::uint64_t restore_corrupt() const {
    return restore_corrupt_.load(std::memory_order_relaxed);
  }
  /// True while a spill tier is attached and accepting writes; flips
  /// false when the store's write-error policy degrades it. Mirrored
  /// into an atomic so the stats path never touches the store itself.
  bool spill_active() const {
    return spill_active_.load(std::memory_order_relaxed);
  }
  /// Same, for the write-ahead journal.
  bool journal_active() const {
    return journal_active_.load(std::memory_order_relaxed);
  }

 private:
  void lru_unlink(Session& s);
  void lru_push_front(Session& s);
  void evict(Session& s, bool spill_state);
  /// Packs the L per-layer rows side by side into the spill_h_/spill_c_
  /// staging rows (1 x state_width) — the layout both the spill tier
  /// and the journal persist.
  void pack_state(const Session& s);
  void unpack_state(Session& s, const float* h, const float* c);
  void journal_note(store::JournalRecordKind kind, const Session& s);
  void bump(std::atomic<std::uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  num::Index dh_;
  num::Index layers_;
  SessionTtl ttl_;
  std::unordered_map<SessionId, Session> sessions_;
  // Pack/unpack staging for the spill tier: one (1 x state_width())
  // row per matrix, reused across evictions and restores.
  num::Matrix spill_h_;
  num::Matrix spill_c_;
  Session* lru_head_ = nullptr;  // most recently used
  Session* lru_tail_ = nullptr;  // least recently used
  store::SegmentStore* spill_ = nullptr;
  store::Journal* journal_ = nullptr;
  // The authoritative digest table. Written only by the owning shard
  // thread (commit_step, recover_from); the mutex exists for the
  // cross-thread readers — "sync" queries and shutdown snapshots.
  mutable std::mutex digest_mu_;
  DigestTable digests_;
  std::atomic<std::uint64_t> created_{0};
  std::atomic<std::uint64_t> ttl_resets_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::uint64_t> spilled_{0};
  std::atomic<std::uint64_t> restored_{0};
  std::atomic<std::uint64_t> restore_corrupt_{0};
  std::atomic<bool> spill_active_{false};
  std::atomic<bool> journal_active_{false};
};

}  // namespace zss::serve
