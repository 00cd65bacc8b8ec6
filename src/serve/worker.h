// Real-time serving loop — persistent per-shard workers and the live
// front end that feeds them.
//
// PR 3's EnginePool::drain_parallel spawns one thread per shard *per
// drain*: fine for a closed-loop bench, hopeless for live traffic
// (thread create/join per timestep). This layer keeps one persistent
// worker thread per shard, woken by a condition variable when work
// arrives and parked only when it has none, so an idle server burns no
// CPU and a busy one never pays thread churn.
//
// Threading model (docs/serving.md "Live mode"):
//   * Producers call LiveServer::submit() from any thread. A single
//     stamping mutex assigns each request a monotone arrival stamp and
//     a global seq, optionally records it as a trace event, and hands
//     it to its session's shard worker — all under the one lock, so
//     the per-shard queue order, the recorded trace order and the
//     stamp order are the same total order. That total order is what
//     makes a recorded live run replay bit-identically through the
//     virtual-clock path (serve/trace.h).
//   * Each ShardWorker drains its two-buffer inbox (producers append
//     under a short lock; the worker swaps buffers and drains outside
//     it — the MPSC handoff), feeds its shard's RequestBatcher, and
//     serves one batch; then it takes the inbox again. It is
//     work-conserving: a batch is whatever is pending when the worker
//     is free (capped at max_batch), and whatever arrives while it
//     serves forms the next one. The shard itself stays single-threaded:
//     everything PR 3 proved about shared-nothing shards still holds,
//     the worker is just a persistent home for that thread.
//   * Wake-time jitter moves batch *boundaries*, never values: the
//     determinism guarantee makes outputs independent of grouping, and
//     session TTL/LRU decisions are arrival-driven (serve/session.h).
//
// Supervision (docs/serving.md "Crash recovery"): each worker stamps a
// monotonic heartbeat at every loop iteration (once per batch) and at
// every response delivery, so a watchdog
// (serve/supervisor.h) can tell a busy worker — however deep its
// backlog — from a wedged one. A worker judged dead is *abandoned* — a
// cooperative flag it checks before every touch of the shard (the
// pre-serve checkpoint, once per batch) AND at every response delivery: the worker's sink fence drops any
// response once the flag is set, so even a thread that was wedged
// mid-batch inside the engine and resumes after the abandon grace can
// never hand out a response the rebuilt shard will re-serve (the
// journal side of that race is fenced by store poisoning —
// EnginePool::rebuild_shard). The server quarantines the shard
// (`submit` returns kUnavailable), rebuilds it from its journal and
// mounts a fresh worker. The abandoned worker object moves to a
// graveyard so cooperating threads keep seeing valid memory; the
// worker thread itself shares ownership of its control block, so even
// a thread detached at destruction never touches freed memory.
//
// Ledger: inflight() counts accepted-but-not-yet-RESPONDED requests —
// the sink fence decrements it per delivered response, and a
// suppressed (post-abandon) response deliberately never decrements.
// An abandoned worker's final inflight() is therefore exactly its
// requests that no one answered, and the server folds it into
// `abandoned` once the thread acknowledges (or at shutdown for a
// thread wedged forever). The ledger then reads:
//     submitted == responded + abandoned        (after shutdown)
// — every accepted request is either answered or accounted as lost to
// a restart (its client re-drives it via the resume protocol). One
// caveat, inherent to not waiting forever: a thread wedged INSIDE the
// user sink call holds one response past the fence; it is counted
// abandoned at shutdown, and if the sink ever unblocks afterwards the
// delivery also lands — the client sees the answer it already re-drove.
//
// The sink passed to LiveServer is invoked concurrently, one call at a
// time per shard but across shards in parallel — it must be
// thread-safe, and it must not block indefinitely (the live tool hands
// writes to a dedicated writer thread so a slow reader cannot stall a
// shard).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "serve/pool.h"
#include "serve/trace.h"

namespace zss::serve {

/// Monotonic wall clock in microseconds (process-wide epoch). This is
/// the heartbeat/watchdog timebase — deliberately NOT LiveConfig's
/// injectable arrival clock, because stall detection must measure real
/// elapsed time even under a frozen test clock.
std::int64_t mono_now_us();

struct LiveConfig {
  /// Clock used for arrival stamps and serve instants, in microseconds.
  /// Empty = steady clock, zeroed at LiveServer construction. Tests may
  /// inject a fake: it moves stamps and serve instants (so TTL and
  /// request-deadline decisions), never when a batch is served.
  std::function<std::int64_t()> now_us;
  /// Per-shard backpressure: submit() sheds (returns nullopt) when the
  /// target worker already holds this many unserved requests.
  /// 0 = unbounded.
  num::Index max_queue = 0;
  /// Record every accepted request as a TraceEvent (recorded_trace()),
  /// replayable through serve::replay for a bit-identical rerun.
  bool record = false;
  /// Per-request deadline: each accepted request must be *served* within
  /// this many microseconds of its arrival stamp or it is answered
  /// `err timeout` instead (serve/request.h). 0 = no deadline.
  std::int64_t deadline_us = 0;
};

/// Why submit() did not return a seq (or kOk when it did).
enum class SubmitStatus {
  kOk,           // accepted; seq returned
  kShed,         // shard over max_queue — back off and retry
  kUnavailable,  // shard quarantined, restart in progress — retry soon
  kStopped,      // server shut down
};

/// One persistent worker: owns the thread that is the sole toucher of
/// its EngineShard. Producers only append to the inbox; the worker
/// swaps it out under the same short lock and does all engine work
/// unlocked.
class ShardWorker {
 public:
  ShardWorker(EngineShard& shard, ResponseSink sink,
              std::function<std::int64_t()> now_us, num::Index max_queue);
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  void start();

  /// MPSC producer side: appends and wakes the worker. Returns false
  /// when shedding (queue bound exceeded), after request_stop(), or
  /// after abandon().
  bool submit(const Request& r);

  /// Asks the worker to serve everything queued in one pass on its
  /// next wakeup (the shard's flush).
  void request_flush();

  /// Drain-then-exit: the worker serves its inbox and queue, then
  /// returns. Producers must stop submitting first (LiveServer does).
  void request_stop();
  void join();

  /// Supervision: tells the worker to exit WITHOUT serving anything
  /// more. The flag is checked before every touch of the shard, so a
  /// worker the watchdog misjudged (slow, not dead) exits on its next
  /// instruction past the stall instead of emitting duplicate
  /// responses for work the rebuilt shard will redo. Waits a short
  /// grace period for the thread to acknowledge; returns true if it
  /// did (false = genuinely wedged — it will still exit cooperatively
  /// if it ever resumes).
  bool abandon();

  /// Monotonic stamp (mono_now_us timebase) of the worker's last sign
  /// of life: loop iteration (once per batch) or response delivery. The watchdog's liveness signal: a worker with queued
  /// work whose heartbeat stops advancing is wedged — and because the
  /// stamp advances per *response*, a healthy worker grinding through
  /// an arbitrarily deep backlog never reads as wedged.
  std::int64_t heartbeat_us() const {
    return ctl_->heartbeat_us.load(std::memory_order_relaxed);
  }

  /// Requests accepted but not yet *responded to*: the sink fence
  /// decrements per delivered response, so for an abandoned worker
  /// this is exactly the count no client will ever hear back about.
  num::Index inflight() const {
    return ctl_->inflight.load(std::memory_order_relaxed);
  }

  /// True once run() returned (normal stop or abandonment).
  bool exited() const { return ctl_->exited.load(std::memory_order_acquire); }

  /// Test hooks: park the worker thread at its pre-serve checkpoint (a
  /// deterministic "wedge" the supervisor tests detect), and release
  /// it. A released worker re-checks abandonment before serving.
  void wedge_for_testing() {
    ctl_->wedged.store(true, std::memory_order_release);
  }
  void release_wedge() {
    ctl_->wedged.store(false, std::memory_order_release);
  }

 private:
  // Everything the worker thread touches lives here, co-owned by the
  // thread's lambda via shared_ptr: a wedged thread that ~ShardWorker
  // had to detach keeps its state alive on its own and never
  // dereferences freed memory, even after the graveyard (and the
  // ShardWorker object) are long gone. The shard/sink/clock it points
  // INTO are a different story — those belong to the pool/server, which
  // is why abandonment fences every touch of them (see run()).
  struct Control {
    EngineShard* shard = nullptr;
    ResponseSink sink;
    std::function<std::int64_t()> now;
    num::Index max_queue = 0;

    std::mutex mu;
    std::condition_variable cv;
    std::vector<Request> inbox;   // produced under mu
    std::vector<Request> taking;  // worker-private swap target
    // Accepted minus responded. Incremented under mu on submit, but
    // atomic so the supervisor/restart/sink paths touch it lock-free.
    std::atomic<num::Index> inflight{0};
    bool stop = false;
    bool flush = false;
    std::atomic<bool> abandoned{false};
    std::atomic<bool> wedged{false};
    std::atomic<bool> exited{false};
    std::atomic<std::int64_t> heartbeat_us{0};
  };

  static void run(Control& c);

  std::shared_ptr<Control> ctl_;
  std::thread thread_;
};

/// The live front end: stamps, records and routes requests onto the
/// pool's shard workers, and owns graceful shutdown plus the
/// supervisor's restart primitive.
class LiveServer {
 public:
  /// Borrows the pool (and its shards) for the server's lifetime. The
  /// workers start immediately; `sink` must be thread-safe (see top).
  /// If the pool recovered journaled sessions, their newest arrival
  /// stamp seeds the stamping clock's floor so per-shard arrivals stay
  /// monotone across the restart.
  LiveServer(EnginePool& pool, ResponseSink sink, LiveConfig config = {});
  ~LiveServer();

  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  /// Stamps and enqueues one request; returns its seq, or nullopt when
  /// not accepted — `status` (optional) says why: kShed (shard over
  /// max_queue), kUnavailable (shard quarantined mid-restart), or
  /// kStopped. `client` tags the issuing connection (echoed on the
  /// Response so the multiplexed front end routes it back; 0 = no
  /// connection). The tag never enters stamping, batching or values —
  /// request.h.
  std::optional<std::uint64_t> submit(SessionId session, num::Index token,
                                      std::uint64_t client = 0,
                                      SubmitStatus* status = nullptr);

  /// Asks every worker to drain its queue in one pass (the protocol's
  /// `flush` verb). Workers never hold work, so this only changes the
  /// schedule, not when requests are answered. Asynchronous.
  void flush_all();

  /// Graceful shutdown: refuses new submissions, lets every worker
  /// drain in-flight requests, joins the threads. Idempotent; the
  /// destructor calls it too. Abandoned workers that never resumed are
  /// detached rather than joined (they own no resources that outlive
  /// the pool).
  void shutdown();

  /// The supervisor's repair primitive: quarantine shard `i` (submits
  /// return kUnavailable), abandon its worker, rebuild the shard from
  /// its journal (EnginePool::rebuild_shard) and mount a fresh worker.
  /// The old worker's unanswered requests (its final inflight) are
  /// folded into `abandoned` as soon as the thread acknowledges the
  /// abandon — immediately when it acks within the grace period,
  /// otherwise deferred until it exits (checked at later restarts and
  /// at shutdown), because a thread still wedged mid-delivery may yet
  /// complete one response. Safe to call from the watchdog thread;
  /// no-op if already quarantined or shut down. Surviving shards keep
  /// serving throughout.
  void restart_shard(num::Index i);

  std::int64_t now_us() const { return now_(); }
  std::uint64_t submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  std::uint64_t responded() const {
    return responded_.load(std::memory_order_relaxed);
  }
  /// Accepted requests lost to worker restarts (their clients re-drive
  /// them). After shutdown: submitted == responded + abandoned.
  std::uint64_t abandoned() const {
    return abandoned_.load(std::memory_order_relaxed);
  }
  /// Worker restarts performed (supervisor recoveries).
  std::uint64_t restarts() const {
    return restarts_.load(std::memory_order_relaxed);
  }
  /// Shards currently quarantined (0 in steady state).
  num::Index quarantined() const {
    return quarantined_count_.load(std::memory_order_relaxed);
  }

  num::Index num_workers() const {
    return static_cast<num::Index>(workers_.size());
  }
  /// The live worker of shard `i` (replaced by restart_shard; callers
  /// on other threads should not cache the pointer across restarts).
  ShardWorker& worker(num::Index i) {
    return *workers_[static_cast<std::size_t>(i)];
  }

  /// Runs `fn` with the server's topology frozen: no restart_shard can
  /// swap a shard/worker slot while `fn` executes. The stats snapshot
  /// path walks the pool's shards under this so it never reads a slot
  /// mid-rebuild. Keep `fn` short — it holds the stamping lock.
  void with_stable_topology(const std::function<void()>& fn) const;

  /// The accepted requests as a replayable trace (LiveConfig::record).
  /// Only meaningful after shutdown(); sorted by construction.
  /// Timed-out requests are filtered out at shutdown — they produced
  /// no state, so replaying exactly the surviving events reproduces
  /// the run's digests. Requests abandoned by a restart are NOT
  /// filtered (the recorder cannot see inside a dead worker's queue);
  /// a trace recorded across a restart replays self-consistently but
  /// is not digest-comparable to the journal-recovered state.
  const std::vector<TraceEvent>& recorded_trace() const { return recorded_; }

 private:
  /// Folds abandoned_pending_ workers whose threads have exited into
  /// abandoned_; with final_fold, folds the rest too (shutdown). Caller
  /// must hold restart_mu_.
  void fold_pending_abandoned(bool final_fold);

  EnginePool* pool_;
  std::function<std::int64_t()> now_;
  ResponseSink counted_sink_;  // kept for mounting replacement workers
  num::Index max_queue_ = 0;
  std::int64_t deadline_us_ = 0;
  std::vector<std::unique_ptr<ShardWorker>> workers_;
  // Replaced workers; kept alive (valid memory for wedged threads)
  // until shutdown, where exited ones are joined and wedged ones
  // detached.
  std::vector<std::unique_ptr<ShardWorker>> worker_graveyard_;

  mutable std::mutex stamp_mu_;
  // Serializes restart_shard against shutdown and other restarts;
  // never held on the submit path.
  std::mutex restart_mu_;
  std::int64_t last_stamp_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;
  bool record_ = false;
  std::vector<char> quarantined_;  // per shard, guarded by stamp_mu_
  // Abandoned workers that had not acknowledged within the grace
  // period — their inflight is folded into abandoned_ once they exit
  // (or at shutdown, wedged or not). Points into worker_graveyard_;
  // guarded by restart_mu_.
  std::vector<ShardWorker*> abandoned_pending_;
  std::vector<TraceEvent> recorded_;

  // Seqs answered `err timeout`, collected by the counted sink and
  // erased from recorded_ at shutdown (seq == recorded_ index).
  std::mutex timeout_mu_;
  std::vector<std::uint64_t> timeout_seqs_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> responded_{0};
  std::atomic<std::uint64_t> abandoned_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<num::Index> quarantined_count_{0};
};

}  // namespace zss::serve
