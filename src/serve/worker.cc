#include "serve/worker.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace zss::serve {

namespace {

std::function<std::int64_t()> steady_clock_since_now() {
  const auto t0 = std::chrono::steady_clock::now();
  return [t0] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
}

}  // namespace

std::int64_t mono_now_us() {
  // One process-wide epoch: all heartbeats compare on the same axis.
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

ShardWorker::ShardWorker(EngineShard& shard, ResponseSink sink,
                         std::function<std::int64_t()> now_us,
                         num::Index max_queue)
    : ctl_(std::make_shared<Control>()) {
  ZSS_EXPECTS(max_queue >= 0);
  ctl_->shard = &shard;
  ctl_->sink = std::move(sink);
  ctl_->now = std::move(now_us);
  ctl_->max_queue = max_queue;
  // Submissions burst-append between wakeups; both buffers keep their
  // capacity across swaps, so the steady state allocates nothing.
  ctl_->inbox.reserve(64);
  ctl_->taking.reserve(64);
  ctl_->heartbeat_us.store(mono_now_us(), std::memory_order_relaxed);
}

ShardWorker::~ShardWorker() {
  request_stop();
  if (!thread_.joinable()) return;
  if (ctl_->abandoned.load(std::memory_order_acquire) &&
      !ctl_->exited.load(std::memory_order_acquire)) {
    // Abandoned and still not out: the thread is wedged inside the
    // shard (which lives in the pool's graveyard, outliving us) or the
    // sink. Joining would hang shutdown forever. Detaching is safe:
    // the thread co-owns the Control block, and the abandonment fence
    // means it delivers nothing if it ever resumes.
    thread_.detach();
  } else {
    thread_.join();
  }
}

void ShardWorker::start() {
  ZSS_EXPECTS(!thread_.joinable());
  // The thread keeps the Control alive on its own — a detached thread
  // outliving this object (and the graveyard) still sees valid memory.
  thread_ = std::thread([c = ctl_] { run(*c); });
}

bool ShardWorker::submit(const Request& r) {
  Control& c = *ctl_;
  {
    std::lock_guard<std::mutex> lock(c.mu);
    if (c.stop || c.abandoned.load(std::memory_order_relaxed)) return false;
    if (c.max_queue > 0 &&
        c.inflight.load(std::memory_order_relaxed) >= c.max_queue) {
      return false;
    }
    c.inbox.push_back(r);
    c.inflight.fetch_add(1, std::memory_order_relaxed);
  }
  c.cv.notify_one();
  return true;
}

void ShardWorker::request_flush() {
  {
    std::lock_guard<std::mutex> lock(ctl_->mu);
    ctl_->flush = true;
  }
  ctl_->cv.notify_one();
}

void ShardWorker::request_stop() {
  {
    std::lock_guard<std::mutex> lock(ctl_->mu);
    ctl_->stop = true;
  }
  ctl_->cv.notify_one();
}

void ShardWorker::join() {
  if (thread_.joinable()) thread_.join();
}

bool ShardWorker::abandon() {
  ctl_->abandoned.store(true, std::memory_order_release);
  ctl_->cv.notify_one();
  // Grace period: a healthy-but-idle or merely slow worker exits at
  // its next checkpoint within microseconds; a wedged one never will.
  const std::int64_t t0 = mono_now_us();
  while (!ctl_->exited.load(std::memory_order_acquire)) {
    if (mono_now_us() - t0 > 200'000) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

void ShardWorker::run(Control& c) {
  // The response fence, and the ledger's unit of account. Every
  // delivery re-checks abandonment — so a thread judged dead mid-batch
  // that resumes after the grace period hands out nothing the rebuilt
  // shard will answer again (the journal/spill side of that race is
  // fenced by store poisoning, EnginePool::rebuild_shard) — then stamps
  // the heartbeat (a worker grinding a deep flush reads as alive per
  // response, not per loop) and decrements inflight, making inflight
  // exactly "accepted but never answered". A suppressed response
  // deliberately skips the decrement: its request stays in inflight and
  // is what restart_shard later counts as abandoned.
  const ResponseSink fenced = [&c](const Response& r) {
    if (c.abandoned.load(std::memory_order_acquire)) return;
    c.sink(r);
    c.heartbeat_us.store(mono_now_us(), std::memory_order_relaxed);
    c.inflight.fetch_sub(1, std::memory_order_relaxed);
  };

  std::unique_lock<std::mutex> lock(c.mu);
  for (;;) {
    c.heartbeat_us.store(mono_now_us(), std::memory_order_relaxed);
    const bool stopping = c.stop;
    const bool flushing = c.flush;
    c.flush = false;
    if (!c.inbox.empty()) std::swap(c.inbox, c.taking);
    lock.unlock();

    // Pre-serve checkpoint: the wedge hook parks here (heartbeat
    // frozen — exactly what the watchdog sees in a real hang), and
    // abandonment is honored BEFORE any shard touch, so an abandoned
    // worker can never emit a response the rebuilt shard will re-emit.
    while (c.wedged.load(std::memory_order_acquire) &&
           !c.abandoned.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (c.abandoned.load(std::memory_order_acquire)) {
      c.exited.store(true, std::memory_order_release);
      return;
    }

    // Everything below runs unlocked: this thread is the shard's sole
    // toucher, and producers only ever see the inbox.
    for (const Request& r : c.taking) c.shard->enqueue(r);
    c.taking.clear();

    // Work-conserving: serve one batch of whatever is pending, then
    // take the inbox again. Requests that arrive while a batch is
    // served — its journal fsync included — join the next batch, so
    // batches grow with load and a lone request never waits.
    const std::int64_t now = c.now();
    if (stopping || flushing) {
      c.shard->flush(now, fenced);
    } else {
      c.shard->process_ready(now, fenced);
    }

    lock.lock();
    if (stopping) {
      // A submit that won the race against request_stop() may have
      // landed after the swap; take one more round for it.
      if (c.inbox.empty()) break;
      continue;
    }
    // Park only when there is nothing at all to do.
    c.cv.wait(lock, [&c] {
      return c.stop || c.flush || !c.inbox.empty() ||
             c.shard->pending() > 0 ||
             c.abandoned.load(std::memory_order_relaxed);
    });
  }
  lock.unlock();
  c.exited.store(true, std::memory_order_release);
}

LiveServer::LiveServer(EnginePool& pool, ResponseSink sink, LiveConfig config)
    : pool_(&pool),
      now_(config.now_us ? std::move(config.now_us)
                         : steady_clock_since_now()),
      max_queue_(config.max_queue),
      deadline_us_(config.deadline_us),
      record_(config.record) {
  ZSS_EXPECTS(config.deadline_us >= 0);
  // A recovered pool's sessions carry arrival stamps from the previous
  // incarnation; stamping below them would break the monotone-arrival
  // premise every eviction argument rests on (serve/session.h), so the
  // recovered maximum becomes this clock's floor.
  last_stamp_ = pool.recovered_max_arrival_us();
  counted_sink_ = [this, user_sink = std::move(sink)](const Response& r) {
    if (r.timed_out) {
      std::lock_guard<std::mutex> lock(timeout_mu_);
      timeout_seqs_.push_back(r.seq);
    }
    // Count after delivery: a caller synchronizing on responded() must
    // never observe a response whose sink call has not finished.
    user_sink(r);
    responded_.fetch_add(1, std::memory_order_relaxed);
  };
  quarantined_.assign(static_cast<std::size_t>(pool.num_shards()), 0);
  workers_.reserve(static_cast<std::size_t>(pool.num_shards()));
  for (num::Index s = 0; s < pool.num_shards(); ++s) {
    workers_.push_back(std::make_unique<ShardWorker>(
        pool.shard(s), counted_sink_, now_, max_queue_));
  }
  for (auto& w : workers_) w->start();
}

LiveServer::~LiveServer() { shutdown(); }

std::optional<std::uint64_t> LiveServer::submit(SessionId session,
                                                num::Index token,
                                                std::uint64_t client,
                                                SubmitStatus* status) {
  ZSS_EXPECTS(token >= 0);
  std::lock_guard<std::mutex> lock(stamp_mu_);
  if (stopped_) {
    if (status != nullptr) *status = SubmitStatus::kStopped;
    return std::nullopt;
  }
  const num::Index shard = pool_->shard_of(session);
  if (quarantined_[static_cast<std::size_t>(shard)] != 0) {
    if (status != nullptr) *status = SubmitStatus::kUnavailable;
    return std::nullopt;
  }
  // Monotone stamping under the one lock: queue order, record order and
  // stamp order are the same total order (see worker.h).
  std::int64_t now = now_();
  if (now < last_stamp_) now = last_stamp_;
  last_stamp_ = now;

  Request r;
  r.session = session;
  r.token = token;
  r.arrival_us = now;
  r.seq = next_seq_;
  r.client = client;
  if (deadline_us_ > 0) r.deadline_us = now + deadline_us_;
  if (!workers_[static_cast<std::size_t>(shard)]->submit(r)) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (status != nullptr) *status = SubmitStatus::kShed;
    return std::nullopt;
  }
  ++next_seq_;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (record_) {
    TraceEvent e;
    e.arrival_us = now;
    e.session = session;
    e.token = token;
    recorded_.push_back(e);
  }
  if (status != nullptr) *status = SubmitStatus::kOk;
  return r.seq;
}

void LiveServer::flush_all() {
  std::lock_guard<std::mutex> lock(stamp_mu_);
  for (auto& w : workers_) w->request_flush();
}

void LiveServer::restart_shard(num::Index i) {
  ZSS_EXPECTS(i >= 0 && i < num_workers());
  const auto idx = static_cast<std::size_t>(i);
  // Serializes against shutdown() and concurrent restarts of other
  // shards (a restart is already an exceptional event; coarse is fine).
  std::lock_guard<std::mutex> restart_lock(restart_mu_);
  {
    std::lock_guard<std::mutex> lock(stamp_mu_);
    if (stopped_ || quarantined_[idx] != 0) return;
    quarantined_[idx] = 1;
    quarantined_count_.fetch_add(1, std::memory_order_relaxed);
  }
  // From here no producer can reach the old worker (quarantine is
  // checked under stamp_mu_), so its inflight count only falls.
  ShardWorker* old = workers_[idx].get();
  const bool acked = old->abandon();
  // Whatever the dead worker never answered is lost to this restart;
  // the resume protocol lets clients re-drive it (docs/serving.md). If
  // the thread acknowledged, its inflight is final and folds into the
  // ledger now. If it is still wedged, a response may be in flight
  // past the fence (inside the user sink) and could yet land — folding
  // now would count it both responded and abandoned — so defer until
  // the thread exits (checked at later restarts and at shutdown).
  if (acked) {
    abandoned_.fetch_add(static_cast<std::uint64_t>(old->inflight()),
                         std::memory_order_relaxed);
  } else {
    abandoned_pending_.push_back(old);
  }
  fold_pending_abandoned(/*final_fold=*/false);
  {
    // stamp_mu_ held across the rebuild: stats walkers that snapshot
    // shard state through with_stable_topology never observe the slot
    // mid-swap. Submits to other shards stall for the rebuild — a
    // restart is already a disruption, and correctness beats latency
    // here.
    std::lock_guard<std::mutex> lock(stamp_mu_);
    pool_->rebuild_shard(i);
    auto fresh = std::make_unique<ShardWorker>(pool_->shard(i), counted_sink_,
                                               now_, max_queue_);
    fresh->start();
    worker_graveyard_.push_back(std::move(workers_[idx]));
    workers_[idx] = std::move(fresh);
    quarantined_[idx] = 0;
    quarantined_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  restarts_.fetch_add(1, std::memory_order_relaxed);
}

void LiveServer::fold_pending_abandoned(bool final_fold) {
  // Caller holds restart_mu_. A worker whose thread has exited has a
  // final inflight (the fence suppressed everything after abandonment,
  // and suppressed responses never decrement); fold it exactly. At the
  // final fold, a thread wedged forever is folded anyway — the one
  // response it may hold past the fence is counted abandoned, and if
  // its sink call ever unblocks the client just sees an answer it
  // already re-drove (worker.h, the ledger caveat).
  auto it = abandoned_pending_.begin();
  while (it != abandoned_pending_.end()) {
    ShardWorker* w = *it;
    if (final_fold || w->exited()) {
      abandoned_.fetch_add(static_cast<std::uint64_t>(w->inflight()),
                           std::memory_order_relaxed);
      it = abandoned_pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void LiveServer::with_stable_topology(
    const std::function<void()>& fn) const {
  std::lock_guard<std::mutex> lock(stamp_mu_);
  fn();
}

void LiveServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(stamp_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Excludes an in-flight restart_shard (it re-checks stopped_ under
  // stamp_mu_ before mutating anything, and never starts once we hold
  // this).
  std::lock_guard<std::mutex> restart_lock(restart_mu_);
  for (auto& w : workers_) w->request_stop();
  for (auto& w : workers_) w->join();
  // Graveyard workers either already exited (joined here) or are
  // wedged for good (detached by their destructor at LiveServer
  // destruction).
  for (auto& w : worker_graveyard_) {
    if (w->exited()) w->join();
  }
  // Settle the ledger: every abandoned worker whose fold was deferred
  // (it had not acknowledged within the grace period) is counted now,
  // exited or not. After this, submitted == responded + abandoned.
  fold_pending_abandoned(/*final_fold=*/true);
  // Timed-out requests produced no state: drop them from the trace so
  // replaying it reproduces exactly the committed digests. seq ==
  // recorded_ index (both count accepted submissions in order).
  std::vector<std::uint64_t> drop;
  {
    std::lock_guard<std::mutex> lock(timeout_mu_);
    drop.swap(timeout_seqs_);
  }
  if (record_ && !drop.empty()) {
    std::sort(drop.begin(), drop.end());
    std::vector<TraceEvent> kept;
    kept.reserve(recorded_.size() - drop.size());
    std::size_t d = 0;
    for (std::size_t i = 0; i < recorded_.size(); ++i) {
      if (d < drop.size() && drop[d] == i) {
        ++d;
        continue;
      }
      kept.push_back(recorded_[i]);
    }
    recorded_.swap(kept);
  }
}

}  // namespace zss::serve
