// Shard watchdog — detects crashed/wedged workers and restarts them.
//
// Each ShardWorker stamps a monotonic heartbeat at every loop
// iteration (serve/worker.h). The supervisor polls those stamps from
// its own thread: a worker that HOLDS WORK (inflight > 0) whose
// heartbeat has not advanced for `stall_ms` is judged dead — stuck in
// the engine, deadlocked, or spinning — and repaired through
// LiveServer::restart_shard(): quarantine, abandon, rebuild the shard
// from its journal, mount a fresh worker. Surviving shards serve
// throughout; the restarted shard resumes from its last group-commit.
//
// Threshold discipline: a worker holding work never sleeps — it serves
// batch after batch (serve/worker.h), stamping its heartbeat per batch
// and per response — so `stall_ms` need only exceed the worst-case
// service time of one batch. An idle worker (inflight == 0) never
// trips the watchdog no matter how long it sleeps.
//
// Misjudgment safety: restart correctness does NOT depend on the
// stall verdict being right. Abandonment is checked by the worker
// before every shard touch, so a slow-but-alive worker the watchdog
// shot exits without serving — no duplicate responses — and its
// unserved requests are accounted `abandoned` like any other restart.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/worker.h"

namespace zss::serve {

struct SupervisorConfig {
  /// A worker with queued work whose heartbeat is older than this is
  /// restarted. <= 0 disables the watchdog entirely (start() no-ops).
  std::int64_t stall_ms = 0;
  /// Poll cadence. Detection latency is stall_ms + up to one poll.
  std::int64_t poll_ms = 20;
};

class Supervisor {
 public:
  /// Borrows the server for the supervisor's lifetime. Call start() to
  /// arm; stop() (or destruction) disarms. Stop the supervisor BEFORE
  /// shutting the server down — restart_shard no-ops after shutdown,
  /// but a watchdog poking a dying server is noise.
  Supervisor(LiveServer& server, SupervisorConfig config);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  void start();
  void stop();

  /// Lifetime count of restarts this supervisor triggered (the
  /// server's own restarts() also counts manual calls).
  std::uint64_t restarts_triggered() const {
    return restarts_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  LiveServer* server_;
  SupervisorConfig cfg_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::uint64_t> restarts_{0};
  std::thread thread_;
};

}  // namespace zss::serve
