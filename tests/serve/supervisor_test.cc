#include "serve/supervisor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "num/rng.h"
#include "serve/pool.h"
#include "serve/worker.h"
#include "store/io.h"

// The watchdog half of crash recovery (docs/serving.md "Crash recovery
// & degradation ladder"): per-worker heartbeats, wedge detection, the
// quarantine → abandon → journal-rebuild → resume cycle, and the
// request ledger that accounts for every accepted request across a
// restart (submitted == responded + abandoned). Plus the per-request
// deadline: a request the server cannot serve in time is answered
// `err timeout` without touching any session state.
namespace zss::serve {
namespace {

num::Index token_at(SessionId sid, std::uint64_t i, num::Index vocab) {
  return static_cast<num::Index>(
      num::splitmix64_mix(sid * 1000003ULL + i) %
      static_cast<std::uint64_t>(vocab));
}

bool wait_until(const std::function<bool()>& done,
                std::chrono::seconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class SupervisorTest : public ::testing::Test {
 protected:
  SupervisorTest()
      : rng_(314159),
        cell_(/*input_dim=*/5, /*hidden_dim=*/12, rng_),
        pruner_(core::PrunerConfig::fixed(0.08f)) {}

  PoolConfig journaled_config(num::Index shards, store::Env& env,
                              const std::string& dir) {
    PoolConfig config;
    config.shards = shards;
    config.policy.max_batch = 8;
    config.spill.dir = dir;
    config.spill.env = &env;
    config.spill.journal = true;
    return config;
  }

  num::Rng rng_;
  nn::LstmCell cell_;
  core::StatePruner pruner_;
};

TEST_F(SupervisorTest, DeadlineAnswersTimeoutWithoutTouchingState) {
  PoolConfig config;
  config.shards = 1;
  config.policy.max_batch = 8;
  EnginePool pool(cell_, pruner_, config);

  std::atomic<int> timed_out{0}, served{0};
  const ResponseSink sink = [&](const Response& r) {
    if (r.timed_out) {
      EXPECT_TRUE(r.h.empty()) << "a timed-out response must carry no state";
      EXPECT_EQ(r.row_digest, 0u);
      timed_out.fetch_add(1);
    } else {
      served.fetch_add(1);
    }
  };
  LiveConfig live;
  live.deadline_us = 2'000;
  LiveServer server(pool, sink, live);

  // Park the worker at its pre-serve checkpoint, queue work, and let
  // real time pass the deadline before releasing it.
  server.worker(0).wedge_for_testing();
  constexpr int kLate = 12;
  for (int i = 0; i < kLate; ++i) {
    ASSERT_TRUE(server.submit(7, 0).has_value());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.worker(0).release_wedge();
  ASSERT_TRUE(wait_until(
      [&] { return timed_out.load() + served.load() >= kLate; }));
  server.shutdown();

  EXPECT_EQ(timed_out.load(), kLate)
      << "every request waited 10x its deadline — all must time out";
  EXPECT_EQ(pool.shard(0).timeouts(), static_cast<std::uint64_t>(kLate));
  // No state was touched: the session does not exist and nothing was
  // folded into the digest table.
  EXPECT_TRUE(pool.merged_digests().empty());
  EXPECT_EQ(pool.shard(0).sessions().find(7), nullptr);
  // The ledger still balances: a timeout answer is a response.
  EXPECT_EQ(server.submitted(), static_cast<std::uint64_t>(kLate));
  EXPECT_EQ(server.responded(), static_cast<std::uint64_t>(kLate));
}

TEST_F(SupervisorTest, IdleAndHealthyWorkersAreNeverRestarted) {
  PoolConfig config;
  config.shards = 2;
  config.policy.max_batch = 4;
  EnginePool pool(cell_, pruner_, config);
  std::atomic<int> served{0};
  LiveServer server(pool, [&](const Response&) { served.fetch_add(1); });

  // The stall window is deliberately generous: this test pins the
  // no-false-positive side, and a loaded CI machine can starve even a
  // healthy worker for tens of milliseconds.
  SupervisorConfig sup;
  sup.stall_ms = 1000;
  sup.poll_ms = 20;
  Supervisor supervisor(server, sup);
  supervisor.start();

  // Idle past a full stall window: an idle worker's frozen heartbeat
  // must not look like a wedge (inflight == 0 gates the check).
  std::this_thread::sleep_for(std::chrono::milliseconds(1300));
  // Then a burst of healthy traffic, served well inside the window.
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    if (server
            .submit(static_cast<SessionId>(i % 6 + 1),
                    token_at(static_cast<SessionId>(i % 6 + 1),
                             static_cast<std::uint64_t>(i),
                             cell_.input_dim()))
            .has_value()) {
      ++accepted;
    }
  }
  ASSERT_TRUE(wait_until([&] { return served.load() >= accepted; }));
  // Linger another window drained-but-idle: stale heartbeat again,
  // inflight back to zero, still not a wedge.
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  supervisor.stop();
  server.shutdown();

  EXPECT_EQ(accepted, 200) << "healthy shards must never refuse a submit";
  EXPECT_EQ(server.restarts(), 0u) << "false-positive wedge detection";
  EXPECT_EQ(supervisor.restarts_triggered(), 0u);
  EXPECT_EQ(server.submitted(), server.responded());
}

TEST_F(SupervisorTest, WedgedWorkerIsRestartedAndSurvivorsLoseNothing) {
  store::MemEnv env;
  EnginePool pool(cell_, pruner_, journaled_config(2, env, "sup"));

  // One session per shard, chosen by the pool's own hash.
  SessionId wedged_sid = 0, healthy_sid = 0;
  for (SessionId sid = 1; wedged_sid == 0 || healthy_sid == 0; ++sid) {
    if (pool.shard_of(sid) == 0 && wedged_sid == 0) wedged_sid = sid;
    if (pool.shard_of(sid) == 1 && healthy_sid == 0) healthy_sid = sid;
  }

  std::mutex mu;
  std::map<SessionId, std::uint64_t> ok_steps;
  const ResponseSink sink = [&](const Response& r) {
    if (r.timed_out) return;
    std::lock_guard<std::mutex> lock(mu);
    ++ok_steps[r.session];
  };
  LiveServer server(pool, sink);

  // Phase 1: both sessions serve normally; these steps are committed
  // to the journals.
  constexpr std::uint64_t kBefore = 6;
  for (std::uint64_t i = 0; i < kBefore; ++i) {
    ASSERT_TRUE(server
                    .submit(wedged_sid,
                            token_at(wedged_sid, i, cell_.input_dim()))
                    .has_value());
    ASSERT_TRUE(server
                    .submit(healthy_sid,
                            token_at(healthy_sid, i, cell_.input_dim()))
                    .has_value());
  }
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard<std::mutex> lock(mu);
    return ok_steps[wedged_sid] == kBefore && ok_steps[healthy_sid] == kBefore;
  }));

  // Phase 2: shard 0's worker wedges with work queued. The watchdog
  // must notice the stalled heartbeat, abandon it, rebuild the shard
  // from its journal and mount a fresh worker — while shard 1 keeps
  // serving uninterrupted.
  server.worker(0).wedge_for_testing();
  constexpr std::uint64_t kAbandonedSubmits = 4;
  for (std::uint64_t i = 0; i < kAbandonedSubmits; ++i) {
    ASSERT_TRUE(server
                    .submit(wedged_sid,
                            token_at(wedged_sid, kBefore + i,
                                     cell_.input_dim()))
                    .has_value());
  }

  SupervisorConfig sup;
  sup.stall_ms = 40;
  sup.poll_ms = 5;
  Supervisor supervisor(server, sup);
  supervisor.start();

  std::atomic<bool> stop_traffic{false};
  std::uint64_t healthy_sent = kBefore;
  std::thread traffic([&] {
    while (!stop_traffic.load()) {
      SubmitStatus status;
      if (server.submit(healthy_sid,
                        token_at(healthy_sid, healthy_sent,
                                 cell_.input_dim()),
                        0, &status)
              .has_value()) {
        ++healthy_sent;
      } else {
        EXPECT_NE(status, SubmitStatus::kUnavailable)
            << "the healthy shard must never be quarantined";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  ASSERT_TRUE(wait_until([&] { return server.restarts() >= 1; }))
      << "watchdog never caught the wedged worker";
  stop_traffic.store(true);
  traffic.join();
  ASSERT_TRUE(wait_until([&] { return server.quarantined() == 0; }));

  // Phase 3: the resume protocol. The restarted shard recovered the
  // committed prefix (kBefore steps); the client re-drives everything
  // after it, exactly as `sync`/`pos` instructs a real client.
  const std::uint64_t committed =
      pool.shard(0).sessions().digest_of(wedged_sid).steps;
  EXPECT_EQ(committed, kBefore)
      << "journal recovery must hand back every committed step";
  constexpr std::uint64_t kTotal = kBefore + kAbandonedSubmits;
  for (std::uint64_t i = committed; i < kTotal; ++i) {
    SubmitStatus status = SubmitStatus::kOk;
    while (!server
                .submit(wedged_sid, token_at(wedged_sid, i, cell_.input_dim()),
                        0, &status)
                .has_value()) {
      ASSERT_NE(status, SubmitStatus::kStopped);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(wait_until([&] {
    return pool.shard(0).sessions().digest_of(wedged_sid).steps == kTotal;
  }));

  supervisor.stop();
  server.shutdown();

  // The ledger: every accepted request was answered or accounted as
  // abandoned — nothing lost, nothing duplicated.
  EXPECT_EQ(server.submitted(), server.responded() + server.abandoned());
  EXPECT_GE(server.restarts(), 1u);
  EXPECT_GE(server.abandoned(), 1u)
      << "the wedged worker held queued work that must be accounted";
  {
    std::lock_guard<std::mutex> lock(mu);
    // Zero loss on the survivor: every healthy-shard submission that
    // was accepted got exactly one non-timeout response.
    EXPECT_EQ(ok_steps[healthy_sid], healthy_sent);
    // And the restarted session's digest position is exactly kTotal —
    // the re-driven suffix continued the recurrence, no duplicates.
    EXPECT_EQ(pool.shard(0).sessions().digest_of(wedged_sid).steps, kTotal);
  }

  // The recovered state is the TRUE continuation: an uninterrupted
  // oracle over the same token stream lands on the same digest.
  PoolConfig oracle_config;
  oracle_config.shards = 1;
  oracle_config.policy.max_batch = 8;
  EnginePool oracle(cell_, pruner_, oracle_config);
  std::uint64_t oracle_served = 0;
  const ResponseSink oracle_sink = [&](const Response&) { ++oracle_served; };
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    Request r;
    r.session = wedged_sid;
    r.token = token_at(wedged_sid, i, cell_.input_dim());
    r.arrival_us = static_cast<std::int64_t>(i);
    r.seq = i;
    oracle.enqueue(r);
    oracle.flush(r.arrival_us, oracle_sink);
  }
  const SessionDigest want = oracle.shard(0).sessions().digest_of(wedged_sid);
  const SessionDigest got = pool.shard(0).sessions().digest_of(wedged_sid);
  EXPECT_EQ(want.steps, got.steps);
  EXPECT_EQ(want.digest, got.digest)
      << "restart + resume diverged from the uninterrupted recurrence";
}

TEST_F(SupervisorTest, WorkerWedgedInsideSinkIsFencedNotDoubleCounted) {
  // The nastier wedge: not parked at the cooperative checkpoint but
  // stuck INSIDE a response delivery, past the journal commit. The
  // abandon grace times out, the shard is rebuilt, and when the sink
  // finally unblocks the old thread must deliver only the response it
  // already held — everything after it hits the abandonment fence and
  // is accounted abandoned, never delivered twice and never counted
  // both responded and abandoned.
  store::MemEnv env;
  EnginePool pool(cell_, pruner_, journaled_config(1, env, "fence"));

  const SessionId a = 1, b = 2, c = 3;
  std::atomic<bool> block{false};
  std::atomic<bool> entered{false};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;

  std::mutex mu;
  std::map<SessionId, std::uint64_t> ok_count;
  std::vector<std::uint64_t> seqs;
  const ResponseSink sink = [&](const Response& r) {
    if (r.timed_out) return;
    if (block.load() && r.session == a) {
      entered.store(true);
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&] { return gate_open; });
    }
    std::lock_guard<std::mutex> lock(mu);
    ++ok_count[r.session];
    seqs.push_back(r.seq);
  };
  LiveServer server(pool, sink);

  // Phase 1: a committed prefix for all three sessions.
  constexpr std::uint64_t kBefore = 3;
  for (std::uint64_t i = 0; i < kBefore; ++i) {
    for (SessionId sid : {a, b, c}) {
      ASSERT_TRUE(
          server.submit(sid, token_at(sid, i, cell_.input_dim())).has_value());
    }
  }
  ASSERT_TRUE(wait_until([&] { return server.responded() >= 3 * kBefore; }));

  // Phase 2: park the worker so one batch accumulates all three
  // sessions, then let it serve — the batch commits to the journal,
  // and the FIRST delivery (session a; lane order is enqueue order)
  // blocks inside the sink. That thread is now wedged mid-delivery
  // holding one response, with b's and c's still undelivered.
  ShardWorker* old_worker = &server.worker(0);
  block.store(true);
  server.worker(0).wedge_for_testing();
  for (SessionId sid : {a, b, c}) {
    ASSERT_TRUE(
        server.submit(sid, token_at(sid, kBefore, cell_.input_dim()))
            .has_value());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.worker(0).release_wedge();
  ASSERT_TRUE(wait_until([&] { return entered.load(); }));

  // Restart while the thread is stuck: abandon() must time out (the
  // grace is 200ms, the sink is blocked indefinitely) and the ledger
  // fold must be DEFERRED — the blocked response may yet land.
  server.restart_shard(0);
  EXPECT_EQ(server.restarts(), 1u);
  EXPECT_EQ(server.abandoned(), 0u)
      << "a wedged worker's inflight folded early double-counts the "
         "response still stuck in its sink";
  // The batch committed before delivery, so the rebuilt shard holds
  // every session at kBefore + 1.
  for (SessionId sid : {a, b, c}) {
    EXPECT_EQ(pool.shard(0).sessions().digest_of(sid).steps, kBefore + 1);
  }

  // Unblock. The old thread delivers the one response it held, the
  // fence suppresses b's and c's, and the thread exits cooperatively.
  block.store(false);
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  ASSERT_TRUE(wait_until([&] { return old_worker->exited(); }));

  // Phase 3: clients resume from the committed position (kBefore + 1)
  // and drive every session to kTotal on the fresh worker.
  constexpr std::uint64_t kTotal = kBefore + 3;
  for (std::uint64_t i = kBefore + 1; i < kTotal; ++i) {
    for (SessionId sid : {a, b, c}) {
      SubmitStatus status = SubmitStatus::kOk;
      while (!server.submit(sid, token_at(sid, i, cell_.input_dim()), 0,
                            &status)
                  .has_value()) {
        ASSERT_NE(status, SubmitStatus::kStopped);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  ASSERT_TRUE(wait_until([&] {
    for (SessionId sid : {a, b, c}) {
      if (pool.shard(0).sessions().digest_of(sid).steps != kTotal) return false;
    }
    return true;
  }));
  server.shutdown();

  // Exactly the two suppressed responses are abandoned, and the ledger
  // balances to the request.
  EXPECT_EQ(server.abandoned(), 2u);
  EXPECT_EQ(server.submitted(), server.responded() + server.abandoned());
  {
    std::lock_guard<std::mutex> lock(mu);
    // Per-session response counts: a's blocked delivery landed (late,
    // once); b and c each lost exactly the suppressed one.
    EXPECT_EQ(ok_count[a], kTotal);
    EXPECT_EQ(ok_count[b], kTotal - 1);
    EXPECT_EQ(ok_count[c], kTotal - 1);
    // No seq was ever answered twice.
    std::vector<std::uint64_t> sorted = seqs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "duplicate response seq — the fence failed";
  }

  // The recovered + resumed state is the true continuation.
  PoolConfig oracle_config;
  oracle_config.shards = 1;
  oracle_config.policy.max_batch = 8;
  EnginePool oracle(cell_, pruner_, oracle_config);
  const ResponseSink oracle_sink = [](const Response&) {};
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    for (SessionId sid : {a, b, c}) {
      Request r;
      r.session = sid;
      r.token = token_at(sid, i, cell_.input_dim());
      r.arrival_us = static_cast<std::int64_t>(i);
      r.seq = i;
      oracle.enqueue(r);
    }
    oracle.flush(static_cast<std::int64_t>(i), oracle_sink);
  }
  for (SessionId sid : {a, b, c}) {
    const SessionDigest want = oracle.shard(0).sessions().digest_of(sid);
    const SessionDigest got = pool.shard(0).sessions().digest_of(sid);
    EXPECT_EQ(want.steps, got.steps);
    EXPECT_EQ(want.digest, got.digest)
        << "session " << sid << " diverged across the fenced restart";
  }
}

TEST_F(SupervisorTest, SlowSinkDeepBacklogIsBusyNotWedged) {
  // A healthy worker grinding a backlog through a slow sink can spend
  // far longer than the stall window inside ONE settle pass. The
  // heartbeat advances per response, so the watchdog must read it as
  // busy, never wedged — a false restart would abandon live work.
  PoolConfig config;
  config.shards = 1;
  config.policy.max_batch = 8;
  EnginePool pool(cell_, pruner_, config);

  std::atomic<int> served{0};
  const ResponseSink sink = [&](const Response& r) {
    if (r.timed_out) return;
    // Slow consumer: 2ms per response. 60 responses ≈ 120ms of serving
    // inside one settle chain — three full stall windows.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    served.fetch_add(1);
  };
  LiveServer server(pool, sink);

  SupervisorConfig sup;
  sup.stall_ms = 40;
  sup.poll_ms = 5;
  Supervisor supervisor(server, sup);
  supervisor.start();

  // Park the worker so the whole load lands in one wakeup: 6 sessions
  // x 10 steps, same-session conflicts forcing ~10 chained batches.
  constexpr int kSessions = 6;
  constexpr std::uint64_t kSteps = 10;
  server.worker(0).wedge_for_testing();
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    for (int s = 1; s <= kSessions; ++s) {
      ASSERT_TRUE(server
                      .submit(static_cast<SessionId>(s),
                              token_at(static_cast<SessionId>(s), i,
                                       cell_.input_dim()))
                      .has_value());
    }
  }
  server.worker(0).release_wedge();
  const int want = kSessions * static_cast<int>(kSteps);
  ASSERT_TRUE(wait_until([&] { return served.load() >= want; }));

  supervisor.stop();
  server.shutdown();

  EXPECT_EQ(server.restarts(), 0u)
      << "busy-not-wedged: a slow sink must not trigger a restart";
  EXPECT_EQ(supervisor.restarts_triggered(), 0u);
  EXPECT_EQ(server.abandoned(), 0u);
  EXPECT_EQ(server.submitted(), server.responded());
}

TEST_F(SupervisorTest, RestartShardDirectlyIsIdempotentAndKeepsServing) {
  store::MemEnv env;
  EnginePool pool(cell_, pruner_, journaled_config(2, env, "direct"));
  std::atomic<int> served{0};
  LiveServer server(pool,
                    [&](const Response& r) {
                      if (!r.timed_out) served.fetch_add(1);
                    });

  SessionId sid0 = 1;
  while (pool.shard_of(sid0) != 0) ++sid0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        server.submit(sid0, token_at(sid0, i, cell_.input_dim())).has_value());
  }
  ASSERT_TRUE(wait_until([&] { return served.load() >= 5; }));

  server.restart_shard(0);
  EXPECT_EQ(server.restarts(), 1u);
  EXPECT_EQ(server.quarantined(), 0);
  EXPECT_EQ(pool.shard(0).sessions().digest_of(sid0).steps, 5u);

  // The replacement worker serves new work for the same session,
  // continuing from the recovered state.
  for (std::uint64_t i = 5; i < 8; ++i) {
    ASSERT_TRUE(
        server.submit(sid0, token_at(sid0, i, cell_.input_dim())).has_value());
  }
  ASSERT_TRUE(wait_until([&] {
    return pool.shard(0).sessions().digest_of(sid0).steps == 8;
  }));
  server.shutdown();
  EXPECT_EQ(server.submitted(), server.responded() + server.abandoned());

  // After shutdown, restart_shard is a refusal, not a crash.
  server.restart_shard(0);
  EXPECT_EQ(server.restarts(), 1u);
}

}  // namespace
}  // namespace zss::serve
