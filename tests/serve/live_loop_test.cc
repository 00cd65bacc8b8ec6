#include "serve/worker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sparse_inference.h"
#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "num/rng.h"
#include "serve/session.h"

// The real-time serving loop: persistent per-shard workers fed by
// multi-producer submission, graceful shutdown with in-flight work,
// and the SessionStore TTL/LRU eviction rules. None of the value
// assertions depend on timing — wake jitter moves batch boundaries,
// and the determinism guarantee makes boundaries value-neutral — so
// these tests run the real clock and still expect bitwise equality.
namespace zss::serve {
namespace {

using OutputLog = std::map<SessionId, std::vector<std::vector<float>>>;

/// Deterministic per-session token stream, shared by live runs and the
/// oracle so both see the same per-session request order.
num::Index token_at(SessionId session, std::uint64_t i, num::Index vocab) {
  return static_cast<num::Index>(
      num::splitmix64_mix(session * 1000003ULL + i) %
      static_cast<std::uint64_t>(vocab));
}

/// Spin-waits (with sleeps) until `done` or the deadline; returns done.
bool wait_until(const std::function<bool()>& done,
                std::chrono::seconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Parks every worker of `server` at its pre-serve checkpoint (the
/// supervisor tests' wedge hook) until release(). Declared after the
/// server, it also releases on destruction: a failed assertion never
/// leaves the server's shutdown joining a parked worker.
class WedgedWorkers {
 public:
  explicit WedgedWorkers(LiveServer& server) : server_(server) {
    for (num::Index s = 0; s < server_.num_workers(); ++s) {
      server_.worker(s).wedge_for_testing();
    }
  }
  ~WedgedWorkers() { release(); }
  void release() {
    for (num::Index s = 0; s < server_.num_workers(); ++s) {
      server_.worker(s).release_wedge();
    }
  }

 private:
  LiveServer& server_;
};

class LiveLoopTest : public ::testing::Test {
 protected:
  LiveLoopTest()
      : rng_(314159),
        cell_(/*input_dim=*/5, /*hidden_dim=*/16, rng_),
        pruner_(core::PrunerConfig::fixed(0.08f)) {}

  /// Ground truth for independent sessions: each session stepped alone
  /// from zero state through its own token stream.
  OutputLog oracle(const std::map<SessionId, std::uint64_t>& steps_per) {
    core::SparseLstmEngine engine(cell_, pruner_);
    OutputLog log;
    num::Matrix x(1, cell_.input_dim());
    for (const auto& [sid, steps] : steps_per) {
      num::Matrix h(1, cell_.hidden_dim(), 0.0f);
      num::Matrix c(1, cell_.hidden_dim(), 0.0f);
      for (std::uint64_t i = 0; i < steps; ++i) {
        x.fill(0.0f);
        x(0, token_at(sid, i, cell_.input_dim())) = 1.0f;
        engine.step(x, h, c);
        auto row = h.row(0);
        log[sid].emplace_back(row.begin(), row.end());
      }
    }
    return log;
  }

  /// cell_/pruner_ as a one-layer model with one-hot inputs.
  ServeModel model() const {
    ServeModel m;
    m.cells = cells_;
    m.pruners = pruners_;
    return m;
  }

  num::Rng rng_;
  nn::LstmCell cell_;
  core::StatePruner pruner_;
  const nn::LstmCell* cells_[1] = {&cell_};
  const core::StatePruner* pruners_[1] = {&pruner_};
};

TEST_F(LiveLoopTest, MultiProducerSubmissionMatchesOracleBitwise) {
  PoolConfig config;
  config.shards = 4;
  config.policy.max_batch = 8;
  EnginePool pool(cell_, pruner_, config);

  std::mutex mu;
  OutputLog log;
  std::map<SessionId, std::uint64_t> last_seq;
  const ResponseSink sink = [&](const Response& r) {
    std::lock_guard<std::mutex> lock(mu);
    auto [it, fresh] = last_seq.try_emplace(r.session, r.seq);
    if (!fresh) {
      EXPECT_GT(r.seq, it->second)
          << "session " << r.session << " served out of order";
      it->second = r.seq;
    }
    log[r.session].emplace_back(r.h.begin(), r.h.end());
  };

  LiveServer server(pool, sink);
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerSession = 40;
  constexpr int kSessionsPerProducer = 3;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Disjoint session sets; within a producer, session order is
      // interleaved so shards see mixed traffic.
      for (std::uint64_t i = 0; i < kPerSession; ++i) {
        for (int k = 0; k < kSessionsPerProducer; ++k) {
          const auto sid =
              static_cast<SessionId>(p * kSessionsPerProducer + k + 1);
          EXPECT_TRUE(
              server.submit(sid, token_at(sid, i, cell_.input_dim()))
                  .has_value());
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  server.shutdown();

  const std::uint64_t expected =
      kProducers * kSessionsPerProducer * kPerSession;
  EXPECT_EQ(server.submitted(), expected);
  EXPECT_EQ(server.responded(), expected) << "lost or duplicated work";

  std::map<SessionId, std::uint64_t> steps_per;
  for (int s = 1; s <= kProducers * kSessionsPerProducer; ++s) {
    steps_per[static_cast<SessionId>(s)] = kPerSession;
  }
  EXPECT_EQ(log, oracle(steps_per))
      << "live outputs must be bitwise equal to each session served alone";
}

TEST_F(LiveLoopTest, GracefulShutdownDrainsInflightRequests) {
  PoolConfig config;
  config.shards = 2;
  config.policy.max_batch = 8;
  EnginePool pool(cell_, pruner_, config);

  std::atomic<int> responses{0};
  const ResponseSink sink = [&](const Response&) {
    responses.fetch_add(1, std::memory_order_relaxed);
  };
  LiveServer server(pool, sink);
  // Wedged workers serve nothing, so every request below is still
  // in flight when shutdown begins and must come out of its drain.
  WedgedWorkers wedged(server);
  constexpr int kRequests = 300;
  for (int i = 0; i < kRequests; ++i) {
    // Many requests per session: same-session conflicts force small
    // batches, so plenty of work is still queued at shutdown.
    ASSERT_TRUE(server
                    .submit(static_cast<SessionId>(i % 5 + 1),
                            static_cast<num::Index>(i) % cell_.input_dim())
                    .has_value());
  }
  EXPECT_EQ(responses.load(), 0) << "a wedged worker served";
  // Released only after shutdown() has begun (it blocks joining the
  // wedged workers), so the stop request races the first batch.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    wedged.release();
  });
  server.shutdown();
  releaser.join();
  EXPECT_EQ(responses.load(), kRequests)
      << "shutdown must drain every accepted request";
  EXPECT_EQ(server.responded(), static_cast<std::uint64_t>(kRequests));

  // After shutdown, submissions are refused — not silently dropped.
  EXPECT_FALSE(server.submit(1, 0).has_value());
}

TEST_F(LiveLoopTest, RecordedLiveRunReplaysBitIdentically) {
  PoolConfig config;
  config.shards = 4;
  config.policy.max_batch = 8;
  EnginePool pool(cell_, pruner_, config);

  std::mutex mu;
  OutputLog live_log;
  const ResponseSink sink = [&](const Response& r) {
    std::lock_guard<std::mutex> lock(mu);
    live_log[r.session].emplace_back(r.h.begin(), r.h.end());
  };
  LiveConfig live;
  live.record = true;
  LiveServer server(pool, sink, live);

  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < 60; ++i) {
        const auto sid = static_cast<SessionId>(p * 4 + i % 4 + 1);
        server.submit(sid, token_at(sid, i, cell_.input_dim()));
        if (i % 16 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  server.shutdown();

  const std::vector<TraceEvent>& recorded = server.recorded_trace();
  ASSERT_EQ(recorded.size(), server.submitted());
  for (std::size_t i = 1; i < recorded.size(); ++i) {
    ASSERT_GE(recorded[i].arrival_us, recorded[i - 1].arrival_us)
        << "recorded stamps must be monotone (a valid trace)";
  }

  // The recorded run replayed through the virtual-clock path — fresh
  // pool, different shard count even — must reproduce the live values
  // bit for bit.
  PoolConfig replay_config = config;
  replay_config.shards = 2;
  EnginePool replay_pool(cell_, pruner_, replay_config);
  OutputLog replay_log;
  const ResponseSink replay_sink = [&](const Response& r) {
    replay_log[r.session].emplace_back(r.h.begin(), r.h.end());
  };
  replay(replay_pool, recorded, replay_sink);
  EXPECT_EQ(live_log, replay_log);
}

TEST_F(LiveLoopTest, FlushAllServesQueuedWork) {
  PoolConfig config;
  config.shards = 2;
  config.policy.max_batch = 8;
  EnginePool pool(cell_, pruner_, config);

  std::atomic<int> responses{0};
  const ResponseSink sink = [&](const Response&) {
    responses.fetch_add(1, std::memory_order_relaxed);
  };
  LiveServer server(pool, sink);
  WedgedWorkers wedged(server);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        server.submit(static_cast<SessionId>(i + 1), 0).has_value());
  }
  server.flush_all();
  EXPECT_EQ(responses.load(), 0) << "a wedged worker served";
  wedged.release();
  EXPECT_TRUE(wait_until([&] { return responses.load() >= 3; }))
      << "flush_all must serve queued work";
  server.shutdown();
}

TEST_F(LiveLoopTest, LoneRequestIsAnsweredWithoutFlushOrMaxWait) {
  // The worker is work-conserving: it serves whatever is pending as
  // soon as it is free. An hour of max-wait must not hold a lone
  // request, and no flush_all() is needed to release it.
  PoolConfig config;
  config.shards = 2;
  config.policy.max_batch = 8;
  config.policy.max_wait_us = 3'600'000'000LL;
  EnginePool pool(cell_, pruner_, config);

  std::atomic<int> responses{0};
  const ResponseSink sink = [&](const Response&) {
    responses.fetch_add(1, std::memory_order_relaxed);
  };
  LiveServer server(pool, sink);
  ASSERT_TRUE(server.submit(/*session=*/1, /*token=*/0).has_value());
  EXPECT_TRUE(wait_until([&] { return responses.load() == 1; },
                         std::chrono::seconds(1)))
      << "a lone request waited for batch-mates";
  server.shutdown();
}

TEST_F(LiveLoopTest, BackpressureShedsInsteadOfQueueingUnboundedly) {
  PoolConfig config;
  config.shards = 1;
  config.policy.max_batch = 64;
  EnginePool pool(cell_, pruner_, config);

  std::atomic<int> responses{0};
  const ResponseSink sink = [&](const Response&) {
    responses.fetch_add(1, std::memory_order_relaxed);
  };
  LiveConfig live;
  live.max_queue = 8;
  LiveServer server(pool, sink, live);
  // A wedged worker answers nothing, so in-flight only grows and the
  // shed count below is deterministic.
  WedgedWorkers wedged(server);

  std::uint64_t accepted = 0, shed = 0;
  for (int i = 0; i < 40; ++i) {
    if (server.submit(static_cast<SessionId>(i + 1), 0).has_value()) {
      ++accepted;
    } else {
      ++shed;
    }
  }
  EXPECT_EQ(accepted, 8u) << "exactly max_queue requests fit";
  EXPECT_EQ(shed, 32u);
  EXPECT_EQ(server.submitted(), accepted);
  EXPECT_EQ(server.shed(), shed);
  EXPECT_EQ(responses.load(), 0) << "a wedged worker served";
  wedged.release();
  server.shutdown();
  EXPECT_EQ(server.responded(), accepted)
      << "every accepted request is still served exactly once";
}

// ---------------------------------------------------------------------
// SessionStore TTL / LRU eviction unit tests.

TEST(SessionStoreTtlTest, LazyTtlRestartsFromZeroStateOnGap) {
  SessionTtl ttl;
  ttl.ttl_us = 100;
  SessionStore store(/*hidden_dim=*/4, ttl);

  Session& s = store.get_or_create(7, /*arrival_us=*/0);
  s.h[0](0, 0) = 3.5f;
  s.c[0](0, 1) = -1.25f;
  s.steps = 5;

  // A gap of exactly ttl_us is NOT expiry (strictly-greater rule).
  Session& same = store.get_or_create(7, /*arrival_us=*/100);
  EXPECT_EQ(&same, &s);
  EXPECT_EQ(same.generation, 0u);
  EXPECT_EQ(same.h[0](0, 0), 3.5f) << "state must survive within the TTL";

  // One microsecond past the TTL: fresh conversation, same id.
  Session& reset = store.get_or_create(7, /*arrival_us=*/201);
  EXPECT_EQ(reset.generation, 1u);
  EXPECT_EQ(reset.steps, 0u);
  EXPECT_EQ(reset.h[0](0, 0), 0.0f);
  EXPECT_EQ(reset.c[0](0, 1), 0.0f);
  EXPECT_EQ(store.ttl_resets(), 1u);
  EXPECT_EQ(store.size(), 1) << "a TTL reset reuses the storage";
}

TEST(SessionStoreTtlTest, SweepFreesExactlyWhatLazyResetWouldRestart) {
  SessionTtl ttl;
  ttl.ttl_us = 100;
  SessionStore store(/*hidden_dim=*/4, ttl);
  store.get_or_create(1, 0);
  store.get_or_create(2, 50);
  store.get_or_create(3, 400);

  // At newest arrival 400: sessions 1 and 2 have gaps > 100, session 3
  // does not. Sweeping must free exactly the former.
  EXPECT_EQ(store.sweep_expired(400), 2);
  EXPECT_EQ(store.find(1), nullptr);
  EXPECT_EQ(store.find(2), nullptr);
  ASSERT_NE(store.find(3), nullptr);
  EXPECT_EQ(store.size(), 1);

  // Value neutrality: the swept session re-registers with the same
  // zero state the lazy rule would have reset it to.
  Session& back = store.get_or_create(1, 450);
  EXPECT_EQ(back.h[0](0, 0), 0.0f);
  EXPECT_EQ(back.steps, 0u);
}

TEST(SessionStoreTtlTest, LruCapEvictsLeastRecentlyArrived) {
  SessionTtl ttl;
  ttl.max_sessions = 3;
  SessionStore store(/*hidden_dim=*/4, ttl);
  store.get_or_create(1, 0);
  store.get_or_create(2, 10);
  store.get_or_create(3, 20);
  store.get_or_create(1, 30);  // touch: 2 is now the LRU

  store.get_or_create(4, 40);  // at cap: must evict 2
  EXPECT_EQ(store.size(), 3);
  EXPECT_EQ(store.find(2), nullptr);
  EXPECT_NE(store.find(1), nullptr);
  EXPECT_NE(store.find(3), nullptr);
  EXPECT_NE(store.find(4), nullptr);
  EXPECT_EQ(store.evicted(), 1u);

  // The evicted session re-registers with fresh zero state.
  Session& back = store.get_or_create(2, 50);
  EXPECT_EQ(back.h[0](0, 0), 0.0f);
  EXPECT_EQ(store.find(3), nullptr) << "3 was the LRU this time";
}

TEST(SessionStoreTtlTest, PinnedSessionsAreNeverEvictedOrSwept) {
  SessionTtl ttl;
  ttl.ttl_us = 100;
  ttl.max_sessions = 2;
  SessionStore store(/*hidden_dim=*/4, ttl);
  Session& pinned = store.get_or_create(1, 0);
  pinned.pinned = true;
  store.get_or_create(2, 10);

  // Cap eviction must pass over the pinned LRU tail and take the next.
  store.get_or_create(3, 20);
  EXPECT_NE(store.find(1), nullptr) << "pinned session evicted at cap";
  EXPECT_EQ(store.find(2), nullptr);

  // The sweep must pass over it too, however expired it looks.
  EXPECT_EQ(store.sweep_expired(10'000), 1) << "only session 3 is sweepable";
  EXPECT_NE(store.find(1), nullptr) << "pinned session swept";

  pinned.pinned = false;
  EXPECT_EQ(store.sweep_expired(10'000), 1);
  EXPECT_EQ(store.find(1), nullptr);
}

TEST_F(LiveLoopTest, ShardServesFullBatchWhileEvictingAtCap) {
  // A shard at its session cap serving a full batch of brand-new
  // sessions: every lane creation evicts an old idle session, and no
  // lane of the in-flight batch is ever the victim.
  BatchPolicy policy;
  policy.max_batch = 4;
  SessionTtl ttl;
  ttl.max_sessions = 5;
  EngineShard shard(model(), policy, {}, ttl);

  std::uint64_t seq = 0;
  num::Index responses = 0;
  const ResponseSink sink = [&](const Response& r) {
    EXPECT_FALSE(r.h.empty());
    ++responses;
  };
  // Fill the store with 5 old sessions (ids 10..14).
  for (SessionId s = 10; s < 15; ++s) {
    Request r;
    r.session = s;
    r.token = 0;
    r.arrival_us = 0;
    r.seq = seq++;
    shard.enqueue(r);
  }
  shard.flush(0, sink);
  ASSERT_EQ(shard.sessions().size(), 5);

  // One full batch of 4 new sessions: 4 evictions, 4 creations, all
  // lanes served, store still at cap.
  for (SessionId s = 20; s < 24; ++s) {
    Request r;
    r.session = s;
    r.token = 1;
    r.arrival_us = 10;
    r.seq = seq++;
    shard.enqueue(r);
  }
  shard.flush(10, sink);
  EXPECT_EQ(responses, 9);
  EXPECT_EQ(shard.sessions().size(), 5);
  EXPECT_EQ(shard.sessions().evicted(), 4u);
  for (SessionId s = 20; s < 24; ++s) {
    EXPECT_NE(shard.sessions().find(s), nullptr)
        << "an in-flight lane was evicted by a later lane's creation";
  }
}

TEST_F(LiveLoopTest, LruEvictionIsIndependentOfBatchGrouping) {
  // The determinism contract's hardest case: a batch that contains a
  // new session (forcing an LRU eviction at the cap) AND the LRU-tail
  // session itself. Live serving and virtual-clock replay may group
  // these two requests differently (batch boundaries are never part of
  // the contract), so the eviction outcome must be identical whether
  // they share a batch or not — i.e. the tail is evicted and restarts
  // from zero exactly as a serial, request-at-a-time processor would
  // decide, never rescued by happening to share a batch with its
  // evictor. Outputs, generations and eviction counts must all match.
  BatchPolicy policy;
  policy.max_batch = 4;
  SessionTtl ttl;
  ttl.max_sessions = 5;

  struct Outcome {
    std::map<SessionId, std::vector<std::vector<float>>> rows;
    std::uint64_t evicted = 0;
    std::uint64_t tail_generation = 0;
    std::uint64_t tail_steps = 0;
  };
  // `split`: serve the [new 99, tail 10] pair as two batches instead
  // of one (what a replay with different wake timing can produce).
  const auto run = [&](bool split) {
    EngineShard shard(model(), policy, {}, ttl);
    Outcome out;
    const ResponseSink sink = [&](const Response& r) {
      auto row = r.h;
      out.rows[r.session].emplace_back(row.begin(), row.end());
    };
    std::uint64_t seq = 0;
    const auto push = [&](SessionId s, std::int64_t at) {
      Request r;
      r.session = s;
      r.token = 1;
      r.arrival_us = at;
      r.seq = seq++;
      shard.enqueue(r);
    };
    // Sessions 10..14, served [10,11,12,13] then [14]: LRU order is
    // 14 (front) .. 10 (tail), store exactly at the cap.
    for (SessionId s = 10; s < 15; ++s) push(s, 0);
    shard.flush(0, sink);
    // New session 99 then the tail 10 itself.
    push(99, 10);
    if (split) shard.flush(10, sink);
    push(10, 11);
    shard.flush(11, sink);
    out.evicted = shard.sessions().evicted();
    const Session* tail = shard.sessions().find(10);
    if (tail != nullptr) {
      out.tail_generation = tail->generation;
      out.tail_steps = tail->steps;
    }
    return out;
  };

  const Outcome one_batch = run(/*split=*/false);
  const Outcome two_batches = run(/*split=*/true);
  EXPECT_EQ(one_batch.rows, two_batches.rows)
      << "eviction outcome depends on batch grouping — live and replay "
         "would diverge";
  EXPECT_EQ(one_batch.evicted, two_batches.evicted);
  EXPECT_EQ(one_batch.tail_generation, two_batches.tail_generation);
  EXPECT_EQ(one_batch.tail_steps, two_batches.tail_steps);
  // And the serial semantics itself: 99's creation evicted the tail
  // (10), whose own later request restarted it from zero state — a
  // re-creation at the cap that evicted the next tail (11) in turn.
  EXPECT_EQ(two_batches.evicted, 2u);
  EXPECT_EQ(two_batches.tail_steps, 1u);
  EXPECT_EQ(two_batches.tail_generation, 0u);
}

TEST_F(LiveLoopTest, ShardTtlResetMatchesFreshSessionBitwise) {
  // Served through a shard, an expired session's continuation must be
  // bitwise identical to a brand-new session fed the same tokens.
  BatchPolicy policy;
  policy.max_batch = 4;
  SessionTtl ttl;
  ttl.ttl_us = 1000;

  auto run = [&](SessionId sid, std::int64_t t0,
                 EngineShard& shard) -> std::vector<float> {
    std::vector<float> last;
    const ResponseSink sink = [&](const Response& r) {
      last.assign(r.h.begin(), r.h.end());
    };
    for (int i = 0; i < 3; ++i) {
      Request r;
      r.session = sid;
      r.token = i;
      r.arrival_us = t0 + i;
      r.seq = static_cast<std::uint64_t>(t0 + i);
      shard.enqueue(r);
      shard.flush(r.arrival_us, sink);
    }
    return last;
  };

  EngineShard shard(model(), policy, {}, ttl);
  const std::vector<float> first = run(1, 0, shard);
  // Same session returns 5000us later: past the TTL, so it restarts —
  // and must match a fresh session served the same tokens exactly.
  const std::vector<float> after_gap = run(1, 5000, shard);
  EngineShard fresh_shard(model(), policy, {}, ttl);
  const std::vector<float> fresh = run(9, 0, fresh_shard);
  EXPECT_EQ(after_gap, fresh);
  EXPECT_EQ(after_gap, first) << "same tokens from zero state";
  EXPECT_EQ(shard.sessions().find(1)->generation, 1u);
}

}  // namespace
}  // namespace zss::serve
