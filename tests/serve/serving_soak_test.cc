#include "serve/worker.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "num/rng.h"
#include "serve/protocol.h"

// Slow soak coverage of the live loop — registered under the ctest
// `soak` label, which the default run excludes (enable with
// -DZSS_ENABLE_SOAK=ON; the TSan CI job does). These runs are sized to
// surface races and lifecycle bugs under ThreadSanitizer, not to add
// value assertions beyond the fast suite's.
namespace zss::serve {
namespace {

num::Index token_at(SessionId session, std::uint64_t i, num::Index vocab) {
  return static_cast<num::Index>(
      num::splitmix64_mix(session * 1000003ULL + i) %
      static_cast<std::uint64_t>(vocab));
}

TEST(ServingSoakTest, LiveStressWithTtlEvictionAndControlTraffic) {
  num::Rng rng(424242);
  const nn::LstmCell cell(/*input_dim=*/6, /*hidden_dim=*/16, rng);
  const core::StatePruner pruner(core::PrunerConfig::fixed(0.08f));
  PoolConfig config;
  config.shards = 4;
  config.policy.max_batch = 8;
  config.session_ttl.ttl_us = 2000;     // evictions happen mid-stress
  config.session_ttl.max_sessions = 16; // per shard, > max_batch
  EnginePool pool(cell, pruner, config);

  std::mutex mu;
  std::map<SessionId, std::uint64_t> last_seq;
  std::atomic<std::uint64_t> out_of_order{0};
  const ResponseSink sink = [&](const Response& r) {
    std::lock_guard<std::mutex> lock(mu);
    auto [it, fresh] = last_seq.try_emplace(r.session, r.seq);
    if (!fresh) {
      if (r.seq <= it->second) out_of_order.fetch_add(1);
      it->second = r.seq;
    }
  };
  LiveServer server(pool, sink);

  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 4000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      num::Rng prng(static_cast<std::uint64_t>(p) + 1);
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        // 64 shared sessions across all producers: same-session
        // conflicts, TTL resets and LRU churn all run concurrently.
        const auto sid = static_cast<SessionId>(prng.below(64) + 1);
        server.submit(sid, token_at(sid, i, cell.input_dim()));
        if (i % 512 == 0) server.flush_all();
        if (i % 1024 == 0) {
          (void)server.responded();  // the `stats` verb's read path
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  server.shutdown();

  EXPECT_EQ(server.responded(), server.submitted());
  EXPECT_EQ(server.submitted(), kProducers * kPerProducer);
  EXPECT_EQ(out_of_order.load(), 0u) << "per-session order violated";

  std::uint64_t resets = 0, evicted = 0;
  for (num::Index s = 0; s < pool.num_shards(); ++s) {
    resets += pool.shard(s).sessions().ttl_resets();
    evicted += pool.shard(s).sessions().evicted();
    EXPECT_LE(pool.shard(s).sessions().size(), 16)
        << "LRU cap exceeded on shard " << s;
  }
  // With 64 sessions hashed over 4 shards capped at 16 each and a
  // 2 ms TTL under multi-second load, eviction machinery must have
  // actually run for this soak to mean anything.
  EXPECT_GT(resets + evicted, 0u) << "soak never exercised eviction";
}

TEST(ServingSoakTest, LongRecordedRunReplaysBitIdentically) {
  num::Rng rng(9090);
  const nn::LstmCell cell(/*input_dim=*/5, /*hidden_dim=*/16, rng);
  const core::StatePruner pruner(core::PrunerConfig::fixed(0.08f));
  PoolConfig config;
  config.shards = 4;
  config.policy.max_batch = 8;
  config.session_ttl.ttl_us = 1500;
  EnginePool pool(cell, pruner, config);

  struct Digest {
    std::uint64_t d = kFnvOffset;
    std::uint64_t n = 0;
  };
  std::mutex mu;
  std::map<SessionId, Digest> live;
  const ResponseSink sink = [&](const Response& r) {
    std::lock_guard<std::mutex> lock(mu);
    Digest& dg = live[r.session];
    dg.d = fnv1a(dg.d, r.h.data(), r.h.size_bytes());
    ++dg.n;
  };
  LiveConfig lc;
  lc.record = true;
  LiveServer server(pool, sink, lc);

  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      num::Rng prng(static_cast<std::uint64_t>(p) * 31 + 7);
      for (std::uint64_t i = 0; i < 2500; ++i) {
        const auto sid = static_cast<SessionId>(prng.below(24) + 1);
        server.submit(sid, token_at(sid, i, cell.input_dim()));
        if (i % 100 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  server.shutdown();

  PoolConfig replay_config = config;
  replay_config.shards = 2;  // the guarantee is shard-count independent
  EnginePool replay_pool(cell, pruner, replay_config);
  std::map<SessionId, Digest> replayed;
  const ResponseSink rsink = [&](const Response& r) {
    Digest& dg = replayed[r.session];
    dg.d = fnv1a(dg.d, r.h.data(), r.h.size_bytes());
    ++dg.n;
  };
  replay(replay_pool, server.recorded_trace(), rsink);

  ASSERT_EQ(live.size(), replayed.size());
  for (const auto& [sid, dg] : live) {
    ASSERT_TRUE(replayed.count(sid)) << sid;
    EXPECT_EQ(replayed.at(sid).d, dg.d) << "session " << sid;
    EXPECT_EQ(replayed.at(sid).n, dg.n);
  }
}

}  // namespace
}  // namespace zss::serve
