#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/sparse_inference.h"
#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "num/rng.h"
#include "serve/pool.h"
#include "serve/trace.h"

// The serving determinism guarantee: a session's output stream depends
// only on its own request stream — never on shard count, batch size, or
// which batch-mates the batcher grouped it with. With the per-lane skip
// path a lane accumulates exactly its own kept positions whatever the
// batch around it, and the bit-exactness contract (docs/exactness.md)
// pins every chain's rounding. These tests replay one trace through
// every pool shape and demand bitwise-equal per-session outputs against
// a batch-of-one oracle.
namespace zss::serve {
namespace {

using OutputLog = std::map<SessionId, std::vector<std::vector<float>>>;

class ShardDeterminismTest : public ::testing::Test {
 protected:
  ShardDeterminismTest()
      : rng_(271828),
        cell_(/*input_dim=*/5, /*hidden_dim=*/16, rng_),
        pruner_(core::PrunerConfig::fixed(0.08f)) {
    trace_ = synthetic_trace(/*requests=*/150, /*sessions=*/6, /*vocab=*/5,
                             /*mean_gap_us=*/50, rng_);
    // Replay serves each arrival instant at once (serve/trace.h), so
    // batches form only from arrivals that share a stamp. Snap stamps
    // to 200 us bursts — the requests a busy worker would find waiting
    // — so the sweeps below really mix batch sizes and conflicts.
    for (TraceEvent& e : trace_) e.arrival_us -= e.arrival_us % 200;
    // Force back-to-back same-session arrivals so the conflict path
    // (a session queued twice before its first token is served) runs.
    for (int k = 0; k < 3; ++k) {
      TraceEvent e;
      e.arrival_us = trace_.back().arrival_us;
      e.session = 3;
      e.token = static_cast<num::Index>(k) % 5;
      trace_.push_back(e);
    }
  }

  /// Ground truth: each session stepped alone, batch of one, in its
  /// trace order — no batching, no sharding, no intersection.
  OutputLog oracle() {
    core::SparseLstmEngine engine(cell_, pruner_);
    std::map<SessionId, std::pair<num::Matrix, num::Matrix>> states;
    OutputLog log;
    num::Matrix x(1, cell_.input_dim());
    for (const TraceEvent& e : trace_) {
      auto [it, fresh] = states.try_emplace(e.session);
      if (fresh) {
        it->second.first.resize(1, cell_.hidden_dim(), 0.0f);
        it->second.second.resize(1, cell_.hidden_dim(), 0.0f);
      }
      x.fill(0.0f);
      x(0, e.token % cell_.input_dim()) = 1.0f;
      engine.step(x, it->second.first, it->second.second);
      auto row = it->second.first.row(0);
      log[e.session].emplace_back(row.begin(), row.end());
    }
    return log;
  }

  OutputLog run_pool(num::Index shards, num::Index max_batch) {
    PoolConfig config;
    config.shards = shards;
    config.policy.max_batch = max_batch;
    EnginePool pool(cell_, pruner_, config);
    OutputLog log;
    std::map<SessionId, std::uint64_t> last_seq;
    const ResponseSink sink = [&](const Response& r) {
      // Per-session responses must arrive in request order.
      auto [it, fresh] = last_seq.try_emplace(r.session, r.seq);
      if (!fresh) {
        EXPECT_GT(r.seq, it->second) << "session " << r.session;
        it->second = r.seq;
      }
      log[r.session].emplace_back(r.h.begin(), r.h.end());
    };
    const ReplayResult result = replay(pool, trace_, sink);
    EXPECT_EQ(result.responses, result.requests) << "lost or duplicated work";
    return log;
  }

  num::Rng rng_;
  nn::LstmCell cell_;
  core::StatePruner pruner_;
  std::vector<TraceEvent> trace_;
};

TEST_F(ShardDeterminismTest, SingleShardBatchedMatchesOracleBitwise) {
  EXPECT_EQ(run_pool(/*shards=*/1, /*max_batch=*/8), oracle());
}

TEST_F(ShardDeterminismTest, FourShardsMatchOneShardBitwise) {
  const OutputLog one = run_pool(/*shards=*/1, /*max_batch=*/8);
  const OutputLog four = run_pool(/*shards=*/4, /*max_batch=*/8);
  EXPECT_EQ(one, four);
  EXPECT_EQ(four, oracle());
}

TEST_F(ShardDeterminismTest, BatchSizeOneMatchesBatchedBitwise) {
  EXPECT_EQ(run_pool(/*shards=*/4, /*max_batch=*/1),
            run_pool(/*shards=*/4, /*max_batch=*/8));
}

TEST_F(ShardDeterminismTest, BatchingActuallyHappened) {
  // Guard against the suite passing vacuously with batches of one.
  PoolConfig config;
  config.shards = 1;
  config.policy.max_batch = 8;
  EnginePool pool(cell_, pruner_, config);
  const ResponseSink sink = [](const Response&) {};
  replay(pool, trace_, sink);
  EXPECT_GT(pool.shard(0).stats().mean_batch(), 1.5);
}

TEST_F(ShardDeterminismTest, MaxBatchSweepBitwiseIdentical) {
  // Batch size is a cost policy: every max_batch (and therefore every
  // mix of the engine's B == 1 offset-encoded path and B > 1 per-lane
  // CSR path) must produce the same bits as the batch-of-one oracle.
  const OutputLog want = oracle();
  for (const num::Index max_batch : {2, 3, 5, 8}) {
    PoolConfig config;
    config.shards = 2;
    config.policy.max_batch = max_batch;
    EnginePool pool(cell_, pruner_, config);
    OutputLog log;
    const ResponseSink sink = [&](const Response& r) {
      log[r.session].emplace_back(r.h.begin(), r.h.end());
    };
    replay(pool, trace_, sink);
    EXPECT_EQ(log, want) << "max_batch " << max_batch;
  }
}

TEST_F(ShardDeterminismTest, ReplayServesEachArrivalInstantAtOnce) {
  // Nothing waits for batch-mates: the arrivals of one instant form a
  // batch served at that instant, and a lone later arrival is served
  // alone at its own instant — even with an hour of max-wait, which
  // nothing reads anymore.
  std::vector<TraceEvent> gap_trace;
  gap_trace.push_back(TraceEvent{0, 1, 0});
  gap_trace.push_back(TraceEvent{0, 2, 1});
  gap_trace.push_back(TraceEvent{10000, 3, 1});
  PoolConfig config;
  config.shards = 1;
  config.policy.max_batch = 8;
  config.policy.max_wait_us = 3'600'000'000LL;
  EnginePool pool(cell_, pruner_, config);
  struct Done {
    std::uint64_t seq;
    std::int64_t done_us;
    num::Index batch;
  };
  std::vector<Done> done;
  const ResponseSink sink = [&](const Response& r) {
    done.push_back(Done{r.seq, r.done_us, r.batch});
  };
  const ReplayResult result = replay(pool, gap_trace, sink);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].done_us, 0);
  EXPECT_EQ(done[0].batch, 2) << "same-instant arrivals share a batch";
  EXPECT_EQ(done[1].done_us, 0);
  EXPECT_EQ(done[2].seq, 2u);
  EXPECT_EQ(done[2].done_us, 10000) << "served at its own arrival";
  EXPECT_EQ(done[2].batch, 1);
  EXPECT_EQ(result.end_us, 10000);
  EXPECT_EQ(pool.pending(), 0);
}

TEST_F(ShardDeterminismTest, ParallelDrainMatchesSequentialFlush) {
  // Closed loop: everything queued up front, then drained — once on
  // one thread, once with one thread per shard. Shards share nothing,
  // so the outputs must be bitwise identical.
  auto enqueue_all = [&](EnginePool& pool) {
    std::uint64_t seq = 0;
    for (const TraceEvent& e : trace_) {
      Request r;
      r.session = e.session;
      r.token = e.token;
      r.arrival_us = 0;
      r.seq = seq++;
      pool.enqueue(r);
    }
  };
  PoolConfig config;
  config.shards = 4;
  config.policy.max_batch = 8;

  EnginePool sequential(cell_, pruner_, config);
  enqueue_all(sequential);
  OutputLog seq_log;
  const ResponseSink seq_sink = [&](const Response& r) {
    seq_log[r.session].emplace_back(r.h.begin(), r.h.end());
  };
  sequential.flush(0, seq_sink);

  EnginePool parallel(cell_, pruner_, config);
  enqueue_all(parallel);
  OutputLog par_logs[4];
  std::vector<ResponseSink> sinks;
  for (int s = 0; s < 4; ++s) {
    sinks.emplace_back([&par_logs, s](const Response& r) {
      par_logs[s][r.session].emplace_back(r.h.begin(), r.h.end());
    });
  }
  parallel.drain_parallel(0, sinks);
  OutputLog par_log;
  for (auto& shard_log : par_logs) {
    for (auto& [sid, outs] : shard_log) par_log[sid] = std::move(outs);
  }

  EXPECT_EQ(seq_log, par_log);
}

// --- quantized shards -------------------------------------------------
// The int8 datapath keeps the full determinism guarantee: every
// quantization scale is fixed when the engine is constructed, so batch
// mates and shard assignment cannot leak into a session's outputs
// (docs/exactness.md "int8"). Same trace, quantized everywhere, swept
// over shard counts against a quantized batch-of-one oracle.

class QuantShardDeterminismTest : public ShardDeterminismTest {
 protected:
  OutputLog quant_oracle() {
    core::SparseLstmEngine engine(cell_, pruner_, {},
                                  core::QuantConfig::int8());
    std::map<SessionId, std::pair<num::Matrix, num::Matrix>> states;
    OutputLog log;
    num::Matrix x(1, cell_.input_dim());
    for (const TraceEvent& e : trace_) {
      auto [it, fresh] = states.try_emplace(e.session);
      if (fresh) {
        it->second.first.resize(1, cell_.hidden_dim(), 0.0f);
        it->second.second.resize(1, cell_.hidden_dim(), 0.0f);
      }
      x.fill(0.0f);
      x(0, e.token % cell_.input_dim()) = 1.0f;
      engine.step(x, it->second.first, it->second.second);
      auto row = it->second.first.row(0);
      log[e.session].emplace_back(row.begin(), row.end());
    }
    return log;
  }

  OutputLog run_quant_pool(num::Index shards, num::Index max_batch) {
    PoolConfig config;
    config.shards = shards;
    config.policy.max_batch = max_batch;
    config.quant = core::QuantConfig::int8();
    EnginePool pool(cell_, pruner_, config);
    for (num::Index s = 0; s < shards; ++s) {
      EXPECT_TRUE(pool.shard(s).engine().quantized());
    }
    OutputLog log;
    const ResponseSink sink = [&](const Response& r) {
      log[r.session].emplace_back(r.h.begin(), r.h.end());
    };
    const ReplayResult result = replay(pool, trace_, sink);
    EXPECT_EQ(result.responses, result.requests) << "lost or duplicated work";
    return log;
  }
};

TEST_F(QuantShardDeterminismTest, ShardSweepMatchesQuantOracleBitwise) {
  const OutputLog want = quant_oracle();
  for (const num::Index shards : {1, 2, 4}) {
    EXPECT_EQ(run_quant_pool(shards, /*max_batch=*/8), want)
        << "shards " << shards;
  }
}

TEST_F(QuantShardDeterminismTest, QuantBatchSizeSweepBitwiseIdentical) {
  const OutputLog want = quant_oracle();
  for (const num::Index max_batch : {1, 3, 8}) {
    EXPECT_EQ(run_quant_pool(/*shards=*/2, max_batch), want)
        << "max_batch " << max_batch;
  }
}

TEST_F(QuantShardDeterminismTest, QuantOutputsDifferFromFp32) {
  // Guard against the quant flag silently not reaching the engine: the
  // int8 datapath must NOT reproduce the fp32 bits on this cell.
  EXPECT_NE(quant_oracle(), oracle());
}

}  // namespace
}  // namespace zss::serve
