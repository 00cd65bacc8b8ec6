#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "core/stacked_engine.h"
#include "nn/embedding.h"
#include "nn/lstm_cell.h"
#include "num/parallel.h"
#include "num/rng.h"
#include "serve/pool.h"
#include "serve/trace.h"
#include "store/io.h"

// Multi-layer serving determinism: an L-layer model served through the
// pool must be bit-identical to a batch-of-one StackedEngine oracle —
// at any shard count, any max_batch, at any parallel_for thread count,
// with or without an embedding input mapping — and under TTL churn and
// a capped session store, where no oracle is simple, the outputs must
// not depend on how requests were grouped into batches or shards.
// These tests drive each shard's flush directly: the same
// process_ready loop that replay and live serving run.
namespace zss::serve {
namespace {

constexpr num::Index kDx = 6;
constexpr num::Index kDh = 16;

using OutputLog = std::map<SessionId, std::vector<std::vector<float>>>;

/// Restores the global parallel_for worker count on scope exit.
struct ThreadGuard {
  explicit ThreadGuard(int n) { num::set_num_threads(n); }
  ~ThreadGuard() { num::set_num_threads(1); }
};

class StackedShardTest : public ::testing::Test {
 protected:
  StackedShardTest() : rng_(161803) {
    trace_ = synthetic_trace(/*requests=*/180, /*sessions=*/7, /*vocab=*/kDx,
                             /*mean_gap_us=*/40, rng_);
    // Same-stamp arrivals of one session: the batcher must split them
    // across consecutive batches (a batch never holds a session twice).
    for (int k = 0; k < 4; ++k) {
      TraceEvent e;
      e.arrival_us = trace_.back().arrival_us;
      e.session = 2;
      e.token = static_cast<num::Index>(k) % kDx;
      trace_.push_back(e);
    }
  }

  void build(num::Index layers) {
    cells_.clear();
    pruners_.clear();
    cell_ptrs_.clear();
    pruner_ptrs_.clear();
    num::Rng rng(42);  // model weights fixed across build() calls
    for (num::Index l = 0; l < layers; ++l) {
      cells_.emplace_back(l == 0 ? kDx : kDh, kDh, rng);
      pruners_.emplace_back(core::PrunerConfig::fixed(
          0.05f + 0.02f * static_cast<float>(l)));
    }
    for (const auto& c : cells_) cell_ptrs_.push_back(&c);
    for (const auto& p : pruners_) pruner_ptrs_.push_back(&p);
  }

  ServeModel model() const {
    ServeModel m;
    m.cells = cell_ptrs_;
    m.pruners = pruner_ptrs_;
    return m;
  }

  /// Ground truth: per-session StackedEngine, batch of one, trace
  /// order. Logs stored top-layer h (what Response.h views) and the
  /// dense top tap (what Response.dense_h views).
  void oracle(num::Index layers, OutputLog& stored, OutputLog& dense) {
    core::StackedEngine engine(cell_ptrs_, pruner_ptrs_);
    struct State {
      std::vector<num::Matrix> h, c;
    };
    std::map<SessionId, State> states;
    num::Matrix x(1, kDx), top;
    for (const TraceEvent& e : trace_) {
      auto [it, fresh] = states.try_emplace(e.session);
      if (fresh) {
        it->second.h.resize(static_cast<std::size_t>(layers));
        it->second.c.resize(static_cast<std::size_t>(layers));
        for (num::Index l = 0; l < layers; ++l) {
          it->second.h[static_cast<std::size_t>(l)].resize(1, kDh, 0.0f);
          it->second.c[static_cast<std::size_t>(l)].resize(1, kDh, 0.0f);
        }
      }
      x.fill(0.0f);
      x(0, e.token % kDx) = 1.0f;
      engine.step(x, it->second.h, it->second.c, &top);
      const auto h_row = it->second.h.back().row(0);
      stored[e.session].emplace_back(h_row.begin(), h_row.end());
      const auto d_row = top.row(0);
      dense[e.session].emplace_back(d_row.begin(), d_row.end());
    }
  }

  /// Session-store counters summed over a pool's shards, so a churn
  /// test can check that churn actually happened.
  struct Churn {
    std::uint64_t ttl_resets = 0;
    std::uint64_t evicted = 0;
    std::uint64_t restored = 0;
  };

  /// Enqueues the whole trace and flushes every shard once.
  Churn run_flush(const PoolConfig& config, OutputLog& stored,
                  OutputLog& dense) {
    EnginePool pool(model(), config);
    std::uint64_t seq = 0;
    for (const TraceEvent& e : trace_) {
      Request r;
      r.session = e.session;
      r.token = e.token;
      r.arrival_us = e.arrival_us;
      r.seq = seq++;
      pool.enqueue(r);
    }
    const ResponseSink sink = [&](const Response& r) {
      stored[r.session].emplace_back(r.h.begin(), r.h.end());
      dense[r.session].emplace_back(r.dense_h.begin(), r.dense_h.end());
    };
    const std::int64_t end_us = trace_.back().arrival_us + 1;
    num::Index served = 0;
    Churn churn;
    for (num::Index s = 0; s < config.shards; ++s) {
      served += pool.shard(s).flush(end_us, sink);
      const SessionStore& ss = pool.shard(s).sessions();
      churn.ttl_resets += ss.ttl_resets();
      churn.evicted += ss.evicted();
      churn.restored += ss.restored();
    }
    EXPECT_EQ(served, static_cast<num::Index>(trace_.size()));
    return churn;
  }

  static PoolConfig config(num::Index shards, num::Index max_batch,
                           SessionTtl ttl = {}) {
    PoolConfig c;
    c.shards = shards;
    c.policy.max_batch = max_batch;
    c.session_ttl = ttl;
    return c;
  }

  num::Rng rng_;
  std::deque<nn::LstmCell> cells_;
  std::deque<core::StatePruner> pruners_;
  std::vector<const nn::LstmCell*> cell_ptrs_;
  std::vector<const core::StatePruner*> pruner_ptrs_;
  std::vector<TraceEvent> trace_;
};

TEST_F(StackedShardTest, LayerShardBatchSweepMatchesOracleBitwise) {
  for (const num::Index layers : {1, 2, 3}) {
    build(layers);
    OutputLog want_stored, want_dense;
    oracle(layers, want_stored, want_dense);
    for (const num::Index shards : {1, 2}) {
      for (const num::Index max_batch : {1, 2, 3, 8}) {
        OutputLog stored, dense;
        run_flush(config(shards, max_batch), stored, dense);
        EXPECT_EQ(stored, want_stored)
            << "layers " << layers << " shards " << shards << " max_batch "
            << max_batch;
        EXPECT_EQ(dense, want_dense)
            << "dense tap: layers " << layers << " shards " << shards
            << " max_batch " << max_batch;
      }
    }
  }
}

TEST_F(StackedShardTest, WorkerThreadsMatchOracleBitwise) {
  // max_batch 8 lets a batch hold all 7 sessions: more rows than
  // kParallelGrain, so the row-parallel gemm splits across workers.
  // Values must not move.
  build(3);
  OutputLog want_stored, want_dense;
  oracle(3, want_stored, want_dense);
  for (const int threads : {2, 4}) {
    ThreadGuard guard(threads);
    OutputLog stored, dense;
    run_flush(config(/*shards=*/1, /*max_batch=*/8), stored, dense);
    EXPECT_EQ(stored, want_stored) << "threads " << threads;
    EXPECT_EQ(dense, want_dense) << "threads " << threads;
  }
}

TEST_F(StackedShardTest, TtlChurnIsIndependentOfGrouping) {
  // Lazy TTL resets restart a session from zero state, decided from the
  // session's own arrival gaps — never from batch or shard grouping.
  build(2);
  SessionTtl ttl;
  ttl.ttl_us = 900;  // several resets over the ~7200us trace
  OutputLog want_stored, want_dense;
  const Churn churn = run_flush(config(1, 4, ttl), want_stored, want_dense);
  EXPECT_GT(churn.ttl_resets, 0u) << "the trace must exercise TTL resets";
  for (const num::Index shards : {1, 2}) {
    for (const num::Index max_batch : {1, 4}) {
      OutputLog stored, dense;
      run_flush(config(shards, max_batch, ttl), stored, dense);
      EXPECT_EQ(stored, want_stored)
          << "shards " << shards << " max_batch " << max_batch;
      EXPECT_EQ(dense, want_dense)
          << "shards " << shards << " max_batch " << max_batch;
    }
  }
}

TEST_F(StackedShardTest, SessionCapIsIndependentOfGrouping) {
  // 7 sessions over a cap of 5: every shard-1 run evicts. Without a
  // spill tier an evicted session forgets its state, which depends on
  // the per-shard cap but never on batch grouping; with the tier every
  // eviction restores bit-exact, so shard count cannot matter either.
  build(2);
  SessionTtl ttl;
  ttl.ttl_us = 1500;
  ttl.max_sessions = 5;  // > max_batch 4: a victim always exists
  {
    OutputLog want_stored, want_dense;
    const Churn churn =
        run_flush(config(1, 4, ttl), want_stored, want_dense);
    EXPECT_GT(churn.evicted, 0u) << "the cap must force evictions";
    OutputLog stored, dense;
    run_flush(config(1, 1, ttl), stored, dense);
    EXPECT_EQ(stored, want_stored) << "forgetting eviction, max_batch 1";
    EXPECT_EQ(dense, want_dense) << "forgetting eviction, max_batch 1";
  }
  const auto run_tiered = [&](num::Index shards, num::Index max_batch,
                              OutputLog& stored, OutputLog& dense) {
    store::MemEnv env;
    PoolConfig c = config(shards, max_batch, ttl);
    c.spill.dir = "tier";
    c.spill.env = &env;
    return run_flush(c, stored, dense);
  };
  OutputLog want_stored, want_dense;
  const Churn churn = run_tiered(1, 4, want_stored, want_dense);
  EXPECT_GT(churn.restored, 0u) << "the tier must restore sessions";
  for (const auto& [shards, max_batch] :
       {std::pair<num::Index, num::Index>{1, 1}, {2, 4}, {2, 1}}) {
    OutputLog stored, dense;
    run_tiered(shards, max_batch, stored, dense);
    EXPECT_EQ(stored, want_stored)
        << "spill tier: shards " << shards << " max_batch " << max_batch;
    EXPECT_EQ(dense, want_dense)
        << "spill tier: shards " << shards << " max_batch " << max_batch;
  }
}

TEST_F(StackedShardTest, QuantStackedShardSweepBitwiseIdentical) {
  build(2);
  auto run_quant = [&](num::Index shards) {
    PoolConfig c = config(shards, /*max_batch=*/8);
    c.quant = core::QuantConfig::int8();
    OutputLog stored, dense;
    run_flush(c, stored, dense);
    return stored;
  };
  const OutputLog want = run_quant(1);
  EXPECT_EQ(run_quant(2), want);
  EXPECT_EQ(run_quant(4), want);
}

TEST_F(StackedShardTest, EmbeddingInputMapsTokensToRows) {
  // The embedding path: tokens index rows instead of one-hot columns.
  // Served output must equal a hand-stepped oracle fed embedding rows.
  build(2);
  num::Rng erng(5);
  nn::Embedding embed(/*vocab=*/kDx * 3, /*dim=*/kDx, erng);
  ServeModel m = model();
  m.embedding = &embed;
  m.vocab = embed.vocab();

  PoolConfig config;
  config.policy.max_batch = 4;
  EnginePool pool(m, config);
  EXPECT_EQ(pool.model_info().vocab, embed.vocab());
  EXPECT_EQ(pool.model_info().layers, 2);

  std::uint64_t seq = 0;
  for (const TraceEvent& e : trace_) {
    Request r;
    r.session = e.session;
    r.token = e.token;
    r.arrival_us = e.arrival_us;
    r.seq = seq++;
    pool.enqueue(r);
  }
  OutputLog stored;
  const ResponseSink sink = [&](const Response& r) {
    stored[r.session].emplace_back(r.h.begin(), r.h.end());
  };
  pool.shard(0).flush(trace_.back().arrival_us + 1, sink);

  core::StackedEngine engine(cell_ptrs_, pruner_ptrs_);
  struct State {
    std::vector<num::Matrix> h, c;
  };
  std::map<SessionId, State> states;
  OutputLog want;
  num::Matrix x;
  std::vector<num::Index> id(1);
  for (const TraceEvent& e : trace_) {
    auto [it, fresh] = states.try_emplace(e.session);
    if (fresh) {
      it->second.h.resize(2);
      it->second.c.resize(2);
      for (int l = 0; l < 2; ++l) {
        it->second.h[l].resize(1, kDh, 0.0f);
        it->second.c[l].resize(1, kDh, 0.0f);
      }
    }
    id[0] = e.token % embed.vocab();
    embed.forward(id, x);
    engine.step(x, it->second.h, it->second.c);
    const auto row = it->second.h.back().row(0);
    want[e.session].emplace_back(row.begin(), row.end());
  }
  EXPECT_EQ(stored, want);
}

}  // namespace
}  // namespace zss::serve
