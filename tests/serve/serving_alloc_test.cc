#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "num/rng.h"
#include "serve/shard.h"

// Global operator new instrumented exactly like
// tests/core/sparse_inference_test.cc: counting every allocation in the
// binary lets the test hold the *whole shard hot loop* — batcher ring,
// session lookups, staging gather/scatter, engine step, response
// delivery — to the zero-allocation-once-warm contract.
namespace {
std::size_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace zss::serve {
namespace {

TEST(ServingAllocTest, ShardHotLoopIsAllocationFreeOnceWarm) {
  num::Rng rng(7);
  nn::LstmCell cell(/*input_dim=*/6, /*hidden_dim=*/24, rng);
  core::StatePruner pruner(core::PrunerConfig::fixed(0.08f));
  BatchPolicy policy;
  policy.max_batch = 4;
  EngineShard shard(cell, pruner, policy);

  num::Index responses = 0;
  const ResponseSink sink = [&responses](const Response& r) {
    responses += r.h.empty() ? 0 : 1;  // touch the payload, keep nothing
  };

  const num::Index kSessions = 6;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  auto run_round = [&](num::Index round) {
    // Four distinct sessions per round, rotating through all six so
    // every session exists and the batched path (B=4) runs.
    for (num::Index k = 0; k < 4; ++k) {
      Request r;
      r.session = static_cast<SessionId>((round + k) % kSessions) + 1;
      r.token = (round + k) % cell.input_dim();
      r.arrival_us = now;
      r.seq = seq++;
      shard.enqueue(r);
    }
    while (shard.process_ready(now, sink) > 0) {
    }
    now += 150;
    // Sometimes serve a lone request through the batch-of-one fast
    // path.
    if (round % 3 == 0) {
      Request r;
      r.session = static_cast<SessionId>(round % kSessions) + 1;
      r.token = 0;
      r.arrival_us = now;
      r.seq = seq++;
      shard.enqueue(r);
      now += 100;
      while (shard.process_ready(now, sink) > 0) {
      }
    }
  };

  for (num::Index round = 0; round < 8; ++round) run_round(round);  // warm up
  shard.flush(now, sink);
  ASSERT_GT(responses, 0);

  const std::size_t heap_warm = g_alloc_count;
  const std::size_t ws_warm = shard.engine().workspace().allocation_count();
  for (num::Index round = 0; round < 50; ++round) run_round(round);
  shard.flush(now, sink);
  EXPECT_EQ(g_alloc_count, heap_warm)
      << "the serving hot loop allocated after warm-up";
  EXPECT_EQ(shard.engine().workspace().allocation_count(), ws_warm);
  EXPECT_EQ(shard.pending(), 0);
}

TEST(ServingAllocTest, EpochStatsResetIsDocumentedAndWorks) {
  // The InferenceStats-accumulates-forever pitfall: a shard's
  // reset_stats() must clear both its own counters and the engine's
  // cumulative stats, so per-epoch measurements never bleed together.
  num::Rng rng(11);
  nn::LstmCell cell(4, 12, rng);
  core::StatePruner pruner(core::PrunerConfig::fixed(0.05f));
  BatchPolicy policy;
  policy.max_batch = 2;
  EngineShard shard(cell, pruner, policy);
  const ResponseSink sink = [](const Response&) {};

  for (int i = 0; i < 4; ++i) {
    Request r;
    r.session = static_cast<SessionId>(i % 2) + 1;
    r.token = i % 4;
    r.seq = static_cast<std::uint64_t>(i);
    shard.enqueue(r);
  }
  shard.flush(0, sink);
  ASSERT_GT(shard.stats().requests, 0);
  ASSERT_GT(shard.engine().stats().steps, 0);

  shard.reset_stats();
  EXPECT_EQ(shard.stats().requests, 0);
  EXPECT_EQ(shard.stats().batches, 0);
  EXPECT_EQ(shard.engine().stats().steps, 0)
      << "engine epoch must reset with the shard";
  // The per-step snapshot intentionally survives: it describes the last
  // step, not an epoch.
  EXPECT_GT(shard.engine().last_step_stats().batch, 0);
}

}  // namespace
}  // namespace zss::serve
