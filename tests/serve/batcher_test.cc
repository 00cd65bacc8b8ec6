#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <vector>

// The batcher is clock-free and work-conserving: a batch is the longest
// conflict-free FIFO prefix of what is pending, capped at max_batch,
// and nothing ever waits for batch-mates. These tests assert batch
// boundaries exactly.
namespace zss::serve {
namespace {

Request req(SessionId session, std::int64_t arrival_us,
            std::uint64_t seq = 0) {
  Request r;
  r.session = session;
  r.token = 0;
  r.arrival_us = arrival_us;
  r.seq = seq;
  return r;
}

TEST(RequestBatcherTest, BatchClosesAtMaxBatch) {
  BatchPolicy policy;
  policy.max_batch = 4;
  RequestBatcher b(policy);

  for (SessionId s = 1; s <= 5; ++s) b.enqueue(req(s, /*arrival=*/0));

  std::vector<Request> out;
  EXPECT_EQ(b.pop_batch(out), 4) << "a batch never exceeds max_batch";
  EXPECT_EQ(b.pending(), 1);
  // FIFO order preserved.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].session, static_cast<SessionId>(i + 1));
  }
  EXPECT_EQ(b.pop_batch(out), 1);
  EXPECT_EQ(out[0].session, 5u);
  EXPECT_EQ(b.pending(), 0);
  EXPECT_EQ(b.pop_batch(out), 0) << "nothing pending, no batch";
}

TEST(RequestBatcherTest, PartialBatchIsServedWithoutWaiting) {
  // max_wait_us is ignored: a lone request, or a partial batch with
  // room to grow, is a whole batch the moment it is popped — even with
  // an hour of max-wait configured.
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_wait_us = 3'600'000'000LL;
  RequestBatcher b(policy);

  std::vector<Request> out;
  b.enqueue(req(1, /*arrival=*/100));
  EXPECT_EQ(b.pop_batch(out), 1);
  EXPECT_EQ(out[0].arrival_us, 100);

  b.enqueue(req(2, 200));
  b.enqueue(req(3, 250));
  EXPECT_EQ(b.pop_batch(out), 2) << "all of what is pending, no more";
  EXPECT_EQ(b.pending(), 0);
}

TEST(RequestBatcherTest, SameSessionNeverSharesABatch) {
  BatchPolicy policy;
  policy.max_batch = 8;
  RequestBatcher b(policy);

  // Session 7's second token must see the state its first produced, so
  // the batch stops at the duplicate.
  b.enqueue(req(1, 0, 0));
  b.enqueue(req(7, 0, 1));
  b.enqueue(req(7, 0, 2));
  b.enqueue(req(2, 0, 3));

  std::vector<Request> out;
  EXPECT_EQ(b.pop_batch(out), 2);
  EXPECT_EQ(out[0].session, 1u);
  EXPECT_EQ(out[1].session, 7u);
  // The remainder — 7's second token, then session 2 — has no internal
  // conflict anymore, so it is the next batch.
  EXPECT_EQ(b.pop_batch(out), 2);
  EXPECT_EQ(out[0].session, 7u);
  EXPECT_EQ(out[0].seq, 2u);
  EXPECT_EQ(out[1].session, 2u);
}

// The batch-intersection cap (max_kept_fraction + lane-sparsity EWMA
// feedback) was retired when the engine gained the per-lane batched
// skip path: effectual work now scales with each lane's own sparsity,
// so there is no intersected-kept fraction left to budget. The batcher
// closes batches on max_batch / session conflicts only.

// --- Wraparound edge regressions -------------------------------------
// Every head_/count_ transition: growth triggered exactly at capacity,
// pop landing head_ exactly on the wrap point, and a direct reserve()
// while the ring is wrapped. Each case below pins one of them.

TEST(RequestBatcherTest, BatchClosingExactlyAtRingCapacity) {
  // The ring starts at capacity 64; filling it exactly (count_ ==
  // ring size) and popping everything in one batch leaves head_ on
  // the wrap point — the next enqueue/pop cycle must still be FIFO
  // and must not have grown the ring.
  BatchPolicy policy;
  policy.max_batch = 64;
  RequestBatcher b(policy);

  for (std::uint64_t i = 0; i < 64; ++i) {
    b.enqueue(req(/*session=*/100 + i, 0, i));
  }
  EXPECT_EQ(b.pending(), 64);
  std::vector<Request> out;
  EXPECT_EQ(b.pop_batch(out), 64);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(out[i].seq, i);

  // head_ is now 64 % 64 == 0 again; a second lap must behave as the
  // first (this is the "closed exactly at capacity" wrap edge).
  for (std::uint64_t i = 0; i < 64; ++i) {
    b.enqueue(req(/*session=*/200 + i, 0, 64 + i));
  }
  EXPECT_EQ(b.pop_batch(out), 64);
  for (std::uint64_t i = 0; i < 64; ++i) EXPECT_EQ(out[i].seq, 64 + i);
}

TEST(RequestBatcherTest, GrowthTriggeredWithWrappedHeadPreservesFifo) {
  // Park head_ mid-ring, fill to exact capacity so the *next* enqueue
  // grows a wrapped ring: the relocation must preserve FIFO order.
  BatchPolicy policy;
  policy.max_batch = 16;
  RequestBatcher b(policy);

  std::uint64_t next = 0;
  std::vector<Request> out;
  for (std::uint64_t i = 0; i < 16; ++i) b.enqueue(req(1000 + next, 0, next)), ++next;
  EXPECT_EQ(b.pop_batch(out), 16);  // head_ = 16, ring wrapped region live
  for (std::uint64_t i = 0; i < 64; ++i) b.enqueue(req(1000 + next, 0, next)), ++next;
  EXPECT_EQ(b.pending(), 64) << "exactly at capacity";
  b.enqueue(req(1000 + next, 0, next));  // forces the grow-while-wrapped copy
  ++next;

  std::uint64_t expect = 16;
  while (b.pop_batch(out) > 0) {
    for (const Request& r : out) EXPECT_EQ(r.seq, expect++) << "FIFO broken";
  }
  EXPECT_EQ(expect, next) << "every request survived the relocation";
}

TEST(RequestBatcherTest, ExplicitReserveWhileWrappedPreservesFifo) {
  BatchPolicy policy;
  policy.max_batch = 8;
  RequestBatcher b(policy);

  std::uint64_t next = 0;
  std::vector<Request> out;
  for (int i = 0; i < 60; ++i) b.enqueue(req(1000 + next, 0, next)), ++next;
  EXPECT_EQ(b.pop_batch(out), 8);  // head_ = 8
  for (int i = 0; i < 10; ++i) b.enqueue(req(1000 + next, 0, next)), ++next;  // wraps

  b.reserve(256);  // linearizes the wrapped contents into a fresh ring
  std::uint64_t expect = 8;
  while (b.pop_batch(out) > 0) {
    for (const Request& r : out) EXPECT_EQ(r.seq, expect++);
  }
  EXPECT_EQ(expect, next);

  // Shrinking reserve() is documented as a no-op, never data loss.
  b.enqueue(req(1, 0, next));
  b.reserve(1);
  EXPECT_EQ(b.pending(), 1);
  EXPECT_EQ(b.pop_batch(out), 1);
  EXPECT_EQ(out[0].seq, next);
}

TEST(RequestBatcherTest, ConflictRequeueOrderingSurvivesWrap) {
  // A conflict-split batch leaves the duplicate at the head; when that
  // happens repeatedly across the wrap point, the remainder must stay
  // in exact arrival order (this is the re-queue ordering the
  // per-session guarantee leans on).
  BatchPolicy policy;
  policy.max_batch = 4;
  RequestBatcher b(policy);

  std::uint64_t next = 0;
  std::vector<Request> out;
  std::vector<std::uint64_t> served;
  for (int round = 0; round < 100; ++round) {
    // Pattern per round: A B B A — two conflicts per pop cycle.
    const SessionId a = 1, bb = 2;
    b.enqueue(req(a, 0, next++));
    b.enqueue(req(bb, 0, next++));
    b.enqueue(req(bb, 0, next++));
    b.enqueue(req(a, 0, next++));
    while (b.pending() > 2 || (round == 99 && b.pending() > 0)) {
      const num::Index n = b.pop_batch(out);
      ASSERT_GE(n, 1);
      for (const Request& r : out) served.push_back(r.seq);
    }
  }
  while (b.pop_batch(out) > 0) {
    for (const Request& r : out) served.push_back(r.seq);
  }
  ASSERT_EQ(served.size(), static_cast<std::size_t>(next));
  for (std::uint64_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i], i) << "global FIFO broke at a conflict re-queue";
  }
}

TEST(RequestBatcherTest, RingSurvivesGrowthAndWrapAround) {
  BatchPolicy policy;
  policy.max_batch = 3;
  RequestBatcher b(policy);

  // Interleave enqueue/pop far past the initial ring capacity so the
  // head wraps and the ring grows while partially full.
  std::vector<Request> out;
  std::uint64_t next = 0, expect = 0;
  for (int round = 0; round < 200; ++round) {
    for (int k = 0; k < 5; ++k) {
      b.enqueue(req(/*session=*/1000 + next, 0, next));
      ++next;
    }
    const num::Index n = b.pop_batch(out);
    ASSERT_GE(n, 1);
    for (num::Index i = 0; i < n; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)].seq, expect++) << "FIFO broken";
    }
  }
  while (b.pop_batch(out) > 0) {
    for (const Request& r : out) EXPECT_EQ(r.seq, expect++);
  }
  EXPECT_EQ(expect, next) << "every request served exactly once";
}

}  // namespace
}  // namespace zss::serve
