#include "serve/pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "num/rng.h"
#include "serve/protocol.h"

// Serving-level crash recovery (docs/serving.md "Crash recovery"): a
// journaled pool killed at ANY byte offset of any shard's journal and
// restarted must end bit-exactly where an uninterrupted run ends, once
// resuming clients re-drive the uncommitted suffixes — the kill-
// anywhere oracle. The fuzz sweeps shard counts {1,2,4}, group-commit
// modes, checkpoint cadences and torn-tail offsets; every variant must
// converge to the same digest table as the one-shard, never-crashed
// oracle. TTL stays disabled throughout: a TTL decision depends on
// arrival gaps, which legitimately differ between an interrupted
// stream and its resumed re-drive, so durability is specified (and
// tested) for the TTL-off configuration.
namespace zss::serve {
namespace {

constexpr num::Index kVocab = 5;
constexpr SessionId kSessions = 6;
constexpr std::uint64_t kSteps = 24;

num::Index token_at(SessionId sid, std::uint64_t i) {
  return static_cast<num::Index>(num::splitmix64_mix(sid * 1000003ULL + i) %
                                 static_cast<std::uint64_t>(kVocab));
}

/// Drives requests through a pool with hand-stamped monotone arrivals
/// (the replay-style virtual clock — no threads, so a "kill" is simply
/// abandoning the pool between batch boundaries).
struct Driver {
  EnginePool& pool;
  std::int64_t now;
  std::uint64_t seq = 0;
  std::uint64_t served = 0;
  ResponseSink sink;

  explicit Driver(EnginePool& p, std::int64_t start_us = 0)
      : pool(p), now(start_us) {
    sink = [this](const Response&) { ++served; };
  }

  void step(SessionId sid, std::uint64_t i) {
    Request r;
    r.session = sid;
    r.token = token_at(sid, i);
    r.arrival_us = now += 7;
    r.seq = seq++;
    pool.enqueue(r);
  }

  void settle() { pool.flush(now, sink); }
};

PoolConfig base_config(num::Index shards) {
  PoolConfig config;
  config.shards = shards;
  config.policy.max_batch = 4;
  return config;
}

class JournalRecoveryTest : public ::testing::Test {
 protected:
  JournalRecoveryTest()
      : model_rng_(20260808),
        cell_(/*input_dim=*/kVocab, /*hidden_dim=*/12, model_rng_),
        pruner_(core::PrunerConfig::fixed(0.07f)) {}

  /// The uninterrupted oracle: one shard, no durability, every step.
  DigestTable oracle() {
    EnginePool pool(cell_, pruner_, base_config(1));
    Driver d(pool);
    for (std::uint64_t i = 0; i < kSteps; ++i) {
      for (SessionId sid = 1; sid <= kSessions; ++sid) d.step(sid, i);
      d.settle();
    }
    return pool.merged_digests();
  }

  num::Rng model_rng_;
  nn::LstmCell cell_;
  core::StatePruner pruner_;
};

void expect_tables_equal(const DigestTable& want, const DigestTable& got,
                         const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (const auto& [sid, d] : want) {
    const auto it = got.find(sid);
    ASSERT_NE(it, got.end()) << what << ": session " << sid << " missing";
    EXPECT_EQ(d.steps, it->second.steps) << what << ": session " << sid;
    EXPECT_EQ(d.digest, it->second.digest) << what << ": session " << sid;
  }
}

TEST_F(JournalRecoveryTest, KillAtAnyJournalOffsetThenResumeMatchesOracle) {
  const DigestTable want = oracle();
  num::Rng fuzz(0xC0FFEE);
  int torn_cuts = 0;

  int variant = 0;
  for (const num::Index shards :
       {num::Index{1}, num::Index{2}, num::Index{4}}) {
    for (const std::uint64_t ckpt_bytes : {std::uint64_t{1} << 20,
                                           std::uint64_t{2048}}) {
      for (int round = 0; round < 4; ++round) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " ckpt=" + std::to_string(ckpt_bytes) +
                     " round=" + std::to_string(round));
        store::MemEnv env;
        const std::string dir = "d" + std::to_string(variant++);
        PoolConfig config = base_config(shards);
        config.spill.dir = dir;
        config.spill.env = &env;
        config.spill.journal = true;
        config.spill.journal_sync = round % 2 == 0
                                        ? store::JournalSync::kBatch
                                        : store::JournalSync::kNone;
        config.spill.journal_checkpoint_bytes = ckpt_bytes;

        // Phase 1: serve a prefix of the workload, then die. The kill
        // lands between batch boundaries (the pool is simply dropped —
        // nothing is flushed or closed, exactly like SIGKILL)...
        const std::uint64_t crash_after = 2 + fuzz() % (kSteps - 2);
        {
          auto pool = std::make_unique<EnginePool>(cell_, pruner_, config);
          Driver d(*pool);
          for (std::uint64_t i = 0; i < crash_after; ++i) {
            for (SessionId sid = 1; sid <= kSessions; ++sid) d.step(sid, i);
            d.settle();
          }
          pool.reset();  // SIGKILL
        }
        // ...and then the torn tail: each shard's journal file is cut
        // at an arbitrary byte offset, as if the final writes never
        // fully reached the platter.
        for (num::Index s = 0; s < shards; ++s) {
          auto* bytes =
              env.bytes(dir + "/shard_" + std::to_string(s) + ".jnl");
          ASSERT_NE(bytes, nullptr);
          const std::uint64_t cut = fuzz() % (bytes->size() + 1);
          if (cut < bytes->size()) ++torn_cuts;
          bytes->resize(cut);
        }

        // Phase 2: restart over the same filesystem. Recovery must
        // yield a committed prefix — never invented work...
        EnginePool pool(cell_, pruner_, config);
        const DigestTable recovered = pool.merged_digests();
        for (const auto& [sid, d] : recovered) {
          const auto it = want.find(sid);
          ASSERT_NE(it, want.end()) << "recovered unknown session " << sid;
          EXPECT_LE(d.steps, it->second.steps);
        }
        // ...then resuming clients re-drive exactly the uncommitted
        // suffix of every session (what `sync`/`pos` gives a real
        // client) and the final table matches the uninterrupted run
        // bit for bit.
        Driver d(pool, pool.recovered_max_arrival_us() + 1);
        for (std::uint64_t i = 0; i < kSteps; ++i) {
          for (SessionId sid = 1; sid <= kSessions; ++sid) {
            const auto it = recovered.find(sid);
            const std::uint64_t committed =
                it == recovered.end() ? 0 : it->second.steps;
            if (i >= committed) d.step(sid, i);
          }
          d.settle();
        }
        expect_tables_equal(want, pool.merged_digests(), "after resume");
      }
    }
  }
  EXPECT_GT(torn_cuts, 0) << "fuzz never produced a torn tail — vacuous";
}

TEST_F(JournalRecoveryTest, CappedTieringPlusJournalRecoversThroughSpill) {
  // The full durability ladder at once: LRU cap spills sessions to the
  // segment tier while the journal logs the transitions. A crash +
  // restart + resume must still match the uncapped, uncrashed oracle —
  // evict/restore and create/update records composing correctly.
  const DigestTable want = oracle();

  store::MemEnv env;
  // One shard so all six sessions contend for a five-slot cap (the cap
  // is per shard; splitting six sessions across shards would never
  // trip it) — cap > max_batch so a whole batch still fits.
  PoolConfig config = base_config(1);
  config.session_ttl.max_sessions = 5;
  config.spill.dir = "capped";
  config.spill.env = &env;
  config.spill.journal = true;

  {
    auto pool = std::make_unique<EnginePool>(cell_, pruner_, config);
    Driver d(*pool);
    for (std::uint64_t i = 0; i < kSteps / 2; ++i) {
      for (SessionId sid = 1; sid <= kSessions; ++sid) d.step(sid, i);
      d.settle();
    }
    pool.reset();  // SIGKILL at a batch boundary
  }

  EnginePool pool(cell_, pruner_, config);
  const DigestTable recovered = pool.merged_digests();
  Driver d(pool, pool.recovered_max_arrival_us() + 1);
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    for (SessionId sid = 1; sid <= kSessions; ++sid) {
      const auto it = recovered.find(sid);
      const std::uint64_t committed =
          it == recovered.end() ? 0 : it->second.steps;
      if (i >= committed) d.step(sid, i);
    }
    d.settle();
  }
  expect_tables_equal(want, pool.merged_digests(), "capped resume");

  std::uint64_t spilled = 0;
  for (num::Index s = 0; s < pool.num_shards(); ++s) {
    spilled += pool.shard(s).sessions().spilled();
  }
  EXPECT_GT(spilled, 0u) << "cap never engaged — the ladder went untested";
}

TEST_F(JournalRecoveryTest, RebuildShardRecoversExactlyItsOwnSessions) {
  // The supervisor's repair primitive, exercised without threads: after
  // serving, rebuild one shard in place and expect its journal to hand
  // back exactly the sessions and digests the shard had committed,
  // while the other shard's slot is untouched.
  store::MemEnv env;
  PoolConfig config = base_config(2);
  config.spill.dir = "rb";
  config.spill.env = &env;
  config.spill.journal = true;

  EnginePool pool(cell_, pruner_, config);
  Driver d(pool);
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    for (SessionId sid = 1; sid <= kSessions; ++sid) d.step(sid, i);
    d.settle();
  }
  const DigestTable before = pool.merged_digests();

  pool.rebuild_shard(0);
  pool.rebuild_shard(1);
  expect_tables_equal(before, pool.merged_digests(), "after rebuild");

  // The rebuilt shards keep serving and the recurrence continues from
  // the recovered state, not from zero.
  const DigestTable want = [&] {
    EnginePool fresh(cell_, pruner_, base_config(1));
    Driver fd(fresh);
    for (std::uint64_t i = 0; i < kSteps + 4; ++i) {
      for (SessionId sid = 1; sid <= kSessions; ++sid) fd.step(sid, i);
      fd.settle();
    }
    return fresh.merged_digests();
  }();
  Driver d2(pool, pool.recovered_max_arrival_us() + 1);
  d2.seq = d.seq;
  for (std::uint64_t i = kSteps; i < kSteps + 4; ++i) {
    for (SessionId sid = 1; sid <= kSessions; ++sid) d2.step(sid, i);
    d2.settle();
  }
  expect_tables_equal(want, pool.merged_digests(), "served after rebuild");
}

}  // namespace
}  // namespace zss::serve
