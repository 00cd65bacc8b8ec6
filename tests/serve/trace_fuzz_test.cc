#include "serve/trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "num/rng.h"
#include "serve/protocol.h"
#include "store/io.h"
#include "../store/faulty_env.h"

// Randomized hardening of the serving determinism guarantee and the
// trace parser:
//   * ~50 seeded random traces (varying session counts, lengths and
//     interleavings), each replayed across shard counts {1,2,4},
//     max_batch {1,4,8} and sequential-vs-parallel drain — per-session
//     digests must be identical everywhere.
//   * Byte-level mutations of valid trace text fed through
//     serve::parse_trace / load_trace_file — every mutation must either
//     parse to a sane event list or be cleanly rejected with an error
//     message; crashing or silently mis-parsing is the failure mode
//     this fuzzer exists to catch.
// ZSS_SOAK=1 scales both fuzzers up (the ctest `soak` label).
namespace zss::serve {
namespace {

bool soak() { return std::getenv("ZSS_SOAK") != nullptr; }

struct SessionDigest {
  std::uint64_t steps = 0;
  std::uint64_t digest = kFnvOffset;
};
using DigestTable = std::map<SessionId, SessionDigest>;

void fold(DigestTable& table, const Response& r) {
  SessionDigest& d = table[r.session];
  d.digest = fnv1a(d.digest, r.h.data(), r.h.size_bytes());
  ++d.steps;
}

/// One deterministic replay of `events`; `parallel` drains via one
/// thread per shard instead of the virtual clock (closed loop).
DigestTable run(const nn::LstmCell& cell, const core::StatePruner& pruner,
                const std::vector<TraceEvent>& events, num::Index shards,
                num::Index max_batch, bool parallel,
                SessionTtl ttl = {}) {
  PoolConfig config;
  config.shards = shards;
  config.policy.max_batch = max_batch;
  config.session_ttl = ttl;
  EnginePool pool(cell, pruner, config);
  if (!parallel) {
    DigestTable table;
    const ResponseSink sink = [&](const Response& r) { fold(table, r); };
    replay(pool, events, sink);
    return table;
  }
  std::uint64_t seq = 0;
  for (const TraceEvent& e : events) {
    Request r;
    r.session = e.session;
    r.token = e.token;
    r.arrival_us = e.arrival_us;
    r.seq = seq++;
    pool.enqueue(r);
  }
  // One digest table per shard thread; sessions are shard-pinned, so
  // merging after the join is collision-free.
  std::vector<DigestTable> tables(static_cast<std::size_t>(shards));
  std::vector<ResponseSink> sinks;
  for (num::Index s = 0; s < shards; ++s) {
    DigestTable& table = tables[static_cast<std::size_t>(s)];
    sinks.emplace_back([&table](const Response& r) { fold(table, r); });
  }
  const std::int64_t end =
      events.empty() ? 0 : events.back().arrival_us + 1'000'000;
  pool.drain_parallel(end, sinks);
  DigestTable merged;
  for (const DigestTable& t : tables) {
    for (const auto& [sid, d] : t) {
      EXPECT_EQ(merged.count(sid), 0u) << "session split across shards";
      merged[sid] = d;
    }
  }
  return merged;
}

TEST(TraceFuzzTest, DigestsIdenticalAcrossShardsBatchesAndDrainModes) {
  const int kTraces = soak() ? 200 : 50;
  num::Rng model_rng(20260729);
  const nn::LstmCell cell(/*input_dim=*/5, /*hidden_dim=*/12, model_rng);
  const core::StatePruner pruner(core::PrunerConfig::fixed(0.07f));

  for (int t = 0; t < kTraces; ++t) {
    num::Rng rng(static_cast<std::uint64_t>(t) * 7919 + 1);
    const auto sessions = static_cast<num::Index>(1 + rng.below(12));
    const auto requests = static_cast<num::Index>(20 + rng.below(100));
    const auto gap = static_cast<std::int64_t>(rng.below(250));
    auto events = synthetic_trace(requests, sessions, cell.input_dim(),
                                  gap, rng);
    // Inject bursts of back-to-back same-session arrivals so conflict
    // splits and re-queue ordering run on most traces.
    if (!events.empty() && t % 2 == 0) {
      for (int k = 0; k < 3; ++k) {
        TraceEvent e = events.back();
        e.token = static_cast<num::Index>(k) % cell.input_dim();
        events.push_back(e);
      }
    }

    const DigestTable reference =
        run(cell, pruner, events, /*shards=*/1, /*max_batch=*/1,
            /*parallel=*/false);
    ASSERT_EQ(reference.size(),
              static_cast<std::size_t>(
                  [&] {
                    std::map<SessionId, int> ids;
                    for (const auto& e : events) ids[e.session] = 1;
                    return ids.size();
                  }()))
        << "trace " << t;

    for (const num::Index shards : {num::Index{1}, num::Index{2},
                                    num::Index{4}}) {
      for (const num::Index mb :
           {num::Index{1}, num::Index{4}, num::Index{8}}) {
        const DigestTable got = run(cell, pruner, events, shards, mb,
                                    /*parallel=*/false);
        ASSERT_EQ(got.size(), reference.size()) << "trace " << t;
        for (const auto& [sid, d] : reference) {
          const auto it = got.find(sid);
          ASSERT_NE(it, got.end()) << "trace " << t << " session " << sid;
          EXPECT_EQ(it->second.digest, d.digest)
              << "trace " << t << " shards=" << shards << " mb=" << mb
              << " session " << sid;
          EXPECT_EQ(it->second.steps, d.steps);
        }
      }
    }

    // Sequential vs parallel drain at 4 shards (same grouping freedom,
    // different thread count — must not change one bit).
    const DigestTable par = run(cell, pruner, events, /*shards=*/4,
                                /*max_batch=*/8, /*parallel=*/true);
    // Grouping differs between the virtual-clock replay and the closed
    // loop, so compare parallel against its own sequential flush shape:
    // both are pure flushes of the same per-shard FIFO.
    PoolConfig config;
    config.shards = 4;
    config.policy.max_batch = 8;
    EnginePool pool(cell, pruner, config);
    std::uint64_t seqno = 0;
    for (const TraceEvent& e : events) {
      Request r;
      r.session = e.session;
      r.token = e.token;
      r.arrival_us = e.arrival_us;
      r.seq = seqno++;
      pool.enqueue(r);
    }
    DigestTable seq_flush;
    const ResponseSink sink = [&](const Response& r) { fold(seq_flush, r); };
    pool.flush(0, sink);
    EXPECT_EQ(par.size(), seq_flush.size()) << "trace " << t;
    for (const auto& [sid, d] : seq_flush) {
      ASSERT_TRUE(par.count(sid)) << "trace " << t;
      EXPECT_EQ(par.at(sid).digest, d.digest)
          << "trace " << t << " parallel-vs-sequential drain, session "
          << sid;
    }
    // And values are the batching-independent ones.
    for (const auto& [sid, d] : reference) {
      EXPECT_EQ(seq_flush.at(sid).digest, d.digest) << "trace " << t;
    }
  }
}

TEST(TraceFuzzTest, TtlResetsAreShardCountIndependent) {
  // Lazy TTL is decided per session from its own arrival gaps, so it
  // must be exactly as shard-count-invariant as the base guarantee.
  // (The LRU cap is per shard and deliberately not part of this claim —
  // docs/serving.md "Live mode".)
  const int kTraces = soak() ? 40 : 10;
  num::Rng model_rng(5551212);
  const nn::LstmCell cell(/*input_dim=*/4, /*hidden_dim=*/10, model_rng);
  const core::StatePruner pruner(core::PrunerConfig::fixed(0.07f));
  SessionTtl ttl;
  ttl.ttl_us = 400;  // of the order of the synthetic gaps: resets happen

  for (int t = 0; t < kTraces; ++t) {
    num::Rng rng(static_cast<std::uint64_t>(t) * 104729 + 3);
    const auto events = synthetic_trace(
        /*requests=*/static_cast<num::Index>(30 + rng.below(60)),
        /*sessions=*/static_cast<num::Index>(1 + rng.below(6)),
        cell.input_dim(), /*mean_gap_us=*/200, rng);
    const DigestTable one = run(cell, pruner, events, 1, 8, false, ttl);
    const DigestTable four = run(cell, pruner, events, 4, 8, false, ttl);
    ASSERT_EQ(one.size(), four.size()) << "trace " << t;
    for (const auto& [sid, d] : one) {
      EXPECT_EQ(four.at(sid).digest, d.digest)
          << "trace " << t << " session " << sid;
    }
    // The no-TTL digests must differ on at least some traces, or the
    // TTL never fired and this test is vacuous; checked in aggregate.
  }
}

TEST(TraceFuzzTest, EvictionIsBatchGroupingIndependent) {
  // With the LRU cap AND the TTL both active, per-session digests must
  // be identical at a fixed shard count regardless of max_batch and of
  // sequential-vs-parallel drain: batch grouping (and therefore sweep
  // timing) differs between live serving and virtual-clock replay, so
  // any grouping-dependence in the cap's count or victim choice is a
  // record/replay determinism break. (Shard count is pinned per
  // comparison — the cap is per shard and deliberately not
  // shard-count-invariant.)
  const int kTraces = soak() ? 40 : 12;
  num::Rng model_rng(909090);
  const nn::LstmCell cell(/*input_dim=*/4, /*hidden_dim=*/10, model_rng);
  const core::StatePruner pruner(core::PrunerConfig::fixed(0.07f));
  SessionTtl ttl;
  ttl.ttl_us = 400;       // fires against the ~200us synthetic gaps
  ttl.max_sessions = 9;   // must exceed the largest max_batch below

  std::uint64_t evictions = 0;
  for (int t = 0; t < kTraces; ++t) {
    num::Rng rng(static_cast<std::uint64_t>(t) * 52361 + 17);
    const auto events = synthetic_trace(
        /*requests=*/static_cast<num::Index>(80 + rng.below(120)),
        /*sessions=*/static_cast<num::Index>(12 + rng.below(8)),
        cell.input_dim(), /*mean_gap_us=*/200, rng);
    for (const num::Index shards : {num::Index{1}, num::Index{2}}) {
      const DigestTable reference =
          run(cell, pruner, events, shards, /*max_batch=*/1,
              /*parallel=*/false, ttl);
      for (const num::Index mb : {num::Index{4}, num::Index{8}}) {
        const DigestTable got =
            run(cell, pruner, events, shards, mb, /*parallel=*/false, ttl);
        ASSERT_EQ(got.size(), reference.size()) << "trace " << t;
        for (const auto& [sid, d] : reference) {
          EXPECT_EQ(got.at(sid).digest, d.digest)
              << "trace " << t << " shards=" << shards << " mb=" << mb
              << " session " << sid
              << ": eviction depends on batch grouping";
        }
      }
      const DigestTable par = run(cell, pruner, events, shards,
                                  /*max_batch=*/8, /*parallel=*/true, ttl);
      for (const auto& [sid, d] : reference) {
        EXPECT_EQ(par.at(sid).digest, d.digest)
            << "trace " << t << " shards=" << shards
            << " parallel drain, session " << sid;
      }
    }
    // Vacuity guard: the knobs must actually exercise the cap.
    PoolConfig config;
    config.shards = 1;
    config.policy.max_batch = 8;
    config.session_ttl = ttl;
    EnginePool pool(cell, pruner, config);
    const ResponseSink sink = [](const Response&) {};
    replay(pool, events, sink);
    evictions += pool.shard(0).sessions().evicted();
  }
  EXPECT_GT(evictions, 0u) << "cap knobs too loose: the grouping "
                              "invariance above never exercised an "
                              "eviction";
}

TEST(TraceFuzzTest, TtlActuallyFiresInTheFuzzTraces) {
  // Companion vacuity check for the test above: with the same knobs,
  // at least one trace must actually reset a session.
  num::Rng model_rng(5551212);
  const nn::LstmCell cell(4, 10, model_rng);
  const core::StatePruner pruner(core::PrunerConfig::fixed(0.07f));
  SessionTtl ttl;
  ttl.ttl_us = 400;
  std::uint64_t resets = 0;
  for (int t = 0; t < 10; ++t) {
    num::Rng rng(static_cast<std::uint64_t>(t) * 104729 + 3);
    const auto events = synthetic_trace(
        static_cast<num::Index>(30 + rng.below(60)),
        static_cast<num::Index>(1 + rng.below(6)), cell.input_dim(), 200,
        rng);
    PoolConfig config;
    config.shards = 2;
    config.session_ttl = ttl;
    EnginePool pool(cell, pruner, config);
    const ResponseSink sink = [](const Response&) {};
    replay(pool, events, sink);
    for (num::Index s = 0; s < pool.num_shards(); ++s) {
      resets += pool.shard(s).sessions().ttl_resets();
    }
  }
  EXPECT_GT(resets, 0u) << "TTL knobs too loose: the invariance test "
                           "above never exercised a reset";
}

TEST(TraceFuzzTest, SpillTierFaultSeedsNeverCrashOrLoseResponses) {
  // Seeded random traces served through a capped pool whose spill tier
  // runs on a misbehaving medium: random sync failures armed at open,
  // random bit rot injected into the segment files mid-trace. Whatever
  // the tier does under that abuse — restore, degrade to RAM-only,
  // fall back to fresh state on a bad CRC — serving must answer every
  // request and never crash; that is the graceful-degradation contract
  // (docs/store.md). Output values under injected corruption are
  // legitimately NOT oracle-identical; the no-fault identity is pinned
  // by spill_tiering_test.cc.
  const int kSeeds = soak() ? 60 : 15;
  num::Rng model_rng(77007);
  const nn::LstmCell cell(/*input_dim=*/4, /*hidden_dim=*/10, model_rng);
  const core::StatePruner pruner(core::PrunerConfig::fixed(0.07f));

  std::uint64_t corrupt_total = 0, degraded_shards = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    num::Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 11);
    auto events = synthetic_trace(
        /*requests=*/static_cast<num::Index>(120 + rng.below(120)),
        /*sessions=*/static_cast<num::Index>(14 + rng.below(10)),
        cell.input_dim(), /*mean_gap_us=*/150, rng);

    store::MemEnv mem;
    store::FaultInjectingEnv fenv(mem);
    fenv.on_open = [&](const std::string&, store::FaultyFile& f) {
      if (rng.bernoulli(0.3)) {
        f.fail_syncs(static_cast<int>(1 + rng.below(4)));
      }
    };

    PoolConfig config;
    config.shards = 2;
    config.policy.max_batch = 4;
    config.session_ttl.ttl_us = rng.bernoulli(0.5) ? 600 : -1;
    config.session_ttl.max_sessions = 6;
    config.spill.dir = "fz";
    config.spill.env = &fenv;
    config.spill.encoded = rng.bernoulli(0.5);
    EnginePool pool(cell, pruner, config);

    std::uint64_t responses = 0;
    const ResponseSink sink = [&](const Response&) { ++responses; };

    // First half, then bit rot in whatever the tier has written so
    // far, then the rest — restores after the flip hit damaged bytes.
    const std::size_t half = events.size() / 2;
    std::vector<TraceEvent> first(events.begin(),
                                  events.begin() +
                                      static_cast<std::ptrdiff_t>(half));
    std::vector<TraceEvent> second(events.begin() +
                                       static_cast<std::ptrdiff_t>(half),
                                   events.end());
    replay(pool, first, sink);
    for (const char* name : {"fz/shard_0.seg", "fz/shard_1.seg"}) {
      std::vector<std::uint8_t>* bytes = mem.bytes(name);
      if (bytes == nullptr || bytes->size() <= 20) continue;
      // Several flips past the 16-byte file header: live restores
      // re-verify each record's CRC, so any flip under a record that
      // is later restored must surface as kCorrupt, never bad bits.
      for (int k = 0; k < 8; ++k) {
        const auto off = static_cast<std::size_t>(
            16 + rng.below(static_cast<num::Index>(bytes->size() - 16)));
        (*bytes)[off] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      }
    }
    replay(pool, second, sink);

    EXPECT_EQ(responses, events.size()) << "seed " << seed;
    for (num::Index s = 0; s < pool.num_shards(); ++s) {
      corrupt_total += pool.shard(s).sessions().restore_corrupt();
      if (!pool.shard(s).sessions().spill_active()) ++degraded_shards;
    }
  }
  // Vacuity guards: across the seed set, the corruption path and the
  // write-error degradation path must both actually have fired.
  EXPECT_GT(corrupt_total, 0u) << "bit rot never hit a live restore";
  EXPECT_GT(degraded_shards, 0u) << "sync faults never degraded a shard";
}

// ---------------------------------------------------------------------
// Parser fuzz: mutated trace bytes must parse sanely or fail cleanly.

std::string valid_trace_text(num::Rng& rng) {
  const auto events = synthetic_trace(
      /*requests=*/static_cast<num::Index>(5 + rng.below(20)),
      /*sessions=*/4, /*vocab=*/9, /*mean_gap_us=*/100, rng);
  std::ostringstream out;
  write_trace(out, events);
  return out.str();
}

void check_parse_is_sane(const std::string& text) {
  std::istringstream in(text);
  std::vector<TraceEvent> events;
  std::string error;
  const bool ok = parse_trace(in, events, &error);
  if (!ok) {
    EXPECT_FALSE(error.empty()) << "rejection must say why";
    return;
  }
  // Accepted: the invariants replay depends on must actually hold.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].arrival_us, 0);
    EXPECT_GE(events[i].token, 0);
    if (i > 0) {
      EXPECT_GE(events[i].arrival_us, events[i - 1].arrival_us)
          << "parser accepted an unsorted trace";
    }
  }
}

TEST(TraceFuzzTest, MutatedTraceBytesNeverCrashTheParser) {
  const int kMutations = soak() ? 5000 : 600;
  num::Rng rng(0xfeedface);
  const std::string pool_chars = "0123456789 \t-#ex.\nq";
  for (int m = 0; m < kMutations; ++m) {
    std::string text = valid_trace_text(rng);
    // 1-4 random byte-level edits: truncate, insert, overwrite, or
    // delete a newline (the classic merged-events corruption).
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.below(static_cast<num::Index>(text.size())));
      switch (rng.below(4)) {
        case 0:
          text.resize(pos);  // truncate mid-anything
          break;
        case 1:
          text.insert(pos, 1,
                      pool_chars[static_cast<std::size_t>(rng.below(
                          static_cast<num::Index>(pool_chars.size())))]);
          break;
        case 2:
          text[pos] = pool_chars[static_cast<std::size_t>(rng.below(
              static_cast<num::Index>(pool_chars.size())))];
          break;
        default:
          if (const auto nl = text.find('\n', pos); nl != std::string::npos) {
            text.erase(nl, 1);
          }
          break;
      }
    }
    check_parse_is_sane(text);
  }
}

TEST(TraceFuzzTest, MalformedCorpusIsRejectedWithReasons) {
  const char* kBad[] = {
      "100 1",                                   // missing field
      "100 1 2 3",                               // trailing field
      "abc 1 2",                                 // non-numeric arrival
      "100 xyz 2",                               // non-numeric session
      "100 1 -3",                                // negative token
      "-100 1 2",                                // negative arrival
      "100 -7 2",                                // negative session (would
                                                 // wrap mod 2^64 via >>)
      "100 +7 2",                                // signed session
      "+100 7 2",                                // signed arrival
      "100 7 +2",                                // signed token
      "100 18446744073709551616 2",              // session overflow (2^64)
      "100 1 2\n50 1 2",                         // unsorted
      "1200 7 42 1300 8 5",                      // merged events
      "99999999999999999999999999999999 1 2",    // arrival overflow
      "100 1 99999999999999999999999999999999",  // token overflow
  };
  for (const char* text : kBad) {
    std::istringstream in(text);
    std::vector<TraceEvent> events;
    std::string error;
    EXPECT_FALSE(parse_trace(in, events, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  // load_trace_file: a missing file is an error message, not a crash.
  std::vector<TraceEvent> events;
  std::string error;
  EXPECT_FALSE(load_trace_file("/nonexistent/zss_trace.txt", events, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace zss::serve
