#include "serve/frontend.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "num/rng.h"
#include "serve/client.h"
#include "serve/trace.h"

// Seeded connect/disconnect storms against the epoll front end: clients
// arriving over UNIX and TCP, pipelining bursts with frames split at
// random byte offsets, reconnecting mid-stream, half-closing, and
// dropping dead without reading what they are owed. Two oracles:
//
//  * Routing/loss, client-side: every client owns a disjoint session
//    range, so any "ok" for a foreign session is a misrouted delivery;
//    clients that close politely (clean and half-open) account for
//    every line they sent — ok + err == sent, exactly. (Rude droppers
//    get no such promise: once a response write hits their dead socket
//    the connection is dropped and its unread input discarded.)
//
//  * Values, server-side: the recorded trace of the whole storm must
//    replay — virtual clock, fresh pool — to the exact digest table
//    the live run folded, at shard counts {1, 2, 4}. Whatever chaos
//    the connection layer absorbed, the computation is untouched.
//
// ZSS_SOAK=1 scales the storm up (the ctest `soak` label).
namespace zss::serve {
namespace {

bool soak() { return std::getenv("ZSS_SOAK") != nullptr; }

struct ClientTally {
  std::uint64_t sent = 0;      // step lines written (polite modes only)
  std::uint64_t oks = 0;       // responses received
  std::uint64_t errs = 0;      // sheds received
  std::uint64_t misrouted = 0; // oks for sessions this client never owned
  std::uint64_t orphaned = 0;  // polite client: sent - (oks + errs)
};

/// Writes `blob` in random-length chunks (1..40 bytes) so frame
/// boundaries land at arbitrary offsets, with occasional yields to let
/// the server observe genuinely partial lines.
void send_chopped(int fd, const std::string& blob, std::mt19937_64& rng) {
  std::size_t off = 0;
  while (off < blob.size()) {
    const std::size_t chunk = std::min<std::size_t>(
        blob.size() - off, 1 + static_cast<std::size_t>(rng() % 40));
    if (::send(fd, blob.data() + off, chunk, MSG_NOSIGNAL) < 0) return;
    off += chunk;
    if (rng() % 4 == 0) std::this_thread::yield();
  }
}

class FrontendFuzzTest : public ::testing::Test {
 protected:
  FrontendFuzzTest()
      : rng_(161803),
        cell_(/*input_dim=*/5, /*hidden_dim=*/16, rng_),
        pruner_(core::PrunerConfig::fixed(0.08f)) {}

  num::Rng rng_;
  nn::LstmCell cell_;
  core::StatePruner pruner_;
};

/// One storm: `clients` threads × `lives` connections each, against a
/// frontend with `shards` shards and per-connection cap `max_queue`.
/// Returns via gtest assertions.
void run_storm(nn::LstmCell& cell, core::StatePruner& pruner,
               std::uint64_t seed, num::Index shards, num::Index max_queue,
               int clients, int lives, int max_burst) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " shards=" + std::to_string(shards) +
               " max_queue=" + std::to_string(max_queue));

  PoolConfig pc;
  pc.shards = shards;
  pc.policy.max_batch = 8;
  EnginePool pool(cell, pruner, pc);

  FrontendConfig fc;
  fc.unix_path = "/tmp/zss_frontend_fuzz_" + std::to_string(::getpid()) + "_" +
                 std::to_string(seed) + ".sock";
  fc.tcp_port = 0;
  fc.max_queue = max_queue;
  LiveConfig live;
  live.record = true;
  Frontend frontend(pool, fc, live);
  std::string error;
  ASSERT_TRUE(frontend.start(&error)) << error;

  std::vector<ClientTally> tallies(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(t));
      ClientTally& tally = tallies[static_cast<std::size_t>(t)];
      // Disjoint ownership: sessions [base, base+7] belong to thread t
      // alone, across all of its reconnects.
      const SessionId base = static_cast<SessionId>(100 * t + 1);

      for (int life = 0; life < lives; ++life) {
        ClientConn c;
        std::string err;
        const bool ok = (rng() % 2 == 0)
                            ? c.connect_unix(fc.unix_path, &err)
                            : c.connect_tcp("127.0.0.1", frontend.tcp_port(),
                                            &err);
        if (!ok) {
          ADD_FAILURE() << "connect: " << err;
          return;
        }
        std::string line;
        if (!c.read_line(&line, 10000)) {
          ADD_FAILURE() << "no greeting";
          return;
        }

        // mode 0: clean (read everything owed, close)
        // mode 1: half-open (shutdown write, drain to EOF, close)
        // mode 2: rude (drop dead mid-request, no accounting)
        const int mode = static_cast<int>(rng() % 3);
        const int burst = 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(max_burst));
        std::string blob;
        for (int i = 0; i < burst; ++i) {
          const SessionId sid = base + static_cast<SessionId>(rng() % 8);
          blob += "step " + std::to_string(sid) + " " +
                  std::to_string(rng() % 5) + "\n";
          if (rng() % 16 == 0) blob += "flush\n";
        }
        send_chopped(c.fd(), blob, rng);
        if (mode != 2) tally.sent += static_cast<std::uint64_t>(burst);

        auto consume = [&](const std::string& l) {
          if (l.rfind("ok ", 0) == 0) {
            unsigned long long sid = 0;
            if (std::sscanf(l.c_str(), "ok %llu", &sid) == 1 &&
                (sid < base || sid >= base + 8)) {
              ++tally.misrouted;
            }
            ++tally.oks;
          } else if (l.rfind("err ", 0) == 0) {
            ++tally.errs;
          }
        };

        if (mode == 2) {
          // Rude: maybe skim a few lines, then vanish.
          const int skim = static_cast<int>(rng() % 3);
          for (int i = 0; i < skim && c.read_line(&line, 100); ++i) {
            if (line.rfind("ok ", 0) == 0) {
              unsigned long long sid = 0;
              if (std::sscanf(line.c_str(), "ok %llu", &sid) == 1 &&
                  (sid < base || sid >= base + 8)) {
                ++tally.misrouted;
              }
            }
          }
          c.close();
          continue;
        }

        if (mode == 1) {
          c.shutdown_write();
          // Owed responses must all arrive before the server closes
          // the half-open stream.
          while (c.read_line(&line, 10000)) consume(line);
          if (!c.eof()) {
            ADD_FAILURE() << "half-open drain timed out";
            return;
          }
          c.close();
          continue;
        }

        // Clean: read until every sent line is answered (ok or err).
        std::uint64_t owed = static_cast<std::uint64_t>(burst);
        while (owed > 0) {
          if (!c.read_line(&line, 10000)) {
            tally.orphaned += owed;
            break;
          }
          if (line.rfind("ok ", 0) == 0 || line.rfind("err ", 0) == 0) --owed;
          consume(line);
        }
        c.close();
      }
    });
  }
  for (auto& th : threads) th.join();
  frontend.stop();
  frontend.join();

  std::uint64_t sent = 0, oks = 0, errs = 0;
  for (int t = 0; t < clients; ++t) {
    const ClientTally& tally = tallies[static_cast<std::size_t>(t)];
    EXPECT_EQ(tally.misrouted, 0u)
        << "client " << t << " received another client's response";
    EXPECT_EQ(tally.orphaned, 0u)
        << "client " << t << " closed politely but was owed responses";
    sent += tally.sent;
    oks += tally.oks;
    errs += tally.errs;
  }
  // Polite clients' global books balance too (their own per-connection
  // loops already proved the per-client version).
  EXPECT_EQ(oks + errs, sent) << "responses lost or duplicated";

  // Server-side truth: the storm's recording replays to the identical
  // digest table at every shard count — connection chaos never reaches
  // the computation.
  const DigestTable live_digests = frontend.digests();
  EXPECT_GT(live_digests.size(), 0u);
  for (const num::Index replay_shards : {num::Index{1}, num::Index{2},
                                         num::Index{4}}) {
    PoolConfig rpc;
    rpc.shards = replay_shards;
    rpc.policy.max_batch = 8;
    EnginePool replay_pool(cell, pruner, rpc);
    DigestTable replayed;
    const ResponseSink sink = [&](const Response& r) {
      fold_response(replayed, r);
    };
    replay(replay_pool, frontend.server().recorded_trace(), sink);
    EXPECT_EQ(live_digests, replayed)
        << "live multiplexed run vs replay at " << replay_shards << " shards";
  }
  ::unlink(fc.unix_path.c_str());
}

TEST_F(FrontendFuzzTest, ChurnStormsReplayIdenticallyAcrossShardCounts) {
  const int kRounds = soak() ? 12 : 4;
  const int kClients = soak() ? 12 : 6;
  const int kLives = soak() ? 8 : 4;
  const int kMaxBurst = soak() ? 40 : 20;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = 0xfe2d0000u + static_cast<std::uint64_t>(round);
    const num::Index shards = (round % 3 == 0) ? 1 : (round % 3 == 1) ? 2 : 4;
    const num::Index max_queue = (round % 2 == 0) ? 0 : 3;
    run_storm(cell_, pruner_, seed, shards, max_queue, kClients, kLives,
              kMaxBurst);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Same storm, but the server is torn down by stop() (the SIGINT path)
// while clients are still mid-burst: everything accepted before the
// cutoff must still drain, replay, and balance — a shutdown race must
// never corrupt the recording.
TEST_F(FrontendFuzzTest, StopDuringStormKeepsRecordingReplayable) {
  const int kRounds = soak() ? 8 : 3;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = 0xab700000u + static_cast<std::uint64_t>(round);
    PoolConfig pc;
    pc.shards = 2;
    pc.policy.max_batch = 8;
    EnginePool pool(cell_, pruner_, pc);
    FrontendConfig fc;
    fc.unix_path = "/tmp/zss_frontend_fuzz_stop_" +
                   std::to_string(::getpid()) + "_" + std::to_string(round) +
                   ".sock";
    LiveConfig live;
    live.record = true;
    Frontend frontend(pool, fc, live);
    std::string error;
    ASSERT_TRUE(frontend.start(&error)) << error;

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937_64 rng(seed + static_cast<std::uint64_t>(t));
        for (int life = 0; life < 50; ++life) {
          ClientConn c;
          if (!c.connect_unix(fc.unix_path)) return;  // listener gone: done
          std::string blob, line;
          if (!c.read_line(&line, 2000)) return;
          for (int i = 0; i < 8; ++i) {
            blob += "step " + std::to_string(200 + t) + " " +
                    std::to_string(rng() % 5) + "\n";
          }
          send_chopped(c.fd(), blob, rng);
          // Read whatever comes until the server says bye or hangs up.
          while (c.read_line(&line, 2000)) {
            if (line.rfind("bye ", 0) == 0) return;
          }
          if (c.eof()) continue;  // dropped during shutdown: reconnect
        }
      });
    }
    // Cut the storm off mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    frontend.stop();
    frontend.join();
    for (auto& th : threads) th.join();

    ASSERT_EQ(frontend.server().responded(), frontend.server().submitted());
    DigestTable replayed;
    EnginePool replay_pool(cell_, pruner_, pc);
    const ResponseSink sink = [&](const Response& r) {
      fold_response(replayed, r);
    };
    replay(replay_pool, frontend.server().recorded_trace(), sink);
    EXPECT_EQ(frontend.digests(), replayed) << "round " << round;
    ::unlink(fc.unix_path.c_str());
  }
}

}  // namespace
}  // namespace zss::serve
