#include "serve/frontend.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "num/rng.h"
#include "serve/client.h"
#include "serve/trace.h"

// The epoll front end's correctness obligations, each pinned by a
// deterministic test: responses route only to their issuing
// connection, frame boundaries may fall anywhere (split at every byte
// offset), a stalled reader never stalls anyone else, shedding is
// per-client and fair, half-open connections drain what they are
// owed, socket files are reclaimed/refused/unlinked correctly, fd and
// SIGPIPE hygiene survive churn, and `quit` says bye to everyone.
// The seeded churn storms live in frontend_fuzz_test.cc.
namespace zss::serve {
namespace {

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

/// Open descriptors of this process (for the fd-leak regression).
int open_fds() {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  int n = 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n - 3;  // ".", "..", and the opendir fd itself
}

struct OkLine {
  SessionId session = 0;
  std::uint64_t seq = 0;
};

/// Parses an "ok <session> <seq> <batch> <digest>" line.
bool parse_ok(const std::string& line, OkLine& out) {
  unsigned long long session = 0, seq = 0, batch = 0;
  char digest[32];
  if (std::sscanf(line.c_str(), "ok %llu %llu %llu %31s", &session, &seq,
                  &batch, digest) != 4) {
    return false;
  }
  out.session = session;
  out.seq = seq;
  return true;
}

class FrontendTest : public ::testing::Test {
 protected:
  FrontendTest()
      : rng_(271828),
        cell_(/*input_dim=*/5, /*hidden_dim=*/16, rng_),
        pruner_(core::PrunerConfig::fixed(0.08f)) {}

  ~FrontendTest() override { ::unlink(sock_path_.c_str()); }

  PoolConfig pool_config(num::Index shards = 2) {
    PoolConfig config;
    config.shards = shards;
    config.policy.max_batch = 8;
    return config;
  }

  /// Parks every shard worker before it serves anything it takes (the
  /// supervisor tests' wedge hook), so in-flight counts stay exact
  /// until release(). Declared after the Frontend, it also releases on
  /// destruction: a failed assertion never leaves ~Frontend joining a
  /// parked worker.
  class WedgedWorkers {
   public:
    explicit WedgedWorkers(Frontend& frontend) : server_(frontend.server()) {
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

  /// Per-test-unique socket path (tests run in one process; a counter
  /// keeps paths distinct across tests and fixture reuses).
  std::string unique_sock() {
    static int counter = 0;
    sock_path_ = "/tmp/zss_frontend_test_" + std::to_string(::getpid()) + "_" +
                 std::to_string(++counter) + ".sock";
    return sock_path_;
  }

  /// Connects over UNIX and consumes the "hi <conn>" greeting.
  ClientConn connect_greet(const std::string& path) {
    ClientConn c;
    std::string error;
    EXPECT_TRUE(c.connect_unix(path, &error)) << error;
    std::string line;
    EXPECT_TRUE(c.read_line(&line, 5000));
    EXPECT_EQ(line.rfind("hi ", 0), 0u) << line;
    return c;
  }

  num::Rng rng_;
  nn::LstmCell cell_;
  core::StatePruner pruner_;
  std::string sock_path_;
};

// Four concurrent clients (two UNIX, two TCP) with disjoint sessions:
// every response must arrive at exactly the connection that issued its
// request, and the recorded trace must replay to the identical digest
// table — the front end changed who receives lines, not what is
// computed.
TEST_F(FrontendTest, RoutesResponsesToIssuingConnectionOnly) {
  EnginePool pool(cell_, pruner_, pool_config());
  FrontendConfig fc;
  fc.unix_path = unique_sock();
  fc.tcp_port = 0;  // ephemeral
  LiveConfig live;
  live.record = true;
  Frontend frontend(pool, fc, live);
  std::string error;
  ASSERT_TRUE(frontend.start(&error)) << error;

  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  std::vector<std::vector<OkLine>> got(kClients);
  std::vector<std::thread> threads;
  for (int k = 0; k < kClients; ++k) {
    threads.emplace_back([&, k] {
      ClientConn c;
      std::string err;
      const bool ok = (k % 2 == 0)
                          ? c.connect_unix(fc.unix_path, &err)
                          : c.connect_tcp("127.0.0.1", frontend.tcp_port(), &err);
      ASSERT_TRUE(ok) << err;
      std::string line;
      ASSERT_TRUE(c.read_line(&line, 5000));
      // Sessions 10k+1 .. 10k+3, pipelined without reading in between.
      for (int i = 0; i < kPerClient; ++i) {
        const SessionId sid = static_cast<SessionId>(10 * k + 1 + i % 3);
        ASSERT_TRUE(c.send_line("step " + std::to_string(sid) + " " +
                                std::to_string(i % 5)));
      }
      while (got[static_cast<std::size_t>(k)].size() <
             static_cast<std::size_t>(kPerClient)) {
        ASSERT_TRUE(c.read_line(&line, 5000)) << "timed out waiting for ok";
        OkLine okl;
        ASSERT_TRUE(parse_ok(line, okl)) << line;
        got[static_cast<std::size_t>(k)].push_back(okl);
      }
    });
  }
  for (auto& t : threads) t.join();
  frontend.stop();
  frontend.join();

  for (int k = 0; k < kClients; ++k) {
    std::uint64_t last_seq_per[3] = {0, 0, 0};
    bool seen[3] = {false, false, false};
    for (const OkLine& okl : got[static_cast<std::size_t>(k)]) {
      // Routing: a response for a session this client never opened is
      // a cross-connection delivery.
      ASSERT_GE(okl.session, static_cast<SessionId>(10 * k + 1));
      ASSERT_LE(okl.session, static_cast<SessionId>(10 * k + 3));
      const auto slot = static_cast<std::size_t>(okl.session - 1 -
                                                 static_cast<SessionId>(10 * k));
      if (seen[slot]) {
        EXPECT_GT(okl.seq, last_seq_per[slot]) << "out of order";
      }
      seen[slot] = true;
      last_seq_per[slot] = okl.seq;
    }
  }
  EXPECT_EQ(frontend.server().submitted(),
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(frontend.stats().dropped_responses, 0u);

  // Record/replay: the live multiplexed run and a fresh replay of its
  // recording (different shard count, even) print one digest table.
  EnginePool replay_pool(cell_, pruner_, pool_config(/*shards=*/4));
  DigestTable replayed;
  const ResponseSink sink = [&](const Response& r) {
    fold_response(replayed, r);
  };
  replay(replay_pool, frontend.server().recorded_trace(), sink);
  EXPECT_EQ(frontend.digests(), replayed);
}

// A frame boundary may fall at any byte: split a pipelined multi-line
// request at every offset, delivered in two raw writes, and expect the
// same responses every time. Also drips the whole blob one byte at a
// time.
TEST_F(FrontendTest, FrameBoundarySplitAtEveryByteOffset) {
  EnginePool pool(cell_, pruner_, pool_config());
  FrontendConfig fc;
  fc.unix_path = unique_sock();
  Frontend frontend(pool, fc, {});
  std::string error;
  ASSERT_TRUE(frontend.start(&error)) << error;

  const std::string blob = "step 11 1\nstep 12 2\r\nflush\n";
  auto expect_two_oks = [&](ClientConn& c) {
    bool saw11 = false, saw12 = false;
    for (int i = 0; i < 2; ++i) {
      std::string line;
      ASSERT_TRUE(c.read_line(&line, 5000));
      OkLine okl;
      ASSERT_TRUE(parse_ok(line, okl)) << line;
      saw11 |= okl.session == 11;
      saw12 |= okl.session == 12;
    }
    EXPECT_TRUE(saw11 && saw12);
  };

  for (std::size_t split = 1; split < blob.size(); ++split) {
    ClientConn c = connect_greet(fc.unix_path);
    ASSERT_EQ(::send(c.fd(), blob.data(), split, MSG_NOSIGNAL),
              static_cast<ssize_t>(split));
    // Let the server read (and act on) the partial frame first.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(::send(c.fd(), blob.data() + split, blob.size() - split,
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(blob.size() - split));
    expect_two_oks(c);
  }
  {
    ClientConn c = connect_greet(fc.unix_path);
    for (const char ch : blob) {
      ASSERT_EQ(::send(c.fd(), &ch, 1, MSG_NOSIGNAL), 1);
    }
    expect_two_oks(c);
  }

  frontend.stop();
  frontend.join();
}

// One connection that stops reading accumulates output in its own
// queue (and past max_write_buffer stops being read — backpressure),
// but a second connection keeps doing prompt round trips throughout.
// When the stalled reader finally drains, it gets everything it is
// owed.
TEST_F(FrontendTest, SlowReaderDoesNotStallOtherConnections) {
  EnginePool pool(cell_, pruner_, pool_config());
  FrontendConfig fc;
  fc.unix_path = unique_sock();
  fc.max_write_buffer = 512;  // tiny: backpressure engages immediately
  Frontend frontend(pool, fc, {});
  std::string error;
  ASSERT_TRUE(frontend.start(&error)) << error;

  ClientConn stalled = connect_greet(fc.unix_path);
  // Backpressure engages only once the kernel stops taking the stalled
  // connection's responses, so send enough steps that their payload
  // bytes alone overflow its send buffer (both ends of an AF_UNIX pair
  // get the system default), plus the write-buffer cap and one line of
  // slack — whatever per-send overhead the kernel charges.
  int sndbuf = 0;
  socklen_t optlen = sizeof sndbuf;
  ASSERT_EQ(::getsockopt(stalled.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf, &optlen),
            0);
  Response shortest;
  shortest.session = 77;
  shortest.seq = 0;
  shortest.batch = 1;
  const std::size_t min_line = format_response(shortest, 0).size() + 1;
  const int kStalledSteps = static_cast<int>(
      (static_cast<std::size_t>(sndbuf) + 2 * fc.max_write_buffer) / min_line +
      1);
  // One write: the request bytes are ~2.7x fewer than the response
  // bytes, so they fit the client's own buffer even after the server
  // stops reading.
  std::string blob;
  for (int i = 0; i < kStalledSteps; ++i) {
    if (i > 0) blob += '\n';
    blob += "step 77 " + std::to_string(i % 5);
  }
  ASSERT_TRUE(stalled.send_line(blob));
  // Do NOT read `stalled` yet: its responses pile up server-side.

  ClientConn live = connect_greet(fc.unix_path);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(live.send_line("step 88 " + std::to_string(i % 5)));
    std::string line;
    ASSERT_TRUE(live.read_line(&line, 5000))
        << "round trip " << i << " stalled behind the slow reader";
    OkLine okl;
    ASSERT_TRUE(parse_ok(line, okl)) << line;
    EXPECT_EQ(okl.session, 88u);
  }

  int oks = 0;
  std::string line;
  while (oks < kStalledSteps) {
    ASSERT_TRUE(stalled.read_line(&line, 5000)) << "owed response missing";
    OkLine okl;
    ASSERT_TRUE(parse_ok(line, okl)) << line;
    EXPECT_EQ(okl.session, 77u);
    ++oks;
  }

  frontend.stop();
  frontend.join();
  EXPECT_EQ(frontend.server().submitted(),
            static_cast<std::uint64_t>(kStalledSteps + 20));
  EXPECT_GE(frontend.stats().read_pauses, 1u)
      << "tiny max_write_buffer never engaged backpressure";
}

// Per-connection shedding is fair: a client at its in-flight cap sheds
// deterministically (wedged workers defer all serving until released,
// so in-flight counts are exact), and an idle client's request is
// untouched by its neighbor's overload.
TEST_F(FrontendTest, PerConnectionSheddingIsFairAndDeterministic) {
  EnginePool pool(cell_, pruner_, pool_config(/*shards=*/2));
  FrontendConfig fc;
  fc.unix_path = unique_sock();
  fc.max_queue = 2;
  Frontend frontend(pool, fc, {});
  std::string error;
  ASSERT_TRUE(frontend.start(&error)) << error;
  WedgedWorkers wedged(frontend);

  ClientConn a = connect_greet(fc.unix_path);
  ClientConn b = connect_greet(fc.unix_path);

  // A pipelines 5 steps in one write: 2 accepted (cap), 3 shed — and
  // the 3 err lines arrive before any ok (nothing serves pre-release).
  std::string blob;
  for (int i = 0; i < 5; ++i) {
    blob += "step 5 " + std::to_string(i % 5) + "\n";
  }
  ASSERT_EQ(::send(a.fd(), blob.data(), blob.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(blob.size()));
  for (int i = 0; i < 3; ++i) {
    std::string line;
    ASSERT_TRUE(a.read_line(&line, 5000));
    EXPECT_EQ(line.rfind("err ", 0), 0u) << line;
  }

  // B is under its own cap: accepted, no shed.
  ASSERT_TRUE(b.send_line("step 6 0"));
  ASSERT_TRUE(b.send_line("flush"));
  // B's step must be admitted before the workers run again.
  ASSERT_TRUE(wait_until([&] { return frontend.server().submitted() == 3; }));
  wedged.release();

  std::string line;
  ASSERT_TRUE(b.read_line(&line, 5000));
  OkLine okl;
  ASSERT_TRUE(parse_ok(line, okl)) << line;
  EXPECT_EQ(okl.session, 6u);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(a.read_line(&line, 5000));
    ASSERT_TRUE(parse_ok(line, okl)) << line;
    EXPECT_EQ(okl.session, 5u);
  }

  frontend.stop();
  frontend.join();
  EXPECT_EQ(frontend.stats().shed, 3u);
  EXPECT_EQ(frontend.server().submitted(), 3u);
}

// A half-closed connection (client shutdown(SHUT_WR), still reading)
// is owed its in-flight responses: the front end must hold the
// connection open until they are delivered, then close it.
TEST_F(FrontendTest, HalfOpenConnectionDrainsOwedResponses) {
  EnginePool pool(cell_, pruner_, pool_config(/*shards=*/2));
  FrontendConfig fc;
  fc.unix_path = unique_sock();
  Frontend frontend(pool, fc, {});
  std::string error;
  ASSERT_TRUE(frontend.start(&error)) << error;
  WedgedWorkers wedged(frontend);

  ClientConn half = connect_greet(fc.unix_path);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(half.send_line("step 21 " + std::to_string(i)));
  }
  half.shutdown_write();  // EOF at the server; 3 responses still owed
  ASSERT_TRUE(wait_until([&] { return frontend.server().submitted() == 3; }));

  // Serving resumes only now, after the EOF; the half-open client must
  // still get its responses.
  ClientConn other = connect_greet(fc.unix_path);
  ASSERT_TRUE(other.send_line("flush"));
  wedged.release();

  for (int i = 0; i < 3; ++i) {
    std::string line;
    ASSERT_TRUE(half.read_line(&line, 5000)) << "owed response " << i;
    OkLine okl;
    ASSERT_TRUE(parse_ok(line, okl)) << line;
    EXPECT_EQ(okl.session, 21u);
  }
  // Nothing more owed: the server closes the drained half-open stream.
  std::string line;
  EXPECT_FALSE(half.read_line(&line, 5000));
  EXPECT_TRUE(half.eof());

  frontend.stop();
  frontend.join();
  EXPECT_EQ(frontend.stats().dropped_responses, 0u);
}

// A stale socket file (previous run died without unlinking) is
// reclaimed; the path is unlinked again on graceful stop.
TEST_F(FrontendTest, StaleSocketReclaimedAndUnlinkedOnStop) {
  const std::string path = unique_sock();
  {
    // Manufacture the stale file: bind and abandon without unlinking.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ::close(fd);
  }
  struct stat st{};
  ASSERT_EQ(::lstat(path.c_str(), &st), 0) << "stale socket not set up";

  EnginePool pool(cell_, pruner_, pool_config());
  FrontendConfig fc;
  fc.unix_path = path;
  Frontend frontend(pool, fc, {});
  std::string error;
  ASSERT_TRUE(frontend.start(&error)) << "stale socket not reclaimed: "
                                      << error;
  ClientConn c = connect_greet(path);  // proves the new listener is live
  c.close();
  frontend.stop();
  frontend.join();
  EXPECT_NE(::lstat(path.c_str(), &st), 0)
      << "socket file leaked after graceful stop";
}

// A non-socket file at the path is a startup refusal, never deleted.
TEST_F(FrontendTest, RefusesToReplaceNonSocketFile) {
  const std::string path = unique_sock();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("precious\n", f);
    std::fclose(f);
  }
  EnginePool pool(cell_, pruner_, pool_config());
  FrontendConfig fc;
  fc.unix_path = path;
  Frontend frontend(pool, fc, {});
  std::string error;
  EXPECT_FALSE(frontend.start(&error));
  EXPECT_NE(error.find("non-socket"), std::string::npos) << error;
  struct stat st{};
  ASSERT_EQ(::lstat(path.c_str(), &st), 0) << "file was deleted";
  EXPECT_TRUE(S_ISREG(st.st_mode));
}

// Connection churn — clean closes, abrupt closes, shed requests,
// mid-request drops — leaks no file descriptors.
TEST_F(FrontendTest, ConnectionChurnLeaksNoFds) {
  EnginePool pool(cell_, pruner_, pool_config());
  FrontendConfig fc;
  fc.unix_path = unique_sock();
  fc.max_queue = 2;
  Frontend frontend(pool, fc, {});
  std::string error;
  ASSERT_TRUE(frontend.start(&error)) << error;

  const int baseline = open_fds();
  ASSERT_GT(baseline, 0);

  for (int round = 0; round < 50; ++round) {
    ClientConn c = connect_greet(fc.unix_path);
    switch (round % 4) {
      case 0:  // clean: request, read, close
        ASSERT_TRUE(c.send_line("step 31 1"));
        {
          std::string line;
          ASSERT_TRUE(c.read_line(&line, 5000));
        }
        break;
      case 1:  // drop with a request in flight (response owed to a corpse)
        ASSERT_TRUE(c.send_line("step 32 1"));
        break;
      case 2:  // over the cap, then drop without reading the errs
        for (int i = 0; i < 5; ++i) {
          ASSERT_TRUE(c.send_line("step 33 1"));
        }
        break;
      case 3:  // connect and vanish without a word
        break;
    }
    c.close();
  }

  // The event loop reaps closed connections asynchronously.
  EXPECT_TRUE(wait_until([&] { return open_fds() <= baseline; }))
      << "fd count " << open_fds() << " never returned to " << baseline;

  frontend.stop();
  frontend.join();
  EXPECT_EQ(frontend.stats().accepted, 50u);
  EXPECT_EQ(frontend.stats().disconnected, 50u);
}

// Writing a response to a connection whose reader already vanished
// must not raise SIGPIPE even with the default disposition (the front
// end sends with MSG_NOSIGNAL per connection; it cannot rely on the
// host process ignoring the signal).
TEST_F(FrontendTest, NoSigpipeWithDefaultDisposition) {
  struct sigaction old{};
  struct sigaction dfl{};
  dfl.sa_handler = SIG_DFL;
  ASSERT_EQ(::sigaction(SIGPIPE, &dfl, &old), 0);

  {
    EnginePool pool(cell_, pruner_, pool_config());
    FrontendConfig fc;
    fc.unix_path = unique_sock();
    Frontend frontend(pool, fc, {});
    std::string error;
    ASSERT_TRUE(frontend.start(&error)) << error;

    for (int round = 0; round < 10; ++round) {
      ClientConn c = connect_greet(fc.unix_path);
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(c.send_line("step 41 " + std::to_string(i % 5)));
      }
      c.close();  // responses land on a dead peer → EPIPE, not SIGPIPE
    }
    EXPECT_TRUE(wait_until([&] {
      return frontend.server().responded() == frontend.server().submitted();
    }));
    frontend.stop();
    frontend.join();
    // Surviving to this line IS the assertion (SIG_DFL would have
    // killed the process). No exact count: once a response write hits
    // the dead peer (EPIPE) the connection is dropped and its unread
    // pipelined lines are legitimately discarded.
    EXPECT_GT(frontend.server().submitted(), 0u);
    EXPECT_LE(frontend.server().submitted(), 80u);
  }

  ASSERT_EQ(::sigaction(SIGPIPE, &old, nullptr), 0);
}

// A `quit` from any client drains every in-flight request and sends
// every connected client a final `bye` before closing its stream.
TEST_F(FrontendTest, QuitBroadcastsByeToEveryClient) {
  EnginePool pool(cell_, pruner_, pool_config());
  FrontendConfig fc;
  fc.unix_path = unique_sock();
  Frontend frontend(pool, fc, {});
  std::string error;
  ASSERT_TRUE(frontend.start(&error)) << error;

  ClientConn a = connect_greet(fc.unix_path);
  ClientConn b = connect_greet(fc.unix_path);
  ClientConn c = connect_greet(fc.unix_path);
  ASSERT_TRUE(a.send_line("step 51 1"));
  ASSERT_TRUE(b.send_line("step 52 2"));
  ASSERT_TRUE(c.send_line("quit"));

  auto last_line_is_bye = [](ClientConn& conn) {
    std::string line, last;
    while (conn.read_line(&line, 5000)) last = line;
    EXPECT_TRUE(conn.eof());
    EXPECT_EQ(last.rfind("bye ", 0), 0u) << "last line: " << last;
  };
  last_line_is_bye(a);
  last_line_is_bye(b);
  last_line_is_bye(c);

  frontend.join();
  EXPECT_EQ(frontend.server().responded(), 2u);
  EXPECT_EQ(frontend.stats().dropped_responses, 0u);
}

// A line longer than max_line without a newline is a protocol
// violation: err, drain, close — and the neighbor connection keeps
// being served.
TEST_F(FrontendTest, OversizeLineRejectedWithoutCollateralDamage) {
  EnginePool pool(cell_, pruner_, pool_config());
  FrontendConfig fc;
  fc.unix_path = unique_sock();
  fc.max_line = 64;
  Frontend frontend(pool, fc, {});
  std::string error;
  ASSERT_TRUE(frontend.start(&error)) << error;

  ClientConn bad = connect_greet(fc.unix_path);
  ClientConn good = connect_greet(fc.unix_path);

  const std::string noise(200, 'x');  // no newline anywhere
  ASSERT_EQ(::send(bad.fd(), noise.data(), noise.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(noise.size()));
  std::string line;
  ASSERT_TRUE(bad.read_line(&line, 5000));
  EXPECT_EQ(line.rfind("err ", 0), 0u) << line;
  EXPECT_FALSE(bad.read_line(&line, 5000));
  EXPECT_TRUE(bad.eof());

  ASSERT_TRUE(good.send_line("step 61 1"));
  ASSERT_TRUE(good.read_line(&line, 5000));
  OkLine okl;
  ASSERT_TRUE(parse_ok(line, okl)) << line;
  EXPECT_EQ(okl.session, 61u);

  frontend.stop();
  frontend.join();
  EXPECT_EQ(frontend.stats().oversize_lines, 1u);
}

}  // namespace
}  // namespace zss::serve
