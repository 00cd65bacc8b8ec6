// Serving throughput and latency across shard count, max-batch and
// sparsity — the sizing data behind docs/serving.md.
//
// Closed-loop drive: all requests are queued up front, then the pool is
// drained with one thread per shard. Two throughputs are reported:
//
//   * wall_rps      — requests / wall-clock of the drain. On a machine
//                     with >= shards cores this is the real number; on
//                     fewer cores the shard threads serialize.
//   * capacity_rps  — requests / max per-shard *CPU time* (the critical
//                     path). Thread CPU time does not count time spent
//                     descheduled, so this is the throughput the shard
//                     layout sustains once cores match shards — it is
//                     what wall_rps converges to there, and what
//                     hash-shard balance actually determines, so it is
//                     the number the shard-scaling acceptance bar
//                     reads. The JSON records hardware_concurrency so a
//                     reader can tell which regime a run was in.
//
// Latency is service latency: the wall-clock of the engine step (plus
// gather/scatter) that served each request — queueing delay in a
// closed-loop drive is an artifact of the drive, not of the system.
//
// The live-mode section measures the opposite regime: requests are
// submitted open-loop (paced by --live-gap-us) through the persistent
// worker loop (serve/worker.h), and latency is end-to-end — arrival
// stamp to response delivery, queueing and batching delay *included* —
// which is the number a latency SLO is written against.
//
// The tiering section drives the durable spill tier (src/store/): a
// session population several times the RAM cap, so most re-arrivals
// come back from disk. It reports hot/warm/cold hit rates (resident /
// restored-from-spill / created-fresh per request) and, from a direct
// SegmentStore micro-loop, cold-restore latency and bitwise round-trip
// fidelity — the numbers check_bench_regression.py gates (restore must
// stay bit-exact; cold-restore latency may drift 20% before a warning).
//
// Usage: bench_serving [--dh=512] [--dx=64] [--sessions=32]
//                      [--requests=N] [--live-gap-us=G] [--quick]
// Writes BENCH_serving.json into the working directory.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/sparse_inference.h"
#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "num/rng.h"
#include "num/simd/backend.h"
#include "serve/frontend.h"
#include "serve/model.h"
#include "serve/protocol.h"
#include "serve/worker.h"
#include "store/io.h"
#include "store/segment_store.h"

namespace {

using namespace zss;

struct Result {
  num::Index shards = 0;
  num::Index max_batch = 0;
  double sparsity_target = 0.0;
  float threshold = 0.0f;
  num::Index requests = 0;
  double mean_batch = 0.0;
  double observed_sparsity = 0.0;       // union (batch-intersected) view
  double observed_lane_sparsity = 0.0;  // what the per-lane skip exploits
  double wall_ms = 0.0;
  double wall_rps = 0.0;
  double capacity_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

struct LiveResult {
  num::Index shards = 0;
  num::Index max_batch = 0;
  double sparsity_target = 0.0;
  num::Index requests = 0;
  std::int64_t gap_us = 0;       // nominal open-loop pacing gap
  double offered_rps = 0.0;      // realized offered load (from stamps)
  double wall_ms = 0.0;
  double rps = 0.0;              // served / wall
  double mean_batch = 0.0;
  double p50_us = 0.0;           // end-to-end: arrival -> delivery
  double p99_us = 0.0;
};

struct FrontendResult {
  num::Index shards = 0;
  num::Index connections = 0;   // concurrently open throughout the run
  num::Index reqs_per_conn = 0;
  double wall_ms = 0.0;
  double rps = 0.0;
  double p50_us = 0.0;  // per-request RTT through the socket, mux included
  double p99_us = 0.0;
  std::uint64_t misrouted = 0;  // ok lines delivered to the wrong connection
  std::uint64_t lost = 0;       // requests never answered before the deadline
  bool ok = false;              // setup succeeded and every conn connected
};

struct StackedResult {
  num::Index layers = 0;
  num::Index shards = 0;
  num::Index max_batch = 0;
  num::Index requests = 0;
  bool pipeline = false;
  double wall_ms = 0.0;
  double wall_rps = 0.0;
  double capacity_rps = 0.0;
  /// Per-session digests identical to the sequential 1-shard reference
  /// run of the same model — the pipelined wavefront and any shard
  /// count must reproduce the reference bit-for-bit.
  bool bit_exact = false;
};

struct TieringResult {
  bool encoded = false;
  num::Index sessions = 0;
  num::Index max_sessions = 0;  // per shard (RAM cap)
  num::Index requests = 0;
  double hot_rate = 0.0;   // served by a resident session
  double warm_rate = 0.0;  // restored from the spill tier
  double cold_rate = 0.0;  // created fresh (first touch)
  std::uint64_t spilled = 0;
  std::uint64_t restored = 0;
  std::uint64_t restore_corrupt = 0;
  bool restore_bit_exact = false;
  double cold_restore_p50_us = 0.0;
  double cold_restore_p99_us = 0.0;
};

struct RecoveryResult {
  std::string journal_sync;   // "batch" | "none"
  num::Index sessions = 0;
  num::Index requests = 0;    // total workload (prefix + re-driven suffix)
  double baseline_rps = 0.0;  // same drive, durability off
  double journal_rps = 0.0;   // with the write-ahead journal committing
  double journal_ratio = 0.0; // journal_rps / baseline_rps (the WAL tax)
  double recovery_wall_ms = 0.0;  // restart: open + replay, to serve-ready
  std::uint64_t recovered_sessions = 0;
  std::uint64_t recovered_records = 0;
  /// The crash-recovery contract end to end on the real filesystem:
  /// drive a prefix, drop the pool cold (nothing flushed or closed),
  /// restart, re-drive each session's uncommitted suffix, and the
  /// final digest table equals the uninterrupted run's bit for bit.
  bool recovered_bit_exact = false;
};

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Serving needs a batch-composition-independent pruner, so derive the
/// fixed threshold that realizes `sparsity` for this cell: run a short
/// batch-of-one probe in target-sparsity mode and export its effective
/// threshold (the documented StatePruner::effective_threshold use).
float calibrate_threshold(const nn::LstmCell& cell, double sparsity,
                          num::Rng& rng) {
  const core::StatePruner probe_pruner(core::PrunerConfig::target(sparsity));
  core::SparseLstmEngine probe(cell, probe_pruner);
  num::Matrix h(1, cell.hidden_dim(), 0.0f), c(1, cell.hidden_dim(), 0.0f);
  num::Matrix x(1, cell.input_dim());
  for (int t = 0; t < 20; ++t) {
    x.fill(0.0f);
    x(0, rng.below(cell.input_dim())) = 1.0f;
    probe.step(x, h, c);
  }
  // h is pruned storage; measure the threshold on the matching dense
  // state by one more un-pruned probe step.
  const core::StatePruner none(core::PrunerConfig::none());
  core::SparseLstmEngine dense_probe(cell, none);
  num::Matrix hd = h, cd = c;
  x.fill(0.0f);
  x(0, 0) = 1.0f;
  dense_probe.step(x, hd, cd);
  return probe_pruner.effective_threshold(hd);
}

Result run_config(const nn::LstmCell& cell, float threshold,
                  double sparsity_target, num::Index shards,
                  num::Index max_batch, num::Index sessions,
                  num::Index requests, std::uint64_t seed) {
  const core::StatePruner pruner(core::PrunerConfig::fixed(threshold));
  serve::PoolConfig config;
  config.shards = shards;
  config.policy.max_batch = max_batch;
  serve::EnginePool pool(cell, pruner, config);

  auto enqueue_all = [&] {
    num::Rng tokens(seed + 1);
    for (num::Index i = 0; i < requests; ++i) {
      serve::Request r;
      // Round-robin sessions: every client is equally active, so the
      // only load imbalance left is the hash's session->shard split.
      r.session = static_cast<serve::SessionId>(i % sessions) + 1;
      r.token = tokens.below(cell.input_dim());
      r.arrival_us = 0;
      r.seq = static_cast<std::uint64_t>(i);
      pool.enqueue(r);
    }
  };

  // Warm-up drain: create every session, fill every workspace, reach
  // the pruned steady state — then start the measurement epoch.
  std::vector<serve::ResponseSink> warm_sinks(
      static_cast<std::size_t>(shards), [](const serve::Response&) {});
  enqueue_all();
  pool.drain_parallel(0, warm_sinks);
  pool.reset_stats();

  // Measured drain, one latency log per shard (thread-private).
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(shards));
  std::vector<serve::ResponseSink> sinks;
  for (num::Index s = 0; s < shards; ++s) {
    auto& log = latencies[static_cast<std::size_t>(s)];
    log.reserve(static_cast<std::size_t>(requests));
    sinks.emplace_back([&log](const serve::Response& r) {
      log.push_back(r.service_us);
    });
  }
  enqueue_all();
  const auto t0 = std::chrono::steady_clock::now();
  const num::Index served = pool.drain_parallel(0, sinks);
  const auto t1 = std::chrono::steady_clock::now();
  ZSS_ENSURES(served == requests);

  Result r;
  r.shards = shards;
  r.max_batch = max_batch;
  r.sparsity_target = sparsity_target;
  r.threshold = threshold;
  r.requests = requests;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.wall_rps = static_cast<double>(requests) / (r.wall_ms / 1e3);

  double max_busy_us = 0.0;
  num::Index batches = 0;
  num::Index kept = 0, positions = 0;
  num::Index lane_kept = 0, lane_positions = 0;
  for (num::Index s = 0; s < shards; ++s) {
    max_busy_us = std::max(max_busy_us, pool.shard(s).stats().cpu_us);
    batches += pool.shard(s).stats().batches;
    kept += pool.shard(s).engine().stats().kept_positions;
    positions += pool.shard(s).engine().stats().positions;
    lane_kept += pool.shard(s).engine().stats().lane_kept_positions;
    lane_positions += pool.shard(s).engine().stats().lane_positions;
  }
  r.capacity_rps = max_busy_us == 0.0
                       ? 0.0
                       : static_cast<double>(requests) / (max_busy_us / 1e6);
  r.mean_batch = batches == 0 ? 0.0
                              : static_cast<double>(requests) /
                                    static_cast<double>(batches);
  r.observed_sparsity =
      positions == 0 ? 0.0
                     : 1.0 - static_cast<double>(kept) /
                                 static_cast<double>(positions);
  r.observed_lane_sparsity =
      lane_positions == 0 ? 0.0
                          : 1.0 - static_cast<double>(lane_kept) /
                                      static_cast<double>(lane_positions);

  std::vector<double> all;
  for (auto& log : latencies) all.insert(all.end(), log.begin(), log.end());
  r.p50_us = percentile(all, 0.50);
  r.p99_us = percentile(all, 0.99);
  return r;
}

/// Open-loop live measurement through the persistent worker loop:
/// p50/p99 are end-to-end (queueing delay included), the regime the
/// closed-loop grid above deliberately excludes.
LiveResult run_live_config(const nn::LstmCell& cell, float threshold,
                           double sparsity_target, num::Index shards,
                           num::Index max_batch, num::Index sessions,
                           num::Index requests, std::int64_t gap_us,
                           std::uint64_t seed) {
  const core::StatePruner pruner(core::PrunerConfig::fixed(threshold));
  serve::PoolConfig config;
  config.shards = shards;
  config.policy.max_batch = max_batch;
  serve::EnginePool pool(cell, pruner, config);

  std::mutex mu;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(requests));
  serve::LiveServer* server_ptr = nullptr;
  const serve::ResponseSink sink = [&](const serve::Response& r) {
    const double lat =
        static_cast<double>(server_ptr->now_us() - r.arrival_us);
    std::lock_guard<std::mutex> lock(mu);
    latencies.push_back(lat);
  };
  serve::LiveServer server(pool, sink);
  server_ptr = &server;

  // Warm-up burst: create sessions, fill workspaces, settle the ring.
  num::Rng tokens(seed);
  for (num::Index i = 0; i < sessions; ++i) {
    server.submit(static_cast<serve::SessionId>(i % sessions) + 1,
                  tokens.below(cell.input_dim()));
  }
  while (server.responded() < static_cast<std::uint64_t>(sessions)) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    latencies.clear();
  }

  // Paced open loop: one producer, nominal inter-arrival gap_us. The
  // realized gap (sleep granularity included) is reported as
  // offered_rps so a reader can see what load was actually applied.
  const std::int64_t t0 = server.now_us();
  const auto wall0 = std::chrono::steady_clock::now();
  for (num::Index i = 0; i < requests; ++i) {
    server.submit(static_cast<serve::SessionId>(i % sessions) + 1,
                  tokens.below(cell.input_dim()));
    if (gap_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(gap_us));
    }
  }
  const std::int64_t t1 = server.now_us();
  server.shutdown();
  const auto wall1 = std::chrono::steady_clock::now();

  LiveResult r;
  r.shards = shards;
  r.max_batch = max_batch;
  r.sparsity_target = sparsity_target;
  r.requests = requests;
  r.gap_us = gap_us;
  r.offered_rps = t1 == t0 ? 0.0
                           : static_cast<double>(requests) /
                                 (static_cast<double>(t1 - t0) / 1e6);
  r.wall_ms = std::chrono::duration<double, std::milli>(wall1 - wall0).count();
  r.rps = static_cast<double>(requests) / (r.wall_ms / 1e3);
  num::Index batches = 0, served = 0;
  for (num::Index s = 0; s < shards; ++s) {
    batches += pool.shard(s).stats().batches;
    served += pool.shard(s).stats().requests;
  }
  r.mean_batch = batches == 0 ? 0.0
                              : static_cast<double>(served) /
                                    static_cast<double>(batches);
  std::lock_guard<std::mutex> lock(mu);
  r.p50_us = percentile(latencies, 0.50);
  r.p99_us = percentile(latencies, 0.99);
  return r;
}

/// One stacked-serving configuration: drain the same request stream
/// through an L-layer ServeModel with the sequential or the
/// layer-pipelined (wavefront) flush, one thread per shard. Per-session
/// digests are folded in the sinks and merged (sessions are pinned, so
/// the per-shard tables are disjoint); the caller compares them against
/// the sequential 1-shard reference for bit-exactness.
StackedResult run_stacked_config(const serve::ServeModel& model,
                                 num::Index input_dim, num::Index layers,
                                 num::Index shards, num::Index max_batch,
                                 bool pipeline, num::Index sessions,
                                 num::Index requests, std::uint64_t seed,
                                 serve::DigestTable& digests) {
  serve::PoolConfig config;
  config.shards = shards;
  config.policy.max_batch = max_batch;
  config.pipeline = pipeline;
  serve::EnginePool pool(model, config);

  auto enqueue_all = [&] {
    num::Rng tokens(seed + 1);
    for (num::Index i = 0; i < requests; ++i) {
      serve::Request r;
      r.session = static_cast<serve::SessionId>(i % sessions) + 1;
      r.token = tokens.below(input_dim);
      r.arrival_us = 0;
      r.seq = static_cast<std::uint64_t>(i);
      pool.enqueue(r);
    }
  };

  // Warm-up drain (same stream: the digests cover warm-up + measured
  // epoch identically in every configuration).
  std::vector<serve::DigestTable> tables(static_cast<std::size_t>(shards));
  std::vector<serve::ResponseSink> sinks;
  for (num::Index s = 0; s < shards; ++s) {
    auto& table = tables[static_cast<std::size_t>(s)];
    sinks.emplace_back([&table](const serve::Response& r) {
      serve::fold_response(table, r);
    });
  }
  enqueue_all();
  pool.drain_parallel(0, sinks);
  pool.reset_stats();

  enqueue_all();
  const auto t0 = std::chrono::steady_clock::now();
  const num::Index served = pool.drain_parallel(0, sinks);
  const auto t1 = std::chrono::steady_clock::now();
  ZSS_ENSURES(served == requests);
  for (const serve::DigestTable& t : tables) {
    digests.insert(t.begin(), t.end());
  }

  StackedResult r;
  r.layers = layers;
  r.shards = shards;
  r.max_batch = max_batch;
  r.requests = requests;
  r.pipeline = pipeline;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.wall_rps = static_cast<double>(requests) / (r.wall_ms / 1e3);
  double max_busy_us = 0.0;
  for (num::Index s = 0; s < shards; ++s) {
    max_busy_us = std::max(max_busy_us, pool.shard(s).stats().cpu_us);
  }
  r.capacity_rps = max_busy_us == 0.0
                       ? 0.0
                       : static_cast<double>(requests) / (max_busy_us / 1e6);
  return r;
}

/// Multi-connection live measurement through the epoll front end: one
/// bench thread muxes `connections` real sockets (half UNIX, half TCP)
/// with poll(), each connection running a closed loop of window 1 on
/// its own session. Latency is the full per-request round trip —
/// socket, parse, stamp, batch, serve, format, socket back — and the
/// run doubles as a correctness sweep: any "ok" for a session the
/// connection does not own is a misrouted (cross-connection) delivery,
/// and every request must be answered (lost == 0).
FrontendResult run_frontend_config(const nn::LstmCell& cell, float threshold,
                                   num::Index shards, num::Index connections,
                                   num::Index reqs_per_conn) {
  FrontendResult result;
  result.shards = shards;
  result.connections = connections;
  result.reqs_per_conn = reqs_per_conn;

  const core::StatePruner pruner(core::PrunerConfig::fixed(threshold));
  serve::PoolConfig config;
  config.shards = shards;
  config.policy.max_batch = 8;
  serve::EnginePool pool(cell, pruner, config);

  serve::FrontendConfig fc;
  fc.unix_path = "/tmp/zss_bench_frontend_" + std::to_string(::getpid()) +
                 ".sock";
  fc.tcp_port = 0;
  serve::Frontend frontend(pool, fc, {});
  std::string error;
  if (!frontend.start(&error)) {
    std::fprintf(stderr, "frontend: %s\n", error.c_str());
    return result;
  }

  struct BConn {
    int fd = -1;
    std::string rbuf;
    num::Index done = 0;  // responses received
    bool greeted = false;
    std::chrono::steady_clock::time_point sent_at;
  };
  std::vector<BConn> conns(static_cast<std::size_t>(connections));

  sockaddr_un ua{};
  ua.sun_family = AF_UNIX;
  std::memcpy(ua.sun_path, fc.unix_path.c_str(), fc.unix_path.size() + 1);
  sockaddr_in ta{};
  ta.sin_family = AF_INET;
  ta.sin_port = htons(static_cast<std::uint16_t>(frontend.tcp_port()));
  ::inet_pton(AF_INET, "127.0.0.1", &ta.sin_addr);

  for (num::Index i = 0; i < connections; ++i) {
    BConn& c = conns[static_cast<std::size_t>(i)];
    const bool tcp = i % 2 == 1;
    c.fd = ::socket(tcp ? AF_INET : AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0 ||
        ::connect(c.fd,
                  tcp ? reinterpret_cast<sockaddr*>(&ta)
                      : reinterpret_cast<sockaddr*>(&ua),
                  tcp ? sizeof(ta) : sizeof(ua)) < 0) {
      std::fprintf(stderr, "frontend bench: connect %lld failed: %s\n",
                   static_cast<long long>(i), std::strerror(errno));
      for (BConn& cc : conns) {
        if (cc.fd >= 0) ::close(cc.fd);
      }
      frontend.stop();
      frontend.join();
      return result;
    }
    if (tcp) {
      const int yes = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
    }
    ::fcntl(c.fd, F_SETFL, O_NONBLOCK);
  }

  // Closed loop of window 1 per connection: `step` goes out when the
  // previous `ok` lands (the greeting triggers the first one).
  auto send_step = [&](num::Index i) {
    BConn& c = conns[static_cast<std::size_t>(i)];
    char buf[64];
    const int n = std::snprintf(
        buf, sizeof(buf), "step %lld %lld\n", static_cast<long long>(i + 1),
        static_cast<long long>((i + c.done) %
                               static_cast<num::Index>(cell.input_dim())));
    c.sent_at = std::chrono::steady_clock::now();
    // A 20-odd-byte line into a drained socket never fills the buffer;
    // spin on the theoretical EAGAIN rather than queueing client-side.
    while (::send(c.fd, buf, static_cast<std::size_t>(n), MSG_NOSIGNAL) < 0 &&
           (errno == EAGAIN || errno == EINTR)) {
    }
  };

  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(connections * reqs_per_conn));
  std::vector<pollfd> pfds(static_cast<std::size_t>(connections));
  for (num::Index i = 0; i < connections; ++i) {
    pfds[static_cast<std::size_t>(i)] = {
        conns[static_cast<std::size_t>(i)].fd, POLLIN, 0};
  }

  const std::uint64_t expected =
      static_cast<std::uint64_t>(connections) *
      static_cast<std::uint64_t>(reqs_per_conn);
  std::uint64_t received = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::seconds(120);
  char buf[65536];
  while (received < expected &&
         std::chrono::steady_clock::now() < deadline) {
    const int nready = ::poll(pfds.data(), pfds.size(), 1000);
    if (nready <= 0) continue;
    for (num::Index i = 0; i < connections; ++i) {
      pollfd& p = pfds[static_cast<std::size_t>(i)];
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      BConn& c = conns[static_cast<std::size_t>(i)];
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        p.fd = -p.fd;  // poll ignores negative fds; conn is dead
        continue;
      }
      c.rbuf.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = c.rbuf.find('\n', start);
        if (nl == std::string::npos) break;
        const std::string_view line(c.rbuf.data() + start, nl - start);
        start = nl + 1;
        if (line.rfind("hi ", 0) == 0) {
          c.greeted = true;
          send_step(i);
        } else if (line.rfind("ok ", 0) == 0) {
          unsigned long long sid = 0;
          std::sscanf(line.data(), "ok %llu", &sid);
          if (sid != static_cast<unsigned long long>(i + 1)) {
            ++result.misrouted;
          }
          latencies.push_back(std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - c.sent_at)
                                  .count());
          ++received;
          if (++c.done < reqs_per_conn) {
            send_step(i);
          } else {
            p.fd = -p.fd;  // finished: stop polling, keep fd open
          }
        }
      }
      c.rbuf.erase(0, start);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.lost = expected - received;

  // Every connection stayed open end to end — close them only now.
  for (BConn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  frontend.stop();
  frontend.join();

  result.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  result.rps = result.wall_ms == 0.0
                   ? 0.0
                   : static_cast<double>(received) / (result.wall_ms / 1e3);
  result.p50_us = percentile(latencies, 0.50);
  result.p99_us = percentile(latencies, 0.99);
  result.ok = true;
  return result;
}

/// Churn a session population `sessions` through a pool whose per-shard
/// RAM cap holds only a fraction of it, spill tier on — round-robin
/// arrivals mean nearly every return past the warm-up is either a
/// resident hit or a disk restore. Rates come from the SessionStore
/// counters; restore latency and bit-exactness from a direct
/// SegmentStore micro-loop against the same directory (real file I/O).
TieringResult run_tiering(const nn::LstmCell& cell, float threshold,
                          num::Index sessions, num::Index max_sessions,
                          num::Index requests, bool encoded,
                          const std::string& dir, std::uint64_t seed) {
  const core::StatePruner pruner(core::PrunerConfig::fixed(threshold));
  serve::PoolConfig config;
  config.shards = 2;
  config.policy.max_batch = 4;
  config.session_ttl.max_sessions = max_sessions;
  config.spill.dir = dir;
  config.spill.encoded = encoded;
  // Each flavour starts from an empty tier: stale segment files from a
  // previous run would turn first touches into restores.
  {
    store::PosixEnv fresh;
    for (num::Index s = 0; s < config.shards; ++s) {
      fresh.remove(dir + "/shard_" + std::to_string(s) + ".seg");
    }
  }
  serve::EnginePool pool(cell, pruner, config);

  // Skewed drive: half the traffic hammers a small hot set (stays
  // resident under LRU — the hot hits), half cycles a population far
  // past the cap (every return is a disk restore — the warm hits).
  const num::Index hot_sessions = 12;
  num::Rng tokens(seed);
  for (num::Index i = 0; i < requests; ++i) {
    serve::Request r;
    const num::Index k = i / 2;
    r.session = (i % 2 == 0)
                    ? static_cast<serve::SessionId>(k % hot_sessions) + 1
                    : static_cast<serve::SessionId>(
                          hot_sessions + k % (sessions - hot_sessions)) +
                          1;
    r.token = tokens.below(cell.input_dim());
    r.arrival_us = static_cast<std::int64_t>(i);  // recency for the LRU
    r.seq = static_cast<std::uint64_t>(i);
    pool.enqueue(r);
  }
  std::vector<serve::ResponseSink> sinks(
      static_cast<std::size_t>(config.shards), [](const serve::Response&) {});
  const num::Index served = pool.drain_parallel(0, sinks);
  ZSS_ENSURES(served == requests);

  TieringResult t;
  t.encoded = encoded;
  t.sessions = sessions;
  t.max_sessions = max_sessions;
  t.requests = requests;
  std::uint64_t created = 0;
  for (num::Index s = 0; s < config.shards; ++s) {
    const auto& st = pool.shard(s).sessions();
    created += st.created();
    t.spilled += st.spilled();
    t.restored += st.restored();
    t.restore_corrupt += st.restore_corrupt();
  }
  const auto n = static_cast<double>(requests);
  t.warm_rate = static_cast<double>(t.restored) / n;
  t.cold_rate = static_cast<double>(created) / n;
  t.hot_rate = 1.0 - t.warm_rate - t.cold_rate;

  // Cold-restore micro-loop: spill K pruned-shaped states through a
  // SegmentStore on the real filesystem, then time each restore and
  // compare bits. Restore consumes the record, so one pass is exact.
  store::PosixEnv env;
  store::StoreConfig scfg;
  scfg.path = dir + "/micro.seg";
  scfg.encoded = encoded;
  const num::Index dh = cell.hidden_dim();
  {
    store::SegmentStore st(env, scfg, dh);
    const num::Index kStates = 256;
    std::vector<num::Matrix> hs, cs;
    num::Rng rng(seed + 17);
    for (num::Index k = 0; k < kStates; ++k) {
      num::Matrix h(1, dh, 0.0f), c(1, dh);
      for (num::Index j = 0; j < dh; ++j) {
        if (rng.bernoulli(0.1)) {  // ~90% zeros: the pruned steady state
          h(0, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
        }
        c(0, j) = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      st.spill(static_cast<std::uint64_t>(k) + 1, {1, 10, 0}, h, c);
      hs.push_back(std::move(h));
      cs.push_back(std::move(c));
    }
    std::vector<double> lat;
    lat.reserve(static_cast<std::size_t>(kStates));
    t.restore_bit_exact = true;
    const std::size_t row_bytes = static_cast<std::size_t>(dh) * sizeof(float);
    for (num::Index k = 0; k < kStates; ++k) {
      num::Matrix h(1, dh), c(1, dh);
      store::RecordMeta meta;
      const auto t0 = std::chrono::steady_clock::now();
      const auto r =
          st.restore_into(static_cast<std::uint64_t>(k) + 1, &meta, h, c);
      const auto t1 = std::chrono::steady_clock::now();
      lat.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      const std::size_t k_ = static_cast<std::size_t>(k);
      if (r != store::RestoreResult::kOk ||
          std::memcmp(h.data(), hs[k_].data(), row_bytes) != 0 ||
          std::memcmp(c.data(), cs[k_].data(), row_bytes) != 0) {
        t.restore_bit_exact = false;
      }
    }
    t.cold_restore_p50_us = percentile(lat, 0.50);
    t.cold_restore_p99_us = percentile(lat, 0.99);
  }
  env.remove(scfg.path);
  return t;
}

/// The crash-recovery bench: measures what `--durability=journal`
/// costs (group-commit tax vs the identical drive with durability off)
/// and proves what it buys — kill the pool cold halfway through a
/// workload on the real filesystem, restart it, re-drive only each
/// session's uncommitted suffix, and demand the final digest table be
/// bit-identical to the uninterrupted run's.
RecoveryResult run_recovery(const nn::LstmCell& cell, float threshold,
                            num::Index sessions, num::Index requests,
                            store::JournalSync sync, const std::string& dir) {
  const core::StatePruner pruner(core::PrunerConfig::fixed(threshold));
  const num::Index steps = requests / sessions;
  const auto token_at = [&](serve::SessionId sid, num::Index i) {
    return static_cast<num::Index>(
        num::splitmix64_mix(sid * 1000003ULL +
                            static_cast<std::uint64_t>(i)) %
        static_cast<std::uint64_t>(cell.input_dim()));
  };

  serve::PoolConfig base;
  base.shards = 2;
  base.policy.max_batch = 4;

  // Drives steps [from, to) of every session and returns the wall ms.
  const auto drive = [&](serve::EnginePool& pool, num::Index from,
                         num::Index to,
                         const std::vector<num::Index>* committed,
                         std::int64_t arrival0) {
    std::int64_t arrival = arrival0;
    std::uint64_t seq = 0;
    num::Index enqueued = 0;
    for (num::Index i = from; i < to; ++i) {
      for (num::Index s = 0; s < sessions; ++s) {
        if (committed != nullptr &&
            i < (*committed)[static_cast<std::size_t>(s)]) {
          continue;  // the server already holds this step, committed
        }
        serve::Request r;
        r.session = static_cast<serve::SessionId>(s) + 1;
        r.token = token_at(r.session, i);
        r.arrival_us = ++arrival;
        r.seq = seq++;
        pool.enqueue(r);
        ++enqueued;
      }
    }
    std::vector<serve::ResponseSink> sinks(
        static_cast<std::size_t>(base.shards),
        [](const serve::Response&) {});
    const auto t0 = std::chrono::steady_clock::now();
    const num::Index served = pool.drain_parallel(arrival, sinks);
    const auto t1 = std::chrono::steady_clock::now();
    ZSS_ENSURES(served == enqueued);
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  RecoveryResult out;
  out.journal_sync = sync == store::JournalSync::kBatch ? "batch" : "none";
  out.sessions = sessions;
  out.requests = steps * sessions;

  // The uninterrupted oracle doubles as the durability-off baseline.
  serve::DigestTable oracle;
  {
    serve::EnginePool pool(cell, pruner, base);
    const double wall_ms = drive(pool, 0, steps, nullptr, 0);
    out.baseline_rps =
        static_cast<double>(steps * sessions) / (wall_ms / 1e3);
    oracle = pool.merged_digests();
  }

  // Journal run: fresh directory, same drive, crash at half.
  {
    store::PosixEnv fresh;
    for (num::Index s = 0; s < base.shards; ++s) {
      const std::string stem = dir + "/shard_" + std::to_string(s);
      fresh.remove(stem + ".seg");
      fresh.remove(stem + ".jnl");
      fresh.remove(stem + ".jnl.ckpt");
    }
  }
  serve::PoolConfig journaled = base;
  journaled.spill.dir = dir;
  journaled.spill.journal = true;
  journaled.spill.journal_sync = sync;

  const num::Index crash_at = steps / 2;
  {
    auto pool = std::make_unique<serve::EnginePool>(cell, pruner, journaled);
    const double wall_ms = drive(*pool, 0, crash_at, nullptr, 0);
    out.journal_rps =
        static_cast<double>(crash_at * sessions) / (wall_ms / 1e3);
    pool.reset();  // the crash: nothing flushed, nothing closed
  }
  out.journal_ratio =
      out.baseline_rps > 0.0 ? out.journal_rps / out.baseline_rps : 0.0;

  // Restart (timed: open + replay to serve-ready), then resume.
  const auto r0 = std::chrono::steady_clock::now();
  serve::EnginePool pool(cell, pruner, journaled);
  const auto r1 = std::chrono::steady_clock::now();
  out.recovery_wall_ms =
      std::chrono::duration<double, std::milli>(r1 - r0).count();
  out.recovered_sessions = pool.recovered_sessions();
  for (num::Index s = 0; s < base.shards; ++s) {
    if (const store::Journal* j = pool.journal(s)) {
      out.recovered_records += j->recovered_records();
    }
  }
  std::vector<num::Index> committed(static_cast<std::size_t>(sessions), 0);
  const serve::DigestTable recovered = pool.merged_digests();
  for (const auto& [sid, d] : recovered) {
    committed[static_cast<std::size_t>(sid - 1)] =
        static_cast<num::Index>(d.steps);
  }
  drive(pool, 0, steps, &committed, pool.recovered_max_arrival_us());
  out.recovered_bit_exact = pool.merged_digests() == oracle;
  return out;
}

void write_json(const std::string& path, num::Index dh, num::Index dx,
                num::Index sessions, const std::vector<Result>& results,
                const std::vector<LiveResult>& live,
                const std::vector<FrontendResult>& frontend,
                const std::vector<TieringResult>& tiering,
                const std::vector<StackedResult>& stacked,
                const std::vector<RecoveryResult>& recovery) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"serving\",\n");
  std::fprintf(f, "  \"kernel_backend\": \"%s\",\n",
               num::simd::active_backend().name);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"dh\": %lld, \"dx\": %lld, \"sessions\": %lld,\n",
               static_cast<long long>(dh), static_cast<long long>(dx),
               static_cast<long long>(sessions));

  // Headline: capacity scaling of 4 shards over 1 at batch 1, per
  // sparsity level (the acceptance bar of the serving subsystem).
  std::fprintf(f, "  \"shard_scaling_batch1\": [\n");
  bool first = true;
  for (const Result& a : results) {
    if (a.shards != 1 || a.max_batch != 1) continue;
    for (const Result& b : results) {
      if (b.shards != 4 || b.max_batch != 1 ||
          b.sparsity_target != a.sparsity_target) {
        continue;
      }
      std::fprintf(f,
                   "%s    {\"sparsity\": %.2f, \"metric\": \"critical_path\", "
                   "\"capacity_scaling_4s_over_1s\": %.3f, "
                   "\"wall_scaling_4s_over_1s\": %.3f}",
                   first ? "" : ",\n", a.sparsity_target,
                   b.capacity_rps / a.capacity_rps, b.wall_rps / a.wall_rps);
      first = false;
    }
  }
  std::fprintf(f, "\n  ],\n");

  // Live mode: open-loop through the persistent workers; p50/p99 are
  // end-to-end (queueing delay included) — docs/benchmarks.md.
  std::fprintf(f, "  \"live\": [\n");
  for (std::size_t i = 0; i < live.size(); ++i) {
    const LiveResult& r = live[i];
    std::fprintf(
        f,
        "    {\"shards\": %lld, \"max_batch\": %lld, \"sparsity\": %.2f, "
        "\"requests\": %lld, \"gap_us\": %lld, \"offered_rps\": %.1f, "
        "\"wall_ms\": %.2f, \"rps\": %.1f, \"mean_batch\": %.2f, "
        "\"live_p50_us\": %.2f, \"live_p99_us\": %.2f}%s\n",
        static_cast<long long>(r.shards), static_cast<long long>(r.max_batch),
        r.sparsity_target, static_cast<long long>(r.requests),
        static_cast<long long>(r.gap_us), r.offered_rps, r.wall_ms, r.rps,
        r.mean_batch, r.p50_us, r.p99_us, i + 1 < live.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  // Connection front end: real sockets through the epoll mux, 1000+
  // concurrent connections. The regression gate hard-fails on
  // misrouted>0 or lost>0 (correctness, not speed) and warns when
  // rps / p50 drift past the reference.
  std::fprintf(f, "  \"frontend\": [\n");
  for (std::size_t i = 0; i < frontend.size(); ++i) {
    const FrontendResult& r = frontend[i];
    std::fprintf(
        f,
        "    {\"shards\": %lld, \"connections\": %lld, "
        "\"reqs_per_conn\": %lld, \"wall_ms\": %.2f, \"rps\": %.1f, "
        "\"p50_us\": %.2f, \"p99_us\": %.2f, "
        "\"misrouted\": %llu, \"lost\": %llu, \"ok\": %s}%s\n",
        static_cast<long long>(r.shards),
        static_cast<long long>(r.connections),
        static_cast<long long>(r.reqs_per_conn), r.wall_ms, r.rps, r.p50_us,
        r.p99_us, static_cast<unsigned long long>(r.misrouted),
        static_cast<unsigned long long>(r.lost), r.ok ? "true" : "false",
        i + 1 < frontend.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  // Spill tier: hit rates from the serving churn, restore latency and
  // bitwise fidelity from the SegmentStore micro-loop. The regression
  // gate hard-fails on restore_bit_exact=false / restore_corrupt>0 and
  // warns when cold-restore latency drifts >20% past the reference.
  std::fprintf(f, "  \"tiering\": [\n");
  for (std::size_t i = 0; i < tiering.size(); ++i) {
    const TieringResult& t = tiering[i];
    std::fprintf(
        f,
        "    {\"encoded\": %s, \"sessions\": %lld, "
        "\"max_sessions_per_shard\": %lld, \"requests\": %lld, "
        "\"hot_rate\": %.4f, \"warm_rate\": %.4f, \"cold_rate\": %.4f, "
        "\"spilled\": %llu, \"restored\": %llu, \"restore_corrupt\": %llu, "
        "\"restore_bit_exact\": %s, "
        "\"cold_restore_p50_us\": %.2f, \"cold_restore_p99_us\": %.2f}%s\n",
        t.encoded ? "true" : "false", static_cast<long long>(t.sessions),
        static_cast<long long>(t.max_sessions),
        static_cast<long long>(t.requests), t.hot_rate, t.warm_rate,
        t.cold_rate, static_cast<unsigned long long>(t.spilled),
        static_cast<unsigned long long>(t.restored),
        static_cast<unsigned long long>(t.restore_corrupt),
        t.restore_bit_exact ? "true" : "false", t.cold_restore_p50_us,
        t.cold_restore_p99_us, i + 1 < tiering.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  // Stacked serving: L-layer models, sequential vs wavefront-pipelined
  // flush. The regression gate hard-fails when this block is missing or
  // any row has bit_exact=false (every schedule and shard count must
  // reproduce the sequential 1-shard digests exactly).
  std::fprintf(f, "  \"stacked\": [\n");
  for (std::size_t i = 0; i < stacked.size(); ++i) {
    const StackedResult& r = stacked[i];
    std::fprintf(
        f,
        "    {\"layers\": %lld, \"shards\": %lld, \"max_batch\": %lld, "
        "\"pipeline\": %s, \"requests\": %lld, \"wall_ms\": %.2f, "
        "\"wall_rps\": %.1f, \"capacity_rps\": %.1f, \"bit_exact\": %s}%s\n",
        static_cast<long long>(r.layers), static_cast<long long>(r.shards),
        static_cast<long long>(r.max_batch), r.pipeline ? "true" : "false",
        static_cast<long long>(r.requests), r.wall_ms, r.wall_rps,
        r.capacity_rps, r.bit_exact ? "true" : "false",
        i + 1 < stacked.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  // Crash recovery: the journal's group-commit tax and the recovery
  // contract on the real filesystem. The regression gate hard-fails
  // when this block is missing or any row has recovered_bit_exact=
  // false (a resumed run diverging from the uninterrupted oracle is a
  // durability bug, never noise) and warns when the journal-on
  // throughput ratio drifts >20% below the reference.
  std::fprintf(f, "  \"recovery\": [\n");
  for (std::size_t i = 0; i < recovery.size(); ++i) {
    const RecoveryResult& r = recovery[i];
    std::fprintf(
        f,
        "    {\"journal_sync\": \"%s\", \"sessions\": %lld, "
        "\"requests\": %lld, \"baseline_rps\": %.1f, "
        "\"journal_rps\": %.1f, \"journal_ratio\": %.3f, "
        "\"recovery_wall_ms\": %.2f, \"recovered_sessions\": %llu, "
        "\"recovered_records\": %llu, \"recovered_bit_exact\": %s}%s\n",
        r.journal_sync.c_str(), static_cast<long long>(r.sessions),
        static_cast<long long>(r.requests), r.baseline_rps, r.journal_rps,
        r.journal_ratio, r.recovery_wall_ms,
        static_cast<unsigned long long>(r.recovered_sessions),
        static_cast<unsigned long long>(r.recovered_records),
        r.recovered_bit_exact ? "true" : "false",
        i + 1 < recovery.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(
        f,
        "    {\"shards\": %lld, \"max_batch\": %lld, \"sparsity\": %.2f, "
        "\"threshold\": %.4f, \"requests\": %lld, \"mean_batch\": %.2f, "
        "\"observed_sparsity\": %.4f, "
        "\"observed_lane_sparsity\": %.4f, \"wall_ms\": %.2f, "
        "\"wall_rps\": %.1f, \"capacity_rps\": %.1f, "
        "\"p50_us\": %.2f, \"p99_us\": %.2f}%s\n",
        static_cast<long long>(r.shards), static_cast<long long>(r.max_batch),
        r.sparsity_target, static_cast<double>(r.threshold),
        static_cast<long long>(r.requests), r.mean_batch, r.observed_sparsity,
        r.observed_lane_sparsity, r.wall_ms, r.wall_rps, r.capacity_rps,
        r.p50_us, r.p99_us,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto dh = static_cast<num::Index>(flags.get_int("dh", 512));
  const auto dx = static_cast<num::Index>(flags.get_int("dx", 64));
  const auto sessions = static_cast<num::Index>(flags.get_int("sessions", 128));
  const auto requests = static_cast<num::Index>(
      flags.get_int("requests", flags.has("quick") ? 1024 : 4096));

  num::Rng rng(1234);
  nn::LstmCell cell(dx, dh, rng);

  bench::print_header("serving: shard count x max-batch x sparsity");
  std::printf(
      "dh=%lld dx=%lld sessions=%lld requests=%lld kernel_backend=%s "
      "hw_concurrency=%u\n",
      static_cast<long long>(dh), static_cast<long long>(dx),
      static_cast<long long>(sessions), static_cast<long long>(requests),
      num::simd::active_backend().name, std::thread::hardware_concurrency());
  std::printf("%-9s %-7s %-9s %10s %10s %12s %12s %10s %10s\n", "sparsity",
              "shards", "max_batch", "mean_b", "obs_spars", "wall_rps",
              "capacity_rps", "p50_us", "p99_us");

  std::vector<Result> results;
  for (const double sparsity : {0.5, 0.9}) {
    num::Rng calib_rng(99);
    const float threshold = calibrate_threshold(cell, sparsity, calib_rng);
    for (const num::Index shards :
         {num::Index{1}, num::Index{2}, num::Index{4}}) {
      for (const num::Index max_batch :
           {num::Index{1}, num::Index{4}, num::Index{8}}) {
        const Result r = run_config(
            cell, threshold, sparsity, shards, max_batch, sessions, requests,
            static_cast<std::uint64_t>(sparsity * 100.0) * 1000 +
                static_cast<std::uint64_t>(shards * 10 + max_batch));
        results.push_back(r);
        std::printf("%-9.2f %-7lld %-9lld %10.2f %10.3f %12.1f %12.1f %10.2f "
                    "%10.2f\n",
                    r.sparsity_target, static_cast<long long>(r.shards),
                    static_cast<long long>(r.max_batch), r.mean_batch,
                    r.observed_sparsity, r.wall_rps, r.capacity_rps, r.p50_us,
                    r.p99_us);
      }
    }
  }

  // Live mode: the same cell behind the persistent worker loop, paced
  // open-loop, latency measured end-to-end (queueing included). One
  // shard vs four at the two sparsity levels' calibrated thresholds.
  const auto live_gap =
      static_cast<std::int64_t>(flags.get_int("live-gap-us", 100));
  const auto live_requests = static_cast<num::Index>(
      flags.get_int("live-requests", flags.has("quick") ? 512 : 2048));
  std::vector<LiveResult> live_results;
  std::printf("\nlive mode (open loop, gap %lld us): end-to-end latency "
              "includes queueing delay\n",
              static_cast<long long>(live_gap));
  std::printf("%-9s %-7s %-9s %10s %12s %10s %10s\n", "sparsity", "shards",
              "max_batch", "mean_b", "rps", "p50_us", "p99_us");
  for (const double sparsity : {0.5, 0.9}) {
    num::Rng calib_rng(99);
    const float threshold = calibrate_threshold(cell, sparsity, calib_rng);
    for (const num::Index shards : {num::Index{1}, num::Index{4}}) {
      const LiveResult lr = run_live_config(
          cell, threshold, sparsity, shards, /*max_batch=*/8, sessions,
          live_requests, live_gap,
          static_cast<std::uint64_t>(sparsity * 100.0) * 7 + 5);
      live_results.push_back(lr);
      std::printf("%-9.2f %-7lld %-9lld %10.2f %12.1f %10.2f %10.2f\n",
                  lr.sparsity_target, static_cast<long long>(lr.shards),
                  static_cast<long long>(lr.max_batch), lr.mean_batch, lr.rps,
                  lr.p50_us, lr.p99_us);
    }
  }

  // Connection front end: 1000+ concurrent sockets (mixed UNIX + TCP)
  // through the epoll mux, closed loop of window 1 per connection. The
  // connection count is the acceptance floor and stays fixed even under
  // --quick; only the per-connection request count shrinks.
  const auto fe_conns = static_cast<num::Index>(
      flags.get_int("frontend-connections", 1000));
  const auto fe_reqs = static_cast<num::Index>(
      flags.get_int("frontend-reqs", flags.has("quick") ? 4 : 8));
  std::vector<FrontendResult> frontend_results;
  std::printf("\nfront end (epoll mux, %lld conns half unix/half tcp): "
              "per-request RTT through real sockets\n",
              static_cast<long long>(fe_conns));
  std::printf("%-7s %-7s %12s %10s %10s %10s %6s\n", "shards", "reqs/c",
              "rps", "p50_us", "p99_us", "misrouted", "lost");
  {
    num::Rng calib_rng(99);
    const float threshold = calibrate_threshold(cell, 0.9, calib_rng);
    for (const num::Index shards : {num::Index{2}, num::Index{4}}) {
      const FrontendResult fr =
          run_frontend_config(cell, threshold, shards, fe_conns, fe_reqs);
      frontend_results.push_back(fr);
      std::printf("%-7lld %-7lld %12.1f %10.2f %10.2f %10llu %6llu%s\n",
                  static_cast<long long>(fr.shards),
                  static_cast<long long>(fr.reqs_per_conn), fr.rps, fr.p50_us,
                  fr.p99_us, static_cast<unsigned long long>(fr.misrouted),
                  static_cast<unsigned long long>(fr.lost),
                  fr.ok ? "" : "  SETUP FAILED");
    }
  }

  // Spill tier: population 6x the RAM footprint (2 shards x cap 16),
  // dense and encoded flavours, at the high-sparsity threshold where
  // the offset encoding earns its keep.
  std::vector<TieringResult> tiering;
  const std::string spill_dir = "bench_spill_tmp";
  if (::mkdir(spill_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s; skipping tiering section\n",
                 spill_dir.c_str());
  } else {
    num::Rng calib_rng(99);
    const float threshold = calibrate_threshold(cell, 0.9, calib_rng);
    std::printf("\ntiering (spill tier on, sessions 6x RAM cap): hit rates "
                "and cold-restore latency\n");
    std::printf("%-8s %10s %10s %10s %10s %14s %14s\n", "encoded", "hot",
                "warm", "cold", "bit_exact", "restore_p50us", "restore_p99us");
    for (const bool encoded : {false, true}) {
      const TieringResult t = run_tiering(
          cell, threshold, /*sessions=*/96, /*max_sessions=*/16,
          std::min<num::Index>(requests, 2048), encoded, spill_dir,
          encoded ? 31u : 13u);
      tiering.push_back(t);
      std::printf("%-8s %10.3f %10.3f %10.3f %10s %14.2f %14.2f\n",
                  t.encoded ? "yes" : "no", t.hot_rate, t.warm_rate,
                  t.cold_rate, t.restore_bit_exact ? "yes" : "NO",
                  t.cold_restore_p50_us, t.cold_restore_p99_us);
    }
    store::PosixEnv cleanup_env;
    cleanup_env.remove(spill_dir + "/shard_0.seg");
    cleanup_env.remove(spill_dir + "/shard_1.seg");
    ::rmdir(spill_dir.c_str());
  }

  // Stacked serving: L-layer models through the sequential vs the
  // layer-pipelined (wavefront) flush, with a bit-exactness cross-check
  // — every configuration's per-session digests must equal the
  // sequential 1-shard reference of the same model. The regression gate
  // hard-fails if this block is missing or any row is not bit_exact.
  std::vector<StackedResult> stacked_results;
  {
    const auto stacked_requests = std::min<num::Index>(requests, 2048);
    num::Rng calib_rng(99);
    const float threshold = calibrate_threshold(cell, 0.9, calib_rng);
    num::Rng stack_rng(4321);
    std::deque<nn::LstmCell> layer_cells;
    std::deque<core::StatePruner> layer_pruners;
    for (num::Index l = 0; l < 3; ++l) {
      layer_cells.emplace_back(l == 0 ? dx : dh, dh, stack_rng);
      // Slightly different threshold per layer so a layer-order bug
      // cannot cancel out in the digests.
      layer_pruners.emplace_back(core::PrunerConfig::fixed(
          threshold * (1.0f + 0.1f * static_cast<float>(l))));
    }
    std::printf("\nstacked serving (L layers, wavefront pipeline vs "
                "sequential flush): digests vs 1-shard reference\n");
    std::printf("%-7s %-7s %-9s %12s %12s %10s\n", "layers", "shards",
                "pipeline", "wall_rps", "capacity_rps", "bit_exact");
    for (const num::Index layers : {num::Index{2}, num::Index{3}}) {
      std::vector<const nn::LstmCell*> cells;
      std::vector<const core::StatePruner*> pruners;
      for (num::Index l = 0; l < layers; ++l) {
        cells.push_back(&layer_cells[static_cast<std::size_t>(l)]);
        pruners.push_back(&layer_pruners[static_cast<std::size_t>(l)]);
      }
      serve::ServeModel model;
      model.cells = cells;
      model.pruners = pruners;
      serve::DigestTable reference;
      for (const num::Index shards : {num::Index{1}, num::Index{4}}) {
        for (const bool pipeline : {false, true}) {
          serve::DigestTable digests;
          StackedResult sr = run_stacked_config(
              model, dx, layers, shards, /*max_batch=*/4, pipeline, sessions,
              stacked_requests, static_cast<std::uint64_t>(layers) * 1000,
              digests);
          if (reference.empty()) reference = digests;  // 1-shard sequential
          sr.bit_exact = digests == reference;
          stacked_results.push_back(sr);
          std::printf("%-7lld %-7lld %-9s %12.1f %12.1f %10s\n",
                      static_cast<long long>(sr.layers),
                      static_cast<long long>(sr.shards),
                      sr.pipeline ? "on" : "off", sr.wall_rps, sr.capacity_rps,
                      sr.bit_exact ? "yes" : "NO");
        }
      }
    }
  }

  // Crash recovery: journal tax + kill-halfway/restart/resume fidelity
  // on the real filesystem, one row per group-commit mode.
  std::vector<RecoveryResult> recovery_results;
  const std::string recovery_dir = "bench_recovery_tmp";
  if (::mkdir(recovery_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s; skipping recovery section\n",
                 recovery_dir.c_str());
  } else {
    num::Rng calib_rng(99);
    const float threshold = calibrate_threshold(cell, 0.9, calib_rng);
    std::printf("\nrecovery (write-ahead journal, kill at half + resume): "
                "commit tax and bit-exact restart\n");
    std::printf("%-7s %12s %12s %8s %12s %10s %10s\n", "sync", "base_rps",
                "jnl_rps", "ratio", "recover_ms", "sessions", "bit_exact");
    for (const store::JournalSync sync :
         {store::JournalSync::kBatch, store::JournalSync::kNone}) {
      const RecoveryResult rr =
          run_recovery(cell, threshold, /*sessions=*/24,
                       std::min<num::Index>(requests, 2048), sync,
                       recovery_dir);
      recovery_results.push_back(rr);
      std::printf("%-7s %12.1f %12.1f %8.3f %12.2f %10llu %10s\n",
                  rr.journal_sync.c_str(), rr.baseline_rps, rr.journal_rps,
                  rr.journal_ratio, rr.recovery_wall_ms,
                  static_cast<unsigned long long>(rr.recovered_sessions),
                  rr.recovered_bit_exact ? "yes" : "NO");
    }
    store::PosixEnv cleanup_env;
    for (num::Index s = 0; s < 2; ++s) {
      const std::string stem = recovery_dir + "/shard_" + std::to_string(s);
      cleanup_env.remove(stem + ".seg");
      cleanup_env.remove(stem + ".jnl");
      cleanup_env.remove(stem + ".jnl.ckpt");
    }
    ::rmdir(recovery_dir.c_str());
  }

  write_json("BENCH_serving.json", dh, dx, sessions, results, live_results,
             frontend_results, tiering, stacked_results, recovery_results);

  // Echo the headline scaling so CI logs show it without parsing JSON.
  for (const Result& a : results) {
    if (a.shards != 1 || a.max_batch != 1) continue;
    for (const Result& b : results) {
      if (b.shards == 4 && b.max_batch == 1 &&
          b.sparsity_target == a.sparsity_target) {
        std::printf(
            "sparsity %.2f: 4-shard capacity scaling %.2fx over 1 shard "
            "(wall %.2fx at hw_concurrency=%u)\n",
            a.sparsity_target, b.capacity_rps / a.capacity_rps,
            b.wall_rps / a.wall_rps, std::thread::hardware_concurrency());
      }
    }
  }
  return 0;
}
