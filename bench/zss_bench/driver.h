// Open-loop load over TCP: one generator thread, a fixed set of
// connections, every request timed from its *intended* send time.
#pragma once

#include <poll.h>

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "server.h"

namespace zss::bench {

/// What happened to one scheduled request.
struct Outcome {
  std::int64_t sent_ns = 0;  // bytes handed to the kernel (0 = never sent)
  std::int64_t done_ns = 0;  // its `ok` line parsed (0 = no answer)
  std::uint16_t batch = 0;   // batch size the server reported
};

/// One thread drives every connection: it sends each request when its
/// schedule says so — whether or not earlier requests were answered —
/// and parses `ok` lines as they arrive. Session s always travels on
/// connection s % conns, so per-session order is the connection's
/// order; an `ok` for a session that connection never sent is a
/// misroute. Responses are matched to requests per session in FIFO
/// order (the protocol guarantees per-session response order).
class TcpDriver {
 public:
  TcpDriver() = default;
  ~TcpDriver();
  TcpDriver(const TcpDriver&) = delete;
  TcpDriver& operator=(const TcpDriver&) = delete;

  /// Opens `conns` connections to 127.0.0.1:port and reads each `hi`.
  bool connect(int port, int conns, std::string* error);

  /// Drives `sched` (sorted by t_ns) open loop, filling out[i] for
  /// sched[i]. Returns once every request is answered, or `drain_ns`
  /// after the last send (stragglers stay unanswered and count as lost).
  void run(std::span<const Arrival> sched, std::span<Outcome> out,
           std::int64_t drain_ns);

  /// `stats` round trip on connection 0 (call between phases, when
  /// nothing is outstanding). `rtt_ns` (optional) gets the round trip.
  bool stats(StatLine& out, std::int64_t* rtt_ns = nullptr);

  /// Sends `quit` and reads every connection to EOF. True when each
  /// connection's last line was the server's `bye`.
  bool quit(int timeout_ms);

  std::uint64_t errs() const { return errs_; }
  std::uint64_t misrouted() const { return misrouted_; }
  std::uint64_t unexpected() const { return unexpected_; }

 private:
  struct Conn {
    int fd = -1;
    std::string rbuf;
    std::string wbuf;
    std::size_t woff = 0;
    // Requests in wbuf, by end offset: stamped sent when written out.
    std::deque<std::pair<std::size_t, Outcome*>> unsent;
    bool eof = false;
    std::string last_line;
  };

  void flush(Conn& c);
  void pump(std::int64_t timeout_ns);
  void on_line(std::size_t conn, std::string_view line, std::int64_t t_ns);

  std::vector<Conn> conns_;
  std::vector<pollfd> fds_;  // one per connection, reused by pump()
  std::unordered_map<std::uint64_t, std::deque<Outcome*>> pending_;
  std::size_t outstanding_ = 0;
  std::string stat_line_;
  bool got_stat_ = false;
  std::int64_t stat_ns_ = 0;
  std::uint64_t errs_ = 0;
  std::uint64_t misrouted_ = 0;
  std::uint64_t unexpected_ = 0;
};

}  // namespace zss::bench
