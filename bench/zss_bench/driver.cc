#include "driver.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace zss::bench {

namespace {

bool parse_u64(std::string_view s, std::uint64_t& v) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc() && p == s.data() + s.size();
}

// Splits "ok <session> <seq> <batch> <digest>" without allocating.
bool parse_ok(std::string_view line, std::uint64_t& session,
              std::uint64_t& batch) {
  std::string_view f[5];
  std::size_t n = 0, pos = 0;
  while (n < 5 && pos <= line.size()) {
    const std::size_t sp = line.find(' ', pos);
    f[n++] = line.substr(pos, sp == std::string_view::npos ? sp : sp - pos);
    if (sp == std::string_view::npos) break;
    pos = sp + 1;
  }
  return n == 5 && f[0] == "ok" && parse_u64(f[1], session) &&
         parse_u64(f[3], batch);
}

}  // namespace

TcpDriver::~TcpDriver() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

bool TcpDriver::connect(int port, int conns, std::string* error) {
  // The generator sleeps in ppoll until the next intended send; the
  // default 50 us timer slack would add that much to every send.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  conns_.resize(static_cast<std::size_t>(conns));
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    const int yes = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  // Every connection is greeted with "hi <conn>" before anything else.
  const std::int64_t deadline = now_ns() + 5'000'000'000LL;
  for (;;) {
    bool all = true;
    for (const Conn& c : conns_) {
      if (c.last_line.rfind("hi ", 0) != 0) all = false;
    }
    if (all) return true;
    if (now_ns() > deadline) {
      *error = "no greeting from the server";
      return false;
    }
    pump(10'000'000);
  }
}

void TcpDriver::flush(Conn& c) {
  while (c.woff < c.wbuf.size()) {
    const ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff,
                             c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      c.eof = true;  // the server is gone; pending requests stay lost
      c.wbuf.clear();
      c.woff = 0;
      c.unsent.clear();
      return;
    }
    c.woff += static_cast<std::size_t>(n);
  }
  const std::int64_t t = now_ns();
  while (!c.unsent.empty() && c.unsent.front().first <= c.woff) {
    c.unsent.front().second->sent_ns = t;
    c.unsent.pop_front();
  }
  if (c.woff == c.wbuf.size()) {
    c.wbuf.clear();
    c.woff = 0;
  }
}

void TcpDriver::on_line(std::size_t conn, std::string_view line,
                        std::int64_t t_ns) {
  Conn& c = conns_[conn];
  if (line.rfind("ok ", 0) == 0) {
    std::uint64_t session = 0, batch = 0;
    if (!parse_ok(line, session, batch)) {
      ++unexpected_;
      return;
    }
    if (session % conns_.size() != conn) {
      ++misrouted_;
      return;
    }
    const auto it = pending_.find(session);
    if (it == pending_.end() || it->second.empty()) {
      ++unexpected_;
      return;
    }
    Outcome* o = it->second.front();
    it->second.pop_front();
    o->done_ns = t_ns;
    o->batch = static_cast<std::uint16_t>(batch);
    --outstanding_;
    return;
  }
  if (line.rfind("err ", 0) == 0) {
    ++errs_;
    return;
  }
  if (line.rfind("stat ", 0) == 0) {
    stat_line_.assign(line);
    got_stat_ = true;
    stat_ns_ = t_ns;
    return;
  }
  c.last_line.assign(line);  // hi / bye / anything else
}

void TcpDriver::pump(std::int64_t timeout_ns) {
  const std::size_t n = conns_.size();
  fds_.resize(n);
  pollfd* fds = fds_.data();
  for (std::size_t i = 0; i < n; ++i) {
    fds[i].fd = conns_[i].eof ? -1 : conns_[i].fd;
    fds[i].events = static_cast<short>(
        POLLIN | (conns_[i].wbuf.empty() ? 0 : POLLOUT));
    fds[i].revents = 0;
  }
  timespec ts{};
  if (timeout_ns > 0) {
    ts.tv_sec = timeout_ns / 1'000'000'000;
    ts.tv_nsec = timeout_ns % 1'000'000'000;
  }
  const int r = ::ppoll(fds, n, &ts, nullptr);
  if (r <= 0) return;
  char buf[65536];
  for (std::size_t i = 0; i < n; ++i) {
    Conn& c = conns_[i];
    if (fds[i].revents & POLLOUT) flush(c);
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    for (;;) {
      const ssize_t got = ::recv(c.fd, buf, sizeof buf, 0);
      if (got > 0) {
        const std::int64_t t = now_ns();
        c.rbuf.append(buf, static_cast<std::size_t>(got));
        std::size_t start = 0;
        for (;;) {
          const std::size_t nl = c.rbuf.find('\n', start);
          if (nl == std::string::npos) break;
          on_line(i, std::string_view(c.rbuf).substr(start, nl - start), t);
          start = nl + 1;
        }
        c.rbuf.erase(0, start);
        continue;
      }
      if (got == 0) {
        c.eof = true;
      } else if (errno == EINTR) {
        continue;
      } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
        c.eof = true;
      }
      break;
    }
  }
}

void TcpDriver::run(std::span<const Arrival> sched, std::span<Outcome> out,
                    std::int64_t drain_ns) {
  const std::size_t n = sched.size();
  const std::size_t nc = conns_.size();
  std::size_t next = 0;
  std::int64_t last_send = now_ns();
  char line[64];
  for (;;) {
    std::int64_t now = now_ns();
    if (next < n && sched[next].t_ns <= now) {
      while (next < n && sched[next].t_ns <= now) {
        const Arrival& a = sched[next];
        Conn& c = conns_[a.session % nc];
        const int len = std::snprintf(line, sizeof line, "step %llu %d\n",
                                      static_cast<unsigned long long>(a.session),
                                      a.token);
        c.wbuf.append(line, static_cast<std::size_t>(len));
        c.unsent.emplace_back(c.wbuf.size(), &out[next]);
        pending_[a.session].push_back(&out[next]);
        ++outstanding_;
        ++next;
      }
      for (Conn& c : conns_) {
        if (!c.wbuf.empty() && !c.eof) flush(c);
      }
      now = now_ns();
      last_send = now;
    }
    if (next >= n && (outstanding_ == 0 || now - last_send > drain_ns)) break;
    const std::int64_t timeout =
        next < n ? sched[next].t_ns - now : std::min<std::int64_t>(
                                                last_send + drain_ns - now,
                                                10'000'000);
    pump(timeout);
  }
  // Whatever is still pending was never answered within the drain
  // window: forget it so a late line counts as unexpected, not as the
  // answer to a later request of the same session.
  for (auto& [session, q] : pending_) q.clear();
  outstanding_ = 0;
}

bool TcpDriver::stats(StatLine& out, std::int64_t* rtt_ns) {
  got_stat_ = false;
  Conn& c = conns_[0];
  const std::int64_t t0 = now_ns();
  c.wbuf.append("stats\n");
  flush(c);
  const std::int64_t deadline = t0 + 5'000'000'000LL;
  while (!got_stat_ && !c.eof && now_ns() < deadline) pump(5'000'000);
  if (!got_stat_) return false;
  if (rtt_ns != nullptr) *rtt_ns = stat_ns_ - t0;
  return parse_stat_line(stat_line_, out);
}

bool TcpDriver::quit(int timeout_ms) {
  Conn& c0 = conns_[0];
  c0.wbuf.append("quit\n");
  flush(c0);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_ms) * 1'000'000;
  for (;;) {
    bool open = false;
    for (const Conn& c : conns_) open |= !c.eof;
    if (!open || now_ns() > deadline) break;
    pump(10'000'000);
  }
  bool all_bye = true;
  for (const Conn& c : conns_) {
    all_bye &= c.eof && c.last_line.rfind("bye ", 0) == 0;
  }
  return all_bye;
}

}  // namespace zss::bench
