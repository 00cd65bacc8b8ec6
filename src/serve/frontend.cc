#include "serve/frontend.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>

namespace zss::serve {

namespace {

// epoll_event.data.u64 tags. Connection ids start at 1 and are offset
// by kConnTagBase so they can never collide with the fixed tags.
constexpr std::uint64_t kTagWake = 0;
constexpr std::uint64_t kTagUnix = 1;
constexpr std::uint64_t kTagTcp = 2;
constexpr std::uint64_t kConnTagBase = 8;

std::int64_t mono_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool set_error(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why + ": " + std::strerror(errno);
  return false;
}

}  // namespace

/// One multiplexed connection. Owned exclusively by the event-loop
/// thread; sinks reach it only through the outbox indirection.
struct Frontend::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  std::string rbuf;              // unterminated tail of the input stream
  std::deque<std::string> wq;    // queued output lines, '\n' included
  std::size_t wq_bytes = 0;
  std::size_t whead = 0;         // send offset into wq.front()
  num::Index inflight = 0;       // submitted minus responded
  bool read_eof = false;         // half-closed or protocol-errored
  bool paused = false;           // EPOLLIN off: write-buffer backpressure
  bool want_write = false;       // EPOLLOUT armed
};

Frontend::Frontend(EnginePool& pool, FrontendConfig config, LiveConfig live)
    : pool_(&pool), config_(std::move(config)) {
  // The sink runs on shard worker threads. Digest folding already
  // happened on the shard (SessionStore::commit_step — the
  // authoritative table, durable under the journal); the response
  // carries the row digest, so the sink only formats and hands the
  // line to the event loop. client == 0 marks an in-process submission
  // with no connection to route to. Only the append that finds the
  // outbox empty wakes the loop: the loop consumes its wakeups before
  // it swaps the outbox out under out_mu_, so a non-empty outbox always
  // has a wakeup pending and the first append after a swap sends one.
  const ResponseSink sink = [this](const Response& r) {
    if (r.client == 0) return;
    std::string line = r.timed_out ? format_error("timeout")
                                   : format_response(r, r.row_digest);
    bool was_empty;
    {
      std::lock_guard<std::mutex> lock(out_mu_);
      was_empty = outbox_.empty();
      outbox_.emplace_back(r.client, std::move(line));
    }
    if (was_empty) wake();
  };
  server_ = std::make_unique<LiveServer>(pool, sink, std::move(live));
}

Frontend::~Frontend() {
  stop();
  join();
  // start() failure paths and never-started fronts still hold fds.
  close_listeners();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void Frontend::wake() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // A full eventfd counter (EAGAIN) already guarantees a pending wake.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void Frontend::close_listeners() {
  if (unix_listener_ >= 0) {
    ::close(unix_listener_);
    unix_listener_ = -1;
    // The multi-accept listener owns the path for the server lifetime;
    // remove it on the way down so the next start finds no stale file.
    ::unlink(config_.unix_path.c_str());
  }
  if (tcp_listener_ >= 0) {
    ::close(tcp_listener_);
    tcp_listener_ = -1;
  }
}

bool Frontend::start(std::string* error) {
  if (config_.unix_path.empty() && config_.tcp_port < 0) {
    if (error != nullptr) *error = "no listener configured (need a UNIX path "
                                   "and/or a TCP port)";
    return false;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return set_error(error, "epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return set_error(error, "eventfd");

  if (!config_.unix_path.empty()) {
    const std::string& path = config_.unix_path;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) *error = "socket path too long: " + path;
      return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // Reclaim a stale socket from a crashed previous run, but refuse to
    // delete anything else at the path (a pasted-wrong --socket= must
    // not destroy a regular file).
    struct stat st{};
    if (::lstat(path.c_str(), &st) == 0) {
      if (!S_ISSOCK(st.st_mode)) {
        if (error != nullptr) {
          *error = "refusing to replace non-socket file: " + path;
        }
        return false;
      }
      ::unlink(path.c_str());
    }
    unix_listener_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (unix_listener_ < 0) return set_error(error, "socket(AF_UNIX)");
    if (::bind(unix_listener_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(unix_listener_, SOMAXCONN) < 0) {
      return set_error(error, "bind/listen " + path);
    }
  }

  if (config_.tcp_port >= 0) {
    tcp_listener_ =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (tcp_listener_ < 0) return set_error(error, "socket(AF_INET)");
    const int yes = 1;
    ::setsockopt(tcp_listener_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    if (::inet_pton(AF_INET, config_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      if (error != nullptr) *error = "bad TCP host: " + config_.tcp_host;
      return false;
    }
    if (::bind(tcp_listener_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(tcp_listener_, SOMAXCONN) < 0) {
      return set_error(error, "bind/listen tcp " + config_.tcp_host + ":" +
                                  std::to_string(config_.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(tcp_listener_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      resolved_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }

  auto add = [this](int fd, std::uint64_t tag) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  };
  if (!add(wake_fd_, kTagWake) ||
      (unix_listener_ >= 0 && !add(unix_listener_, kTagUnix)) ||
      (tcp_listener_ >= 0 && !add(tcp_listener_, kTagTcp))) {
    return set_error(error, "epoll_ctl");
  }

  thread_ = std::thread([this] { run(); });
  return true;
}

void Frontend::stop() {
  // Async-signal-safe by design: an atomic store plus an eventfd write
  // (both signal-safe), no locks — zss_serve's SIGINT handler calls it.
  stop_requested_.store(true, std::memory_order_release);
  wake();
}

void Frontend::join() {
  if (thread_.joinable()) thread_.join();
}

DigestTable Frontend::digests() const {
  // The pool's per-shard authoritative tables, merged (disjoint by
  // shard-pinning). Safe while serving — each copy takes the store's
  // digest mutex — but only quiescent after join().
  return pool_->merged_digests();
}

void Frontend::update_events(Conn& conn) {
  epoll_event ev{};
  ev.events = ((conn.read_eof || conn.paused) ? 0u : unsigned{EPOLLIN}) |
              (conn.want_write ? unsigned{EPOLLOUT} : 0u);
  ev.data.u64 = kConnTagBase + conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Frontend::accept_all(int listener, bool tcp) {
  for (;;) {
    const int fd = ::accept4(listener, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or a racing client that went away
    if (quit_started_) {
      ::close(fd);
      continue;
    }
    if (tcp) {
      // A 12-byte "step" line per round trip is the worst case for
      // Nagle; this is a latency-serving protocol, disable it.
      const int yes = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
    }
    const std::uint64_t id = next_conn_id_++;
    Conn& conn = conns_[id];
    conn.fd = fd;
    conn.id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kConnTagBase + id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      conns_.erase(id);
      continue;
    }
    ++stats_.accepted;
    push_line(conn, format_greeting(id));
    flush_conn(conn);
  }
}

void Frontend::handle_line(Conn& conn, std::string_view line) {
  CommandLine cmd;
  std::string error;
  const ParseStatus st = parse_command(line, cmd, &error);
  if (st == ParseStatus::kBlank) return;
  if (st == ParseStatus::kError) {
    push_line(conn, format_error(error));
    return;
  }
  switch (cmd.op) {
    case CommandLine::Op::kStep: {
      // Fair per-client shedding: this connection at its cap sheds
      // alone; nobody else's requests are touched.
      if (config_.max_queue > 0 && conn.inflight >= config_.max_queue) {
        ++stats_.shed;
        push_line(conn, format_error("overloaded, request shed"));
        return;
      }
      SubmitStatus status = SubmitStatus::kOk;
      if (server_->submit(cmd.session, cmd.token, conn.id, &status)
              .has_value()) {
        ++conn.inflight;
      } else if (status == SubmitStatus::kUnavailable) {
        // The session's shard is quarantined mid-restart; distinct
        // from shedding so a resuming client knows to back off and
        // `sync` rather than hammer.
        push_line(conn, format_error("unavailable, shard restarting"));
      } else {
        push_line(conn, format_error("overloaded, request shed"));
      }
      return;
    }
    case CommandLine::Op::kFlush:
      server_->flush_all();
      return;
    case CommandLine::Op::kStats:
      push_line(conn, format_stats(snapshot_stats(*server_, *pool_)));
      return;
    case CommandLine::Op::kSync: {
      // The session's committed position, read from its shard's
      // authoritative digest table (mutex-protected — safe from this
      // thread). Topology held stable so the shard lookup cannot race
      // a supervisor rebuild.
      SessionDigest d;
      server_->with_stable_topology([&] {
        d = pool_->shard(pool_->shard_of(cmd.session))
                .sessions()
                .digest_of(cmd.session);
      });
      push_line(conn, format_pos(cmd.session, d));
      return;
    }
    case CommandLine::Op::kQuit:
      // Deferred: begin_quit tears down every connection, so finish
      // this read pass first (run() checks the flag each iteration).
      stop_requested_.store(true, std::memory_order_release);
      conn.read_eof = true;
      return;
  }
}

void Frontend::handle_read(Conn& conn) {
  char buf[65536];
  while (!conn.read_eof) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn.rbuf.append(buf, static_cast<std::size_t>(n));
      // Split complete lines off the front; keep the unterminated tail.
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = conn.rbuf.find('\n', start);
        if (nl == std::string::npos) break;
        std::string_view line(conn.rbuf.data() + start, nl - start);
        while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        handle_line(conn, line);
        start = nl + 1;
        if (conn.read_eof) break;  // quit or protocol violation mid-buffer
      }
      conn.rbuf.erase(0, start);
      if (!conn.read_eof && conn.rbuf.size() > config_.max_line) {
        // A stream with no newline in max_line bytes is not speaking
        // the protocol; stop reading it (pending responses still
        // drain, then the connection closes).
        ++stats_.oversize_lines;
        conn.rbuf.clear();
        push_line(conn, format_error("line exceeds protocol maximum"));
        conn.read_eof = true;
      }
      if (conn.paused) break;  // backpressure engaged mid-read
    } else if (n == 0) {
      // Orderly half-close: the client is done sending but may still
      // be reading — deliver what it is owed, then close (the
      // half-open drain path the churn fuzz exercises).
      conn.read_eof = true;
    } else {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      drop_conn(conn);  // ECONNRESET and friends: abrupt death
      return;
    }
  }
  if (conn.read_eof && !conn.rbuf.empty()) {
    ++stats_.discarded_partial;
    conn.rbuf.clear();
  }
  if (conn.read_eof || conn.paused) update_events(conn);
  if (!flush_conn(conn)) return;
  maybe_close(conn);
}

void Frontend::push_line(Conn& conn, std::string line) {
  line.push_back('\n');
  conn.wq_bytes += line.size();
  conn.wq.push_back(std::move(line));
  if (!conn.paused && !conn.read_eof &&
      conn.wq_bytes > config_.max_write_buffer) {
    conn.paused = true;
    ++stats_.read_pauses;
    update_events(conn);
  }
}

bool Frontend::flush_conn(Conn& conn) {
  while (!conn.wq.empty()) {
    const std::string& front = conn.wq.front();
    const ssize_t n = ::send(conn.fd, front.data() + conn.whead,
                             front.size() - conn.whead, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.whead += static_cast<std::size_t>(n);
      conn.wq_bytes -= static_cast<std::size_t>(n);
      if (conn.whead == front.size()) {
        conn.wq.pop_front();
        conn.whead = 0;
      }
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!conn.want_write) {
        conn.want_write = true;
        update_events(conn);
      }
      return true;
    }
    if (errno == EINTR) continue;
    // EPIPE/ECONNRESET: the reader is gone. MSG_NOSIGNAL keeps SIGPIPE
    // away no matter what the process-wide disposition is.
    drop_conn(conn);
    return false;
  }
  if (conn.want_write) {
    conn.want_write = false;
    update_events(conn);
  }
  if (conn.paused && conn.wq_bytes < config_.max_write_buffer / 2) {
    conn.paused = false;
    update_events(conn);
  }
  return true;
}

void Frontend::drain_outbox() {
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    std::swap(outbox_, out_taking_);
  }
  // Group flushes per connection: a run of consecutive responses to
  // one client is queued first and flushed once at the run's end. The
  // flush still issues one send() per queued line (flush_conn walks the
  // queue line by line); the grouping only defers it.
  Conn* last = nullptr;
  for (auto& [client, line] : out_taking_) {
    const auto it = conns_.find(client);
    if (it == conns_.end()) {
      ++stats_.dropped_responses;  // issued, served, but the client died
      continue;
    }
    Conn& conn = it->second;
    if (last != nullptr && last != &conn) {
      if (flush_conn(*last)) maybe_close(*last);
    }
    --conn.inflight;
    push_line(conn, std::move(line));
    last = conns_.count(client) ? &conns_.at(client) : nullptr;
  }
  if (last != nullptr) {
    if (flush_conn(*last)) maybe_close(*last);
  }
  out_taking_.clear();
}

void Frontend::maybe_close(Conn& conn) {
  // Graceful end of a connection: nothing more will be read, nothing
  // is owed (in-flight responses included), nothing left to write.
  // Once a quit is pending (stop_requested_ covers the window between
  // a `quit` line and begin_quit at the end of this loop pass), leave
  // connections open — every client is owed a `bye` first.
  if (conn.read_eof && conn.inflight == 0 && conn.wq.empty() &&
      !quit_started_ &&
      !stop_requested_.load(std::memory_order_acquire)) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    ++stats_.disconnected;
    conns_.erase(conn.id);
  }
}

void Frontend::drop_conn(Conn& conn) {
  if (!conn.rbuf.empty()) ++stats_.discarded_partial;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  ++stats_.disconnected;
  conns_.erase(conn.id);
}

void Frontend::begin_quit() {
  if (quit_started_) return;
  quit_started_ = true;
  close_listeners();
  // Blocks until every accepted request is served; the sinks keep
  // appending to the outbox meanwhile (they never touch the loop).
  server_->shutdown();
  drain_outbox();
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, c] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn& conn = it->second;
    conn.read_eof = true;
    push_line(conn, format_bye(server_->submitted(), server_->responded()));
    update_events(conn);
    flush_conn(conn);
  }
  linger_deadline_us_ = mono_us() + config_.linger_us;
}

void Frontend::run() {
  epoll_event evs[64];
  for (;;) {
    int timeout_ms = -1;
    if (quit_started_) {
      bool all_flushed = true;
      for (const auto& [id, c] : conns_) {
        if (!c.wq.empty()) all_flushed = false;
      }
      const std::int64_t left = linger_deadline_us_ - mono_us();
      if (all_flushed || left <= 0) break;
      timeout_ms = static_cast<int>(left / 1000) + 1;
    }
    const int n = ::epoll_wait(epoll_fd_, evs, 64, timeout_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = evs[i].data.u64;
      if (tag == kTagWake) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof drained) > 0) {
        }
      } else if (tag == kTagUnix) {
        accept_all(unix_listener_, /*tcp=*/false);
      } else if (tag == kTagTcp) {
        accept_all(tcp_listener_, /*tcp=*/true);
      } else {
        const auto it = conns_.find(tag - kConnTagBase);
        if (it == conns_.end()) continue;  // closed earlier this pass
        Conn& conn = it->second;
        if (evs[i].events & EPOLLERR) {
          drop_conn(conn);
          continue;
        }
        if (evs[i].events & EPOLLOUT) {
          if (!flush_conn(conn)) continue;
        }
        if (evs[i].events & (EPOLLIN | EPOLLHUP)) {
          // EPOLLHUP without data still lands here: recv returns 0 or
          // an error and the connection takes the EOF/drop path.
          handle_read(conn);
        } else {
          maybe_close(conn);
        }
      }
    }
    drain_outbox();
    if (stop_requested_.load(std::memory_order_acquire)) begin_quit();
  }
  // Loop exit: either every queue flushed or the linger budget is
  // spent. Close whatever is left (slow readers lose the tail — they
  // had linger_us to take it).
  for (auto& [id, conn] : conns_) {
    ::close(conn.fd);
    ++stats_.disconnected;
  }
  conns_.clear();
  if (!quit_started_) {
    // epoll_wait failed hard before any quit: still drain the server
    // so join()ed callers get a consistent digest table.
    close_listeners();
    server_->shutdown();
  }
}

StatsSnapshot snapshot_stats(const LiveServer& server,
                             const EnginePool& pool) {
  // Every counter here is either the server's own atomic or a
  // relaxed-atomic session-store counter written by its owning shard
  // thread (serve/session.h) — safe to snapshot while workers serve.
  StatsSnapshot snap;
  snap.submitted = server.submitted();
  snap.responses = server.responded();
  snap.shed = server.shed();
  snap.now_us = server.now_us();
  snap.shards = pool.num_shards();
  snap.restarts = server.restarts();
  snap.quarantined = server.quarantined();
  // The shard walk runs with the topology frozen so a concurrent
  // supervisor rebuild can never swap a slot mid-read.
  server.with_stable_topology([&] {
    for (num::Index s = 0; s < pool.num_shards(); ++s) {
      const EngineShard& shard = pool.shard(s);
      const SessionStore& ss = shard.sessions();
      snap.created += ss.created();
      snap.ttl_resets += ss.ttl_resets();
      snap.evicted += ss.evicted();
      snap.spilled += ss.spilled();
      snap.restored += ss.restored();
      snap.restore_corrupt += ss.restore_corrupt();
      snap.timeouts += shard.timeouts();
      if (ss.spill_active()) ++snap.spill_active;
      if (ss.journal_active()) ++snap.journal_active;
    }
    if (pool.journal(0) != nullptr) {
      snap.durability = "journal";
    } else if (pool.spill_store(0) != nullptr) {
      snap.durability = "spill";
    } else {
      snap.durability = "off";
    }
  });
  const ModelInfo& mi = pool.model_info();
  snap.model = mi.name;
  snap.layers = mi.layers;
  snap.dh = mi.dh;
  snap.vocab = mi.vocab;
  snap.quant = mi.quant;
  return snap;
}

}  // namespace zss::serve
