// The system under test as a child process: `zss_serve --live --tcp=0`
// launched, timed to its first answered `stats`, observed through /proc,
// and always reaped.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace zss::bench {

/// A parsed "stat key=value ..." line (serve/protocol.h format_stats).
using StatLine = std::map<std::string, std::string, std::less<>>;

/// Parses a `stat` line; false when it is not one or a field lacks '='.
bool parse_stat_line(std::string_view line, StatLine& out);

/// Integer field of a stat line (0 when absent or not a number).
std::uint64_t stat_u64(const StatLine& s, std::string_view key);

/// One zss_serve child. stdout and stderr go to files under the run
/// directory (nobody has to drain a pipe while the server is measured);
/// the child dies with the benchmark (PR_SET_PDEATHSIG), and the
/// destructor SIGKILLs and reaps a child that is still running, so no
/// exit path of the benchmark leaves a server behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// fork+exec `bin` with `args`. False (error set) when fork fails;
  /// an exec failure shows up as an early exit in wait_listening.
  bool start(const std::string& bin, const std::vector<std::string>& args,
             const std::string& log_prefix, std::string* error);

  /// Polls the stderr log for the "listening on tcp port N" line.
  bool wait_listening(int timeout_ms, std::string* error);

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// waitpid with a timeout. True once reaped (exit code stored).
  bool wait_exit(int timeout_ms);
  int exit_code() const { return exit_code_; }

  /// SIGKILL + reap (no-op when not running).
  void kill_and_reap();

 private:
  /// Tail of the stderr log, for diagnostics.
  std::string log_tail() const;

  pid_t pid_ = -1;
  int port_ = -1;
  int exit_code_ = -1;
  std::string err_path_;
};

/// CPU time of a process summed over its live threads, in seconds, at
/// nanosecond resolution (/proc/<pid>/task/*/schedstat). The serving
/// threads live as long as the server, so deltas between two reads are
/// exact.
bool read_task_cpu_s(pid_t pid, double* seconds);

/// Peak resident set size (VmHWM) in MiB.
bool read_vm_hwm_mb(pid_t pid, double* mb);

}  // namespace zss::bench
