#include "server.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

namespace zss::bench {

bool parse_stat_line(std::string_view line, StatLine& out) {
  if (line.substr(0, 5) != "stat ") return false;
  out.clear();
  std::size_t pos = 5;
  while (pos < line.size()) {
    const std::size_t sp = line.find(' ', pos);
    const std::string_view field =
        line.substr(pos, sp == std::string_view::npos ? sp : sp - pos);
    if (!field.empty()) {
      const std::size_t eq = field.find('=');
      if (eq == std::string_view::npos || eq == 0) return false;
      out.emplace(std::string(field.substr(0, eq)),
                  std::string(field.substr(eq + 1)));
    }
    if (sp == std::string_view::npos) break;
    pos = sp + 1;
  }
  return !out.empty();
}

std::uint64_t stat_u64(const StatLine& s, std::string_view key) {
  const auto it = s.find(key);
  if (it == s.end()) return 0;
  std::uint64_t v = 0;
  const char* b = it->second.data();
  const auto [p, ec] = std::from_chars(b, b + it->second.size(), v);
  return ec == std::errc() ? v : 0;
}

ServerProcess::~ServerProcess() { kill_and_reap(); }

bool ServerProcess::start(const std::string& bin,
                          const std::vector<std::string>& args,
                          const std::string& log_prefix, std::string* error) {
  err_path_ = log_prefix + ".err";
  const std::string out_path = log_prefix + ".out";
  std::vector<std::string> argv_s;
  argv_s.push_back(bin);
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  // Empty the log before the child exists: wait_listening must never
  // read an earlier server's "listening" line from the same path.
  std::ofstream(err_path_, std::ios::trunc);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // Child: die with the benchmark, logs to files, then exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int out = ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = ::open(err_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int in = ::open("/dev/null", O_RDONLY);
    if (out < 0 || err < 0 || in < 0) ::_exit(127);
    ::dup2(in, 0);
    ::dup2(out, 1);
    ::dup2(err, 2);
    ::execv(bin.c_str(), argv.data());
    ::_exit(127);
  }
  pid_ = pid;
  port_ = -1;
  exit_code_ = -1;
  return true;
}

bool ServerProcess::wait_listening(int timeout_ms, std::string* error) {
  static constexpr std::string_view kNeedle = "listening on tcp port ";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string buf;
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream f(err_path_);
    buf.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
    const std::size_t at = buf.find(kNeedle);
    if (at != std::string::npos) {
      const std::size_t nl = buf.find('\n', at);
      if (nl != std::string::npos) {
        port_ = std::atoi(buf.c_str() + at + kNeedle.size());
        if (port_ > 0) return true;
      }
    }
    if (wait_exit(0)) {
      *error = "zss_serve exited with code " + std::to_string(exit_code_) +
               " before listening: " + log_tail();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  *error = "zss_serve did not start listening: " + log_tail();
  return false;
}

bool ServerProcess::wait_exit(int timeout_ms) {
  if (pid_ <= 0) return true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
      pid_ = -1;
      return true;
    }
    if (r < 0 && errno != EINTR) {
      pid_ = -1;
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void ServerProcess::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  exit_code_ = 128 + SIGKILL;
  pid_ = -1;
}

std::string ServerProcess::log_tail() const {
  std::ifstream f(err_path_);
  std::string buf((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  if (buf.size() > 600) buf.erase(0, buf.size() - 600);
  return buf;
}

bool read_task_cpu_s(pid_t pid, double* seconds) {
  std::error_code ec;
  std::filesystem::directory_iterator it(
      "/proc/" + std::to_string(pid) + "/task", ec);
  if (ec) return false;
  unsigned long long ns = 0;
  for (const auto& task : it) {
    // schedstat: "<ns on cpu> <ns waiting> <timeslices>".
    std::ifstream f(task.path() / "schedstat");
    unsigned long long run = 0;
    if (f >> run) ns += run;
  }
  *seconds = static_cast<double>(ns) / 1e9;
  return true;
}

bool read_vm_hwm_mb(pid_t pid, double* mb) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      *mb = static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
            1024.0;
      return true;
    }
  }
  return false;
}

}  // namespace zss::bench
