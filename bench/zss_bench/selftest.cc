// zss_bench --selftest: the benchmark's own arithmetic and measurement
// guarantees, checked in well under 20 s.
#include <signal.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "driver.h"
#include "server.h"

namespace zss::bench {

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("selftest %-58s %s\n", what, ok ? "ok" : "FAILED");
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::string bytes_of(const std::vector<Arrival>& v) {
  std::string s;
  for (const Arrival& a : v) {
    s.append(reinterpret_cast<const char*>(&a.t_ns), sizeof a.t_ns);
    s.append(reinterpret_cast<const char*>(&a.session), sizeof a.session);
    s.append(reinterpret_cast<const char*>(&a.token), sizeof a.token);
  }
  return s;
}

void percentile_math() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted input
  check(near(percentile(v, 50), 50) && near(percentile(v, 99), 99) &&
            near(percentile(v, 100), 100) && near(percentile(v, 0), 1),
        "nearest-rank percentiles of 1..100");
  check(near(percentile({7.0}, 99), 7.0) && percentile({}, 50) == 0.0,
        "percentile of one sample / no samples");
  check(percentile_supported(1000, 99) && !percentile_supported(999, 99) &&
            percentile_supported(10000, 99.9) &&
            !percentile_supported(9999, 99.9) &&
            percentile_supported(20, 50),
        "ten-samples-beyond rule");
  // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  // and statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
  const Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  const Quartiles q3 = quartiles({3, 1, 2});
  check(near(q.q1, 2.75) && near(q.median, 5.5) && near(q.q3, 8.25) &&
            near(q3.q1, 1.0) && near(q3.median, 2.0) && near(q3.q3, 3.0),
        "quartiles match statistics.quantiles(n=4)");
}

void schedule_determinism() {
  TrafficMix mix;
  mix.sessions = 4096;
  mix.hot_sessions = 64;
  mix.hot_share = 0.5;
  mix.vocab = 50;
  const auto a = poisson_schedule(5, 1, 4000, 2.0, 0, mix, 0);
  const auto b = poisson_schedule(5, 1, 4000, 2.0, 0, mix, 0);
  const auto c = poisson_schedule(6, 1, 4000, 2.0, 0, mix, 0);
  const auto d = poisson_schedule(5, 2, 4000, 2.0, 0, mix, 0);
  check(!a.empty() && bytes_of(a) == bytes_of(b),
        "same seed gives a byte-identical schedule");
  check(bytes_of(a) != bytes_of(c) && bytes_of(a) != bytes_of(d),
        "another seed or phase stream gives another schedule");
  std::size_t hot = 0;
  bool sorted = true, in_range = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    hot += a[i].session <= 64 ? 1 : 0;
    in_range &= a[i].session >= 1 && a[i].session <= 4096 && a[i].token >= 0 &&
                a[i].token < 50;
    if (i > 0) sorted &= a[i].t_ns >= a[i - 1].t_ns;
  }
  const double n = static_cast<double>(a.size());
  check(std::fabs(n - 8000.0) < 400.0 && sorted && in_range,
        "Poisson schedule: rate, order and ranges");
  check(std::fabs(static_cast<double>(hot) / n - 0.5) < 0.03,
        "hot-set share of the churn mix");
}

void stat_parsing() {
  StatLine s;
  const bool ok = parse_stat_line(
      "stat submitted=12 responses=11 shed=0 now_us=99 spill_active=2/2 "
      "durability=journal model=data/models/tiny_char_lm.zssm quant=off",
      s);
  check(ok && stat_u64(s, "submitted") == 12 && stat_u64(s, "responses") == 11 &&
            s.at("spill_active") == "2/2" && s.at("durability") == "journal" &&
            s.at("model") == "data/models/tiny_char_lm.zssm" &&
            stat_u64(s, "missing") == 0,
        "stat line parsing");
  StatLine t;
  check(!parse_stat_line("ok 1 2 3 abc", t) &&
            !parse_stat_line("stat novalue", t),
        "non-stat and malformed lines rejected");
}

// A 200 ms SIGSTOP of the server must show up in every request due
// during the stall — latencies measured from the intended send time —
// not just in the few requests a closed-loop client would have had in
// flight (coordinated omission).
void stall_guard(const std::string& serve_bin, const std::string& work) {
  std::filesystem::create_directories(work);
  ServerProcess srv;
  std::string error;
  const std::vector<std::string> args = {"--live",  "--tcp=0",   "--shards=1",
                                         "--dh=64", "--dx=16",   "--seed=3",
                                         "--threshold=0.05"};
  bool ok = srv.start(serve_bin, args, work + "/selftest_serve", &error) &&
            srv.wait_listening(20'000, &error);
  TcpDriver d;
  ok = ok && d.connect(srv.port(), 4, &error);
  if (!ok) {
    check(false, ("SIGSTOP stall visible (" + error + ")").c_str());
    return;
  }
  TrafficMix mix;
  mix.sessions = 64;
  mix.vocab = 16;
  constexpr double kRate = 2000.0;
  const std::int64_t t0 = now_ns() + 5'000'000;
  const auto sched = poisson_schedule(1, 1, kRate, 1.2, t0, mix, 0);
  std::vector<Outcome> out(sched.size());
  const pid_t pid = srv.pid();
  std::thread staller([pid, t0] {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t0 - now_ns()) +
                                std::chrono::milliseconds(400));
    ::kill(pid, SIGSTOP);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ::kill(pid, SIGCONT);
  });
  d.run(sched, out, 5'000'000'000LL);
  staller.join();
  std::size_t slow = 0, answered = 0;
  double worst = 0.0;
  for (std::size_t i = 0; i < sched.size(); ++i) {
    if (out[i].done_ns == 0) continue;
    ++answered;
    const double ms = static_cast<double>(out[i].done_ns - sched[i].t_ns) / 1e6;
    worst = std::max(worst, ms);
    slow += ms >= 100.0 ? 1 : 0;
  }
  // Requests due in the first 100 ms of the stall wait >= 100 ms:
  // about kRate * 0.1 = 200 of them.
  std::printf("selftest stall: %zu of %zu requests >= 100 ms, worst %.1f ms\n",
              slow, answered, worst);
  check(answered == sched.size() && slow >= 120 && worst >= 180.0,
        "SIGSTOP stall visible from the intended send time");
  d.quit(10'000);
  srv.wait_exit(10'000);
}

}  // namespace

int run_selftest(const std::string& serve_bin, const std::string& work) {
  const std::int64_t start = now_ns();
  percentile_math();
  schedule_determinism();
  stat_parsing();
  stall_guard(serve_bin, work);
  std::printf("selftest %s in %.1f s\n", g_failures == 0 ? "passed" : "FAILED",
              static_cast<double>(now_ns() - start) / 1e9);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace zss::bench
