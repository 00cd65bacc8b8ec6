#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "num/rng.h"
#include "num/simd/backend.h"

namespace zss::bench {

double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, p);
}

bool percentile_supported(std::size_t n, double p) {
  // Integer form of n * (1 - p/100) >= 10 for the percentiles we print,
  // computed in double with a small guard against representation error.
  return static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9;
}

Quartiles quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<long>(values.size());
  Quartiles q;
  if (ld < 2) {
    if (ld == 1) q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  const long m = ld + 1;
  double out[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.median = out[1];
  q.q3 = out[2];
  return q;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double windowed_percentile(std::span<const double> values, double p,
                           std::size_t min_window) {
  const std::size_t k = std::max<std::size_t>(
      values.size() / std::max<std::size_t>(min_window, 1), 1);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < k; ++w) {
    const std::size_t b = values.size() * w / k;
    const std::size_t e = values.size() * (w + 1) / k;
    per_window.push_back(
        percentile(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(b),
                                       values.begin() + static_cast<std::ptrdiff_t>(e)),
                   p));
  }
  return median(per_window);
}

namespace {

std::uint64_t pick_session(num::Rng& rng, const TrafficMix& mix) {
  const auto cold = static_cast<num::Index>(mix.sessions - mix.hot_sessions);
  if (mix.hot_sessions > 0 && (cold == 0 || rng.uniform() < mix.hot_share)) {
    return 1 + static_cast<std::uint64_t>(
                   rng.below(static_cast<num::Index>(mix.hot_sessions)));
  }
  return mix.hot_sessions + 1 + static_cast<std::uint64_t>(rng.below(cold));
}

}  // namespace

std::vector<Arrival> poisson_schedule(std::uint64_t seed, std::uint64_t stream,
                                      double rate, double seconds,
                                      std::int64_t t0_ns, const TrafficMix& mix,
                                      std::int32_t phase) {
  num::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  const double end_s = seconds;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate;
    if (t >= end_s) break;
    Arrival a;
    a.t_ns = t0_ns + static_cast<std::int64_t>(t * 1e9);
    a.session = pick_session(rng, mix);
    a.token = static_cast<std::int32_t>(rng.below(mix.vocab));
    a.phase = phase;
    out.push_back(a);
  }
  return out;
}

std::vector<Arrival> prefill_schedule(std::uint64_t seed,
                                      std::uint64_t sessions,
                                      int steps_per_session,
                                      std::int32_t vocab, std::int64_t t0_ns) {
  num::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xfeedULL);
  std::vector<Arrival> out;
  out.reserve(sessions * static_cast<std::size_t>(steps_per_session));
  for (int k = 0; k < steps_per_session; ++k) {
    for (std::uint64_t s = 1; s <= sessions; ++s) {
      Arrival a;
      a.t_ns = t0_ns;
      a.session = s;
      a.token = static_cast<std::int32_t>(rng.below(vocab));
      a.phase = -1;
      out.push_back(a);
    }
  }
  return out;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

std::int32_t SpanBuffer::add(const Span& s) {
  spans_.push_back(s);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

bool SpanBuffer::write_chrome(const std::string& path,
                              const std::vector<std::string>& track_names) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::int64_t origin = INT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  if (spans_.empty()) origin = 0;
  std::fprintf(f.get(), "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (std::size_t t = 0; t < track_names.size(); ++t) {
    std::fprintf(f.get(),
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", t, track_names[t].c_str());
    first = false;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"rid\":\"%llu:%u\"}}",
                 first ? "" : ",\n", s.name, s.track,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(std::max<std::int64_t>(
                     s.end_ns - s.start_ns, 0)) /
                     1e3,
                 i, s.parent, static_cast<unsigned long long>(s.session), s.n);
    first = false;
  }
  std::fprintf(f.get(), "\n]}\n");
  return std::ferror(f.get()) == 0;
}

namespace {

// A dependent xorshift chain: pure ALU work the compiler cannot fold or
// vectorize away, so its wall time measures the core it ran on.
std::uint64_t spin(std::uint64_t iters, std::uint64_t x) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

HostInfo calibrate_host() {
  constexpr std::uint64_t kIters = 20'000'000;  // ~15-25 ms on one core
  constexpr int kThreads = 4;
  std::vector<double> ratios;
  std::uint64_t sink = 0;
  auto spin_all = [&sink](std::uint64_t iters) {
    std::vector<std::uint64_t> out(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&out, t, iters] {
        out[static_cast<std::size_t>(t)] =
            spin(iters, 0x9876543ULL + static_cast<std::uint64_t>(t));
      });
    }
    for (std::thread& th : threads) th.join();
    for (const std::uint64_t v : out) sink += v;
  };
  // Untimed: on a virtual machine, vCPUs that sat idle (or whose host
  // was just flushing this guest's writes) are not scheduled again at
  // once; for the first ~200 ms parallel work runs on about one core.
  // That transient is the host waking up, not its steady parallelism.
  const std::int64_t warm_until = now_ns() + 250'000'000;
  while (now_ns() < warm_until) spin_all(kIters / 4);
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t a = now_ns();
    sink += spin(kIters, 0x1234567ULL + static_cast<std::uint64_t>(rep));
    const std::int64_t b = now_ns();
    spin_all(kIters);
    const std::int64_t c = now_ns();
    ratios.push_back(kThreads * static_cast<double>(b - a) /
                     static_cast<double>(c - b));
  }
  HostInfo h;
  // The sink keeps the work observable; it never changes the result.
  h.effective_cores = median(ratios) + (sink == 42 ? 1e-12 : 0.0);
  h.hardware_concurrency = std::thread::hardware_concurrency();
  h.kernel_backend = num::simd::active_backend().name;
  return h;
}

}  // namespace zss::bench
