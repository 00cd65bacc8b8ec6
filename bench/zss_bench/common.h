// Shared pieces of zss_bench: clocks, percentile math, the seeded
// open-loop schedule, the metric list every mode prints, in-memory
// spans with their Chrome-trace writer, and host calibration.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace zss::bench {

/// Monotonic nanoseconds. Every timestamp the benchmark records — the
/// schedule's intended send times, socket send/receive instants, the
/// in-process replay's injected server clock — is on this one clock, so
/// spans from all three sources line up in one trace.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- stats

/// Nearest-rank percentile (p in [0, 100]) of `sorted` (ascending). The
/// value at rank ceil(p/100 * n): an observed sample, never an
/// interpolation, so "p99 <= limit" means 99% of samples met the limit.
double percentile_sorted(std::span<const double> sorted, double p);

/// Sorts a copy and returns the percentile. 0 for an empty input.
double percentile(std::vector<double> values, double p);

/// A percentile is reportable only when at
/// least ten samples lie beyond it, i.e. n * (1 - p/100) >= 10.
bool percentile_supported(std::size_t n, double p);

/// Quartiles exactly as Python's statistics.quantiles(values, n=4)
/// (default 'exclusive' method) computes them — the definition the
/// acceptance rule and compare.py use. Requires values.size() >= 2.
struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// Plain median (mean of the middle pair for even counts).
double median(std::vector<double> values);

/// The tail percentile the benchmark reports for a phase: `values` (in
/// time order) is cut into as many equal consecutive windows of at
/// least `min_window` samples as fit, each window's nearest-rank p-th
/// percentile is taken, and the median of those is returned. One
/// scheduling stall of a shared host lands in one window, so it moves
/// this number by a rank, not by its own length; a system that is slow
/// throughout moves every window. With fewer than 2 * min_window
/// samples this is the pooled percentile.
double windowed_percentile(std::span<const double> values, double p,
                           std::size_t min_window);

// ------------------------------------------------------------- schedule

/// One request of the open-loop schedule: when it is due, which session
/// it steps, and with which token. `phase` indexes the run's phase list.
struct Arrival {
  std::int64_t t_ns = 0;  // intended send time, absolute (now_ns clock)
  std::uint64_t session = 0;
  std::int32_t token = 0;
  std::int32_t phase = 0;
};

/// Who the traffic addresses: sessions 1..sessions, of which the first
/// `hot_sessions` receive `hot_share` of the requests (the rest spread
/// uniformly over the cold remainder), tokens uniform in [0, vocab).
struct TrafficMix {
  std::uint64_t sessions = 256;
  std::uint64_t hot_sessions = 0;
  double hot_share = 0.0;
  std::int32_t vocab = 64;
};

/// Poisson arrivals at `rate` per second for `seconds`, starting at
/// `t0_ns`. A pure function of (seed, stream, rate, seconds, mix):
/// `stream` separates the run's phases so each draws its own sequence,
/// and the same arguments give a byte-identical schedule.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, std::uint64_t stream,
                                      double rate, double seconds,
                                      std::int64_t t0_ns, const TrafficMix& mix,
                                      std::int32_t phase);

/// Back-to-back requests (all due at t0_ns) touching every session
/// `steps_per_session` times in round-robin order — the untimed prefill
/// that leaves a journal behind for the recovery workload.
std::vector<Arrival> prefill_schedule(std::uint64_t seed,
                                      std::uint64_t sessions,
                                      int steps_per_session,
                                      std::int32_t vocab, std::int64_t t0_ns);

// -------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list (printing order is insertion order).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// ---------------------------------------------------------------- spans

/// One span of the traced run: a layer boundary crossed by one request
/// (or one batch). `parent` indexes the span that caused it (-1 = root);
/// `session:n` is the request id shared by every span of one request.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int32_t track = 0;  // Chrome-trace tid: one row per source
  std::uint64_t session = 0;
  std::uint32_t n = 0;     // the request's ordinal within its session
};

/// Spans kept in memory for the whole run and written once at the end
/// (nothing is formatted or flushed while the system is being timed).
class SpanBuffer {
 public:
  std::int32_t add(const Span& s);
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microsecond ts),
  /// loadable by Perfetto and chrome://tracing. `track_names[i]` labels
  /// track i. False on I/O error.
  bool write_chrome(const std::string& path,
                    const std::vector<std::string>& track_names) const;

 private:
  std::vector<Span> spans_;
};

// ----------------------------------------------------------------- host

/// The measured environment: how much parallelism four spinning threads
/// actually get (4 * t1 / t4), what the OS claims, and which SIMD
/// kernel backend the library dispatched to.
struct HostInfo {
  double effective_cores = 0.0;
  unsigned hardware_concurrency = 0;
  std::string kernel_backend;
};

HostInfo calibrate_host();

}  // namespace zss::bench
