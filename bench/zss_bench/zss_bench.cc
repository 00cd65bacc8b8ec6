// zss_bench — the repository benchmark: open-loop load through the real
// TCP front end, end-to-end metrics from an untraced run, per-layer
// metrics and a Chrome trace from a traced run. README.md beside this
// file lists every metric, workload and the layer -> end-to-end map.
//
//   zss_bench --seed=1 [--workload=NAME|all] [--seconds=20] [--traced]
//             [--out=FILE] [--repeat=K] [--calibrate] [--selftest]
//
// Each run launches `zss_serve --live --tcp=0` as a child process, times
// its set-up, drives a seeded Poisson schedule from one generator
// thread over four connections, reads the server's `stats` line and
// /proc around each phase, asks it to `quit`, and checks the digest
// table it writes against an in-process oracle. Every metric is printed
// as `workload metric value unit`; the last stdout line is one JSON
// object {correct, attempted, failed, metrics}. Exit status is 0 only
// when every run's outputs were correct.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "driver.h"
#include "inproc.h"
#include "server.h"
#include "workload.h"

namespace zss::bench {

int run_selftest(const std::string& serve_bin, const std::string& work);

namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ workloads

// Rates are steps/s. r1 keeps batches near 1 (the batch-1 path), r3 sits
// near half the measured SLO rate (the multi-lane path under queueing).
std::vector<Workload> all_workloads() {
  std::vector<Workload> v;
  {
    Workload w;
    w.name = "stream-fp32";
    w.why = "fp32 skip path at 0.9 lane sparsity (the paper's regime): "
            "engine and kernels dominate; the baseline the others pair with";
    w.thresholds = {0.04f};  // 0.90 lane sparsity on this seeded cell
    w.mix.sessions = 256;
    w.mix.vocab = kSeededDx;
    w.rate[0] = 1500;
    w.rate[1] = 6000;
    w.rate[2] = 22000;
    v.push_back(w);
  }
  {
    Workload w;
    w.name = "stacked-int8";
    w.why = "int8 datapath through two stacked 512-wide layers at 0.6 "
            "sparsity, where sparse int8 loses to dense int8";
    w.model = Workload::Model::kWrittenCheckpoint;
    w.thresholds = {0.25f, 0.25f};  // ~0.6 per layer (weights x8)
    w.quant = true;
    w.mix.sessions = 256;
    w.mix.vocab = kSeededDx;
    w.rate[0] = 1250;
    w.rate[1] = 2500;
    w.rate[2] = 5500;
    v.push_back(w);
  }
  {
    Workload w = v.front();
    w.name = "stream-fp32-journal";
    w.why = "stream-fp32 plus a synced write-ahead journal; set-up recovers "
            "a killed instance's journal: isolates commit tax and recovery";
    w.journal = true;
    w.p99_limit_us = 25000.0;
    w.rate[2] = 11000;
    v.push_back(w);
  }
  {
    Workload w;
    w.name = "churn-tiered-charlm";
    w.why = "tiny trained char LM, 4096 sessions over a 64-per-shard RAM "
            "cap: session store, spill/restore and front end dominate";
    w.model = Workload::Model::kCheckpointFile;
    w.checkpoint = "data/models/tiny_char_lm.zssm";
    w.max_sessions = 64;
    w.mix.sessions = 4096;
    w.mix.hot_sessions = 64;
    w.mix.hot_share = 0.5;
    w.mix.vocab = 50;
    w.rate[0] = 1500;
    w.rate[1] = 6000;
    w.rate[2] = 16000;
    v.push_back(w);
  }
  return v;
}

// The end-to-end metrics BENCHMARK.json bounds (--calibrate proposes
// their bounds; run.py checks every printed name against that file).
constexpr const char* kEndToEnd[] = {
    "setup_s",       "lat_p50_us.r1",   "lat_p50_us.r2", "lat_p50_us.r3",
    "slo_rps",       "cpu_us_per_step", "peak_rss_mb",
};

// ---------------------------------------------------------------- options

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool traced = false;
  std::string out;
  std::string work = ".bench_build/work";
  std::string serve_bin;
  int repeat = 1;
  bool calibrate = false;
  bool selftest = false;
};

bool parse_options(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      const std::string prefix = std::string("--") + name + "=";
      return a.rfind(prefix, 0) == 0 ? a.c_str() + prefix.size() : nullptr;
    };
    if (const char* v = value("workload")) {
      o.workload = v;
    } else if (const char* v = value("seed")) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("seconds")) {
      o.seconds = std::atof(v);
    } else if (const char* v = value("out")) {
      o.out = v;
    } else if (const char* v = value("work")) {
      o.work = v;
    } else if (const char* v = value("repeat")) {
      o.repeat = std::atoi(v);
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--calibrate") {
      o.calibrate = true;
    } else if (a == "--selftest") {
      o.selftest = true;
    } else {
      std::fprintf(stderr, "zss_bench: unknown flag %s\n", a.c_str());
      return false;
    }
  }
  if (o.seconds < 4.0 || o.seconds > 120.0 || o.repeat < 1) {
    std::fprintf(stderr, "zss_bench: need 4 <= --seconds <= 120, --repeat >= 1\n");
    return false;
  }
  // zss_serve is built beside this binary (CMakeLists.txt).
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  o.serve_bin = (self.parent_path() / "zss_serve").string();
  return true;
}

// ------------------------------------------------------------ one run

// Phase ids carried in Arrival::phase: 0..2 are the fixed rates r1..r3.
constexpr std::int32_t kWarm = 9;
constexpr std::int32_t kR2Untraced = 8;
constexpr std::int32_t kProbe = 10;

// The fixed rates are driven as short interleaved segments (round k
// runs r1, r2, r3 rotated by k), so each rate is sampled across the
// whole run rather than in one block that a noisy stretch of a shared
// host could cover alone.
constexpr int kRounds = 8;

constexpr double kMissUs = 1e9;  // a failed request misses every limit
constexpr double kMaxGenLagUs = 200.0;

struct Phase {
  std::vector<Arrival> sched;
  std::vector<Outcome> out;
};

struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;  // the BENCHMARK.json set: end-to-end or per-layer
  Metrics extra;    // printed context: sample counts, p99.9, counters
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

// Windows of the windowed tail percentiles: >= 1000 samples each, so a
// window's p99 has ten samples beyond it.
constexpr std::size_t kTailWindow = 1000;

using Segments = std::vector<const Phase*>;

/// Latency from the intended send time, in time order across segments.
std::vector<double> latencies_us(const Segments& segs) {
  std::vector<double> v;
  for (const Phase* p : segs) {
    for (std::size_t i = 0; i < p->sched.size(); ++i) {
      const Outcome& o = p->out[i];
      v.push_back(o.done_ns != 0
                      ? static_cast<double>(o.done_ns - p->sched[i].t_ns) / 1e3
                      : kMissUs);
    }
  }
  return v;
}

std::size_t unanswered(const Segments& segs) {
  std::size_t n = 0;
  for (const Phase* p : segs) {
    for (const Outcome& o : p->out) n += o.done_ns == 0 ? 1 : 0;
  }
  return n;
}

/// Requests per batch, from the batch size each `ok` line reports
/// (a batch of b contributes b responses, so it counts 1/b per line).
double mean_batch(const Segments& segs) {
  double batches = 0.0, n = 0.0;
  for (const Phase* p : segs) {
    for (const Outcome& o : p->out) {
      if (o.done_ns != 0 && o.batch > 0) {
        batches += 1.0 / o.batch;
        n += 1.0;
      }
    }
  }
  return batches > 0 ? n / batches : 0.0;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

class Runner {
 public:
  Runner(const Options& opt, const Workload& w, std::uint64_t seed,
         const HostInfo& host)
      : opt_(opt), w_(w), seed_(seed), host_(host) {
    dir_ = opt.work + "/" + w.name;
    result_.workload = w.name;
    result_.seed = seed;
    result_.traced = opt.traced;
  }

  RunResult run();

 private:
  bool prepare();
  std::vector<std::string> server_args(const std::string& spill) const;
  bool start_server(ServerProcess& srv, const std::string& spill,
                    const std::string& tag, double* setup_s);
  bool prefill();
  bool setup();
  Phase& drive(std::int32_t phase_id, std::uint64_t stream, double rate,
               double seconds);
  bool meets_slo(const Segments& segs) const;
  double slo_search();
  bool finish_and_check();
  void end_to_end_metrics();
  void per_layer_metrics();

  double T(double frac) const { return opt_.seconds * frac; }

  const Options& opt_;
  const Workload& w_;
  std::uint64_t seed_;
  HostInfo host_;
  std::string dir_;
  std::string ckpt_;
  RunResult result_;

  std::vector<Arrival> prefill_steps_;
  std::string prefill_dir_;
  std::vector<double> setups_;
  std::unique_ptr<ServerProcess> server_;
  std::unique_ptr<TcpDriver> drv_;
  std::deque<Phase> phases_;  // every driven phase, in order (oracle input)
  Segments fixed_[3];         // r1..r3 segments, in time order
  Segments r2_untraced_;      // traced run: r2 segments without spans
  StatLine stat_first_, stat_last_;
  double cpu_us_per_step_ = 0.0;
  double peak_rss_mb_ = 0.0;
  double slo_rps_ = 0.0;
  double gen_lag_p99_us_ = 0.0;
  std::vector<double> socket_rtt_us_;
};

bool Runner::prepare() {
  std::error_code ec;
  fs::remove_all(dir_, ec);
  fs::create_directories(dir_, ec);
  if (ec) {
    result_.fail("cannot create " + dir_ + ": " + ec.message());
    return false;
  }
  if (w_.model == Workload::Model::kWrittenCheckpoint) {
    ckpt_ = dir_ + "/model.zssm";
    std::string error;
    if (!write_checkpoint(w_, ckpt_, &error)) {
      result_.fail("writing checkpoint: " + error);
      return false;
    }
  } else if (w_.model == Workload::Model::kCheckpointFile) {
    ckpt_ = w_.checkpoint;
    if (!fs::exists(ckpt_)) {
      result_.fail("missing " + ckpt_ + " (run from the repository root)");
      return false;
    }
  }
  if (!fs::exists(opt_.serve_bin)) {
    result_.fail("missing server binary " + opt_.serve_bin);
    return false;
  }
  return true;
}

std::vector<std::string> Runner::server_args(const std::string& spill) const {
  std::vector<std::string> a = {
      "--live",
      "--tcp=0",
      "--shards=" + std::to_string(kShards),
      "--max-batch=" + std::to_string(kMaxBatch),
      "--max-wait-us=" + std::to_string(kMaxWaitUs),
      "--digests=" + dir_ + "/digests.txt",
  };
  if (w_.model == Workload::Model::kRandomCell) {
    a.push_back("--dh=" + std::to_string(kSeededDh));
    a.push_back("--dx=" + std::to_string(kSeededDx));
    a.push_back("--threshold=" + fmt(w_.thresholds.at(0)));
    a.push_back("--seed=" + std::to_string(kModelSeed));
  } else {
    a.push_back("--model=" + ckpt_);
  }
  if (w_.quant) a.push_back("--quant");
  if (!spill.empty()) a.push_back("--spill-dir=" + spill);
  if (w_.journal) {
    a.push_back("--durability=journal");
    a.push_back("--journal-sync=batch");
  }
  if (w_.max_sessions > 0) {
    a.push_back("--max-sessions=" + std::to_string(w_.max_sessions));
  }
  if (w_.max_sessions > 0) a.push_back("--spill-encoded");
  return a;
}

bool Runner::start_server(ServerProcess& srv, const std::string& spill,
                          const std::string& tag, double* setup_s) {
  std::string error;
  const std::int64_t t0 = now_ns();
  bool ok = srv.start(opt_.serve_bin, server_args(spill), dir_ + "/" + tag,
                      &error) &&
            srv.wait_listening(30'000, &error);
  if (ok) {
    // Set-up ends when the server answers its first `stats`.
    TcpDriver first;
    StatLine st;
    ok = first.connect(srv.port(), 1, &error) && first.stats(st);
    if (!ok && error.empty()) error = "no stats answer";
  }
  if (!ok) {
    result_.fail("server start (" + tag + "): " + error);
    return false;
  }
  if (setup_s != nullptr) *setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return true;
}

bool Runner::prefill() {
  // An instance serves every session a few steps, is SIGKILLed once all
  // of them were answered (so committed == answered), and leaves its
  // journal behind for the timed set-ups to recover.
  prefill_dir_ = dir_ + "/prefill";
  ServerProcess srv;
  if (!start_server(srv, prefill_dir_, "prefill", nullptr)) return false;
  TcpDriver d;
  std::string error;
  if (!d.connect(srv.port(), 4, &error)) {
    result_.fail("prefill connect: " + error);
    return false;
  }
  prefill_steps_ = prefill_schedule(seed_, w_.mix.sessions, kPrefillSteps,
                                    w_.mix.vocab, now_ns());
  std::vector<Outcome> out(prefill_steps_.size());
  d.run(prefill_steps_, out, 30'000'000'000LL);
  for (const Outcome& o : out) {
    if (o.done_ns == 0) {
      result_.fail("prefill step unanswered");
      return false;
    }
  }
  srv.kill_and_reap();
  return true;
}

bool Runner::setup() {
  const int n = opt_.traced ? 1 : 7;
  for (int k = 0; k < n; ++k) {
    std::string spill;
    if (w_.has_spill_dir()) {
      spill = dir_ + "/spill_" + std::to_string(k);
      if (!prefill_dir_.empty()) {
        // Every set-up recovers an identical copy of the killed
        // instance's files.
        std::error_code ec;
        fs::copy(prefill_dir_, spill, ec);
        if (ec) {
          result_.fail("copy prefill: " + ec.message());
          return false;
        }
      }
    }
    auto srv = std::make_unique<ServerProcess>();
    double s = 0.0;
    if (!start_server(*srv, spill, "serve_" + std::to_string(k), &s)) {
      return false;
    }
    setups_.push_back(s);
    if (k + 1 < n) {
      srv->kill_and_reap();
    } else {
      server_ = std::move(srv);
    }
  }
  drv_ = std::make_unique<TcpDriver>();
  std::string error;
  if (!drv_->connect(server_->port(), 4, &error)) {
    result_.fail("connect: " + error);
    return false;
  }
  return true;
}

Phase& Runner::drive(std::int32_t phase_id, std::uint64_t stream, double rate,
                     double seconds) {
  Phase& p = phases_.emplace_back();
  p.sched = poisson_schedule(seed_, stream, rate, seconds, now_ns() + 2'000'000,
                             w_.mix, phase_id);
  p.out.assign(p.sched.size(), Outcome{});
  drv_->run(p.sched, p.out, 5'000'000'000LL);
  return p;
}

bool Runner::meets_slo(const Segments& segs) const {
  // Windowed p99 (failures counted as misses) within the limit and
  // <= 0.1% failures. A growing backlog lifts every window's p99.
  const std::vector<double> lat = latencies_us(segs);
  return windowed_percentile(lat, 99, kTailWindow) <= w_.p99_limit_us &&
         static_cast<double>(unanswered(segs)) <=
             0.001 * static_cast<double>(lat.size());
}

double Runner::slo_search() {
  // Highest rate that meets the SLO. The fixed phases already bracket
  // it: the highest passing rate below the lowest failing one. Probes
  // extend the bracket by x1.25 steps when every fixed rate passed (or
  // divide r1 when none did), then bisect it geometrically to 6.25%.
  constexpr int kMaxProbes = 6;
  double lo = 0.0, hi = 0.0;
  for (int r = 2; r >= 0; --r) {
    if (meets_slo(fixed_[r])) {
      lo = w_.rate[r];
      break;
    }
    hi = w_.rate[r];
  }
  int probes = 0;
  auto passes = [&](double rate) {
    // 1.5 s at T=20: long enough that a rate above capacity builds a
    // queue every window sees, and that a short dip in the host's
    // capacity does not fail a rate it sustains.
    const Phase& p = drive(kProbe + probes,
                           100 + static_cast<std::uint64_t>(probes), rate,
                           T(0.075));
    ++probes;
    const bool ok = meets_slo({&p});
    result_.extra.set("slo.probe" + std::to_string(probes) +
                          (ok ? "_rps.pass" : "_rps.fail"),
                      rate, "steps/s");
    // Let a failed probe's queue drain before the next one starts.
    std::this_thread::sleep_for(std::chrono::milliseconds(ok ? 20 : 200));
    return ok;
  };
  while (probes < kMaxProbes && hi == 0.0) {
    const double rate = lo * 1.25;
    (passes(rate) ? lo : hi) = rate;
  }
  while (probes < kMaxProbes && lo == 0.0) {
    const double rate = hi / 1.25;
    (passes(rate) ? lo : hi) = rate;
  }
  while (probes < kMaxProbes && lo > 0.0 && hi / lo > 1.0625) {
    const double mid = std::sqrt(lo * hi);
    (passes(mid) ? lo : hi) = mid;
  }
  result_.extra.set("slo.probes", probes, "count");
  return lo;
}

serve::DigestTable read_digest_file(const std::string& path, bool* ok) {
  serve::DigestTable t;
  std::ifstream f(path);
  *ok = static_cast<bool>(f);
  std::string line;
  while (std::getline(f, line)) {
    unsigned long long id = 0, steps = 0, digest = 0;
    if (std::sscanf(line.c_str(), "session %llu steps %llu digest %llx", &id,
                    &steps, &digest) == 3) {
      t[id] = serve::SessionDigest{steps, digest};
    }
  }
  return t;
}

bool Runner::finish_and_check() {
  const bool bye = drv_->quit(20'000);
  if (!server_->wait_exit(30'000)) {
    result_.fail("server did not exit after quit");
    server_->kill_and_reap();
    return false;
  }
  if (!bye) result_.fail("not every connection received bye");
  if (server_->exit_code() != 0) {
    result_.fail("server exit code " + std::to_string(server_->exit_code()));
  }
  std::uint64_t lost = 0;
  std::vector<Arrival> answered = prefill_steps_;
  for (const Phase& p : phases_) {
    for (std::size_t i = 0; i < p.sched.size(); ++i) {
      if (p.out[i].done_ns != 0) {
        answered.push_back(p.sched[i]);
      } else {
        ++lost;
      }
    }
  }
  const std::uint64_t errs = drv_->errs();
  result_.failed = lost + errs;
  if (drv_->misrouted() > 0) {
    result_.fail(std::to_string(drv_->misrouted()) + " misrouted responses");
  }
  if (drv_->unexpected() > 0) {
    result_.fail(std::to_string(drv_->unexpected()) + " unexpected responses");
  }
  if (lost + errs > 0) {
    // The per-session streams the server applied are then unknown.
    result_.fail("digest oracle not applicable: " + std::to_string(lost) +
                 " unanswered, " + std::to_string(errs) + " err");
    return false;
  }
  bool read_ok = false;
  const serve::DigestTable got = read_digest_file(dir_ + "/digests.txt", &read_ok);
  if (!read_ok) {
    result_.fail("server wrote no digest table");
    return false;
  }
  ModelAssets m;
  std::string error;
  if (!build_model(w_, ckpt_, m, &error)) {
    result_.fail("oracle model: " + error);
    return false;
  }
  const serve::DigestTable want = oracle_digests(m, answered);
  std::size_t mismatched = 0;
  for (const auto& [id, d] : want) {
    const auto it = got.find(id);
    if (it == got.end() || !(it->second == d)) ++mismatched;
  }
  for (const auto& [id, d] : got) {
    if (want.find(id) == want.end()) ++mismatched;
  }
  result_.extra.set("oracle.sessions", static_cast<double>(want.size()),
                    "count");
  result_.extra.set("oracle.steps", static_cast<double>(answered.size()),
                    "count");
  if (mismatched > 0) {
    result_.fail(std::to_string(mismatched) + " session digests differ from "
                 "the oracle");
  }
  return mismatched == 0;
}

RunResult Runner::run() {
  if (!prepare()) return result_;
  if (w_.journal && !prefill()) return result_;
  if (!setup()) return result_;

  const pid_t pid = server_->pid();
  drive(kWarm, 0, w_.rate[1], T(0.05));
  drv_->stats(stat_first_);
  // Half the run at the fixed rates, in kRounds segments each.
  const double segment = T(0.5) / (3 * kRounds);
  double r2_cpu_s = 0.0, r2_steps = 0.0;
  for (int k = 0; k < kRounds; ++k) {
    for (int j = 0; j < 3; ++j) {
      const int r = (j + k) % 3;
      // The traced run compares r2 with and without spans, alternating.
      const bool plain = opt_.traced && r == 1 && k % 2 == 1;
      double cpu0 = 0.0, cpu1 = 0.0;
      read_task_cpu_s(pid, &cpu0);
      const Phase& p =
          drive(plain ? kR2Untraced : r,
                1 + static_cast<std::uint64_t>(3 * k + r), w_.rate[r], segment);
      read_task_cpu_s(pid, &cpu1);
      (plain ? r2_untraced_ : fixed_[r]).push_back(&p);
      if (r == 1) {
        r2_cpu_s += cpu1 - cpu0;
        r2_steps += static_cast<double>(p.out.size() - unanswered({&p}));
      }
    }
  }
  cpu_us_per_step_ = r2_steps > 0 ? r2_cpu_s * 1e6 / r2_steps : 0.0;
  drv_->stats(stat_last_);
  if (!opt_.traced) slo_rps_ = slo_search();
  read_vm_hwm_mb(pid, &peak_rss_mb_);
  if (opt_.traced) {
    for (int i = 0; i < 200; ++i) {
      StatLine s;
      std::int64_t rtt = 0;
      if (drv_->stats(s, &rtt)) {
        socket_rtt_us_.push_back(static_cast<double>(rtt) / 1e3);
      }
    }
  }

  std::vector<double> lags;
  for (const Phase& p : phases_) {
    result_.attempted += p.sched.size();
    if (p.sched.empty() || p.sched.front().phase == kWarm) continue;
    for (std::size_t i = 0; i < p.sched.size(); ++i) {
      if (p.out[i].sent_ns != 0) {
        lags.push_back(static_cast<double>(p.out[i].sent_ns - p.sched[i].t_ns) /
                       1e3);
      }
    }
  }
  // Validity of the load itself: a generator that cannot keep up runs
  // behind its schedule on most sends, so its median lag grows. Its
  // tail is reported but not judged: on a shared host the generator's
  // own descheduling sets it, and latency from the intended send time
  // already charges that delay to the requests it hit.
  gen_lag_p99_us_ = windowed_percentile(lags, 99, kTailWindow);
  const double gen_lag_p50 = percentile(lags, 50);
  result_.extra.set("client.gen_lag_p50_us", gen_lag_p50, "us");
  if (gen_lag_p50 > kMaxGenLagUs) {
    result_.fail("generator lag p50 " + fmt(gen_lag_p50) + " us > " +
                 fmt(kMaxGenLagUs) + " us: the schedule was not delivered");
  }
  const bool digests_ok = finish_and_check();
  result_.extra.set("oracle.match", digests_ok ? 1.0 : 0.0, "bool");
  if (opt_.traced) {
    per_layer_metrics();
  } else {
    end_to_end_metrics();
  }
  // Drop the spill, journal and prefill directories (logs and digests
  // stay): deleted before writeback, their dirty pages cost the next
  // run nothing.
  std::error_code ec;
  std::vector<fs::path> state_dirs;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.is_directory()) state_dirs.push_back(entry.path());
  }
  for (const fs::path& p : state_dirs) fs::remove_all(p, ec);
  return result_;
}

void Runner::end_to_end_metrics() {
  Metrics& m = result_.metrics;
  m.set("setup_s", median(setups_), "s");
  for (int r = 0; r < 3; ++r) {
    const std::string tag = ".r" + std::to_string(r + 1);
    const std::vector<double> lat = latencies_us(fixed_[r]);
    m.set("lat_p50_us" + tag, percentile(lat, 50), "us");
    // Printed, not gated: on a shared host the spread of these tails
    // over ten seeds (0.10-0.48) is wider than any bound a gate may use.
    result_.extra.set("samples" + tag, static_cast<double>(lat.size()),
                      "count");
    result_.extra.set("lat_p99_us" + tag,
                      windowed_percentile(lat, 99, kTailWindow), "us");
    result_.extra.set("lat_p99_pooled_us" + tag, percentile(lat, 99), "us");
    if (percentile_supported(lat.size(), 99.9)) {
      result_.extra.set("lat_p999_us" + tag, percentile(lat, 99.9), "us");
    }
    result_.extra.set("lat_max_us" + tag, percentile(lat, 100), "us");
    result_.extra.set("batcher.mean_batch" + tag, mean_batch(fixed_[r]),
                      "count");
  }
  m.set("slo_rps", slo_rps_, "steps/s");
  m.set("cpu_us_per_step", cpu_us_per_step_, "us");
  m.set("peak_rss_mb", peak_rss_mb_, "MB");
  result_.extra.set("client.gen_lag_p99_us", gen_lag_p99_us_, "us");
  result_.extra.set("fail_frac",
                    result_.attempted > 0
                        ? static_cast<double>(result_.failed) /
                              static_cast<double>(result_.attempted)
                        : 0.0,
                    "frac");
  for (std::size_t k = 0; k < setups_.size(); ++k) {
    result_.extra.set("setup_s.run" + std::to_string(k + 1), setups_[k], "s");
  }
}

void Runner::per_layer_metrics() {
  Metrics& m = result_.metrics;
  // The trace covers the first two rounds of fixed-rate segments:
  // client spans from the TCP run, then the same segments replayed in
  // process. (All rounds would make a trace file of hundreds of MB at
  // the higher rates.)
  constexpr std::size_t kTracedSegments = 3 * 2;
  SpanBuffer spans;
  std::vector<ReplaySegment> replay;
  std::uint64_t sent = 0, ok = 0;
  std::map<std::uint64_t, std::uint32_t> nth;
  for (const Phase& p : phases_) {
    const std::int32_t id = p.sched.empty() ? -1 : p.sched.front().phase;
    const bool fixed = (id >= 0 && id < 3) || id == kR2Untraced;
    ReplaySegment* seg = nullptr;
    if (fixed && replay.size() < kTracedSegments) {
      seg = &replay.emplace_back();
      seg->sched = p.sched;
      seg->rate = id == kR2Untraced ? 1 : id;
    }
    // Client spans: `req` [intended, ok received] with child
    // `client.send_lag` [intended, handed to the kernel].
    const bool traced = seg != nullptr && id != kR2Untraced;
    for (std::size_t i = 0; i < p.sched.size(); ++i) {
      const Arrival& a = p.sched[i];
      const Outcome& o = p.out[i];
      const std::uint32_t n = nth[a.session]++;
      if (seg != nullptr) seg->ordinal.push_back(n);
      if (o.sent_ns != 0) ++sent;
      if (o.done_ns != 0) ++ok;
      if (!traced || o.done_ns == 0) continue;
      const std::int32_t root =
          spans.add({"req", a.t_ns, o.done_ns, -1, 0, a.session, n});
      spans.add({"client.send_lag", a.t_ns, o.sent_ns, root, 0, a.session, n});
    }
  }

  ModelAssets model;
  std::string error;
  if (!build_model(w_, ckpt_, model, &error)) {
    result_.fail("in-process model: " + error);
    return;
  }
  const std::string inproc_dir = dir_ + "/inproc";
  fs::create_directories(inproc_dir);
  const ReplayResult rr = inproc_replay(
      w_, model, replay, w_.has_spill_dir() ? inproc_dir + "/spill" : "",
      spans, 1);
  if (!rr.stores_ok) result_.fail("in-process replay: a store failed to open");

  const EngineProbe ep = probe_engine(model);
  const int k = std::max(1, static_cast<int>(std::lround(mean_batch(fixed_[1]))));
  const JournalProbe jp =
      w_.journal ? probe_journal(ep, k, inproc_dir, prefill_dir_, kShards)
                 : JournalProbe{};
  const SegmentProbe sp = w_.max_sessions > 0
                              ? probe_segment(ep, inproc_dir, kShards)
                              : SegmentProbe{};
  double parse_ns = 0.0, format_ns = 0.0;
  probe_protocol(&parse_ns, &format_ns);

  m.set("engine.step_us.b1.l0", ep.step_us[0][0], "us");
  m.set("engine.step_us.b1.l1", ep.step_us[0][1], "us");
  m.set("engine.step_us.b8.l0", ep.step_us[1][0], "us");
  m.set("engine.step_us.b8.l1", ep.step_us[1][1], "us");
  m.set("engine.gmacs", ep.gmacs, "GMAC/s");
  m.set("engine.lane_sparsity.l0", rr.lane_sparsity[0], "frac");
  m.set("engine.lane_sparsity.l1", rr.lane_sparsity[1], "frac");
  m.set("engine.effectual_mac_frac", rr.effectual_mac_frac, "frac");
  {
    // Computed, not measured: weight and state bytes one batch-1 step
    // touches at the observed per-layer sparsity (input weights in full,
    // recurrent rows only for kept positions, h/c read and written).
    const double wbytes = w_.quant ? 1.0 : 4.0;
    const double dh = static_cast<double>(model.cells.front()->hidden_dim());
    double bytes = 0.0;
    for (std::size_t l = 0; l < model.cells.size(); ++l) {
      const double in = static_cast<double>(model.cells[l]->input_dim());
      const double kept = 1.0 - rr.lane_sparsity[std::min<std::size_t>(l, 1)];
      bytes += (4.0 * dh * in + kept * dh * 4.0 * dh) * wbytes + 4.0 * dh * 4.0;
    }
    m.set("engine.bytes_per_step", bytes, "B");
  }
  m.set("journal.commit_us_p50", jp.commit_us_p50, "us");
  m.set("journal.commit_us_p99", jp.commit_us_p99, "us");
  m.set("journal.appends_per_step", rr.journal_appends_per_step, "count");
  m.set("journal.bytes_per_step", rr.journal_bytes_per_step, "B");
  m.set("journal.recover_ms", jp.recover_ms, "ms");
  m.set("journal.recovered_records", jp.recovered_records, "count");
  {
    // Session tiering over the three rate phases, from `stats` deltas.
    const double steps = static_cast<double>(
        stat_u64(stat_last_, "responses") - stat_u64(stat_first_, "responses"));
    auto per_step = [&](const char* key) {
      return steps > 0 ? static_cast<double>(stat_u64(stat_last_, key) -
                                             stat_u64(stat_first_, key)) /
                             steps
                       : 0.0;
    };
    const double cold = per_step("created");
    const double warm = per_step("restored");
    m.set("session.hot_rate", std::max(0.0, 1.0 - cold - warm), "frac");
    m.set("session.warm_rate", warm, "frac");
    m.set("session.cold_rate", cold, "frac");
    m.set("session.evicted_per_step", per_step("evicted"), "count");
    m.set("session.spilled_per_step", per_step("spilled"), "count");
    m.set("session.restored_per_step", warm, "count");
  }
  m.set("segment.restore_us_p50", sp.restore_us_p50, "us");
  m.set("segment.restore_us_p99", sp.restore_us_p99, "us");
  m.set("segment.spill_us_p50", sp.spill_us_p50, "us");
  for (int r = 0; r < 3; ++r) {
    m.set("batcher.mean_batch.r" + std::to_string(r + 1), mean_batch(fixed_[r]),
          "count");
  }
  m.set("live.submit_ns_p50", percentile(rr.submit_ns, 50), "ns");
  m.set("live.submit_ns_p99", percentile(rr.submit_ns, 99), "ns");
  for (int r = 0; r < 3; ++r) {
    m.set("live.queue_us_p50.r" + std::to_string(r + 1),
          percentile(rr.queue_us[r], 50), "us");
  }
  for (int r = 0; r < 3; ++r) {
    m.set("live.queue_us_p99.r" + std::to_string(r + 1),
          percentile(rr.queue_us[r], 99), "us");
  }
  m.set("live.shed", static_cast<double>(stat_u64(stat_last_, "shed")), "count");
  m.set("live.timeouts", static_cast<double>(stat_u64(stat_last_, "timeouts")),
        "count");
  m.set("shard.service_us_p50", percentile(rr.service_us, 50), "us");
  m.set("shard.service_us_p99", percentile(rr.service_us, 99), "us");
  m.set("shard.cpu_us_per_step", rr.shard_cpu_us_per_step, "us");
  m.set("shard.imbalance", rr.imbalance, "ratio");
  m.set("protocol.parse_ns", parse_ns, "ns");
  m.set("protocol.format_ns", format_ns, "ns");
  m.set("frontend.socket_us_p50", median(socket_rtt_us_), "us");
  m.set("model_io.load_ms", probe_model_load_ms(w_, ckpt_), "ms");
  m.set("client.gen_lag_p99_us", gen_lag_p99_us_, "us");
  m.set("client.sent", static_cast<double>(sent), "count");
  m.set("client.ok", static_cast<double>(ok), "count");
  m.set("client.err", static_cast<double>(drv_->errs()), "count");
  m.set("client.lost", static_cast<double>(sent - ok), "count");
  m.set("host.effective_cores", host_.effective_cores, "count");
  m.set("host.hardware_concurrency",
        static_cast<double>(host_.hardware_concurrency), "count");
  {
    const double p50_traced = percentile(latencies_us(fixed_[1]), 50);
    const double p50_plain = percentile(latencies_us(r2_untraced_), 50);
    m.set("trace.overhead_frac",
          p50_plain > 0 ? p50_traced / p50_plain - 1.0 : 0.0, "frac");
  }
  {
    // Share of shard service time the engine and segment probes do not
    // account for, at the replay's own mix: per batch size, the probe's
    // step time (interpolated linearly between batch 1 and batch 8),
    // plus the replay's spills and restores at the probe's cost, against
    // the replay's service time. Service starts before the batch's
    // session lookups, so restores and spills fall inside it. The
    // slowest 1% of each batch size is left out: a worker descheduled
    // mid-step by the host inflates those with time no layer spent.
    const double t1 = ep.step_us[0][0] + ep.step_us[0][1];
    const double t8 = ep.step_us[1][0] + ep.step_us[1][1];
    double explained = static_cast<double>(rr.responses) *
                       (rr.spilled_per_step * sp.spill_us_mean +
                        rr.restored_per_step * sp.restore_us_mean);
    double service = 0.0;
    for (int b = 1; b <= 8; ++b) {
      const std::vector<double>& s = rr.service_by_batch[b];
      if (s.empty()) continue;
      const double batches = static_cast<double>(s.size()) / b;
      explained += batches * (t1 + (t8 - t1) * (b - 1) / 7.0);
      service += batches * trimmed_mean(s);
    }
    m.set("trace.unexplained_frac",
          service > 0 ? 1.0 - explained / service : 0.0, "frac");
  }

  const std::string trace_path = opt_.work + "/trace_" + w_.name + ".json";
  if (spans.write_chrome(trace_path, {"client (tcp)", "server (in-process)"})) {
    result_.extra.set("trace.spans", static_cast<double>(spans.spans().size()),
                      "count");
    std::printf("%s trace %s\n", w_.name.c_str(), trace_path.c_str());
  } else {
    result_.fail("cannot write " + trace_path);
  }
}

// ---------------------------------------------------------------- output

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string metrics_json(const Metrics& m) {
  std::string s = "{";
  bool first = true;
  for (const Metric& x : m.all()) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", x.value);
    s += (first ? "\"" : ", \"") + x.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + x.unit + "\"}";
    first = false;
  }
  return s + "}";
}

std::string result_json(const RunResult& r) {
  return "{\"correct\": " + std::string(r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(r.attempted, 1)) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + metrics_json(r.metrics) + "}";
}

std::string record_json(const RunResult& r, const HostInfo& h) {
  std::string problems = "[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    problems += (i ? ", \"" : "\"") + json_escape(r.problems[i]) + "\"";
  }
  problems += "]";
  char host[256];
  std::snprintf(host, sizeof host,
                "{\"effective_cores\": %.4f, \"hardware_concurrency\": %u, "
                "\"kernel_backend\": \"%s\"}",
                h.effective_cores, h.hardware_concurrency,
                h.kernel_backend.c_str());
  return "{\"workload\": \"" + r.workload + "\", \"seed\": " +
         std::to_string(r.seed) + ", \"traced\": " +
         (r.traced ? "true" : "false") + ", \"correct\": " +
         (r.correct ? "true" : "false") + ", \"attempted\": " +
         std::to_string(r.attempted) + ", \"failed\": " +
         std::to_string(r.failed) + ", \"metrics\": " + metrics_json(r.metrics) +
         ", \"extra\": " + metrics_json(r.extra) + ", \"host\": " + host +
         ", \"problems\": " + problems + "}";
}

void print_result(const RunResult& r) {
  for (const Metric& x : r.metrics.all()) {
    std::printf("%s %s %.6g %s\n", r.workload.c_str(), x.name.c_str(), x.value,
                x.unit.c_str());
  }
  for (const Metric& x : r.extra.all()) {
    std::printf("%s %s %.6g %s\n", r.workload.c_str(), x.name.c_str(), x.value,
                x.unit.c_str());
  }
  for (const std::string& p : r.problems) {
    std::printf("%s FAILED %s\n", r.workload.c_str(), p.c_str());
  }
  std::fflush(stdout);
}

void append_record(const std::string& path, const std::string& line) {
  if (path.empty()) return;
  std::ofstream f(path, std::ios::app);
  f << line << "\n";
}

// -------------------------------------------------------------- repeats

struct Summary {
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  std::map<std::string, std::string> units;
};

void summarize(const Summary& s, bool propose_bounds) {
  for (const auto& [workload, metrics] : s.values) {
    for (const auto& [name, vals] : metrics) {
      const Quartiles q = quartiles(vals);
      const double rel = q.median != 0.0 ? (q.q3 - q.q1) / std::fabs(q.median)
                                         : 0.0;
      std::printf("%s %s median %.6g iqr %.6g rel_iqr %.4f %s (n=%zu)\n",
                  workload.c_str(), name.c_str(), q.median, q.q3 - q.q1, rel,
                  s.units.at(name).c_str(), vals.size());
    }
  }
  if (!propose_bounds) return;
  // Proposed bound per end-to-end metric: max(floor, 2x the widest
  // relative IQR any workload showed), capped at the 0.25 a bound may
  // take; setup_s takes the cap (it gets the largest bound).
  std::printf("proposed end_to_end bounds:\n");
  for (const char* name : kEndToEnd) {
    double widest = 0.0;
    for (const auto& [workload, metrics] : s.values) {
      const auto it = metrics.find(name);
      if (it == metrics.end()) continue;
      const Quartiles q = quartiles(it->second);
      if (q.median != 0.0) {
        widest = std::max(widest, (q.q3 - q.q1) / std::fabs(q.median));
      }
    }
    const double bound = std::string(name) == "setup_s"
                             ? 0.25
                             : std::min(0.25, std::max(0.10, 2.0 * widest));
    std::printf("  %s widest_rel_iqr %.4f bound %.2f\n", name, widest, bound);
  }
}

}  // namespace

int main_impl(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) return 2;
  std::signal(SIGPIPE, SIG_IGN);
  if (opt.selftest) return run_selftest(opt.serve_bin, opt.work);
  if (opt.calibrate) opt.repeat = std::max(opt.repeat, 5);

  const std::vector<Workload> all = all_workloads();
  std::vector<const Workload*> chosen;
  for (const Workload& w : all) {
    if (opt.workload == "all" || opt.workload == w.name) chosen.push_back(&w);
  }
  if (chosen.empty()) {
    std::fprintf(stderr, "zss_bench: unknown workload %s (have:",
                 opt.workload.c_str());
    for (const Workload& w : all) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(opt.work, ec);

  bool all_correct = true;
  Summary summary;
  for (int rep = 0; rep < opt.repeat; ++rep) {
    for (const Workload* w : chosen) {
      const std::uint64_t seed = opt.seed + static_cast<std::uint64_t>(rep);
      // Earlier runs' dirty pages are written back now, not during this
      // run's measurement. The host's side of that writeback slows the
      // vCPUs for up to a second: calibrate until two readings agree.
      ::sync();
      HostInfo host = calibrate_host();
      for (int i = 0; i < 3; ++i) {
        const HostInfo again = calibrate_host();
        const bool settled = std::fabs(again.effective_cores -
                                       host.effective_cores) <=
                             0.1 * again.effective_cores;
        host = again;
        if (settled) break;
      }
      std::printf("%s host effective_cores %.3f hardware_concurrency %u "
                  "kernel_backend %s seed %" PRIu64 "%s\n",
                  w->name.c_str(), host.effective_cores,
                  host.hardware_concurrency, host.kernel_backend.c_str(), seed,
                  opt.traced ? " traced" : "");
      Runner runner(opt, *w, seed, host);
      const RunResult r = runner.run();
      print_result(r);
      append_record(opt.out, record_json(r, host));
      all_correct &= r.correct;
      for (const Metric& x : r.metrics.all()) {
        summary.values[w->name][x.name].push_back(x.value);
        summary.units[x.name] = x.unit;
      }
      std::printf("%s\n", result_json(r).c_str());
      std::fflush(stdout);
    }
  }
  if (opt.repeat > 1) {
    summarize(summary, opt.calibrate);
    std::fflush(stdout);
  }
  return all_correct ? 0 : 1;
}

}  // namespace zss::bench

int main(int argc, char** argv) { return zss::bench::main_impl(argc, argv); }

