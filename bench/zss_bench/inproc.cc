#include "inproc.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <thread>

#include "core/stacked_engine.h"
#include "nn/linear.h"
#include "num/rng.h"
#include "serve/protocol.h"
#include "serve/worker.h"
#include "store/io.h"
#include "store/journal.h"
#include "store/segment_store.h"

namespace zss::bench {

namespace fs = std::filesystem;

bool write_checkpoint(const Workload& w, const std::string& path,
                      std::string* error) {
  // Factor on the seeded Wx/Wh. At 1 the int8 state of a random
  // 512-wide cell sits on so few grid levels that lane sparsity jumps
  // from 0.24 to 0.93 between adjacent thresholds; larger weights spread
  // it so a threshold can pick ~0.6.
  constexpr float kWeightScale = 8.0f;
  const auto layers = static_cast<num::Index>(w.thresholds.size());
  core::ModelSpec spec;
  spec.layers = static_cast<std::uint32_t>(layers);
  spec.hidden = static_cast<std::uint32_t>(kSeededDh);
  spec.input_dim = static_cast<std::uint32_t>(kSeededDx);
  spec.vocab = static_cast<std::uint32_t>(kSeededDx);
  spec.embed_dim = 0;  // one-hot input, like the random-cell workloads
  const core::QuantConfig grid = core::QuantConfig::int8();
  spec.has_quant_grid = 1;
  spec.quant_pre_clip = grid.pre_clip;
  spec.quant_c_clip = static_cast<std::uint32_t>(grid.c_clip);
  spec.thresholds = w.thresholds;

  num::Rng rng(kModelSeed);
  std::vector<std::unique_ptr<nn::LstmCell>> cells;
  std::vector<nn::Parameter*> params;
  for (num::Index l = 0; l < layers; ++l) {
    cells.push_back(std::make_unique<nn::LstmCell>(
        l == 0 ? kSeededDx : kSeededDh, kSeededDh, rng));
    for (float& v : cells.back()->wx().value.flat()) v *= kWeightScale;
    for (float& v : cells.back()->wh().value.flat()) v *= kWeightScale;
    const std::string prefix = "layer" + std::to_string(l) + ".lstm.";
    cells.back()->wx().name = prefix + "wx";
    cells.back()->wh().name = prefix + "wh";
    cells.back()->bias().name = prefix + "b";
    params.push_back(&cells.back()->wx());
    params.push_back(&cells.back()->wh());
    params.push_back(&cells.back()->bias());
  }
  nn::Linear classifier(kSeededDh, kSeededDx, rng);
  classifier.weight().name = "classifier.w";
  classifier.bias().name = "classifier.b";
  params.push_back(&classifier.weight());
  params.push_back(&classifier.bias());
  return core::save_model(path, spec, params, error);
}

bool build_model(const Workload& w, const std::string& checkpoint,
                 ModelAssets& out, std::string* error) {
  if (w.quant) out.quant = core::QuantConfig::int8();
  if (w.model == Workload::Model::kRandomCell) {
    num::Rng rng(kModelSeed);
    out.cell = std::make_unique<nn::LstmCell>(kSeededDx, kSeededDh, rng);
    out.cells.push_back(out.cell.get());
    out.pruners.emplace_back(core::PrunerConfig::fixed(w.thresholds.at(0)));
    out.pruner_ptrs.push_back(&out.pruners.back());
    out.model.cells = out.cells;
    out.model.pruners = out.pruner_ptrs;
    return true;
  }
  if (!core::load_model(checkpoint, out.loaded, error)) return false;
  const core::ModelSpec& spec = out.loaded.spec;
  if (w.quant) {
    out.quant.pre_clip = spec.quant_pre_clip;
    out.quant.c_clip = static_cast<int>(spec.quant_c_clip);
  }
  for (const auto& c : out.loaded.cells) out.cells.push_back(c.get());
  for (const float t : spec.thresholds) {
    out.pruners.emplace_back(core::PrunerConfig::fixed(t));
  }
  for (const auto& p : out.pruners) out.pruner_ptrs.push_back(&p);
  out.model.cells = out.cells;
  out.model.pruners = out.pruner_ptrs;
  out.model.embedding = out.loaded.embedding.get();
  out.model.name = checkpoint;
  out.model.vocab = static_cast<num::Index>(spec.vocab);
  return true;
}

namespace {

serve::PoolConfig pool_config(const Workload& w, const std::string& spill_dir) {
  serve::PoolConfig c;
  c.shards = kShards;
  c.policy.max_batch = kMaxBatch;
  c.policy.max_wait_us = kMaxWaitUs;
  c.session_ttl.max_sessions = w.max_sessions;
  c.spill.dir = spill_dir;
  c.spill.encoded = w.max_sessions > 0;
  c.spill.journal = w.journal;
  c.spill.journal_sync = store::JournalSync::kBatch;
  return c;
}

serve::DigestTable oracle_part(const ModelAssets& m,
                               std::span<const Arrival> steps,
                               std::uint64_t part, std::uint64_t parts) {
  serve::PoolConfig cfg;  // one shard, uncapped, no tier
  cfg.quant = m.quant;
  serve::EnginePool pool(m.model, cfg);
  const serve::ResponseSink sink = [](const serve::Response&) {};
  // Enqueued in chunks so the batcher ring stays small; flush serves
  // conflict-free FIFO prefixes, so per-session order is preserved.
  constexpr std::size_t kChunk = 4096;
  std::size_t queued = 0;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    if (steps[k].session % parts != part) continue;
    serve::Request r;
    r.session = steps[k].session;
    r.token = steps[k].token;
    r.arrival_us = static_cast<std::int64_t>(k);
    r.seq = k;
    pool.enqueue(r);
    if (++queued == kChunk) {
      pool.flush(static_cast<std::int64_t>(k), sink);
      queued = 0;
    }
  }
  pool.flush(static_cast<std::int64_t>(steps.size()), sink);
  return pool.merged_digests();
}

}  // namespace

serve::DigestTable oracle_digests(const ModelAssets& m,
                                  std::span<const Arrival> steps) {
  // A session's digest depends only on its own steps, so disjoint
  // session sets replay on independent pools, one thread each.
  constexpr std::uint64_t kParts = 4;
  serve::DigestTable parts[kParts];
  {
    std::vector<std::thread> threads;
    for (std::uint64_t p = 0; p < kParts; ++p) {
      threads.emplace_back(
          [&, p] { parts[p] = oracle_part(m, steps, p, kParts); });
    }
    for (std::thread& t : threads) t.join();
  }
  serve::DigestTable all;
  for (serve::DigestTable& t : parts) all.merge(t);
  return all;
}

namespace {

void sleep_until_ns(std::int64_t t_ns) {
  const std::int64_t now = now_ns();
  if (t_ns <= now) return;
  timespec ts{};
  ts.tv_sec = (t_ns - now) / 1'000'000'000;
  ts.tv_nsec = (t_ns - now) % 1'000'000'000;
  ::nanosleep(&ts, nullptr);
}

// Per-seq record written by exactly one shard worker's sink call and
// read by the main thread after LiveServer::shutdown joined them.
struct SinkRecord {
  std::int64_t arrival_us = 0;
  std::int64_t done_us = 0;
  double service_us = 0.0;
  std::int32_t batch = 0;
  std::int64_t sink_ns = 0;
};

}  // namespace

ReplayResult inproc_replay(const Workload& w, const ModelAssets& m,
                           const std::vector<ReplaySegment>& segments,
                           const std::string& spill_dir, SpanBuffer& spans,
                           std::int32_t track) {
  ReplayResult out;
  serve::PoolConfig cfg = pool_config(w, spill_dir);
  cfg.quant = m.quant;
  // The pool opens its stores inside the directory but does not create
  // it (zss_serve does); a store that fails to open serves undurably.
  if (!spill_dir.empty()) fs::create_directories(spill_dir);
  serve::EnginePool pool(m.model, cfg);
  for (num::Index s = 0; s < pool.num_shards(); ++s) {
    const store::SegmentStore* seg = pool.spill_store(s);
    const store::Journal* j = pool.journal(s);
    out.stores_ok &= (seg == nullptr || seg->ok()) && (j == nullptr || j->ok());
  }
  std::vector<Arrival> sched;
  std::vector<int> rate_of;
  std::vector<std::uint32_t> ordinal;
  for (const ReplaySegment& s : segments) {
    sched.insert(sched.end(), s.sched.begin(), s.sched.end());
    rate_of.insert(rate_of.end(), s.sched.size(), s.rate);
    ordinal.insert(ordinal.end(), s.ordinal.begin(), s.ordinal.end());
  }
  std::vector<SinkRecord> recs(sched.size());
  std::atomic<std::uint64_t> answered{0};
  serve::LiveConfig lc;
  lc.now_us = [] { return now_ns() / 1000; };
  const serve::ResponseSink sink = [&recs, &answered](const serve::Response& r) {
    SinkRecord& s = recs[r.seq];
    s.arrival_us = r.arrival_us;
    s.done_us = r.done_us;
    s.service_us = r.service_us;
    s.batch = static_cast<std::int32_t>(r.batch);
    s.sink_ns = now_ns();
    answered.fetch_add(1, std::memory_order_release);
  };
  std::vector<std::int64_t> submit_at(sched.size(), 0);
  std::vector<std::int64_t> submit_end(sched.size(), 0);
  std::vector<std::int64_t> intended(sched.size(), 0);
  // The pool has no queue cap, so every submit is accepted and seqs run
  // 0, 1, 2, ... in submit order; index_of[seq] maps back regardless.
  std::vector<std::size_t> index_of;
  index_of.reserve(sched.size());
  {
    serve::LiveServer server(pool, sink, lc);
    std::size_t i = 0;
    for (const ReplaySegment& s : segments) {
      if (s.sched.empty()) continue;
      // Each segment starts 2 ms from now, at the schedule's own pace,
      // after the previous one drained.
      const std::int64_t shift = now_ns() + 2'000'000 - s.sched.front().t_ns;
      for (const std::size_t end = i + s.sched.size(); i < end; ++i) {
        intended[i] = sched[i].t_ns + shift;
        sleep_until_ns(intended[i]);
        submit_at[i] = now_ns();
        const auto seq = server.submit(sched[i].session, sched[i].token);
        submit_end[i] = now_ns();
        if (seq.has_value() && *seq == index_of.size()) index_of.push_back(i);
      }
      while (answered.load(std::memory_order_acquire) < index_of.size()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    server.shutdown();
  }

  for (std::size_t seq = 0; seq < index_of.size(); ++seq) {
    const std::size_t i = index_of[seq];
    const SinkRecord& r = recs[seq];
    if (r.sink_ns == 0) continue;
    const std::uint32_t n = ordinal[i];
    out.submit_ns.push_back(static_cast<double>(submit_end[i] - submit_at[i]));
    out.queue_us[rate_of[i]].push_back(
        static_cast<double>(r.done_us - r.arrival_us));
    out.service_us.push_back(r.service_us);
    if (r.batch >= 1 && r.batch <= 8) {
      out.service_by_batch[r.batch].push_back(r.service_us);
    }
    ++out.responses;

    const std::int64_t done_ns = r.done_us * 1000;
    const std::int64_t served_ns =
        done_ns + static_cast<std::int64_t>(r.service_us * 1000.0);
    Span root{"inproc.req", intended[i], r.sink_ns, -1, track,
              sched[i].session, n};
    const std::int32_t p = spans.add(root);
    spans.add({"live.submit", submit_at[i], submit_end[i], p, track,
               sched[i].session, n});
    spans.add({"live.queue", r.arrival_us * 1000, done_ns, p, track,
               sched[i].session, n});
    spans.add({"shard.service", done_ns, served_ns, p, track,
               sched[i].session, n});
    spans.add({"shard.commit_deliver", served_ns, r.sink_ns, p, track,
               sched[i].session, n});
  }

  // Layer counters of the replay pool (threads joined: plain reads).
  double requests = 0.0, cpu_us = 0.0, max_req = 0.0;
  double lane_kept[2] = {0, 0}, lane_pos[2] = {0, 0};
  double eff = 0.0, total = 0.0;
  double appended = 0.0, spilled = 0.0, restored = 0.0;
  const num::Index layers = pool.shard(0).engine().layers();
  for (num::Index s = 0; s < pool.num_shards(); ++s) {
    const serve::EngineShard& sh = pool.shard(s);
    requests += static_cast<double>(sh.stats().requests);
    max_req = std::max(max_req, static_cast<double>(sh.stats().requests));
    cpu_us += sh.stats().cpu_us;
    spilled += static_cast<double>(sh.sessions().spilled());
    restored += static_cast<double>(sh.sessions().restored());
    for (num::Index l = 0; l < std::min<num::Index>(layers, 2); ++l) {
      const core::InferenceStats st = sh.engine().layer_engine(l).stats();
      lane_kept[l] += static_cast<double>(st.lane_kept_positions);
      lane_pos[l] += static_cast<double>(st.lane_positions);
    }
    const core::InferenceStats all = sh.engine().stats();
    eff += static_cast<double>(all.state_macs_effectual);
    total += static_cast<double>(all.state_macs_total);
    if (const store::Journal* j = pool.journal(s)) {
      appended += static_cast<double>(j->appended());
    }
  }
  for (int l = 0; l < 2; ++l) {
    out.lane_sparsity[l] = lane_pos[l] > 0 ? 1.0 - lane_kept[l] / lane_pos[l]
                                           : 0.0;
  }
  out.effectual_mac_frac = total > 0 ? eff / total : 0.0;
  out.shard_cpu_us_per_step = requests > 0 ? cpu_us / requests : 0.0;
  out.spilled_per_step = requests > 0 ? spilled / requests : 0.0;
  out.restored_per_step = requests > 0 ? restored / requests : 0.0;
  out.imbalance = requests > 0
                      ? max_req / (requests / static_cast<double>(
                                                 pool.num_shards()))
                      : 0.0;
  if (requests > 0 && w.journal) {
    // Record sizes from store/journal.h: 72-byte header, and kUpdate
    // carries h and c of state_width floats each (one per served step).
    const double width =
        static_cast<double>(layers * pool.shard(0).engine().hidden_dim());
    out.journal_appends_per_step = appended / requests;
    out.journal_bytes_per_step =
        (appended * 72.0 + requests * 2.0 * width * 4.0) / requests;
  }
  return out;
}

EngineProbe probe_engine(const ModelAssets& m) {
  EngineProbe out;
  core::StackedEngine engine(m.cells, m.pruner_ptrs, {}, m.quant);
  const num::Index L = engine.layers();
  const num::Index dh = engine.hidden_dim();
  const num::Index dx = engine.input_dim();
  const num::Index vocab = m.model.embedding != nullptr
                               ? m.model.embedding->vocab()
                               : dx;
  engine.reserve(8);
  num::Rng rng(99);
  const num::Index batches[2] = {1, 8};
  for (int bi = 0; bi < 2; ++bi) {
    const num::Index B = batches[bi];
    std::vector<num::Matrix> h(static_cast<std::size_t>(L)),
        c(static_cast<std::size_t>(L));
    for (num::Index l = 0; l < L; ++l) {
      h[static_cast<std::size_t>(l)].resize(B, dh);
      c[static_cast<std::size_t>(l)].resize(B, dh);
    }
    num::Matrix x(B, dx);
    num::Matrix ff[2] = {num::Matrix(B, dh), num::Matrix(B, dh)};
    std::vector<num::Index> ids(static_cast<std::size_t>(B));
    auto next_input = [&] {
      for (num::Index r = 0; r < B; ++r) {
        ids[static_cast<std::size_t>(r)] = rng.below(vocab);
      }
      if (m.model.embedding != nullptr) {
        m.model.embedding->forward(ids, x);
      } else {
        x.fill(0.0f);
        for (num::Index r = 0; r < B; ++r) {
          x(r, ids[static_cast<std::size_t>(r)] % dx) = 1.0f;
        }
      }
    };
    // Reach the pruned steady state before timing.
    for (int t = 0; t < 64; ++t) {
      next_input();
      engine.step(x, h, c, &ff[0]);
    }
    engine.reset_stats();
    constexpr int kSteps = 300;
    std::vector<double> per_layer[2];
    double total_ns = 0.0;
    for (int t = 0; t < kSteps; ++t) {
      next_input();
      for (num::Index l = 0; l < L; ++l) {
        const num::Matrix& input = l == 0 ? x : ff[(l - 1) % 2];
        const std::int64_t a = now_ns();
        engine.step_layer(l, input, h[static_cast<std::size_t>(l)],
                          c[static_cast<std::size_t>(l)], &ff[l % 2]);
        const std::int64_t b = now_ns();
        total_ns += static_cast<double>(b - a);
        if (l < 2) per_layer[l].push_back(static_cast<double>(b - a) / 1e3);
      }
    }
    for (int l = 0; l < 2; ++l) {
      out.step_us[bi][l] = per_layer[l].empty() ? 0.0 : median(per_layer[l]);
    }
    if (B == 8) {
      const core::InferenceStats st = engine.stats();
      out.gmacs = static_cast<double>(st.input_macs + st.state_macs_effectual) /
                  total_ns;
      // One lane's packed state (layers side by side), as the session
      // store spills and journals it.
      for (num::Index l = 0; l < L; ++l) {
        const auto hr = h[static_cast<std::size_t>(l)].row(0);
        const auto cr = c[static_cast<std::size_t>(l)].row(0);
        out.steady_h.insert(out.steady_h.end(), hr.begin(), hr.end());
        out.steady_c.insert(out.steady_c.end(), cr.begin(), cr.end());
      }
    }
  }
  return out;
}

JournalProbe probe_journal(const EngineProbe& e, int k, const std::string& dir,
                           const std::string& prefill_dir, num::Index shards) {
  JournalProbe out;
  store::PosixEnv env;
  const auto width = static_cast<num::Index>(e.steady_h.size());
  {
    store::JournalConfig jc;
    jc.path = dir + "/probe.jnl";
    jc.sync = store::JournalSync::kBatch;
    jc.checkpoint_bytes = ~std::uint64_t{0};
    store::Journal j(env, jc, width);
    std::vector<double> commit_us;
    for (int it = 0; it < 200; ++it) {
      const std::int64_t a = now_ns();
      for (int lane = 0; lane < k; ++lane) {
        j.append(store::JournalRecordKind::kUpdate,
                 static_cast<std::uint64_t>(lane + 1), 0,
                 static_cast<std::uint64_t>(it), it,
                 static_cast<std::uint64_t>(it), 0, e.steady_h.data(),
                 e.steady_c.data());
      }
      j.commit();
      commit_us.push_back(static_cast<double>(now_ns() - a) / 1e3);
    }
    std::sort(commit_us.begin(), commit_us.end());
    out.commit_us_p50 = percentile_sorted(commit_us, 50);
    out.commit_us_p99 = percentile_sorted(commit_us, 99);
  }
  if (prefill_dir.empty()) return out;
  // Recovery reads a private copy, so the probe measures exactly the
  // bytes the timed set-up recovered and never edits them.
  const std::string copy = dir + "/recover";
  fs::remove_all(copy);
  fs::copy(prefill_dir, copy);
  double total_ms = 0.0, records = 0.0;
  for (num::Index s = 0; s < shards; ++s) {
    store::JournalConfig jc;
    jc.path = copy + "/shard_" + std::to_string(s) + ".jnl";
    const std::int64_t a = now_ns();
    store::Journal j(env, jc, width);
    total_ms += static_cast<double>(now_ns() - a) / 1e6;
    records += static_cast<double>(j.recovered_records() +
                                   j.checkpoint_sessions().size());
  }
  out.recover_ms = total_ms;
  out.recovered_records = records;
  return out;
}

double trimmed_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  values.resize(static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(values.size()))));
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

SegmentProbe probe_segment(const EngineProbe& e, const std::string& dir,
                           num::Index shards) {
  constexpr int kRecords = 200;
  const auto width = static_cast<num::Index>(e.steady_h.size());
  const auto n = static_cast<std::size_t>(shards);
  std::vector<std::vector<double>> spill_us(n), restore_us(n);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      store::PosixEnv env;
      store::StoreConfig sc;
      sc.path = dir + "/probe_" + std::to_string(t) + ".seg";
      sc.encoded = true;
      fs::remove(sc.path);
      store::SegmentStore seg(env, sc, width);
      num::Matrix h(1, width), c(1, width);
      std::copy(e.steady_h.begin(), e.steady_h.end(), h.row(0).begin());
      std::copy(e.steady_c.begin(), e.steady_c.end(), c.row(0).begin());
      for (int i = 0; i < kRecords; ++i) {
        store::RecordMeta meta;
        meta.steps = static_cast<std::uint64_t>(i);
        const std::int64_t a = now_ns();
        seg.spill(static_cast<std::uint64_t>(i + 1), meta, h, c);
        spill_us[t].push_back(static_cast<double>(now_ns() - a) / 1e3);
      }
      num::Matrix rh, rc;
      for (int i = 0; i < kRecords; ++i) {
        store::RecordMeta meta;
        const std::int64_t a = now_ns();
        seg.restore_into(static_cast<std::uint64_t>(i + 1), &meta, rh, rc);
        restore_us[t].push_back(static_cast<double>(now_ns() - a) / 1e3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> spills, restores;
  for (std::size_t t = 0; t < n; ++t) {
    spills.insert(spills.end(), spill_us[t].begin(), spill_us[t].end());
    restores.insert(restores.end(), restore_us[t].begin(), restore_us[t].end());
  }
  SegmentProbe out;
  out.spill_us_p50 = percentile(spills, 50);
  out.restore_us_p50 = percentile(restores, 50);
  out.restore_us_p99 = percentile(restores, 99);
  out.spill_us_mean = trimmed_mean(spills);
  out.restore_us_mean = trimmed_mean(restores);
  return out;
}

void probe_protocol(double* parse_ns, double* format_ns) {
  constexpr int kCalls = 100'000;
  const std::string lines[4] = {"step 17 3", "step 4095 49", "step 256 63",
                                "step 1 0"};
  serve::CommandLine cmd;
  std::string error;
  std::uint64_t sink = 0;
  std::int64_t a = now_ns();
  for (int i = 0; i < kCalls; ++i) {
    serve::parse_command(lines[i & 3], cmd, &error);
    sink += cmd.session;
  }
  *parse_ns = static_cast<double>(now_ns() - a) / kCalls;
  serve::Response r;
  r.batch = 4;
  a = now_ns();
  for (int i = 0; i < kCalls; ++i) {
    r.session = static_cast<std::uint64_t>(i);
    r.seq = static_cast<std::uint64_t>(i) * 7;
    sink += serve::format_response(r, sink).size();
  }
  *format_ns = static_cast<double>(now_ns() - a) / kCalls +
               (sink == 1 ? 1e-12 : 0.0);
}

double probe_model_load_ms(const Workload& w, const std::string& checkpoint) {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    ModelAssets m;
    std::string error;
    const std::int64_t a = now_ns();
    build_model(w, checkpoint, m, &error);
    ms.push_back(static_cast<double>(now_ns() - a) / 1e6);
  }
  return median(ms);
}

}  // namespace zss::bench
