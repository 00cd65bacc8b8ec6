#include "serve/pool.h"

#include <thread>
#include <vector>

#include "num/rng.h"

namespace zss::serve {

namespace {

// SplitMix64 — the session ids in a trace are often small consecutive
// integers, so a plain modulo would pile them onto the first shards;
// the mix spreads any id distribution.
std::uint64_t mix64(std::uint64_t x) {
  return num::splitmix64_mix(x + num::kSplitMix64Golden);
}

}  // namespace

EnginePool::EnginePool(const ServeModel& model, const PoolConfig& config)
    : cells_(model.cells.begin(), model.cells.end()),
      pruners_(model.pruners.begin(), model.pruners.end()),
      embedding_(model.embedding),
      model_name_(model.name),
      model_vocab_(model.vocab),
      config_(config) {
  build_shards(config);
}

EnginePool::EnginePool(const nn::LstmCell& cell,
                       const core::StatePruner& pruner,
                       const PoolConfig& config)
    : cells_{&cell}, pruners_{&pruner}, config_(config) {
  build_shards(config);
}

std::unique_ptr<EngineShard> EnginePool::make_shard() const {
  // ServeModel is a span view; the pool re-owns the backing lists
  // precisely so this can run again long after the caller's temporary
  // ServeModel is gone (rebuild_shard).
  ServeModel model;
  model.cells = cells_;
  model.pruners = pruners_;
  model.embedding = embedding_;
  model.name = model_name_;
  model.vocab = model_vocab_;
  return std::make_unique<EngineShard>(model, config_.policy, config_.encoder,
                                       config_.session_ttl, config_.quant);
}

void EnginePool::build_shards(const PoolConfig& config) {
  ZSS_EXPECTS(config.shards >= 1);
  // The journal is a layer on the spill dir (same directory, same
  // shared-nothing file-per-shard layout); journal without a dir is a
  // configuration error, not a silent no-op.
  ZSS_EXPECTS(!config.spill.journal || !config.spill.dir.empty());
  shards_.reserve(static_cast<std::size_t>(config.shards));
  for (num::Index i = 0; i < config.shards; ++i) {
    shards_.push_back(make_shard());
  }
  const EngineShard& first = *shards_.front();
  model_info_.name = model_name_;
  model_info_.layers = first.engine().layers();
  model_info_.dh = first.engine().hidden_dim();
  model_info_.vocab =
      model_vocab_ > 0
          ? model_vocab_
          : (embedding_ != nullptr ? embedding_->vocab()
                                   : first.engine().input_dim());
  model_info_.quant = first.engine().quantized();
  if (!config.spill.dir.empty()) {
    env_ = config.spill.env;
    if (env_ == nullptr) {
      owned_env_ = std::make_unique<store::PosixEnv>();
      env_ = owned_env_.get();
    }
    // One segment file (and journal) per shard: the disk tier inherits
    // the pool's shared-nothing partitioning, so no cross-shard
    // synchronization and no interleaved appends. Records are
    // state_width() wide — the L per-layer rows packed side by side
    // (serve/session.h).
    spills_.resize(static_cast<std::size_t>(config.shards));
    if (config.spill.journal) {
      journals_.resize(static_cast<std::size_t>(config.shards));
    }
    for (num::Index i = 0; i < config.shards; ++i) attach_stores(i);
  }
}

void EnginePool::attach_stores(num::Index i) {
  if (env_ == nullptr) return;
  const auto idx = static_cast<std::size_t>(i);
  EngineShard& shard = *shards_[idx];
  store::StoreConfig sc;
  sc.path = config_.spill.dir + "/shard_" + std::to_string(i) + ".seg";
  sc.encoded = config_.spill.encoded;
  spills_[idx] = std::make_unique<store::SegmentStore>(
      *env_, sc, shard.sessions().state_width());
  shard.sessions().set_spill(spills_[idx].get());
  if (!journals_.empty()) {
    store::JournalConfig jc;
    jc.path = config_.spill.dir + "/shard_" + std::to_string(i) + ".jnl";
    jc.sync = config_.spill.journal_sync;
    jc.checkpoint_bytes = config_.spill.journal_checkpoint_bytes;
    journals_[idx] = std::make_unique<store::Journal>(
        *env_, jc, shard.sessions().state_width());
    shard.sessions().set_journal(journals_[idx].get());
    // Cold recovery: replay this shard's committed history into the
    // fresh store (recover_from also reconciles the spill tier). The
    // spill must already be attached — restored-then-updated sessions
    // erase their stale spill records during the reconcile pass.
    shard.sessions().recover_from(*journals_[idx]);
    recovered_sessions_ += static_cast<std::uint64_t>(shard.sessions().size());
    if (journals_[idx]->recovered_max_arrival_us() >
        recovered_max_arrival_us_) {
      recovered_max_arrival_us_ = journals_[idx]->recovered_max_arrival_us();
    }
  }
}

num::Index EnginePool::shard_of(SessionId id) const {
  return static_cast<num::Index>(mix64(id) %
                                 static_cast<std::uint64_t>(shards_.size()));
}

void EnginePool::enqueue(const Request& r) {
  shards_[static_cast<std::size_t>(shard_of(r.session))]->enqueue(r);
}

num::Index EnginePool::process_ready(std::int64_t now_us,
                                     const ResponseSink& sink) {
  num::Index served = 0;
  for (auto& s : shards_) served += s->process_ready(now_us, sink);
  return served;
}

num::Index EnginePool::flush(std::int64_t now_us, const ResponseSink& sink) {
  num::Index served = 0;
  for (auto& s : shards_) served += s->flush(now_us, sink);
  return served;
}

num::Index EnginePool::drain_parallel(std::int64_t now_us,
                                      std::span<const ResponseSink> shard_sinks) {
  ZSS_EXPECTS(shard_sinks.size() == shards_.size());
  const std::size_t n = shards_.size();
  std::vector<num::Index> served(n, 0);
  std::vector<std::thread> workers;
  workers.reserve(n - 1);
  // Same shape as num::parallel_for: spawn n-1 workers, run the last
  // shard on the calling thread. Shards are shared-nothing, so this is
  // bit-identical to the sequential flush at any thread count.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    workers.emplace_back([this, i, now_us, &shard_sinks, &served] {
      served[i] = shards_[i]->flush(now_us, shard_sinks[i]);
    });
  }
  served[n - 1] = shards_[n - 1]->flush(now_us, shard_sinks[n - 1]);
  for (auto& w : workers) w.join();

  num::Index total = 0;
  for (num::Index s : served) total += s;
  return total;
}

num::Index EnginePool::pending() const {
  num::Index n = 0;
  for (const auto& s : shards_) n += s->pending();
  return n;
}

void EnginePool::reset_stats() {
  for (auto& s : shards_) s->reset_stats();
}

void EnginePool::rebuild_shard(num::Index i) {
  ZSS_EXPECTS(i >= 0 && i < num_shards());
  const auto idx = static_cast<std::size_t>(i);
  // Retire, never destroy: an abandoned worker thread may still be
  // wedged inside the old shard's step, and it must keep seeing valid
  // memory until the pool itself dies. The abandon contract
  // (serve/worker.h) is only *checked* at batch boundaries, though — a
  // worker wedged INSIDE the engine that resumes after the abandon
  // grace finishes its batch, and its commit path would append and
  // fsync through the old journal handle into the very file the
  // rebuilt shard reopens below (two handles, divergent tails — WAL
  // corruption and silent loss of acknowledged records on the next
  // recovery). Poison the retired stores first: after poison() returns
  // no stale handle can write, so the replacement journal/segment is
  // the file's sole writer. The worker's response fence (its deliveries
  // re-check abandonment per response) covers the sink side the same
  // way.
  shard_graveyard_.push_back(std::move(shards_[idx]));
  if (!spills_.empty()) {
    if (spills_[idx] != nullptr) spills_[idx]->poison();
    spill_graveyard_.push_back(std::move(spills_[idx]));
  }
  if (!journals_.empty()) {
    if (journals_[idx] != nullptr) journals_[idx]->poison();
    journal_graveyard_.push_back(std::move(journals_[idx]));
  }
  shards_[idx] = make_shard();
  // Reopens the segment + journal files and replays the journal: the
  // rebuilt shard resumes from exactly the state the dead one last
  // group-committed, same as a whole-process restart but scoped to one
  // shard.
  attach_stores(i);
}

DigestTable EnginePool::merged_digests() const {
  DigestTable out;
  for (const auto& s : shards_) {
    DigestTable t = s->sessions().digests_copy();
    // Hash-pinned sessions: per-shard tables are disjoint, so insert
    // never collides and the union is exact.
    out.insert(t.begin(), t.end());
  }
  return out;
}

std::uint64_t EnginePool::orphans_removed() const {
  std::uint64_t n = 0;
  for (const auto& j : journals_) {
    if (j != nullptr) n += j->orphans_removed();
  }
  return n;
}

}  // namespace zss::serve
