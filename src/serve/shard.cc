#include "serve/shard.h"

#include <algorithm>
#include <ctime>

#include "num/parallel.h"

namespace zss::serve {

namespace {

// Thread CPU time where the platform has it (Linux, macOS); wall time
// otherwise. Used only for ShardStats::cpu_us accounting.
double thread_cpu_us() {
#ifdef CLOCK_THREAD_CPUTIME_ID
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e6 +
           static_cast<double>(ts.tv_nsec) * 1e-3;
  }
#endif
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

EngineShard::EngineShard(const ServeModel& model, const BatchPolicy& policy,
                         sparse::EncoderConfig encoder, SessionTtl ttl,
                         core::QuantConfig quant, bool pipeline)
    : cells_(model.cells.begin(), model.cells.end()),
      pruners_(model.pruners.begin(), model.pruners.end()),
      embedding_(model.embedding),
      engine_(cells_, pruners_, encoder, quant),
      sessions_(engine_.hidden_dim(), ttl, engine_.layers()),
      batcher_(policy),
      pipeline_(pipeline && engine_.layers() > 1) {
  // A whole-batch quantile threshold would make a session's outputs
  // depend on its batch-mates — the one thing the serving determinism
  // guarantee cannot absorb (see the header note).
  for (const core::StatePruner* p : pruners_) {
    ZSS_EXPECTS(p->config().mode != core::PruneMode::kTargetSparsity);
  }
  if (embedding_ != nullptr) {
    ZSS_EXPECTS(embedding_->dim() == engine_.input_dim());
  }
  // Processed lanes pin (unevictable) as a batch is assembled, so a
  // capped store must be strictly larger than everything that can hold
  // a pin at once: one batch sequentially, up to layers() batches in
  // the pipelined wavefront. An unpinned LRU victim then always
  // exists, and it is never a pinned lane — which keeps eviction a
  // pure function of the request stream (session.h) and
  // eviction-vs-lane-pointer safety trivial.
  const num::Index pin_span =
      (pipeline_ ? engine_.layers() : 1) * policy.max_batch;
  ZSS_EXPECTS(ttl.max_sessions == 0 || ttl.max_sessions > pin_span);
  init(policy);
}

EngineShard::EngineShard(const nn::LstmCell& cell,
                         const core::StatePruner& pruner,
                         const BatchPolicy& policy,
                         sparse::EncoderConfig encoder, SessionTtl ttl,
                         core::QuantConfig quant)
    : cells_{&cell},
      pruners_{&pruner},
      embedding_(nullptr),
      engine_(cells_, pruners_, encoder, quant),
      sessions_(cell.hidden_dim(), ttl, 1),
      batcher_(policy),
      pipeline_(false) {
  ZSS_EXPECTS(pruner.config().mode != core::PruneMode::kTargetSparsity);
  ZSS_EXPECTS(ttl.max_sessions == 0 || ttl.max_sessions > policy.max_batch);
  init(policy);
}

void EngineShard::init(const BatchPolicy& policy) {
  const num::Index max_batch = policy.max_batch;
  const num::Index dx = engine_.input_dim();
  const num::Index dh = engine_.hidden_dim();
  const auto L = static_cast<std::size_t>(engine_.layers());
  engine_.reserve(max_batch);
  batch_.reserve(static_cast<std::size_t>(max_batch));
  lanes_.reserve(static_cast<std::size_t>(max_batch));
  row_digests_.reserve(static_cast<std::size_t>(max_batch));
  ids_.reserve(static_cast<std::size_t>(max_batch));
  x_.resize(max_batch, dx);
  h_.resize(L);
  c_.resize(L);
  for (std::size_t l = 0; l < L; ++l) {
    h_[l].resize(max_batch, dh);
    c_[l].resize(max_batch, dh);
  }
  dense_top_.resize(max_batch, dh);
  if (pipeline_) {
    flights_.resize(L);
    for (Flight& f : flights_) {
      f.requests.reserve(static_cast<std::size_t>(max_batch));
      f.lanes.reserve(static_cast<std::size_t>(max_batch));
      f.x.resize(max_batch, dx);
      f.ff[0].resize(max_batch, dh);
      f.ff[1].resize(max_batch, dh);
      f.hl.resize(max_batch, dh);
      f.cl.resize(max_batch, dh);
    }
  }
}

num::Index EngineShard::flush(std::int64_t now_us, const ResponseSink& sink) {
  if (pipeline_) return flush_wavefront(now_us, sink);
  num::Index served = 0;
  while (num::Index n = process_ready(now_us, sink)) served += n;
  return served;
}

void EngineShard::build_input(const std::vector<Request>& requests,
                              num::Index batch, num::Matrix& x) {
  if (embedding_ != nullptr) {
    const num::Index vocab = embedding_->vocab();
    ids_.clear();
    for (num::Index r = 0; r < batch; ++r) {
      const num::Index token = requests[static_cast<std::size_t>(r)].token;
      ZSS_EXPECTS(token >= 0);
      ids_.push_back(token % vocab);
    }
    embedding_->forward(ids_, x);
  } else {
    const num::Index dx = engine_.input_dim();
    x.resize(batch, dx, 0.0f);
    for (num::Index r = 0; r < batch; ++r) {
      const num::Index token = requests[static_cast<std::size_t>(r)].token;
      ZSS_EXPECTS(token >= 0);
      x(r, token % dx) = 1.0f;
    }
  }
}

num::Index EngineShard::drop_expired(std::vector<Request>& requests,
                                     num::Index batch, std::int64_t now_us,
                                     const ResponseSink& sink) {
  // Deadline drops happen before any session is touched: a timed-out
  // request leaves no state transition, no digest fold and no journal
  // record, so a resuming client can safely re-drive it. Deadlines are
  // monotone within a session (same offset over monotone arrivals), so
  // answering the drops first preserves per-session response order.
  num::Index w = 0;
  for (num::Index r = 0; r < batch; ++r) {
    const Request& rq = requests[static_cast<std::size_t>(r)];
    if (rq.deadline_us > 0 && now_us > rq.deadline_us) {
      Response resp;
      resp.session = rq.session;
      resp.seq = rq.seq;
      resp.client = rq.client;
      resp.arrival_us = rq.arrival_us;
      resp.done_us = now_us;
      resp.timed_out = true;
      sink(resp);
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (w != r) requests[static_cast<std::size_t>(w)] = rq;
    ++w;
  }
  return w;
}

num::Index EngineShard::process_ready(std::int64_t now_us,
                                      const ResponseSink& sink) {
  const num::Index consumed = batcher_.pop_batch(batch_);
  if (consumed == 0) return 0;
  // The popped batch's newest stamp bounds every future arrival even
  // when deadline drops shrink the batch — sweep with it, not with the
  // filtered tail.
  const std::int64_t newest_arrival =
      batch_[static_cast<std::size_t>(consumed - 1)].arrival_us;
  const num::Index B = drop_expired(batch_, consumed, now_us, sink);
  if (B == 0) {
    sessions_.sweep_expired(newest_arrival);
    return consumed;
  }
  const num::Index dh = engine_.hidden_dim();
  const auto L = static_cast<std::size_t>(engine_.layers());
  const auto t0 = std::chrono::steady_clock::now();
  const double cpu0 = thread_cpu_us();

  lanes_.clear();
  // Lanes pin one at a time, in request order, exactly as their
  // get_or_create runs. Pinning exists for memory safety (an eviction
  // must never invalidate an earlier lane's Session pointer) and is
  // redundant for victim choice — get_or_create just moved every
  // processed lane to the LRU front, so with max_sessions > max_batch
  // the tail is always someone else. Deliberately NOT pinned: sessions
  // named by *later* lanes of this batch. An eviction decision may
  // only depend on the prefix of requests processed so far — never on
  // batch composition, which live serving and virtual-clock replay
  // legitimately disagree on. If the LRU tail has a request later in
  // this very batch, it is evicted and restarted exactly as a serial
  // request-at-a-time processor would decide (grouping-independence is
  // test-enforced: LruEvictionIsIndependentOfBatchGrouping).
  for (num::Index r = 0; r < B; ++r) {
    const Request& rq = batch_[static_cast<std::size_t>(r)];
    Session& s = sessions_.get_or_create(rq.session, rq.arrival_us);
    ++s.pinned;
    lanes_.push_back(&s);
  }

  build_input(batch_, B, x_);

  if (B == 1) {
    // Batch-of-one fast path: the session's own per-layer matrices go
    // straight into the engine — no state is gathered, scattered, or
    // copied.
    engine_.step(x_, lanes_[0]->h, lanes_[0]->c, &dense_top_);
  } else {
    for (std::size_t l = 0; l < L; ++l) {
      h_[l].reshape(B, dh);
      c_[l].reshape(B, dh);
      for (num::Index r = 0; r < B; ++r) {
        auto sh = lanes_[static_cast<std::size_t>(r)]->h[l].row(0);
        auto sc = lanes_[static_cast<std::size_t>(r)]->c[l].row(0);
        std::copy(sh.begin(), sh.end(), h_[l].row(r).begin());
        std::copy(sc.begin(), sc.end(), c_[l].row(r).begin());
      }
    }
    engine_.step(x_, h_, c_, &dense_top_);
    for (std::size_t l = 0; l < L; ++l) {
      for (num::Index r = 0; r < B; ++r) {
        auto sh = lanes_[static_cast<std::size_t>(r)]->h[l].row(0);
        auto sc = lanes_[static_cast<std::size_t>(r)]->c[l].row(0);
        std::copy(h_[l].row(r).begin(), h_[l].row(r).end(), sh.begin());
        std::copy(c_[l].row(r).begin(), c_[l].row(r).end(), sc.begin());
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double service_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();
  stats_.requests += B;
  ++stats_.batches;
  stats_.busy_us += service_us;
  stats_.cpu_us += thread_cpu_us() - cpu0;

  // Commit before delivery: every lane's step is folded into the
  // authoritative digest table and appended to the journal, then ONE
  // group-commit sync covers the whole batch — only then do responses
  // go out. A client can therefore never observe a response whose
  // state transition a crash could lose; crash-lost *uncommitted*
  // steps were never answered, so a resuming client re-drives them
  // onto exactly the pre-step state and gets bit-identical rows.
  row_digests_.clear();
  for (num::Index r = 0; r < B; ++r) {
    Session& s = *lanes_[static_cast<std::size_t>(r)];
    ++s.steps;
    const std::uint64_t row = digest_row(s.h.back().row(0));
    sessions_.commit_step(s, row);
    row_digests_.push_back(row);
  }
  sessions_.commit_batch();

  for (num::Index r = 0; r < B; ++r) {
    Session& s = *lanes_[static_cast<std::size_t>(r)];
    Response resp;
    resp.session = s.id;
    resp.seq = batch_[static_cast<std::size_t>(r)].seq;
    resp.client = batch_[static_cast<std::size_t>(r)].client;
    resp.arrival_us = batch_[static_cast<std::size_t>(r)].arrival_us;
    resp.done_us = now_us;
    resp.service_us = service_us;
    resp.batch = B;
    resp.h = s.h.back().row(0);
    resp.dense_h = dense_top_.row(r);
    resp.row_digest = row_digests_[static_cast<std::size_t>(r)];
    sink(resp);
  }
  for (Session* s : lanes_) --s->pinned;
  // Batch boundary: reclaim idle sessions. Arrival stamps are monotone
  // within a shard, so the newest stamp of this (FIFO) batch bounds
  // every future arrival — the sweep frees only sessions the lazy TTL
  // rule would restart anyway (value-neutral; session.h). Its kErase
  // records ride to the next batch's commit, which is safe for the
  // same reason the sweep itself is: resurrecting a swept session on
  // recovery changes no output bit.
  sessions_.sweep_expired(newest_arrival);
  sessions_.maybe_checkpoint();
  return consumed;
}

void EngineShard::admit(Flight& f) {
  f.lanes.clear();
  for (num::Index r = 0; r < f.batch; ++r) {
    const Request& rq = f.requests[static_cast<std::size_t>(r)];
    Session& s = sessions_.get_or_create(rq.session, rq.arrival_us);
    ++s.pinned;
    f.lanes.push_back(&s);
  }
  build_input(f.requests, f.batch, f.x);
  f.layer = 0;
  f.admitted = true;
  f.t0 = std::chrono::steady_clock::now();
}

void EngineShard::run_layer(Flight& f) {
  const num::Index l = f.layer;
  const num::Index dh = engine_.hidden_dim();
  const auto lz = static_cast<std::size_t>(l);
  const num::Matrix& input = l == 0 ? f.x : f.ff[static_cast<std::size_t>((l - 1) % 2)];
  num::Matrix* dense = &f.ff[static_cast<std::size_t>(l % 2)];
  if (f.batch == 1) {
    Session& s = *f.lanes[0];
    engine_.step_layer(l, input, s.h[lz], s.c[lz], dense);
  } else {
    f.hl.reshape(f.batch, dh);
    f.cl.reshape(f.batch, dh);
    for (num::Index r = 0; r < f.batch; ++r) {
      auto sh = f.lanes[static_cast<std::size_t>(r)]->h[lz].row(0);
      auto sc = f.lanes[static_cast<std::size_t>(r)]->c[lz].row(0);
      std::copy(sh.begin(), sh.end(), f.hl.row(r).begin());
      std::copy(sc.begin(), sc.end(), f.cl.row(r).begin());
    }
    engine_.step_layer(l, input, f.hl, f.cl, dense);
    for (num::Index r = 0; r < f.batch; ++r) {
      auto sh = f.lanes[static_cast<std::size_t>(r)]->h[lz].row(0);
      auto sc = f.lanes[static_cast<std::size_t>(r)]->c[lz].row(0);
      std::copy(f.hl.row(r).begin(), f.hl.row(r).end(), sh.begin());
      std::copy(f.cl.row(r).begin(), f.cl.row(r).end(), sc.begin());
    }
  }
  ++f.layer;
}

num::Index EngineShard::retire(Flight& f, std::int64_t now_us,
                               double service_us, const ResponseSink& sink) {
  const num::Index B = f.batch;
  stats_.requests += B;
  ++stats_.batches;
  const num::Matrix& top =
      f.ff[static_cast<std::size_t>((engine_.layers() - 1) % 2)];
  // Same commit-before-delivery ordering as process_ready.
  row_digests_.clear();
  for (num::Index r = 0; r < B; ++r) {
    Session& s = *f.lanes[static_cast<std::size_t>(r)];
    ++s.steps;
    const std::uint64_t row = digest_row(s.h.back().row(0));
    sessions_.commit_step(s, row);
    row_digests_.push_back(row);
  }
  sessions_.commit_batch();
  for (num::Index r = 0; r < B; ++r) {
    Session& s = *f.lanes[static_cast<std::size_t>(r)];
    Response resp;
    resp.session = s.id;
    resp.seq = f.requests[static_cast<std::size_t>(r)].seq;
    resp.client = f.requests[static_cast<std::size_t>(r)].client;
    resp.arrival_us = f.requests[static_cast<std::size_t>(r)].arrival_us;
    resp.done_us = now_us;
    resp.service_us = service_us;
    resp.batch = B;
    resp.h = s.h.back().row(0);
    resp.dense_h = top.row(r);
    resp.row_digest = row_digests_[static_cast<std::size_t>(r)];
    sink(resp);
  }
  for (Session* s : f.lanes) --s->pinned;
  // Value-neutral sweep with this flight's newest stamp — identical to
  // the stamp the sequential schedule would sweep with at this batch's
  // boundary. Sessions pinned by deeper in-flight batches are skipped
  // (they carry newer arrivals anyway).
  sessions_.sweep_expired(
      f.requests[static_cast<std::size_t>(B - 1)].arrival_us);
  sessions_.maybe_checkpoint();
  f.batch = 0;
  f.admitted = false;
  f.layer = 0;
  return B;
}

// The layer wavefront. Invariants at every tick start:
//   * active flights hold strictly descending layer indices
//     (front = deepest), so concurrent run_layer calls always hit
//     DIFFERENT per-layer engines — disjoint scratch, no locking;
//   * at most one flight is admitted per tick, which is what creates
//     and preserves the descending-layer property;
//   * per layer l, batch t's step runs a full tick before batch t+1's,
//     so every layer's recurrence order equals the sequential
//     schedule's — the bit-identity argument (shard.h).
// Admission is fenced when the candidate batch would lazily TTL-reset
// a session an in-flight batch has pinned: sequentially that reset
// happens only after the in-flight batch's response is computed, so
// the wavefront drains before admitting (rare — a client idling past
// its TTL and returning within L batches of itself).
num::Index EngineShard::flush_wavefront(std::int64_t now_us,
                                        const ResponseSink& sink) {
  const auto L = static_cast<std::size_t>(engine_.layers());
  const std::int64_t ttl_us = sessions_.ttl().ttl_us;
  num::Index served = 0;
  // Ring pointers in admission order: head = deepest (next to retire),
  // tail = next slot to admit into. A popped-but-hazard-fenced batch
  // stays parked in the tail slot, so pop order == admission order ==
  // retirement order unconditionally.
  std::size_t head = 0;
  std::size_t tail = 0;
  num::Index active = 0;  // flights in the wavefront
  num::Index timed_out = 0;
  while (true) {
    if (active < static_cast<num::Index>(L)) {
      Flight& cand = flights_[tail];
      if (cand.batch == 0) {
        cand.batch = batcher_.pop_batch(cand.requests);
        if (cand.batch > 0) {
          const std::int64_t newest =
              cand.requests[static_cast<std::size_t>(cand.batch - 1)]
                  .arrival_us;
          const num::Index kept =
              drop_expired(cand.requests, cand.batch, now_us, sink);
          timed_out += cand.batch - kept;
          cand.batch = kept;
          if (kept == 0) {
            // Whole batch expired: nothing to admit, but the boundary
            // still happened — sweep and try the next batch (active may
            // be 0 here with requests still queued).
            sessions_.sweep_expired(newest);
            continue;
          }
        }
      }
      if (cand.batch > 0) {
        bool hazard = false;
        if (ttl_us >= 0 && active > 0) {
          for (num::Index r = 0; r < cand.batch && !hazard; ++r) {
            const Request& rq = cand.requests[static_cast<std::size_t>(r)];
            const Session* s = sessions_.find(rq.session);
            hazard = s != nullptr && s->pinned > 0 &&
                     rq.arrival_us - s->last_arrival_us > ttl_us;
          }
        }
        if (!hazard) {
          admit(cand);
          tail = (tail + 1) % L;
          ++active;
        }
      }
    }
    if (active == 0) break;

    const auto t0 = std::chrono::steady_clock::now();
    const double cpu0 = thread_cpu_us();
    // One tick: every active flight advances one layer. Grain 1 so
    // even two flights split across workers; with one worker this is
    // the same calls in sequence — identical bits either way.
    num::parallel_for(
        0, active,
        [&](num::Index b, num::Index e) {
          for (num::Index i = b; i < e; ++i) {
            run_layer(flights_[(head + static_cast<std::size_t>(i)) % L]);
          }
        },
        /*grain=*/1);
    stats_.busy_us += std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    stats_.cpu_us += thread_cpu_us() - cpu0;

    Flight& front = flights_[head];
    if (front.admitted && front.layer == engine_.layers()) {
      const double service_us =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - front.t0)
              .count();
      served += retire(front, now_us, service_us, sink);
      head = (head + 1) % L;
      --active;
    }
  }
  return served + timed_out;
}

void EngineShard::reset_stats() {
  stats_ = ShardStats{};
  engine_.reset_stats();
}

}  // namespace zss::serve
