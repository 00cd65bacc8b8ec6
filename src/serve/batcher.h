// Request batching policy — coalescing single-token requests into one
// SparseLstmEngine::step() call.
//
// With the per-lane batched skip path (num::sparse_accum_rows_multi),
// batching recurrent inference is a straightforward win again: each
// lane accumulates exactly its own kept positions, so the effectual
// work of a batch is the sum of its lanes' per-lane work — adding a
// request to a batch no longer destroys the sparsity every other lane
// came for. The batch-intersection cap this batcher carried while the
// engine skipped only the intersection of the batch's zero patterns
// (kept(B) ~= 1 - s^B, the paper's Fig. 7 — reproduced by
// bench/fig7_batch_sparsity.cc) is therefore retired; docs/serving.md
// records the policy history.
//
// The batcher is work-conserving: it never holds a request to wait for
// batch-mates. A batch is simply the longest conflict-free FIFO prefix
// of what is pending, capped at max_batch:
//   * max_batch bounds staging memory and worst-case service time,
//   * a batch never contains the same session twice — a session's
//     second token must see the state its first one produced.
// Batching comes from the serving worker, not from a timer: whatever
// arrives while a batch is being served (journal fsync included) is
// pending when the worker comes back, and forms the next batch
// (BatchMaker-style "cellular" batching, Gao et al., EuroSys 2018).
// docs/serving.md records why the max-wait timer was retired.
//
// The batcher is deterministic and clock-free: the same request stream
// and policy always produce the same batch boundaries.
#pragma once

#include <vector>

#include "num/types.h"
#include "serve/request.h"

namespace zss::serve {

struct BatchPolicy {
  num::Index max_batch = 8;
  /// Ignored: batches never wait (see the top of this file). Kept so
  /// existing callers and the `--max-wait-us` flag still compile/parse.
  std::int64_t max_wait_us = 200;
};

class RequestBatcher {
 public:
  explicit RequestBatcher(const BatchPolicy& policy);

  /// Appends a request (FIFO). Grows the ring only when full — reserve
  /// capacity up front for allocation-free steady state.
  void enqueue(const Request& r);

  /// Pre-sizes the ring for `n` pending requests.
  void reserve(num::Index n);

  num::Index pending() const { return static_cast<num::Index>(count_); }

  /// Pops the next batch (the conflict-free FIFO prefix, at most
  /// max_batch) into `out` (cleared first). Returns its size; 0 when
  /// nothing is pending.
  num::Index pop_batch(std::vector<Request>& out);

 private:
  num::Index conflict_free_prefix(num::Index cap) const;
  const Request& at(std::size_t i) const;  // i-th pending, FIFO order

  BatchPolicy policy_;
  std::vector<Request> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace zss::serve
