// L-layer wrapper over SparseLstmEngine — the inference twin of the
// trainer's StackedPrunedLstmLm.
//
// Wiring matches training exactly (core/stacked_lstm.cc): each layer's
// recurrence consumes its own pruned stored state, but what feeds the
// NEXT layer (and, off the top layer, the classifier) is the DENSE h of
// the step — only the recurrent read path skips. The per-layer engines
// tap that dense h via SparseLstmEngine's dense_h out-param, so a
// stacked step is bit-for-bit L independent single-layer steps chained
// through internal feed-forward buffers (the oracle the stacked-engine
// test suite checks, fp32 and int8, on every backend).
//
// Contracts inherited per layer and preserved by the wrapper:
//  * step() == step_dense() bit-identity;
//  * zero heap allocations once reserve(max_batch) has run (the
//    feed-forward ping-pong buffers are reserved with the layers);
//  * h/c state is caller-owned, one (B x dh) pair per layer, bound per
//    call — the serving layer passes a session's own matrices through.
//
// step_layer() exposes a single layer's step so a caller can time the
// layers one by one (zss_bench's per-layer engine probe).
#pragma once

#include <deque>
#include <span>
#include <vector>

#include "core/sparse_inference.h"
#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "num/matrix.h"
#include "sparse/encoding.h"

namespace zss::core {

class StackedEngine {
 public:
  /// Borrows `cells[l]` / `pruners[l]` for layer l; the caller keeps
  /// them alive. Layer 0's input dim is the model input dim; every
  /// deeper layer must consume exactly hidden_dim. All layers share one
  /// encoder/quant config (the quantization grid is a model-wide
  /// property recorded in the checkpoint header).
  StackedEngine(std::span<const nn::LstmCell* const> cells,
                std::span<const StatePruner* const> pruners,
                sparse::EncoderConfig encoder = {}, QuantConfig quant = {});

  num::Index layers() const { return static_cast<num::Index>(layers_.size()); }
  num::Index hidden_dim() const { return dh_; }
  num::Index input_dim() const { return dx_; }

  /// One timestep through all L layers. `h` and `c` hold one (B x dh)
  /// matrix per layer, updated in place (stored pruned, like the
  /// single-layer engine). `dense_top`, when non-null, receives the
  /// top layer's dense (unpruned) h — what the trained classifier
  /// consumes.
  void step(const num::Matrix& x, std::span<num::Matrix> h,
            std::span<num::Matrix> c, num::Matrix* dense_top = nullptr);

  /// Dense-matvec reference; must match step() bit-for-bit.
  void step_dense(const num::Matrix& x, std::span<num::Matrix> h,
                  std::span<num::Matrix> c, num::Matrix* dense_top = nullptr);

  /// One layer's step, for per-layer probes: `input` is the model
  /// input (l == 0) or the previous layer's dense h; `dense_h` must be
  /// non-null for l < layers()-1 (it feeds layer l+1) and taps the
  /// classifier view off the top layer.
  void step_layer(num::Index l, const num::Matrix& input, num::Matrix& h,
                  num::Matrix& c, num::Matrix* dense_h) {
    layers_[static_cast<std::size_t>(l)].step(input, h, c, dense_h);
  }

  /// Pre-grows every layer and the feed-forward buffers for batches up
  /// to `max_batch` (same steady-state contract as the single-layer
  /// reserve).
  void reserve(num::Index max_batch);

  /// Cumulative counters summed over all layers (each layer's recurrent
  /// skip contributes its own effectual/total MACs).
  InferenceStats stats() const;
  void reset_stats();

  /// Most recent step of layer 0 — the batch-shape feedback signal the
  /// serving layer reads (all layers see the same batch).
  const StepStats& last_step_stats() const {
    return layers_.front().last_step_stats();
  }

  /// Layer 0's scratch arena — the allocation-stability instrument the
  /// serving tests watch (all layers share the reserve discipline).
  const num::Workspace& workspace() const {
    return layers_.front().workspace();
  }

  bool quantized() const { return layers_.front().quantized(); }

  const SparseLstmEngine& layer_engine(num::Index l) const {
    return layers_[static_cast<std::size_t>(l)];
  }

 private:
  // deque: SparseLstmEngine is neither movable nor copyable (it owns a
  // Workspace and packed weights addressed by span), so the layers are
  // emplaced in place and never relocated.
  std::deque<SparseLstmEngine> layers_;
  num::Index dx_ = 0;
  num::Index dh_ = 0;
  // Feed-forward ping-pong: layer l reads one buffer and writes its
  // dense h into the other, so a layer never aliases its own input.
  num::Matrix ff_[2];
};

}  // namespace zss::core
