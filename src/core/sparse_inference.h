// Sparse-state LSTM inference engine (software counterpart of the
// accelerator's skip logic).
//
// At inference the stored state is pruned, so the recurrent matvec
// Wh h^p_{t-1} only needs the weight columns of non-zero elements. This
// engine computes exactly that: at batch 1 it encodes the state with
// the paper's offset encoder and accumulates the packed weight row of
// every kept position (see nn/packed_weights.h); at batch > 1 it
// encodes per lane (sparse::LaneEncodedState) and accumulates each
// lane's own kept rows (num::sparse_accum_rows_multi), so the skipped
// work scales with per-lane sparsity instead of collapsing to the
// batch intersection (1 - s^B, Fig. 7). Effectual vs. skipped MACs are
// counted so the algorithmic speedup bound of Figs. 8-9 can be measured
// in software before touching the cycle model — and, since the packed
// rows are contiguous, the wall-clock speedup is real too
// (bench/bench_sparse_vs_dense.cc).
//
// Contracts:
//  * step() and step_dense() produce bit-for-bit identical states: both
//    accumulate each pre-activation element in ascending state-position
//    order through num::madd, and skipped terms are exact IEEE
//    identities (madd(0, w, acc) == acc).
//  * step() performs zero heap allocations once warm: every temporary
//    lives in the engine's Workspace or in buffers reserved up front
//    (workspace().allocation_count() is the instrument tests use);
//    reserve(max_batch) reaches that steady state before the first step.
//  * The engine never owns recurrent state: h and c are caller-owned and
//    bound per call by reference, so a serving layer swaps a session's
//    state in and out of a step without copying a single element (the
//    batch-of-one path of serve::EngineShard passes the session's own
//    matrices straight through).
//  * With QuantConfig::enabled the same entry points run an int8
//    datapath end to end: int8 weights/state, i32 accumulation, LUT
//    activations (quant/lut_nonlinear.h), integer cell update. The
//    step() == step_dense() bit-identity still holds — i32 accumulation
//    wraps mod 2^32, so any summation order matches and skipped zero
//    products are exact identities (docs/exactness.md "int8"). h and c
//    stay caller-owned fp32 matrices whose values lie exactly on the
//    1/127 state grid.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "nn/packed_weights.h"
#include "num/matrix.h"
#include "num/workspace.h"
#include "quant/lut_nonlinear.h"
#include "sparse/encoding.h"

namespace zss::core {

/// Selects the engine's quantized (int8) step mode and fixes its grids.
/// Everything here is decided at construction time — no data-dependent
/// scale ever enters a step, which is what makes the quantized path
/// deterministic across batch compositions and shard counts
/// (docs/exactness.md "int8").
struct QuantConfig {
  /// Off by default: the engine runs the fp32 0-ULP path.
  bool enabled = false;
  /// Pre-activation clip (real units) mapped onto the int8 LUT input
  /// grid pre_clip/127. LSTM gates saturate well inside |pre| = 8.
  float pre_clip = 8.0f;
  /// Cell-state clip: c is kept on the 1/127 grid in [-c_clip, c_clip].
  int c_clip = 8;

  /// The default-calibrated int8 mode (the one the benches and the
  /// serving --quant flag use).
  static QuantConfig int8() {
    QuantConfig q;
    q.enabled = true;
    return q;
  }
};

/// Snapshot of what the *most recent* step()/step_dense() call did.
/// Unlike InferenceStats this never accumulates, so a serving layer can
/// use it as a per-batch feedback signal without bookkeeping stats
/// deltas.
struct StepStats {
  num::Index batch = 0;           // rows of the step's state matrices
  num::Index kept_positions = 0;  // positions kept by >= 1 lane (dense: dh)
  num::Index positions = 0;       // dh
  /// Kept positions summed over lanes — the per-lane effectual work of
  /// the batched skip path (num::sparse_accum_rows_multi accumulates
  /// exactly this many packed rows). At B = 1 equals kept_positions;
  /// dense steps report batch * positions.
  num::Index lane_kept_positions = 0;
  /// Per-element zero fraction of the state *stored* by this step (the
  /// pruner's report). With the per-lane skip path this is also the
  /// sparsity the *next* step will exploit at any batch size — the
  /// batch-intersection collapse (kept ~= 1 - s^B) no longer applies.
  double lane_sparsity = 0.0;

  /// Union sparsity: fraction of positions zero in EVERY lane — what a
  /// batch-intersecting skip (the paper's Fig. 5(d) encoder) would have
  /// seen this step. Reported for comparison against the per-lane path.
  double observed_sparsity() const {
    return positions == 0 ? 0.0
                          : 1.0 - static_cast<double>(kept_positions) /
                                      static_cast<double>(positions);
  }

  /// Per-lane sparsity the skip logic actually exploited this step.
  double observed_lane_sparsity() const {
    const num::Index total = batch * positions;
    return total == 0 ? 0.0
                      : 1.0 - static_cast<double>(lane_kept_positions) /
                                  static_cast<double>(total);
  }
};

/// Cumulative counters over every step since construction or the last
/// reset_stats(). Callers that reuse one engine across measurement
/// epochs (benches, the serving layer between batcher epochs) must call
/// SparseLstmEngine::reset_stats() at each epoch boundary — the
/// counters deliberately never reset themselves.
struct InferenceStats {
  num::Index steps = 0;
  num::Index state_macs_total = 0;      // dense cost of Wh h per step
  num::Index state_macs_effectual = 0;  // after per-lane skipping
  num::Index input_macs = 0;            // Wx x cost (never skipped)
  num::Index kept_positions = 0;        // union kept (>= 1 lane non-zero)
  num::Index positions = 0;
  num::Index lane_kept_positions = 0;   // kept summed over lanes
  num::Index lane_positions = 0;        // batch * dh summed over steps

  /// Upper bound on the matvec speedup from skipping (state part only).
  /// An all-zero state skipped *everything*, so the bound is the entire
  /// dense cost — not zero (which would read as "no speedup").
  double state_speedup() const {
    if (state_macs_effectual == 0) {
      return state_macs_total == 0
                 ? 0.0
                 : static_cast<double>(state_macs_total);
    }
    return static_cast<double>(state_macs_total) /
           static_cast<double>(state_macs_effectual);
  }

  /// Mean batch-intersected (union) sparsity: what a batch-intersecting
  /// skip would have exploited. The per-lane path reports it alongside
  /// observed_lane_sparsity() so the Fig. 7 collapse stays measurable.
  double observed_sparsity() const {
    return positions == 0 ? 0.0
                          : 1.0 - static_cast<double>(kept_positions) /
                                      static_cast<double>(positions);
  }

  /// Mean per-lane sparsity the skip logic actually exploited — tracks
  /// the pruner's per-lane target at any batch size.
  double observed_lane_sparsity() const {
    return lane_positions == 0
               ? 0.0
               : 1.0 - static_cast<double>(lane_kept_positions) /
                           static_cast<double>(lane_positions);
  }

  void reset() { *this = InferenceStats{}; }
};

class SparseLstmEngine {
 public:
  /// Borrows the trained cell; the caller keeps it alive. The pruner
  /// determines which state elements are stored as zero. Packs the
  /// cell's weights into the cache-aware transposed layout on
  /// construction (re-construct the engine if the weights change).
  SparseLstmEngine(const nn::LstmCell& cell, const StatePruner& pruner,
                   sparse::EncoderConfig encoder = {},
                   QuantConfig quant = {});

  /// One timestep over a batch. `h` and `c` are (B x dh) and updated in
  /// place; `h` is stored pruned (what DRAM would hold). When `dense_h`
  /// is non-null it receives the UNpruned h of this step (resized to
  /// B x dh; no allocation once reserved) — the trained stacked model
  /// feeds the dense h to the next layer and the classifier, pruning
  /// only what the recurrence re-reads (core/stacked_lstm.cc), so a
  /// stacked engine needs this tap to match training bit-for-bit.
  void step(const num::Matrix& x, num::Matrix& h, num::Matrix& c,
            num::Matrix* dense_h = nullptr);

  /// Reference step without skipping (same pruning, dense matvec) — the
  /// result must match step() bit-for-bit; used by tests and as the
  /// "dense model" cost baseline. `dense_h` as in step().
  void step_dense(const num::Matrix& x, num::Matrix& h, num::Matrix& c,
                  num::Matrix* dense_h = nullptr);

  /// Pre-grows every internal buffer (workspace slots, encoder stores,
  /// pruning scratch) for batches up to `max_batch`, so even the first
  /// step() is heap-allocation-free. A serving shard calls this once at
  /// construction; afterwards any batch size in [1, max_batch] reuses
  /// the same buffers (Matrix::resize within capacity never allocates).
  void reserve(num::Index max_batch);

  /// Cumulative counters (see InferenceStats). Accumulate until
  /// reset_stats(); callers own the epoch boundaries.
  const InferenceStats& stats() const { return stats_; }

  /// Zeroes the cumulative stats(). Call at measurement-epoch
  /// boundaries (a bench config, a batcher epoch); last_step_stats() is
  /// unaffected — it always describes the most recent step.
  void reset_stats() { stats_.reset(); }

  /// What the most recent step()/step_dense() call did (never
  /// accumulates). Zero-initialized before the first step.
  const StepStats& last_step_stats() const { return last_; }

  /// The fp32 packed weights; empty (0 x 0) in the quantized mode,
  /// which never reads them — see packed_weights_i8().
  const nn::PackedLstmWeights& packed_weights() const { return packed_; }

  /// True when the engine was constructed with QuantConfig::enabled:
  /// step()/step_dense() run the int8 datapath (docs/exactness.md).
  bool quantized() const { return q_.has_value(); }

  const QuantConfig& quant_config() const { return quant_; }

  /// The packed int8 weights of the quantized mode; null when the
  /// engine runs the fp32 path.
  const nn::PackedLstmWeightsI8* packed_weights_i8() const {
    return q_ ? &q_->weights : nullptr;
  }

  /// Scratch arena used by step()/step_dense(); its allocation_count()
  /// must be stable across steps once the engine is warm.
  const num::Workspace& workspace() const { return ws_; }

 private:
  void compute_input_path(const num::Matrix& x, num::Matrix& pre);
  void finish_step(num::Matrix& pre, const num::Matrix& c_prev,
                   num::Matrix& h, num::Matrix& c, num::Matrix* dense_h);

  /// Everything the int8 step mode owns: packed weights, the three
  /// activation LUTs (fixed input grids, built once, widened to i32 for
  /// the cell-update kernel), and the integer twins of the workspace/
  /// encoder buffers (the fp32 Workspace is float-only by design, so the
  /// int buffers live here and are grown by reserve()).
  struct QuantState {
    QuantState(const nn::LstmCell& cell, const QuantConfig& cfg);

    using Lut = std::array<std::int32_t, 256>;  // lut[128 + q] for q in i8

    nn::PackedLstmWeightsI8 weights;
    Lut sigmoid;   // f/i/o gates, input grid pre_clip/127
    Lut tanh_pre;  // g gate, same input grid
    Lut tanh_c;    // cell output, input grid c_clip/127
    /// i32 pre-activation -> int8 LUT input: multiply by
    /// weight_scale/pre_clip. double — an i32 accumulator exceeds the
    /// float mantissa, and the requantize must be exact-deterministic.
    double acc_to_pre = 0.0;
    num::MatrixI8 xq;      // quantized input, (B x dx)
    num::MatrixI8 hq;      // quantized state, (B x dh)
    num::MatrixI32 pre;    // i32 pre-activations, (B x 4dh)
    num::MatrixI32 pre_h;  // step_dense's recurrent GEMM, (B x 4dh)
    // Skip-path encodings, reused for the input and then the state.
    sparse::EncodedState<std::int8_t> enc;        // B == 1
    sparse::LaneEncodedState<std::int8_t> lanes;  // B > 1
  };

  void step_quant(const num::Matrix& x, num::Matrix& h, num::Matrix& c,
                  bool dense, num::Matrix* dense_h);
  /// pre += v * packed over v's non-zero elements (v is B x k int8,
  /// packed k x 4dh): encodes v like the state and runs the int8 skip
  /// kernels. Returns {positions kept by >= 1 lane, kept over lanes}.
  std::pair<num::Index, num::Index> accumulate_skip_i8(
      const num::MatrixI8& v, const num::MatrixI8& packed,
      num::MatrixI32& pre);
  void finish_step_quant(num::Index batch, num::Matrix& h, num::Matrix& c,
                         num::Matrix* dense_h);

  enum Slot : std::size_t { kPre, kPreH };

  const nn::LstmCell* cell_;
  const StatePruner* pruner_;
  sparse::EncoderConfig encoder_;
  QuantConfig quant_;
  std::optional<QuantState> q_;  // engaged iff quant_.enabled
  InferenceStats stats_;
  StepStats last_;
  nn::PackedLstmWeights packed_;
  num::Workspace ws_;
  sparse::EncodedState<float> enc_;        // reused B == 1 encoder output
  sparse::LaneEncodedState<float> lanes_;  // reused B > 1 encoder output
  std::vector<num::Index> positions_;      // absolute kept positions (B == 1)
  std::vector<float> prune_scratch_;       // quantile scratch for pruning
  num::Index reserved_batch_ = 0;          // capacity the buffers cover
};

}  // namespace zss::core
