#include "core/sparse_inference.h"

#include <algorithm>
#include <tuple>

#include "num/kernels.h"

namespace zss::core {

namespace {

// A 256-entry int8 LUT widened to i32 and centred: out[128 + q] is the
// activation code of input q (num::QuantCellParams indexes it as
// lut[q] from the middle).
std::array<std::int32_t, 256> widen_lut(const quant::NonlinearLut& lut) {
  std::array<std::int32_t, 256> out{};
  for (int code = -128; code <= 127; ++code) {
    out[static_cast<std::size_t>(code + 128)] =
        lut.apply(static_cast<std::int8_t>(code));
  }
  return out;
}

}  // namespace

SparseLstmEngine::QuantState::QuantState(const nn::LstmCell& cell,
                                         const QuantConfig& cfg)
    : weights(nn::PackedLstmWeightsI8::pack(cell)),
      sigmoid(widen_lut(quant::NonlinearLut(
          quant::Nonlinearity::kSigmoid,
          quant::QuantParams{cfg.pre_clip / 127.0f}))),
      tanh_pre(widen_lut(
          quant::NonlinearLut(quant::Nonlinearity::kTanh,
                              quant::QuantParams{cfg.pre_clip / 127.0f}))),
      tanh_c(widen_lut(quant::NonlinearLut(
          quant::Nonlinearity::kTanh,
          quant::QuantParams{static_cast<float>(cfg.c_clip) / 127.0f}))),
      acc_to_pre(static_cast<double>(weights.weight_scale.scale) /
                 static_cast<double>(cfg.pre_clip)) {}

SparseLstmEngine::SparseLstmEngine(const nn::LstmCell& cell,
                                   const StatePruner& pruner,
                                   sparse::EncoderConfig encoder,
                                   QuantConfig quant)
    : cell_(&cell),
      pruner_(&pruner),
      encoder_(encoder),
      quant_(quant),
      // The int8 datapath reads only its own pack (QuantState); the
      // fp32 one would be dead weight (4 bytes per weight per engine).
      packed_(quant.enabled ? nn::PackedLstmWeights{}
                            : nn::PackedLstmWeights::pack(cell)) {
  if (quant_.enabled) {
    ZSS_EXPECTS(quant_.pre_clip > 0.0f && quant_.c_clip >= 1 &&
                quant_.c_clip <= num::kMaxCellClip);
    q_.emplace(cell, quant_);
  }
  positions_.reserve(static_cast<std::size_t>(cell.hidden_dim()));
}

void SparseLstmEngine::reserve(num::Index max_batch) {
  ZSS_EXPECTS(max_batch >= 1);
  if (max_batch <= reserved_batch_) return;
  const num::Index dh = cell_->hidden_dim();
  ws_.mat(kPre, max_batch, 4 * dh);
  ws_.mat(kPreH, max_batch, 4 * dh);
  enc_.reserve(dh, max_batch);
  lanes_.reserve(dh, max_batch);
  prune_scratch_.reserve(static_cast<std::size_t>(max_batch * dh));
  if (q_) {
    // Integer twins of the workspace slots; reshape grows capacity
    // without the fill pass, matching the fp32 reserve discipline.
    // pre_h is left out: only step_dense's GEMM uses it, and it grows
    // there on first use instead of holding B x 4dh i32 in every
    // serving engine. The skip encodings serve the input (dx wide) and
    // the state.
    const num::Index width = std::max(cell_->input_dim(), dh);
    q_->xq.reshape(max_batch, cell_->input_dim());
    q_->hq.reshape(max_batch, dh);
    q_->pre.reshape(max_batch, 4 * dh);
    q_->enc.reserve(width, max_batch);
    q_->lanes.reserve(width, max_batch);
    positions_.reserve(static_cast<std::size_t>(width));
  }
  reserved_batch_ = max_batch;
}

void SparseLstmEngine::compute_input_path(const num::Matrix& x,
                                          num::Matrix& pre) {
  // pre = x Wx^T + b over the packed layout (the input path is never
  // sparse-skipped, though gemm's exact-zero skip makes one-hot inputs
  // cost only their active rows — identically in step and step_dense).
  num::gemm(x, packed_.wxt, pre);
  num::add_bias_rows(pre, packed_.bias.span());
}

void SparseLstmEngine::finish_step(num::Matrix& pre,
                                   const num::Matrix& c_prev, num::Matrix& h,
                                   num::Matrix& c, num::Matrix* dense_h) {
  const num::Index B = pre.rows();
  const num::Index dh = cell_->hidden_dim();
  // The same pointwise update (and so the same bits) as LstmCell::forward.
  nn::lstm_cell_update(pre, c_prev, c, h);
  // Tap the dense h before pruning: the stacked model feeds the next
  // layer (and the classifier) the unpruned state — only the recurrence
  // re-reads the pruned representation.
  if (dense_h != nullptr) {
    dense_h->reshape(B, dh);
    const auto src = h.flat();
    std::copy(src.begin(), src.end(), dense_h->flat().begin());
  }
  // Store the pruned representation — this is what the encoder writes to
  // DRAM and what the next step will skip over. The zero fraction the
  // pruner reports is the per-lane sparsity of the stored state — with
  // the per-lane skip path, exactly the sparsity the next step exploits
  // at any batch size.
  last_.lane_sparsity = pruner_->prune_inplace(h, prune_scratch_);
}

void SparseLstmEngine::step(const num::Matrix& x, num::Matrix& h,
                            num::Matrix& c, num::Matrix* dense_h) {
  if (q_) {
    step_quant(x, h, c, /*dense=*/false, dense_h);
    return;
  }
  const num::Index B = x.rows();
  const num::Index dh = cell_->hidden_dim();
  ZSS_EXPECTS(h.rows() == B && h.cols() == dh);
  ZSS_EXPECTS(c.rows() == B && c.cols() == dh);

  if (B > reserved_batch_) reserve(B);  // warm loop: a single compare

  num::Matrix& pre = ws_.uninit(kPre, B, 4 * dh);  // gemm zero-fills it
  compute_input_path(x, pre);
  stats_.input_macs += B * cell_->input_dim() * 4 * dh;

  // Sparse recurrent path: encode the stored state, then accumulate one
  // contiguous packed weight row per kept position (the SIMD backend
  // streams each row with lane-exact FMAs — num/simd/backend.h). The
  // partial sums are kept separate from `pre` and added once at the end
  // so the floating-point association matches step_dense() exactly
  // (zero-valued skipped terms are exact identities under IEEE
  // addition). This holds for any backend because every backend keeps
  // each output element's chain serial and in ascending position order.
  num::Index kept_union = 0;       // positions kept by >= 1 lane
  num::Index kept_lane_total = 0;  // effectual work of this step
  if (B == 1) {
    // Single sequence: the paper's offset encoding, one kept-position
    // list shared by the (only) lane.
    num::Matrix& pre_h = ws_.mat(kPreH, B, 4 * dh, 0.0f);
    sparse::encode_into(h, encoder_, enc_);
    positions_.clear();
    num::Index pos = 0;
    for (const auto& entry : enc_.entries) {
      pos += entry.offset;
      positions_.push_back(pos);
      ++pos;
    }
    num::sparse_accum_rows(packed_.wht, positions_, enc_.values, pre_h);
    kept_union = enc_.kept_positions();
    kept_lane_total = enc_.kept_positions();
    num::axpy(1.0f, pre_h.flat(), pre.flat());
  } else {
    // Batched: per-lane CSR lists, each lane accumulating exactly its
    // own kept rows — the skip survives batching instead of degrading
    // to the intersection of the batch's zero patterns. The overwrite
    // kernel flavour writes every element of the staging matrix (bit-
    // identical to a zero fill + accumulate), so no per-step fill of
    // the B x 4*dh buffer — 256 KB of stores saved at batch 8, dh 1000.
    num::Matrix& pre_h = ws_.uninit(kPreH, B, 4 * dh);
    sparse::encode_lanes_into(h, lanes_);
    num::sparse_accum_rows_multi_overwrite(packed_.wht, lanes_.positions,
                                           lanes_.row_start, lanes_.values,
                                           pre_h);
    kept_union = lanes_.union_kept();
    kept_lane_total = lanes_.total_kept();
    num::axpy(1.0f, pre_h.flat(), pre.flat());
  }

  stats_.state_macs_total += B * dh * 4 * dh;
  stats_.state_macs_effectual += kept_lane_total * 4 * dh;
  stats_.kept_positions += kept_union;
  stats_.positions += dh;
  stats_.lane_kept_positions += kept_lane_total;
  stats_.lane_positions += B * dh;
  ++stats_.steps;
  last_.batch = B;
  last_.kept_positions = kept_union;
  last_.positions = dh;
  last_.lane_kept_positions = kept_lane_total;

  finish_step(pre, c, h, c, dense_h);
}

void SparseLstmEngine::step_dense(const num::Matrix& x, num::Matrix& h,
                                  num::Matrix& c, num::Matrix* dense_h) {
  if (q_) {
    step_quant(x, h, c, /*dense=*/true, dense_h);
    return;
  }
  const num::Index B = x.rows();
  const num::Index dh = cell_->hidden_dim();
  ZSS_EXPECTS(h.rows() == B && h.cols() == dh);

  if (B > reserved_batch_) reserve(B);  // warm loop: a single compare

  num::Matrix& pre = ws_.uninit(kPre, B, 4 * dh);  // gemm zero-fills it
  compute_input_path(x, pre);
  // Dense recurrent baseline: full dot products over the gate-major
  // weights — every position's terms are accumulated, in the same
  // ascending-position order the sparse path uses for the kept ones.
  num::Matrix& pre_h = ws_.uninit(kPreH, B, 4 * dh);  // gemm_a_bt overwrites
  num::gemm_a_bt(h, cell_->wh().value, pre_h);
  num::axpy(1.0f, pre_h.flat(), pre.flat());

  stats_.input_macs += B * cell_->input_dim() * 4 * dh;
  stats_.state_macs_total += B * dh * 4 * dh;
  stats_.state_macs_effectual += B * dh * 4 * dh;
  stats_.kept_positions += dh;
  stats_.positions += dh;
  stats_.lane_kept_positions += B * dh;
  stats_.lane_positions += B * dh;
  ++stats_.steps;
  last_.batch = B;
  last_.kept_positions = dh;
  last_.positions = dh;
  last_.lane_kept_positions = B * dh;

  finish_step(pre, c, h, c, dense_h);
}

// Quantized step, shared by step() and step_dense() (`dense` picks the
// recurrent flavour). The exactness argument differs from fp32: every
// int8 x int8 product is exact in i32 and accumulation wraps mod 2^32,
// which is associative and commutative — so the sparse paths (which
// skip exactly the zero-valued products) and the dense path produce
// bit-identical pre-activations regardless of summation order, on every
// backend (docs/exactness.md "int8"). The same order-freedom lets one
// i32 accumulator take the bias, the input product and the recurrent
// product in turn. All scales are fixed at construction, so results
// are also independent of batch composition — the property the serving
// shard-determinism sweep checks.
void SparseLstmEngine::step_quant(const num::Matrix& x, num::Matrix& h,
                                  num::Matrix& c, bool dense,
                                  num::Matrix* dense_h) {
  const num::Index B = x.rows();
  const num::Index dh = cell_->hidden_dim();
  const num::Index dx = cell_->input_dim();
  ZSS_EXPECTS(h.rows() == B && h.cols() == dh);
  ZSS_EXPECTS(c.rows() == B && c.cols() == dh);

  if (B > reserved_batch_) reserve(B);  // warm loop: a single compare

  QuantState& q = *q_;
  const quant::QuantParams grid{nn::PackedLstmWeightsI8::kStateScale};

  // pre starts as the pre-scaled bias row: bias, input and recurrent
  // products all sit on the shared accumulator scale weight_scale/127.
  q.pre.reshape(B, 4 * dh);
  const auto bq = q.weights.bias_q.span();
  for (num::Index r = 0; r < B; ++r) {
    std::copy(bq.begin(), bq.end(), q.pre.row(r).begin());
  }

  // Input path: x onto the 1/127 grid (one-hot serving inputs are exact
  // on it), encoded like the state and accumulated by the same skip
  // kernels over the k-major wxt — in step and step_dense alike, as the
  // fp32 path shares compute_input_path. A one-hot input costs one row.
  q.xq.reshape(B, dx);
  quant::quantize(x.flat(), grid, q.xq.flat());
  accumulate_skip_i8(q.xq, q.weights.wxt, q.pre);
  stats_.input_macs += B * dx * 4 * dh;

  // Recurrent path over the quantized state. Both flavours multiply the
  // same q.hq — a zero element contributes an exactly-zero product to
  // the dense GEMM and is skipped by the sparse kernels, so the flavours
  // agree bitwise.
  q.hq.reshape(B, dh);
  quant::quantize(h.flat(), grid, q.hq.flat());
  num::Index kept_union = 0;       // positions kept by >= 1 lane
  num::Index kept_lane_total = 0;  // effectual work of this step
  if (dense) {
    num::gemm_a_bt_i8(q.hq, q.weights.wh, q.pre_h);
    auto p = q.pre.flat();
    const auto ph = q.pre_h.flat();
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = num::add_i32(p[i], ph[i]);
    }
    kept_union = dh;
    kept_lane_total = B * dh;
  } else {
    std::tie(kept_union, kept_lane_total) =
        accumulate_skip_i8(q.hq, q.weights.wht, q.pre);
  }

  stats_.state_macs_total += B * dh * 4 * dh;
  stats_.state_macs_effectual += kept_lane_total * 4 * dh;
  stats_.kept_positions += kept_union;
  stats_.positions += dh;
  stats_.lane_kept_positions += kept_lane_total;
  stats_.lane_positions += B * dh;
  ++stats_.steps;
  last_.batch = B;
  last_.kept_positions = kept_union;
  last_.positions = dh;
  last_.lane_kept_positions = kept_lane_total;

  finish_step_quant(B, h, c, dense_h);
}

std::pair<num::Index, num::Index> SparseLstmEngine::accumulate_skip_i8(
    const num::MatrixI8& v, const num::MatrixI8& packed,
    num::MatrixI32& pre) {
  QuantState& q = *q_;
  if (v.rows() == 1) {
    // The paper's offset encoding over int8 values.
    sparse::encode_into(v, encoder_, q.enc);
    positions_.clear();
    num::Index pos = 0;
    for (const auto& entry : q.enc.entries) {
      pos += entry.offset;
      positions_.push_back(pos);
      ++pos;
    }
    num::sparse_accum_rows_i8(packed, positions_, q.enc.values, pre);
    return {q.enc.kept_positions(), q.enc.kept_positions()};
  }
  // Batched: per-lane CSR lists, each lane accumulating its own rows.
  sparse::encode_lanes_into(v, q.lanes);
  num::sparse_accum_rows_multi_i8(packed, q.lanes.positions,
                                  q.lanes.row_start, q.lanes.values, pre);
  return {q.lanes.union_kept(), q.lanes.total_kept()};
}

// Integer gate/cell update through the backend's lstm_cell_update_i8
// slot (num/kernels.h states the arithmetic; the scalar table's loop is
// the twin every backend matches bit for bit). h and c are written back
// as float multiples of kStateScale — the reference twin uses the
// identical expression (float(q) * kStateScale, not q / 127.0f).
void SparseLstmEngine::finish_step_quant(num::Index batch, num::Matrix& h,
                                         num::Matrix& c,
                                         num::Matrix* dense_h) {
  const QuantState& q = *q_;
  num::QuantCellParams params;
  params.sigmoid = q.sigmoid.data() + 128;
  params.tanh_pre = q.tanh_pre.data() + 128;
  params.tanh_c = q.tanh_c.data() + 128;
  params.acc_to_pre = q.acc_to_pre;
  params.c_clip = static_cast<std::int32_t>(quant_.c_clip);
  num::lstm_cell_update_i8(q.pre, params, c, h);
  // Dense tap, then prune — same discipline as the fp32 finish_step.
  if (dense_h != nullptr) {
    dense_h->reshape(batch, cell_->hidden_dim());
    const auto src = h.flat();
    std::copy(src.begin(), src.end(), dense_h->flat().begin());
  }
  // Same pruning as the fp32 path: the stored h is pruned on the float
  // view; zeros survive requantization exactly, so the next step's skip
  // sees precisely the pruner's zero pattern.
  last_.lane_sparsity = pruner_->prune_inplace(h, prune_scratch_);
}

}  // namespace zss::core
