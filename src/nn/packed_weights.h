// Cache-aware packed layout of an LstmCell's inference weights.
//
// Training stores Wh and Wx gate-major, (4dh x dh) and (4dh x dx): row
// g*dh+i is output element i of gate g. The skip path of the inference
// engine instead walks *state positions* — for every kept position j it
// needs Wh[:, j], which in the gate-major layout is a stride-dh column
// gather across 4dh rows (one cache line touched per element).
//
// PackedLstmWeights stores the transposed, gate-interleaved layout:
//   wht(j, :) = Wh[:, j]  — position j's f/i/o/g columns as ONE
//                            contiguous 4dh row,
//   wxt(j, :) = Wx[:, j]  — the same for the input path,
// so the sparse accumulate (num::sparse_accum_rows) streams exactly the
// rows it keeps, and the input-path GEMM streams wxt rows for the
// non-zero input elements. Values are copied bit-for-bit, and the
// kernels accumulate positions in the same ascending order as the dense
// path, so packing preserves the engine's bit-exactness contract.
#pragma once

#include <cstdint>

#include "nn/lstm_cell.h"
#include "num/matrix.h"
#include "num/types.h"
#include "quant/quantize.h"

namespace zss::nn {

struct PackedLstmWeights {
  num::Index dx = 0;
  num::Index dh = 0;
  num::Matrix wxt;   // (dx x 4dh), row j = Wx[:, j]
  num::Matrix wht;   // (dh x 4dh), row j = Wh[:, j]
  num::Vector bias;  // (4dh), copied so inference never chases Parameters

  /// Snapshots the cell's current weights into the packed layout. Call
  /// again after weights change (packing is a transpose, not a view).
  static PackedLstmWeights pack(const LstmCell& cell);
};

/// Int8 twin of PackedLstmWeights for the engine's quantized step mode
/// (docs/exactness.md "int8", docs/architecture.md).
///
/// One symmetric per-cell weight scale covers Wx AND Wh (the max-|w|
/// scale over both), and the state/input grid is fixed at 1/127
/// (kStateScale) — so the input-path and state-path i32 partial sums
/// land on the SAME accumulator scale, scale/127, and add as plain
/// integers. bias_q is pre-divided onto that accumulator scale, which
/// keeps the whole pre-activation integer until the single requantize
/// into the LUT domain (core/sparse_inference.cc).
///
/// Layouts: wxt and wht are transposed gate-interleaved (row j =
/// Wxq[:, j] / Whq[:, j]) for the skip kernels, which both the sparse
/// and the dense step run over the encoded input (a one-hot input costs
/// one row); wh stays gate-major for the dense recurrent baseline's
/// GEMM. Quantize-then-transpose equals transpose-then-quantize
/// elementwise, so both paths multiply identical int8 weights — one
/// ingredient of step() == step_dense() bitwise.
struct PackedLstmWeightsI8 {
  /// The fixed state/input quantization grid: real = q / 127 with q in
  /// [-127, 127]. Serving inputs are one-hot (exact on the grid) and
  /// quantized h is written back already on the grid, so re-quantizing
  /// state each step is an exact round trip.
  static constexpr float kStateScale = 1.0f / 127.0f;

  num::Index dx = 0;
  num::Index dh = 0;
  quant::QuantParams weight_scale;  // shared by wxt, wh and wht
  num::MatrixI8 wxt;       // (dx x 4dh), row j = Wxq[:, j] — input path
  num::MatrixI8 wh;        // (4dh x dh) gate-major, dense-baseline path
  num::MatrixI8 wht;       // (dh x 4dh), row j = Whq[:, j] — skip path
  num::VectorI32 bias_q;   // (4dh) on the accumulator scale, scale/127

  static PackedLstmWeightsI8 pack(const LstmCell& cell);
};

}  // namespace zss::nn
