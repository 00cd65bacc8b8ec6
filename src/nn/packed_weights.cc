#include "nn/packed_weights.h"

#include <algorithm>
#include <cmath>

#include "num/kernels.h"

namespace zss::nn {

namespace {

// out(j, r) = f(r, j) over a rows x cols source, in 16 x 16 tiles like
// num::transpose, so reads and writes both touch whole cache lines —
// a plain row walk over a 2048-row source writes one line per byte.
template <typename F>
void transpose_tiled(num::Index rows, num::Index cols, num::MatrixI8& out,
                     F&& f) {
  constexpr num::Index kTile = 16;
  out.reshape(cols, rows);
  for (num::Index r0 = 0; r0 < rows; r0 += kTile) {
    const num::Index r1 = std::min(r0 + kTile, rows);
    for (num::Index j0 = 0; j0 < cols; j0 += kTile) {
      const num::Index j1 = std::min(j0 + kTile, cols);
      for (num::Index r = r0; r < r1; ++r) {
        for (num::Index j = j0; j < j1; ++j) out(j, r) = f(r, j);
      }
    }
  }
}

}  // namespace

PackedLstmWeights PackedLstmWeights::pack(const LstmCell& cell) {
  PackedLstmWeights p;
  p.dx = cell.input_dim();
  p.dh = cell.hidden_dim();
  num::transpose(cell.wx().value, p.wxt);
  num::transpose(cell.wh().value, p.wht);
  const auto b = cell.bias().value.flat();
  p.bias.resize(static_cast<num::Index>(b.size()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    p.bias[static_cast<num::Index>(i)] = b[i];
  }
  return p;
}

PackedLstmWeightsI8 PackedLstmWeightsI8::pack(const LstmCell& cell) {
  PackedLstmWeightsI8 p;
  p.dx = cell.input_dim();
  p.dh = cell.hidden_dim();
  const num::Matrix& wx_f = cell.wx().value;
  const num::Matrix& wh_f = cell.wh().value;
  // One shared scale over both weight matrices, so the input-path and
  // state-path i32 partials share the accumulator scale scale/127 and
  // add without any rescaling (header comment).
  const quant::QuantParams sx = quant::choose_scale(wx_f.flat());
  const quant::QuantParams sh = quant::choose_scale(wh_f.flat());
  p.weight_scale.scale = sx.scale > sh.scale ? sx.scale : sh.scale;
  transpose_tiled(wx_f.rows(), wx_f.cols(), p.wxt,
                  [&](num::Index r, num::Index j) {
                    return quant::quantize_one(wx_f(r, j), p.weight_scale);
                  });
  p.wh.reshape(wh_f.rows(), wh_f.cols());
  quant::quantize(wh_f.flat(), p.weight_scale, p.wh.flat());
  // Transpose the already-quantized Whq so dense and sparse paths
  // multiply identical int8 values.
  transpose_tiled(p.wh.rows(), p.wh.cols(), p.wht,
                  [&](num::Index r, num::Index j) { return p.wh(r, j); });
  const auto b = cell.bias().value.flat();
  p.bias_q.resize(static_cast<num::Index>(b.size()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    // bias on the accumulator scale: q = b / (scale/127). double keeps
    // the division deterministic and exact to well past i32 range.
    const double q = std::nearbyint(static_cast<double>(b[i]) * 127.0 /
                                    static_cast<double>(p.weight_scale.scale));
    p.bias_q[static_cast<num::Index>(i)] = static_cast<std::int32_t>(q);
  }
  return p;
}

}  // namespace zss::nn
