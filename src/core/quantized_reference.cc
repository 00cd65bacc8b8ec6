#include "core/quantized_reference.h"

#include <algorithm>
#include <cmath>

#include "nn/packed_weights.h"  // kStateScale
#include "num/kernels.h"        // madd_i8 / add_i32 (the contract's ops)

namespace zss::core {

namespace {

// The twin's own copies of the quantizer formulas, written out longhand
// so a bug in quant/quantize.cc cannot hide by being shared.
std::int8_t q8(float x, float scale) {
  const float q = std::nearbyint(x / scale);
  if (q >= 127.0f) return 127;
  if (q <= -127.0f) return -127;
  return static_cast<std::int8_t>(q);
}

std::int8_t requant(std::int32_t v, double to_pre) {
  const double q = std::nearbyint(static_cast<double>(v) * to_pre);
  if (q >= 127.0) return 127;
  if (q <= -127.0) return -127;
  return static_cast<std::int8_t>(q);
}

std::int32_t rdiv(std::int32_t p, std::int32_t den) {
  return p >= 0 ? (p + den / 2) / den : -((-p + den / 2) / den);
}

std::int32_t clampi(std::int32_t v, std::int32_t lo, std::int32_t hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

// A seeded float c onto the grid, clamped in double before converting
// so NaN (-> 0) and |c| * 127 >= 2^31 stay defined.
std::int32_t grid_c(float c, std::int32_t c_lim) {
  double q = std::nearbyint(static_cast<double>(c) * 127.0);
  if (q != q) q = 0.0;
  q = std::min(std::max(q, -static_cast<double>(c_lim)),
               static_cast<double>(c_lim));
  return static_cast<std::int32_t>(q);
}

float max_abs(const num::Matrix& m) {
  float mx = 0.0f;
  for (float v : m.flat()) {
    const float a = std::fabs(v);
    if (a > mx) mx = a;
  }
  return mx;
}

}  // namespace

QuantizedLstmReference::QuantizedLstmReference(const nn::LstmCell& cell,
                                               const StatePruner& pruner,
                                               QuantConfig cfg)
    : cell_(&cell),
      pruner_(&pruner),
      cfg_(cfg),
      sigmoid_(quant::Nonlinearity::kSigmoid,
               quant::QuantParams{cfg.pre_clip / 127.0f}),
      tanh_pre_(quant::Nonlinearity::kTanh,
                quant::QuantParams{cfg.pre_clip / 127.0f}),
      tanh_c_(quant::Nonlinearity::kTanh,
              quant::QuantParams{static_cast<float>(cfg.c_clip) / 127.0f}) {
  ZSS_EXPECTS(cfg.c_clip >= 1 && cfg.c_clip <= num::kMaxCellClip);
  const num::Matrix& wx = cell.wx().value;
  const num::Matrix& wh = cell.wh().value;
  // Shared symmetric scale over BOTH weight matrices: max|w| maps to
  // 127 (a zero cell gets scale 1, like quant::choose_scale).
  const float mx = std::max(max_abs(wx), max_abs(wh));
  wscale_ = mx == 0.0f ? 1.0f : mx / 127.0f;
  wxq_.reshape(wx.rows(), wx.cols());
  for (num::Index r = 0; r < wx.rows(); ++r) {
    for (num::Index j = 0; j < wx.cols(); ++j) {
      wxq_(r, j) = q8(wx(r, j), wscale_);
    }
  }
  whq_.reshape(wh.rows(), wh.cols());
  for (num::Index r = 0; r < wh.rows(); ++r) {
    for (num::Index j = 0; j < wh.cols(); ++j) {
      whq_(r, j) = q8(wh(r, j), wscale_);
    }
  }
  const auto b = cell.bias().value.flat();
  bias_q_.resize(static_cast<num::Index>(b.size()));
  for (std::size_t i = 0; i < b.size(); ++i) {
    bias_q_[static_cast<num::Index>(i)] = static_cast<std::int32_t>(
        std::nearbyint(static_cast<double>(b[i]) * 127.0 /
                       static_cast<double>(wscale_)));
  }
  acc_to_pre_ = static_cast<double>(wscale_) /
                static_cast<double>(cfg_.pre_clip);
}

void QuantizedLstmReference::step(const num::Matrix& x, num::Matrix& h,
                                  num::Matrix& c) {
  const num::Index B = x.rows();
  const num::Index dx = cell_->input_dim();
  const num::Index dh = cell_->hidden_dim();
  ZSS_EXPECTS(x.cols() == dx);
  ZSS_EXPECTS(h.rows() == B && h.cols() == dh);
  ZSS_EXPECTS(c.rows() == B && c.cols() == dh);
  const float grid = nn::PackedLstmWeightsI8::kStateScale;
  const std::int32_t c_clip = static_cast<std::int32_t>(cfg_.c_clip);
  const std::int32_t c_lim = 127 * c_clip;
  xq_.resize(static_cast<std::size_t>(dx));
  hq_.resize(static_cast<std::size_t>(dh));

  for (num::Index r = 0; r < B; ++r) {
    for (num::Index j = 0; j < dx; ++j) {
      xq_[static_cast<std::size_t>(j)] = q8(x(r, j), grid);
    }
    for (num::Index j = 0; j < dh; ++j) {
      hq_[static_cast<std::size_t>(j)] = q8(h(r, j), grid);
    }
    for (num::Index j = 0; j < dh; ++j) {
      // One full serial dot per gate row: bias, then Wx x, then Wh h,
      // all on the shared accumulator scale with the contract's
      // wrapping MAC.
      std::int32_t pre[4];
      for (int gate = 0; gate < 4; ++gate) {
        const num::Index gr = static_cast<num::Index>(gate) * dh + j;
        std::int32_t acc = bias_q_[gr];
        const std::int8_t* wxr = wxq_.data() + gr * dx;
        for (num::Index k = 0; k < dx; ++k) {
          acc = num::madd_i8(wxr[k], xq_[static_cast<std::size_t>(k)], acc);
        }
        const std::int8_t* whr = whq_.data() + gr * dh;
        for (num::Index k = 0; k < dh; ++k) {
          acc = num::madd_i8(whr[k], hq_[static_cast<std::size_t>(k)], acc);
        }
        pre[gate] = acc;
      }
      const std::int8_t f = sigmoid_.apply(requant(pre[0], acc_to_pre_));
      const std::int8_t i = sigmoid_.apply(requant(pre[1], acc_to_pre_));
      const std::int8_t o = sigmoid_.apply(requant(pre[2], acc_to_pre_));
      const std::int8_t g = tanh_pre_.apply(requant(pre[3], acc_to_pre_));
      std::int32_t cq = grid_c(c(r, j), c_lim);
      cq = clampi(rdiv(static_cast<std::int32_t>(f) * cq, 127) +
                      rdiv(static_cast<std::int32_t>(i) *
                               static_cast<std::int32_t>(g),
                           127),
                  -c_lim, c_lim);
      const std::int8_t c8 = static_cast<std::int8_t>(rdiv(cq, c_clip));
      const std::int8_t tc = tanh_c_.apply(c8);
      const std::int32_t hq = rdiv(
          static_cast<std::int32_t>(o) * static_cast<std::int32_t>(tc), 127);
      // Same write-back expression as the engine: float(q) * kStateScale.
      c(r, j) = static_cast<float>(cq) * grid;
      h(r, j) = static_cast<float>(hq) * grid;
    }
  }
  pruner_->prune_inplace(h, prune_scratch_);
}

}  // namespace zss::core
