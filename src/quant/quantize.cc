#include "quant/quantize.h"

#include <algorithm>
#include <cmath>

namespace zss::quant {

QuantParams choose_scale(std::span<const float> x) {
  float mx = 0.0f;
  for (float v : x) mx = std::max(mx, std::fabs(v));
  if (mx == 0.0f) return QuantParams{1.0f};
  return QuantParams{mx / 127.0f};
}

std::int8_t quantize_one(float x, QuantParams p) {
  ZSS_EXPECTS(p.scale > 0.0f);
  const float q = std::nearbyint(x / p.scale);
  // NaN has no code; mapping it to 0 keeps the conversion below defined
  // and the output inside the symmetric range the int8 kernels assume.
  if (std::isnan(q)) return 0;
  const float clamped = std::clamp(q, -127.0f, 127.0f);
  return static_cast<std::int8_t>(clamped);
}

void quantize(std::span<const float> x, QuantParams p,
              std::span<std::int8_t> out) {
  ZSS_EXPECTS(x.size() == out.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = quantize_one(x[i], p);
}

float dequantize_one(std::int8_t q, QuantParams p) {
  return static_cast<float>(q) * p.scale;
}

void dequantize(std::span<const std::int8_t> q, QuantParams p,
                std::span<float> out) {
  ZSS_EXPECTS(q.size() == out.size());
  for (std::size_t i = 0; i < q.size(); ++i) out[i] = dequantize_one(q[i], p);
}

QuantParams quantize_matrix(const num::Matrix& w, num::MatrixI8& out) {
  out.resize(w.rows(), w.cols());
  const QuantParams p = choose_scale(w.flat());
  quantize(w.flat(), p, out.flat());
  return p;
}

void qgemv(const num::MatrixI8& w, QuantParams wp,
           std::span<const std::int8_t> x, QuantParams xp,
           std::span<float> y) {
  ZSS_EXPECTS(w.cols() == static_cast<num::Index>(x.size()));
  ZSS_EXPECTS(w.rows() == static_cast<num::Index>(y.size()));
  const num::Index m = w.rows();
  const num::Index n = w.cols();
  const float out_scale = wp.scale * xp.scale;
  for (num::Index i = 0; i < m; ++i) {
    const std::int8_t* row = w.data() + i * n;
    std::int32_t acc = 0;
    for (num::Index j = 0; j < n; ++j) {
      acc += static_cast<std::int32_t>(row[j]) *
             static_cast<std::int32_t>(x[static_cast<std::size_t>(j)]);
    }
    y[static_cast<std::size_t>(i)] = static_cast<float>(acc) * out_scale;
  }
}

double roundtrip_mse(std::span<const float> x, QuantParams p) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (float v : x) {
    const float r = dequantize_one(quantize_one(v, p), p);
    acc += static_cast<double>(v - r) * static_cast<double>(v - r);
  }
  return acc / static_cast<double>(x.size());
}

}  // namespace zss::quant
