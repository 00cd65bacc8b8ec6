// Symmetric 8-bit quantization used throughout the paper's evaluation
// ("an 8-bit quantization for all weights and input/hidden vectors",
// §II-B) and in the accelerator datapath.
#pragma once

#include <cstdint>
#include <span>

#include "num/matrix.h"
#include "num/types.h"

namespace zss::quant {

/// Scale of a symmetric int8 quantizer: real = scale * q, q in [-127, 127].
struct QuantParams {
  float scale = 1.0f;

  friend bool operator==(const QuantParams&, const QuantParams&) = default;
};

/// Chooses the symmetric scale that maps max|x| to 127. A zero vector
/// gets scale 1 so round-tripping stays exact.
QuantParams choose_scale(std::span<const float> x);

/// Quantizes to int8 with round-to-nearest and clamping to [-127, 127];
/// NaN maps to 0. (-128 is never produced: the symmetric range keeps
/// negation exact, which the accelerator's sign-magnitude skip logic
/// relies on, and the int8 kernels' vpmaddwd pair sums stay within
/// 2 * 127^2.)
void quantize(std::span<const float> x, QuantParams p,
              std::span<std::int8_t> out);

std::int8_t quantize_one(float x, QuantParams p);

/// Inverse map q -> scale * q.
void dequantize(std::span<const std::int8_t> q, QuantParams p,
                std::span<float> out);

float dequantize_one(std::int8_t q, QuantParams p);

/// Quantizes a whole matrix with one per-tensor scale.
QuantParams quantize_matrix(const num::Matrix& w, num::MatrixI8& out);

/// y_float = dequant( Wq * xq ) with full-width int32 accumulation.
/// Reference integer matvec used to validate the accelerator datapath.
void qgemv(const num::MatrixI8& w, QuantParams wp,
           std::span<const std::int8_t> x, QuantParams xp,
           std::span<float> y);

/// Mean squared quantization error of round-tripping x (diagnostics).
double roundtrip_mse(std::span<const float> x, QuantParams p);

}  // namespace zss::quant
