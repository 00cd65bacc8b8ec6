// Scalar and vector activation functions plus numerically stable softmax.
//
// sigmoid and tanh_act are not libm calls: each is a fixed sequence of
// IEEE operations (clamps, floor, num::madd, one division, a bit-built
// power of two) that a SIMD backend can replay lane for lane. The
// scalar functions below are the reference twin; the span overloads
// dispatch to the active backend's vector slots, which must match the
// twin to 0 ULP (docs/exactness.md "Nonlinearities"). libm's expf and
// tanhf cannot be vectorized bit-identically and differ between glibc
// versions, so fp32 outputs would otherwise depend on the host.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>

#include "num/kernels.h"
#include "num/types.h"

namespace zss::num {

namespace act {

// Cephes expf constants: the clamp keeps 2^n inside the float exponent
// range, ln2 is split into an exactly representable head (9 mantissa
// bits, so n * kLn2Hi is exact for |n| <= 128) and a tail.
inline constexpr float kExpHi = 88.3762626647949f;
inline constexpr float kExpLo = -88.3762626647949f;
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kLn2Hi = 0.693359375f;
inline constexpr float kLn2Lo = -2.12194440e-4f;
inline constexpr float kExpP0 = 1.9875691500e-4f;
inline constexpr float kExpP1 = 1.3981999507e-3f;
inline constexpr float kExpP2 = 8.3334519073e-3f;
inline constexpr float kExpP3 = 4.1665795894e-2f;
inline constexpr float kExpP4 = 1.6666665459e-1f;
inline constexpr float kExpP5 = 5.0000001201e-1f;
// 2^23: adding it to an integral float k in [0, 2^23) leaves k in the
// low mantissa bits, so (bits << 23) is k's biased exponent field.
inline constexpr float kExpShift = 8388608.0f;

// Cephes tanhf: odd polynomial below kTanhSmall, 1 - 2/(e^{2|x|}+1)
// above. |x| is saturated at kTanhSat, where the formula already
// rounds to exactly 1.0f, long before e^{2|x|} could overflow.
inline constexpr float kTanhSmall = 0.625f;
inline constexpr float kTanhSat = 10.0f;
inline constexpr float kTanhP0 = -5.70498872745e-3f;
inline constexpr float kTanhP1 = 2.06390887954e-2f;
inline constexpr float kTanhP2 = -5.37397155531e-2f;
inline constexpr float kTanhP3 = 1.33314422036e-1f;
inline constexpr float kTanhP4 = -3.33332819422e-1f;

// min/max with the SIMD operand semantics (_mm256_min_ps(a, b) is
// a < b ? a : b): a NaN in `b` propagates, so the clamps below keep a
// NaN input NaN on every backend.
inline float min_ps(float a, float b) { return a < b ? a : b; }
inline float max_ps(float a, float b) { return a > b ? a : b; }

}  // namespace act

/// e^x as the fixed operation sequence every backend replays. Clamped to
/// [kExpLo, kExpHi]: exp_twin(+inf) == +inf, exp_twin(-inf) == 0.
inline float exp_twin(float x) {
  using namespace act;
  x = max_ps(kExpLo, min_ps(kExpHi, x));
  const float fx = std::floor(madd(x, kLog2e, 0.5f));
  float r = madd(fx, -kLn2Hi, x);
  r = madd(fx, -kLn2Lo, r);
  const float z = r * r;
  float y = kExpP0;
  y = madd(y, r, kExpP1);
  y = madd(y, r, kExpP2);
  y = madd(y, r, kExpP3);
  y = madd(y, r, kExpP4);
  y = madd(y, r, kExpP5);
  y = madd(y, z, r);
  y = y + 1.0f;
  // fx + 127 is an integer in [0, 255]; building 2^fx from its bits
  // needs no float->int conversion (a NaN yields 0, so NaN propagates).
  const float biased = (fx + 127.0f) + kExpShift;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &biased, sizeof(bits));
  bits <<= 23;
  float pow2n = 0.0f;
  std::memcpy(&pow2n, &bits, sizeof(pow2n));
  // A power-of-two scale: exact unless it underflows, so a compiler
  // that contracts a caller's `1 + exp_twin(..)` into an FMA cannot
  // change the bits.
  return y * pow2n;
}

inline float sigmoid(float x) { return 1.0f / (1.0f + exp_twin(-x)); }

inline float dsigmoid_from_y(float y) { return y * (1.0f - y); }

/// tanh, computed on |x| and given x's sign bit, so
/// tanh_act(-x) == -tanh_act(x) bitwise (including -0).
inline float tanh_act(float x) {
  using namespace act;
  const float a = std::fabs(x);
  float t;
  if (a < kTanhSmall) {
    const float z = a * a;
    float p = kTanhP0;
    p = madd(p, z, kTanhP1);
    p = madd(p, z, kTanhP2);
    p = madd(p, z, kTanhP3);
    p = madd(p, z, kTanhP4);
    t = madd(p * z, a, a);
  } else {
    const float e = exp_twin(2.0f * min_ps(kTanhSat, a));
    t = 1.0f - 2.0f / (e + 1.0f);
  }
  return std::copysign(t, x);
}

inline float dtanh_from_y(float y) { return 1.0f - y * y; }

/// y[i] = sigmoid(x[i]) through the active SIMD backend, bit-identical
/// to the scalar twin on every backend. x and y may be the same span.
void sigmoid(std::span<const float> x, std::span<float> y);

/// y[i] = tanh_act(x[i]), same dispatch and exactness as sigmoid.
void tanh_act(std::span<const float> x, std::span<float> y);

/// In-place stable softmax over `logits`.
void softmax(std::span<float> logits);

/// Writes log-softmax of `logits` into `out` (may alias `logits`).
void log_softmax(std::span<const float> logits, std::span<float> out);

/// Index of the maximum element. Requires a non-empty span.
Index argmax(std::span<const float> v);

}  // namespace zss::num
