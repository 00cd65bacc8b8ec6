#include "quant/quantize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include "num/kernels.h"
#include "num/rng.h"

namespace zss::quant {
namespace {

TEST(QuantizeTest, ChooseScaleMapsMaxTo127) {
  const std::vector<float> x = {0.5f, -2.54f, 1.0f};
  const QuantParams p = choose_scale(x);
  EXPECT_FLOAT_EQ(p.scale, 2.54f / 127.0f);
  EXPECT_EQ(quantize_one(-2.54f, p), -127);
}

TEST(QuantizeTest, ZeroVectorGetsUnitScale) {
  const std::vector<float> x(4, 0.0f);
  const QuantParams p = choose_scale(x);
  EXPECT_FLOAT_EQ(p.scale, 1.0f);
}

TEST(QuantizeTest, RoundToNearest) {
  const QuantParams p{1.0f};
  EXPECT_EQ(quantize_one(1.4f, p), 1);
  EXPECT_EQ(quantize_one(1.6f, p), 2);
  EXPECT_EQ(quantize_one(-1.6f, p), -2);
  EXPECT_EQ(quantize_one(0.0f, p), 0);
}

TEST(QuantizeTest, ClampsToSymmetricRange) {
  const QuantParams p{0.01f};
  EXPECT_EQ(quantize_one(100.0f, p), 127);
  EXPECT_EQ(quantize_one(-100.0f, p), -127);  // -128 never produced
}

TEST(QuantizeTest, DequantizeInverse) {
  const QuantParams p{0.5f};
  EXPECT_FLOAT_EQ(dequantize_one(4, p), 2.0f);
  EXPECT_FLOAT_EQ(dequantize_one(-3, p), -1.5f);
}

TEST(QuantizeTest, RoundTripExactForCodePoints) {
  const QuantParams p{0.03f};
  for (int code = -127; code <= 127; ++code) {
    const float x = static_cast<float>(code) * p.scale;
    EXPECT_EQ(quantize_one(x, p), code);
  }
}

TEST(QuantizeTest, RoundTripErrorBoundedByHalfStep) {
  num::Rng rng(3);
  std::vector<float> x(1000);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const QuantParams p = choose_scale(x);
  for (float v : x) {
    const float r = dequantize_one(quantize_one(v, p), p);
    EXPECT_LE(std::fabs(v - r), p.scale * 0.5f + 1e-7f);
  }
}

TEST(QuantizeTest, VectorQuantizeMatchesScalar) {
  const std::vector<float> x = {0.1f, -0.9f, 0.55f};
  const QuantParams p = choose_scale(x);
  std::vector<std::int8_t> q(3);
  quantize(x, p, q);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(q[i], quantize_one(x[i], p));
}

TEST(QuantizeTest, MatrixQuantize) {
  num::Matrix w(2, 2);
  w(0, 0) = 1.0f;
  w(0, 1) = -1.0f;
  w(1, 0) = 0.5f;
  w(1, 1) = 0.0f;
  num::MatrixI8 q;
  const QuantParams p = quantize_matrix(w, q);
  EXPECT_EQ(q(0, 0), 127);
  EXPECT_EQ(q(0, 1), -127);
  EXPECT_EQ(q(1, 1), 0);
  EXPECT_FLOAT_EQ(p.scale, 1.0f / 127.0f);
}

TEST(QuantizeTest, QgemvTracksFloatGemv) {
  num::Rng rng(7);
  num::Matrix w(16, 32);
  for (float& v : w.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> x(32);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  num::MatrixI8 wq;
  const QuantParams wp = quantize_matrix(w, wq);
  const QuantParams xp = choose_scale(x);
  std::vector<std::int8_t> xq(32);
  quantize(x, xp, xq);

  std::vector<float> y_ref(16);
  num::gemv(w, x, y_ref);
  std::vector<float> y_q(16);
  qgemv(wq, wp, xq, xp, y_q);

  // Error per output <= sum of per-element quantization noise; use a
  // loose statistical bound.
  for (int i = 0; i < 16; ++i) {
    EXPECT_NEAR(y_q[i], y_ref[i], 0.15f);
  }
}

TEST(QuantizeTest, RoundtripMseSmall) {
  num::Rng rng(8);
  std::vector<float> x(500);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  const QuantParams p = choose_scale(x);
  const double mse = roundtrip_mse(x, p);
  // Uniform quantization noise ~ step^2 / 12.
  const double step = p.scale;
  EXPECT_LT(mse, step * step / 12.0 * 3.0);
  EXPECT_GT(mse, 0.0);
}

TEST(QuantizeDeathTest, NonPositiveScaleAborts) {
  EXPECT_DEATH((void)quantize_one(1.0f, QuantParams{0.0f}), "precondition");
}

// Quantized zero stays exactly zero — the property the skip logic needs.
TEST(QuantizeTest, ZeroMapsToZeroCode) {
  const QuantParams p{0.0123f};
  EXPECT_EQ(quantize_one(0.0f, p), 0);
  EXPECT_EQ(quantize_one(-0.0f, p), 0);
  EXPECT_FLOAT_EQ(dequantize_one(0, p), 0.0f);
}

// Negating the input negates the code exactly — the reason the range is
// the symmetric [-127, 127] with -128 unused (quantize.h), and what the
// sign-magnitude skip logic of the accelerator assumes.
TEST(QuantizeTest, NegationSymmetryProperty) {
  num::Rng rng(314);
  const QuantParams p{0.031f};
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(rng.uniform(-6.0, 6.0));
    EXPECT_EQ(quantize_one(-x, p),
              static_cast<std::int8_t>(-quantize_one(x, p)))
        << x;
  }
}

// -128 never reaches an int8 kernel: every float — huge, infinite,
// NaN, exactly on the -127.5 / -128 boundary, denormal — quantizes into
// [-127, 127] at any scale. The int8 kernels' exactness arguments
// (pair sums of at most 2 * 127^2) and the engine's negation symmetry
// both rest on it.
TEST(QuantizeTest, NeverProducesMinus128Property) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {
      -inf, inf, std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::lowest(), std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::denorm_min(), -0.0f};
  num::Rng rng(128);
  for (const float scale : {1.0f / 127.0f, 0.031f, 1.0f, 1e-30f, 3e30f}) {
    const QuantParams p{scale};
    std::vector<float> x(std::begin(specials), std::end(specials));
    for (const float k : {-126.5f, -127.0f, -127.5f, -128.0f, -128.5f,
                          -129.0f, 126.5f, 127.5f, 128.0f}) {
      x.push_back(k * scale);
      x.push_back(std::nextafter(k * scale, -inf));
      x.push_back(std::nextafter(k * scale, inf));
    }
    for (int i = 0; i < 4000; ++i) {
      x.push_back(static_cast<float>(rng.uniform(-300.0, 300.0)) * scale);
    }
    std::vector<std::int8_t> q(x.size());
    quantize(x, p, q);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_GE(q[i], -127) << x[i] << " at scale " << scale;
      EXPECT_LE(q[i], 127) << x[i] << " at scale " << scale;
      EXPECT_EQ(q[i], quantize_one(x[i], p));
    }
  }
  EXPECT_EQ(quantize_one(std::numeric_limits<float>::quiet_NaN(),
                         QuantParams{1.0f}),
            0);
}

// quantize(dequantize(quantize(x))) == quantize(x): one round trip
// reaches the grid, a second changes nothing. The engine's quantized
// step leans on exactly this — h is written back as dequantized codes
// and re-quantized next step without drift.
TEST(QuantizeTest, RoundTripIsIdempotentProperty) {
  num::Rng rng(2718);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> x(64);
    for (auto& v : x) v = static_cast<float>(rng.uniform(-3.0, 3.0));
    const QuantParams p = choose_scale(x);
    std::vector<std::int8_t> q1(x.size());
    quantize(x, p, q1);
    std::vector<float> back(x.size());
    dequantize(q1, p, back);
    std::vector<std::int8_t> q2(x.size());
    quantize(back, p, q2);
    EXPECT_EQ(q1, q2);
  }
}

// With the scale chosen by choose_scale (no clipping anywhere in
// range), every element round-trips within half a quantization step.
TEST(QuantizeTest, ChosenScaleRoundTripErrorBoundProperty) {
  num::Rng rng(999);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> x(128);
    for (auto& v : x) v = static_cast<float>(rng.uniform(-5.0, 5.0));
    const QuantParams p = choose_scale(x);
    for (float v : x) {
      const float back = dequantize_one(quantize_one(v, p), p);
      EXPECT_LE(std::fabs(back - v), 0.5f * p.scale + 1e-6f) << v;
    }
  }
}

}  // namespace
}  // namespace zss::quant
