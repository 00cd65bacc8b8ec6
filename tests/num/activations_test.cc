#include "num/activations.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace zss::num {
namespace {

std::uint32_t bits(float f) {
  std::uint32_t b = 0;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

// 2^20 + 1 evenly spaced points over [-40, 40], ascending (the spacing,
// 7.6e-5, is far above the float spacing at 40, so no two coincide).
std::vector<float> sweep() {
  constexpr int kSteps = 1 << 20;
  std::vector<float> xs;
  xs.reserve(kSteps + 1);
  for (int k = 0; k <= kSteps; ++k) {
    xs.push_back(static_cast<float>(-40.0 + 80.0 * k / kSteps));
  }
  return xs;
}

TEST(ActivationsTest, SigmoidKnownValues) {
  EXPECT_EQ(sigmoid(0.0f), 0.5f);  // exactly
  EXPECT_EQ(sigmoid(-0.0f), 0.5f);
  EXPECT_NEAR(sigmoid(2.0f), 0.880797f, 1e-5f);
  EXPECT_NEAR(sigmoid(-2.0f), 0.119203f, 1e-5f);
}

TEST(ActivationsTest, SigmoidSaturates) {
  EXPECT_NEAR(sigmoid(40.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(sigmoid(-40.0f), 0.0f, 1e-6f);
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(sigmoid(inf), 1.0f);
  EXPECT_GE(sigmoid(-inf), 0.0f);
  EXPECT_LT(sigmoid(-inf), 1e-38f);
}

TEST(ActivationsTest, TanhSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(tanh_act(inf), 1.0f);
  EXPECT_EQ(tanh_act(-inf), -1.0f);
  EXPECT_EQ(tanh_act(100.0f), 1.0f);
  EXPECT_EQ(bits(tanh_act(0.0f)), bits(0.0f));
  EXPECT_EQ(bits(tanh_act(-0.0f)), bits(-0.0f));
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(tanh_act(nan)));
  EXPECT_TRUE(std::isnan(sigmoid(nan)));
}

TEST(ActivationsTest, TanhIsOddBitwise) {
  for (const float x : sweep()) {
    ASSERT_EQ(bits(tanh_act(-x)), bits(tanh_act(x)) ^ 0x80000000u) << x;
  }
}

TEST(ActivationsTest, OutputsBoundedAndMonotone) {
  float prev_s = sigmoid(-40.0f);
  float prev_t = tanh_act(-40.0f);
  for (const float x : sweep()) {
    const float s = sigmoid(x);
    const float t = tanh_act(x);
    ASSERT_TRUE(s >= 0.0f && s <= 1.0f) << x;
    ASSERT_TRUE(t >= -1.0f && t <= 1.0f) << x;
    ASSERT_GE(s, prev_s) << x;
    ASSERT_GE(t, prev_t) << x;
    prev_s = s;
    prev_t = t;
  }
}

TEST(ActivationsTest, AccurateAgainstDoublePrecision) {
  double worst_s = 0.0;
  double worst_t = 0.0;
  for (const float x : sweep()) {
    const double xd = x;
    worst_s = std::max(
        worst_s, std::fabs(sigmoid(x) - 1.0 / (1.0 + std::exp(-xd))));
    worst_t = std::max(worst_t, std::fabs(tanh_act(x) - std::tanh(xd)));
  }
  EXPECT_LE(worst_s, 2.5e-7);
  EXPECT_LE(worst_t, 2.5e-7);
}

TEST(ActivationsTest, SigmoidDerivativeFromOutput) {
  const float y = sigmoid(0.7f);
  const float eps = 1e-3f;
  const float numeric = (sigmoid(0.7f + eps) - sigmoid(0.7f - eps)) / (2 * eps);
  EXPECT_NEAR(dsigmoid_from_y(y), numeric, 1e-4f);
}

TEST(ActivationsTest, TanhDerivativeFromOutput) {
  const float y = tanh_act(-0.4f);
  const float eps = 1e-3f;
  const float numeric =
      (tanh_act(-0.4f + eps) - tanh_act(-0.4f - eps)) / (2 * eps);
  EXPECT_NEAR(dtanh_from_y(y), numeric, 1e-4f);
}

TEST(ActivationsTest, SoftmaxSumsToOne) {
  std::vector<float> v = {1.0f, 2.0f, 3.0f, 4.0f};
  softmax(v);
  float sum = 0.0f;
  for (float x : v) {
    EXPECT_GT(x, 0.0f);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_GT(v[3], v[0]);  // monotone in logits
}

TEST(ActivationsTest, SoftmaxStableForLargeLogits) {
  std::vector<float> v = {1000.0f, 1001.0f};
  softmax(v);
  EXPECT_FALSE(std::isnan(v[0]));
  EXPECT_NEAR(v[0] + v[1], 1.0f, 1e-6f);
  EXPECT_NEAR(v[1] / v[0], std::exp(1.0f), 1e-3f);
}

TEST(ActivationsTest, SoftmaxUniformForEqualLogits) {
  std::vector<float> v(5, 3.0f);
  softmax(v);
  for (float x : v) EXPECT_NEAR(x, 0.2f, 1e-6f);
}

TEST(ActivationsTest, LogSoftmaxMatchesLogOfSoftmax) {
  std::vector<float> logits = {0.5f, -1.0f, 2.0f};
  std::vector<float> lsm(3);
  log_softmax(logits, lsm);
  std::vector<float> sm = logits;
  softmax(sm);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(lsm[i], std::log(sm[i]), 1e-5f);
}

TEST(ActivationsTest, LogSoftmaxMayAlias) {
  std::vector<float> v = {1.0f, 2.0f};
  std::vector<float> expected(2);
  log_softmax(v, expected);
  log_softmax(v, v);  // aliased
  EXPECT_FLOAT_EQ(v[0], expected[0]);
  EXPECT_FLOAT_EQ(v[1], expected[1]);
}

TEST(ActivationsTest, Argmax) {
  const std::vector<float> v = {0.1f, -5.0f, 7.0f, 7.0f, 2.0f};
  EXPECT_EQ(argmax(v), 2);  // first maximum wins
}

TEST(ActivationsDeathTest, EmptySpansAbort) {
  std::vector<float> empty;
  EXPECT_DEATH(softmax(empty), "precondition");
  EXPECT_DEATH((void)argmax(empty), "precondition");
}

}  // namespace
}  // namespace zss::num
