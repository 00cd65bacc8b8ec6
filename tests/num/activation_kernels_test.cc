// The vector sigmoid/tanh slots against the scalar twins of
// num/activations.h: 0 ULP on every available backend, at every length
// that exercises a vector tail, over special values and a wide range
// (docs/exactness.md "Nonlinearities"). Also pins the per-call fallback
// for a backend that leaves the slots empty.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "num/activations.h"
#include "num/rng.h"
#include "num/simd/backend.h"

namespace zss::num::simd {
namespace {

std::uint32_t bits(float f) {
  std::uint32_t b = 0;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

// Inputs: the special values first, then uniform draws over |x| <= 100
// (both tanh branches, the saturation clamp and exp's clamps).
std::vector<float> inputs(std::size_t n, std::uint64_t seed) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {
      0.0f,  -0.0f,  inf,    -inf,   100.0f, -100.0f, 88.5f, -88.5f,
      0.625f, -0.625f, 0.6249999f, 10.0f, -10.0f, 1e-30f, -1e-30f, 44.0f};
  Rng rng(seed);
  std::vector<float> x;
  for (std::size_t i = 0; i < n; ++i) {
    x.push_back(i < specials.size()
                    ? specials[i]
                    : static_cast<float>(rng.uniform(-100.0, 100.0)));
  }
  return x;
}

class ActivationKernelsTest : public ::testing::Test {
 protected:
  void TearDown() override { set_backend_for_testing(nullptr); }

  // Every available backend's slots, and the dispatched span overloads
  // under each backend, must reproduce the twins bit for bit.
  static void check(std::size_t n) {
    const std::vector<float> x = inputs(n, 1000 + n);
    std::vector<float> want_s(n), want_t(n);
    for (std::size_t i = 0; i < n; ++i) {
      want_s[i] = num::sigmoid(x[i]);
      want_t[i] = num::tanh_act(x[i]);
    }
    for (const KernelBackend* backend : available_backends()) {
      SCOPED_TRACE(std::string(backend->name) + " n=" + std::to_string(n));
      set_backend_for_testing(backend);
      std::vector<float> s(n, -7.0f), t(n, -7.0f);
      num::sigmoid(x, s);
      num::tanh_act(x, t);
      // In place, as the cell update calls them.
      std::vector<float> s_in = x, t_in = x;
      num::sigmoid(s_in, s_in);
      num::tanh_act(t_in, t_in);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(s[i]), bits(want_s[i])) << "sigmoid x=" << x[i];
        ASSERT_EQ(bits(t[i]), bits(want_t[i])) << "tanh x=" << x[i];
        ASSERT_EQ(bits(s_in[i]), bits(want_s[i])) << "in-place x=" << x[i];
        ASSERT_EQ(bits(t_in[i]), bits(want_t[i])) << "in-place x=" << x[i];
      }
    }
  }
};

TEST_F(ActivationKernelsTest, EveryBackendMatchesTwinAtEveryTailLength) {
  for (std::size_t n = 0; n <= 33; ++n) check(n);
}

TEST_F(ActivationKernelsTest, EveryBackendMatchesTwinOnLongRows) {
  check(2048);
}

TEST_F(ActivationKernelsTest, BackendsFillBothSlotsOrNeither) {
  for (const KernelBackend* b : registered_backends()) {
    EXPECT_EQ(b->sigmoid == nullptr, b->tanh == nullptr) << b->name;
  }
  EXPECT_NE(kScalarBackend.sigmoid, nullptr);
}

TEST_F(ActivationKernelsTest, MissingSlotsFallBackToScalarNotCrash) {
  // A backend without activation kernels (NEON today) keeps its other
  // kernels and gets the scalar twins per call.
  KernelBackend gutted = kScalarBackend;
  gutted.name = "gutted-no-activations";
  gutted.sigmoid = nullptr;
  gutted.tanh = nullptr;
  set_backend_for_testing(&gutted);
  const std::vector<float> x = inputs(19, 7);
  std::vector<float> s(x.size()), t(x.size());
  num::sigmoid(x, s);
  num::tanh_act(x, t);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(bits(s[i]), bits(num::sigmoid(x[i])));
    EXPECT_EQ(bits(t[i]), bits(num::tanh_act(x[i])));
  }
}

}  // namespace
}  // namespace zss::num::simd
