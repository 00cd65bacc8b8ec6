// The int8 exactness contract at the engine level (docs/exactness.md
// "int8"): the quantized step(), the quantized step_dense() and the
// independent naive QuantizedLstmReference twin must produce
// bit-identical h/c trajectories — at every batch size, on every
// registered-and-available backend. Integer products are exact and i32
// accumulation wraps mod 2^32 (associative), so no summation schedule
// can legally change a single bit; any mismatch is a real datapath bug,
// never "quantization noise".
#include "core/quantized_reference.h"
#include "core/sparse_inference.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <string>

#include "num/kernels.h"
#include "num/rng.h"
#include "num/simd/backend.h"

namespace zss::core {
namespace {

using num::Index;
using num::Matrix;
using num::Rng;

Matrix random_matrix(Index rows, Index cols, Rng& rng, double scale = 0.5) {
  Matrix m(rows, cols);
  for (float& v : m.flat()) v = static_cast<float>(rng.uniform(-scale, scale));
  return m;
}

class QuantizedInferenceTest : public ::testing::Test {
 protected:
  QuantizedInferenceTest() : rng_(42), cell_(6, 24, rng_) {}
  void TearDown() override { num::simd::set_backend_for_testing(nullptr); }

  Rng rng_;
  nn::LstmCell cell_;
};

TEST_F(QuantizedInferenceTest, QuantStepEqualsDenseAndTwinOnEveryBackend) {
  const Index dh = cell_.hidden_dim();
  const Index dx = cell_.input_dim();
  StatePruner pruner(PrunerConfig::fixed(0.08f));
  for (const num::simd::KernelBackend* backend :
       num::simd::available_backends()) {
    num::simd::set_backend_for_testing(backend);
    for (Index batch : {Index{1}, Index{2}, Index{8}, Index{32}}) {
      SCOPED_TRACE(std::string(backend->name) + " batch " +
                   std::to_string(batch));
      SparseLstmEngine sparse(cell_, pruner, {}, QuantConfig::int8());
      SparseLstmEngine dense(cell_, pruner, {}, QuantConfig::int8());
      QuantizedLstmReference twin(cell_, pruner);
      ASSERT_TRUE(sparse.quantized());
      Rng step_rng(1000 + static_cast<std::uint64_t>(batch));
      Matrix h_s(batch, dh, 0.0f), c_s(batch, dh, 0.0f);
      Matrix h_d(batch, dh, 0.0f), c_d(batch, dh, 0.0f);
      Matrix h_t(batch, dh, 0.0f), c_t(batch, dh, 0.0f);
      for (int t = 0; t < 12; ++t) {
        const Matrix x = random_matrix(batch, dx, step_rng);
        sparse.step(x, h_s, c_s);
        dense.step_dense(x, h_d, c_d);
        twin.step(x, h_t, c_t);
        ASSERT_EQ(h_s, h_d) << "step " << t;
        ASSERT_EQ(c_s, c_d) << "step " << t;
        ASSERT_EQ(h_s, h_t) << "step " << t;
        ASSERT_EQ(c_s, c_t) << "step " << t;
      }
      // The sparse engine really skipped: with pruning on, effectual
      // state MACs must undercut the dense count at every batch size.
      EXPECT_LT(sparse.stats().state_macs_effectual,
                sparse.stats().state_macs_total);
      EXPECT_EQ(dense.stats().state_macs_effectual,
                dense.stats().state_macs_total);
    }
  }
}

TEST_F(QuantizedInferenceTest, SeededCellStatesOffTheGridStayDefined) {
  // A caller-seeded c is rounded onto the 1/127 grid before the cell
  // update. NaN, infinities and |c| * 127 >= 2^31 have no i32 code: the
  // engine and the twin clamp to ±127 c_clip in double first (NaN -> 0),
  // so the conversion is defined (the sanitize build checks it) and both
  // agree bitwise — at the smallest, the default and the largest clip.
  const Index dh = cell_.hidden_dim();
  const Index dx = cell_.input_dim();
  StatePruner pruner(PrunerConfig::fixed(0.08f));
  const float inf = std::numeric_limits<float>::infinity();
  const float seeds[] = {std::numeric_limits<float>::quiet_NaN(),
                         inf,
                         -inf,
                         1e30f,
                         -1e30f,
                         3e7f,
                         -2.0e9f,
                         std::numeric_limits<float>::max(),
                         0.5f / 127.0f,
                         -0.5f / 127.0f};
  for (const int c_clip : {1, 8, static_cast<int>(num::kMaxCellClip)}) {
    QuantConfig cfg = QuantConfig::int8();
    cfg.c_clip = c_clip;
    for (const num::simd::KernelBackend* backend :
         num::simd::available_backends()) {
      num::simd::set_backend_for_testing(backend);
      SCOPED_TRACE(std::string(backend->name) + " c_clip " +
                   std::to_string(c_clip));
      const Index batch = 3;
      SparseLstmEngine sparse(cell_, pruner, {}, cfg);
      SparseLstmEngine dense(cell_, pruner, {}, cfg);
      QuantizedLstmReference twin(cell_, pruner, cfg);
      Matrix c_s(batch, dh);
      Index n = 0;
      for (float& v : c_s.flat()) v = seeds[n++ % std::size(seeds)];
      Matrix c_d = c_s, c_t = c_s;
      Matrix h_s(batch, dh, 0.0f), h_d(batch, dh, 0.0f), h_t(batch, dh, 0.0f);
      Rng step_rng(7);
      for (int t = 0; t < 3; ++t) {
        const Matrix x = random_matrix(batch, dx, step_rng);
        sparse.step(x, h_s, c_s);
        dense.step_dense(x, h_d, c_d);
        twin.step(x, h_t, c_t);
        ASSERT_EQ(c_s, c_d) << "step " << t;
        ASSERT_EQ(h_s, h_d) << "step " << t;
        ASSERT_EQ(c_s, c_t) << "step " << t;
        ASSERT_EQ(h_s, h_t) << "step " << t;
        for (const float v : c_s.flat()) {
          ASSERT_LE(std::fabs(v), static_cast<float>(c_clip)) << v;
        }
      }
    }
  }
}

TEST_F(QuantizedInferenceTest, StatesRoundTripTheInt8Grid) {
  // Every h/c the quantized engine stores is float(q) * kStateScale for
  // an integer q (|q| <= 127 for h, |q| <= 127 * c_clip for c), so the
  // next step's re-quantization (round(v / kStateScale)) recovers q
  // exactly — the round trip the skip path's zero pattern rides on.
  StatePruner pruner(PrunerConfig::fixed(0.08f));
  SparseLstmEngine engine(cell_, pruner, {}, QuantConfig::int8());
  const QuantConfig& cfg = engine.quant_config();
  const float grid = nn::PackedLstmWeightsI8::kStateScale;
  Matrix h(4, cell_.hidden_dim(), 0.0f);
  Matrix c(4, cell_.hidden_dim(), 0.0f);
  for (int t = 0; t < 8; ++t) {
    const Matrix x = random_matrix(4, cell_.input_dim(), rng_);
    engine.step(x, h, c);
  }
  for (float v : h.flat()) {
    const float q = std::nearbyint(v / grid);
    EXPECT_LE(std::fabs(q), 127.0f);
    EXPECT_EQ(v, static_cast<float>(q) * grid);
  }
  for (float v : c.flat()) {
    const float q = std::nearbyint(v / grid);
    EXPECT_LE(std::fabs(q), 127.0f * static_cast<float>(cfg.c_clip));
    EXPECT_EQ(v, static_cast<float>(q) * grid);
  }
}

TEST_F(QuantizedInferenceTest, QuantizedAccessorsAndSharedScale) {
  StatePruner pruner(PrunerConfig::fixed(0.08f));
  SparseLstmEngine fp32(cell_, pruner);
  EXPECT_FALSE(fp32.quantized());
  EXPECT_EQ(fp32.packed_weights_i8(), nullptr);

  SparseLstmEngine q(cell_, pruner, {}, QuantConfig::int8());
  EXPECT_TRUE(q.quantized());
  ASSERT_NE(q.packed_weights_i8(), nullptr);
  // The twin re-derives the shared Wx/Wh scale independently; both
  // must land on the identical float.
  QuantizedLstmReference twin(cell_, pruner);
  EXPECT_EQ(q.packed_weights_i8()->weight_scale.scale, twin.weight_scale());
}

TEST_F(QuantizedInferenceTest, QuantizedEngineHoldsNoFp32Pack) {
  // The int8 datapath never reads the fp32 pack, so a quantized engine
  // must not pay for one: 4 bytes per weight, per engine, per shard.
  StatePruner pruner(PrunerConfig::fixed(0.08f));
  SparseLstmEngine fp32(cell_, pruner);
  EXPECT_GT(fp32.packed_weights().wht.size(), 0);
  EXPECT_GT(fp32.packed_weights().wxt.size(), 0);

  SparseLstmEngine q(cell_, pruner, {}, QuantConfig::int8());
  const nn::PackedLstmWeights& packed = q.packed_weights();
  EXPECT_EQ(packed.wht.size(), 0);
  EXPECT_EQ(packed.wxt.size(), 0);
  EXPECT_EQ(packed.bias.size(), 0);
  EXPECT_EQ(packed.wht.capacity(), 0);
  EXPECT_EQ(packed.wxt.capacity(), 0);
}

TEST_F(QuantizedInferenceTest, BatchCompositionDoesNotChangeALane) {
  // Serving determinism at the engine level: a lane stepped alone must
  // match the same lane stepped inside a batch of strangers — all
  // quantization scales are fixed at construction, so nothing
  // batch-dependent can enter the datapath.
  const Index dh = cell_.hidden_dim();
  const Index dx = cell_.input_dim();
  StatePruner pruner(PrunerConfig::fixed(0.08f));
  SparseLstmEngine solo(cell_, pruner, {}, QuantConfig::int8());
  SparseLstmEngine batched(cell_, pruner, {}, QuantConfig::int8());

  Matrix h1(1, dh, 0.0f), c1(1, dh, 0.0f);
  Matrix hb(5, dh, 0.0f), cb(5, dh, 0.0f);
  for (Index r = 0; r < 5; ++r) {
    for (Index j = 0; j < dh; ++j) {
      if (r > 0) {
        hb(r, j) = static_cast<float>(rng_.uniform(-1.0, 1.0));
        cb(r, j) = static_cast<float>(rng_.uniform(-1.0, 1.0));
      }
    }
  }
  for (int t = 0; t < 10; ++t) {
    const Matrix x1 = random_matrix(1, dx, rng_);
    Matrix xb = random_matrix(5, dx, rng_);
    for (Index j = 0; j < dx; ++j) xb(0, j) = x1(0, j);
    solo.step(x1, h1, c1);
    batched.step(xb, hb, cb);
    for (Index j = 0; j < dh; ++j) {
      ASSERT_EQ(h1(0, j), hb(0, j)) << "step " << t << " j " << j;
      ASSERT_EQ(c1(0, j), cb(0, j)) << "step " << t << " j " << j;
    }
  }
}

}  // namespace
}  // namespace zss::core
