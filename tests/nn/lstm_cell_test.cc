#include "nn/lstm_cell.h"

#include <gtest/gtest.h>

#include <cmath>

#include "num/activations.h"
#include "num/kernels.h"
#include "num/rng.h"

namespace zss::nn {
namespace {

using num::Index;
using num::Matrix;
using num::Rng;

Matrix random_matrix(Index rows, Index cols, Rng& rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (float& v : m.flat()) {
    v = static_cast<float>(rng.uniform(-scale, scale));
  }
  return m;
}

TEST(LstmCellTest, OutputShapesAndRanges) {
  Rng rng(1);
  LstmCell cell(3, 5, rng);
  const Matrix x = random_matrix(2, 3, rng);
  const Matrix h(2, 5, 0.0f);
  const Matrix c(2, 5, 0.0f);
  const auto out = cell.forward(x, h, c, nullptr);
  EXPECT_EQ(out.h.rows(), 2);
  EXPECT_EQ(out.h.cols(), 5);
  // h = o * tanh(c) is bounded in (-1, 1).
  for (float v : out.h.flat()) {
    EXPECT_GT(v, -1.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(LstmCellTest, ZeroInputZeroStateGivesBoundedCell) {
  Rng rng(2);
  LstmCell cell(4, 6, rng);
  const Matrix x(1, 4, 0.0f);
  const Matrix h(1, 6, 0.0f);
  const Matrix c(1, 6, 0.0f);
  const auto out = cell.forward(x, h, c, nullptr);
  // c = i * g with i in (0,1), g in (-1,1): magnitude < 1.
  for (float v : out.c.flat()) EXPECT_LT(std::fabs(v), 1.0f);
}

TEST(LstmCellTest, ForgetGateCarriesCellState) {
  Rng rng(3);
  LstmCell cell(2, 4, rng, /*forget_bias=*/30.0f);  // f ~= 1
  // Zero the other weights' influence by zero input/hidden.
  const Matrix x(1, 2, 0.0f);
  const Matrix h(1, 4, 0.0f);
  Matrix c(1, 4);
  for (Index j = 0; j < 4; ++j) c(0, j) = 0.3f * static_cast<float>(j + 1);
  const auto out = cell.forward(x, h, c, nullptr);
  // With f ~ 1 and i*g small, c_t tracks c_{t-1} (i*g bounded by i).
  for (Index j = 0; j < 4; ++j) {
    EXPECT_NEAR(out.c(0, j), c(0, j), 0.6f);
    EXPECT_GT(out.c(0, j), 0.0f);
  }
}

TEST(LstmCellTest, BatchRowsAreIndependent) {
  Rng rng(4);
  LstmCell cell(3, 5, rng);
  const Matrix x = random_matrix(2, 3, rng);
  const Matrix h = random_matrix(2, 5, rng, 0.5);
  const Matrix c = random_matrix(2, 5, rng, 0.5);
  const auto both = cell.forward(x, h, c, nullptr);

  // Run each row separately; results must match the batched run.
  for (Index b = 0; b < 2; ++b) {
    Matrix xb(1, 3);
    Matrix hb(1, 5);
    Matrix cb(1, 5);
    for (Index j = 0; j < 3; ++j) xb(0, j) = x(b, j);
    for (Index j = 0; j < 5; ++j) {
      hb(0, j) = h(b, j);
      cb(0, j) = c(b, j);
    }
    const auto single = cell.forward(xb, hb, cb, nullptr);
    for (Index j = 0; j < 5; ++j) {
      EXPECT_NEAR(single.h(0, j), both.h(b, j), 1e-6f);
      EXPECT_NEAR(single.c(0, j), both.c(b, j), 1e-6f);
    }
  }
}

TEST(LstmCellTest, CacheHoldsForwardActivations) {
  Rng rng(5);
  LstmCell cell(2, 3, rng);
  const Matrix x = random_matrix(1, 2, rng);
  const Matrix h = random_matrix(1, 3, rng, 0.5);
  const Matrix c = random_matrix(1, 3, rng, 0.5);
  LstmStepCache cache;
  const auto out = cell.forward(x, h, c, &cache);
  EXPECT_EQ(cache.x, x);
  EXPECT_EQ(cache.h_prev, h);
  EXPECT_EQ(cache.c_prev, c);
  EXPECT_EQ(cache.c, out.c);
  EXPECT_EQ(cache.gates.cols(), 12);
}

TEST(LstmCellTest, CellUpdateIsTheDocumentedPointwiseSequence) {
  // lstm_cell_update against its definition written out with the scalar
  // twins, bitwise; and the in-place (c aliases c_prev) and no-tanh_c
  // calling patterns of the engine give the same bits as training's.
  Rng rng(6);
  const Index batch = 3;
  const Index dh = 21;  // odd: every vector tail of the activation slots
  const Matrix pre = random_matrix(batch, 4 * dh, rng, 6.0);
  const Matrix c_prev = random_matrix(batch, dh, rng, 2.0);

  Matrix gates = pre;
  Matrix c(batch, dh), h(batch, dh), tanh_c(batch, dh);
  lstm_cell_update(gates, c_prev, c, h, &tanh_c);

  for (Index r = 0; r < batch; ++r) {
    for (Index j = 0; j < dh; ++j) {
      const float f = num::sigmoid(pre(r, j));
      const float i = num::sigmoid(pre(r, dh + j));
      const float o = num::sigmoid(pre(r, 2 * dh + j));
      const float g = num::tanh_act(pre(r, 3 * dh + j));
      const float cj = num::madd(f, c_prev(r, j), i * g);
      const float t = num::tanh_act(cj);
      EXPECT_EQ(gates(r, j), f);
      EXPECT_EQ(gates(r, 3 * dh + j), g);
      EXPECT_EQ(c(r, j), cj);
      EXPECT_EQ(tanh_c(r, j), t);
      EXPECT_EQ(h(r, j), o * t);
    }
  }

  Matrix gates2 = pre;
  Matrix c2 = c_prev;  // updated in place
  Matrix h2(batch, dh);
  lstm_cell_update(gates2, c2, c2, h2);
  EXPECT_EQ(c2, c);
  EXPECT_EQ(h2, h);
}

// Finite-difference gradient check over every parameter and input. The
// scalar loss is sum(h) + 0.5 * sum(c) so both outputs get gradient.
class LstmGradCheck : public ::testing::Test {
 protected:
  static constexpr Index kDx = 3;
  static constexpr Index kDh = 4;
  static constexpr Index kBatch = 2;

  LstmGradCheck() : rng_(99), cell_(kDx, kDh, rng_) {
    x_ = random_matrix(kBatch, kDx, rng_);
    h_ = random_matrix(kBatch, kDh, rng_, 0.5);
    c_ = random_matrix(kBatch, kDh, rng_, 0.5);
  }

  double loss() const {
    const auto out = cell_.forward(x_, h_, c_, nullptr);
    double l = 0.0;
    for (float v : out.h.flat()) l += v;
    for (float v : out.c.flat()) l += 0.5 * v;
    return l;
  }

  /// Analytic gradients via backward with dh = 1, dc = 0.5.
  LstmStepGrads analytic() {
    for (auto* p : cell_.parameters()) p->zero_grad();
    LstmStepCache cache;
    (void)cell_.forward(x_, h_, c_, &cache);
    const Matrix dh(kBatch, kDh, 1.0f);
    const Matrix dc(kBatch, kDh, 0.5f);
    return cell_.backward(cache, dh, dc);
  }

  void check_matrix_grad(Matrix& target, const Matrix& grad,
                         double tol = 2e-2) {
    const float eps = 1e-3f;
    for (Index r = 0; r < target.rows(); ++r) {
      for (Index col = 0; col < target.cols(); ++col) {
        const float saved = target(r, col);
        target(r, col) = saved + eps;
        const double up = loss();
        target(r, col) = saved - eps;
        const double down = loss();
        target(r, col) = saved;
        const double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(grad(r, col), numeric, tol)
            << "element (" << r << ", " << col << ")";
      }
    }
  }

  Rng rng_;
  LstmCell cell_;
  Matrix x_, h_, c_;
};

TEST_F(LstmGradCheck, InputGradient) {
  auto grads = analytic();
  check_matrix_grad(x_, grads.dx);
}

TEST_F(LstmGradCheck, HiddenGradient) {
  auto grads = analytic();
  check_matrix_grad(h_, grads.dh_prev);
}

TEST_F(LstmGradCheck, CellGradient) {
  auto grads = analytic();
  check_matrix_grad(c_, grads.dc_prev);
}

TEST_F(LstmGradCheck, WxGradient) {
  (void)analytic();
  check_matrix_grad(cell_.wx().value, cell_.wx().grad);
}

TEST_F(LstmGradCheck, WhGradient) {
  (void)analytic();
  check_matrix_grad(cell_.wh().value, cell_.wh().grad);
}

TEST_F(LstmGradCheck, BiasGradient) {
  (void)analytic();
  check_matrix_grad(cell_.bias().value, cell_.bias().grad);
}

TEST(LstmCellTest, BackwardAccumulatesAcrossCalls) {
  Rng rng(7);
  LstmCell cell(2, 3, rng);
  const Matrix x = random_matrix(1, 2, rng);
  const Matrix h(1, 3, 0.1f);
  const Matrix c(1, 3, 0.1f);
  LstmStepCache cache;
  (void)cell.forward(x, h, c, &cache);
  const Matrix dh(1, 3, 1.0f);
  const Matrix dc(1, 3, 0.0f);
  for (auto* p : cell.parameters()) p->zero_grad();
  (void)cell.backward(cache, dh, dc);
  const Matrix once = cell.wh().grad;
  (void)cell.backward(cache, dh, dc);
  for (Index i = 0; i < once.rows(); ++i) {
    for (Index j = 0; j < once.cols(); ++j) {
      EXPECT_NEAR(cell.wh().grad(i, j), 2.0f * once(i, j), 1e-6f);
    }
  }
}

TEST(LstmCellTest, ParametersListIsStable) {
  Rng rng(8);
  LstmCell cell(2, 3, rng);
  const auto params = cell.parameters();
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[0]->name, "lstm.wx");
  EXPECT_EQ(params[1]->name, "lstm.wh");
  EXPECT_EQ(params[2]->name, "lstm.b");
}

TEST(LstmCellDeathTest, ShapeMismatchAborts) {
  Rng rng(9);
  LstmCell cell(2, 3, rng);
  const Matrix x(1, 5);  // wrong input dim
  const Matrix h(1, 3, 0.0f);
  const Matrix c(1, 3, 0.0f);
  EXPECT_DEATH((void)cell.forward(x, h, c, nullptr), "precondition");
}

}  // namespace
}  // namespace zss::nn
