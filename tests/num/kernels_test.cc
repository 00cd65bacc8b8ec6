#include "num/kernels.h"

#include <gtest/gtest.h>

#include <cmath>

#include "num/rng.h"

namespace zss::num {
namespace {

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (float& v : m.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

TEST(KernelsTest, GemvMatchesManual) {
  Matrix w(2, 3);
  w(0, 0) = 1;
  w(0, 1) = 2;
  w(0, 2) = 3;
  w(1, 0) = -1;
  w(1, 1) = 0;
  w(1, 2) = 4;
  const std::vector<float> x = {1.0f, 0.5f, -1.0f};
  std::vector<float> y(2);
  gemv(w, x, y);
  EXPECT_FLOAT_EQ(y[0], 1.0f + 1.0f - 3.0f);
  EXPECT_FLOAT_EQ(y[1], -1.0f + 0.0f - 4.0f);
}

TEST(KernelsTest, AxpyColAccumulatesOneColumn) {
  Rng rng(1);
  Matrix w = random_matrix(5, 4, rng);
  std::vector<float> y(5, 0.0f);
  axpy_col(w, 2, 2.0f, y);
  for (Index i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(y[i], 2.0f * w(i, 2));
}

TEST(KernelsTest, GemvEqualsSumOfColumns) {
  // The accelerator's input-stationary dataflow accumulates one column
  // per input element; the result must equal the row-major gemv.
  Rng rng(2);
  Matrix w = random_matrix(6, 5, rng);
  std::vector<float> x(5);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> y_gemv(6);
  gemv(w, x, y_gemv);
  std::vector<float> y_cols(6, 0.0f);
  for (Index j = 0; j < 5; ++j) {
    axpy_col(w, j, x[static_cast<std::size_t>(j)], y_cols);
  }
  for (Index i = 0; i < 6; ++i) EXPECT_NEAR(y_gemv[i], y_cols[i], 1e-5f);
}

TEST(KernelsTest, GemmIdentity) {
  Rng rng(3);
  Matrix a = random_matrix(4, 4, rng);
  Matrix eye(4, 4, 0.0f);
  for (Index i = 0; i < 4; ++i) eye(i, i) = 1.0f;
  Matrix c;
  gemm(a, eye, c);
  for (Index i = 0; i < 4; ++i) {
    for (Index j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(c(i, j), a(i, j));
  }
}

TEST(KernelsTest, GemmMatchesNaive) {
  Rng rng(4);
  Matrix a = random_matrix(3, 5, rng);
  Matrix b = random_matrix(5, 2, rng);
  Matrix c;
  gemm(a, b, c);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 2; ++j) {
      float acc = 0.0f;
      for (Index k = 0; k < 5; ++k) acc += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), acc, 1e-5f);
    }
  }
}

TEST(KernelsTest, GemmAtBAccumMatchesExplicitTranspose) {
  Rng rng(5);
  Matrix a = random_matrix(6, 3, rng);
  Matrix b = random_matrix(6, 4, rng);
  Matrix c(3, 4, 1.0f);  // non-zero start: accumulate semantics
  gemm_at_b_accum(a, b, c);
  Matrix at(3, 6);
  for (Index i = 0; i < 6; ++i) {
    for (Index j = 0; j < 3; ++j) at(j, i) = a(i, j);
  }
  Matrix expected;
  gemm(at, b, expected);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 4; ++j) {
      EXPECT_NEAR(c(i, j), expected(i, j) + 1.0f, 1e-5f);
    }
  }
}

TEST(KernelsTest, GemmABtMatchesExplicitTranspose) {
  Rng rng(6);
  Matrix a = random_matrix(3, 5, rng);
  Matrix b = random_matrix(4, 5, rng);
  Matrix c;
  gemm_a_bt(a, b, c);
  Matrix bt(5, 4);
  for (Index i = 0; i < 4; ++i) {
    for (Index j = 0; j < 5; ++j) bt(j, i) = b(i, j);
  }
  Matrix expected;
  gemm(a, bt, expected);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 4; ++j) EXPECT_NEAR(c(i, j), expected(i, j), 1e-5f);
  }
}

TEST(KernelsTest, DotAndNorm) {
  const std::vector<float> a = {1.0f, 2.0f, 3.0f};
  const std::vector<float> b = {4.0f, -5.0f, 6.0f};
  EXPECT_FLOAT_EQ(dot(a, b), 4.0f - 10.0f + 18.0f);
  EXPECT_FLOAT_EQ(squared_norm(a), 14.0f);
}

TEST(KernelsTest, AxpyAndScale) {
  const std::vector<float> x = {1.0f, 2.0f};
  std::vector<float> y = {10.0f, 20.0f};
  axpy(0.5f, x, y);
  EXPECT_FLOAT_EQ(y[0], 10.5f);
  EXPECT_FLOAT_EQ(y[1], 21.0f);
  scale(y, 2.0f);
  EXPECT_FLOAT_EQ(y[0], 21.0f);
  EXPECT_FLOAT_EQ(y[1], 42.0f);
}

TEST(KernelsTest, AddBiasRows) {
  Matrix y(2, 3, 1.0f);
  const std::vector<float> b = {0.5f, 1.5f, -1.0f};
  add_bias_rows(y, b);
  for (Index r = 0; r < 2; ++r) {
    EXPECT_FLOAT_EQ(y(r, 0), 1.5f);
    EXPECT_FLOAT_EQ(y(r, 1), 2.5f);
    EXPECT_FLOAT_EQ(y(r, 2), 0.0f);
  }
}

TEST(KernelsDeathTest, ShapeMismatchAborts) {
  Matrix w(2, 3);
  std::vector<float> x(2);  // wrong: needs 3
  std::vector<float> y(2);
  EXPECT_DEATH(gemv(w, x, y), "precondition");
}

// Property sweep: column-accumulation equals gemv across shapes.
class KernelShapeTest : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(KernelShapeTest, ColumnDecompositionConsistent) {
  const auto [rows, cols] = GetParam();
  Rng rng(static_cast<std::uint64_t>(rows * 1000 + cols));
  Matrix w = random_matrix(rows, cols, rng);
  std::vector<float> x(static_cast<std::size_t>(cols));
  for (auto& v : x) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  std::vector<float> y1(static_cast<std::size_t>(rows));
  gemv(w, x, y1);
  std::vector<float> y2(static_cast<std::size_t>(rows), 0.0f);
  for (Index j = 0; j < cols; ++j) {
    axpy_col(w, j, x[static_cast<std::size_t>(j)], y2);
  }
  for (Index i = 0; i < rows; ++i) {
    EXPECT_NEAR(y1[static_cast<std::size_t>(i)],
                y2[static_cast<std::size_t>(i)], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, KernelShapeTest,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 17},
                                           std::pair{16, 16},
                                           std::pair{48, 7},
                                           std::pair{33, 65},
                                           std::pair{128, 100}));

}  // namespace
}  // namespace zss::num
