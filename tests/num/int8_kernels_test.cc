// Equivalence of every available backend's int8 kernels against the
// unblocked num::reference int8 twins, across odd shapes and batch
// sizes — the kernel half of the int8 exactness contract
// (docs/exactness.md "int8"). Unlike the fp32 suite the contract here
// is NOT a serial-chain rule: int8 x int8 products are exact in i32 and
// accumulation wraps mod 2^32, so ANY summation order (including the
// horizontal reductions the SIMD kernels use) must land on the same
// bits. The suite therefore compares bitwise, including deliberate
// wraparound cases, and walks the same degenerate lane patterns
// (ragged / empty / full / single-position) as the fp32 suite.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "num/kernels.h"
#include "num/reference_kernels.h"
#include "num/rng.h"
#include "num/simd/backend.h"

namespace zss::num {
namespace {

MatrixI8 random_i8_matrix(Index rows, Index cols, Rng& rng) {
  MatrixI8 m(rows, cols);
  for (std::int8_t& v : m.flat()) {
    v = static_cast<std::int8_t>(rng.uniform(-127.0, 128.0));
  }
  return m;
}

std::int8_t random_i8(Rng& rng) {
  return static_cast<std::int8_t>(rng.uniform(-127.0, 128.0));
}

void expect_bitwise_equal_i32(const MatrixI32& a, const MatrixI32& b) {
  ASSERT_TRUE(a.same_shape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.size()) *
                            sizeof(std::int32_t)),
            0);
}

struct Shape {
  Index dh;
  Index batch;
};

using KernelParam = std::tuple<Shape, const simd::KernelBackend*>;

class Int8BackendKernelTest : public ::testing::TestWithParam<KernelParam> {
 protected:
  void SetUp() override {
    simd::set_backend_for_testing(std::get<1>(GetParam()));
  }
  void TearDown() override { simd::set_backend_for_testing(nullptr); }

  Shape shape() const { return std::get<0>(GetParam()); }
};

std::string param_name(const ::testing::TestParamInfo<KernelParam>& info) {
  const auto& [shape, backend] = info.param;
  return "dh" + std::to_string(shape.dh) + "b" + std::to_string(shape.batch) +
         "_" + backend->name;
}

TEST_P(Int8BackendKernelTest, GemmABtI8MatchesReferenceBitwise) {
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch));
  const MatrixI8 a = random_i8_matrix(batch, dh, rng);
  const MatrixI8 b = random_i8_matrix(4 * dh, dh, rng);
  MatrixI32 c_backend;
  gemm_a_bt_i8(a, b, c_backend);
  MatrixI32 c_ref;
  reference::gemm_a_bt_i8(a, b, c_ref);
  expect_bitwise_equal_i32(c_backend, c_ref);
}

TEST_P(Int8BackendKernelTest, GemmABtI8OverwritesStaleOutput) {
  // The gemm slot overwrites; stale garbage in a reused c must not
  // leak through (the engine reuses its i32 staging every step).
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 1));
  const MatrixI8 a = random_i8_matrix(batch, dh, rng);
  const MatrixI8 b = random_i8_matrix(4 * dh, dh, rng);
  MatrixI32 c_backend(batch, 4 * dh, std::numeric_limits<std::int32_t>::min());
  gemm_a_bt_i8(a, b, c_backend);
  MatrixI32 c_ref;
  reference::gemm_a_bt_i8(a, b, c_ref);
  expect_bitwise_equal_i32(c_backend, c_ref);
}

TEST_P(Int8BackendKernelTest, SparseAccumRowsI8MatchesReferenceBitwise) {
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 4));
  const MatrixI8 packed = random_i8_matrix(dh, 4 * dh, rng);
  // ~40% kept, position-major values with some zero lanes (kept only
  // because another lane was non-zero — the skip-identity case).
  std::vector<Index> positions;
  std::vector<std::int8_t> values;
  for (Index j = 0; j < dh; ++j) {
    if (dh > 1 && !rng.bernoulli(0.4)) continue;
    positions.push_back(j);
    for (Index b = 0; b < batch; ++b) {
      values.push_back(rng.bernoulli(0.25) ? std::int8_t{0} : random_i8(rng));
    }
  }
  MatrixI32 out_backend(batch, 4 * dh, 125);  // non-zero start: accumulate
  MatrixI32 out_ref = out_backend;
  sparse_accum_rows_i8(packed, positions, values, out_backend);
  reference::sparse_accum_rows_i8(packed, positions, values, out_ref);
  expect_bitwise_equal_i32(out_backend, out_ref);
}

TEST_P(Int8BackendKernelTest, SparseAccumRowsMultiI8MatchesReferenceBitwise) {
  // Ragged per-lane CSR mix: ~40% kept on most lanes, one empty lane,
  // one full lane, one single-position lane at the edge.
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 7));
  const MatrixI8 packed = random_i8_matrix(dh, 4 * dh, rng);
  std::vector<Index> positions;
  std::vector<Index> row_start{0};
  std::vector<std::int8_t> values;
  for (Index b = 0; b < batch; ++b) {
    if (b == 1) {
      // empty lane: contributes nothing, must not disturb neighbours
    } else if (b == 2) {
      for (Index j = 0; j < dh; ++j) {  // full lane
        positions.push_back(j);
        values.push_back(random_i8(rng));
      }
    } else if (b == 3) {
      positions.push_back(dh - 1);  // single position, at the edge
      values.push_back(random_i8(rng));
    } else {
      for (Index j = 0; j < dh; ++j) {
        if (dh > 1 && !rng.bernoulli(0.4)) continue;
        positions.push_back(j);
        values.push_back(random_i8(rng));
      }
    }
    row_start.push_back(static_cast<Index>(positions.size()));
  }
  MatrixI32 out_backend(batch, 4 * dh, -125);  // non-zero start: accumulate
  MatrixI32 out_ref = out_backend;
  sparse_accum_rows_multi_i8(packed, positions, row_start, values,
                             out_backend);
  reference::sparse_accum_rows_multi_i8(packed, positions, row_start, values,
                                        out_ref);
  expect_bitwise_equal_i32(out_backend, out_ref);
}

TEST_P(Int8BackendKernelTest, SparseFullLaneAgreesWithDenseGemm) {
  // A full-lane CSR accumulation over zero-filled output computes the
  // same sums as the dense gemm row — modular associativity makes the
  // orders interchangeable, so the bits must match across kernels, not
  // just within one.
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 9));
  const MatrixI8 packed = random_i8_matrix(dh, 4 * dh, rng);
  const MatrixI8 h = random_i8_matrix(batch, dh, rng);
  // packed is wht-layout (row j = column j of the gate-major matrix);
  // rebuild the gate-major (4dh x dh) view for gemm_a_bt_i8.
  MatrixI8 gate_major(4 * dh, dh);
  for (Index r = 0; r < 4 * dh; ++r) {
    for (Index j = 0; j < dh; ++j) gate_major(r, j) = packed(j, r);
  }
  MatrixI32 dense;
  gemm_a_bt_i8(h, gate_major, dense);

  std::vector<Index> positions;
  std::vector<Index> row_start{0};
  std::vector<std::int8_t> values;
  for (Index b = 0; b < batch; ++b) {
    for (Index j = 0; j < dh; ++j) {
      positions.push_back(j);
      values.push_back(h(b, j));
    }
    row_start.push_back(static_cast<Index>(positions.size()));
  }
  MatrixI32 sparse(batch, 4 * dh, 0);
  sparse_accum_rows_multi_i8(packed, positions, row_start, values, sparse);
  expect_bitwise_equal_i32(sparse, dense);
}

TEST_P(Int8BackendKernelTest, AccumulatorWrapMatchesReference) {
  // i32 overflow edge: start the accumulators next to INT32_MAX /
  // INT32_MIN so the products push them across. Wrap mod 2^32 is the
  // documented behaviour (num::madd_i8), identical on every backend —
  // not UB, not saturation.
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 11));
  const MatrixI8 packed = random_i8_matrix(dh, 4 * dh, rng);
  std::vector<Index> positions;
  std::vector<std::int8_t> values;
  for (Index j = 0; j < dh; ++j) {
    positions.push_back(j);
    for (Index b = 0; b < batch; ++b) {
      // All-max products give the fastest march toward the edge.
      values.push_back(rng.bernoulli(0.5) ? std::int8_t{127}
                                          : std::int8_t{-127});
    }
  }
  MatrixI32 out_backend(batch, 4 * dh, 0);
  for (Index i = 0; i < out_backend.rows(); ++i) {
    for (Index j = 0; j < out_backend.cols(); ++j) {
      out_backend(i, j) = (i + j) % 2 == 0
                              ? std::numeric_limits<std::int32_t>::max() - 3
                              : std::numeric_limits<std::int32_t>::min() + 3;
    }
  }
  MatrixI32 out_ref = out_backend;
  sparse_accum_rows_i8(packed, positions, values, out_backend);
  reference::sparse_accum_rows_i8(packed, positions, values, out_ref);
  expect_bitwise_equal_i32(out_backend, out_ref);

  // Same edge through the per-lane CSR kernel.
  std::vector<Index> csr_positions;
  std::vector<Index> row_start{0};
  std::vector<std::int8_t> csr_values;
  for (Index b = 0; b < batch; ++b) {
    for (std::size_t e = 0; e < positions.size(); ++e) {
      csr_positions.push_back(positions[e]);
      csr_values.push_back(values[e * static_cast<std::size_t>(batch) +
                                 static_cast<std::size_t>(b)]);
    }
    row_start.push_back(static_cast<Index>(csr_positions.size()));
  }
  MatrixI32 multi_backend = out_ref;  // == pre-accumulation fill + one pass
  MatrixI32 multi_ref = out_ref;
  for (Index i = 0; i < multi_backend.rows(); ++i) {
    for (Index j = 0; j < multi_backend.cols(); ++j) {
      multi_backend(i, j) = (i + j) % 2 == 0
                                ? std::numeric_limits<std::int32_t>::max() - 3
                                : std::numeric_limits<std::int32_t>::min() + 3;
      multi_ref(i, j) = multi_backend(i, j);
    }
  }
  sparse_accum_rows_multi_i8(packed, csr_positions, row_start, csr_values,
                             multi_backend);
  reference::sparse_accum_rows_multi_i8(packed, csr_positions, row_start,
                                        csr_values, multi_ref);
  expect_bitwise_equal_i32(multi_backend, multi_ref);
}

TEST_P(Int8BackendKernelTest, EmptyKeptSetLeavesOutputUntouched) {
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 13));
  const MatrixI8 packed = random_i8_matrix(dh, 4 * dh, rng);
  MatrixI32 out(batch, 4 * dh, 42);
  sparse_accum_rows_i8(packed, {}, {}, out);
  for (std::int32_t v : out.flat()) EXPECT_EQ(v, 42);
  std::vector<Index> row_start(static_cast<std::size_t>(batch) + 1, 0);
  sparse_accum_rows_multi_i8(packed, {}, row_start, {}, out);
  for (std::int32_t v : out.flat()) EXPECT_EQ(v, 42);
}

TEST_P(Int8BackendKernelTest, EveryKeptCountMatchesReference) {
  // The paired-row kernels take kept rows two at a time and chain up to
  // kMultiGroup per pass: odd counts leave a padded pair, and counts
  // past the group size span several passes. Walk every count from 0 to
  // 17 (capped by dh), lane b offset by b so lanes disagree, through
  // both skip kernels.
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 17));
  const MatrixI8 packed = random_i8_matrix(dh, 4 * dh, rng);
  const Index max_kept = dh < 17 ? dh : 17;
  for (Index kept = 0; kept <= max_kept; ++kept) {
    SCOPED_TRACE("kept " + std::to_string(kept));
    std::vector<Index> positions;
    std::vector<Index> row_start{0};
    std::vector<std::int8_t> values;
    for (Index b = 0; b < batch; ++b) {
      const Index k = (kept + b) % (max_kept + 1);
      std::vector<Index> chosen;
      for (Index j = 0; j < dh; ++j) chosen.push_back(j);
      while (static_cast<Index>(chosen.size()) > k) {  // drop at random
        const auto at = static_cast<std::size_t>(
            rng.uniform(0.0, static_cast<double>(chosen.size())));
        chosen.erase(chosen.begin() + static_cast<std::ptrdiff_t>(
                                          at < chosen.size() ? at : 0));
      }
      for (const Index j : chosen) {
        positions.push_back(j);
        std::int8_t v = random_i8(rng);
        if (v == 0) v = 1;  // the encoder never emits a zero value here
        values.push_back(v);
      }
      row_start.push_back(static_cast<Index>(positions.size()));
    }
    MatrixI32 multi(batch, 4 * dh, 7);
    MatrixI32 multi_ref = multi;
    sparse_accum_rows_multi_i8(packed, positions, row_start, values, multi);
    reference::sparse_accum_rows_multi_i8(packed, positions, row_start,
                                          values, multi_ref);
    expect_bitwise_equal_i32(multi, multi_ref);

    // Position-major form: the first `kept` positions shared by every
    // lane, with zero values where a lane does not keep one.
    std::vector<Index> shared;
    std::vector<std::int8_t> shared_values;
    for (Index j = 0; j < kept; ++j) {
      shared.push_back(j);
      for (Index b = 0; b < batch; ++b) {
        shared_values.push_back(rng.bernoulli(0.2) ? std::int8_t{0}
                                                   : random_i8(rng));
      }
    }
    MatrixI32 one(batch, 4 * dh, -7);
    MatrixI32 one_ref = one;
    sparse_accum_rows_i8(packed, shared, shared_values, one);
    reference::sparse_accum_rows_i8(packed, shared, shared_values, one_ref);
    expect_bitwise_equal_i32(one, one_ref);
  }
}

TEST_P(Int8BackendKernelTest, AllExtremeRowsAndValuesMatchReference) {
  // Every weight and every value at ±127: each vpmaddwd pair sum is
  // ±2 * 127^2 or 0, the widest the kernels ever see, and the dense
  // gemm and both skip kernels must agree with the reference.
  const auto [dh, batch] = shape();
  Rng rng(static_cast<std::uint64_t>(dh * 100 + batch + 19));
  const auto extreme = [&rng] {
    return rng.bernoulli(0.5) ? std::int8_t{127} : std::int8_t{-127};
  };
  MatrixI8 packed(dh, 4 * dh);
  for (std::int8_t& v : packed.flat()) v = extreme();
  MatrixI8 h(batch, dh);
  for (std::int8_t& v : h.flat()) v = extreme();
  MatrixI8 gate_major(4 * dh, dh);
  for (Index r = 0; r < 4 * dh; ++r) {
    for (Index j = 0; j < dh; ++j) gate_major(r, j) = packed(j, r);
  }
  MatrixI32 dense;
  gemm_a_bt_i8(h, gate_major, dense);
  MatrixI32 dense_ref;
  reference::gemm_a_bt_i8(h, gate_major, dense_ref);
  expect_bitwise_equal_i32(dense, dense_ref);

  std::vector<Index> positions;
  std::vector<Index> row_start{0};
  std::vector<std::int8_t> values;
  for (Index b = 0; b < batch; ++b) {
    for (Index j = 0; j < dh; ++j) {
      positions.push_back(j);
      values.push_back(h(b, j));
    }
    row_start.push_back(static_cast<Index>(positions.size()));
  }
  MatrixI32 multi(batch, 4 * dh, 0);
  sparse_accum_rows_multi_i8(packed, positions, row_start, values, multi);
  expect_bitwise_equal_i32(multi, dense_ref);

  std::vector<Index> shared;
  std::vector<std::int8_t> shared_values;
  for (Index j = 0; j < dh; ++j) {
    shared.push_back(j);
    for (Index b = 0; b < batch; ++b) shared_values.push_back(h(b, j));
  }
  MatrixI32 one(batch, 4 * dh, 0);
  sparse_accum_rows_i8(packed, shared, shared_values, one);
  expect_bitwise_equal_i32(one, dense_ref);
}

// Shapes: n = 4dh is a multiple of 16 only for dh % 4 == 0, so dh 1, 3,
// 13, 17 and 130 exercise the kernels' scalar tails; dh 13 walks every
// batch from 1 to 9; dh 512 is the serving shape.
INSTANTIATE_TEST_SUITE_P(
    OddShapesAllBackends, Int8BackendKernelTest,
    ::testing::Combine(
        ::testing::Values(Shape{1, 1}, Shape{1, 2}, Shape{3, 1}, Shape{3, 5},
                          Shape{13, 1}, Shape{13, 2}, Shape{13, 3},
                          Shape{13, 4}, Shape{13, 5}, Shape{13, 6},
                          Shape{13, 7}, Shape{13, 8}, Shape{13, 9},
                          Shape{17, 2}, Shape{17, 5}, Shape{17, 40},
                          Shape{64, 1}, Shape{64, 2}, Shape{64, 5},
                          Shape{64, 33}, Shape{130, 3}, Shape{512, 1}),
        ::testing::ValuesIn(simd::available_backends())),
    param_name);

// --- the int8 cell update slot against its scalar twin ----------------

// Random LUTs over the activation ranges, with the extremes present so
// f * cq reaches 127 * c_lim.
std::array<std::int32_t, 256> random_lut(Rng& rng, std::int32_t lo) {
  std::array<std::int32_t, 256> lut{};
  for (auto& v : lut) {
    v = static_cast<std::int32_t>(rng.uniform(lo, 128.0));
    if (v > 127) v = 127;
  }
  lut[0] = lo;
  lut[255] = 127;
  lut[1] = 127;
  lut[254] = lo;
  return lut;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.size()) * sizeof(float)) ==
              0);
}

struct CellCase {
  Index batch;
  Index dh;
  std::int32_t c_clip;
  double acc_to_pre;
};

// Pre-activations that hit every requant code, exact ties k + 1/2 (when
// acc_to_pre is a power of two), the ±127 clip and the i32 extremes;
// cell states on the grid, at and past ±c_lim, off the grid, infinite
// and NaN.
void fill_cell_inputs(const CellCase& cc, Rng& rng, MatrixI32& pre,
                      Matrix& c) {
  pre.reshape(cc.batch, 4 * cc.dh);
  c.reshape(cc.batch, cc.dh);
  const double inv = 1.0 / cc.acc_to_pre;
  Index n = 0;
  for (std::int32_t& v : pre.flat()) {
    const Index kind = n++ % 8;
    const double code = static_cast<double>(n % 255) - 127.0;
    switch (kind) {
      case 0:  // exactly on code k
      case 1:  // the tie k + 1/2
        v = static_cast<std::int32_t>(
            std::clamp((code + (kind == 1 ? 0.5 : 0.0)) * inv, -2e9, 2e9));
        break;
      case 2:
        v = rng.bernoulli(0.5) ? std::numeric_limits<std::int32_t>::max()
                               : std::numeric_limits<std::int32_t>::min();
        break;
      case 3:  // just past the clip
        v = static_cast<std::int32_t>(
            std::clamp((code < 0 ? -128.0 : 128.0) * inv, -2e9, 2e9));
        break;
      default:
        v = static_cast<std::int32_t>(rng.uniform(-3e5, 3e5));
    }
  }
  const float lim = static_cast<float>(cc.c_clip);
  const float grid = 1.0f / 127.0f;
  n = 0;
  for (float& v : c.flat()) {
    switch (n++ % 10) {
      case 0:
        v = lim;
        break;
      case 1:
        v = -lim;
        break;
      case 2:
        v = static_cast<float>(
                static_cast<std::int32_t>(rng.uniform(-127.0 * lim,
                                                      127.0 * lim))) *
            grid;
        break;
      case 3:
        v = rng.bernoulli(0.5) ? 2.0f * lim : -3.0e7f;
        break;
      case 4:
        v = rng.bernoulli(0.5) ? std::numeric_limits<float>::infinity()
                               : -std::numeric_limits<float>::infinity();
        break;
      case 5:
        v = std::numeric_limits<float>::quiet_NaN();
        break;
      case 6:
        v = rng.bernoulli(0.5) ? 1e30f : -1e30f;
        break;
      default:
        v = static_cast<float>(rng.uniform(-1.5 * lim, 1.5 * lim));
    }
  }
}

TEST(Int8CellUpdateTest, EveryBackendMatchesTheScalarTwinBitwise) {
  Rng rng(2024);
  const auto sig = random_lut(rng, 0);
  const auto tanh_pre = random_lut(rng, -127);
  const auto tanh_c = random_lut(rng, -127);
  std::vector<CellCase> cases;
  for (const std::int32_t c_clip : {1, 8, kMaxCellClip}) {
    for (const double acc : {0.5, 1.0 / 64.0, 0.0123, 3.7}) {
      for (Index dh = 0; dh <= 33; ++dh) {
        cases.push_back({dh % 3 == 0 ? 3 : 1, dh, c_clip, acc});
      }
      cases.push_back({2, 512, c_clip, acc});
    }
  }
  for (const simd::KernelBackend* backend : simd::available_backends()) {
    simd::set_backend_for_testing(backend);
    for (const CellCase& cc : cases) {
      SCOPED_TRACE(std::string(backend->name) + " dh " +
                   std::to_string(cc.dh) + " batch " +
                   std::to_string(cc.batch) + " c_clip " +
                   std::to_string(cc.c_clip) + " acc " +
                   std::to_string(cc.acc_to_pre));
      QuantCellParams p;
      p.sigmoid = sig.data() + 128;
      p.tanh_pre = tanh_pre.data() + 128;
      p.tanh_c = tanh_c.data() + 128;
      p.acc_to_pre = cc.acc_to_pre;
      p.c_clip = cc.c_clip;
      MatrixI32 pre;
      Matrix c;
      fill_cell_inputs(cc, rng, pre, c);
      Matrix c_twin = c;
      Matrix h(cc.batch, cc.dh, -1.0f);
      Matrix h_twin = h;
      lstm_cell_update_i8(pre, p, c, h);
      simd::kScalarBackend.lstm_cell_update_i8(pre.data(), c_twin.data(),
                                               h_twin.data(), cc.batch, cc.dh,
                                               p);
      ASSERT_TRUE(bitwise_equal(c, c_twin));
      ASSERT_TRUE(bitwise_equal(h, h_twin));
      // Outputs land on the grid, inside the clips, whatever came in.
      const float lim = static_cast<float>(cc.c_clip);
      for (const float v : c.flat()) {
        ASSERT_LE(std::fabs(v), lim) << v;
        // v * 127 is within a few units of q at the largest clips.
        const double q0 = std::nearbyint(static_cast<double>(v) * 127.0);
        bool on_grid = false;
        for (double q = q0 - 4; q <= q0 + 4; ++q) {
          on_grid |= static_cast<float>(q) * (1.0f / 127.0f) == v;
        }
        ASSERT_TRUE(on_grid) << v;
      }
      for (const float v : h.flat()) ASSERT_LE(std::fabs(v), 1.0f) << v;
    }
  }
  simd::set_backend_for_testing(nullptr);
}

TEST(Int8CellUpdateTest, TwinRoundsTiesToEvenAndDividesHalfAwayFromZero) {
  // Pins the twin's arithmetic on hand-worked cases, so a backend that
  // matches it matches the documented datapath: requant ties round to
  // even (nearbyint), rdiv rounds halves away from zero, symmetrically.
  std::array<std::int32_t, 256> ident{};
  for (int q = -128; q <= 127; ++q) {
    ident[static_cast<std::size_t>(q + 128)] = q;
  }
  std::array<std::int32_t, 256> full{};
  full.fill(127);
  QuantCellParams p;
  p.sigmoid = full.data() + 128;  // f = i = o = 127
  p.tanh_pre = ident.data() + 128;
  p.tanh_c = ident.data() + 128;
  p.acc_to_pre = 0.5;
  p.c_clip = 2;
  // g = nearbyint(pre_g / 2): 5 -> 2 (2.5, to even), 7 -> 4 (3.5, to
  // even), 10 -> 5, -10 -> -5. With c_prev = 0, cq = rdiv(127 g, 127) = g
  // and h = tanh_c[rdiv(g, 2)] = rdiv(g, 2): 1, 2, 3 (2.5, away from
  // zero) and -3 (-2.5, away from zero).
  const Index dh = 4;
  MatrixI32 pre(1, 4 * dh, 0);
  const std::int32_t pre_g[dh] = {5, 7, 10, -10};
  const std::int32_t want_c[dh] = {2, 4, 5, -5};
  const std::int32_t want_h[dh] = {1, 2, 3, -3};
  for (Index j = 0; j < dh; ++j) pre(0, 3 * dh + j) = pre_g[j];
  Matrix c(1, dh, 0.0f);
  Matrix h(1, dh, 0.0f);
  simd::kScalarBackend.lstm_cell_update_i8(pre.data(), c.data(), h.data(), 1,
                                           dh, p);
  const float grid = 1.0f / 127.0f;
  for (Index j = 0; j < dh; ++j) {
    EXPECT_EQ(c(0, j), static_cast<float>(want_c[j]) * grid) << j;
    EXPECT_EQ(h(0, j), static_cast<float>(want_h[j]) * grid) << j;
  }
}

}  // namespace
}  // namespace zss::num
