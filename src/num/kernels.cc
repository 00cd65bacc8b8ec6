#include "num/kernels.h"

#include <cmath>

#include "num/parallel.h"
#include "num/simd/backend.h"

namespace zss::num {

bool madd_is_fused() {
#ifdef FP_FAST_FMAF
  return true;
#else
  return false;
#endif
}

// The hot kernels below validate shapes, size outputs and partition row
// ranges here, then hand the raw buffers to the runtime-selected SIMD
// backend (num/simd/backend.h). Every backend honours the same
// serial-chain contract, so which one runs never changes the bits.

void gemv(const Matrix& w, std::span<const float> x, std::span<float> y) {
  ZSS_EXPECTS(w.cols() == static_cast<Index>(x.size()));
  ZSS_EXPECTS(w.rows() == static_cast<Index>(y.size()));
  simd::active_backend().gemv(w.data(), x.data(), y.data(), w.rows(),
                              w.cols());
}

void axpy_col(const Matrix& w, Index col, float scale, std::span<float> y) {
  ZSS_EXPECTS(col >= 0 && col < w.cols());
  ZSS_EXPECTS(w.rows() == static_cast<Index>(y.size()));
  const Index m = w.rows();
  const Index n = w.cols();
  const float* __restrict wp = w.data() + col;
  float* __restrict yp = y.data();
  for (Index i = 0; i < m; ++i) {
    yp[i] = madd(wp[i * n], scale, yp[i]);
  }
}

void sparse_accum_rows(const Matrix& packed, std::span<const Index> positions,
                       std::span<const float> values, Matrix& out) {
  const Index batch = out.rows();
  const Index n = out.cols();
  ZSS_EXPECTS(packed.cols() == n);
  ZSS_EXPECTS(values.size() == positions.size() * static_cast<std::size_t>(batch));
  for (const Index pos : positions) {
    ZSS_EXPECTS(pos >= 0 && pos < packed.rows());
  }
  simd::active_backend().sparse_accum_rows(packed.data(), positions.data(),
                                           positions.size(), values.data(),
                                           out.data(), batch, n);
}

namespace {

void validate_multi_args(const Matrix& packed, std::span<const Index> positions,
                         std::span<const Index> row_start,
                         std::span<const float> values, const Matrix& out) {
  const Index batch = out.rows();
  ZSS_EXPECTS(packed.cols() == out.cols());
  ZSS_EXPECTS(row_start.size() == static_cast<std::size_t>(batch) + 1);
  ZSS_EXPECTS(row_start[0] == 0);
  ZSS_EXPECTS(row_start[static_cast<std::size_t>(batch)] ==
              static_cast<Index>(positions.size()));
  ZSS_EXPECTS(values.size() == positions.size());
  for (Index b = 0; b < batch; ++b) {
    ZSS_EXPECTS(row_start[static_cast<std::size_t>(b)] <=
                row_start[static_cast<std::size_t>(b + 1)]);
    // Strictly ascending within each lane: the exactness contract
    // defines a lane's chain in position order, and backends are free
    // to schedule around that assumption (the merge-based AVX2 kernel
    // relies on it).
    for (Index e = row_start[static_cast<std::size_t>(b)];
         e < row_start[static_cast<std::size_t>(b + 1)]; ++e) {
      const Index pos = positions[static_cast<std::size_t>(e)];
      ZSS_EXPECTS(pos >= 0 && pos < packed.rows());
      ZSS_EXPECTS(e == row_start[static_cast<std::size_t>(b)] ||
                  positions[static_cast<std::size_t>(e - 1)] < pos);
    }
  }
}

}  // namespace

void sparse_accum_rows_multi(const Matrix& packed,
                             std::span<const Index> positions,
                             std::span<const Index> row_start,
                             std::span<const float> values, Matrix& out) {
  validate_multi_args(packed, positions, row_start, values, out);
  simd::active_backend().sparse_accum_rows_multi(
      packed.data(), positions.data(), row_start.data(), values.data(),
      out.data(), out.rows(), out.cols());
}

void sparse_accum_rows_multi_overwrite(const Matrix& packed,
                                       std::span<const Index> positions,
                                       std::span<const Index> row_start,
                                       std::span<const float> values,
                                       Matrix& out) {
  validate_multi_args(packed, positions, row_start, values, out);
  simd::active_backend().sparse_accum_rows_multi_overwrite(
      packed.data(), positions.data(), row_start.data(), values.data(),
      out.data(), out.rows(), out.cols());
}

namespace {

// The backend whose int8 slots serve this call. Backends that predate
// the int8 table (or out-of-tree tables that only grew the fp32 slots)
// leave the slots nullptr; rather than crash through a null pointer —
// or reject the whole backend, penalizing its fp32 kernels — dispatch
// degrades per call to the scalar table, whose int8 kernels are always
// present. Same spirit as the env-override fallback in simd/dispatch.cc
// but slot-granular. Covered by backend_dispatch_test.cc.
const simd::KernelBackend& i8_backend() {
  const simd::KernelBackend& active = simd::active_backend();
  return active.implemented_i8() ? active : simd::kScalarBackend;
}

}  // namespace

void gemm_a_bt_i8(const MatrixI8& a, const MatrixI8& b, MatrixI32& c) {
  ZSS_EXPECTS(a.cols() == b.cols());
  const Index m = a.rows();
  const Index k = a.cols();
  const Index n = b.rows();
  c.reshape(m, n);  // every output element is stored below; no fill pass
  const auto* backend = &i8_backend();
  const std::int8_t* ap = a.data();
  const std::int8_t* bp = b.data();
  std::int32_t* cp = c.data();
  parallel_for(Index{0}, m, [=](Index i0, Index i1) {
    backend->gemm_a_bt_i8(ap + i0 * k, bp, cp + i0 * n, i1 - i0, k, n);
  });
}

void sparse_accum_rows_i8(const MatrixI8& packed,
                          std::span<const Index> positions,
                          std::span<const std::int8_t> values,
                          MatrixI32& out) {
  const Index batch = out.rows();
  const Index n = out.cols();
  ZSS_EXPECTS(packed.cols() == n);
  ZSS_EXPECTS(values.size() ==
              positions.size() * static_cast<std::size_t>(batch));
  for (const Index pos : positions) {
    ZSS_EXPECTS(pos >= 0 && pos < packed.rows());
  }
  i8_backend().sparse_accum_rows_i8(packed.data(), positions.data(),
                                    positions.size(), values.data(),
                                    out.data(), batch, n);
}

void sparse_accum_rows_multi_i8(const MatrixI8& packed,
                                std::span<const Index> positions,
                                std::span<const Index> row_start,
                                std::span<const std::int8_t> values,
                                MatrixI32& out) {
  // Same CSR validation as the fp32 twin (strict ascent per lane; the
  // shared merge schedule relies on it).
  const Index batch = out.rows();
  ZSS_EXPECTS(packed.cols() == out.cols());
  ZSS_EXPECTS(row_start.size() == static_cast<std::size_t>(batch) + 1);
  ZSS_EXPECTS(row_start[0] == 0);
  ZSS_EXPECTS(row_start[static_cast<std::size_t>(batch)] ==
              static_cast<Index>(positions.size()));
  ZSS_EXPECTS(values.size() == positions.size());
  for (Index b = 0; b < batch; ++b) {
    ZSS_EXPECTS(row_start[static_cast<std::size_t>(b)] <=
                row_start[static_cast<std::size_t>(b + 1)]);
    for (Index e = row_start[static_cast<std::size_t>(b)];
         e < row_start[static_cast<std::size_t>(b + 1)]; ++e) {
      const Index pos = positions[static_cast<std::size_t>(e)];
      ZSS_EXPECTS(pos >= 0 && pos < packed.rows());
      ZSS_EXPECTS(e == row_start[static_cast<std::size_t>(b)] ||
                  positions[static_cast<std::size_t>(e - 1)] < pos);
    }
  }
  i8_backend().sparse_accum_rows_multi_i8(
      packed.data(), positions.data(), row_start.data(), values.data(),
      out.data(), out.rows(), out.cols());
}

void lstm_cell_update_i8(const MatrixI32& pre, const QuantCellParams& p,
                         Matrix& c, Matrix& h) {
  const Index batch = c.rows();
  const Index dh = c.cols();
  ZSS_EXPECTS(h.rows() == batch && h.cols() == dh);
  ZSS_EXPECTS(pre.rows() == batch && pre.cols() == 4 * dh);
  ZSS_EXPECTS(p.c_clip >= 1 && p.c_clip <= kMaxCellClip);
  // A backend without the slot (NEON, out-of-tree tables) gets the
  // scalar twin per call, like the int8 kernel slots above.
  const simd::KernelBackend& active = simd::active_backend();
  const simd::KernelBackend& backend =
      active.lstm_cell_update_i8 != nullptr ? active : simd::kScalarBackend;
  backend.lstm_cell_update_i8(pre.data(), c.data(), h.data(), batch, dh, p);
}

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  ZSS_EXPECTS(a.cols() == b.rows());
  const Index m = a.rows();
  const Index k = a.cols();
  const Index n = b.cols();
  c.resize(m, n, 0.0f);
  const auto* backend = &simd::active_backend();
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  // Rows of C are independent, so the row range is partitioned.
  parallel_for(Index{0}, m, [=](Index i0, Index i1) {
    backend->gemm_rows(ap + i0 * k, bp, cp + i0 * n, i1 - i0, k, n);
  });
}

void gemm_at_b_accum(const Matrix& a, const Matrix& b, Matrix& c) {
  ZSS_EXPECTS(a.rows() == b.rows());
  ZSS_EXPECTS(c.rows() == a.cols() && c.cols() == b.cols());
  const Index m = a.rows();
  const Index k = a.cols();
  const Index n = b.cols();
  const float* __restrict ap = a.data();
  const float* __restrict bp = b.data();
  float* __restrict cp = c.data();
  for (Index i = 0; i < m; ++i) {
    const float* __restrict arow = ap + i * k;
    const float* __restrict brow = bp + i * n;
    for (Index kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      float* __restrict crow = cp + kk * n;
      for (Index j = 0; j < n; ++j) crow[j] = madd(av, brow[j], crow[j]);
    }
  }
}

void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& c) {
  ZSS_EXPECTS(a.cols() == b.cols());
  const Index m = a.rows();
  const Index k = a.cols();
  const Index n = b.rows();
  c.reshape(m, n);  // every output element is stored below; no fill pass
  const auto* backend = &simd::active_backend();
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  parallel_for(Index{0}, m, [=](Index i0, Index i1) {
    backend->gemm_a_bt_rows(ap + i0 * k, bp, cp + i0 * n, i1 - i0, k, n);
  });
}

void transpose(const Matrix& in, Matrix& out) {
  const Index m = in.rows();
  const Index n = in.cols();
  out.reshape(n, m);  // fully overwritten below
  const float* __restrict ip = in.data();
  float* __restrict op = out.data();
  // Tiled so both the read and write side touch whole cache lines.
  constexpr Index kTile = 16;
  for (Index i0 = 0; i0 < m; i0 += kTile) {
    const Index i1 = std::min(i0 + kTile, m);
    for (Index j0 = 0; j0 < n; j0 += kTile) {
      const Index j1 = std::min(j0 + kTile, n);
      for (Index i = i0; i < i1; ++i) {
        for (Index j = j0; j < j1; ++j) op[j * m + i] = ip[i * n + j];
      }
    }
  }
}

float dot(std::span<const float> a, std::span<const float> b) {
  ZSS_EXPECTS(a.size() == b.size());
  float acc = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) acc = madd(a[i], b[i], acc);
  return acc;
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  ZSS_EXPECTS(x.size() == y.size());
  simd::active_backend().axpy(alpha, x.data(), y.data(), x.size());
}

void add_bias_rows(Matrix& y, std::span<const float> b) {
  ZSS_EXPECTS(y.cols() == static_cast<Index>(b.size()));
  const float* __restrict bpv = b.data();
  for (Index i = 0; i < y.rows(); ++i) {
    float* __restrict row = y.data() + i * y.cols();
    for (Index j = 0; j < y.cols(); ++j) row[j] += bpv[j];
  }
}

float squared_norm(std::span<const float> x) {
  float acc = 0.0f;
  for (float v : x) acc = madd(v, v, acc);
  return acc;
}

void scale(std::span<float> x, float alpha) {
  for (float& v : x) v *= alpha;
}

}  // namespace zss::num
