// AVX2+FMA backend. This translation unit is compiled with
// -mavx2 -mfma (set per-file by CMakeLists.txt on x86); whether the
// kernels may run is decided at runtime via cpuid in avx2_available().
//
// Exactness (docs/exactness.md): every output element keeps one serial
// multiply-accumulate chain in ascending position order. SIMD lanes are
// only ever *independent output elements* — _mm256_fmadd_ps rounds each
// lane exactly like the scalar fmaf the reference kernels contract to,
// and there are no horizontal reductions anywhere in this file. Where
// the data layout is row-major on the wrong axis (gemv, gemm_a_bt), an
// 8x8 in-register transpose turns eight contiguous row chunks into
// eight lane-major k-vectors instead of reordering any chain.
//
// The scalar tail code uses std::fmaf directly: this TU is compiled
// with FMA enabled, so fmaf is a single instruction and identical to
// what num::madd does in every FMA-built TU. avx2_available() refuses
// to run if the base translation units were built without FMA
// contraction (madd_is_fused() == false) — mixing fused and unfused
// chains is exactly the asymmetry bug PR 1 fixed.
#include "num/activations.h"
#include "num/kernels.h"
#include "num/simd/backend.h"
#include "num/simd/multi_schedule.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__) && \
    defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstring>

namespace zss::num::simd {

namespace {

bool avx2_available() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         madd_is_fused();
}

// In-register 8x8 transpose: r[q] holds row q's elements j..j+7 on
// entry; on exit r[p] holds element j+p of rows 0..7 (lane-major).
inline void transpose8(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  r[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  r[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  r[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  r[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  r[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  r[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  r[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

// y[j] += v * row[j] over [0, n): the shared inner loop of gemm and
// sparse_accum_rows. Each lane is one output column's chain step.
inline void accum_row_avx2(float v, const float* __restrict row,
                           float* __restrict y, Index n) {
  const __m256 vv = _mm256_set1_ps(v);
  Index j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 y0 = _mm256_loadu_ps(y + j);
    __m256 y1 = _mm256_loadu_ps(y + j + 8);
    y0 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(row + j), y0);
    y1 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(row + j + 8), y1);
    _mm256_storeu_ps(y + j, y0);
    _mm256_storeu_ps(y + j + 8, y1);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 y0 = _mm256_loadu_ps(y + j);
    y0 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(row + j), y0);
    _mm256_storeu_ps(y + j, y0);
  }
  for (; j < n; ++j) y[j] = std::fmaf(v, row[j], y[j]);
}

void gemm_rows_avx2(const float* __restrict a, const float* __restrict b,
                    float* __restrict c, Index m, Index k, Index n) {
  for (Index i = 0; i < m; ++i) {
    const float* __restrict arow = a + i * k;
    float* __restrict crow = c + i * n;
    for (Index kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;  // same skip semantics as scalar/reference
      accum_row_avx2(av, b + kk * n, crow, n);
    }
  }
}

void sparse_accum_rows_avx2(const float* __restrict packed,
                            const Index* __restrict positions,
                            std::size_t n_positions,
                            const float* __restrict values,
                            float* __restrict out, Index batch, Index n) {
  for (std::size_t e = 0; e < n_positions; ++e) {
    const float* __restrict row = packed + positions[e] * n;
    for (Index b = 0; b < batch; ++b) {
      const float v = values[e * static_cast<std::size_t>(batch) +
                             static_cast<std::size_t>(b)];
      if (v == 0.0f) continue;  // lane kept for another lane's sake
      accum_row_avx2(v, row, out + b * n, n);
    }
  }
}

// One pass over y[jt..je) chaining C kept rows (C is compile-time so the
// FMA sequence unrolls with every broadcast hoisted into a register).
// The chain per output element runs r0..r(C-1) in the order the caller
// filled them — ascending position order — after whatever y already
// holds (or after +0.0f in the Ow overwrite flavour, which skips the y
// load — see multi_schedule.h), so chaining C rows per pass only
// amortizes out-row traffic, it never reorders a chain. Plugged into
// the shared position-major merge schedule of num/simd/multi_schedule.h.
struct Avx2MultiChainPass {
  template <int C, bool Ow>
  __attribute__((always_inline)) static inline void pass(
      float* __restrict y, Index jt, Index je,
      const float* const* __restrict gr, const float* __restrict gv) {
    const float* __restrict r0 = gr[0];
    const float* __restrict r1 = C > 1 ? gr[1] : gr[0];
    const float* __restrict r2 = C > 2 ? gr[2] : gr[0];
    const float* __restrict r3 = C > 3 ? gr[3] : gr[0];
    const float* __restrict r4 = C > 4 ? gr[4] : gr[0];
    const float* __restrict r5 = C > 5 ? gr[5] : gr[0];
    const float* __restrict r6 = C > 6 ? gr[6] : gr[0];
    const float* __restrict r7 = C > 7 ? gr[7] : gr[0];
    const __m256 v0 = _mm256_set1_ps(gv[0]);
    const __m256 v1 = _mm256_set1_ps(C > 1 ? gv[1] : 0.0f);
    const __m256 v2 = _mm256_set1_ps(C > 2 ? gv[2] : 0.0f);
    const __m256 v3 = _mm256_set1_ps(C > 3 ? gv[3] : 0.0f);
    const __m256 v4 = _mm256_set1_ps(C > 4 ? gv[4] : 0.0f);
    const __m256 v5 = _mm256_set1_ps(C > 5 ? gv[5] : 0.0f);
    const __m256 v6 = _mm256_set1_ps(C > 6 ? gv[6] : 0.0f);
    const __m256 v7 = _mm256_set1_ps(C > 7 ? gv[7] : 0.0f);
    Index j = jt;
    for (; j + 8 <= je; j += 8) {
      __m256 a = Ow ? _mm256_setzero_ps() : _mm256_loadu_ps(y + j);
      a = _mm256_fmadd_ps(v0, _mm256_loadu_ps(r0 + j), a);
      if (C > 1) a = _mm256_fmadd_ps(v1, _mm256_loadu_ps(r1 + j), a);
      if (C > 2) a = _mm256_fmadd_ps(v2, _mm256_loadu_ps(r2 + j), a);
      if (C > 3) a = _mm256_fmadd_ps(v3, _mm256_loadu_ps(r3 + j), a);
      if (C > 4) a = _mm256_fmadd_ps(v4, _mm256_loadu_ps(r4 + j), a);
      if (C > 5) a = _mm256_fmadd_ps(v5, _mm256_loadu_ps(r5 + j), a);
      if (C > 6) a = _mm256_fmadd_ps(v6, _mm256_loadu_ps(r6 + j), a);
      if (C > 7) a = _mm256_fmadd_ps(v7, _mm256_loadu_ps(r7 + j), a);
      _mm256_storeu_ps(y + j, a);
    }
    for (; j < je; ++j) {
      float a = Ow ? 0.0f : y[j];
      a = std::fmaf(gv[0], r0[j], a);
      if (C > 1) a = std::fmaf(gv[1], r1[j], a);
      if (C > 2) a = std::fmaf(gv[2], r2[j], a);
      if (C > 3) a = std::fmaf(gv[3], r3[j], a);
      if (C > 4) a = std::fmaf(gv[4], r4[j], a);
      if (C > 5) a = std::fmaf(gv[5], r5[j], a);
      if (C > 6) a = std::fmaf(gv[6], r6[j], a);
      if (C > 7) a = std::fmaf(gv[7], r7[j], a);
      y[j] = a;
    }
  }
};

void sparse_accum_rows_multi_avx2(const float* __restrict packed,
                                  const Index* __restrict positions,
                                  const Index* __restrict row_start,
                                  const float* __restrict values,
                                  float* __restrict out, Index batch,
                                  Index n) {
  // Per-lane CSR accumulate through the shared position-major merge
  // schedule (num/simd/multi_schedule.h — rationale and the measured
  // alternatives live there and in docs/architecture.md); this backend
  // contributes only the AVX2 chain-pass primitive above.
  sparse_accum_rows_multi_schedule<Avx2MultiChainPass>(
      packed, positions, row_start, values, out, batch, n);
}

void sparse_accum_rows_multi_overwrite_avx2(
    const float* __restrict packed, const Index* __restrict positions,
    const Index* __restrict row_start, const float* __restrict values,
    float* __restrict out, Index batch, Index n) {
  // Overwrite flavour: out = instead of out += (multi_schedule.h); the
  // caller skips its zero fill of out.
  sparse_accum_rows_multi_schedule<Avx2MultiChainPass, true>(
      packed, positions, row_start, values, out, batch, n);
}

void gemv_avx2(const float* __restrict w, const float* __restrict x,
               float* __restrict y, Index m, Index n) {
  Index i = 0;
  // Eight output rows per pass: transpose eight contiguous row chunks so
  // lane q accumulates y[i+q]'s own chain in ascending j.
  for (; i + 8 <= m; i += 8) {
    __m256 acc = _mm256_setzero_ps();
    Index j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 t[8];
      for (int q = 0; q < 8; ++q) {
        t[q] = _mm256_loadu_ps(w + (i + q) * n + j);
      }
      transpose8(t);
      for (int p = 0; p < 8; ++p) {
        acc = _mm256_fmadd_ps(t[p], _mm256_set1_ps(x[j + p]), acc);
      }
    }
    if (j < n) {
      float lanes[8];
      _mm256_storeu_ps(lanes, acc);
      for (int q = 0; q < 8; ++q) {
        const float* __restrict row = w + (i + q) * n;
        float s = lanes[q];
        for (Index jt = j; jt < n; ++jt) s = std::fmaf(row[jt], x[jt], s);
        y[i + q] = s;
      }
    } else {
      _mm256_storeu_ps(y + i, acc);
    }
  }
  for (; i < m; ++i) {
    const float* __restrict row = w + i * n;
    float s = 0.0f;
    for (Index j = 0; j < n; ++j) s = std::fmaf(row[j], x[j], s);
    y[i] = s;
  }
}

void gemm_a_bt_rows_avx2(const float* __restrict a, const float* __restrict b,
                         float* __restrict c, Index m, Index k, Index n) {
  const Index kv = k & ~Index{7};  // vectorized prefix of k
  if (m == 1) {
    // Single-row (gemv-like) fast path: with one row of A there is no
    // batch to amortize the C-parked tile over, and one 8-lane
    // accumulator is a single dependent FMA chain per k-chunk —
    // latency-bound (~4.5 GMAC/s, the ROADMAP small-batch item). Two
    // 8-column tiles per k-chunk double the independent chains, and
    // both accumulators live in registers across every chunk (no C
    // traffic at all until the final store). Chains are unchanged:
    // k-chunks ascend, lanes p ascend within a chunk, the scalar k-tail
    // appends last — each output element is still one serial
    // ascending-k chain.
    Index j0 = 0;
    for (; j0 + 16 <= n; j0 += 16) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (Index kk = 0; kk < kv; kk += 8) {
        __m256 t[8], u[8];
        for (int q = 0; q < 8; ++q) {
          t[q] = _mm256_loadu_ps(b + (j0 + q) * k + kk);
        }
        for (int q = 0; q < 8; ++q) {
          u[q] = _mm256_loadu_ps(b + (j0 + 8 + q) * k + kk);
        }
        transpose8(t);
        transpose8(u);
        const float* __restrict ap = a + kk;
        for (int p = 0; p < 8; ++p) {
          const __m256 av = _mm256_broadcast_ss(ap + p);
          acc0 = _mm256_fmadd_ps(av, t[p], acc0);
          acc1 = _mm256_fmadd_ps(av, u[p], acc1);
        }
      }
      _mm256_storeu_ps(c + j0, acc0);
      _mm256_storeu_ps(c + j0 + 8, acc1);
      if (kv < k) {  // k tail: continue each element's chain in scalar
        for (int q = 0; q < 16; ++q) {
          const float* __restrict brow = b + (j0 + q) * k;
          float s = c[j0 + q];
          for (Index kt = kv; kt < k; ++kt) {
            s = std::fmaf(a[kt], brow[kt], s);
          }
          c[j0 + q] = s;
        }
      }
    }
    for (; j0 < n; ++j0) {  // column tail: plain ascending-k dot
      const float* __restrict brow = b + j0 * k;
      float s = 0.0f;
      for (Index kk = 0; kk < k; ++kk) s = std::fmaf(a[kk], brow[kk], s);
      c[j0] = s;
    }
    return;
  }
  // Tile 8 rows of B (8 output columns, one ymm lane each). Per 8-wide
  // k-chunk the B chunk is transposed once and reused by *every* row of
  // A, with the partial sums parked in the C tile between chunks: the C
  // tile is m x 8 floats (L1-resident), so the shuffle cost of the
  // transpose amortizes over the whole batch and the inner loop is pure
  // broadcast+FMA. Each output element's chain still runs strictly in
  // ascending k: k-chunks in order, lanes p = 0..7 in order within a
  // chunk, and the scalar k-tail appended last. (At m == 1 the fast
  // path above wins instead — measured 1.4x — because this loop's
  // single accumulator chain is latency-bound with no batch to hide
  // it.)
  Index j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) {
    for (Index i = 0; i < m; ++i) {
      _mm256_storeu_ps(c + i * n + j0, _mm256_setzero_ps());
    }
    for (Index kk = 0; kk < kv; kk += 8) {
      __m256 t[8];
      for (int q = 0; q < 8; ++q) {
        t[q] = _mm256_loadu_ps(b + (j0 + q) * k + kk);
      }
      transpose8(t);
      for (Index i = 0; i < m; ++i) {
        const float* __restrict ap = a + i * k + kk;
        float* __restrict cp = c + i * n + j0;
        __m256 acc = _mm256_loadu_ps(cp);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 0), t[0], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 1), t[1], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 2), t[2], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 3), t[3], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 4), t[4], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 5), t[5], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 6), t[6], acc);
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ap + 7), t[7], acc);
        _mm256_storeu_ps(cp, acc);
      }
    }
    if (kv < k) {  // k tail: continue each element's chain in scalar
      for (Index i = 0; i < m; ++i) {
        const float* __restrict arow = a + i * k;
        float* __restrict crow = c + i * n + j0;
        for (int q = 0; q < 8; ++q) {
          const float* __restrict brow = b + (j0 + q) * k;
          float s = crow[q];
          for (Index kt = kv; kt < k; ++kt) {
            s = std::fmaf(arow[kt], brow[kt], s);
          }
          crow[q] = s;
        }
      }
    }
  }
  for (; j0 < n; ++j0) {  // column tail: plain ascending-k dots
    const float* __restrict brow = b + j0 * k;
    for (Index i = 0; i < m; ++i) {
      const float* __restrict arow = a + i * k;
      float s = 0.0f;
      for (Index kk = 0; kk < k; ++kk) s = std::fmaf(arow[kk], brow[kk], s);
      c[i * n + j0] = s;
    }
  }
}

void axpy_avx2(float alpha, const float* __restrict x, float* __restrict y,
               std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vy = _mm256_loadu_ps(y + i);
    vy = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), vy);
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] = std::fmaf(alpha, x[i], y[i]);
}

// --- activations -----------------------------------------------------
// Eight lanes of the scalar twins in num/activations.h, operation for
// operation: the same clamps (min/max operand order included, so NaN
// propagates identically), _mm256_fmadd_ps wherever the twin calls
// num::madd, _mm256_floor_ps for std::floor, and the same bit-built
// 2^n. Both tanh branches are computed and blended by the twin's own
// branch condition. The n % 8 tail runs through the same vector code on
// a padded copy rather than through the scalar twin, so this TU never
// instantiates the inline twins under its -mavx2 -mfma flags.

inline __m256 exp8(__m256 x) {
  using namespace act;
  x = _mm256_max_ps(_mm256_set1_ps(kExpLo),
                    _mm256_min_ps(_mm256_set1_ps(kExpHi), x));
  const __m256 fx = _mm256_floor_ps(
      _mm256_fmadd_ps(x, _mm256_set1_ps(kLog2e), _mm256_set1_ps(0.5f)));
  __m256 r = _mm256_fmadd_ps(fx, _mm256_set1_ps(-kLn2Hi), x);
  r = _mm256_fmadd_ps(fx, _mm256_set1_ps(-kLn2Lo), r);
  const __m256 z = _mm256_mul_ps(r, r);
  __m256 y = _mm256_set1_ps(kExpP0);
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP1));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP2));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP3));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP4));
  y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(kExpP5));
  y = _mm256_fmadd_ps(y, z, r);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  const __m256 biased = _mm256_add_ps(
      _mm256_add_ps(fx, _mm256_set1_ps(127.0f)), _mm256_set1_ps(kExpShift));
  const __m256 pow2n =
      _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_castps_si256(biased), 23));
  return _mm256_mul_ps(y, pow2n);
}

inline __m256 sigmoid8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 neg = _mm256_xor_ps(x, _mm256_set1_ps(-0.0f));
  return _mm256_div_ps(one, _mm256_add_ps(one, exp8(neg)));
}

inline __m256 tanh8(__m256 x) {
  using namespace act;
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 a = _mm256_andnot_ps(sign, x);
  // |x| < kTanhSmall: odd polynomial.
  const __m256 z = _mm256_mul_ps(a, a);
  __m256 p = _mm256_set1_ps(kTanhP0);
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(kTanhP1));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(kTanhP2));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(kTanhP3));
  p = _mm256_fmadd_ps(p, z, _mm256_set1_ps(kTanhP4));
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(p, z), a, a);
  // Otherwise: 1 - 2 / (e^{2|x|} + 1), |x| saturated.
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = exp8(_mm256_mul_ps(
      _mm256_set1_ps(2.0f), _mm256_min_ps(_mm256_set1_ps(kTanhSat), a)));
  const __m256 large = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));
  const __m256 is_small =
      _mm256_cmp_ps(a, _mm256_set1_ps(kTanhSmall), _CMP_LT_OQ);
  const __m256 t = _mm256_blendv_ps(large, small, is_small);
  return _mm256_or_ps(_mm256_andnot_ps(sign, t), _mm256_and_ps(sign, x));
}

template <__m256 (*F)(__m256)>
void map_avx2(const float* x, float* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(y + i, F(_mm256_loadu_ps(x + i)));
  if (i < n) {
    float lanes[8] = {};
    std::memcpy(lanes, x + i, (n - i) * sizeof(float));
    _mm256_storeu_ps(lanes, F(_mm256_loadu_ps(lanes)));
    std::memcpy(y + i, lanes, (n - i) * sizeof(float));
  }
}

void sigmoid_avx2(const float* x, float* y, std::size_t n) {
  map_avx2<sigmoid8>(x, y, n);
}

void tanh_avx2(const float* x, float* y, std::size_t n) {
  map_avx2<tanh8>(x, y, n);
}

// --- int8 kernels ----------------------------------------------------
// The int8 contract is wraparound-i32 exactness (num::madd_i8), and
// wrapping addition is associative — so unlike the fp32 kernels above,
// these are free to reduce horizontally and regroup. Every kernel here
// multiplies with vpmaddwd: int8 operands sign-extended to i16
// (vpmovsxbw, exact), s16 x s16 pair dots into full i32 (exact: a pair
// sum is at most 2 * 127^2 = 32258), folded in with vpaddd (the wrap).
// The dense gemm pairs adjacent k of one row with adjacent k of
// another; the skip kernels pair two kept rows at the same output
// (below). Deliberately NOT vpmaddubsw: its u8 x s8 products pair-add
// with *16-bit saturation*, which would need a range argument per call
// site; VNNI vpdpbusd needs a backend of its own (ROADMAP).

inline __m256i widen_i8(const std::int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

inline std::int32_t hsum_epi32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

inline std::int32_t dot_i8_avx2(const std::int8_t* __restrict a,
                                const std::int8_t* __restrict b, Index k) {
  __m256i acc = _mm256_setzero_si256();
  Index kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    acc = _mm256_add_epi32(acc,
                           _mm256_madd_epi16(widen_i8(a + kk), widen_i8(b + kk)));
  }
  std::int32_t s = hsum_epi32(acc);
  for (; kk < k; ++kk) s = madd_i8(a[kk], b[kk], s);
  return s;
}

void gemm_a_bt_i8_avx2(const std::int8_t* __restrict a,
                       const std::int8_t* __restrict b,
                       std::int32_t* __restrict c, Index m, Index k,
                       Index n) {
  // Tile 2 rows of A x 4 rows of B: eight vpmaddwd accumulators in
  // flight, every widened A chunk reused four times and every widened B
  // chunk twice — 128 MACs per 22 vector ops, which is what buys the
  // >= 2x-over-fp32 dense throughput the bench records.
  const Index kv = k & ~Index{15};
  Index i = 0;
  for (; i + 2 <= m; i += 2) {
    const std::int8_t* __restrict a0 = a + i * k;
    const std::int8_t* __restrict a1 = a0 + k;
    std::int32_t* __restrict c0 = c + i * n;
    std::int32_t* __restrict c1 = c0 + n;
    Index j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::int8_t* __restrict b0 = b + j * k;
      const std::int8_t* __restrict b1 = b0 + k;
      const std::int8_t* __restrict b2 = b1 + k;
      const std::int8_t* __restrict b3 = b2 + k;
      __m256i s00 = _mm256_setzero_si256();
      __m256i s01 = _mm256_setzero_si256();
      __m256i s02 = _mm256_setzero_si256();
      __m256i s03 = _mm256_setzero_si256();
      __m256i s10 = _mm256_setzero_si256();
      __m256i s11 = _mm256_setzero_si256();
      __m256i s12 = _mm256_setzero_si256();
      __m256i s13 = _mm256_setzero_si256();
      for (Index kk = 0; kk < kv; kk += 16) {
        const __m256i av0 = widen_i8(a0 + kk);
        const __m256i av1 = widen_i8(a1 + kk);
        const __m256i bv0 = widen_i8(b0 + kk);
        const __m256i bv1 = widen_i8(b1 + kk);
        const __m256i bv2 = widen_i8(b2 + kk);
        const __m256i bv3 = widen_i8(b3 + kk);
        s00 = _mm256_add_epi32(s00, _mm256_madd_epi16(av0, bv0));
        s01 = _mm256_add_epi32(s01, _mm256_madd_epi16(av0, bv1));
        s02 = _mm256_add_epi32(s02, _mm256_madd_epi16(av0, bv2));
        s03 = _mm256_add_epi32(s03, _mm256_madd_epi16(av0, bv3));
        s10 = _mm256_add_epi32(s10, _mm256_madd_epi16(av1, bv0));
        s11 = _mm256_add_epi32(s11, _mm256_madd_epi16(av1, bv1));
        s12 = _mm256_add_epi32(s12, _mm256_madd_epi16(av1, bv2));
        s13 = _mm256_add_epi32(s13, _mm256_madd_epi16(av1, bv3));
      }
      std::int32_t r00 = hsum_epi32(s00);
      std::int32_t r01 = hsum_epi32(s01);
      std::int32_t r02 = hsum_epi32(s02);
      std::int32_t r03 = hsum_epi32(s03);
      std::int32_t r10 = hsum_epi32(s10);
      std::int32_t r11 = hsum_epi32(s11);
      std::int32_t r12 = hsum_epi32(s12);
      std::int32_t r13 = hsum_epi32(s13);
      for (Index kt = kv; kt < k; ++kt) {
        r00 = madd_i8(a0[kt], b0[kt], r00);
        r01 = madd_i8(a0[kt], b1[kt], r01);
        r02 = madd_i8(a0[kt], b2[kt], r02);
        r03 = madd_i8(a0[kt], b3[kt], r03);
        r10 = madd_i8(a1[kt], b0[kt], r10);
        r11 = madd_i8(a1[kt], b1[kt], r11);
        r12 = madd_i8(a1[kt], b2[kt], r12);
        r13 = madd_i8(a1[kt], b3[kt], r13);
      }
      c0[j] = r00;
      c0[j + 1] = r01;
      c0[j + 2] = r02;
      c0[j + 3] = r03;
      c1[j] = r10;
      c1[j + 1] = r11;
      c1[j + 2] = r12;
      c1[j + 3] = r13;
    }
    for (; j < n; ++j) {
      const std::int8_t* __restrict brow = b + j * k;
      c0[j] = dot_i8_avx2(a0, brow, k);
      c1[j] = dot_i8_avx2(a1, brow, k);
    }
  }
  for (; i < m; ++i) {
    const std::int8_t* __restrict arow = a + i * k;
    std::int32_t* __restrict crow = c + i * n;
    for (Index j = 0; j < n; ++j) crow[j] = dot_i8_avx2(arow, b + j * k, k);
  }
}

// --- int8 skip kernels: paired rows ---------------------------------
// A chain pass takes its kept rows two at a time. The two rows' bytes
// are interleaved (vpunpcklbw/hbw) and sign-extended (vpmovsxbw), so
// each i16 pair is (a[j], b[j]); one vpmaddwd against the broadcast
// word pair (v_a, v_b) then yields v_a * a[j] + v_b * b[j] as a full
// i32 — exact, |sum| <= 2 * 127^2, with no saturation to reason about —
// and one vpaddd folds it into the output. That is half the shuffles
// per MAC of widening every row on its own (vpmullw plus two i16 -> i32
// widenings). An odd kept count pads its last pair with a zero value
// over the same row: a zero product, exact under the wrap contract.

// v_a in the low word, v_b in the high word of every i32 lane.
inline __m256i pair_values(std::int8_t va, std::int8_t vb) {
  const std::uint32_t lo = static_cast<std::uint16_t>(va);
  const std::uint32_t hi = static_cast<std::uint16_t>(vb);
  return _mm256_set1_epi32(static_cast<std::int32_t>(lo | (hi << 16)));
}

// One row pair's contribution to the 16 i32 outputs at j: acc0 holds
// outputs j..j+7, acc1 j+8..j+15.
inline void pair_step_i8(__m256i& acc0, __m256i& acc1,
                         const std::int8_t* __restrict ra,
                         const std::int8_t* __restrict rb, Index j,
                         __m256i vab) {
  const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ra + j));
  const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rb + j));
  acc0 = _mm256_add_epi32(
      acc0,
      _mm256_madd_epi16(_mm256_cvtepi8_epi16(_mm_unpacklo_epi8(a, b)), vab));
  acc1 = _mm256_add_epi32(
      acc1,
      _mm256_madd_epi16(_mm256_cvtepi8_epi16(_mm_unpackhi_epi8(a, b)), vab));
}

// Int8 chain pass for the shared merge schedule (multi_schedule.h): up
// to kMultiGroup rows, as (C + 1) / 2 pairs, per pass over 16 outputs.
struct Avx2MultiChainPassI8 {
  template <int C, bool Ow>
  __attribute__((always_inline)) static inline void pass(
      std::int32_t* __restrict y, Index jt, Index je,
      const std::int8_t* const* __restrict gr,
      const std::int8_t* __restrict gv) {
    constexpr int kPairs = (C + 1) / 2;
    const std::int8_t* ra[kPairs];
    const std::int8_t* rb[kPairs];
    __m256i vab[kPairs];
    for (int p = 0; p < kPairs; ++p) {
      const bool full = 2 * p + 1 < C;
      ra[p] = gr[2 * p];
      rb[p] = full ? gr[2 * p + 1] : gr[2 * p];
      vab[p] = pair_values(gv[2 * p], full ? gv[2 * p + 1] : std::int8_t{0});
    }
    Index j = jt;
    for (; j + 16 <= je; j += 16) {
      __m256i acc0 = Ow ? _mm256_setzero_si256()
                        : _mm256_loadu_si256(
                              reinterpret_cast<const __m256i*>(y + j));
      __m256i acc1 = Ow ? _mm256_setzero_si256()
                        : _mm256_loadu_si256(
                              reinterpret_cast<const __m256i*>(y + j + 8));
#pragma GCC unroll 4
      for (int p = 0; p < kPairs; ++p) {
        pair_step_i8(acc0, acc1, ra[p], rb[p], j, vab[p]);
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + j), acc0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + j + 8), acc1);
    }
    for (; j < je; ++j) {
      std::int32_t a = Ow ? 0 : y[j];
      for (int e = 0; e < C; ++e) a = madd_i8(gv[e], gr[e][j], a);
      y[j] = a;
    }
  }
};

// The batch-1 skip path: for each lane, its non-zero values are chained
// kMultiGroup at a time through the pass above, each group one pass
// over the lane's whole out row (a single lane has no other lane to
// keep a row tile L1-hot for).
void sparse_accum_rows_i8_avx2(const std::int8_t* __restrict packed,
                               const Index* __restrict positions,
                               std::size_t n_positions,
                               const std::int8_t* __restrict values,
                               std::int32_t* __restrict out, Index batch,
                               Index n) {
  const std::size_t lanes = static_cast<std::size_t>(batch);
  for (Index b = 0; b < batch; ++b) {
    std::int32_t* __restrict y = out + b * n;
    const std::int8_t* rows[kMultiGroup];
    std::int8_t vals[kMultiGroup];
    int cnt = 0;
    for (std::size_t e = 0; e < n_positions; ++e) {
      const std::int8_t v = values[e * lanes + static_cast<std::size_t>(b)];
      if (v == 0) continue;  // exact identity in integers too
      rows[cnt] = packed + positions[e] * n;
      vals[cnt] = v;
      if (++cnt == kMultiGroup) {
        multi_dispatch_pass<Avx2MultiChainPassI8, false>(cnt, y, 0, n, rows,
                                                         vals);
        cnt = 0;
      }
    }
    if (cnt > 0) {
      multi_dispatch_pass<Avx2MultiChainPassI8, false>(cnt, y, 0, n, rows,
                                                       vals);
    }
  }
}

void sparse_accum_rows_multi_i8_avx2(const std::int8_t* __restrict packed,
                                     const Index* __restrict positions,
                                     const Index* __restrict row_start,
                                     const std::int8_t* __restrict values,
                                     std::int32_t* __restrict out, Index batch,
                                     Index n) {
  sparse_accum_rows_multi_schedule<Avx2MultiChainPassI8, false, std::int8_t,
                                   std::int32_t>(packed, positions, row_start,
                                                 values, out, batch, n);
}

// --- int8 cell update --------------------------------------------------
// Eight lanes of the scalar twin (scalar_backend.cc), step for step:
//  * requantize: i32 -> double (exact), one multiply by acc_to_pre
//    (the twin's single rounding), vroundpd to nearest-even (nearbyint
//    in the default rounding mode), the ±127 clamp in double, then an
//    exact conversion of the integral value;
//  * the LUTs: vpgatherdd from the centred i32 tables;
//  * the seeded c: float -> double, x127 (exact: 24 + 7 bits), rounded,
//    NaN -> 0 by an ordered-compare mask, clamped to ±c_lim in double,
//    converted — the twin's order;
//  * rdiv: |p| + den/2 divided in double and truncated, sign restored
//    by vpsignd. For |p| < 2^31 and den <= 2^22 the truncation is exact:
//    a non-integral quotient Q sits at least 1/den below the next
//    integer, while the division's error is below Q * 2^-53 < 2^-22.
//    (float division would be exact only up to c_clip ~1040.) The
//    products i*g and o*tanh(c) stay below 127^2, where float is exact
//    (error below 128 * 2^-24 < 1/127), so those two use vdivps;
//  * write-back float(q) * (1/127), one rounding like the twin's.
// The dh % 8 tail runs the same vector code on a zero-padded copy.

inline __m256i join_epi32(__m128i lo, __m128i hi) {
  return _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
}

inline __m256i requant8(__m256i v, __m256d scale) {
  const __m256d lim = _mm256_set1_pd(127.0);
  const __m256d neg = _mm256_set1_pd(-127.0);
  constexpr int kRound = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
  __m256d lo = _mm256_round_pd(
      _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(v)), scale),
      kRound);
  __m256d hi = _mm256_round_pd(
      _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256(v, 1)),
                    scale),
      kRound);
  lo = _mm256_min_pd(_mm256_max_pd(lo, neg), lim);
  hi = _mm256_min_pd(_mm256_max_pd(hi, neg), lim);
  return join_epi32(_mm256_cvtpd_epi32(lo), _mm256_cvtpd_epi32(hi));
}

inline __m256i grid_c8(__m256 c, __m256d c_lim) {
  const __m256d k127 = _mm256_set1_pd(127.0);
  const __m256d neg = _mm256_sub_pd(_mm256_setzero_pd(), c_lim);
  constexpr int kRound = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
  __m256d lo = _mm256_round_pd(
      _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(c)), k127),
      kRound);
  __m256d hi = _mm256_round_pd(
      _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(c, 1)), k127),
      kRound);
  lo = _mm256_and_pd(lo, _mm256_cmp_pd(lo, lo, _CMP_ORD_Q));  // NaN -> 0
  hi = _mm256_and_pd(hi, _mm256_cmp_pd(hi, hi, _CMP_ORD_Q));
  lo = _mm256_min_pd(_mm256_max_pd(lo, neg), c_lim);
  hi = _mm256_min_pd(_mm256_max_pd(hi, neg), c_lim);
  return join_epi32(_mm256_cvtpd_epi32(lo), _mm256_cvtpd_epi32(hi));
}

// Sign-symmetric round-half-away divide, quotient in double.
inline __m256i rdiv8(__m256i p, __m256d den, __m256i half) {
  const __m256i t = _mm256_add_epi32(_mm256_abs_epi32(p), half);
  const __m256d lo =
      _mm256_div_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(t)), den);
  const __m256d hi =
      _mm256_div_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256(t, 1)), den);
  return _mm256_sign_epi32(
      join_epi32(_mm256_cvttpd_epi32(lo), _mm256_cvttpd_epi32(hi)), p);
}

// The same divide by 127 for |p| <= 127^2, quotient in float.
inline __m256i rdiv127_small8(__m256i p) {
  const __m256i t = _mm256_add_epi32(_mm256_abs_epi32(p), _mm256_set1_epi32(63));
  const __m256 q =
      _mm256_div_ps(_mm256_cvtepi32_ps(t), _mm256_set1_ps(127.0f));
  return _mm256_sign_epi32(_mm256_cvttps_epi32(q), p);
}

inline __m256i gather_lut(const std::int32_t* lut, __m256i idx) {
  return _mm256_i32gather_epi32(reinterpret_cast<const int*>(lut), idx, 4);
}

// Eight positions: gate pre-activations at pf/pi/po/pg, c read from
// c_in, c and h written to c_out / h_out.
inline void cell8(const std::int32_t* pf, const std::int32_t* pi,
                  const std::int32_t* po, const std::int32_t* pg,
                  const float* c_in, float* c_out, float* h_out,
                  const QuantCellParams& p, __m256d scale, __m256d c_lim_d,
                  __m256i c_lim, __m256d c_clip_d, __m256i c_half) {
  const auto load = [](const std::int32_t* q) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q));
  };
  const __m256i f = gather_lut(p.sigmoid, requant8(load(pf), scale));
  const __m256i i = gather_lut(p.sigmoid, requant8(load(pi), scale));
  const __m256i o = gather_lut(p.sigmoid, requant8(load(po), scale));
  const __m256i g = gather_lut(p.tanh_pre, requant8(load(pg), scale));
  const __m256i c_prev = grid_c8(_mm256_loadu_ps(c_in), c_lim_d);
  const __m256d k127 = _mm256_set1_pd(127.0);
  const __m256i h63 = _mm256_set1_epi32(63);
  __m256i cq = _mm256_add_epi32(
      rdiv8(_mm256_mullo_epi32(f, c_prev), k127, h63),
      rdiv127_small8(_mm256_mullo_epi32(i, g)));
  cq = _mm256_min_epi32(
      _mm256_max_epi32(cq, _mm256_sub_epi32(_mm256_setzero_si256(), c_lim)),
      c_lim);
  const __m256i tc = gather_lut(p.tanh_c, rdiv8(cq, c_clip_d, c_half));
  const __m256i hq = rdiv127_small8(_mm256_mullo_epi32(o, tc));
  const __m256 grid = _mm256_set1_ps(1.0f / 127.0f);
  _mm256_storeu_ps(c_out, _mm256_mul_ps(_mm256_cvtepi32_ps(cq), grid));
  _mm256_storeu_ps(h_out, _mm256_mul_ps(_mm256_cvtepi32_ps(hq), grid));
}

void lstm_cell_update_i8_avx2(const std::int32_t* __restrict pre,
                              float* __restrict c, float* __restrict h,
                              Index batch, Index dh,
                              const QuantCellParams& p) {
  const __m256d scale = _mm256_set1_pd(p.acc_to_pre);
  const std::int32_t c_lim = 127 * p.c_clip;
  const __m256d c_lim_d = _mm256_set1_pd(static_cast<double>(c_lim));
  const __m256i c_lim_i = _mm256_set1_epi32(c_lim);
  const __m256d c_clip_d = _mm256_set1_pd(static_cast<double>(p.c_clip));
  const __m256i c_half = _mm256_set1_epi32(p.c_clip / 2);
  for (Index r = 0; r < batch; ++r) {
    const std::int32_t* row = pre + r * 4 * dh;
    float* cr = c + r * dh;
    float* hr = h + r * dh;
    Index j = 0;
    for (; j + 8 <= dh; j += 8) {
      cell8(row + j, row + dh + j, row + 2 * dh + j, row + 3 * dh + j, cr + j,
            cr + j, hr + j, p, scale, c_lim_d, c_lim_i, c_clip_d, c_half);
    }
    if (j < dh) {
      const std::size_t t = static_cast<std::size_t>(dh - j);
      std::int32_t g[4][8] = {};
      float c_tail[8] = {};
      float h_tail[8] = {};
      for (int gate = 0; gate < 4; ++gate) {
        std::memcpy(g[gate], row + gate * dh + j, t * sizeof(std::int32_t));
      }
      std::memcpy(c_tail, cr + j, t * sizeof(float));
      cell8(g[0], g[1], g[2], g[3], c_tail, c_tail, h_tail, p, scale, c_lim_d,
            c_lim_i, c_clip_d, c_half);
      std::memcpy(cr + j, c_tail, t * sizeof(float));
      std::memcpy(hr + j, h_tail, t * sizeof(float));
    }
  }
}

}  // namespace

const KernelBackend kAvx2Backend = {
    "avx2",
    "AVX2+FMA intrinsics; needs cpuid avx2+fma and an FMA-contracted base "
    "build (-march=native or -mfma)",
    avx2_available,
    gemm_rows_avx2,
    gemm_a_bt_rows_avx2,
    gemv_avx2,
    sparse_accum_rows_avx2,
    sparse_accum_rows_multi_avx2,
    sparse_accum_rows_multi_overwrite_avx2,
    axpy_avx2,
    gemm_a_bt_i8_avx2,
    sparse_accum_rows_i8_avx2,
    sparse_accum_rows_multi_i8_avx2,
    sigmoid_avx2,
    tanh_avx2,
    lstm_cell_update_i8_avx2,
};

}  // namespace zss::num::simd

#else  // not an x86 AVX2+FMA build: keep the registry entry as a stub

namespace zss::num::simd {

namespace {
bool never_available() { return false; }
}  // namespace

const KernelBackend kAvx2Backend = {
    "avx2",
    "AVX2+FMA intrinsics; not compiled into this binary (x86 with "
    "-mavx2 -mfma required)",
    never_available,
    nullptr,
    nullptr,
    nullptr,
    nullptr,
    nullptr,
    nullptr,
    nullptr,
    // int8 slots, stubbed with the rest of the table
    nullptr,
    nullptr,
    nullptr,
};

}  // namespace zss::num::simd

#endif
