// Dense float kernels shared by training, inference and reference checks.
//
// The library never links an external BLAS: the paper's workloads are
// small enough (d_h <= 1000) that in-repo loops reach the throughput a
// laptop-scale reproduction needs, and keeping the loops in repo makes
// the quantized / sparse variants directly comparable. See
// reference_kernels.h for the unblocked loops the tests and
// microbenchmarks compare against.
//
// The hot kernels (gemm, gemm_a_bt, gemv, sparse_accum_rows,
// sparse_accum_rows_multi, axpy) dispatch to a SIMD backend selected
// once at startup via cpuid —
// explicit AVX2 intrinsics on x86, NEON on aarch64, the portable
// blocked loops otherwise; override with ZSS_KERNEL_BACKEND. See
// num/simd/backend.h and docs/architecture.md.
//
// Determinism contract (docs/exactness.md): every multiply-accumulate
// goes through madd() below (or the backend's lane-exact equivalent),
// and neither blocking nor vectorization reorders the additions that
// feed one output element (they only interleave independent accumulator
// chains). The sparse skip path and the dense path therefore produce
// bit-identical results — skipped terms are exact IEEE identities,
// madd(0, w, acc) == acc — which is the contract sparse_inference.h
// documents.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "num/matrix.h"
#include "num/types.h"

namespace zss::num {

/// The one multiply-accumulate used by every kernel (blocked and
/// reference). On targets with hardware FMA this is a single fused op;
/// routing all kernels through it keeps the rounding of the sparse and
/// dense paths identical regardless of how the compiler would otherwise
/// contract each loop.
inline float madd(float a, float b, float acc) {
#ifdef FP_FAST_FMAF
  return std::fmaf(a, b, acc);
#else
  return a * b + acc;
#endif
}

/// Whether madd() fuses in the base (non-SIMD) translation units of this
/// build. SIMD backends whose FMA flavour would differ refuse to
/// activate, because mixing fused and unfused chains breaks the 0-ULP
/// contract (the asymmetry bug PR 1 fixed — docs/exactness.md).
bool madd_is_fused();

/// The one int8 multiply-accumulate (docs/exactness.md "int8"): the
/// exact i32 product of a and b added to acc modulo 2^32 — i.e. plain
/// two's-complement wraparound, exactly what SIMD paddd/vaddq_s32 do.
/// The detour through uint32 keeps the wrap defined behaviour in C++
/// (a plain signed += would be UB on overflow, and the sanitize CI job
/// would rightly flag it). Because wrapping addition is associative and
/// commutative, any regrouping of these ops is bit-identical — the int8
/// kernels' whole exactness story.
inline std::int32_t madd_i8(std::int8_t a, std::int8_t b, std::int32_t acc) {
  const std::int32_t p =
      static_cast<std::int32_t>(a) * static_cast<std::int32_t>(b);
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(acc) +
                                   static_cast<std::uint32_t>(p));
}

/// i32 wraparound add (same defined-overflow story as madd_i8); used
/// wherever two i32 partial accumulations are combined.
inline std::int32_t add_i32(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}

/// y = W * x. W is (m x n) row-major, x has n elements, y has m.
void gemv(const Matrix& w, std::span<const float> x, std::span<float> y);

/// y += W[:, col] * scale — one column accumulation, the building block of
/// the input-stationary dataflow the accelerator uses (Fig. 5): each
/// non-zero input element broadcasts down one weight column. Strided and
/// cache-hostile for row-major W; software inference uses
/// sparse_accum_rows over a packed (transposed) layout instead.
void axpy_col(const Matrix& w, Index col, float scale, std::span<float> y);

/// out.row(b) += values[e * B + b] * packed.row(positions[e]) for every
/// kept position e and batch lane b (B = out.rows()). `packed` is the
/// transposed weight layout of PackedLstmWeights: row j holds all gate
/// weights of state position j contiguously, so each kept position is one
/// streaming pass that is reused by every batch lane while it sits in
/// cache. Lanes whose value is exactly zero are skipped (IEEE identity).
void sparse_accum_rows(const Matrix& packed, std::span<const Index> positions,
                       std::span<const float> values, Matrix& out);

/// Per-lane (CSR) variant of sparse_accum_rows: for each batch lane b,
/// out.row(b) += values[e] * packed.row(positions[e]) over lane b's own
/// kept entries e in [row_start[b], row_start[b+1]), ascending. Unlike
/// the intersected form, every lane accumulates exactly its own kept
/// positions, so the skipped work scales with per-lane sparsity at any
/// batch size (this is the batched skip path of SparseLstmEngine).
/// `row_start` has out.rows() + 1 entries; positions within a lane must
/// be strictly ascending — the exactness contract defines a lane's
/// chain in position order, and backends schedule around it (checked).
void sparse_accum_rows_multi(const Matrix& packed,
                             std::span<const Index> positions,
                             std::span<const Index> row_start,
                             std::span<const float> values, Matrix& out);

/// Overwrite flavour of sparse_accum_rows_multi: out.row(b) *is* the
/// lane's accumulation — out is treated as uninitialized, every element
/// is written (lanes with no entries get zeros). Bit-identical to
/// zero-filling out and calling sparse_accum_rows_multi (each chain
/// starts from madd(v0, row0[j], +0.0f), the same first op the
/// accumulate flavour performs over a zero fill), so callers on the
/// per-step batched path can skip the staging matrix's zero fill
/// entirely (256 KB per step at batch 8, dh 1000 — core/
/// sparse_inference.cc).
void sparse_accum_rows_multi_overwrite(const Matrix& packed,
                                       std::span<const Index> positions,
                                       std::span<const Index> row_start,
                                       std::span<const float> values,
                                       Matrix& out);

/// C = A * B (row-major, i-k-j order, rows split by parallel_for).
/// Exact zeros in A are skipped — one-hot inputs and pruned states cost
/// only their non-zero rows of work, and the skip is an IEEE identity.
void gemm(const Matrix& a, const Matrix& b, Matrix& c);

/// C += A^T * B. A is (m x k), B is (m x n), C is (k x n). This is the
/// weight-gradient shape in BPTT (dW = x^T * dGates).
void gemm_at_b_accum(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A * B^T. A is (m x k), B is (n x k), C is (m x n). This is the
/// input-gradient shape in BPTT (dx = dGates * W^T is expressed as
/// gemm_a_bt with W stored (4dh x dx)) and the dense-baseline recurrent
/// matvec shape. Register-blocked 2x4 so eight independent FMA chains
/// hide latency; each output element still accumulates in ascending k.
void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& c);

// --- int8 kernels (i32 accumulation) ---------------------------------
// Quantized twins of the three hot inference kernels, dispatched
// through the same backend registry (slots added per-backend; a backend
// without them falls back to the scalar table per call). Contract:
// bit-identical to num::reference's int8 twins on every backend — see
// madd_i8 above for why any summation order qualifies.

/// C (i32) = A * B^T for int8 A (m x k) and B (n x k); C is resized to
/// (m x n) and every element overwritten.
void gemm_a_bt_i8(const MatrixI8& a, const MatrixI8& b, MatrixI32& c);

/// Int8 twin of sparse_accum_rows (position-major values, zero lanes
/// skipped — an exact identity in integer arithmetic too).
void sparse_accum_rows_i8(const MatrixI8& packed,
                          std::span<const Index> positions,
                          std::span<const std::int8_t> values, MatrixI32& out);

/// Int8 twin of sparse_accum_rows_multi (per-lane CSR; accumulate
/// flavour only — the engine accumulates into its bias-initialized
/// i32 pre-activations).
void sparse_accum_rows_multi_i8(const MatrixI8& packed,
                                std::span<const Index> positions,
                                std::span<const Index> row_start,
                                std::span<const std::int8_t> values,
                                MatrixI32& out);

/// Largest cell clip the int8 cell update is defined for: f * cq, with
/// f <= 127 and |cq| <= 127 * c_clip, must fit an i32, so
/// c_clip <= floor((2^31 - 1) / 127^2). The model loader and the engine
/// refuse anything larger.
inline constexpr std::int32_t kMaxCellClip = 133144;

/// The fixed parameters of the int8 LSTM cell update (the engine's
/// quantized step, core/sparse_inference.cc). Each LUT points at the
/// middle of 256 i32 entries, so lut[q] is the activation code of the
/// int8 input q for every q in [-128, 127].
struct QuantCellParams {
  const std::int32_t* sigmoid = nullptr;   // f/i/o gates
  const std::int32_t* tanh_pre = nullptr;  // g gate
  const std::int32_t* tanh_c = nullptr;    // cell output
  /// i32 pre-activation -> LUT input code: nearbyint(v * acc_to_pre),
  /// clamped to [-127, 127].
  double acc_to_pre = 0.0;
  /// Cell clip: c lives on the 1/127 grid in [-c_clip, c_clip];
  /// 1 <= c_clip <= kMaxCellClip.
  std::int32_t c_clip = 1;
};

/// The integer cell update of the int8 datapath, per element of
/// pre (B x 4dh, gate blocks f|i|o|g), c and h (B x dh):
///   f, i, o = sigmoid[rq(pre_f)], ...; g = tanh_pre[rq(pre_g)]
///   cq = clamp(rdiv(f * cq_prev, 127) + rdiv(i * g, 127), +-127 c_clip)
///   h  = rdiv(o * tanh_c[rdiv(cq, c_clip)], 127)
/// where cq_prev is c rounded onto the grid (NaN -> 0, clamped to
/// +-127 c_clip first) and rdiv is the sign-symmetric round-half-away
/// divide. c and h are written back as float(q) / 127 (q * kStateScale).
/// Dispatched through the active backend's lstm_cell_update_i8 slot,
/// falling back to the scalar twin per call; bit-identical on every
/// backend (docs/exactness.md "int8").
void lstm_cell_update_i8(const MatrixI32& pre, const QuantCellParams& p,
                         Matrix& c, Matrix& h);

/// out = in^T. in is (m x n), out becomes (n x m).
void transpose(const Matrix& in, Matrix& out);

/// Dot product.
float dot(std::span<const float> a, std::span<const float> b);

/// y += alpha * x.
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// y += b for every row of the (rows x cols) matrix view y.
void add_bias_rows(Matrix& y, std::span<const float> b);

/// Sum of squares of all elements.
float squared_norm(std::span<const float> x);

/// Scales x in place by alpha.
void scale(std::span<float> x, float alpha);

}  // namespace zss::num
