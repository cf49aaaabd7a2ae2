// AVX2 instantiation of the tiled matmul bodies. This TU is compiled
// with -mavx2 (and deliberately WITHOUT -mfma: contracting mul+add to
// FMA changes rounding and would break the bit-identity contract with
// the scalar reference) when the toolchain targets x86-64; elsewhere
// it degrades to forwarding wrappers. Callers must gate on
// Avx2KernelsAvailable(), which also checks the running CPU.
//
// MatMulPanel, the one deterministic A·B body behind both the row and
// the column cuts of MatMulInto, is hand-written intrinsics rather
// than the generic tile body from matmul_tiles.inc: explicit
// vmulps/vaddps pin both the instruction mix and the register
// allocation, where autovectorizing the float-array tiles swings
// several-fold between -O2 and -O3. MatMulTBRows comes from the .inc.
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "src/tensor/kernels/matmul_tiles.h"

namespace inferturbo {
namespace kernels {
namespace detail {

#if defined(__AVX2__)

#define INFERTURBO_TILE_FN(name) name##Avx2
#define INFERTURBO_TILE_RESTRICT __restrict__
#define INFERTURBO_TILE_SKIP_MATMUL_PANEL
#include "src/tensor/kernels/matmul_tiles.inc"
#undef INFERTURBO_TILE_SKIP_MATMUL_PANEL
#undef INFERTURBO_TILE_FN
#undef INFERTURBO_TILE_RESTRICT

namespace {

// One kRows×16 accumulator tile of C = A·B, columns [j, j+16).
//
// Math and order are exactly the scalar reference's: per output
// element the products fold in ascending k, a zero A entry contributes
// nothing (skip, not 0*b — bitwise different for -0.0 accumulators and
// NaN/Inf operands), and mul/add stay separate instructions (this TU
// cannot emit FMA). The vector lanes are independent j columns, so
// lane math is the scalar math verbatim.
//
// kRows = 6 keeps 12 accumulator registers live across the whole
// k loop with two B registers and one broadcast scratch — 15 of 16
// YMMs, spill-free — and amortizes loop overhead over 24 vector ops
// per k step. `kHasZeros` selects whether the skip-on-zero lane is
// compiled in: the per-k scalar checks cost ~half the throughput, so
// the caller pre-scans the A panel once and runs the check-free
// instantiation when the panel holds no zeros (skipping zero entries
// and not checking are then the same function).
// `b` has row stride ldb (a packed panel, or the shared B at stride
// n), `c` row stride ldc.
template <int kRows, bool kHasZeros>
inline void MatMulTile16(const float* const* ar, const float* b,
                         std::int64_t ldb, float* c, std::int64_t ldc,
                         std::int64_t i, std::int64_t j, std::int64_t k) {
  __m256 acc_lo[kRows], acc_hi[kRows];
  for (int r = 0; r < kRows; ++r) {
    acc_lo[r] = _mm256_setzero_ps();
    acc_hi[r] = _mm256_setzero_ps();
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* bk = b + kk * ldb + j;
    const __m256 b_lo = _mm256_loadu_ps(bk);
    const __m256 b_hi = _mm256_loadu_ps(bk + 8);
    if (kHasZeros) {
      for (int r = 0; r < kRows; ++r) {
        if (ar[r][kk] == 0.0f) continue;
        const __m256 v = _mm256_broadcast_ss(ar[r] + kk);
        acc_lo[r] = _mm256_add_ps(acc_lo[r], _mm256_mul_ps(v, b_lo));
        acc_hi[r] = _mm256_add_ps(acc_hi[r], _mm256_mul_ps(v, b_hi));
      }
      continue;
    }
    for (int r = 0; r < kRows; ++r) {
      const __m256 v = _mm256_broadcast_ss(ar[r] + kk);
      acc_lo[r] = _mm256_add_ps(acc_lo[r], _mm256_mul_ps(v, b_lo));
      acc_hi[r] = _mm256_add_ps(acc_hi[r], _mm256_mul_ps(v, b_hi));
    }
  }
  for (int r = 0; r < kRows; ++r) {
    float* cr = c + (i + r) * ldc + j;
    _mm256_storeu_ps(cr, acc_lo[r]);
    _mm256_storeu_ps(cr + 8, acc_hi[r]);
  }
}

// True when any of the `len` floats at `row` is ±0.0f.
inline bool RowHasZero(const float* row, std::int64_t len) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t kk = 0;
  for (; kk + 8 <= len; kk += 8) {
    const __m256 v = _mm256_loadu_ps(row + kk);
    if (_mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_EQ_OQ)) != 0) {
      return true;
    }
  }
  for (; kk < len; ++kk) {
    if (row[kk] == 0.0f) return true;
  }
  return false;
}

// Scalar reference body over rows [i0, i1) × panel columns [j0, pw),
// reading the panel (stride pw) and writing C (stride ldc) at column
// offset c0: the sub-16-column tail and leftover rows. C is
// zero-initialized and accumulated in place, matching the reference's
// i-k-j loop and skip semantics.
inline void MatMulPanelScalarPatch(const float* a, const float* bp, float* c,
                                   std::int64_t i0, std::int64_t i1,
                                   std::int64_t j0, std::int64_t k,
                                   std::int64_t pw, std::int64_t c0,
                                   std::int64_t ldc) {
  for (std::int64_t i = i0; i < i1; ++i) {
    float* __restrict__ ci = c + i * ldc + c0;
    const float* ai = a + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float v = ai[kk];
      if (v == 0.0f) continue;
      const float* __restrict__ bk = bp + kk * pw;
      for (std::int64_t j = j0; j < pw; ++j) ci[j] += v * bk[j];
    }
  }
}

}  // namespace

void MatMulPanelAvx2(const float* a, const float* bp, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t pw, std::int64_t c0,
                     std::int64_t ldc) {
  constexpr std::int64_t kRowTile = 6;
  constexpr std::int64_t kColTile = 16;
  float* const cb = c + c0;
  std::int64_t i = 0;
  for (; i + kRowTile <= m; i += kRowTile) {
    const float* ar[kRowTile];
    bool has_zeros = false;
    for (std::int64_t r = 0; r < kRowTile; ++r) {
      ar[r] = a + (i + r) * k;
      has_zeros = has_zeros || RowHasZero(ar[r], k);
    }
    std::int64_t j = 0;
    if (has_zeros) {
      for (; j + kColTile <= pw; j += kColTile) {
        MatMulTile16<kRowTile, /*kHasZeros=*/true>(ar, bp, pw, cb, ldc, i, j,
                                                   k);
      }
    } else {
      for (; j + kColTile <= pw; j += kColTile) {
        MatMulTile16<kRowTile, /*kHasZeros=*/false>(ar, bp, pw, cb, ldc, i, j,
                                                    k);
      }
    }
    if (j < pw) MatMulPanelScalarPatch(a, bp, c, i, i + kRowTile, j, k, pw,
                                       c0, ldc);
  }
  if (i < m) MatMulPanelScalarPatch(a, bp, c, i, m, 0, k, pw, c0, ldc);
}

bool Avx2KernelsAvailable() {
#if defined(__GNUC__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

#else  // !defined(__AVX2__)

void MatMulTBRowsAvx2(const float* a, const float* b, float* c,
                      std::int64_t r0, std::int64_t r1, std::int64_t k,
                      std::int64_t n) {
  MatMulTBRowsPortable(a, b, c, r0, r1, k, n);
}

void MatMulPanelAvx2(const float* a, const float* bp, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t pw, std::int64_t c0,
                     std::int64_t ldc) {
  MatMulPanelPortable(a, bp, c, m, k, pw, c0, ldc);
}

bool Avx2KernelsAvailable() { return false; }

#endif  // defined(__AVX2__)

}  // namespace detail
}  // namespace kernels
}  // namespace inferturbo
