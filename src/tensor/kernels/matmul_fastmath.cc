// The opt-in fast-math matmul tier. This TU is the ONLY one compiled
// with -mavx2 -mfma: contracting mul+add to FMA changes rounding, so
// everything here is outside the kernel layer's bit-identity contract
// by design. The trade is explicit and opt-in (KernelConfig.fast_math,
// `--fast_math` at the CLI): fp32 FMA tiles with no skip-on-zero
// prescan. fast_math_test validates them against the pinned scalar
// oracle at the tolerance documented in kernels.h.
//
// On toolchains without AVX2+FMA the tier degrades to the portable
// deterministic panel kernel and FastMathKernelsAvailable() reports
// false, so dispatch never selects it.
#include <cstdint>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "src/tensor/kernels/matmul_tiles.h"

namespace inferturbo {
namespace kernels {
namespace detail {

#if defined(__AVX2__) && defined(__FMA__)

namespace {

// kRows×16 FMA accumulator tile over a packed panel: the fast twin of
// the deterministic MatMulTile16 — fused multiply-add, no zero checks
// (a zero A entry contributes +0.0 instead of being skipped, one of
// the documented deviations from the oracle).
template <int kRows>
inline void FmaTile16(const float* const* ar, const float* bp,
                      std::int64_t pw, float* c, std::int64_t ldc,
                      std::int64_t i, std::int64_t j, std::int64_t k) {
  __m256 acc_lo[kRows], acc_hi[kRows];
  for (int r = 0; r < kRows; ++r) {
    acc_lo[r] = _mm256_setzero_ps();
    acc_hi[r] = _mm256_setzero_ps();
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* bk = bp + kk * pw + j;
    const __m256 b_lo = _mm256_loadu_ps(bk);
    const __m256 b_hi = _mm256_loadu_ps(bk + 8);
    for (int r = 0; r < kRows; ++r) {
      const __m256 v = _mm256_broadcast_ss(ar[r] + kk);
      acc_lo[r] = _mm256_fmadd_ps(v, b_lo, acc_lo[r]);
      acc_hi[r] = _mm256_fmadd_ps(v, b_hi, acc_hi[r]);
    }
  }
  for (int r = 0; r < kRows; ++r) {
    float* cr = c + (i + r) * ldc + j;
    _mm256_storeu_ps(cr, acc_lo[r]);
    _mm256_storeu_ps(cr + 8, acc_hi[r]);
  }
}

// Scalar patch for panel-column tails (< 16 wide) and leftover rows.
// Plain a*b+c — the compiler may contract under -mfma, which is fine
// inside this tier's tolerance.
inline void FmaScalarPatch(const float* a, const float* bp, float* c,
                           std::int64_t i0, std::int64_t i1, std::int64_t j0,
                           std::int64_t k, std::int64_t pw, std::int64_t c0,
                           std::int64_t ldc) {
  for (std::int64_t i = i0; i < i1; ++i) {
    float* __restrict__ ci = c + i * ldc + c0;
    const float* ai = a + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float v = ai[kk];
      const float* bk = bp + kk * pw;
      for (std::int64_t j = j0; j < pw; ++j) ci[j] += v * bk[j];
    }
  }
}

}  // namespace

void MatMulPanelFma(const float* a, const float* bp, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t pw, std::int64_t c0,
                    std::int64_t ldc) {
  constexpr std::int64_t kRowTile = 6;
  constexpr std::int64_t kColTile = 16;
  float* const cb = c + c0;
  std::int64_t i = 0;
  for (; i + kRowTile <= m; i += kRowTile) {
    const float* ar[kRowTile];
    for (std::int64_t r = 0; r < kRowTile; ++r) ar[r] = a + (i + r) * k;
    std::int64_t j = 0;
    for (; j + kColTile <= pw; j += kColTile) {
      FmaTile16<kRowTile>(ar, bp, pw, cb, ldc, i, j, k);
    }
    if (j < pw) {
      FmaScalarPatch(a, bp, c, i, i + kRowTile, j, k, pw, c0, ldc);
    }
  }
  for (; i < m; ++i) {
    const float* ar[1] = {a + i * k};
    std::int64_t j = 0;
    for (; j + kColTile <= pw; j += kColTile) {
      FmaTile16<1>(ar, bp, pw, cb, ldc, i, j, k);
    }
    if (j < pw) FmaScalarPatch(a, bp, c, i, i + 1, j, k, pw, c0, ldc);
  }
}

bool FastMathKernelsAvailable() {
#if defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

#else  // !(defined(__AVX2__) && defined(__FMA__))

void MatMulPanelFma(const float* a, const float* bp, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t pw, std::int64_t c0,
                    std::int64_t ldc) {
  MatMulPanelPortable(a, bp, c, m, k, pw, c0, ldc);
}

bool FastMathKernelsAvailable() { return false; }

#endif  // defined(__AVX2__) && defined(__FMA__)

}  // namespace detail
}  // namespace kernels
}  // namespace inferturbo
