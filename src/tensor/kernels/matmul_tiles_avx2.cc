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
// several-fold between -O2 and -O3. It is branch-free on real inputs:
// whether to skip zero A entries is decided once per call from the B
// panel (only a NaN or ±Inf there needs the skip), and column tails and
// B narrower than 16 run as masked register tiles, not through memory.
// MatMulTBRows comes from the .inc.
#include <cmath>
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

// One kRows × (8·kVecs) accumulator tile of C = A·B: rows ar[0..kRows)
// of A against the B columns at `b` (row stride ldb: a packed panel, or
// the shared B at stride n), stored at `c` (row stride ldc). With
// kMasked the last vector covers only the lanes set in `tail` — B is
// read and C written through _mm256_maskload_ps/_mm256_maskstore_ps, so
// a column tail or a B narrower than 16 stays in registers, and no
// column outside the tile is read or touched.
//
// Math and order are exactly the scalar reference's: each lane folds
// one output element's products in ascending k, mul and add stay
// separate instructions (this TU cannot emit FMA), and lanes are
// independent columns, so lane math is the scalar math verbatim.
// kSkipZeros compiles in the reference's skip of a zero A entry; it is
// needed only when the panel holds a NaN or ±Inf (see MatMulPanelAvx2),
// and the per-k scalar checks cost several-fold on ReLU'd inputs.
//
// kRows = 6, kVecs = 2 keeps 12 accumulator registers live across the
// whole k loop with two B registers and one broadcast scratch — 15 of
// 16 YMMs, spill-free — and amortizes loop overhead over 24 vector ops
// per k step. The unroll pragmas keep the accumulator arrays in
// registers at -O2 too, which does not fully unroll these loops by
// itself and then ran the tile about 2× slower than -O3.
template <int kRows, int kVecs, bool kMasked, bool kSkipZeros>
inline void MatMulTile(const float* const* ar, const float* b, std::int64_t ldb,
                       float* c, std::int64_t ldc, std::int64_t k,
                       __m256i tail) {
  __m256 acc[kRows][kVecs];
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* bk = b + kk * ldb;
    __m256 bv[kVecs];
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) {
      bv[v] = kMasked && v == kVecs - 1 ? _mm256_maskload_ps(bk + 8 * v, tail)
                                        : _mm256_loadu_ps(bk + 8 * v);
    }
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
      if (kSkipZeros && ar[r][kk] == 0.0f) continue;
      const __m256 x = _mm256_broadcast_ss(ar[r] + kk);
#pragma GCC unroll 2
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(x, bv[v]));
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRows; ++r) {
    float* cr = c + r * ldc;
#pragma GCC unroll 2
    for (int v = 0; v < kVecs; ++v) {
      if (kMasked && v == kVecs - 1) {
        _mm256_maskstore_ps(cr + 8 * v, tail, acc[r][v]);
      } else {
        _mm256_storeu_ps(cr + 8 * v, acc[r][v]);
      }
    }
  }
}

// One block of kRows C rows, all pw panel columns: 16-wide tiles, then
// the `w`-column tail (0 <= w < 16) as one masked or 8-wide tile.
template <int kRows, bool kSkipZeros>
inline void MatMulRowBlock(const float* const* ar, const float* bp,
                           std::int64_t pw, float* c, std::int64_t ldc,
                           std::int64_t k, __m256i tail) {
  const std::int64_t w = pw % 16;
  std::int64_t j = 0;
  for (; j < pw - w; j += 16) {
    MatMulTile<kRows, 2, false, kSkipZeros>(ar, bp + j, pw, c + j, ldc, k,
                                            tail);
  }
  if (w > 8) {
    MatMulTile<kRows, 2, true, kSkipZeros>(ar, bp + j, pw, c + j, ldc, k,
                                           tail);
  } else if (w == 8) {
    MatMulTile<kRows, 1, false, kSkipZeros>(ar, bp + j, pw, c + j, ldc, k,
                                            tail);
  } else if (w > 0) {
    MatMulTile<kRows, 1, true, kSkipZeros>(ar, bp + j, pw, c + j, ldc, k,
                                           tail);
  }
}

// 6-row blocks, then leftover rows one at a time.
template <bool kSkipZeros>
void MatMulPanelBody(const float* a, const float* bp, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t pw, std::int64_t ldc) {
  constexpr std::int64_t kRowTile = 6;
  // Lanes [0, pw % 8) of the tail's last vector.
  const __m256i tail =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(pw % 8)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  std::int64_t i = 0;
  for (; i + kRowTile <= m; i += kRowTile) {
    const float* ar[kRowTile];
    for (std::int64_t r = 0; r < kRowTile; ++r) ar[r] = a + (i + r) * k;
    MatMulRowBlock<kRowTile, kSkipZeros>(ar, bp, pw, c + i * ldc, ldc, k,
                                         tail);
  }
  for (; i < m; ++i) {
    const float* ar[1] = {a + i * k};
    MatMulRowBlock<1, kSkipZeros>(ar, bp, pw, c + i * ldc, ldc, k, tail);
  }
}

// True when none of the `len` floats at `p` is NaN or ±Inf (exponent
// bits all ones).
bool AllFinite(const float* p, std::int64_t len) {
  const __m256i exponent = _mm256_set1_epi32(0x7f800000);
  std::int64_t t = 0;
  for (; t + 8 <= len; t += 8) {
    const __m256i bits = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + t)), exponent);
    const __m256i hit = _mm256_cmpeq_epi32(bits, exponent);
    if (!_mm256_testz_si256(hit, hit)) return false;
  }
  for (; t < len; ++t) {
    if (!std::isfinite(p[t])) return false;
  }
  return true;
}

}  // namespace

// Skip-on-zero is decided once per call, from the panel. Every
// accumulator starts at +0 and x + y is -0 only when both are -0, so no
// accumulator is ever -0; for a finite b, 0·b is ±0 and acc + ±0 == acc
// bit for bit (NaN and ±Inf included). Multiplying a zero A entry and
// skipping it therefore differ only when the B value it meets is NaN or
// ±Inf: an all-finite panel runs the check-free tiles, any other the
// skip tiles, for the whole call.
void MatMulPanelAvx2(const float* a, const float* bp, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t pw, std::int64_t c0,
                     std::int64_t ldc) {
  if (AllFinite(bp, k * pw)) {
    MatMulPanelBody</*kSkipZeros=*/false>(a, bp, c + c0, m, k, pw, ldc);
  } else {
    MatMulPanelBody</*kSkipZeros=*/true>(a, bp, c + c0, m, k, pw, ldc);
  }
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
