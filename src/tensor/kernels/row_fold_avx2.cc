// AVX2 instantiation of the row-fold primitives. Compiled with -mavx2
// (and, like every fast TU, without -mfma) when the toolchain targets
// x86-64; elsewhere it degrades to forwarding wrappers. Callers must
// gate on Avx2KernelsAvailable().
//
// The max/min bodies use cmp+blend rather than vmaxps/vminps: the
// hardware max/min pick the *second* operand for NaN and treat -0.0 as
// equal to +0.0, which would diverge bitwise from the scalar
// `(acc < row) ? row : acc` select the bit-identity contract pins.
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "src/tensor/kernels/matmul_tiles.h"
#include "src/tensor/kernels/row_fold.h"

namespace inferturbo {
namespace kernels {
namespace detail {

#if defined(__AVX2__)

namespace {

// One fold body each, expressed as a static Apply so the batch loops
// below instantiate with the fold inlined — no per-row indirect call in
// the payload stream.
struct AddFold {
  static inline void Apply(float* __restrict__ acc,
                           const float* __restrict__ row, std::int64_t n) {
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 a = _mm256_loadu_ps(acc + j);
      const __m256 r = _mm256_loadu_ps(row + j);
      _mm256_storeu_ps(acc + j, _mm256_add_ps(a, r));
    }
    for (; j < n; ++j) acc[j] += row[j];
  }
};

struct MaxFold {
  static inline void Apply(float* __restrict__ acc,
                           const float* __restrict__ row, std::int64_t n) {
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 a = _mm256_loadu_ps(acc + j);
      const __m256 r = _mm256_loadu_ps(row + j);
      // Lane select of (acc < row) ? row : acc. OQ: a NaN comparison is
      // false, so NaN rows keep the accumulator, like the scalar fold.
      const __m256 take_row = _mm256_cmp_ps(a, r, _CMP_LT_OQ);
      _mm256_storeu_ps(acc + j, _mm256_blendv_ps(a, r, take_row));
    }
    for (; j < n; ++j) {
      if (acc[j] < row[j]) acc[j] = row[j];
    }
  }
};

struct MinFold {
  static inline void Apply(float* __restrict__ acc,
                           const float* __restrict__ row, std::int64_t n) {
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 a = _mm256_loadu_ps(acc + j);
      const __m256 r = _mm256_loadu_ps(row + j);
      const __m256 take_row = _mm256_cmp_ps(r, a, _CMP_LT_OQ);
      _mm256_storeu_ps(acc + j, _mm256_blendv_ps(a, r, take_row));
    }
    for (; j < n; ++j) {
      if (row[j] < acc[j]) acc[j] = row[j];
    }
  }
};

template <typename Fold>
void PtrRowFoldImpl(float* out, std::int64_t width, std::int64_t out_stride,
                    const std::int64_t* segs, const float* const* rows,
                    std::int64_t n, std::int64_t s0, std::int64_t s1) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (i + kRowFoldPrefetch < n) {
      PrefetchJumpRow(segs, rows, i + kRowFoldPrefetch, width, s0, s1);
    }
    const std::int64_t s = segs[i];
    if (s >= s0 && s < s1) Fold::Apply(out + s * out_stride, rows[i], width);
  }
}

}  // namespace

void RowAddAvx2(float* __restrict__ acc, const float* __restrict__ row,
                std::int64_t n) {
  AddFold::Apply(acc, row, n);
}

void RowMaxAvx2(float* __restrict__ acc, const float* __restrict__ row,
                std::int64_t n) {
  MaxFold::Apply(acc, row, n);
}

void RowMinAvx2(float* __restrict__ acc, const float* __restrict__ row,
                std::int64_t n) {
  MinFold::Apply(acc, row, n);
}

void PtrRowFoldAddAvx2(float* out, std::int64_t width,
                       std::int64_t out_stride, const std::int64_t* segs,
                       const float* const* rows, std::int64_t n,
                       std::int64_t s0, std::int64_t s1) {
  PtrRowFoldImpl<AddFold>(out, width, out_stride, segs, rows, n, s0, s1);
}
void PtrRowFoldMaxAvx2(float* out, std::int64_t width,
                       std::int64_t out_stride, const std::int64_t* segs,
                       const float* const* rows, std::int64_t n,
                       std::int64_t s0, std::int64_t s1) {
  PtrRowFoldImpl<MaxFold>(out, width, out_stride, segs, rows, n, s0, s1);
}
void PtrRowFoldMinAvx2(float* out, std::int64_t width,
                       std::int64_t out_stride, const std::int64_t* segs,
                       const float* const* rows, std::int64_t n,
                       std::int64_t s0, std::int64_t s1) {
  PtrRowFoldImpl<MinFold>(out, width, out_stride, segs, rows, n, s0, s1);
}

#else  // !defined(__AVX2__)

void RowAddAvx2(float* acc, const float* row, std::int64_t n) {
  RowAddPortable(acc, row, n);
}
void RowMaxAvx2(float* acc, const float* row, std::int64_t n) {
  RowMaxPortable(acc, row, n);
}
void RowMinAvx2(float* acc, const float* row, std::int64_t n) {
  RowMinPortable(acc, row, n);
}

void PtrRowFoldAddAvx2(float* out, std::int64_t width,
                       std::int64_t out_stride, const std::int64_t* segs,
                       const float* const* rows, std::int64_t n,
                       std::int64_t s0, std::int64_t s1) {
  PtrRowFoldAddPortable(out, width, out_stride, segs, rows, n, s0, s1);
}
void PtrRowFoldMaxAvx2(float* out, std::int64_t width,
                       std::int64_t out_stride, const std::int64_t* segs,
                       const float* const* rows, std::int64_t n,
                       std::int64_t s0, std::int64_t s1) {
  PtrRowFoldMaxPortable(out, width, out_stride, segs, rows, n, s0, s1);
}
void PtrRowFoldMinAvx2(float* out, std::int64_t width,
                       std::int64_t out_stride, const std::int64_t* segs,
                       const float* const* rows, std::int64_t n,
                       std::int64_t s0, std::int64_t s1) {
  PtrRowFoldMinPortable(out, width, out_stride, segs, rows, n, s0, s1);
}

#endif  // defined(__AVX2__)

}  // namespace detail
}  // namespace kernels
}  // namespace inferturbo
