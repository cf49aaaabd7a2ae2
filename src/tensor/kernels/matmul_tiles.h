#ifndef INFERTURBO_TENSOR_KERNELS_MATMUL_TILES_H_
#define INFERTURBO_TENSOR_KERNELS_MATMUL_TILES_H_

#include <cstdint>

namespace inferturbo {
namespace kernels {
namespace detail {

/// Register-tiled matmul kernels. Each deterministic kernel is compiled
/// twice: a portable baseline TU (matmul_tiles.inc) and an AVX2 TU
/// (vector width only — FMA stays off in both so every product and sum
/// rounds exactly like the scalar reference, keeping results
/// bit-identical across ISAs). Callers pick an implementation once via
/// Avx2KernelsAvailable().
///
/// All pointers are dense row-major and must not alias.

/// Rows [r0, r1) of C(m×n) = A(m×k) · B(n×k)^T. Each call owns output
/// rows [r0, r1) exclusively, so row-partitioned calls run
/// concurrently.
void MatMulTBRowsPortable(const float* a, const float* b, float* c,
                          std::int64_t r0, std::int64_t r1, std::int64_t k,
                          std::int64_t n);
void MatMulTBRowsAvx2(const float* a, const float* b, float* c,
                      std::int64_t r0, std::int64_t r1, std::int64_t k,
                      std::int64_t n);

/// The one deterministic C = A·B body: columns [c0, c0 + pw) of
/// C(m×ldc) from all m rows of A(m×k) and a k×pw B panel `bp` (row
/// stride pw). `bp` is either a packed panel (the pw columns made dense
/// so a parallel task's B working set is contiguous per-thread scratch)
/// or, with pw == ldc == n and c0 == 0, all of B unpacked; a row window
/// of C is a call on A and C offset by its first row. Each output
/// element is one ascending-k chain, mul and add separate —
/// bit-identical to the scalar reference, which skips zero A entries.
/// Since accumulators start at +0 and so never become -0, multiplying a
/// zero A entry instead changes a byte only when the B value it meets is
/// NaN or ±Inf; each call scans its panel once and skips zeros only when
/// the panel holds such a value. Calls that own disjoint rows or columns
/// of C run concurrently. C must be (+0) zero on entry.
void MatMulPanelPortable(const float* a, const float* bp, float* c,
                         std::int64_t m, std::int64_t k, std::int64_t pw,
                         std::int64_t c0, std::int64_t ldc);
void MatMulPanelAvx2(const float* a, const float* bp, float* c,
                     std::int64_t m, std::int64_t k, std::int64_t pw,
                     std::int64_t c0, std::int64_t ldc);

/// True when the AVX2 TU was built with AVX2 *and* the CPU supports it.
bool Avx2KernelsAvailable();

/// The opt-in fast-math tier (matmul_fastmath.cc, compiled with
/// -mavx2 -mfma): FMA contraction, no skip-on-zero, same panel shape.
/// NOT bit-identical to the reference — validated against it at the
/// documented tolerance (kFastMathRelTol in kernels.h). Dispatched only
/// when KernelConfig.fast_math is set and FastMathKernelsAvailable() is
/// true.
void MatMulPanelFma(const float* a, const float* bp, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t pw, std::int64_t c0,
                    std::int64_t ldc);

/// True when the fast-math TU was built with AVX2+FMA and the CPU has
/// both.
bool FastMathKernelsAvailable();

}  // namespace detail
}  // namespace kernels
}  // namespace inferturbo

#endif  // INFERTURBO_TENSOR_KERNELS_MATMUL_TILES_H_
