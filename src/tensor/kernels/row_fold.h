#ifndef INFERTURBO_TENSOR_KERNELS_ROW_FOLD_H_
#define INFERTURBO_TENSOR_KERNELS_ROW_FOLD_H_

#include <cstdint>

namespace inferturbo {
namespace kernels {
namespace detail {

/// Elementwise row-fold primitives — the inner loop of every segment
/// reduction and pooled combine in the superstep data plane. The same
/// three operations are compiled twice: a portable TU and an AVX2 TU
/// (vector width only; the scalar semantics below are reproduced lane
/// for lane so results stay bit-identical across ISAs).
///
/// Semantics per element j (exactly the retained scalar folds):
///   add: acc[j] += row[j]
///   max: acc[j] = (acc[j] < row[j]) ? row[j] : acc[j]
///   min: acc[j] = (row[j] < acc[j]) ? row[j] : acc[j]
/// The max/min selects match std::max/std::min: a NaN row entry never
/// replaces the accumulator, and +-0.0 keeps the accumulator's sign.
/// (A plain vmaxps/vminps would violate both — the AVX2 TU uses
/// cmp+blend instead.)
///
/// `acc` and `row` must not alias.

using RowFoldFn = void (*)(float* acc, const float* row, std::int64_t n);

void RowAddPortable(float* acc, const float* row, std::int64_t n);
void RowMaxPortable(float* acc, const float* row, std::int64_t n);
void RowMinPortable(float* acc, const float* row, std::int64_t n);

void RowAddAvx2(float* acc, const float* row, std::int64_t n);
void RowMaxAvx2(float* acc, const float* row, std::int64_t n);
void RowMinAvx2(float* acc, const float* row, std::int64_t n);

/// Dispatched once per process (same availability check as the matmul
/// tiles: compiled-in AND supported by the running CPU).
RowFoldFn RowAdd();
RowFoldFn RowMax();
RowFoldFn RowMin();

/// The fold operation behind an AggKind (mean folds as add; the divide
/// is a finalize step).
enum class FoldOp { kAdd, kMax, kMin };

/// How far ahead PtrRowFold prefetches: rows[i + kRowFoldPrefetch] is
/// fetched while rows[i] folds.
inline constexpr std::int64_t kRowFoldPrefetch = 8;

/// Prefetches every 64-byte line of rows[a] (a >= 1) when its segment
/// is in [s0, s1) and it jumps away from rows[a - 1]: a repeated or
/// next row continues a stream the hardware prefetcher already follows,
/// and prefetching it measured slower.
inline void PrefetchJumpRow(const std::int64_t* segs, const float* const* rows,
                            std::int64_t a, std::int64_t width,
                            std::int64_t s0, std::int64_t s1) {
  // Unsigned: a row before rows[a - 1] wraps to a large step.
  const std::uintptr_t step = reinterpret_cast<std::uintptr_t>(rows[a]) -
                              reinterpret_cast<std::uintptr_t>(rows[a - 1]);
  if (segs[a] >= s0 && segs[a] < s1 &&
      step > static_cast<std::uintptr_t>(width) * sizeof(float)) {
    for (std::int64_t j = 0; j < width; j += 16) {
      __builtin_prefetch(rows[a] + j);
    }
  }
}

/// The batch-granularity fold behind every pooled combine and pooled
/// receive. The payload stream is the dominant memory traffic of
/// gather/combine; calling a RowFoldFn per message puts an indirect
/// call in that stream's inner loop, so this variant takes the whole
/// batch and the row fold inlines. For each i in [0, n), in ascending
/// i, whose segment s = segs[i] lies in [s0, s1):
///   fold(out + s*out_stride, rows[i], width)
/// Rows apply strictly in index order — the per-row fold's order, so
/// results stay bit-identical. Row pointers may repeat and come in any
/// order: a message row that feeds many destinations is read in place,
/// never copied per edge. `out_stride` >= `width` lets a combine fold
/// straight into a wire payload whose rows carry a trailing count
/// column. Rows outside [s0, s1) only cost the segment load — the
/// filtered scan parallel tasks use to keep destination ownership.
/// Segments must be in range (callers validate them) and `out`
/// pre-initialized. Rows that jump are prefetched kRowFoldPrefetch
/// rows ahead (PrefetchJumpRow).
using PtrRowFoldFn = void (*)(float* out, std::int64_t width,
                              std::int64_t out_stride,
                              const std::int64_t* segs,
                              const float* const* rows, std::int64_t n,
                              std::int64_t s0, std::int64_t s1);
PtrRowFoldFn PtrRowFold(FoldOp op);

/// The kernel.row_fold accounting behind every PtrRowFold caller: n
/// rows of `width` floats read through a segment index and a row
/// pointer each.
void AccountRowFold(std::int64_t n, std::int64_t width);

void PtrRowFoldAddPortable(float* out, std::int64_t width,
                           std::int64_t out_stride, const std::int64_t* segs,
                           const float* const* rows, std::int64_t n,
                           std::int64_t s0, std::int64_t s1);
void PtrRowFoldMaxPortable(float* out, std::int64_t width,
                           std::int64_t out_stride, const std::int64_t* segs,
                           const float* const* rows, std::int64_t n,
                           std::int64_t s0, std::int64_t s1);
void PtrRowFoldMinPortable(float* out, std::int64_t width,
                           std::int64_t out_stride, const std::int64_t* segs,
                           const float* const* rows, std::int64_t n,
                           std::int64_t s0, std::int64_t s1);
void PtrRowFoldAddAvx2(float* out, std::int64_t width,
                       std::int64_t out_stride, const std::int64_t* segs,
                       const float* const* rows, std::int64_t n,
                       std::int64_t s0, std::int64_t s1);
void PtrRowFoldMaxAvx2(float* out, std::int64_t width,
                       std::int64_t out_stride, const std::int64_t* segs,
                       const float* const* rows, std::int64_t n,
                       std::int64_t s0, std::int64_t s1);
void PtrRowFoldMinAvx2(float* out, std::int64_t width,
                       std::int64_t out_stride, const std::int64_t* segs,
                       const float* const* rows, std::int64_t n,
                       std::int64_t s0, std::int64_t s1);

}  // namespace detail
}  // namespace kernels
}  // namespace inferturbo

#endif  // INFERTURBO_TENSOR_KERNELS_ROW_FOLD_H_
