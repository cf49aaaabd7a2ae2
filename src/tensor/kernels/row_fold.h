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

/// Batch-granularity folds. The payload stream of a superstep inbox is
/// the dominant memory traffic of gather/combine; calling a RowFoldFn
/// per message puts an indirect call in that stream's inner loop. These
/// variants take the whole batch so the row fold inlines and the loop
/// runs call-free. Both apply rows strictly in index order — the same
/// order as the per-row fold, so results stay bit-identical.

/// The indexed fold rows[slots[i]] (+)= payload[r], where r = row_index[i]
/// (or i when row_index is null, the contiguous form). For each i in
/// [0, n), in ascending i:
///   counts[slots[i]] += partial ? (int64)payload[r*stride + width] : 1
///   fold(rows + slots[i]*width, payload + r*stride, width)
/// Row indices may repeat and come in any order: a message row that
/// feeds many destinations is read in place, never copied per edge.
/// Slots and row indices must be in range (callers validate them) and
/// `rows` pre-initialized. Each call adds once to kernel.row_fold.calls
/// and kernel.row_fold.bytes.
using SlotFoldFn = void (*)(float* rows, std::int64_t width,
                            const std::int64_t* slots, std::int64_t* counts,
                            const float* payload, std::int64_t stride,
                            const std::int64_t* row_index, std::int64_t n,
                            bool partial);
SlotFoldFn SlotFold(FoldOp op);

/// The kernel.row_fold accounting behind every SlotFold call and every
/// pooled receive: n rows of `width` floats, plus a second index per
/// row when the rows are not read in order.
void AccountRowFold(std::int64_t n, std::int64_t width, bool indexed);

/// The pointer-row fold behind every pooled receive: for each i in
/// [0, n), in ascending i, whose segment s = segs[i] lies in [s0, s1):
///   fold(out + s*width, rows[i], width)
/// Rows outside the range only cost the segment load — the filtered
/// scan ParallelForRanges tasks use to keep destination ownership.
/// Segments must be in range (callers validate them).
using PtrRowFoldFn = void (*)(float* out, std::int64_t width,
                              const std::int64_t* segs,
                              const float* const* rows, std::int64_t n,
                              std::int64_t s0, std::int64_t s1);
PtrRowFoldFn PtrRowFold(FoldOp op);

void SlotFoldAddPortable(float* rows, std::int64_t width,
                         const std::int64_t* slots, std::int64_t* counts,
                         const float* payload, std::int64_t stride,
                         const std::int64_t* row_index, std::int64_t n,
                         bool partial);
void SlotFoldMaxPortable(float* rows, std::int64_t width,
                         const std::int64_t* slots, std::int64_t* counts,
                         const float* payload, std::int64_t stride,
                         const std::int64_t* row_index, std::int64_t n,
                         bool partial);
void SlotFoldMinPortable(float* rows, std::int64_t width,
                         const std::int64_t* slots, std::int64_t* counts,
                         const float* payload, std::int64_t stride,
                         const std::int64_t* row_index, std::int64_t n,
                         bool partial);
void SlotFoldAddAvx2(float* rows, std::int64_t width,
                     const std::int64_t* slots, std::int64_t* counts,
                     const float* payload, std::int64_t stride,
                     const std::int64_t* row_index, std::int64_t n,
                     bool partial);
void SlotFoldMaxAvx2(float* rows, std::int64_t width,
                     const std::int64_t* slots, std::int64_t* counts,
                     const float* payload, std::int64_t stride,
                     const std::int64_t* row_index, std::int64_t n,
                     bool partial);
void SlotFoldMinAvx2(float* rows, std::int64_t width,
                     const std::int64_t* slots, std::int64_t* counts,
                     const float* payload, std::int64_t stride,
                     const std::int64_t* row_index, std::int64_t n,
                     bool partial);

void PtrRowFoldAddPortable(float* out, std::int64_t width,
                           const std::int64_t* segs, const float* const* rows,
                           std::int64_t n, std::int64_t s0, std::int64_t s1);
void PtrRowFoldMaxPortable(float* out, std::int64_t width,
                           const std::int64_t* segs, const float* const* rows,
                           std::int64_t n, std::int64_t s0, std::int64_t s1);
void PtrRowFoldMinPortable(float* out, std::int64_t width,
                           const std::int64_t* segs, const float* const* rows,
                           std::int64_t n, std::int64_t s0, std::int64_t s1);
void PtrRowFoldAddAvx2(float* out, std::int64_t width,
                       const std::int64_t* segs, const float* const* rows,
                       std::int64_t n, std::int64_t s0, std::int64_t s1);
void PtrRowFoldMaxAvx2(float* out, std::int64_t width,
                       const std::int64_t* segs, const float* const* rows,
                       std::int64_t n, std::int64_t s0, std::int64_t s1);
void PtrRowFoldMinAvx2(float* out, std::int64_t width,
                       const std::int64_t* segs, const float* const* rows,
                       std::int64_t n, std::int64_t s0, std::int64_t s1);

}  // namespace detail
}  // namespace kernels
}  // namespace inferturbo

#endif  // INFERTURBO_TENSOR_KERNELS_ROW_FOLD_H_
