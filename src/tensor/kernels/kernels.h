#ifndef INFERTURBO_TENSOR_KERNELS_KERNELS_H_
#define INFERTURBO_TENSOR_KERNELS_KERNELS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/tensor/kernels/kernel_config.h"
#include "src/tensor/kernels/row_fold.h"
#include "src/tensor/tensor.h"

namespace inferturbo {
namespace kernels {

/// The fast compute-kernel layer: register-tiled, ISA-dispatched
/// matmuls and range-partitioned parallel segment/row ops, scheduled
/// on the StaticExecutor (the thread count never changes results).
/// In the default deterministic
/// tier every kernel is BIT-IDENTICAL to its scalar twin in
/// kernels::reference at any thread count — parallel partitions assign
/// each output element to exactly one task in a fixed order,
/// accumulation order per output element matches the reference
/// (ascending k, skip-on-zero over A), and no FMA contraction is
/// allowed in any instantiation. The crash-sweep and cross-backend
/// equivalence suites rely on this contract; kernels_test enforces it.
///
/// The one exception is the OPT-IN fast-math tier
/// (KernelConfig.fast_math): MatMul and MatMulTransposedA then route
/// to fp32 FMA panel kernels that trade bit-identity for throughput.
/// Fast-math results are validated against the scalar oracle within the
/// tolerance below (fast_math_test); deterministic mode is unaffected.
///
/// Shape agreement is the caller's contract (src/tensor/ops.h checks
/// it); segment ids must already be validated against num_segments.

/// Documented fast-math validation bound, as a multiple of the
/// |A|·|B| absolute-value product per output element (the standard
/// rounding-error envelope — see fast_math_test): fp32-FMA results
/// must satisfy |fast - oracle| <= tol * (|A|·|B|)[i,j] + tiny.
constexpr float kFastMathRelTol = 1e-4f;

Tensor MatMul(const Tensor& a, const Tensor& b);
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);

/// The one multi-task pooled segment fold, behind every sum/mean/max/
/// min gather of both backends and the segment ops below. Folds
/// rows[i] (`width` floats) into out row segs[i] with `op`, in
/// ascending i, then finalizes: with `mean` each row divides by its
/// folded count, and a max/min row that folded nothing reads 0.
/// counts[i] is the number of messages row i already folds (a partial
/// aggregate), empty meaning all 1. `out` holds num_segments rows of
/// `width` floats and is already filled: zero (or a running sum) for
/// add, the +-inf init for max/min. Aborts on a segment outside
/// [0, num_segments). When `folded_counts` is set it receives each
/// segment's folded count; a one-task sum fold without it counts
/// nothing.
///
/// Each task owns whole segments, cut at even shares of the rows, and
/// folds them in ascending row order, so the bytes never depend on the
/// task count. Sorted segments fold as one run of rows per task;
/// otherwise each task scans every row for its own.
void PooledSegmentFold(detail::FoldOp op, bool mean, float* out,
                       std::int64_t width, std::int64_t num_segments,
                       std::span<const std::int64_t> segs,
                       std::span<const float* const> rows,
                       std::span<const std::int64_t> counts = {},
                       std::vector<std::int64_t>* folded_counts = nullptr);

/// Segment ops over PooledSegmentFold.
Tensor SegmentSum(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments);
Tensor SegmentMean(const Tensor& values, std::span<const std::int64_t> ids,
                   std::int64_t num_segments);
/// Per-segment elementwise max/min folded in input order with the
/// scalar `(acc < v) ? v : acc` select (NaN rows never replace the
/// accumulator; +-0.0 keeps the accumulator). Segments that receive no
/// rows report zero, not +-inf — the neutral "no messages" value the
/// gather stage hands isolated nodes.
Tensor SegmentMax(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments);
Tensor SegmentMin(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments);

/// Bounds-checks indices (aborts like the reference on a bad index).
Tensor GatherRows(const Tensor& a, std::span<const std::int64_t> indices);
void ScatterAddRows(Tensor* acc, std::span<const std::int64_t> indices,
                    const Tensor& rows);

/// True when the AVX2 instantiation is compiled in and the CPU
/// supports it (informational — results are identical either way).
bool UsingAvx2();

/// True when the fast-math tier would actually engage: the config
/// opts in AND the FMA instantiation is compiled in and supported.
bool UsingFastMath();

}  // namespace kernels
}  // namespace inferturbo

#endif  // INFERTURBO_TENSOR_KERNELS_KERNELS_H_
