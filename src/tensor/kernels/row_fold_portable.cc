#include "src/tensor/kernels/row_fold.h"

#include "src/telemetry/metrics.h"
#include "src/tensor/kernels/kernel_stats.h"
#include "src/tensor/kernels/matmul_tiles.h"

namespace inferturbo {
namespace kernels {
namespace detail {

void RowAddPortable(float* __restrict__ acc, const float* __restrict__ row,
                    std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) acc[j] += row[j];
}

void RowMaxPortable(float* __restrict__ acc, const float* __restrict__ row,
                    std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) {
    if (acc[j] < row[j]) acc[j] = row[j];
  }
}

void RowMinPortable(float* __restrict__ acc, const float* __restrict__ row,
                    std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) {
    if (row[j] < acc[j]) acc[j] = row[j];
  }
}

namespace {

template <void Fold(float*, const float*, std::int64_t)>
void PtrRowFoldImpl(float* out, std::int64_t width, std::int64_t out_stride,
                    const std::int64_t* segs, const float* const* rows,
                    std::int64_t n, std::int64_t s0, std::int64_t s1) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (i + kRowFoldPrefetch < n) {
      PrefetchJumpRow(segs, rows, i + kRowFoldPrefetch, width, s0, s1);
    }
    const std::int64_t s = segs[i];
    if (s >= s0 && s < s1) Fold(out + s * out_stride, rows[i], width);
  }
}

}  // namespace

void PtrRowFoldAddPortable(float* out, std::int64_t width,
                           std::int64_t out_stride, const std::int64_t* segs,
                           const float* const* rows, std::int64_t n,
                           std::int64_t s0, std::int64_t s1) {
  PtrRowFoldImpl<RowAddPortable>(out, width, out_stride, segs, rows, n, s0,
                                 s1);
}
void PtrRowFoldMaxPortable(float* out, std::int64_t width,
                           std::int64_t out_stride, const std::int64_t* segs,
                           const float* const* rows, std::int64_t n,
                           std::int64_t s0, std::int64_t s1) {
  PtrRowFoldImpl<RowMaxPortable>(out, width, out_stride, segs, rows, n, s0,
                                 s1);
}
void PtrRowFoldMinPortable(float* out, std::int64_t width,
                           std::int64_t out_stride, const std::int64_t* segs,
                           const float* const* rows, std::int64_t n,
                           std::int64_t s0, std::int64_t s1) {
  PtrRowFoldImpl<RowMinPortable>(out, width, out_stride, segs, rows, n, s0,
                                 s1);
}

// Bytes as SegmentFoldWork counts them, plus the row pointer: the rows
// are not read in order.
void AccountRowFold(std::int64_t n, std::int64_t width) {
  if (!MetricsEnabled()) return;
  static Counter* const calls =
      GlobalMetrics().GetCounter("kernel.row_fold.calls");
  static Counter* const bytes =
      GlobalMetrics().GetCounter("kernel.row_fold.bytes");
  calls->Increment();
  bytes->Add(2 * kIndexBytes * n + 3 * kFloatBytes * n * width);
}

RowFoldFn RowAdd() {
  static const RowFoldFn fn =
      Avx2KernelsAvailable() ? RowAddAvx2 : RowAddPortable;
  return fn;
}

RowFoldFn RowMax() {
  static const RowFoldFn fn =
      Avx2KernelsAvailable() ? RowMaxAvx2 : RowMaxPortable;
  return fn;
}

RowFoldFn RowMin() {
  static const RowFoldFn fn =
      Avx2KernelsAvailable() ? RowMinAvx2 : RowMinPortable;
  return fn;
}

PtrRowFoldFn PtrRowFold(FoldOp op) {
  const bool avx2 = Avx2KernelsAvailable();
  switch (op) {
    case FoldOp::kAdd:
      return avx2 ? PtrRowFoldAddAvx2 : PtrRowFoldAddPortable;
    case FoldOp::kMax:
      return avx2 ? PtrRowFoldMaxAvx2 : PtrRowFoldMaxPortable;
    case FoldOp::kMin:
      return avx2 ? PtrRowFoldMinAvx2 : PtrRowFoldMinPortable;
  }
  return avx2 ? PtrRowFoldAddAvx2 : PtrRowFoldAddPortable;
}

}  // namespace detail
}  // namespace kernels
}  // namespace inferturbo
