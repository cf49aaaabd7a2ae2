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

// One loop per (partial, indexed) case, so neither test runs per row.
template <void Fold(float*, const float*, std::int64_t), bool kPartial, bool kIndexed>
void SlotFoldRows(float* rows, std::int64_t width, const std::int64_t* slots,
                  std::int64_t* counts, const float* payload,
                  std::int64_t stride, const std::int64_t* row_index,
                  std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = payload + (kIndexed ? row_index[i] : i) * stride;
    const std::int64_t s = slots[i];
    counts[s] += kPartial ? static_cast<std::int64_t>(row[width]) : 1;
    Fold(rows + s * width, row, width);
  }
}

template <void Fold(float*, const float*, std::int64_t)>
void SlotFoldImpl(float* rows, std::int64_t width, const std::int64_t* slots,
                  std::int64_t* counts, const float* payload,
                  std::int64_t stride, const std::int64_t* row_index,
                  std::int64_t n, bool partial) {
  AccountRowFold(n, width, row_index != nullptr);
  if (row_index == nullptr) {
    (partial ? SlotFoldRows<Fold, true, false>
             : SlotFoldRows<Fold, false, false>)(rows, width, slots, counts,
                                                 payload, stride, row_index, n);
  } else {
    (partial ? SlotFoldRows<Fold, true, true>
             : SlotFoldRows<Fold, false, true>)(rows, width, slots, counts,
                                                payload, stride, row_index, n);
  }
}

template <void Fold(float*, const float*, std::int64_t)>
void PtrRowFoldImpl(float* out, std::int64_t width, const std::int64_t* segs,
                    const float* const* rows, std::int64_t n, std::int64_t s0,
                    std::int64_t s1) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t s = segs[i];
    if (s >= s0 && s < s1) Fold(out + s * width, rows[i], width);
  }
}

}  // namespace

void SlotFoldAddPortable(float* rows, std::int64_t width,
                         const std::int64_t* slots, std::int64_t* counts,
                         const float* payload, std::int64_t stride,
                         const std::int64_t* row_index, std::int64_t n,
                         bool partial) {
  SlotFoldImpl<RowAddPortable>(rows, width, slots, counts, payload, stride,
                               row_index, n, partial);
}
void SlotFoldMaxPortable(float* rows, std::int64_t width,
                         const std::int64_t* slots, std::int64_t* counts,
                         const float* payload, std::int64_t stride,
                         const std::int64_t* row_index, std::int64_t n,
                         bool partial) {
  SlotFoldImpl<RowMaxPortable>(rows, width, slots, counts, payload, stride,
                               row_index, n, partial);
}
void SlotFoldMinPortable(float* rows, std::int64_t width,
                         const std::int64_t* slots, std::int64_t* counts,
                         const float* payload, std::int64_t stride,
                         const std::int64_t* row_index, std::int64_t n,
                         bool partial) {
  SlotFoldImpl<RowMinPortable>(rows, width, slots, counts, payload, stride,
                               row_index, n, partial);
}

void PtrRowFoldAddPortable(float* out, std::int64_t width,
                           const std::int64_t* segs, const float* const* rows,
                           std::int64_t n, std::int64_t s0, std::int64_t s1) {
  PtrRowFoldImpl<RowAddPortable>(out, width, segs, rows, n, s0, s1);
}
void PtrRowFoldMaxPortable(float* out, std::int64_t width,
                           const std::int64_t* segs, const float* const* rows,
                           std::int64_t n, std::int64_t s0, std::int64_t s1) {
  PtrRowFoldImpl<RowMaxPortable>(out, width, segs, rows, n, s0, s1);
}
void PtrRowFoldMinPortable(float* out, std::int64_t width,
                           const std::int64_t* segs, const float* const* rows,
                           std::int64_t n, std::int64_t s0, std::int64_t s1) {
  PtrRowFoldImpl<RowMinPortable>(out, width, segs, rows, n, s0, s1);
}

// Bytes as SegmentFoldWork counts them, plus the row index (or row
// pointer) when the rows are not read in order.
void AccountRowFold(std::int64_t n, std::int64_t width, bool indexed) {
  if (!MetricsEnabled()) return;
  static Counter* const calls =
      GlobalMetrics().GetCounter("kernel.row_fold.calls");
  static Counter* const bytes =
      GlobalMetrics().GetCounter("kernel.row_fold.bytes");
  calls->Increment();
  bytes->Add((indexed ? 2 : 1) * kIndexBytes * n +
             3 * kFloatBytes * n * width);
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

SlotFoldFn SlotFold(FoldOp op) {
  const bool avx2 = Avx2KernelsAvailable();
  switch (op) {
    case FoldOp::kAdd:
      return avx2 ? SlotFoldAddAvx2 : SlotFoldAddPortable;
    case FoldOp::kMax:
      return avx2 ? SlotFoldMaxAvx2 : SlotFoldMaxPortable;
    case FoldOp::kMin:
      return avx2 ? SlotFoldMinAvx2 : SlotFoldMinPortable;
  }
  return avx2 ? SlotFoldAddAvx2 : SlotFoldAddPortable;
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
