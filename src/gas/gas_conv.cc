#include "src/gas/gas_conv.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/tensor/kernels/row_fold.h"
#include "src/tensor/ops.h"
#include "src/tensor/segment_ops.h"

namespace inferturbo {

Tensor GasConv::ApplyEdge(const Tensor& messages,
                          const Tensor* edge_features) const {
  (void)edge_features;
  return messages;
}

namespace {

/// The pooled fold behind both entry points: row r = row_index[i] (i
/// when row_index is null) of `messages`, with a trailing count column
/// when `is_partial`, folds into dst_index[i] in ascending i. Init, one
/// validation pass, one indexed fold kernel call, finalize.
GatherResult FoldPooled(AggKind kind, const Tensor& messages, bool is_partial,
                        const std::int64_t* row_index,
                        std::span<const std::int64_t> dst_index,
                        std::int64_t num_nodes) {
  const std::int64_t width =
      is_partial ? messages.cols() - 1 : messages.cols();
  INFERTURBO_CHECK(width >= 0) << "partial batch without a count column";
  for (std::size_t i = 0; i < dst_index.size(); ++i) {
    const std::int64_t seg = dst_index[i];
    INFERTURBO_CHECK(0 <= seg && seg < num_nodes)
        << "gather dst index " << seg << " out of [0," << num_nodes << ")";
    if (row_index != nullptr) {
      INFERTURBO_CHECK(0 <= row_index[i] && row_index[i] < messages.rows())
          << "fold row " << row_index[i] << " out of range";
    }
  }

  GatherResult result;
  result.kind = kind;
  result.counts.assign(static_cast<std::size_t>(num_nodes), 0);
  kernels::detail::FoldOp op = kernels::detail::FoldOp::kAdd;
  if (kind == AggKind::kMax || kind == AggKind::kMin) {
    op = kind == AggKind::kMax ? kernels::detail::FoldOp::kMax
                               : kernels::detail::FoldOp::kMin;
    const float init = kind == AggKind::kMax
                           ? -std::numeric_limits<float>::infinity()
                           : std::numeric_limits<float>::infinity();
    result.pooled = Tensor::Full(num_nodes, width, init);
  } else {
    // Partial mean rows arrive as *running sums* plus a count column
    // (PooledAccumulator keeps sums until Finalize), so the merge is a
    // plain add either way.
    result.pooled = Tensor(num_nodes, width);
  }
  kernels::detail::SlotFold(op)(
      result.pooled.data(), width, dst_index.data(), result.counts.data(),
      messages.data(), messages.cols(), row_index,
      static_cast<std::int64_t>(dst_index.size()), is_partial);

  // Finalize: divide mean by total count; clear untouched extremum rows
  // to the neutral zero the layers expect for isolated nodes.
  for (std::int64_t v = 0; v < num_nodes; ++v) {
    float* acc = result.pooled.RowPtr(v);
    const std::int64_t count = result.counts[static_cast<std::size_t>(v)];
    if (count == 0) {
      std::fill(acc, acc + width, 0.0f);
    } else if (kind == AggKind::kMean) {
      const float inv = 1.0f / static_cast<float>(count);
      for (std::int64_t j = 0; j < width; ++j) acc[j] *= inv;
    }
  }
  return result;
}

}  // namespace

GatherResult GatherIntoResult(AggKind kind, const Tensor& messages,
                              std::span<const std::int64_t> dst_index,
                              std::int64_t num_nodes, bool is_partial) {
  INFERTURBO_CHECK(static_cast<std::int64_t>(dst_index.size()) ==
                   messages.rows())
      << "gather has " << dst_index.size() << " dst indices for "
      << messages.rows() << " message rows";
  if (kind == AggKind::kUnion) {
    INFERTURBO_CHECK(!is_partial) << "union aggregates have no partial form";
    GatherResult result;
    result.kind = kind;
    result.messages = messages;
    result.dst_index.assign(dst_index.begin(), dst_index.end());
    result.counts = SegmentCounts(dst_index, num_nodes);
    return result;
  }
  return FoldPooled(kind, messages, is_partial, /*row_index=*/nullptr,
                    dst_index, num_nodes);
}

GatherResult FoldMessageRows(AggKind kind, const Tensor& messages,
                             std::span<const std::int64_t> row_index,
                             std::span<const std::int64_t> dst_index,
                             std::int64_t num_nodes) {
  INFERTURBO_CHECK(kind != AggKind::kUnion)
      << "union aggregates keep their per-edge rows";
  INFERTURBO_CHECK(row_index.size() == dst_index.size())
      << "fold index length mismatch";
  return FoldPooled(kind, messages, /*is_partial=*/false, row_index.data(),
                    dst_index, num_nodes);
}

}  // namespace inferturbo
