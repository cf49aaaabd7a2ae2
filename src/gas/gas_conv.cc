#include "src/gas/gas_conv.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/tensor/ops.h"
#include "src/tensor/segment_ops.h"

namespace inferturbo {

Tensor GasConv::ApplyEdge(const Tensor& messages,
                          const Tensor* edge_features) const {
  (void)edge_features;
  return messages;
}

namespace {

/// The pooled fold behind both entry points: row i (`row_at(i)`, with a
/// trailing count column when `is_partial`) folds into dst_index[i], in
/// ascending i.
template <typename RowAt>
GatherResult FoldPooled(AggKind kind, std::int64_t width, bool is_partial,
                        std::span<const std::int64_t> dst_index,
                        std::int64_t num_nodes, RowAt row_at) {
  GatherResult result;
  result.kind = kind;
  result.pooled = Tensor(num_nodes, width);
  result.counts.assign(static_cast<std::size_t>(num_nodes), 0);

  if (kind == AggKind::kMax || kind == AggKind::kMin) {
    const float init = kind == AggKind::kMax
                           ? -std::numeric_limits<float>::infinity()
                           : std::numeric_limits<float>::infinity();
    result.pooled = Tensor::Full(num_nodes, width, init);
  }

  for (std::size_t i = 0; i < dst_index.size(); ++i) {
    const std::int64_t seg = dst_index[i];
    INFERTURBO_CHECK(0 <= seg && seg < num_nodes)
        << "gather dst index " << seg << " out of [0," << num_nodes << ")";
    const float* row = row_at(static_cast<std::int64_t>(i));
    const std::int64_t count =
        is_partial ? static_cast<std::int64_t>(row[width]) : 1;
    float* acc = result.pooled.RowPtr(seg);
    switch (kind) {
      case AggKind::kSum:
      case AggKind::kMean:
        // Partial mean rows arrive as *running sums* plus a count
        // column (PooledAccumulator keeps sums until Finalize), so the
        // merge is a plain add either way.
        for (std::int64_t j = 0; j < width; ++j) acc[j] += row[j];
        break;
      case AggKind::kMax:
        for (std::int64_t j = 0; j < width; ++j) {
          acc[j] = std::max(acc[j], row[j]);
        }
        break;
      case AggKind::kMin:
        for (std::int64_t j = 0; j < width; ++j) {
          acc[j] = std::min(acc[j], row[j]);
        }
        break;
      case AggKind::kUnion:
        INFERTURBO_CHECK(false) << "unreachable";
    }
    result.counts[static_cast<std::size_t>(seg)] += count;
  }

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
  if (kind == AggKind::kUnion) {
    INFERTURBO_CHECK(!is_partial) << "union aggregates have no partial form";
    GatherResult result;
    result.kind = kind;
    result.messages = messages;
    result.dst_index.assign(dst_index.begin(), dst_index.end());
    result.counts = SegmentCounts(dst_index, num_nodes);
    return result;
  }
  const std::int64_t width =
      is_partial ? messages.cols() - 1 : messages.cols();
  INFERTURBO_CHECK(width >= 0) << "partial batch without a count column";
  return FoldPooled(kind, width, is_partial,
                    dst_index.first(static_cast<std::size_t>(messages.rows())),
                    num_nodes,
                    [&messages](std::int64_t i) { return messages.RowPtr(i); });
}

GatherResult FoldMessageRows(AggKind kind, const Tensor& messages,
                             std::span<const std::int64_t> row_index,
                             std::span<const std::int64_t> dst_index,
                             std::int64_t num_nodes) {
  INFERTURBO_CHECK(kind != AggKind::kUnion)
      << "union aggregates keep their per-edge rows";
  INFERTURBO_CHECK(row_index.size() == dst_index.size())
      << "fold index length mismatch";
  return FoldPooled(kind, messages.cols(), /*is_partial=*/false, dst_index,
                    num_nodes, [&](std::int64_t i) {
                      const std::int64_t r =
                          row_index[static_cast<std::size_t>(i)];
                      INFERTURBO_CHECK(0 <= r && r < messages.rows())
                          << "fold row " << r << " out of range";
                      return messages.RowPtr(r);
                    });
}

}  // namespace inferturbo
