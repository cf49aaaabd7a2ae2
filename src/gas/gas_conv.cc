#include "src/gas/gas_conv.h"

#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/tensor/kernels/kernels.h"
#include "src/tensor/kernels/row_fold.h"
#include "src/tensor/ops.h"

namespace inferturbo {

Tensor GasConv::ApplyEdge(const Tensor& messages,
                          const Tensor* edge_features) const {
  (void)edge_features;
  return messages;
}

GatherResult GatherPooledRows(AggKind kind, std::int64_t width,
                              std::int64_t num_nodes,
                              std::span<const std::int64_t> segs,
                              std::span<const float* const> rows,
                              std::span<const std::int64_t> counts) {
  INFERTURBO_CHECK(kind != AggKind::kUnion)
      << "union aggregates keep their per-edge rows";
  GatherResult result;
  result.kind = kind;
  result.pooled = kind == AggKind::kMax || kind == AggKind::kMin
                      ? Tensor::Full(num_nodes, width, PooledInitValue(kind))
                      : Tensor(num_nodes, width);
  kernels::detail::AccountRowFold(static_cast<std::int64_t>(segs.size()),
                                  width);
  kernels::PooledSegmentFold(PooledFoldOp(kind), kind == AggKind::kMean,
                             result.pooled.data(), width, num_nodes, segs,
                             rows, counts, &result.counts);
  return result;
}

namespace {

// Pointers to each of messages' rows, in order.
std::vector<const float*> RowPointers(const Tensor& messages) {
  std::vector<const float*> rows(static_cast<std::size_t>(messages.rows()));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = messages.RowPtr(static_cast<std::int64_t>(i));
  }
  return rows;
}

}  // namespace

GatherResult GatherUnionRows(std::int64_t num_nodes,
                             std::vector<std::int64_t> segs,
                             std::vector<const float*> rows) {
  INFERTURBO_CHECK(rows.size() == segs.size())
      << "union gather has " << segs.size() << " segments for "
      << rows.size() << " rows";
  GatherResult result;
  result.kind = AggKind::kUnion;
  result.counts.assign(static_cast<std::size_t>(num_nodes), 0);
  for (const std::int64_t s : segs) {
    INFERTURBO_CHECK(0 <= s && s < num_nodes)
        << "gather dst index " << s << " out of [0," << num_nodes << ")";
    ++result.counts[static_cast<std::size_t>(s)];
  }
  result.rows = std::move(rows);
  result.dst_index = std::move(segs);
  return result;
}

GatherResult GatherIntoResult(AggKind kind, const Tensor& messages,
                              std::span<const std::int64_t> dst_index,
                              std::int64_t num_nodes) {
  INFERTURBO_CHECK(static_cast<std::int64_t>(dst_index.size()) ==
                   messages.rows())
      << "gather has " << dst_index.size() << " dst indices for "
      << messages.rows() << " message rows";
  if (kind == AggKind::kUnion) {
    auto storage = std::make_shared<const Tensor>(messages);
    GatherResult result = GatherUnionRows(
        num_nodes, {dst_index.begin(), dst_index.end()}, RowPointers(*storage));
    result.row_storage = std::move(storage);
    return result;
  }
  return GatherPooledRows(kind, messages.cols(), num_nodes, dst_index,
                          RowPointers(messages), {});
}

}  // namespace inferturbo
