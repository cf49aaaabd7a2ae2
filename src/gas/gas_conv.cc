#include "src/gas/gas_conv.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "src/common/logging.h"
#include "src/tensor/kernels/kernel_config.h"
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
  INFERTURBO_CHECK(rows.size() == segs.size() &&
                   (counts.empty() || counts.size() == segs.size()))
      << "gather has " << segs.size() << " segments for " << rows.size()
      << " rows and " << counts.size() << " counts";
  GatherResult result;
  result.kind = kind;
  result.counts.assign(static_cast<std::size_t>(num_nodes), 0);
  // True folded message count per node: a partial row carries more
  // than one original message, so this is NOT the row count.
  bool sorted = true;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const std::int64_t seg = segs[i];
    INFERTURBO_CHECK(0 <= seg && seg < num_nodes)
        << "gather dst index " << seg << " out of [0," << num_nodes << ")";
    result.counts[static_cast<std::size_t>(seg)] +=
        counts.empty() ? 1 : counts[i];
    sorted = sorted && (i == 0 || segs[i - 1] <= seg);
  }
  const bool extremum = kind == AggKind::kMax || kind == AggKind::kMin;
  result.pooled = extremum
                      ? Tensor::Full(num_nodes, width, PooledInitValue(kind))
                      : Tensor(num_nodes, width);

  const std::int64_t n = static_cast<std::int64_t>(segs.size());
  kernels::detail::AccountRowFold(n, width);
  const kernels::detail::PtrRowFoldFn fold =
      kernels::detail::PtrRowFold(PooledFoldOp(kind));
  float* pooled = result.pooled.data();
  const std::int64_t* folded = result.counts.data();
  // Folds segments [s0, s1) from rows [r0, r1), which hold all of them.
  const auto fold_range = [&](std::int64_t s0, std::int64_t s1,
                              std::int64_t r0, std::int64_t r1) {
    fold(pooled, width, width, segs.data() + r0, rows.data() + r0, r1 - r0,
         s0, s1);
    // Finalize the owned range: isolated extremum rows flip their
    // +-inf init to the neutral zero (sum rows already read zero);
    // mean divides by the count.
    for (std::int64_t v = s0; v < s1; ++v) {
      float* acc = pooled + v * width;
      if (folded[v] == 0) {
        if (extremum) std::fill(acc, acc + width, 0.0f);
      } else if (kind == AggKind::kMean) {
        const float inv = 1.0f / static_cast<float>(folded[v]);
        for (std::int64_t j = 0; j < width; ++j) acc[j] *= inv;
      }
    }
  };
  const int tasks = kernels::PlanParallelTasks(
      num_nodes, std::max<std::int64_t>(
                     width, n * width / std::max<std::int64_t>(1, num_nodes)));
  if (tasks <= 1) {
    fold_range(0, num_nodes, 0, n);
    return result;
  }
  // Each task owns whole segments, cut at even shares of the rows: a
  // hub's rows all fold in one task, in ascending row order. Without
  // partial counts the folded counts are the rows per segment.
  std::vector<std::int64_t> row_prefix(static_cast<std::size_t>(num_nodes) + 1,
                                       0);
  if (counts.empty()) {
    std::partial_sum(result.counts.begin(), result.counts.end(),
                     row_prefix.begin() + 1);
  } else {
    for (const std::int64_t seg : segs) ++row_prefix[seg + 1];
    std::partial_sum(row_prefix.begin(), row_prefix.end(), row_prefix.begin());
  }
  kernels::ParallelForWeightedChunks(
      row_prefix, tasks, [&](const kernels::RangeChunk& chunk) {
        if (chunk.begin == chunk.end) return;
        // Sorted segments (a cone's in-edges) put a task's rows in one
        // run; otherwise it scans every row for its own.
        if (sorted) {
          fold_range(chunk.begin, chunk.end, row_prefix[chunk.begin],
                     row_prefix[chunk.end]);
        } else {
          fold_range(chunk.begin, chunk.end, 0, n);
        }
      });
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
