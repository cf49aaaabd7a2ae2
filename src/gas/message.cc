#include "src/gas/message.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "src/common/logging.h"
#include "src/tensor/kernels/row_fold.h"

namespace inferturbo {

void MessageBatch::Push(NodeId dst_id, NodeId src_id, const float* row,
                        std::int64_t width) {
  if (payload.empty() && dst.empty()) {
    payload = Tensor(0, width);
  }
  INFERTURBO_CHECK(payload.cols() == width || payload.rows() == 0)
      << "MessageBatch width mismatch on Push";
  if (payload.cols() != width) payload = Tensor(0, width);
  payload.AppendRow(row);
  dst.push_back(dst_id);
  src.push_back(src_id);
}

void MessageBatch::Reserve(std::size_t n, std::int64_t width) {
  dst.reserve(n);
  src.reserve(n);
  if (payload.empty()) payload = Tensor(0, width);
  payload.ReserveRows(static_cast<std::int64_t>(n));
}

std::vector<MessageBatch> SplitByWorker(MessageBatch batch,
                                        const HashPartitioner& partitioner,
                                        std::int64_t num_workers) {
  std::vector<MessageBatch> slices(static_cast<std::size_t>(num_workers));
  if (batch.empty()) return slices;
  const std::int64_t n = batch.size();
  // One counting pass that also memoizes each row's owner, so the
  // partition hash runs once per row instead of once per pass.
  std::vector<std::int32_t> owner(static_cast<std::size_t>(n));
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_workers), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t w =
        partitioner.PartitionOf(batch.dst[static_cast<std::size_t>(i)]);
    owner[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(w);
    ++counts[static_cast<std::size_t>(w)];
  }
  // Single-owner fast path — the common case when callers already emit
  // per-destination-worker batches: zero copies, the batch moves whole.
  const std::size_t first_owner = static_cast<std::size_t>(owner[0]);
  if (counts[first_owner] == n) {
    slices[first_owner] = std::move(batch);
    return slices;
  }
  const std::int64_t width = batch.payload.cols();
  for (std::int64_t w = 0; w < num_workers; ++w) {
    const std::int64_t count = counts[static_cast<std::size_t>(w)];
    if (count == 0) continue;
    MessageBatch& slice = slices[static_cast<std::size_t>(w)];
    slice.dst.reserve(static_cast<std::size_t>(count));
    slice.src.reserve(static_cast<std::size_t>(count));
    slice.payload = Tensor(count, width);
  }
  std::vector<std::int64_t> cursor(static_cast<std::size_t>(num_workers), 0);
  std::int64_t i = 0;
  while (i < n) {
    // Maximal same-owner run [i, e): ids append as a range and payload
    // rows move with one block memcpy.
    const std::int32_t w = owner[static_cast<std::size_t>(i)];
    std::int64_t e = i + 1;
    while (e < n && owner[static_cast<std::size_t>(e)] == w) ++e;
    MessageBatch& slice = slices[static_cast<std::size_t>(w)];
    slice.dst.insert(slice.dst.end(),
                     batch.dst.begin() + static_cast<std::ptrdiff_t>(i),
                     batch.dst.begin() + static_cast<std::ptrdiff_t>(e));
    slice.src.insert(slice.src.end(),
                     batch.src.begin() + static_cast<std::ptrdiff_t>(i),
                     batch.src.begin() + static_cast<std::ptrdiff_t>(e));
    if (width > 0) {
      std::memcpy(slice.payload.RowPtr(cursor[static_cast<std::size_t>(w)]),
                  batch.payload.RowPtr(i),
                  static_cast<std::size_t>((e - i) * width) * sizeof(float));
    }
    cursor[static_cast<std::size_t>(w)] += e - i;
    i = e;
  }
  return slices;
}

float PooledInitValue(AggKind kind) {
  return (kind == AggKind::kMax) ? -std::numeric_limits<float>::infinity()
         : (kind == AggKind::kMin) ? std::numeric_limits<float>::infinity()
                                   : 0.0f;
}

kernels::detail::FoldOp PooledFoldOp(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kMean:  // carried as a running sum until finalize
      return kernels::detail::FoldOp::kAdd;
    case AggKind::kMax:
      return kernels::detail::FoldOp::kMax;
    case AggKind::kMin:
      return kernels::detail::FoldOp::kMin;
    case AggKind::kUnion:
      break;
  }
  INFERTURBO_CHECK(false) << "unreachable";
  return kernels::detail::FoldOp::kAdd;
}

MessageBatch CombineRows(AggKind kind, std::int64_t width,
                         std::span<const NodeId> dst_order,
                         std::span<const std::int64_t> slots,
                         std::span<const float* const> rows, NodeId from) {
  INFERTURBO_CHECK(kind != AggKind::kUnion)
      << "a union aggregate keeps its per-edge rows";
  INFERTURBO_CHECK(slots.size() == rows.size())
      << "combine has " << slots.size() << " slots for " << rows.size()
      << " rows";
  const auto num_slots = static_cast<std::int64_t>(dst_order.size());
  std::vector<std::int64_t> counts(dst_order.size(), 0);
  for (const std::int64_t s : slots) {
    INFERTURBO_CHECK(0 <= s && s < num_slots)
        << "combine slot " << s << " out of [0," << num_slots << ")";
    ++counts[static_cast<std::size_t>(s)];
  }
  MessageBatch batch;
  batch.dst.assign(dst_order.begin(), dst_order.end());
  batch.src.assign(dst_order.size(), from);
  // Rows fold straight into the wire payload; its last column is the
  // count, so the fold strides over it.
  const std::int64_t stride = width + 1;
  const float init = PooledInitValue(kind);
  batch.payload = init == 0.0f ? Tensor(num_slots, stride)
                               : Tensor::Full(num_slots, stride, init);
  const auto n = static_cast<std::int64_t>(slots.size());
  kernels::detail::AccountRowFold(n, width);
  kernels::detail::PtrRowFold(PooledFoldOp(kind))(
      batch.payload.data(), width, stride, slots.data(), rows.data(), n, 0,
      num_slots);
  for (std::int64_t s = 0; s < num_slots; ++s) {
    batch.payload.RowPtr(s)[width] =
        static_cast<float>(counts[static_cast<std::size_t>(s)]);
  }
  return batch;
}

MessageBatch CombineBatch(AggKind kind, const MessageBatch& batch,
                          NodeId from) {
  const std::int64_t n = batch.size();
  INFERTURBO_CHECK(batch.payload.rows() == n)
      << "combine batch has " << n << " ids for " << batch.payload.rows()
      << " payload rows";
  // Slot resolution reads ids only, so the payload stream is read
  // exactly once, by the fold. When the destination id range is modest
  // relative to the batch (hub-heavy power-law traffic) a dense table
  // turns the per-row hash probe into one array load; a sparse gigantic
  // id space skips the table rather than allocate it.
  NodeId min_dst = 0;
  NodeId max_dst = 0;
  for (const NodeId d : batch.dst) {
    min_dst = std::min(min_dst, d);
    max_dst = std::max(max_dst, d);
  }
  const bool dense = min_dst >= 0 && max_dst < 4 * n + 1024;
  std::vector<std::int32_t> dense_slots(
      dense ? static_cast<std::size_t>(max_dst) + 1 : 0, -1);
  std::unordered_map<NodeId, std::int64_t> sparse_slots;
  std::vector<NodeId> dst_order;
  std::vector<std::int64_t> slots(static_cast<std::size_t>(n));
  std::vector<const float*> rows(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const NodeId d = batch.dst[static_cast<std::size_t>(i)];
    const auto next = static_cast<std::int64_t>(dst_order.size());
    std::int64_t s;
    if (dense) {
      std::int32_t& cached = dense_slots[static_cast<std::size_t>(d)];
      if (cached < 0) cached = static_cast<std::int32_t>(next);
      s = cached;
    } else {
      s = sparse_slots.try_emplace(d, next).first->second;
    }
    if (s == next) dst_order.push_back(d);
    slots[static_cast<std::size_t>(i)] = s;
    rows[static_cast<std::size_t>(i)] = batch.payload.RowPtr(i);
  }
  return CombineRows(kind, batch.payload.cols(), dst_order, slots, rows,
                     from);
}

}  // namespace inferturbo
