#include "src/gas/message.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/common/logging.h"
#include "src/tensor/kernels/row_fold.h"

namespace inferturbo {

void MessageBatch::Append(const MessageBatch& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  INFERTURBO_CHECK(payload.cols() == other.payload.cols())
      << "MessageBatch width mismatch on Append";
  dst.insert(dst.end(), other.dst.begin(), other.dst.end());
  src.insert(src.end(), other.src.begin(), other.src.end());
  Tensor merged(payload.rows() + other.payload.rows(), payload.cols());
  std::memcpy(merged.data(), payload.data(), payload.ByteSize());
  std::memcpy(merged.RowPtr(payload.rows()), other.payload.data(),
              other.payload.ByteSize());
  payload = std::move(merged);
}

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

MessageBatch MessageBatch::Merge(std::span<const MessageBatch> batches) {
  MessageBatch out;
  std::size_t total = 0;
  std::int64_t width = 0;
  for (const MessageBatch& b : batches) {
    total += b.dst.size();
    if (!b.empty()) width = b.payload.cols();
  }
  if (total == 0) return out;
  out.dst.reserve(total);
  out.src.reserve(total);
  out.payload = Tensor(static_cast<std::int64_t>(total), width);
  std::int64_t row = 0;
  for (const MessageBatch& b : batches) {
    if (b.empty()) continue;
    INFERTURBO_CHECK(b.payload.cols() == width)
        << "MessageBatch width mismatch on Merge";
    out.dst.insert(out.dst.end(), b.dst.begin(), b.dst.end());
    out.src.insert(out.src.end(), b.src.begin(), b.src.end());
    std::memcpy(out.payload.RowPtr(row), b.payload.data(),
                b.payload.ByteSize());
    row += b.payload.rows();
  }
  return out;
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

PooledAccumulator::PooledAccumulator(AggKind kind, std::int64_t width)
    : kind_(kind), width_(width) {
  INFERTURBO_CHECK(kind != AggKind::kUnion)
      << "PooledAccumulator cannot pool a union aggregate";
}

float PooledInitValue(AggKind kind) {
  return (kind == AggKind::kMax) ? -std::numeric_limits<float>::infinity()
         : (kind == AggKind::kMin) ? std::numeric_limits<float>::infinity()
                                   : 0.0f;
}

kernels::detail::FoldOp PooledFoldOp(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kMean:  // carried as running sum until Finalize
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

std::int64_t PooledAccumulator::SlotFor(NodeId dst) {
  auto [it, inserted] =
      index_.try_emplace(dst, static_cast<std::int64_t>(dst_order_.size()));
  if (inserted) {
    dst_order_.push_back(dst);
    counts_.push_back(0);
    rows_.resize(rows_.size() + static_cast<std::size_t>(width_),
                 PooledInitValue(kind_));
  }
  return it->second;
}

float* PooledAccumulator::RowFor(NodeId dst, std::int64_t count_delta) {
  const std::int64_t s = SlotFor(dst);
  counts_[static_cast<std::size_t>(s)] += count_delta;
  return rows_.data() + s * width_;
}

// PooledAccumulator::Add / ::AddPartial — the retained per-row scalar
// folds — live in message_scalar.cc, a TU pinned against
// autovectorization, because they are the oracle bench_superstep
// measures CombineBatch against.

MessageBatch PooledAccumulator::ToPartialBatch(NodeId from) const {
  MessageBatch batch;
  batch.dst = dst_order_;
  batch.src.assign(dst_order_.size(), from);
  batch.payload = Tensor(static_cast<std::int64_t>(dst_order_.size()),
                         width_ + 1);
  for (std::size_t i = 0; i < dst_order_.size(); ++i) {
    float* row = batch.payload.RowPtr(static_cast<std::int64_t>(i));
    std::memcpy(row, rows_.data() + static_cast<std::int64_t>(i) * width_,
                static_cast<std::size_t>(width_) * sizeof(float));
    row[width_] = static_cast<float>(counts_[i]);
  }
  return batch;
}

PooledAccumulator::Finalized PooledAccumulator::Finalize() const {
  Finalized out;
  out.dst = dst_order_;
  out.counts = counts_;
  out.values = Tensor(static_cast<std::int64_t>(dst_order_.size()), width_);
  for (std::size_t i = 0; i < dst_order_.size(); ++i) {
    const float* src_row = rows_.data() + static_cast<std::int64_t>(i) *
                                              width_;
    float* dst_row = out.values.RowPtr(static_cast<std::int64_t>(i));
    if (kind_ == AggKind::kMean && counts_[i] > 0) {
      const float inv = 1.0f / static_cast<float>(counts_[i]);
      for (std::int64_t j = 0; j < width_; ++j) dst_row[j] = src_row[j] * inv;
    } else {
      std::memcpy(dst_row, src_row,
                  static_cast<std::size_t>(width_) * sizeof(float));
    }
  }
  return out;
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
