#include "tests/scalar_oracles.h"

#include <unordered_map>
#include <utility>

#include "src/common/logging.h"
#include "src/inference/reference_inference.h"

namespace inferturbo {

MessageBatch ScalarCombine(AggKind kind, std::int64_t width,
                           std::span<const NodeId> dst,
                           std::span<const float* const> rows, NodeId from) {
  MessageBatch batch;
  std::unordered_map<NodeId, std::int64_t> slot_of;
  std::vector<std::int64_t> slots(dst.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    const auto [it, inserted] = slot_of.try_emplace(
        dst[i], static_cast<std::int64_t>(batch.dst.size()));
    if (inserted) batch.dst.push_back(dst[i]);
    slots[i] = it->second;
  }
  const auto num_slots = static_cast<std::int64_t>(batch.dst.size());
  batch.src.assign(batch.dst.size(), from);
  batch.payload = Tensor::Full(num_slots, width + 1, PooledInitValue(kind));
  std::vector<std::int64_t> counts(batch.dst.size(), 0);
  ScalarPooledFold(kind, width, width + 1, slots, rows, {},
                   batch.payload.data(), counts);
  for (std::int64_t s = 0; s < num_slots; ++s) {
    batch.payload.RowPtr(s)[width] =
        static_cast<float>(counts[static_cast<std::size_t>(s)]);
  }
  return batch;
}

GatherResult ScalarGatherInbox(AggKind kind, std::int64_t msg_dim,
                               std::span<const MessageBatch> batches,
                               const std::vector<bool>& batch_partial,
                               std::span<const std::int64_t> local_index,
                               std::int64_t num_nodes,
                               const BroadcastLookupFn& lookup) {
  std::size_t total = 0;
  for (const MessageBatch& b : batches) total += b.dst.size();
  std::vector<std::int64_t> segs(total);
  std::vector<const float*> rows(total);
  std::vector<std::int64_t> counts;  // stays empty without partial rows
  std::size_t k = 0;
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    const MessageBatch& b = batches[bi];
    const bool id_only = b.payload.cols() == 0;
    const bool partial = batch_partial[bi] && !id_only;
    if (partial && counts.empty()) counts.assign(total, 1);
    for (std::size_t i = 0; i < b.dst.size(); ++i, ++k) {
      segs[k] = local_index.empty()
                    ? 0
                    : local_index[static_cast<std::size_t>(b.dst[i])];
      if (id_only) {  // a broadcast reference reads its board row
        const std::vector<float>* value = lookup(b.src[i]);
        INFERTURBO_CHECK(value != nullptr)
            << "missing broadcast value for node " << b.src[i];
        rows[k] = value->data();
      } else {
        rows[k] = b.payload.RowPtr(static_cast<std::int64_t>(i));
        if (partial) counts[k] = static_cast<std::int64_t>(rows[k][msg_dim]);
      }
    }
  }
  GatherResult result;
  result.kind = kind;
  result.counts.assign(static_cast<std::size_t>(num_nodes), 0);
  if (kind == AggKind::kUnion) {
    for (const std::int64_t s : segs) {
      INFERTURBO_CHECK(0 <= s && s < num_nodes) << "union segment " << s;
      ++result.counts[static_cast<std::size_t>(s)];
    }
    result.rows = std::move(rows);
    result.dst_index = std::move(segs);
    return result;
  }
  result.pooled = Tensor::Full(num_nodes, msg_dim, PooledInitValue(kind));
  ScalarPooledFold(kind, msg_dim, msg_dim, segs, rows, counts,
                   result.pooled.data(), result.counts);
  for (std::int64_t v = 0; v < num_nodes; ++v) {
    float* acc = result.pooled.RowPtr(v);
    const std::int64_t count = result.counts[static_cast<std::size_t>(v)];
    for (std::int64_t j = 0; j < msg_dim; ++j) {
      if (count == 0) {
        acc[j] = 0.0f;
      } else if (kind == AggKind::kMean) {
        acc[j] *= 1.0f / static_cast<float>(count);
      }
    }
  }
  return result;
}

}  // namespace inferturbo
