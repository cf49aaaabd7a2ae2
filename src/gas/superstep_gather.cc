#include "src/gas/superstep_gather.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace inferturbo {

namespace {

std::int64_t InboxRows(std::span<const MessageBatch> batches) {
  std::int64_t total = 0;
  for (const MessageBatch& b : batches) total += b.size();
  return total;
}

// The destination segment of each of b's rows through `local_index`,
// or segment 0 for every row when it is empty.
void BatchSegments(const MessageBatch& b,
                   std::span<const std::int64_t> local_index,
                   std::int64_t* segs) {
  const std::int64_t n = b.size();
  if (local_index.empty()) {
    std::fill(segs, segs + n, 0);
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    segs[i] = local_index[static_cast<std::size_t>(
        b.dst[static_cast<std::size_t>(i)])];
  }
}

// The published row behind the broadcast reference to `key`.
const float* BroadcastRow(const BroadcastLookupFn& lookup, NodeId key,
                          std::int64_t msg_dim) {
  const std::vector<float>* value = lookup(key);
  INFERTURBO_CHECK(value != nullptr)
      << "missing broadcast value for node " << key;
  INFERTURBO_CHECK(static_cast<std::int64_t>(value->size()) == msg_dim)
      << "broadcast row width " << value->size() << " vs message dim "
      << msg_dim;
  return value->data();
}

}  // namespace

GatherResult GatherSuperstepInbox(AggKind kind, std::int64_t msg_dim,
                                  std::span<const MessageBatch> batches,
                                  const std::vector<bool>& batch_partial,
                                  std::span<const std::int64_t> local_index,
                                  std::int64_t num_nodes,
                                  const BroadcastLookupFn& lookup) {
  // Every kind reads the delivered rows in place: a payload row (a
  // partial row through its wider stride) or a broadcast reference's
  // board row. The lookup need not be thread-safe, so it runs here,
  // before the pooled builder fans out.
  const std::int64_t total = InboxRows(batches);
  std::vector<std::int64_t> segs(static_cast<std::size_t>(total));
  std::vector<const float*> rows(static_cast<std::size_t>(total));
  std::vector<std::int64_t> counts;  // stays empty without partial rows
  std::int64_t base = 0;
  for (std::size_t bi = 0; bi < batches.size(); ++bi) {
    const MessageBatch& b = batches[bi];
    if (b.empty()) continue;
    INFERTURBO_CHECK(kind != AggKind::kUnion || !batch_partial[bi])
        << "union layer received a partial aggregate";
    const std::int64_t n = b.size();
    BatchSegments(b, local_index, segs.data() + base);
    const float** pr = rows.data() + base;
    if (b.payload.cols() == 0) {  // id-only broadcast references
      for (std::int64_t i = 0; i < n; ++i) {
        pr[i] = BroadcastRow(lookup, b.src[static_cast<std::size_t>(i)],
                             msg_dim);
      }
    } else {
      const bool partial = batch_partial[bi];
      INFERTURBO_CHECK(b.payload.cols() == (partial ? msg_dim + 1 : msg_dim))
          << (partial ? "partial" : "dense") << " batch width "
          << b.payload.cols() << " vs message dim " << msg_dim;
      for (std::int64_t i = 0; i < n; ++i) pr[i] = b.payload.RowPtr(i);
      if (partial) {
        if (counts.empty()) counts.assign(static_cast<std::size_t>(total), 1);
        for (std::int64_t i = 0; i < n; ++i) {
          counts[static_cast<std::size_t>(base + i)] =
              static_cast<std::int64_t>(pr[i][msg_dim]);
        }
      }
    }
    base += n;
  }
  if (kind == AggKind::kUnion) {
    return GatherUnionRows(num_nodes, std::move(segs), std::move(rows));
  }
  return GatherPooledRows(kind, msg_dim, num_nodes, segs, rows, counts);
}

}  // namespace inferturbo
