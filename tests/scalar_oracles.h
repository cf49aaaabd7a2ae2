#ifndef INFERTURBO_TESTS_SCALAR_ORACLES_H_
#define INFERTURBO_TESTS_SCALAR_ORACLES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/gas/gas_conv.h"
#include "src/gas/message.h"
#include "src/gas/superstep_gather.h"

namespace inferturbo {

/// The scalar combine and receive that the superstep tests and
/// bench_superstep hold CombineRows, CombineBatch and
/// GatherSuperstepInbox to. Both are thin adapters over the reference's
/// ScalarPooledFold: they resolve each row to a segment, a row pointer
/// and a count, run the one fold, and add only what the wire format or
/// the receive needs. Do not "optimize" them; they are the baseline.

/// The per-row combine: destinations take slots in first-seen order
/// through a hash map (one probe per row), rows fold into a
/// slots × (width + 1) payload filled with the kind's init, and the
/// last column carries each slot's row count. `src` = `from`. Mean is
/// carried as a running sum.
MessageBatch ScalarCombine(AggKind kind, std::int64_t width,
                           std::span<const NodeId> dst,
                           std::span<const float* const> rows, NodeId from);

/// The per-row receive, with GatherSuperstepInbox's contract: every
/// delivered row (a payload row, a partial row with its count column,
/// or a broadcast reference's board row) folds into its destination's
/// segment in arrival order, then isolated segments read zero and mean
/// divides by the folded count. A union result points into `batches`
/// and the board in arrival order, with dst_index and per-node counts.
GatherResult ScalarGatherInbox(AggKind kind, std::int64_t msg_dim,
                               std::span<const MessageBatch> batches,
                               const std::vector<bool>& batch_partial,
                               std::span<const std::int64_t> local_index,
                               std::int64_t num_nodes,
                               const BroadcastLookupFn& lookup);

}  // namespace inferturbo

#endif  // INFERTURBO_TESTS_SCALAR_ORACLES_H_
