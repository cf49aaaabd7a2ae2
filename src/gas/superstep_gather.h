#ifndef INFERTURBO_GAS_SUPERSTEP_GATHER_H_
#define INFERTURBO_GAS_SUPERSTEP_GATHER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/gas/gas_conv.h"
#include "src/gas/message.h"

namespace inferturbo {

/// The superstep gather data plane, shared by both backends. A
/// worker's inbox (Pregel) or a reduce block's message records
/// (MapReduce) resolve to one row pointer and segment per message: a
/// dense row points into its payload, a broadcast reference at its
/// board row. Pooled kinds fold those rows through GatherPooledRows;
/// union hands them to apply_node in place through GatherUnionRows, so
/// a union row is never copied on receipt. Everything here preserves
/// the scalar fold's order exactly (per destination: batch order, then
/// row order within a batch), so results are bit-identical to the
/// per-row fold (ScalarPooledFold in reference_inference.h) at any
/// thread count.

/// Resolves a broadcast key (id-only message reference) to its
/// published row, or nullptr when the key was never published.
using BroadcastLookupFn =
    std::function<const std::vector<float>*(NodeId)>;

/// The full kernel-backed gather: GatherPooledRows over the resolved
/// inbox rows for pooled kinds, GatherUnionRows for union, whose rows
/// point into `batches` and the board behind `lookup` (both must
/// outlive the result). Zero-width payloads are id-only broadcast
/// references (`lookup` must return non-null for every referenced
/// key). `local_index` maps a global dst id to its segment; an empty
/// span sends every row to segment 0. `batch_partial[i]` marks batch i
/// as pre-pooled (payload has a trailing count column); union batches
/// are never partial aggregates.
GatherResult GatherSuperstepInbox(AggKind kind, std::int64_t msg_dim,
                                  std::span<const MessageBatch> batches,
                                  const std::vector<bool>& batch_partial,
                                  std::span<const std::int64_t> local_index,
                                  std::int64_t num_nodes,
                                  const BroadcastLookupFn& lookup);

}  // namespace inferturbo

#endif  // INFERTURBO_GAS_SUPERSTEP_GATHER_H_
