#ifndef INFERTURBO_GAS_SUPERSTEP_GATHER_H_
#define INFERTURBO_GAS_SUPERSTEP_GATHER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/gas/gas_conv.h"
#include "src/gas/message.h"

namespace inferturbo {

/// The superstep gather data plane, shared by both backends. Pooled
/// kinds resolve a worker's inbox (Pregel) or a reduce block's message
/// records (MapReduce) to one row pointer and segment per message and
/// fold them through GatherPooledRows; union flattens the rows into a
/// BucketedInbox, whose rows are the result. Everything here preserves
/// the scalar fold's accumulation order exactly (per destination: batch
/// order, then row order within a batch), so results are bit-identical
/// to the retained per-row oracle at any thread count.

/// Resolves a broadcast key (id-only message reference) to its
/// published row, or nullptr when the key was never published.
using BroadcastLookupFn =
    std::function<const std::vector<float>*(NodeId)>;

/// A flattened union inbox: every message row materialized (broadcast
/// refs resolved), with its destination segment id.
struct BucketedInbox {
  /// (n × msg_dim) resolved message rows, in inbox order.
  Tensor rows;
  /// Local destination segment per row, in [0, num_nodes).
  std::vector<std::int64_t> dst;
};

/// Flattens `batches` in one pass. Zero-width payloads are id-only
/// broadcast references resolved through `lookup` (which must return
/// non-null for every referenced key). `local_index` maps a global dst
/// id to its segment; an empty span sends every row to segment 0.
/// Union batches are never partial aggregates.
BucketedInbox BucketInbox(std::span<const MessageBatch> batches,
                          std::int64_t msg_dim,
                          std::span<const std::int64_t> local_index,
                          const BroadcastLookupFn& lookup);

/// The union GatherResult over `num_nodes` segments: the bucketed rows
/// move through untouched, with a per-node row count.
GatherResult ReduceBucketedInbox(BucketedInbox inbox, std::int64_t num_nodes);

/// The full kernel-backed gather: GatherPooledRows over the resolved
/// inbox rows for pooled kinds, BucketInbox + ReduceBucketedInbox for
/// union. `batch_partial[i]` marks batch i as pre-pooled (payload has a
/// trailing count column).
GatherResult GatherSuperstepInbox(AggKind kind, std::int64_t msg_dim,
                                  std::span<const MessageBatch> batches,
                                  const std::vector<bool>& batch_partial,
                                  std::span<const std::int64_t> local_index,
                                  std::int64_t num_nodes,
                                  const BroadcastLookupFn& lookup);

/// The retained scalar oracle — byte-for-byte the pre-kernel per-row
/// fold the Pregel driver used to run. It is the bit-identity oracle
/// the equivalence tests check the fast path against and the baseline
/// bench_superstep measures speedups against; its TU is compiled with
/// autovectorization disabled so the baseline means the same thing at
/// every optimization level. Do not "optimize" it.
GatherResult GatherSuperstepInboxScalar(
    AggKind kind, std::int64_t msg_dim,
    std::span<const MessageBatch> batches,
    const std::vector<bool>& batch_partial,
    std::span<const std::int64_t> local_index, std::int64_t num_nodes,
    const BroadcastLookupFn& lookup);

}  // namespace inferturbo

#endif  // INFERTURBO_GAS_SUPERSTEP_GATHER_H_
