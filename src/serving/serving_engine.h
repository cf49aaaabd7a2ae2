#ifndef INFERTURBO_SERVING_SERVING_ENGINE_H_
#define INFERTURBO_SERVING_SERVING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/timer.h"
#include "src/graph/graph.h"
#include "src/graph/overlay_graph.h"
#include "src/inference/incremental.h"
#include "src/nn/model.h"
#include "src/serving/request_batcher.h"
#include "src/tensor/chunked_rows.h"

namespace inferturbo {

class Histogram;

/// Options for the always-on serving front-end.
struct ServingOptions {
  /// How long the request batcher holds a mini-batch open for
  /// stragglers (CLI: --serve_batch_window, in milliseconds).
  double batch_window_seconds = 0.001;
  /// Queries per coalesced mini-batch (CLI: --serve_max_batch).
  std::int64_t max_batch = 64;
  /// Cache computed logits rows per generation; deltas invalidate only
  /// the rows whose final-layer state actually changed.
  bool cache_logits = true;
};

/// A small live update to the served graph: refreshed node features,
/// new edges, and/or new nodes appended at the end of the id range.
/// The engine overlays the new edges on the served graph, derives the
/// exact GraphDelta, and runs change propagation — callers cannot get
/// the delta wrong.
struct GraphMutation {
  /// (node, new feature row); row length must equal feature_dim. When
  /// one node is listed more than once, its last row wins.
  std::vector<std::pair<NodeId, std::vector<float>>> feature_updates;
  /// Appended directed edges; endpoints may name new nodes.
  std::vector<std::pair<NodeId, NodeId>> new_edges;
  /// Feature rows for nodes appended after the current id range.
  std::vector<std::vector<float>> new_node_features;
  /// Required iff the graph carries edge features: one row per entry
  /// of new_edges, in the same order.
  Tensor new_edge_features;
};

/// What one applied delta did, for callers and telemetry.
struct DeltaApplied {
  /// The generation the delta produced (old epoch + 1).
  std::int64_t epoch = 0;
  /// Change-propagation cone: node-state recomputations, total and per
  /// layer (a full batch pass would be layers * N).
  std::int64_t recomputed_nodes = 0;
  std::vector<std::int64_t> recomputed_per_layer;
  /// In-edges the recompute folded, over all layers: the cone's gather
  /// work, which hubs in the cone dominate.
  std::int64_t cone_in_edges = 0;
  /// Logits-cache rows dropped (0 when the cache is off).
  std::int64_t invalidated_cache_rows = 0;
  double seconds = 0.0;
};

/// One served generation, immutable once published. Holding it pins
/// it: its graph and per-layer states stay valid and byte-for-byte
/// unchanged however many deltas publish after it. Later generations
/// share its untouched state chunks (ChunkedRows), its base graph and
/// its overlay runs, but never write them.
class ServingGeneration {
 public:
  std::int64_t epoch() const { return epoch_; }
  std::int64_t num_nodes() const { return graph_.num_nodes(); }
  /// The served graph: a base Graph plus an overlay of added edges.
  const OverlayGraph& graph() const { return graph_; }
  /// Layer `layer`'s states over num_nodes() rows: 0 is the node
  /// features, num_layers the final states the head reads.
  const ChunkedRows& states(std::int64_t layer) const {
    return states_[static_cast<std::size_t>(layer)];
  }

 private:
  friend class ServingEngine;
  struct LogitsChunk;

  /// The rebuilt Graph of this generation, built on first use.
  std::shared_ptr<const Graph> Compacted() const;

  std::int64_t epoch_ = 0;
  OverlayGraph graph_;
  std::vector<ChunkedRows> states_;
  /// Logits cache, kChunkRows rows per chunk (empty when the cache is
  /// off). A chunk no delta has touched since is shared with older
  /// generations: its rows' final states, hence logits, are equal in
  /// all of them. Contents are guarded by ServingEngine::cache_mu_.
  std::vector<std::shared_ptr<LogitsChunk>> cache_;

  mutable std::mutex compacted_mu_;
  mutable std::shared_ptr<const Graph> compacted_;
};

/// Point-in-time serving counters (always on, independent of the
/// telemetry master switch). Percentile fields are filled from the
/// metric registry's histograms and are 0 unless SetMetricsEnabled
/// was called — serving entry points (CLI serve mode, bench_serving)
/// enable metrics.
struct ServingStats {
  std::int64_t queries = 0;
  std::int64_t batches = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t deltas = 0;
  std::int64_t epoch = 0;
  std::int64_t recomputed_nodes = 0;
  std::int64_t invalidated_cache_rows = 0;
  double query_p50_seconds = 0.0;
  double query_p95_seconds = 0.0;
  double query_p99_seconds = 0.0;
  double mean_batch_occupancy = 0.0;

  double cache_hit_rate() const {
    const std::int64_t lookups = cache_hits + cache_misses;
    return lookups > 0
               ? static_cast<double>(cache_hits) / static_cast<double>(lookups)
               : 0.0;
  }
};

/// An always-on serving front-end over incremental delta inference.
///
/// The engine keeps a warm store — the current graph plus all
/// per-layer states of a full forward — behind an epoch/snapshot
/// scheme: every query batch pins one immutable ServingGeneration via
/// shared_ptr and serves from it, while ApplyMutation computes the
/// next generation off to the side (exact change
/// propagation through ComputeDeltaPatches) and publishes it with a
/// pointer swap. A delta costs O(cone): new edges go on the graph's
/// overlay, and the next generation copies only the state and cache
/// chunks the cone writes. In-flight queries are never torn between
/// generations; the epoch each response carries names the exact graph
/// its logits are bit-identical to a from-scratch batch run on.
///
/// Concurrent Query() calls coalesce through a RequestBatcher into
/// one head pass over the batch's cache-missing nodes. Cached logits
/// rows survive across generations except for the rows the delta's
/// final-layer cone actually touched.
///
/// Thread-safe: any number of Query threads against concurrent
/// ApplyMutation callers (deltas serialize internally).
class ServingEngine {
 public:
  /// Builds the warm store with a full layer-wise forward over `graph`
  /// (kept once, as the generations' shared base).
  ServingEngine(const GnnModel* model, Graph graph,
                const ServingOptions& options = {});
  /// Adopts precomputed per-layer states (must come from
  /// ComputeLayerStates on `graph` with `model`).
  ServingEngine(const GnnModel* model, Graph graph, LayerStates states,
                const ServingOptions& options = {});

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Point lookup: logits row per node id, served from the generation
  /// current when the coalesced batch executes. Blocks for at most
  /// roughly the batch window plus one head pass. An out-of-range id
  /// fails only this query, not its batch.
  Result<QueryResponse> Query(std::vector<NodeId> nodes);

  /// Applies a live update: overlays the new edges, derives the delta,
  /// recomputes the affected cone, publishes the next generation. Once
  /// the overlay outgrows its bound, the graph is rebuilt (compacted).
  Result<DeltaApplied> ApplyMutation(const GraphMutation& mutation);

  /// Current generation id (0 = the warm store the engine started on).
  std::int64_t epoch() const;
  /// Snapshot of the currently served graph (stays valid while held,
  /// even across later deltas). The first call on a generation with an
  /// overlay rebuilds its Graph once, for readers only: deltas keep
  /// extending the overlay.
  std::shared_ptr<const Graph> graph_snapshot() const;
  /// Pins the current generation. For tests and bench_serving, which
  /// hold generations across deltas and read their overlay size.
  std::shared_ptr<const ServingGeneration> Pin() const;

  ServingStats stats() const;

  const GnnModel& model() const { return *model_; }

 private:
  using Generation = ServingGeneration;

  /// Publishes generation 0 over `base` and its full-forward states.
  void Init(std::shared_ptr<const Graph> base, LayerStates states);
  std::shared_ptr<const Generation> Snapshot() const;
  void Publish(std::shared_ptr<const Generation> next);
  /// The batch execute callback: one mini-superstep over the union of
  /// the batch's nodes against one pinned generation.
  void ExecuteBatch(const std::vector<BatchedQuery*>& batch);
  /// The delta path behind ApplyMutation; caller holds delta_mu_ and
  /// passes the generation the delta was computed against and the
  /// post-delta graph and features.
  Result<DeltaApplied> ApplyDeltaLocked(
      const std::shared_ptr<const Generation>& current, OverlayGraph graph,
      ChunkedRows features, const GraphDelta& delta, const WallTimer& timer);

  const GnnModel* model_;
  const ServingOptions options_;

  mutable std::mutex generation_mu_;
  std::shared_ptr<const Generation> generation_;

  /// Serializes delta application (queries stay concurrent).
  std::mutex delta_mu_;
  /// Guards every logits-cache chunk's contents. Chunks are shared
  /// across generations, so one lock covers them all.
  mutable std::mutex cache_mu_;

  std::unique_ptr<RequestBatcher> batcher_;

  std::atomic<std::int64_t> queries_{0};
  std::atomic<std::int64_t> cache_hits_{0};
  std::atomic<std::int64_t> cache_misses_{0};
  std::atomic<std::int64_t> deltas_{0};
  std::atomic<std::int64_t> recomputed_nodes_{0};
  std::atomic<std::int64_t> invalidated_rows_{0};

  // Registry instruments (stable pointers; recording is gated on the
  // telemetry master switch inside the instruments themselves).
  Histogram* query_seconds_;
  Histogram* batch_occupancy_;
  Histogram* batch_unique_nodes_;
  Histogram* delta_seconds_;
  Histogram* delta_cone_nodes_;
  Histogram* delta_cone_in_edges_;
};

}  // namespace inferturbo

#endif  // INFERTURBO_SERVING_SERVING_ENGINE_H_
