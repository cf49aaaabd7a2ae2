#ifndef INFERTURBO_INFERENCE_INCREMENTAL_H_
#define INFERTURBO_INFERENCE_INCREMENTAL_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/graph/graph.h"
#include "src/graph/overlay_graph.h"
#include "src/nn/model.h"
#include "src/tensor/chunked_rows.h"

namespace inferturbo {

/// Incremental full-graph inference — the extension the paper's node
/// state design points at (§IV-C1 keeps "raw features, intermediate
/// embeddings, or even historical embeddings" on the vertex): when a
/// daily graph changes only a little (some features refreshed, some
/// edges added), the affected cone is tiny compared to the graph, and
/// re-scoring everything wastes the very redundancy InferTurbo exists
/// to avoid.
///
/// The algorithm is the standard change-propagation view of layer-wise
/// inference: a node's layer-(l+1) state must be recomputed iff its own
/// layer-l state changed or the layer-l state of any in-neighbor
/// changed (or its in-edge set changed). Everything else is reused from
/// the historical per-layer states.

/// All per-layer states of a full forward: states[0] is the raw feature
/// matrix, states[l] for l in [1, num_layers] the layer outputs.
struct LayerStates {
  std::vector<Tensor> states;

  std::int64_t num_layers() const {
    return static_cast<std::int64_t>(states.size()) - 1;
  }
};

/// Runs a full layer-wise forward, retaining every layer — the
/// "historical embeddings" a later incremental run starts from.
LayerStates ComputeLayerStates(const GnnModel& model, const Graph& graph);

/// What changed between the historical graph and `new_graph`.
///
/// Both lists are normalized (sorted + deduplicated) at the entry of
/// IncrementalInference, so callers — in particular a live delta
/// stream whose events arrive unordered and may repeat a node — can
/// hand them over as-is without triggering redundant recomputation or
/// order-dependent results.
struct GraphDelta {
  /// Nodes whose raw features differ in new_graph (new nodes appended
  /// at the end of the id range count as changed).
  std::vector<NodeId> changed_nodes;
  /// Destinations whose in-edge set changed (edges added or removed).
  std::vector<NodeId> changed_in_edges;
};

struct IncrementalResult {
  /// Updated per-layer states over new_graph.
  LayerStates states;
  /// Fresh logits for every node (head applied to the final layer).
  Tensor logits;
  /// Node-state recomputations performed, per layer. Sum << layers * N
  /// is the savings; a full pass would be exactly layers * N.
  std::vector<std::int64_t> recomputed_per_layer;
  /// Sorted ids whose *final-layer* state was recomputed — exactly the
  /// nodes whose logits may differ from the previous generation.
  /// Downstream result caches invalidate these rows and keep the rest.
  std::vector<NodeId> final_changed_nodes;
};

/// Recomputes only the delta's forward cone. `old_states` must come
/// from ComputeLayerStates on the *previous* graph with the same model;
/// `new_graph` may have more nodes than old_states (growth), in which
/// case the new ids must be listed in delta.changed_nodes.
///
/// Shapes are checked before any kernel runs: a feature width, a
/// historical layer's row or column count, or an edge-feature width
/// that does not fit the model returns InvalidArgument.
///
/// Exactness (tested): the returned states equal a from-scratch
/// ComputeLayerStates(model, new_graph) bit-for-bit on every node.
Result<IncrementalResult> IncrementalInference(
    const GnnModel& model, const Graph& new_graph,
    const LayerStates& old_states, const GraphDelta& delta);

/// One layer's recomputed rows: rows.RowPtr(i) is node ids[i]'s state.
struct RowPatch {
  std::vector<NodeId> ids;  ///< sorted, unique
  Tensor rows;
};

/// One delta's cone as row patches over the historical states.
struct DeltaPatches {
  /// layers[l] holds the recomputed rows of layer l + 1. The ids of the
  /// last patch are exactly the nodes whose logits may have moved.
  std::vector<RowPatch> layers;
  /// In-edges folded over all layers: the cone's gather work.
  std::int64_t cone_in_edges = 0;
};

/// The engine behind IncrementalInference, without materializing any
/// full state matrix. `features` holds every node's current layer-0 row
/// over graph.num_nodes(); history[l] holds layer l + 1's historical
/// states over the old node range. A recomputed row reads its
/// previous-layer inputs from this delta's patch where there is one,
/// and from history otherwise; in-edges fold in the rebuilt graph's
/// order, so the patched rows are bit-identical to a from-scratch pass.
/// Shapes are validated as for IncrementalInference.
Result<DeltaPatches> ComputeDeltaPatches(const GnnModel& model,
                                         const OverlayGraph& graph,
                                         const ChunkedRows& features,
                                         std::span<const ChunkedRows> history,
                                         const GraphDelta& delta);

}  // namespace inferturbo

#endif  // INFERTURBO_INFERENCE_INCREMENTAL_H_
