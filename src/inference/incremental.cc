#include "src/inference/incremental.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "src/common/logging.h"
#include "src/gas/gas_conv.h"
#include "src/telemetry/trace.h"
#include "src/tensor/kernels/kernel_config.h"

namespace inferturbo {

namespace {

/// Previous-layer states as one delta sees them: the delta's patch
/// where it has a row (`in_patch` marks its ids), history otherwise.
struct LayerInput {
  const ChunkedRows* history;
  const RowPatch* patch;  // null: history is already current everywhere
  const std::vector<bool>* in_patch;

  const float* Row(NodeId v) const {
    if (patch != nullptr && (*in_patch)[static_cast<std::size_t>(v)]) {
      const auto it =
          std::lower_bound(patch->ids.begin(), patch->ids.end(), v);
      return patch->rows.RowPtr(it - patch->ids.begin());
    }
    return history->Row(v);
  }

  Tensor Gather(std::span<const std::int64_t> ids) const {
    Tensor out(static_cast<std::int64_t>(ids.size()), history->cols());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      out.SetRow(static_cast<std::int64_t>(i), Row(ids[i]));
    }
    return out;
  }
};

/// Entry normalization: callers (a live delta stream in particular)
/// may deliver ids unordered and with repeats; one sorted, unique copy
/// makes every downstream pass order- and duplicate-insensitive.
std::vector<NodeId> SortedUnique(const std::vector<NodeId>& ids) {
  std::vector<NodeId> out = ids;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Distinct values of `ids`, ascending, and each id rewritten to its
/// value's index in them. Ids lie in [0, num_nodes). A few ids are
/// sorted; many are marked in a dense table and collected by one scan.
std::vector<std::int64_t> Distinct(std::vector<std::int64_t>* ids,
                                   std::int64_t num_nodes) {
  if (static_cast<std::int64_t>(ids->size()) * 16 < num_nodes) {
    std::vector<std::int64_t> values = SortedUnique(*ids);
    for (std::int64_t& id : *ids) {
      id = std::lower_bound(values.begin(), values.end(), id) - values.begin();
    }
    return values;
  }
  std::vector<std::int64_t> values;
  std::vector<std::int64_t> index(static_cast<std::size_t>(num_nodes), -1);
  for (std::int64_t id : *ids) index[static_cast<std::size_t>(id)] = 0;
  for (std::int64_t v = 0; v < num_nodes; ++v) {
    if (index[static_cast<std::size_t>(v)] < 0) continue;
    index[static_cast<std::size_t>(v)] =
        static_cast<std::int64_t>(values.size());
    values.push_back(v);
  }
  for (std::int64_t& id : *ids) id = index[static_cast<std::size_t>(id)];
  return values;
}

/// `layer`'s gather over `num_nodes` destinations when in-edge k
/// carries message row rows[k] (`width` floats) to node dst[k], folded
/// in ascending k by one builder call. Edge-feature layers fold their
/// per-edge ApplyEdge rows (row k merged with edge_features' row k)
/// instead.
GatherResult GatherRows(const GasConv& layer, std::int64_t num_nodes,
                        std::int64_t width, std::vector<const float*> rows,
                        std::span<const std::int64_t> dst,
                        const Tensor& edge_features) {
  const LayerSignature& sig = layer.signature();
  if (sig.uses_edge_features) {
    Tensor edge_rows(static_cast<std::int64_t>(rows.size()), width);
    for (std::size_t k = 0; k < rows.size(); ++k) edge_rows.SetRow(k, rows[k]);
    return GatherIntoResult(sig.agg_kind,
                            layer.ApplyEdge(edge_rows, &edge_features), dst,
                            num_nodes);
  }
  return sig.agg_kind == AggKind::kUnion
             ? GatherUnionRows(num_nodes, {dst.begin(), dst.end()},
                               std::move(rows))
             : GatherPooledRows(sig.agg_kind, width, num_nodes, dst, rows,
                                {});
}

/// Walk work per in-edge, in PlanParallelTasks' units: a source id, a
/// row lookup and three writes.
constexpr std::int64_t kWalkWorkPerEdge = 16;

/// Layer `layer`'s new states for `affected` (sorted), each folding its
/// in-edges in the rebuilt graph's order, as the full pass does. A
/// message that is the state is its source's input row, read in place
/// (patch or history); others are computed once per distinct source.
/// The walk fills exactly sized arrays in parallel: each task owns whole
/// destinations, cut at even shares of their in-edges.
Tensor RecomputeRows(const GasConv& layer, const OverlayGraph& graph,
                     const LayerInput& input,
                     const std::vector<NodeId>& affected,
                     std::int64_t* cone_in_edges) {
  const bool uses_edge_features = layer.signature().uses_edge_features;
  const bool in_place = layer.MessageIsState();
  std::vector<std::int64_t> edge_src;  // each in-edge's source (or slot)
  std::vector<std::int64_t> dst_local;
  std::vector<const float*> rows;
  Tensor edge_features;
  {
    TraceSpan walk("incremental/walk");
    std::vector<std::int64_t> first_edge(affected.size() + 1, 0);
    for (std::size_t i = 0; i < affected.size(); ++i) {
      first_edge[i + 1] = first_edge[i] + graph.InDegree(affected[i]);
    }
    const std::int64_t edges = first_edge.back();
    *cone_in_edges += edges;
    edge_src.resize(static_cast<std::size_t>(in_place ? 0 : edges));
    dst_local.resize(static_cast<std::size_t>(edges));
    rows.resize(static_cast<std::size_t>(edges));
    edge_features =
        Tensor(uses_edge_features ? edges : 0, graph.edge_feature_dim());
    const auto nodes = static_cast<std::int64_t>(affected.size());
    const int tasks = kernels::PlanParallelTasks(
        nodes, edges * kWalkWorkPerEdge / std::max<std::int64_t>(1, nodes));
    kernels::ParallelForWeightedChunks(
        first_edge, tasks, [&](const kernels::RangeChunk& chunk) {
          for (std::int64_t i = chunk.begin; i < chunk.end; ++i) {
            const auto at = static_cast<std::size_t>(i);
            std::int64_t k = first_edge[at];
            graph.ForEachInEdge(affected[at], [&](NodeId src,
                                                  const float* features) {
              const auto slot = static_cast<std::size_t>(k);
              if (in_place) {
                rows[slot] = input.Row(src);
              } else {
                edge_src[slot] = src;
              }
              dst_local[slot] = i;
              if (uses_edge_features) edge_features.SetRow(k, features);
              ++k;
            });
            INFERTURBO_CHECK(k == first_edge[at + 1])
                << "node " << affected[at] << " walked " << k - first_edge[at]
                << " in-edges; InDegree says "
                << first_edge[at + 1] - first_edge[at];
          }
        });
  }
  std::int64_t width = input.history->cols();
  Tensor messages;
  if (!in_place) {
    // Sources in id order: their rows are read in memory order, and a
    // hub's in-edges (sorted by source) read ascending message rows.
    messages = layer.ComputeMessage(
        input.Gather(Distinct(&edge_src, graph.num_nodes())));
    for (std::size_t k = 0; k < rows.size(); ++k) {
      rows[k] = messages.RowPtr(edge_src[k]);
    }
    width = messages.cols();
  }
  GatherResult gathered;
  {
    TraceSpan fold("incremental/fold");
    gathered = GatherRows(layer, static_cast<std::int64_t>(affected.size()),
                          width, std::move(rows), dst_local, edge_features);
  }
  return layer.ApplyNode(input.Gather(affected), gathered);
}

/// Span names must outlive the trace drain; one literal per layer
/// index, the last shared by every deeper layer.
const char* LayerSpanName(std::int64_t layer) {
  static constexpr const char* kNames[] = {
      "incremental/layer0", "incremental/layer1", "incremental/layer2",
      "incremental/layer3+"};
  return kNames[std::min<std::int64_t>(layer, std::size(kNames) - 1)];
}

Status CheckShapes(const GnnModel& model, const OverlayGraph& graph,
                   const ChunkedRows& features,
                   std::span<const ChunkedRows> history) {
  if (static_cast<std::int64_t>(history.size()) != model.num_layers()) {
    return Status::InvalidArgument(
        "historical states layer count (" + std::to_string(history.size()) +
        ") does not match the model");
  }
  if (features.rows() != graph.num_nodes() ||
      features.cols() != model.input_dim()) {
    return Status::InvalidArgument(
        "features are " + std::to_string(features.rows()) + " x " +
        std::to_string(features.cols()) + "; the graph has " +
        std::to_string(graph.num_nodes()) +
        " nodes and the model reads width " +
        std::to_string(model.input_dim()));
  }
  const std::int64_t old_n = history.empty() ? 0 : history[0].rows();
  if (old_n > graph.num_nodes()) {
    return Status::InvalidArgument(
        "node removals are not supported; rebuild from scratch");
  }
  for (std::int64_t l = 0; l < model.num_layers(); ++l) {
    const ChunkedRows& layer_states = history[static_cast<std::size_t>(l)];
    const LayerSignature& sig = model.layer(l).signature();
    if (layer_states.rows() != old_n ||
        layer_states.cols() != sig.output_dim) {
      return Status::InvalidArgument(
          "historical layer " + std::to_string(l + 1) + " is " +
          std::to_string(layer_states.rows()) + " x " +
          std::to_string(layer_states.cols()) + "; expected " +
          std::to_string(old_n) + " x " + std::to_string(sig.output_dim));
    }
    const std::int64_t edge_width = sig.message_dim - sig.input_dim;
    if (sig.uses_edge_features && graph.edge_feature_dim() != edge_width) {
      return Status::InvalidArgument(
          "layer " + std::to_string(l) + " reads edge features of width " +
          std::to_string(edge_width) + "; the graph carries width " +
          std::to_string(graph.edge_feature_dim()));
    }
  }
  return Status::OK();
}

}  // namespace

LayerStates ComputeLayerStates(const GnnModel& model, const Graph& graph) {
  LayerStates out;
  out.states.reserve(static_cast<std::size_t>(model.num_layers()) + 1);
  out.states.push_back(graph.node_features());
  for (std::int64_t l = 0; l < model.num_layers(); ++l) {
    const GasConv& layer = model.layer(l);
    const Tensor& h = out.states.back();
    Tensor computed;
    if (!layer.MessageIsState()) computed = layer.ComputeMessage(h);
    const Tensor& messages = layer.MessageIsState() ? h : computed;
    std::vector<const float*> rows(graph.edge_src().size());
    for (std::size_t e = 0; e < rows.size(); ++e) {
      rows[e] = messages.RowPtr(graph.edge_src()[e]);
    }
    out.states.push_back(layer.ApplyNode(
        h, GatherRows(layer, h.rows(), messages.cols(), std::move(rows),
                      graph.edge_dst(), graph.edge_features())));
  }
  return out;
}

Result<DeltaPatches> ComputeDeltaPatches(const GnnModel& model,
                                         const OverlayGraph& graph,
                                         const ChunkedRows& features,
                                         std::span<const ChunkedRows> history,
                                         const GraphDelta& delta) {
  const Status shapes = CheckShapes(model, graph, features, history);
  if (!shapes.ok()) return shapes;
  const std::int64_t new_n = graph.num_nodes();
  const std::int64_t old_n = history.empty() ? new_n : history[0].rows();
  const std::vector<NodeId> changed_nodes = SortedUnique(delta.changed_nodes);
  const std::vector<NodeId> changed_in_edges =
      SortedUnique(delta.changed_in_edges);
  for (NodeId v : changed_nodes) {
    if (v < 0 || v >= new_n) {
      return Status::InvalidArgument("changed node out of range");
    }
  }
  for (NodeId v : changed_in_edges) {
    if (v < 0 || v >= new_n) {
      return Status::InvalidArgument("changed destination out of range");
    }
  }

  // dirty[v] = v's *current-layer* state differs from the historical
  // one. Seeds: feature changes and graph growth.
  std::vector<bool> dirty(static_cast<std::size_t>(new_n), false);
  std::vector<NodeId> dirty_list;
  const auto mark = [&dirty, &dirty_list](NodeId v) {
    if (!dirty[static_cast<std::size_t>(v)]) {
      dirty[static_cast<std::size_t>(v)] = true;
      dirty_list.push_back(v);
    }
  };
  for (NodeId v : changed_nodes) mark(v);
  for (NodeId v = old_n; v < new_n; ++v) mark(v);

  DeltaPatches out;
  out.layers.reserve(static_cast<std::size_t>(model.num_layers()));
  for (std::int64_t l = 0; l < model.num_layers(); ++l) {
    TraceSpan span(LayerSpanName(l));
    // Who needs layer l+1 recomputed: every currently-dirty node, every
    // out-neighbor of a dirty node, and every node whose in-edge set
    // changed (their gather differs at every layer).
    std::vector<bool> next_dirty(static_cast<std::size_t>(new_n), false);
    std::vector<NodeId> affected;
    const auto mark_next = [&next_dirty, &affected](NodeId v) {
      if (!next_dirty[static_cast<std::size_t>(v)]) {
        next_dirty[static_cast<std::size_t>(v)] = true;
        affected.push_back(v);
      }
    };
    for (NodeId v : dirty_list) {
      mark_next(v);
      graph.ForEachOutNeighbor(v, mark_next);
    }
    for (NodeId v : changed_in_edges) mark_next(v);
    std::sort(affected.begin(), affected.end());

    // Layer 0 reads the current features everywhere; deeper layers read
    // the previous patch (its ids are exactly the dirty set) over history.
    const LayerInput input =
        l == 0 ? LayerInput{&features, nullptr, nullptr}
               : LayerInput{&history[static_cast<std::size_t>(l) - 1],
                            &out.layers.back(), &dirty};
    out.layers.push_back(
        RowPatch{affected, RecomputeRows(model.layer(l), graph, input,
                                         affected, &out.cone_in_edges)});

    dirty = std::move(next_dirty);
    dirty_list = std::move(affected);
  }
  return out;
}

Result<IncrementalResult> IncrementalInference(
    const GnnModel& model, const Graph& new_graph,
    const LayerStates& old_states, const GraphDelta& delta) {
  if (old_states.num_layers() != model.num_layers()) {
    return Status::InvalidArgument("historical states layer count (" +
                                   std::to_string(old_states.num_layers()) +
                                   ") does not match the model");
  }
  const Tensor& old_features = old_states.states[0];
  if (new_graph.feature_dim() != old_features.cols()) {
    return Status::InvalidArgument(
        "new graph feature_dim " + std::to_string(new_graph.feature_dim()) +
        " differs from the historical width " +
        std::to_string(old_features.cols()));
  }
  // Borrowed views: nothing below outlives this call's arguments.
  const OverlayGraph graph(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &new_graph));
  const ChunkedRows features =
      ChunkedRows::View(new_graph.node_features(), nullptr);
  std::vector<ChunkedRows> history;
  for (std::size_t l = 1; l < old_states.states.size(); ++l) {
    const Tensor& layer_states = old_states.states[l];
    if (layer_states.rows() != old_features.rows()) {
      return Status::InvalidArgument(
          "historical layer " + std::to_string(l) + " has " +
          std::to_string(layer_states.rows()) + " rows for " +
          std::to_string(old_features.rows()) + " nodes");
    }
    history.push_back(ChunkedRows::View(layer_states, nullptr));
  }
  Result<DeltaPatches> patches =
      ComputeDeltaPatches(model, graph, features, history, delta);
  if (!patches.ok()) return patches.status();

  IncrementalResult result;
  result.states.states.reserve(old_states.states.size());
  result.states.states.push_back(new_graph.node_features());
  const std::int64_t new_n = new_graph.num_nodes();
  for (std::size_t l = 1; l < old_states.states.size(); ++l) {
    const Tensor& historical = old_states.states[l];
    const RowPatch& patch = patches->layers[l - 1];
    Tensor next(new_n, historical.cols());
    if (historical.size() > 0) {
      std::memcpy(next.data(), historical.data(), historical.ByteSize());
    }
    for (std::size_t i = 0; i < patch.ids.size(); ++i) {
      next.SetRow(patch.ids[i],
                  patch.rows.RowPtr(static_cast<std::int64_t>(i)));
    }
    result.recomputed_per_layer.push_back(
        static_cast<std::int64_t>(patch.ids.size()));
    result.states.states.push_back(std::move(next));
  }
  if (!patches->layers.empty()) {
    result.final_changed_nodes = std::move(patches->layers.back().ids);
  }
  result.logits = model.PredictLogits(result.states.states.back());
  return result;
}

}  // namespace inferturbo
