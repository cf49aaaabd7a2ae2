#include "src/inference/reference_inference.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/gas/gas_conv.h"
#include "src/tensor/ops.h"

namespace inferturbo {
namespace {

/// The reference's own pooled gather: a plain loop per edge, kept apart
/// from the fold kernel the backends run so the oracle never shares the
/// path it checks. Edge i folds into dst_index[i] in ascending i; mean
/// divides by the count at the end; isolated nodes read zero.
GatherResult ScalarPooledGather(AggKind kind, const Tensor& edge_messages,
                                std::span<const std::int64_t> dst_index,
                                std::int64_t num_nodes) {
  INFERTURBO_CHECK(static_cast<std::int64_t>(dst_index.size()) ==
                   edge_messages.rows())
      << "one dst index per edge message";
  const std::int64_t width = edge_messages.cols();
  const float init = kind == AggKind::kMax
                         ? -std::numeric_limits<float>::infinity()
                     : kind == AggKind::kMin
                         ? std::numeric_limits<float>::infinity()
                         : 0.0f;
  GatherResult result;
  result.kind = kind;
  result.pooled = Tensor::Full(num_nodes, width, init);
  result.counts.assign(static_cast<std::size_t>(num_nodes), 0);
  for (std::size_t i = 0; i < dst_index.size(); ++i) {
    const std::int64_t v = dst_index[i];
    INFERTURBO_CHECK(0 <= v && v < num_nodes) << "dst index out of range";
    const float* row = edge_messages.RowPtr(static_cast<std::int64_t>(i));
    float* acc = result.pooled.RowPtr(v);
    for (std::int64_t j = 0; j < width; ++j) {
      acc[j] = kind == AggKind::kMax   ? std::max(acc[j], row[j])
               : kind == AggKind::kMin ? std::min(acc[j], row[j])
                                       : acc[j] + row[j];
    }
    ++result.counts[static_cast<std::size_t>(v)];
  }
  for (std::int64_t v = 0; v < num_nodes; ++v) {
    float* acc = result.pooled.RowPtr(v);
    const std::int64_t count = result.counts[static_cast<std::size_t>(v)];
    for (std::int64_t j = 0; j < width; ++j) {
      if (count == 0) {
        acc[j] = 0.0f;
      } else if (kind == AggKind::kMean) {
        acc[j] *= 1.0f / static_cast<float>(count);
      }
    }
  }
  return result;
}

}  // namespace

Tensor LayerStackForward(const GnnModel& model, const Tensor& features,
                         std::span<const std::int64_t> src_index,
                         std::span<const std::int64_t> dst_index,
                         const Tensor* edge_features) {
  INFERTURBO_CHECK(src_index.size() == dst_index.size())
      << "edge index length mismatch";
  const std::int64_t num_nodes = features.rows();
  Tensor h = features;
  for (std::int64_t l = 0; l < model.num_layers(); ++l) {
    const GasConv& layer = model.layer(l);
    const AggKind kind = layer.signature().agg_kind;
    // scatter: per-node message content, then per-edge rows merged with
    // edge features by apply_edge.
    const Tensor node_messages = layer.ComputeMessage(h);
    Tensor edge_messages = GatherRows(node_messages, src_index);
    if (layer.signature().uses_edge_features) {
      INFERTURBO_CHECK(edge_features != nullptr &&
                       edge_features->rows() ==
                           static_cast<std::int64_t>(src_index.size()))
          << "layer " << l << " requires per-edge features";
      edge_messages = layer.ApplyEdge(edge_messages, edge_features);
    } else {
      edge_messages = layer.ApplyEdge(edge_messages, nullptr);
    }
    // gather + apply_node.
    const GatherResult gathered =
        kind == AggKind::kUnion
            ? GatherIntoResult(kind, edge_messages, dst_index, num_nodes)
            : ScalarPooledGather(kind, edge_messages, dst_index, num_nodes);
    h = layer.ApplyNode(h, gathered);
  }
  return h;
}

Tensor FullGraphReferenceLogits(const GnnModel& model, const Graph& graph) {
  const Tensor states = LayerStackForward(
      model, graph.node_features(), graph.edge_src(), graph.edge_dst(),
      graph.has_edge_features() ? &graph.edge_features() : nullptr);
  return model.PredictLogits(states);
}

}  // namespace inferturbo
