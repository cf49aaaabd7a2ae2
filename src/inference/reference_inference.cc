#include "src/inference/reference_inference.h"

#include <algorithm>
#include <vector>

#include "src/common/logging.h"
#include "src/gas/gas_conv.h"
#include "src/gas/message.h"
#include "src/tensor/ops.h"

namespace inferturbo {
namespace {

/// The reference's pooled gather: the scalar fold in edge order, kept
/// apart from the fold kernel the backends run so the oracle never
/// shares the path it checks. Mean divides by the count at the end;
/// isolated nodes read zero.
GatherResult ReferencePooledGather(AggKind kind, const Tensor& edge_messages,
                                   std::span<const std::int64_t> dst_index,
                                   std::int64_t num_nodes) {
  const std::int64_t width = edge_messages.cols();
  // One row pointer per message row; the fold checks one per dst index.
  std::vector<const float*> rows(
      static_cast<std::size_t>(edge_messages.rows()));
  for (std::size_t e = 0; e < rows.size(); ++e) {
    rows[e] = edge_messages.RowPtr(static_cast<std::int64_t>(e));
  }
  GatherResult result;
  result.kind = kind;
  result.pooled = Tensor::Full(num_nodes, width, PooledInitValue(kind));
  result.counts.assign(static_cast<std::size_t>(num_nodes), 0);
  ScalarPooledFold(kind, width, width, dst_index, rows, {},
                   result.pooled.data(), result.counts);
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

void ScalarPooledFold(AggKind kind, std::int64_t width, std::int64_t stride,
                      std::span<const std::int64_t> segs,
                      std::span<const float* const> rows,
                      std::span<const std::int64_t> counts, float* acc,
                      std::span<std::int64_t> seg_counts) {
  INFERTURBO_CHECK(kind != AggKind::kUnion)
      << "a union aggregate keeps its per-edge rows";
  INFERTURBO_CHECK(segs.size() == rows.size() &&
                   (counts.empty() || counts.size() == rows.size()))
      << "fold has " << segs.size() << " segments and " << counts.size()
      << " counts for " << rows.size() << " rows";
  const auto num_segs = static_cast<std::int64_t>(seg_counts.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::int64_t s = segs[i];
    INFERTURBO_CHECK(0 <= s && s < num_segs)
        << "fold segment " << s << " out of [0," << num_segs << ")";
    const float* row = rows[i];
    float* out = acc + s * stride;
    switch (kind) {
      case AggKind::kMax:
        for (std::int64_t j = 0; j < width; ++j) {
          out[j] = std::max(out[j], row[j]);
        }
        break;
      case AggKind::kMin:
        for (std::int64_t j = 0; j < width; ++j) {
          out[j] = std::min(out[j], row[j]);
        }
        break;
      default:  // sum, and mean as a running sum
        for (std::int64_t j = 0; j < width; ++j) out[j] += row[j];
        break;
    }
    seg_counts[static_cast<std::size_t>(s)] += counts.empty() ? 1 : counts[i];
  }
}

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
            : ReferencePooledGather(kind, edge_messages, dst_index, num_nodes);
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
