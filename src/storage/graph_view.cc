#include "src/storage/graph_view.h"

#include <utility>

#include "src/graph/partition.h"

namespace inferturbo {
namespace {

/// Backing storage for an InMemoryGraphView slice: the gathered copies
/// the spans point into, owned by the slice's lease.
struct GatheredPartition {
  std::vector<std::int64_t> nodes;
  std::vector<std::int64_t> out_offsets;
  std::vector<std::int64_t> out_dst;
  std::vector<std::int64_t> out_edge_ids;
  std::vector<float> node_features;
  std::vector<float> edge_features;
  std::vector<std::int64_t> labels;
};

}  // namespace

InMemoryGraphView::InMemoryGraphView(const Graph& graph,
                                     std::int64_t num_partitions)
    : graph_(&graph) {
  members_ = AssignPartitions(graph.num_nodes(),
                              HashPartitioner(num_partitions))
                 .members;
}

std::int64_t InMemoryGraphView::edge_feature_dim() const {
  return graph_->has_edge_features() ? graph_->edge_features().cols() : 0;
}

Result<PartitionSlice> InMemoryGraphView::AcquirePartition(
    std::int64_t partition) const {
  if (partition < 0 || partition >= num_partitions()) {
    return Status::InvalidArgument(
        "partition " + std::to_string(partition) + " out of range [0, " +
        std::to_string(num_partitions()) + ")");
  }
  const Graph& g = *graph_;
  const std::vector<NodeId>& members =
      members_[static_cast<std::size_t>(partition)];
  const std::int64_t fd = g.feature_dim();
  const std::int64_t efd = edge_feature_dim();
  const bool labeled = !g.labels().empty();

  auto data = std::make_shared<GatheredPartition>();
  data->nodes.assign(members.begin(), members.end());
  data->out_offsets.reserve(members.size() + 1);
  data->out_offsets.push_back(0);
  data->node_features.reserve(members.size() *
                              static_cast<std::size_t>(fd));
  for (const NodeId v : members) {
    for (const EdgeId e : g.OutEdges(v)) {
      data->out_dst.push_back(g.EdgeDst(e));
      data->out_edge_ids.push_back(e);
      if (efd > 0) {
        const float* row = g.edge_features().RowPtr(e);
        data->edge_features.insert(data->edge_features.end(), row,
                                   row + efd);
      }
    }
    data->out_offsets.push_back(
        static_cast<std::int64_t>(data->out_dst.size()));
    const float* row = g.node_features().RowPtr(v);
    data->node_features.insert(data->node_features.end(), row, row + fd);
    if (labeled) {
      data->labels.push_back(g.labels()[static_cast<std::size_t>(v)]);
    }
  }

  PartitionSlice slice;
  slice.nodes = data->nodes;
  slice.out_offsets = data->out_offsets;
  slice.out_dst = data->out_dst;
  slice.out_edge_ids = data->out_edge_ids;
  slice.node_features = data->node_features.data();
  slice.edge_features = efd > 0 ? data->edge_features.data() : nullptr;
  slice.labels = data->labels;
  slice.lease = std::move(data);
  return slice;
}

Result<PartitionSlice> ShardGraphView::AcquirePartition(
    std::int64_t partition) const {
  INFERTURBO_ASSIGN_OR_RETURN(ShardLease lease, store_.Map(partition));
  PartitionSlice slice;
  slice.nodes = lease->node_ids();
  slice.out_offsets = lease->out_offsets();
  slice.out_dst = lease->out_dst();
  slice.out_edge_ids = lease->out_edge_ids();
  slice.node_features = lease->node_features();
  slice.edge_features = lease->edge_features();
  slice.labels = lease->labels();
  slice.lease = std::move(lease);
  return slice;
}

}  // namespace inferturbo
