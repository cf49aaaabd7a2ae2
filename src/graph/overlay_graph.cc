#include "src/graph/overlay_graph.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "src/common/logging.h"
#include "src/graph/graph_builder.h"

namespace inferturbo {

namespace {

/// Appends `rows` below `into` (which may still be 0 × 0).
void AppendRows(Tensor* into, const Tensor& rows) {
  Tensor grown(into->rows() + rows.rows(), rows.cols());
  if (into->size() > 0) {
    std::memcpy(grown.data(), into->data(), into->ByteSize());
  }
  if (rows.size() > 0) {
    std::memcpy(grown.RowPtr(into->rows()), rows.data(), rows.ByteSize());
  }
  *into = std::move(grown);
}

/// Orders a run's arrival indices by (src, k).
struct BySrc {
  const std::vector<NodeId>* src;
  bool operator()(std::int64_t a, std::int64_t b) const {
    const NodeId sa = (*src)[static_cast<std::size_t>(a)];
    const NodeId sb = (*src)[static_cast<std::size_t>(b)];
    return sa != sb ? sa < sb : a < b;
  }
};

/// Orders a run's arrival indices by (dst, src, k).
struct ByDst {
  const std::vector<NodeId>* src;
  const std::vector<NodeId>* dst;
  bool operator()(std::int64_t a, std::int64_t b) const {
    const NodeId da = (*dst)[static_cast<std::size_t>(a)];
    const NodeId db = (*dst)[static_cast<std::size_t>(b)];
    return da != db ? da < db : BySrc{src}(a, b);
  }
};

/// `older` then `newer` (its indices shifted past older's), merged by
/// `less`: both inputs are sorted and arrival indices never collide.
template <typename Less>
std::vector<std::int64_t> MergeIndex(const std::vector<std::int64_t>& older,
                                     const std::vector<std::int64_t>& newer,
                                     std::int64_t shift, const Less& less) {
  std::vector<std::int64_t> shifted(newer.size());
  std::transform(newer.begin(), newer.end(), shifted.begin(),
                 [shift](std::int64_t k) { return k + shift; });
  std::vector<std::int64_t> out(older.size() + newer.size());
  std::merge(older.begin(), older.end(), shifted.begin(), shifted.end(),
             out.begin(), less);
  return out;
}

}  // namespace

OverlayGraph::OverlayGraph(std::shared_ptr<const Graph> base)
    : base_(std::move(base)), num_nodes_(base_->num_nodes()) {}

std::shared_ptr<const OverlayGraph::Run> OverlayGraph::MergeRuns(
    const Run& older, const Run& newer) {
  auto out = std::make_shared<Run>();
  out->src = older.src;
  out->src.insert(out->src.end(), newer.src.begin(), newer.src.end());
  out->dst = older.dst;
  out->dst.insert(out->dst.end(), newer.dst.begin(), newer.dst.end());
  if (!older.edge_features.empty() || !newer.edge_features.empty()) {
    out->edge_features = older.edge_features;
    AppendRows(&out->edge_features, newer.edge_features);
  }
  out->by_src = MergeIndex(older.by_src, newer.by_src, older.size(),
                           BySrc{&out->src});
  out->by_dst = MergeIndex(older.by_dst, newer.by_dst, older.size(),
                           ByDst{&out->src, &out->dst});
  return out;
}

OverlayGraph OverlayGraph::WithEdges(
    std::int64_t num_nodes, std::span<const std::pair<NodeId, NodeId>> edges,
    const Tensor& edge_features) const {
  INFERTURBO_CHECK(num_nodes >= num_nodes_) << "OverlayGraph cannot shrink";
  OverlayGraph out = *this;
  out.num_nodes_ = num_nodes;
  if (edges.empty()) return out;

  auto run = std::make_shared<Run>();
  for (const auto& [src, dst] : edges) {
    INFERTURBO_CHECK(0 <= src && src < num_nodes && 0 <= dst &&
                     dst < num_nodes)
        << "overlay edge " << src << " -> " << dst << " out of range";
    run->src.push_back(src);
    run->dst.push_back(dst);
  }
  if (base_->has_edge_features()) {
    INFERTURBO_CHECK(
        edge_features.rows() == static_cast<std::int64_t>(edges.size()) &&
        edge_features.cols() == edge_feature_dim())
        << "overlay edges need one edge-feature row each";
    run->edge_features = edge_features;
  }
  run->by_src.resize(edges.size());
  std::iota(run->by_src.begin(), run->by_src.end(), 0);
  run->by_dst = run->by_src;
  std::sort(run->by_src.begin(), run->by_src.end(), BySrc{&run->src});
  std::sort(run->by_dst.begin(), run->by_dst.end(),
            ByDst{&run->src, &run->dst});
  out.overlay_edges_ += run->size();

  // Keep each run more than twice the size of the next: fold the new
  // run into its predecessors while they are no larger than that.
  std::shared_ptr<const Run> merged = std::move(run);
  while (!out.runs_.empty() && out.runs_.back()->size() <= 2 * merged->size()) {
    merged = MergeRuns(*out.runs_.back(), *merged);
    out.runs_.pop_back();
  }
  out.runs_.push_back(std::move(merged));
  INFERTURBO_CHECK(out.runs_.size() <= kMaxRuns);
  return out;
}

bool OverlayGraph::NeedsCompaction() const {
  return num_overlay_edges() >
         kCompactionFloor + base_->num_edges() / kCompactionDivisor;
}

Result<Graph> OverlayGraph::Compact(Tensor node_features) const {
  const Graph& base = *base_;
  const std::int64_t base_n = base.num_nodes();
  GraphBuilder builder(num_nodes_);
  builder.ReserveEdges(static_cast<std::size_t>(num_edges()));
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    builder.AddEdge(base.EdgeSrc(e), base.EdgeDst(e));
  }
  for (const auto& run : runs_) {
    for (std::size_t k = 0; k < run->src.size(); ++k) {
      builder.AddEdge(run->src[k], run->dst[k]);
    }
  }
  builder.SetNodeFeatures(std::move(node_features));

  if (base.has_edge_features()) {
    Tensor edge_features = base.edge_features();
    for (const auto& run : runs_) {
      AppendRows(&edge_features, run->edge_features);
    }
    builder.SetEdgeFeatures(std::move(edge_features));
  }
  if (!base.labels().empty()) {
    std::vector<std::int64_t> labels = base.labels();
    labels.resize(static_cast<std::size_t>(num_nodes_), 0);
    builder.SetLabels(std::move(labels), base.num_classes());
  }
  if (base.is_multi_label()) {
    const Tensor& old_ml = base.multi_labels();
    Tensor multi(num_nodes_, old_ml.cols());
    if (base_n > 0) {
      std::memcpy(multi.data(), old_ml.data(), old_ml.ByteSize());
    }
    builder.SetMultiLabels(std::move(multi));
  }
  builder.SetSplits(base.train_nodes(), base.val_nodes(), base.test_nodes());
  return std::move(builder).Finish();
}

}  // namespace inferturbo
