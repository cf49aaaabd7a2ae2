#ifndef INFERTURBO_GRAPH_OVERLAY_GRAPH_H_
#define INFERTURBO_GRAPH_OVERLAY_GRAPH_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/graph/graph.h"
#include "src/tensor/tensor.h"

namespace inferturbo {

/// A graph that only grows: an immutable base Graph plus an overlay of
/// the edges (and edge-feature rows) added since the base was built, and
/// a node range that may extend past the base's.
///
/// Every walk matches the Graph that GraphBuilder would build from the
/// base's edges in edge-id order followed by the overlay edges in
/// arrival order (Compact() builds exactly that graph). In particular
/// ForEachInEdge visits a node's in-edges in that graph's edge-id order
/// — by source, base edges before overlay edges for one source, overlay
/// edges in arrival order — so a fold over it is bit-identical to a
/// fold over the rebuilt graph.
///
/// The overlay is a list of immutable sorted runs in arrival order,
/// each more than twice the size of the next. WithEdges() adds the new
/// edges as one run and merges it into its predecessors while they are
/// at most twice its size, so an edge is copied O(log overlay) times
/// over its life, there are at most log2(overlay) + 1 runs, and copies
/// of a graph share the base and every run.
class OverlayGraph {
 public:
  /// Compaction bound: the overlay may hold kCompactionFloor edges plus
  /// one per kCompactionDivisor base edges.
  static constexpr std::int64_t kCompactionFloor = 64;
  static constexpr std::int64_t kCompactionDivisor = 8;

  OverlayGraph() = default;
  explicit OverlayGraph(std::shared_ptr<const Graph> base);

  const Graph& base() const { return *base_; }

  std::int64_t num_nodes() const { return num_nodes_; }
  std::int64_t num_overlay_edges() const { return overlay_edges_; }
  std::int64_t num_edges() const {
    return base_->num_edges() + num_overlay_edges();
  }
  /// Edge-feature width (0 when the graph carries none).
  std::int64_t edge_feature_dim() const {
    return base_->edge_features().cols();
  }

  /// This graph plus `edges` (after every existing overlay edge, in the
  /// given order) over `num_nodes` (>= num_nodes()) nodes.
  /// `edge_features` holds one row per edge when the graph carries edge
  /// features and is empty otherwise. Endpoints must be in range.
  OverlayGraph WithEdges(std::int64_t num_nodes,
                         std::span<const std::pair<NodeId, NodeId>> edges,
                         const Tensor& edge_features) const;

  /// True once the overlay outgrows its bound (see kCompactionFloor):
  /// the floor keeps tiny graphs from rebuilding on every change.
  bool NeedsCompaction() const;

  /// The rebuilt Graph: base edges in edge-id order, then the overlay
  /// edges in arrival order, with `node_features` (num_nodes() rows).
  /// Labels of appended nodes are 0 (multi-label rows all zero); the
  /// splits are the base's.
  Result<Graph> Compact(Tensor node_features) const;

  /// fn(dst) for every out-edge of `u` (base edges, then overlay edges
  /// in arrival order).
  template <typename Fn>
  void ForEachOutNeighbor(NodeId u, Fn&& fn) const {
    if (u < base_->num_nodes()) {
      for (EdgeId e : base_->OutEdges(u)) fn(base_->EdgeDst(e));
    }
    for (const auto& run : runs_) {
      const auto [lo, hi] = RunRange(run->by_src, run->src, u);
      for (auto it = lo; it != hi; ++it) {
        fn(run->dst[static_cast<std::size_t>(*it)]);
      }
    }
  }

  /// How many in-edges ForEachInEdge(v) visits: the base degree plus
  /// v's in-edges in every run.
  std::int64_t InDegree(NodeId v) const {
    std::int64_t degree = v < base_->num_nodes() ? base_->InDegree(v) : 0;
    for (const auto& run : runs_) {
      const auto [lo, hi] = RunRange(run->by_dst, run->dst, v);
      degree += hi - lo;
    }
    return degree;
  }

  /// fn(src, edge_feature_row) for every in-edge of `v`, in the rebuilt
  /// graph's edge-id order. edge_feature_row is nullptr when the graph
  /// carries no edge features.
  template <typename Fn>
  void ForEachInEdge(NodeId v, Fn&& fn) const {
    const bool features = base_->has_edge_features();
    // One cursor per run over its in-edges of v, sorted by source.
    struct Cursor {
      const std::int64_t* at;
      const std::int64_t* end;
      const Run* run;
      NodeId head() const { return run->src[static_cast<std::size_t>(*at)]; }
    };
    std::array<Cursor, kMaxRuns> cursors;
    std::size_t live = 0;
    for (const auto& run : runs_) {
      const auto [lo, hi] = RunRange(run->by_dst, run->dst, v);
      if (lo != hi) cursors[live++] = Cursor{lo, hi, run.get()};
    }
    // The next overlay edge: smallest source, the earliest run on ties
    // (runs are in arrival order).
    const auto next = [&cursors, live]() -> Cursor* {
      Cursor* best = nullptr;
      for (std::size_t i = 0; i < live; ++i) {
        Cursor& c = cursors[i];
        if (c.at != c.end && (best == nullptr || c.head() < best->head())) {
          best = &c;
        }
      }
      return best;
    };
    const auto emit = [&fn, features](Cursor* c) {
      const std::int64_t k = *c->at++;
      fn(c->run->src[static_cast<std::size_t>(k)],
         features ? c->run->edge_features.RowPtr(k) : nullptr);
    };
    Cursor* best = next();
    if (v < base_->num_nodes()) {
      // Base edges go first unless an overlay edge has a strictly
      // smaller source. In-edge ids scatter over edge_src: fetch the
      // source kInEdgePrefetch edges ahead.
      const std::span<const EdgeId> in = base_->InEdges(v);
      const NodeId* edge_src = base_->edge_src().data();
      for (std::size_t j = 0; j < in.size(); ++j) {
        if (j + kInEdgePrefetch < in.size()) {
          __builtin_prefetch(edge_src + in[j + kInEdgePrefetch]);
        }
        const EdgeId e = in[j];
        const NodeId src = edge_src[e];
        for (; best != nullptr && best->head() < src; best = next()) {
          emit(best);
        }
        fn(src, features ? base_->edge_features().RowPtr(e) : nullptr);
      }
    }
    for (; best != nullptr; best = next()) emit(best);
  }

 private:
  /// Runs hold more than twice the edges of the next, so 64 covers any
  /// overlay that fits in memory.
  static constexpr std::size_t kMaxRuns = 64;
  /// How far ahead ForEachInEdge's base loop prefetches a source id.
  static constexpr std::size_t kInEdgePrefetch = 16;

  /// Overlay edges of one run, indexed by arrival order k within it.
  struct Run {
    std::vector<NodeId> src;
    std::vector<NodeId> dst;
    Tensor edge_features;  // row k = edge k; empty without edge features
    /// Arrival indices sorted by (src, k) and by (dst, src, k).
    std::vector<std::int64_t> by_src;
    std::vector<std::int64_t> by_dst;

    std::int64_t size() const { return static_cast<std::int64_t>(src.size()); }
  };

  /// The run of `index` whose key[k] equals `node` (`index` is sorted
  /// by key first).
  static std::pair<const std::int64_t*, const std::int64_t*> RunRange(
      const std::vector<std::int64_t>& index, const std::vector<NodeId>& key,
      NodeId node) {
    const auto at = [&key](std::int64_t k) {
      return key[static_cast<std::size_t>(k)];
    };
    const auto lo = std::lower_bound(
        index.begin(), index.end(), node,
        [&at](std::int64_t k, NodeId n) { return at(k) < n; });
    const auto hi = std::upper_bound(
        lo, index.end(), node,
        [&at](NodeId n, std::int64_t k) { return n < at(k); });
    return {index.data() + (lo - index.begin()),
            index.data() + (hi - index.begin())};
  }

  /// `older` followed by `newer`, as one run.
  static std::shared_ptr<const Run> MergeRuns(const Run& older,
                                              const Run& newer);

  std::shared_ptr<const Graph> base_;
  std::vector<std::shared_ptr<const Run>> runs_;  // arrival order
  std::int64_t overlay_edges_ = 0;
  std::int64_t num_nodes_ = 0;
};

}  // namespace inferturbo

#endif  // INFERTURBO_GRAPH_OVERLAY_GRAPH_H_
