// OverlayGraph walks and compaction against a GraphBuilder rebuild, and
// the serving engine's overlay path under random mutation streams.
#include "src/graph/overlay_graph.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/graph/datasets.h"
#include "src/graph/graph_builder.h"
#include "src/inference/incremental.h"
#include "src/nn/model.h"
#include "src/serving/serving_engine.h"

namespace inferturbo {
namespace {

Dataset SmallDataset(std::int64_t edge_feature_dim) {
  PlantedGraphConfig config;
  config.num_nodes = 60;
  config.avg_degree = 4.0;
  config.num_classes = 3;
  config.feature_dim = 4;
  config.edge_feature_dim = edge_feature_dim;
  config.seed = 17;
  return MakePlantedDataset("overlay", config);
}

bool SameRow(const float* a, const float* b, std::int64_t width) {
  return std::memcmp(a, b, static_cast<std::size_t>(width) * sizeof(float)) ==
         0;
}

bool SameTensor(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.ByteSize()) == 0);
}

/// Every edge the served graph holds, in rebuild order: the initial
/// graph's edges by edge id, then added edges in arrival order.
struct EdgeLog {
  std::vector<std::pair<NodeId, NodeId>> edges;
  Tensor edge_features;

  explicit EdgeLog(const Graph& graph) : edge_features(graph.edge_features()) {
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      edges.emplace_back(graph.EdgeSrc(e), graph.EdgeDst(e));
    }
  }

  void Append(const std::vector<std::pair<NodeId, NodeId>>& added,
              const Tensor& features) {
    edges.insert(edges.end(), added.begin(), added.end());
    if (features.empty()) return;
    Tensor grown(edge_features.rows() + features.rows(), features.cols());
    std::memcpy(grown.data(), edge_features.data(), edge_features.ByteSize());
    std::memcpy(grown.RowPtr(edge_features.rows()), features.data(),
                features.ByteSize());
    edge_features = std::move(grown);
  }

  /// The GraphBuilder rebuild over `node_features`; labels and splits
  /// follow `initial` (appended nodes get label 0).
  Graph Rebuild(const Graph& initial, const Tensor& node_features) const {
    GraphBuilder builder(node_features.rows());
    for (const auto& [src, dst] : edges) builder.AddEdge(src, dst);
    builder.SetNodeFeatures(node_features);
    if (!edge_features.empty()) builder.SetEdgeFeatures(edge_features);
    std::vector<std::int64_t> labels = initial.labels();
    labels.resize(static_cast<std::size_t>(node_features.rows()), 0);
    builder.SetLabels(std::move(labels), initial.num_classes());
    builder.SetSplits(initial.train_nodes(), initial.val_nodes(),
                      initial.test_nodes());
    return std::move(builder).Finish().ValueOrDie();
  }
};

/// A random batch of new edges over `num_nodes` nodes: parallel copies
/// of logged edges, self-loops, and edges to and from the newest node.
std::vector<std::pair<NodeId, NodeId>> RandomEdges(const EdgeLog& log,
                                                   std::int64_t num_nodes,
                                                   Rng* rng) {
  const auto any = [&] {
    return static_cast<NodeId>(
        rng->NextBounded(static_cast<std::uint64_t>(num_nodes)));
  };
  std::vector<std::pair<NodeId, NodeId>> out;
  const std::int64_t count = 1 + static_cast<std::int64_t>(rng->NextBounded(6));
  for (std::int64_t i = 0; i < count; ++i) {
    switch (rng->NextBounded(4)) {
      case 0:  // parallel edge
        out.push_back(log.edges[static_cast<std::size_t>(
            rng->NextBounded(log.edges.size()))]);
        break;
      case 1: {  // self-loop
        const NodeId v = any();
        out.emplace_back(v, v);
        break;
      }
      case 2:
        out.emplace_back(any(), any());
        break;
      default: {  // to or from the newest node
        const NodeId newest = num_nodes - 1;
        if (rng->NextBounded(2) == 0) {
          out.emplace_back(any(), newest);
        } else {
          out.emplace_back(newest, any());
        }
      }
    }
  }
  return out;
}

Tensor RandomRows(std::int64_t rows, std::int64_t cols, Rng* rng) {
  Tensor out(rows, cols);
  for (std::int64_t i = 0; i < out.size(); ++i) {
    out.data()[i] = rng->NextFloat(-1.0f, 1.0f);
  }
  return out;
}

/// Field-by-field comparison of every walk against the rebuild.
void ExpectWalksMatch(const OverlayGraph& graph, const Graph& rebuilt) {
  ASSERT_EQ(graph.num_nodes(), rebuilt.num_nodes());
  ASSERT_EQ(graph.num_edges(), rebuilt.num_edges());
  const std::int64_t width = graph.edge_feature_dim();
  for (NodeId v = 0; v < rebuilt.num_nodes(); ++v) {
    const std::span<const EdgeId> in = rebuilt.InEdges(v);
    std::size_t i = 0;
    graph.ForEachInEdge(v, [&](NodeId src, const float* features) {
      ASSERT_LT(i, in.size()) << "node " << v << " has extra in-edges";
      EXPECT_EQ(src, rebuilt.EdgeSrc(in[i])) << "node " << v << " edge " << i;
      if (width > 0) {
        EXPECT_TRUE(SameRow(features, rebuilt.edge_features().RowPtr(in[i]),
                            width))
            << "node " << v << " edge " << i;
      } else {
        EXPECT_EQ(features, nullptr);
      }
      ++i;
    });
    EXPECT_EQ(i, in.size()) << "node " << v << " misses in-edges";
    EXPECT_EQ(graph.InDegree(v), static_cast<std::int64_t>(i))
        << "node " << v;

    std::vector<NodeId> out;
    graph.ForEachOutNeighbor(v, [&out](NodeId dst) { out.push_back(dst); });
    std::vector<NodeId> expected;
    for (EdgeId e : rebuilt.OutEdges(v)) expected.push_back(rebuilt.EdgeDst(e));
    EXPECT_EQ(out, expected) << "node " << v;
  }
}

void ExpectGraphsEqual(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.edge_src(), b.edge_src());
  EXPECT_EQ(a.edge_dst(), b.edge_dst());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const std::span<const EdgeId> ia = a.InEdges(v), ib = b.InEdges(v);
    EXPECT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin(), ib.end()))
        << "in-edges of " << v;
    const std::span<const EdgeId> oa = a.OutEdges(v), ob = b.OutEdges(v);
    EXPECT_TRUE(std::equal(oa.begin(), oa.end(), ob.begin(), ob.end()))
        << "out-edges of " << v;
  }
  EXPECT_TRUE(SameTensor(a.node_features(), b.node_features()));
  EXPECT_TRUE(SameTensor(a.edge_features(), b.edge_features()));
  EXPECT_EQ(a.labels(), b.labels());
  EXPECT_EQ(a.num_classes(), b.num_classes());
  EXPECT_EQ(a.train_nodes(), b.train_nodes());
  EXPECT_EQ(a.val_nodes(), b.val_nodes());
  EXPECT_EQ(a.test_nodes(), b.test_nodes());
}

class OverlayGraphTest : public ::testing::TestWithParam<std::int64_t> {};

// Random growth streams: after every batch, in-edge order, out-neighbours
// and Compact() match a GraphBuilder rebuild; past the bound the overlay
// is folded into a new base, as the serving engine does.
TEST_P(OverlayGraphTest, WalksAndCompactionMatchRebuild) {
  const Dataset d = SmallDataset(GetParam());
  const Graph& initial = d.graph;
  EdgeLog log(initial);
  Tensor features = initial.node_features();
  OverlayGraph graph(std::make_shared<const Graph>(initial));
  Rng rng(41 + static_cast<std::uint64_t>(GetParam()));
  int compactions = 0;
  for (int step = 0; step < 60; ++step) {
    const std::int64_t fresh = static_cast<std::int64_t>(rng.NextBounded(3));
    const std::int64_t num_nodes = graph.num_nodes() + fresh;
    const Tensor grown_rows = RandomRows(fresh, features.cols(), &rng);
    Tensor grown(num_nodes, features.cols());
    std::memcpy(grown.data(), features.data(), features.ByteSize());
    if (fresh > 0) {
      std::memcpy(grown.RowPtr(features.rows()), grown_rows.data(),
                  grown_rows.ByteSize());
    }
    features = std::move(grown);
    const std::vector<std::pair<NodeId, NodeId>> added =
        RandomEdges(log, num_nodes, &rng);
    const Tensor added_features =
        GetParam() > 0
            ? RandomRows(static_cast<std::int64_t>(added.size()), GetParam(),
                         &rng)
            : Tensor();
    graph = graph.WithEdges(num_nodes, added, added_features);
    log.Append(added, added_features);

    const Graph rebuilt = log.Rebuild(initial, features);
    ExpectWalksMatch(graph, rebuilt);
    const Result<Graph> compacted = graph.Compact(features);
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    ExpectGraphsEqual(*compacted, rebuilt);
    EXPECT_EQ(graph.NeedsCompaction(),
              graph.num_overlay_edges() >
                  OverlayGraph::kCompactionFloor +
                      graph.base().num_edges() /
                          OverlayGraph::kCompactionDivisor);
    if (graph.NeedsCompaction()) {
      graph = OverlayGraph(std::make_shared<const Graph>(*compacted));
      ++compactions;
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(compactions, 0);
}

// A long stream of small batches and no compaction: the overlay's runs
// merge many times over, and a copy taken midway keeps its own walks
// while later batches extend the graph it shares runs with.
TEST_P(OverlayGraphTest, LongStreamKeepsWalksAndSharedCopies) {
  const Dataset d = SmallDataset(GetParam());
  const Graph& initial = d.graph;
  EdgeLog log(initial);
  OverlayGraph graph(std::make_shared<const Graph>(initial));
  Rng rng(97 + static_cast<std::uint64_t>(GetParam()));
  OverlayGraph midway;
  EdgeLog midway_log(initial);
  for (int step = 0; step < 300; ++step) {
    const std::vector<std::pair<NodeId, NodeId>> added =
        RandomEdges(log, graph.num_nodes(), &rng);
    const Tensor added_features =
        GetParam() > 0
            ? RandomRows(static_cast<std::int64_t>(added.size()), GetParam(),
                         &rng)
            : Tensor();
    graph = graph.WithEdges(graph.num_nodes(), added, added_features);
    log.Append(added, added_features);
    if (step % 10 == 0) {
      ExpectWalksMatch(graph, log.Rebuild(initial, initial.node_features()));
    }
    if (step == 150) {
      midway = graph;
      midway_log = log;
    }
    if (HasFailure()) return;
  }
  EXPECT_EQ(graph.num_overlay_edges(),
            static_cast<std::int64_t>(log.edges.size()) - initial.num_edges());
  ExpectWalksMatch(graph, log.Rebuild(initial, initial.node_features()));
  ExpectWalksMatch(midway,
                   midway_log.Rebuild(initial, initial.node_features()));
}

// Walks are read-only: 4 threads walking every node of one multi-run
// overlay at once each see exactly the serial walk.
TEST_P(OverlayGraphTest, ConcurrentWalksMatchSerialWalk) {
  const Dataset d = SmallDataset(GetParam());
  EdgeLog log(d.graph);
  OverlayGraph graph(std::make_shared<const Graph>(d.graph));
  Rng rng(5 + static_cast<std::uint64_t>(GetParam()));
  // Batches of 64, 8 and 1 edges: each run is more than twice the size
  // of the next, so none merge and the overlay holds three runs.
  for (const std::size_t size : {64, 8, 1}) {
    std::vector<std::pair<NodeId, NodeId>> added;
    while (added.size() < size) {
      const std::vector<std::pair<NodeId, NodeId>> more =
          RandomEdges(log, graph.num_nodes() + 1, &rng);
      added.insert(added.end(), more.begin(), more.end());
    }
    added.resize(size);
    const Tensor added_features =
        GetParam() > 0
            ? RandomRows(static_cast<std::int64_t>(size), GetParam(), &rng)
            : Tensor();
    graph = graph.WithEdges(graph.num_nodes() + 1, added, added_features);
    log.Append(added, added_features);
  }
  using Walk = std::vector<std::pair<NodeId, const float*>>;
  const auto walk_all = [&graph] {
    std::vector<Walk> walks(static_cast<std::size_t>(graph.num_nodes()));
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      graph.ForEachInEdge(v, [&](NodeId src, const float* features) {
        walks[static_cast<std::size_t>(v)].emplace_back(src, features);
      });
    }
    return walks;
  };
  const std::vector<Walk> serial = walk_all();
  std::vector<std::vector<Walk>> concurrent(4);
  std::vector<std::thread> threads;
  for (std::vector<Walk>& walks : concurrent) {
    threads.emplace_back([&walks, &walk_all] { walks = walk_all(); });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<Walk>& walks : concurrent) {
    EXPECT_TRUE(walks == serial);
  }
  ExpectWalksMatch(graph, log.Rebuild(d.graph, RandomRows(graph.num_nodes(),
                                                          d.graph.feature_dim(),
                                                          &rng)));
}

INSTANTIATE_TEST_SUITE_P(EdgeFeatureWidths, OverlayGraphTest,
                         ::testing::Values(0, 2));

// The serving engine under a random mutation stream: every generation's
// graph_snapshot() equals the rebuild (features last-write-wins), and
// every served logit equals a from-scratch forward over it.
TEST(OverlayServingTest, MutationStreamMatchesRebuild) {
  const Dataset d = SmallDataset(/*edge_feature_dim=*/2);
  const Graph& initial = d.graph;
  ModelConfig config;
  config.input_dim = initial.feature_dim();
  config.hidden_dim = 6;
  config.num_classes = initial.num_classes();
  config.num_layers = 2;
  config.edge_feature_dim = initial.edge_features().cols();
  const std::unique_ptr<GnnModel> model =
      MakeModel("edge_sage", config).ValueOrDie();
  ServingOptions options;
  options.batch_window_seconds = 0.0;
  ServingEngine engine(model.get(), Graph(initial), options);

  EdgeLog log(initial);
  Tensor features = initial.node_features();
  Rng rng(7);
  for (int step = 0; step < 40; ++step) {
    GraphMutation mutation;
    const std::int64_t old_n = features.rows();
    // Refresh one node twice and another once: the last row must win.
    const NodeId twice = static_cast<NodeId>(rng.NextBounded(
        static_cast<std::uint64_t>(old_n)));
    const NodeId once = static_cast<NodeId>(rng.NextBounded(
        static_cast<std::uint64_t>(old_n)));
    for (const NodeId v : {twice, once, twice}) {
      const Tensor row = RandomRows(1, features.cols(), &rng);
      mutation.feature_updates.emplace_back(
          v, std::vector<float>(row.data(), row.data() + row.cols()));
    }
    const std::int64_t fresh = static_cast<std::int64_t>(rng.NextBounded(2));
    for (std::int64_t i = 0; i < fresh; ++i) {
      const Tensor row = RandomRows(1, features.cols(), &rng);
      mutation.new_node_features.emplace_back(row.data(),
                                              row.data() + row.cols());
    }
    const std::int64_t new_n = old_n + fresh;
    mutation.new_edges = RandomEdges(log, new_n, &rng);
    mutation.new_edge_features = RandomRows(
        static_cast<std::int64_t>(mutation.new_edges.size()), 2, &rng);
    ASSERT_TRUE(engine.ApplyMutation(mutation).ok()) << "step " << step;

    Tensor next(new_n, features.cols());
    std::memcpy(next.data(), features.data(), features.ByteSize());
    for (const auto& [v, row] : mutation.feature_updates) {
      next.SetRow(v, row.data());
    }
    for (std::int64_t i = 0; i < fresh; ++i) {
      next.SetRow(old_n + i,
                  mutation.new_node_features[static_cast<std::size_t>(i)]
                      .data());
    }
    features = std::move(next);
    log.Append(mutation.new_edges, mutation.new_edge_features);
    const Graph rebuilt = log.Rebuild(initial, features);

    // Read the generation through its overlay, then (every third step)
    // through a snapshot; the next delta still extends the overlay.
    ExpectWalksMatch(engine.Pin()->graph(), rebuilt);
    EXPECT_TRUE(SameTensor(engine.Pin()->states(0).ToTensor(), features));
    std::vector<NodeId> all(static_cast<std::size_t>(new_n));
    std::iota(all.begin(), all.end(), 0);
    const Result<QueryResponse> served = engine.Query(all);
    ASSERT_TRUE(served.ok());
    const LayerStates expected = ComputeLayerStates(*model, rebuilt);
    EXPECT_TRUE(SameTensor(served->logits,
                           model->PredictLogits(expected.states.back())))
        << "step " << step;
    if (step % 3 == 0) ExpectGraphsEqual(*engine.graph_snapshot(), rebuilt);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace inferturbo
