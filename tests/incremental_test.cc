#include "src/inference/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/graph/datasets.h"
#include "src/graph/graph_builder.h"
#include "src/inference/reference_inference.h"
#include "src/nn/model.h"
#include "src/telemetry/trace.h"
#include "src/tensor/kernels/kernel_config.h"

namespace inferturbo {
namespace {

// Must run before the first StaticExecutor::Default() call in this
// process, so a 1-core host still runs 4 executor threads and the
// parallel cone walk and fold really split.
const bool g_exec_env = [] {
  ::setenv("INFERTURBO_EXEC_THREADS", "4", /*overwrite=*/1);
  return true;
}();

Dataset BaseDataset() {
  PlantedGraphConfig config;
  config.num_nodes = 500;
  config.avg_degree = 6.0;
  config.num_classes = 3;
  config.feature_dim = 8;
  config.seed = 77;
  return MakePlantedDataset("incremental-base", config);
}

std::unique_ptr<GnnModel> SmallModel(const Graph& g,
                                     const std::string& kind = "sage") {
  ModelConfig config;
  config.input_dim = g.feature_dim();
  config.hidden_dim = 8;
  config.num_classes = g.num_classes();
  config.num_layers = 2;
  config.heads = 2;
  return MakeModel(kind, config).ValueOrDie();
}

/// Rebuilds `graph` with `feature_patch` rows replaced and
/// `extra_edges` appended (with zero edge-feature rows when the graph
/// carries edge features).
Graph MutateGraph(const Graph& graph,
                  const std::vector<std::pair<NodeId, float>>& feature_patch,
                  const std::vector<std::pair<NodeId, NodeId>>& extra_edges) {
  GraphBuilder builder(graph.num_nodes());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    builder.AddEdge(graph.EdgeSrc(e), graph.EdgeDst(e));
  }
  for (const auto& [src, dst] : extra_edges) builder.AddEdge(src, dst);
  if (graph.has_edge_features()) {
    const Tensor& old_rows = graph.edge_features();
    Tensor edge_features(
        graph.num_edges() + static_cast<std::int64_t>(extra_edges.size()),
        old_rows.cols());
    std::memcpy(edge_features.data(), old_rows.data(), old_rows.ByteSize());
    builder.SetEdgeFeatures(std::move(edge_features));
  }
  Tensor features = graph.node_features();
  for (const auto& [v, value] : feature_patch) {
    for (std::int64_t j = 0; j < features.cols(); ++j) {
      features.At(v, j) = value + static_cast<float>(j);
    }
  }
  builder.SetNodeFeatures(std::move(features));
  builder.SetLabels(graph.labels(), graph.num_classes());
  return std::move(builder).Finish().ValueOrDie();
}

Dataset EdgeFeaturedDataset() {
  PlantedGraphConfig config;
  config.num_nodes = 300;
  config.avg_degree = 6.0;
  config.num_classes = 3;
  config.feature_dim = 8;
  config.edge_feature_dim = 3;
  config.seed = 79;
  return MakePlantedDataset("incremental-edge", config);
}

std::unique_ptr<GnnModel> EdgeModel(const Graph& g) {
  ModelConfig config;
  config.input_dim = g.feature_dim();
  config.hidden_dim = 8;
  config.num_classes = g.num_classes();
  config.num_layers = 2;
  config.edge_feature_dim = g.edge_features().cols();
  return MakeModel("edge_sage", config).ValueOrDie();
}

/// CRC over every layer's bytes, layer 0 first.
std::uint32_t StatesCrc(const LayerStates& states) {
  std::uint32_t crc = 0;
  for (const Tensor& t : states.states) {
    crc = Crc32(t.data(), t.ByteSize(), crc);
  }
  return crc;
}

TEST(IncrementalTest, LayerStatesMatchReferenceForward) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  const LayerStates states = ComputeLayerStates(*model, d.graph);
  ASSERT_EQ(states.num_layers(), 2);
  const Tensor reference = LayerStackForward(
      *model, d.graph.node_features(), d.graph.edge_src(),
      d.graph.edge_dst());
  EXPECT_TRUE(states.states.back().ApproxEquals(reference, 0.0f));
}

// Golden bytes of the full layer-wise forward: the pooled fold (SAGE),
// the union path (GAT) and the edge-feature path (edge SAGE). A change
// to how messages are folded must reproduce these exactly.
TEST(IncrementalTest, LayerStatesBytesArePinned) {
  const Dataset d = BaseDataset();
  EXPECT_EQ(StatesCrc(ComputeLayerStates(*SmallModel(d.graph, "sage"),
                                         d.graph)),
            0xe8ac9724u);
  EXPECT_EQ(StatesCrc(ComputeLayerStates(*SmallModel(d.graph, "gat"),
                                         d.graph)),
            0xa220dc91u);
  const Dataset e = EdgeFeaturedDataset();
  EXPECT_EQ(StatesCrc(ComputeLayerStates(*EdgeModel(e.graph), e.graph)),
            0x63621f74u);
}

// Every layer kind: identity messages read in place (sage, gcn, gin),
// computed messages (gat's union, pool_sage's max) and per-edge
// apply_edge rows (edge_sage).
TEST(IncrementalTest, FeatureChangeMatchesFullRecompute) {
  const Dataset base = BaseDataset();
  const Dataset edged = EdgeFeaturedDataset();
  for (const std::string kind :
       {"sage", "gcn", "gat", "gin", "pool_sage", "edge_sage"}) {
    const bool edge = kind == "edge_sage";
    const Dataset& d = edge ? edged : base;
    const std::unique_ptr<GnnModel> model =
        edge ? EdgeModel(d.graph) : SmallModel(d.graph, kind);
    const LayerStates old_states = ComputeLayerStates(*model, d.graph);

    const Graph mutated = MutateGraph(d.graph, {{17, 0.5f}, {230, -1.25f}},
                                      {});
    GraphDelta delta;
    delta.changed_nodes = {17, 230};
    const Result<IncrementalResult> incremental =
        IncrementalInference(*model, mutated, old_states, delta);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();

    const LayerStates fresh = ComputeLayerStates(*model, mutated);
    for (std::size_t l = 0; l < fresh.states.size(); ++l) {
      EXPECT_TRUE(incremental->states.states[l].ApproxEquals(
          fresh.states[l], 0.0f))
          << kind << " layer " << l << " diverged (must be bit-identical)";
    }
    EXPECT_TRUE(incremental->logits.ApproxEquals(
        model->PredictLogits(fresh.states.back()), 0.0f));
  }
}

// With three layers, the out-neighbours of a changed node read its
// layer-1 and layer-2 rows from the delta's own patches; history still
// holds the old rows, so reading it would diverge.
TEST(IncrementalTest, ConeSourcesReadTheDeltaPatch) {
  const Dataset d = BaseDataset();
  for (const std::string kind : {"sage", "gat"}) {
    ModelConfig config;
    config.input_dim = d.graph.feature_dim();
    config.hidden_dim = 8;
    config.num_classes = d.graph.num_classes();
    config.num_layers = 3;
    config.heads = 2;
    const std::unique_ptr<GnnModel> model =
        MakeModel(kind, config).ValueOrDie();
    const LayerStates old_states = ComputeLayerStates(*model, d.graph);
    const NodeId changed = 17;
    const Graph mutated = MutateGraph(d.graph, {{changed, 0.5f}}, {});
    const LayerStates fresh = ComputeLayerStates(*model, mutated);
    ASSERT_GT(mutated.OutDegree(changed), 0);
    for (std::size_t l = 1; l < 3; ++l) {
      ASSERT_FALSE(std::equal(
          fresh.states[l].RowPtr(changed),
          fresh.states[l].RowPtr(changed) + fresh.states[l].cols(),
          old_states.states[l].RowPtr(changed)))
          << kind << ": the patched layer-" << l << " row equals history";
    }

    GraphDelta delta;
    delta.changed_nodes = {changed};
    const Result<IncrementalResult> incremental =
        IncrementalInference(*model, mutated, old_states, delta);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    for (std::size_t l = 0; l < fresh.states.size(); ++l) {
      EXPECT_TRUE(incremental->states.states[l].ApproxEquals(
          fresh.states[l], 0.0f))
          << kind << " layer " << l << " diverged (must be bit-identical)";
    }
  }
}

// A node the delta appends, whose in-edges exist only in the overlay,
// is a cone source at every layer: history has no row for it, so each
// layer must read it from the previous patch. Every patched row equals
// a from-scratch pass over the compacted graph, and every other row
// equals history.
TEST(IncrementalTest, AppendedOverlaySourceMatchesFullRecompute) {
  const Dataset d = BaseDataset();
  const std::int64_t old_n = d.graph.num_nodes();
  const NodeId appended = old_n;
  const std::vector<std::pair<NodeId, NodeId>> added = {
      {5, appended}, {311, appended}, {appended, 42}, {appended, 7}};
  const OverlayGraph graph =
      OverlayGraph(std::make_shared<const Graph>(d.graph))
          .WithEdges(old_n + 1, added, Tensor());
  Tensor features(old_n + 1, d.graph.feature_dim());
  std::memcpy(features.data(), d.graph.node_features().data(),
              d.graph.node_features().ByteSize());
  for (std::int64_t j = 0; j < features.cols(); ++j) {
    features.At(appended, j) = 0.25f * static_cast<float>(j) - 1.0f;
  }
  const Result<Graph> rebuilt = graph.Compact(features);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();

  for (const std::string kind : {"sage", "gat"}) {
    const std::unique_ptr<GnnModel> model = SmallModel(d.graph, kind);
    const LayerStates old_states = ComputeLayerStates(*model, d.graph);
    const LayerStates fresh = ComputeLayerStates(*model, *rebuilt);
    std::vector<ChunkedRows> history;
    for (std::size_t l = 1; l < old_states.states.size(); ++l) {
      history.push_back(ChunkedRows::View(old_states.states[l], nullptr));
    }
    GraphDelta delta;
    delta.changed_nodes = {appended};
    delta.changed_in_edges = {appended, 42, 7};
    const Result<DeltaPatches> patches = ComputeDeltaPatches(
        *model, graph, ChunkedRows::View(features, nullptr), history, delta);
    ASSERT_TRUE(patches.ok()) << patches.status().ToString();

    for (std::size_t l = 0; l < patches->layers.size(); ++l) {
      const RowPatch& patch = patches->layers[l];
      const Tensor& expected = fresh.states[l + 1];
      ASSERT_TRUE(std::binary_search(patch.ids.begin(), patch.ids.end(),
                                     appended));
      for (NodeId v = 0; v < old_n + 1; ++v) {
        const auto it =
            std::lower_bound(patch.ids.begin(), patch.ids.end(), v);
        const float* got =
            it != patch.ids.end() && *it == v
                ? patch.rows.RowPtr(it - patch.ids.begin())
                : old_states.states[l + 1].RowPtr(v);
        EXPECT_EQ(std::memcmp(got, expected.RowPtr(v),
                              static_cast<std::size_t>(expected.cols()) *
                                  sizeof(float)),
                  0)
            << kind << " layer " << l + 1 << " node " << v;
      }
    }
  }
}

// A served delta gives the same bytes at any thread count. One hub
// holds more than a quarter of the cone's in-edges, most of them in two
// overlay runs, and two appended nodes join the graph; the walk and the
// fold then run as 4 tasks cut by in-edge and row counts, and every
// patched row must equal both the 1-task patch and a full pass over the
// rebuilt graph.
TEST(IncrementalTest, ConeIsByteIdenticalAcrossThreadCounts) {
  const Dataset base = BaseDataset();
  const Dataset edged = EdgeFeaturedDataset();
  const kernels::KernelConfig saved = kernels::GetKernelConfig();
  for (const std::string kind : {"sage", "pool_sage", "gat", "edge_sage"}) {
    const bool edge = kind == "edge_sage";
    const Dataset& d = edge ? edged : base;
    const std::unique_ptr<GnnModel> model =
        edge ? EdgeModel(d.graph) : SmallModel(d.graph, kind);
    const std::int64_t old_n = d.graph.num_nodes();
    const std::int64_t edge_dim = d.graph.edge_features().cols();
    const NodeId hub = 3;
    Rng rng(11);
    const auto edges_into_hub = [&](std::int64_t count, std::int64_t n) {
      std::vector<std::pair<NodeId, NodeId>> edges;
      for (std::int64_t i = 0; i < count; ++i) {
        edges.emplace_back(
            static_cast<NodeId>(rng.NextBounded(static_cast<std::uint64_t>(n))),
            hub);
      }
      return edges;
    };
    const auto edge_rows = [&](std::size_t count) {
      return edge ? Tensor::RandomNormal(static_cast<std::int64_t>(count),
                                             edge_dim, 1.0f, &rng)
                      : Tensor();
    };
    // The first batch stays a run of its own: it is more than twice the
    // size of the second.
    const std::vector<std::pair<NodeId, NodeId>> first =
        edges_into_hub(900, old_n);
    std::vector<std::pair<NodeId, NodeId>> second =
        edges_into_hub(300, old_n + 2);
    second.insert(second.end(), {{old_n, 42}, {hub, old_n + 1}, {old_n, hub}});
    const OverlayGraph graph =
        OverlayGraph(std::make_shared<const Graph>(d.graph))
            .WithEdges(old_n, first, edge_rows(first.size()))
            .WithEdges(old_n + 2, second, edge_rows(second.size()));
    Tensor features(old_n + 2, d.graph.feature_dim());
    std::memcpy(features.data(), d.graph.node_features().data(),
                d.graph.node_features().ByteSize());
    for (const NodeId v : {NodeId{17}, NodeId{230}, old_n, old_n + 1}) {
      for (std::int64_t j = 0; j < features.cols(); ++j) {
        features.At(v, j) = rng.NextFloat(-1.0f, 1.0f);
      }
    }
    const Result<Graph> rebuilt = graph.Compact(features);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    const LayerStates old_states = ComputeLayerStates(*model, d.graph);
    const LayerStates fresh = ComputeLayerStates(*model, *rebuilt);
    std::vector<ChunkedRows> history;
    for (std::size_t l = 1; l < old_states.states.size(); ++l) {
      history.push_back(ChunkedRows::View(old_states.states[l], nullptr));
    }
    GraphDelta delta;
    delta.changed_nodes = {17, 230, old_n, old_n + 1};
    delta.changed_in_edges = {hub, 42, old_n + 1};

    std::vector<DeltaPatches> runs;
    for (const int threads : {1, 4}) {
      kernels::KernelConfig config = saved;
      config.max_threads = threads;
      config.min_parallel_work = 1;
      kernels::SetKernelConfig(config);
      Result<DeltaPatches> patches = ComputeDeltaPatches(
          *model, graph, ChunkedRows::View(features, nullptr), history, delta);
      kernels::SetKernelConfig(saved);
      ASSERT_TRUE(patches.ok()) << patches.status().ToString();
      runs.push_back(std::move(*patches));
    }
    ASSERT_GT(4 * model->num_layers() * graph.InDegree(hub),
              runs[1].cone_in_edges)
        << kind << ": the hub holds a quarter of the cone or less";
    EXPECT_EQ(runs[0].cone_in_edges, runs[1].cone_in_edges);
    for (std::size_t l = 0; l < runs[1].layers.size(); ++l) {
      const RowPatch& serial = runs[0].layers[l];
      const RowPatch& patch = runs[1].layers[l];
      ASSERT_EQ(patch.ids, serial.ids) << kind << " layer " << l + 1;
      ASSERT_TRUE(std::binary_search(patch.ids.begin(), patch.ids.end(), hub));
      const Tensor& expected = fresh.states[l + 1];
      const auto row_bytes =
          static_cast<std::size_t>(expected.cols()) * sizeof(float);
      for (std::size_t i = 0; i < patch.ids.size(); ++i) {
        const auto r = static_cast<std::int64_t>(i);
        EXPECT_EQ(std::memcmp(patch.rows.RowPtr(r), serial.rows.RowPtr(r),
                              row_bytes),
                  0)
            << kind << " layer " << l + 1 << " node " << patch.ids[i];
        EXPECT_EQ(std::memcmp(patch.rows.RowPtr(r),
                              expected.RowPtr(patch.ids[i]), row_bytes),
                  0)
            << kind << " layer " << l + 1 << " node " << patch.ids[i];
      }
    }
  }
}

// A traced delta splits each layer into its in-edge walk and its fold:
// both child spans sit inside their layer's span, once per layer, and
// nothing is recorded with tracing off.
TEST(IncrementalTest, TracedDeltaSplitsEachLayerIntoWalkAndFold) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  const LayerStates old_states = ComputeLayerStates(*model, d.graph);
  const Graph mutated = MutateGraph(d.graph, {{17, 0.5f}}, {});
  GraphDelta delta;
  delta.changed_nodes = {17};
  ClearTrace();
  ASSERT_TRUE(IncrementalInference(*model, mutated, old_states, delta).ok());
  EXPECT_TRUE(DrainTrace().empty());

  SetTracingEnabled(true);
  ASSERT_TRUE(IncrementalInference(*model, mutated, old_states, delta).ok());
  SetTracingEnabled(false);
  std::vector<TraceEvent> layers, children;
  for (const TraceEvent& event : DrainTrace()) {
    const std::string name = event.name;
    if (name.rfind("incremental/layer", 0) == 0) layers.push_back(event);
    if (name == "incremental/walk" || name == "incremental/fold") {
      children.push_back(event);
    }
  }
  ASSERT_EQ(layers.size(), 2u);
  ASSERT_EQ(children.size(), 4u);
  for (const TraceEvent& layer : layers) {
    std::vector<std::string> inside;
    for (const TraceEvent& child : children) {
      if (child.start_ns >= layer.start_ns &&
          child.start_ns + child.dur_ns <= layer.start_ns + layer.dur_ns) {
        inside.push_back(child.name);
      }
    }
    EXPECT_EQ(inside, (std::vector<std::string>{"incremental/walk",
                                                "incremental/fold"}))
        << layer.name;
  }
}

TEST(IncrementalTest, EdgeAdditionMatchesFullRecompute) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  const LayerStates old_states = ComputeLayerStates(*model, d.graph);

  const std::vector<std::pair<NodeId, NodeId>> extra = {{3, 99}, {400, 99},
                                                        {99, 7}};
  const Graph mutated = MutateGraph(d.graph, {}, extra);
  GraphDelta delta;
  delta.changed_in_edges = {99, 7};  // destinations of the new edges
  const Result<IncrementalResult> incremental =
      IncrementalInference(*model, mutated, old_states, delta);
  ASSERT_TRUE(incremental.ok());

  const LayerStates fresh = ComputeLayerStates(*model, mutated);
  for (std::size_t l = 0; l < fresh.states.size(); ++l) {
    EXPECT_TRUE(incremental->states.states[l].ApproxEquals(fresh.states[l],
                                                           0.0f))
        << "layer " << l;
  }
}

TEST(IncrementalTest, SmallDeltaRecomputesSmallCone) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  const LayerStates old_states = ComputeLayerStates(*model, d.graph);
  const Graph mutated = MutateGraph(d.graph, {{42, 2.0f}}, {});
  GraphDelta delta;
  delta.changed_nodes = {42};
  const Result<IncrementalResult> incremental =
      IncrementalInference(*model, mutated, old_states, delta);
  ASSERT_TRUE(incremental.ok());
  const std::int64_t total = std::accumulate(
      incremental->recomputed_per_layer.begin(),
      incremental->recomputed_per_layer.end(), std::int64_t{0});
  // Full recompute would be layers * N = 1000; one changed node's
  // 2-hop out-cone on an avg-degree-6 graph is tiny.
  EXPECT_LT(total, d.graph.num_nodes() / 4);
  EXPECT_GE(incremental->recomputed_per_layer[0], 1);
  EXPECT_GE(incremental->recomputed_per_layer[1],
            incremental->recomputed_per_layer[0]);
}

TEST(IncrementalTest, NoDeltaRecomputesNothing) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  const LayerStates old_states = ComputeLayerStates(*model, d.graph);
  const Result<IncrementalResult> incremental =
      IncrementalInference(*model, d.graph, old_states, GraphDelta{});
  ASSERT_TRUE(incremental.ok());
  for (const std::int64_t count : incremental->recomputed_per_layer) {
    EXPECT_EQ(count, 0);
  }
  EXPECT_TRUE(incremental->states.states.back().ApproxEquals(
      old_states.states.back(), 0.0f));
}

TEST(IncrementalTest, DeltaIdsAreOrderAndDuplicateInsensitive) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  const LayerStates old_states = ComputeLayerStates(*model, d.graph);
  const std::vector<std::pair<NodeId, NodeId>> extra = {{8, 123}, {123, 44}};
  const Graph mutated =
      MutateGraph(d.graph, {{17, 0.5f}, {230, -1.25f}, {301, 3.0f}}, extra);

  GraphDelta clean;
  clean.changed_nodes = {17, 230, 301};
  clean.changed_in_edges = {123, 44};
  // Shuffled and heavily duplicated: what a live delta stream that
  // touches hot nodes repeatedly actually delivers.
  GraphDelta messy;
  messy.changed_nodes = {301, 17, 230, 17, 17, 301, 230, 230, 301, 17};
  messy.changed_in_edges = {44, 123, 44, 44, 123, 123};

  const Result<IncrementalResult> a =
      IncrementalInference(*model, mutated, old_states, clean);
  const Result<IncrementalResult> b =
      IncrementalInference(*model, mutated, old_states, messy);
  ASSERT_TRUE(a.ok() && b.ok());

  // Same cone (no redundant recomputation from the duplicates), same
  // bits, same invalidation set.
  EXPECT_EQ(a->recomputed_per_layer, b->recomputed_per_layer);
  EXPECT_EQ(a->final_changed_nodes, b->final_changed_nodes);
  for (std::size_t l = 0; l < a->states.states.size(); ++l) {
    EXPECT_TRUE(a->states.states[l].ApproxEquals(b->states.states[l], 0.0f))
        << "layer " << l;
  }
  EXPECT_TRUE(a->logits.ApproxEquals(b->logits, 0.0f));

  // And both match a from-scratch pass on the mutated graph.
  const LayerStates fresh = ComputeLayerStates(*model, mutated);
  EXPECT_TRUE(b->states.states.back().ApproxEquals(fresh.states.back(),
                                                   0.0f));
}

TEST(IncrementalTest, FinalChangedNodesBoundsTheLogitsDiff) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  const LayerStates old_states = ComputeLayerStates(*model, d.graph);
  const Graph mutated = MutateGraph(d.graph, {{42, 2.0f}}, {});
  GraphDelta delta;
  delta.changed_nodes = {42};
  const Result<IncrementalResult> incremental =
      IncrementalInference(*model, mutated, old_states, delta);
  ASSERT_TRUE(incremental.ok());

  // final_changed_nodes is sorted, unique, and covers every row whose
  // final state differs from the historical one — the exact contract
  // the serving layer's cache invalidation relies on.
  const std::vector<NodeId>& changed = incremental->final_changed_nodes;
  EXPECT_TRUE(std::is_sorted(changed.begin(), changed.end()));
  EXPECT_EQ(static_cast<std::int64_t>(changed.size()),
            incremental->recomputed_per_layer.back());
  const Tensor& old_final = old_states.states.back();
  const Tensor& new_final = incremental->states.states.back();
  for (NodeId v = 0; v < d.graph.num_nodes(); ++v) {
    if (std::binary_search(changed.begin(), changed.end(), v)) continue;
    for (std::int64_t j = 0; j < new_final.cols(); ++j) {
      ASSERT_EQ(old_final.At(v, j), new_final.At(v, j))
          << "node " << v << " outside final_changed_nodes moved";
    }
  }
}

TEST(IncrementalTest, RejectsMismatchedHistory) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> two_layers = SmallModel(d.graph);
  ModelConfig config;
  config.input_dim = d.graph.feature_dim();
  config.hidden_dim = 8;
  config.num_classes = d.graph.num_classes();
  config.num_layers = 3;
  const std::unique_ptr<GnnModel> three_layers = MakeSageModel(config);
  const LayerStates states = ComputeLayerStates(*two_layers, d.graph);
  const Result<IncrementalResult> r =
      IncrementalInference(*three_layers, d.graph, states, GraphDelta{});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

/// `graph`'s topology and labels with new node and edge feature
/// matrices (an empty edge matrix drops edge features).
Graph WithFeatures(const Graph& graph, Tensor node_features,
                   Tensor edge_features) {
  GraphBuilder builder(graph.num_nodes());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    builder.AddEdge(graph.EdgeSrc(e), graph.EdgeDst(e));
  }
  builder.SetNodeFeatures(std::move(node_features));
  if (!edge_features.empty()) builder.SetEdgeFeatures(std::move(edge_features));
  builder.SetLabels(graph.labels(), graph.num_classes());
  return std::move(builder).Finish().ValueOrDie();
}

// Shapes are checked before any kernel runs: a wider feature matrix
// used to abort inside the layer, and a short historical layer was read
// past its end.
TEST(IncrementalTest, RejectsFeatureWidthMismatch) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  const LayerStates states = ComputeLayerStates(*model, d.graph);
  const Graph wider = WithFeatures(
      d.graph, Tensor(d.graph.num_nodes(), d.graph.feature_dim() + 1),
      Tensor());
  const Result<IncrementalResult> r =
      IncrementalInference(*model, wider, states, GraphDelta{});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST(IncrementalTest, RejectsMisshapenHistoricalLayers) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  const LayerStates states = ComputeLayerStates(*model, d.graph);
  GraphDelta delta;
  delta.changed_nodes = {d.graph.num_nodes() - 1};
  for (std::size_t l = 0; l < states.states.size(); ++l) {
    const Tensor& good = states.states[l];
    for (const auto& [rows, cols] :
         {std::pair{good.rows() - 10, good.cols()},
          std::pair{good.rows(), good.cols() + 1}}) {
      LayerStates bad = states;
      bad.states[l] = Tensor(rows, cols);
      const Result<IncrementalResult> r =
          IncrementalInference(*model, d.graph, bad, delta);
      ASSERT_FALSE(r.ok()) << "layer " << l << " " << rows << "x" << cols;
      EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    }
  }
}

TEST(IncrementalTest, RejectsEdgeFeatureWidthMismatch) {
  const Dataset e = EdgeFeaturedDataset();
  const std::unique_ptr<GnnModel> model = EdgeModel(e.graph);
  const LayerStates states = ComputeLayerStates(*model, e.graph);
  const Graph wider = WithFeatures(
      e.graph, e.graph.node_features(),
      Tensor(e.graph.num_edges(), e.graph.edge_features().cols() + 1));
  const Graph bare = WithFeatures(e.graph, e.graph.node_features(), Tensor());
  for (const Graph* graph : {&wider, &bare}) {
    const Result<IncrementalResult> r =
        IncrementalInference(*model, *graph, states, GraphDelta{});
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
}

}  // namespace
}  // namespace inferturbo
