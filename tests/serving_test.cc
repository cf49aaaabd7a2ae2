#include "src/serving/serving_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/inference/reference_inference.h"
#include "src/nn/model.h"
#include "src/serving/workload.h"
#include "src/telemetry/trace.h"

namespace inferturbo {
namespace {

// The repo-wide bound for the partition-parallel backends vs the
// layer-wise reference (their partition-local folds reassociate the
// gather sums); serving vs reference is held to exactly 0.
constexpr float kBackendTolerance = 2e-3f;

Dataset BaseDataset() {
  PlantedGraphConfig config;
  config.num_nodes = 400;
  config.avg_degree = 5.0;
  config.num_classes = 3;
  config.feature_dim = 8;
  config.seed = 91;
  return MakePlantedDataset("serving-base", config);
}

Dataset EdgeFeaturedDataset() {
  PlantedGraphConfig config;
  config.num_nodes = 300;
  config.avg_degree = 5.0;
  config.num_classes = 3;
  config.feature_dim = 8;
  config.edge_feature_dim = 3;
  config.seed = 93;
  return MakePlantedDataset("serving-edge", config);
}

std::unique_ptr<GnnModel> SmallModel(const Graph& g,
                                     const std::string& kind = "sage") {
  ModelConfig config;
  config.input_dim = g.feature_dim();
  config.hidden_dim = 8;
  config.num_classes = g.num_classes();
  config.num_layers = 2;
  config.heads = 2;
  config.edge_feature_dim =
      g.has_edge_features() ? g.edge_features().cols() : 0;
  return MakeModel(kind, config).ValueOrDie();
}

bool BitIdenticalRow(const Tensor& a, std::int64_t a_row, const Tensor& b,
                     std::int64_t b_row) {
  return a.cols() == b.cols() &&
         std::memcmp(a.RowPtr(a_row), b.RowPtr(b_row),
                     static_cast<std::size_t>(a.cols()) * sizeof(float)) == 0;
}

/// The deterministic mutation schedule both the oracle and the engine
/// under test replay.
std::vector<GraphMutation> MutationSchedule(const Graph& graph,
                                            std::int64_t count) {
  DeltaStream::Options options;
  options.feature_updates = 3;
  options.new_edges = 2;
  options.new_node_every = 3;
  options.seed = 123;
  DeltaStream stream(graph, options);
  std::vector<GraphMutation> mutations;
  mutations.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) mutations.push_back(stream.Next());
  return mutations;
}

/// Per-epoch from-scratch oracle: expected[e] is the reference batch
/// logits on the graph as of epoch e.
struct EpochOracle {
  std::vector<std::shared_ptr<const Graph>> graphs;
  std::vector<Tensor> logits;
};

EpochOracle BuildOracle(const GnnModel& model, const Graph& initial,
                        const std::vector<GraphMutation>& mutations) {
  EpochOracle oracle;
  ServingEngine evolver(&model, Graph(initial));
  oracle.graphs.push_back(evolver.graph_snapshot());
  oracle.logits.push_back(FullGraphReferenceLogits(model, initial));
  for (const GraphMutation& mutation : mutations) {
    EXPECT_TRUE(evolver.ApplyMutation(mutation).ok());
    std::shared_ptr<const Graph> graph = evolver.graph_snapshot();
    oracle.logits.push_back(FullGraphReferenceLogits(model, *graph));
    oracle.graphs.push_back(std::move(graph));
  }
  return oracle;
}

// Flagship: any interleaving of concurrent query batches and delta
// batches serves logits bit-identical to a from-scratch batch run on
// the graph of the epoch each response names — and the final graph's
// served logits match from-scratch runs of both distributed backends.
// Run under TSan in CI (the batcher and the epoch swap are the point).
TEST(ServingEngineTest, ConcurrentQueriesExactUnderDeltaStream) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  constexpr std::int64_t kDeltas = 9;
  const std::vector<GraphMutation> mutations =
      MutationSchedule(d.graph, kDeltas);
  const EpochOracle oracle = BuildOracle(*model, d.graph, mutations);

  ServingOptions options;
  options.batch_window_seconds = 0.0005;
  options.max_batch = 16;
  ServingEngine engine(model.get(), Graph(d.graph), options);

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 60;
  const std::int64_t query_domain = d.graph.num_nodes();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      std::int64_t last_epoch = 0;
      for (int i = 0; i < kQueriesPerThread; ++i) {
        std::vector<NodeId> nodes;
        const std::int64_t count = 1 + static_cast<std::int64_t>(
            rng.NextBounded(5));
        for (std::int64_t k = 0; k < count; ++k) {
          nodes.push_back(static_cast<NodeId>(
              rng.NextBounded(static_cast<std::uint64_t>(query_domain))));
        }
        const Result<QueryResponse> response = engine.Query(nodes);
        if (!response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // Epochs are monotone per thread (generations only move
        // forward) and every served row must match the from-scratch
        // logits of exactly that epoch's graph, bit for bit.
        if (response->epoch < last_epoch ||
            response->epoch >= static_cast<std::int64_t>(
                                   oracle.logits.size())) {
          failures.fetch_add(1);
          continue;
        }
        last_epoch = response->epoch;
        const Tensor& expected =
            oracle.logits[static_cast<std::size_t>(response->epoch)];
        for (std::size_t k = 0; k < nodes.size(); ++k) {
          if (!BitIdenticalRow(response->logits,
                               static_cast<std::int64_t>(k), expected,
                               nodes[k])) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  // Deltas race the queries on the main thread.
  for (const GraphMutation& mutation : mutations) {
    const Result<DeltaApplied> applied = engine.ApplyMutation(mutation);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.epoch(), kDeltas);

  // Final graph: full query vs the reference (exact) and vs both
  // distributed backends' own from-scratch runs (repo tolerance).
  const std::shared_ptr<const Graph> final_graph = engine.graph_snapshot();
  std::vector<NodeId> all(static_cast<std::size_t>(final_graph->num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  const Result<QueryResponse> served = engine.Query(all);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->epoch, kDeltas);
  EXPECT_TRUE(served->logits.ApproxEquals(oracle.logits.back(), 0.0f))
      << "served final logits diverge from the from-scratch reference";

  const Result<InferenceResult> pregel =
      RunInferTurboPregel(*final_graph, *model, InferTurboOptions{});
  const Result<InferenceResult> mapreduce =
      RunInferTurboMapReduce(*final_graph, *model, InferTurboOptions{});
  ASSERT_TRUE(pregel.ok() && mapreduce.ok());
  EXPECT_TRUE(served->logits.ApproxEquals(pregel->logits, kBackendTolerance));
  EXPECT_TRUE(
      served->logits.ApproxEquals(mapreduce->logits, kBackendTolerance));
}

/// Replays the fixed mutation schedule (feature refreshes, new edges,
/// node growth every third delta) and returns the CRC of every node's
/// served logits on the final generation.
std::uint32_t ReplayedLogitsCrc(const GnnModel& model, const Graph& graph) {
  ServingOptions options;
  options.batch_window_seconds = 0.0;
  ServingEngine engine(&model, Graph(graph), options);
  for (const GraphMutation& mutation : MutationSchedule(graph, 9)) {
    EXPECT_TRUE(engine.ApplyMutation(mutation).ok());
    // Interleaved lookups keep cache rows alive across generations.
    EXPECT_TRUE(engine.Query({0, 1, 2, 3}).ok());
  }
  std::vector<NodeId> all(
      static_cast<std::size_t>(engine.graph_snapshot()->num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  const Result<QueryResponse> served = engine.Query(all);
  EXPECT_TRUE(served.ok());
  if (!served.ok()) return 0;
  return Crc32(served->logits.data(), served->logits.ByteSize());
}

// Golden bytes of the served logits after a delta replay that grows
// the graph, for the pooled (SAGE), union (GAT) and edge-feature paths.
TEST(ServingEngineTest, ReplayedLogitsBytesArePinned) {
  const Dataset d = BaseDataset();
  EXPECT_EQ(ReplayedLogitsCrc(*SmallModel(d.graph, "sage"), d.graph),
            0x3a7060bcu);
  EXPECT_EQ(ReplayedLogitsCrc(*SmallModel(d.graph, "gat"), d.graph),
            0x10b07d97u);
  const Dataset e = EdgeFeaturedDataset();
  EXPECT_EQ(ReplayedLogitsCrc(*SmallModel(e.graph, "edge_sage"), e.graph),
            0x36a515c3u);
}

TEST(ServingEngineTest, CacheInvalidatesOnlyTheDeltaCone) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  ServingOptions options;
  options.batch_window_seconds = 0.0;
  ServingEngine engine(model.get(), Graph(d.graph), options);

  // Warm every cache row.
  std::vector<NodeId> all(static_cast<std::size_t>(d.graph.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  ASSERT_TRUE(engine.Query(all).ok());
  const ServingStats warm = engine.stats();
  EXPECT_EQ(warm.cache_misses, d.graph.num_nodes());
  EXPECT_EQ(warm.cache_hits, 0);

  // A hot repeat is all hits.
  ASSERT_TRUE(engine.Query({1, 2, 3}).ok());
  EXPECT_EQ(engine.stats().cache_hits, 3);

  // One feature delta; the cache must survive except the final-layer
  // cone, and the next full scan misses exactly the invalidated rows.
  GraphMutation mutation;
  mutation.feature_updates.emplace_back(
      7, std::vector<float>(static_cast<std::size_t>(d.graph.feature_dim()),
                            0.25f));
  const Result<DeltaApplied> applied = engine.ApplyMutation(mutation);
  ASSERT_TRUE(applied.ok());
  EXPECT_GT(applied->invalidated_cache_rows, 0);
  EXPECT_LT(applied->invalidated_cache_rows, d.graph.num_nodes() / 4);
  EXPECT_EQ(applied->epoch, 1);

  const std::int64_t misses_before = engine.stats().cache_misses;
  const Result<QueryResponse> rescan = engine.Query(all);
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(engine.stats().cache_misses - misses_before,
            applied->invalidated_cache_rows);

  // And the refilled rows are exact.
  const Tensor expected =
      FullGraphReferenceLogits(*model, *engine.graph_snapshot());
  EXPECT_TRUE(rescan->logits.ApproxEquals(expected, 0.0f));
}

TEST(ServingEngineTest, GrowsAndServesNewNodes) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  ServingOptions options;
  options.batch_window_seconds = 0.0;
  ServingEngine engine(model.get(), Graph(d.graph), options);
  const NodeId fresh = d.graph.num_nodes();

  // The new node does not exist yet: its query fails, others work.
  EXPECT_FALSE(engine.Query({fresh}).ok());
  EXPECT_TRUE(engine.Query({0}).ok());

  GraphMutation mutation;
  mutation.new_node_features.push_back(std::vector<float>(
      static_cast<std::size_t>(d.graph.feature_dim()), 0.5f));
  mutation.new_edges.emplace_back(3, fresh);
  mutation.new_edges.emplace_back(fresh, 5);
  const Result<DeltaApplied> applied = engine.ApplyMutation(mutation);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(engine.graph_snapshot()->num_nodes(), fresh + 1);

  const Result<QueryResponse> response = engine.Query({fresh, 3, 5});
  ASSERT_TRUE(response.ok());
  const Tensor expected =
      FullGraphReferenceLogits(*model, *engine.graph_snapshot());
  EXPECT_TRUE(BitIdenticalRow(response->logits, 0, expected, fresh));
  EXPECT_TRUE(BitIdenticalRow(response->logits, 1, expected, 3));
  EXPECT_TRUE(BitIdenticalRow(response->logits, 2, expected, 5));
}

TEST(ServingEngineTest, RejectsMalformedMutations) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  ServingEngine engine(model.get(), Graph(d.graph), ServingOptions{});

  GraphMutation bad_update;
  bad_update.feature_updates.emplace_back(d.graph.num_nodes() + 5,
                                          std::vector<float>(8, 0.0f));
  EXPECT_FALSE(engine.ApplyMutation(bad_update).ok());

  GraphMutation bad_width;
  bad_width.feature_updates.emplace_back(0, std::vector<float>(3, 0.0f));
  EXPECT_FALSE(engine.ApplyMutation(bad_width).ok());

  GraphMutation bad_edge;
  bad_edge.new_edges.emplace_back(0, d.graph.num_nodes());
  EXPECT_FALSE(engine.ApplyMutation(bad_edge).ok());

  // Failed mutations must not publish a generation.
  EXPECT_EQ(engine.epoch(), 0);
  EXPECT_TRUE(engine.Query({0}).ok());

  // An edge-featured graph rejects new edge rows of the wrong width.
  const Dataset e = EdgeFeaturedDataset();
  const std::unique_ptr<GnnModel> edge_model =
      SmallModel(e.graph, "edge_sage");
  ServingEngine edge_engine(edge_model.get(), Graph(e.graph),
                            ServingOptions{});
  GraphMutation wider_edges;
  wider_edges.new_edges.emplace_back(0, 1);
  wider_edges.new_edge_features =
      Tensor(1, e.graph.edge_features().cols() + 1);
  const Result<DeltaApplied> rejected = edge_engine.ApplyMutation(wider_edges);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_EQ(edge_engine.epoch(), 0);
}

TEST(ServingEngineTest, CacheOffStaysExact) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  ServingOptions options;
  options.batch_window_seconds = 0.0;
  options.cache_logits = false;
  ServingEngine engine(model.get(), Graph(d.graph), options);

  std::vector<NodeId> all(static_cast<std::size_t>(d.graph.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  const Result<QueryResponse> a = engine.Query(all);
  const Result<QueryResponse> b = engine.Query(all);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->logits.ApproxEquals(b->logits, 0.0f));
  EXPECT_TRUE(a->logits.ApproxEquals(
      FullGraphReferenceLogits(*model, d.graph), 0.0f));
  EXPECT_EQ(engine.stats().cache_hits, 0);
}

TEST(ServingEngineTest, AdoptsPrecomputedLayerStates) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  LayerStates states = ComputeLayerStates(*model, d.graph);
  ServingOptions options;
  options.batch_window_seconds = 0.0;
  ServingEngine engine(model.get(), Graph(d.graph), std::move(states),
                       options);
  const Result<QueryResponse> response = engine.Query({0, 1, 2});
  ASSERT_TRUE(response.ok());
  const Tensor expected = FullGraphReferenceLogits(*model, d.graph);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(BitIdenticalRow(response->logits, i, expected, i));
  }
}

/// CRC over every layer's states of one generation.
std::uint32_t GenerationCrc(const ServingGeneration& generation,
                            std::int64_t num_layers) {
  std::uint32_t crc = 0;
  for (std::int64_t l = 0; l <= num_layers; ++l) {
    const Tensor states = generation.states(l).ToTensor();
    crc = Crc32(states.data(), states.ByteSize(), crc);
  }
  return crc;
}

// Generations share every state chunk a delta does not write; a pinned
// one must keep its bytes while later deltas publish around it (and,
// under TSan, while a reader races them).
TEST(ServingEngineTest, PinnedGenerationKeepsItsBytes) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  ServingOptions options;
  options.batch_window_seconds = 0.0;
  ServingEngine engine(model.get(), Graph(d.graph), options);
  const std::shared_ptr<const ServingGeneration> pinned = engine.Pin();
  const std::uint32_t pinned_crc =
      GenerationCrc(*pinned, model->num_layers());

  std::atomic<bool> done{false};
  std::atomic<int> changed{0};
  std::thread reader([&] {
    while (!done.load()) {
      if (GenerationCrc(*pinned, model->num_layers()) != pinned_crc) {
        changed.fetch_add(1);
      }
    }
  });
  constexpr std::int64_t kDeltas = 12;
  std::shared_ptr<const ServingGeneration> first;
  for (const GraphMutation& mutation : MutationSchedule(d.graph, kDeltas)) {
    ASSERT_TRUE(engine.ApplyMutation(mutation).ok());
    ASSERT_TRUE(engine.Query({0, 1, 2}).ok());
    if (!first) first = engine.Pin();
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(changed.load(), 0);
  EXPECT_EQ(GenerationCrc(*pinned, model->num_layers()), pinned_crc);
  EXPECT_EQ(pinned->epoch(), 0);
  EXPECT_EQ(pinned->num_nodes(), d.graph.num_nodes());
  EXPECT_EQ(pinned->graph().num_overlay_edges(), 0);
  EXPECT_EQ(engine.epoch(), kDeltas);

  // The first delta refreshed three feature rows: its layer 0 copies at
  // most three chunks and shares the rest; the final layer copies the
  // chunks its cone rewrote. A shared chunk is the same storage, so its
  // first row has the same address in both generations.
  constexpr std::int64_t kChunkRows = ChunkedRows::kChunkRows;
  const std::int64_t chunks =
      (pinned->num_nodes() + kChunkRows - 1) / kChunkRows;
  const auto shared_chunks = [&](std::int64_t layer) {
    std::int64_t shared = 0;
    for (std::int64_t c = 0; c < chunks; ++c) {
      shared += first->states(layer).Row(c * kChunkRows) ==
                        pinned->states(layer).Row(c * kChunkRows)
                    ? 1
                    : 0;
    }
    return shared;
  };
  EXPECT_GE(shared_chunks(0), chunks - 3);
  EXPECT_LT(shared_chunks(0), chunks);
  EXPECT_LT(shared_chunks(model->num_layers()), chunks);
}

// Overlay edges past the bound trigger a rebuild of the base graph; the
// served logits stay exact across it.
TEST(ServingEngineTest, CompactionRebuildsTheBaseExactly) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  ServingOptions options;
  options.batch_window_seconds = 0.0;
  ServingEngine engine(model.get(), Graph(d.graph), options);
  const std::int64_t bound = OverlayGraph::kCompactionFloor +
                             d.graph.num_edges() /
                                 OverlayGraph::kCompactionDivisor;
  Rng rng(5);
  GraphMutation mutation;
  for (std::int64_t i = 0; i < bound / 2 + 1; ++i) {
    mutation.new_edges.emplace_back(
        static_cast<NodeId>(rng.NextBounded(400)),
        static_cast<NodeId>(rng.NextBounded(400)));
  }
  ASSERT_TRUE(engine.ApplyMutation(mutation).ok());
  EXPECT_GT(engine.Pin()->graph().num_overlay_edges(), 0);

  ClearTrace();
  SetTracingEnabled(true);
  ASSERT_TRUE(engine.ApplyMutation(mutation).ok());
  SetTracingEnabled(false);
  bool compacted = false;
  for (const TraceEvent& event : DrainTrace()) {
    compacted |= std::string(event.name) == "serving/compact";
  }
  EXPECT_TRUE(compacted);
  const std::shared_ptr<const ServingGeneration> latest = engine.Pin();
  EXPECT_EQ(latest->graph().num_overlay_edges(), 0);
  EXPECT_EQ(latest->graph().num_edges(),
            d.graph.num_edges() +
                2 * static_cast<std::int64_t>(mutation.new_edges.size()));

  std::vector<NodeId> all(static_cast<std::size_t>(d.graph.num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  const Result<QueryResponse> served = engine.Query(all);
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(served->logits.ApproxEquals(
      FullGraphReferenceLogits(*model, *engine.graph_snapshot()), 0.0f));
}

// A delta records one serving/delta span holding a recompute span per
// layer and the publish; nothing is recorded while tracing is off.
TEST(ServingEngineTest, DeltaSpansCoverEachLayer) {
  const Dataset d = BaseDataset();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  ServingEngine engine(model.get(), Graph(d.graph), ServingOptions{});
  const std::vector<GraphMutation> mutations = MutationSchedule(d.graph, 2);

  ClearTrace();
  ASSERT_TRUE(engine.ApplyMutation(mutations[0]).ok());
  EXPECT_TRUE(DrainTrace().empty());

  SetTracingEnabled(true);
  ASSERT_TRUE(engine.ApplyMutation(mutations[1]).ok());
  SetTracingEnabled(false);
  const std::vector<TraceEvent> events = DrainTrace();
  const auto find = [&events](const std::string& name) {
    return std::find_if(
        events.begin(), events.end(),
        [&name](const TraceEvent& e) { return e.name == name; });
  };
  const auto delta = find("serving/delta");
  ASSERT_NE(delta, events.end());
  for (const char* child :
       {"incremental/layer0", "incremental/layer1", "serving/publish"}) {
    const auto it = find(child);
    ASSERT_NE(it, events.end()) << child;
    EXPECT_EQ(it->track, delta->track) << child;
    EXPECT_GE(it->start_ns, delta->start_ns) << child;
    EXPECT_LE(it->start_ns + it->dur_ns, delta->start_ns + delta->dur_ns)
        << child;
  }
}

}  // namespace
}  // namespace inferturbo
