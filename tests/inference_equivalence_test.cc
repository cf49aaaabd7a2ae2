// The paper's central correctness claims, as executable properties:
//
//  1. Both distributed backends (Pregel, MapReduce) reproduce the
//     single-machine full-graph reference forward.
//  2. Every optimization strategy (partial-gather, broadcast,
//     shadow-nodes) and every combination of them is *exact*: logits
//     stay within float-reassociation tolerance and hard predictions
//     are identical.
//  3. Inference is deterministic: repeated runs are bit-identical.
//  4. Mini-batch training-mode forward over a full-fan-out k-hop
//     neighborhood equals full-graph inference on the target nodes —
//     the property that lets one model serve both phases.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>

#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/inference/reference_inference.h"
#include "src/inference/traditional_pipeline.h"
#include "src/nn/model.h"
#include "src/sampling/khop_sampler.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_store.h"
#include "src/storage/shard_writer.h"
#include "src/tensor/kernels/kernel_config.h"
#include "src/tensor/ops.h"

namespace inferturbo {
namespace {

constexpr float kLogitTolerance = 2e-3f;

Dataset SkewedDataset() {
  PowerLawConfig config;
  config.num_nodes = 400;
  config.avg_degree = 6.0;
  config.skew = PowerLawSkew::kBoth;
  config.alpha = 1.6;
  config.seed = 99;
  return MakePowerLawDataset(config, /*feature_dim=*/12);
}

std::unique_ptr<GnnModel> MakeModelFor(const std::string& kind,
                                       const Graph& graph) {
  ModelConfig config;
  config.input_dim = graph.feature_dim();
  config.hidden_dim = 16;
  config.num_classes = graph.num_classes();
  config.num_layers = 2;
  config.heads = 4;
  config.seed = 5;
  Result<std::unique_ptr<GnnModel>> model = MakeModel(kind, config);
  EXPECT_TRUE(model.ok());
  return std::move(model).ValueOrDie();
}

struct Case {
  std::string model_kind;
  bool partial_gather;
  bool broadcast;
  bool shadow_nodes;
};

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name = c.model_kind;
  name += c.partial_gather ? "_pg1" : "_pg0";
  name += c.broadcast ? "_bc1" : "_bc0";
  name += c.shadow_nodes ? "_sn1" : "_sn0";
  return name;
}

class BackendEquivalenceTest : public testing::TestWithParam<Case> {};

TEST_P(BackendEquivalenceTest, BothBackendsMatchReference) {
  const Case& c = GetParam();
  const Dataset dataset = SkewedDataset();
  const std::unique_ptr<GnnModel> model =
      MakeModelFor(c.model_kind, dataset.graph);

  const Tensor reference = FullGraphReferenceLogits(*model, dataset.graph);

  InferTurboOptions options;
  options.num_workers = 7;
  options.strategies.partial_gather = c.partial_gather;
  options.strategies.broadcast = c.broadcast;
  options.strategies.shadow_nodes = c.shadow_nodes;
  // Force a low hub threshold so broadcast/shadow paths actually fire
  // on this small graph.
  options.strategies.threshold_override =
      (c.broadcast || c.shadow_nodes) ? 8 : -1;

  Result<InferenceResult> pregel =
      RunInferTurboPregel(dataset.graph, *model, options);
  ASSERT_TRUE(pregel.ok()) << pregel.status().ToString();
  EXPECT_TRUE(pregel->logits.ApproxEquals(reference, kLogitTolerance))
      << "pregel logits diverged from reference";

  Result<InferenceResult> mapreduce =
      RunInferTurboMapReduce(dataset.graph, *model, options);
  ASSERT_TRUE(mapreduce.ok()) << mapreduce.status().ToString();
  EXPECT_TRUE(mapreduce->logits.ApproxEquals(reference, kLogitTolerance))
      << "mapreduce logits diverged from reference";

  EXPECT_EQ(pregel->predictions, ArgmaxRows(reference));
  EXPECT_EQ(mapreduce->predictions, ArgmaxRows(reference));
}

TEST_P(BackendEquivalenceTest, RepeatedRunsAreBitIdentical) {
  const Case& c = GetParam();
  const Dataset dataset = SkewedDataset();
  const std::unique_ptr<GnnModel> model =
      MakeModelFor(c.model_kind, dataset.graph);

  InferTurboOptions options;
  options.num_workers = 5;
  options.strategies.partial_gather = c.partial_gather;
  options.strategies.broadcast = c.broadcast;
  options.strategies.shadow_nodes = c.shadow_nodes;
  options.strategies.threshold_override =
      (c.broadcast || c.shadow_nodes) ? 8 : -1;

  Result<InferenceResult> a =
      RunInferTurboPregel(dataset.graph, *model, options);
  Result<InferenceResult> b =
      RunInferTurboPregel(dataset.graph, *model, options);
  ASSERT_TRUE(a.ok() && b.ok());
  // Bit-identical, not approximately equal: the consistency guarantee.
  EXPECT_TRUE(a->logits.ApproxEquals(b->logits, 0.0f));

  Result<InferenceResult> c1 =
      RunInferTurboMapReduce(dataset.graph, *model, options);
  Result<InferenceResult> c2 =
      RunInferTurboMapReduce(dataset.graph, *model, options);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_TRUE(c1->logits.ApproxEquals(c2->logits, 0.0f));
}

TEST_P(BackendEquivalenceTest, LogitsAreBitIdenticalAcrossThreadCounts) {
  // The kernel-backed data plane must not let parallelism into the
  // numbers: for every strategy combination, both backends produce the
  // SAME BYTES at 1 thread and at N threads.
  const Case& c = GetParam();
  const Dataset dataset = SkewedDataset();
  const std::unique_ptr<GnnModel> model =
      MakeModelFor(c.model_kind, dataset.graph);

  InferTurboOptions options;
  options.num_workers = 5;
  options.strategies.partial_gather = c.partial_gather;
  options.strategies.broadcast = c.broadcast;
  options.strategies.shadow_nodes = c.shadow_nodes;
  options.strategies.threshold_override =
      (c.broadcast || c.shadow_nodes) ? 8 : -1;

  const kernels::KernelConfig saved = kernels::GetKernelConfig();
  auto run_at = [&](int threads) {
    kernels::KernelConfig config = saved;
    config.max_threads = threads;
    // Force the parallel split even on this small graph's tiny shapes.
    config.min_parallel_work = threads > 1 ? 1 : (std::int64_t{1} << 62);
    kernels::SetKernelConfig(config);
    Result<InferenceResult> pregel =
        RunInferTurboPregel(dataset.graph, *model, options);
    Result<InferenceResult> mapreduce =
        RunInferTurboMapReduce(dataset.graph, *model, options);
    EXPECT_TRUE(pregel.ok() && mapreduce.ok());
    return std::make_pair(std::move(pregel->logits),
                          std::move(mapreduce->logits));
  };
  const auto serial = run_at(1);
  const auto parallel = run_at(4);
  kernels::SetKernelConfig(saved);

  EXPECT_TRUE(serial.first.ApproxEquals(parallel.first, 0.0f))
      << "pregel logits changed with thread count";
  EXPECT_TRUE(serial.second.ApproxEquals(parallel.second, 0.0f))
      << "mapreduce logits changed with thread count";
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAndStrategies, BackendEquivalenceTest,
    testing::Values(
        Case{"sage", false, false, false}, Case{"sage", true, false, false},
        Case{"sage", false, true, false}, Case{"sage", false, false, true},
        Case{"sage", true, true, false}, Case{"sage", true, false, true},
        Case{"sage", true, true, true}, Case{"gcn", false, false, false},
        Case{"gcn", true, false, false}, Case{"gcn", true, true, true},
        Case{"gat", false, false, false}, Case{"gat", false, true, false},
        Case{"gat", false, false, true}, Case{"gat", false, true, true},
        Case{"gin", false, false, false}, Case{"gin", true, false, false},
        Case{"gin", true, true, true},
        Case{"pool_sage", false, false, false},
        Case{"pool_sage", true, false, false},
        Case{"pool_sage", true, true, true}),
    CaseName);

TEST(MapReduceStreamingEquivalenceTest, ShardViewIsBitIdenticalToInMemory) {
  // The block reduce over streamed shards: every aggregation path the
  // layers take — mean (with and without the combiner), max, union
  // (GAT), edge features, and broadcast refs — yields the same bytes
  // from a ShardGraphView as from the resident graph.
  constexpr std::int64_t kPartitions = 5;
  PlantedGraphConfig config;
  config.num_nodes = 600;
  config.avg_degree = 6.0;
  config.feature_dim = 12;
  config.num_classes = 4;
  config.in_skew_alpha = 1.0;
  config.edge_feature_dim = 3;
  config.seed = 23;
  const Dataset dataset = MakePlantedDataset("mr-stream", config);
  const std::string dir = testing::TempDir() + "/mr_stream_equiv";
  std::filesystem::remove_all(dir);
  ShardWriterOptions writer;
  writer.num_partitions = kPartitions;
  ASSERT_TRUE(WriteGraphShards(dataset.graph, dir, writer).ok());
  ThreadPool pool(2);

  struct Case {
    const char* model;
    bool partial_gather;
    bool broadcast;
  };
  const Case cases[] = {
      {"sage", false, false},      {"sage", true, false},
      {"pool_sage", true, false},  {"gat", false, false},
      {"edge_sage", false, false}, {"gat", false, true},
      {"sage", false, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.model) + (c.partial_gather ? " pg" : "") +
                 (c.broadcast ? " bc" : ""));
    ModelConfig mc;
    mc.input_dim = config.feature_dim;
    mc.hidden_dim = 16;
    mc.num_classes = config.num_classes;
    mc.num_layers = 2;
    mc.heads = 2;
    mc.edge_feature_dim = config.edge_feature_dim;
    mc.seed = 5;
    Result<std::unique_ptr<GnnModel>> model = MakeModel(c.model, mc);
    ASSERT_TRUE(model.ok());
    InferTurboOptions options;
    options.num_workers = kPartitions;
    options.pool = &pool;
    options.strategies.partial_gather = c.partial_gather;
    options.strategies.broadcast = c.broadcast;
    // Low enough that every node with a few out-edges is a hub.
    options.strategies.threshold_override = c.broadcast ? 3 : -1;
    options.export_embeddings = true;
    const Result<InferenceResult> in_memory =
        RunInferTurboMapReduce(dataset.graph, **model, options);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

    ShardStoreOptions store_options;
    store_options.directory = dir;
    Result<ShardStore> store = ShardStore::Open(std::move(store_options));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const ShardGraphView view(std::move(*store));
    const Result<InferenceResult> streamed =
        RunInferTurboMapReduce(view, **model, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_TRUE(streamed->logits.ApproxEquals(in_memory->logits, 0.0f));
    EXPECT_TRUE(
        streamed->embeddings.ApproxEquals(in_memory->embeddings, 0.0f));
  }
}

TEST(TrainingInferenceUnificationTest,
     KHopTrainingForwardMatchesFullGraphInference) {
  const Dataset dataset = SkewedDataset();
  for (const std::string kind :
       {"sage", "gcn", "gat", "gin", "pool_sage"}) {
    const std::unique_ptr<GnnModel> model =
        MakeModelFor(kind, dataset.graph);
    const Tensor reference = FullGraphReferenceLogits(*model, dataset.graph);

    // A handful of targets, full-fan-out 2-hop neighborhoods.
    const std::vector<NodeId> targets = {0, 17, 101, 399};
    KHopSampler sampler(&dataset.graph);
    KHopOptions khop;
    khop.hops = 2;
    const Subgraph sub = sampler.Sample(targets, khop, nullptr);

    // Training-side computation flow on the subgraph block.
    ag::VarPtr h = ag::Constant(sub.features);
    for (std::int64_t l = 0; l < model->num_layers(); ++l) {
      h = model->layer(l).ForwardAg(h, sub.src_local, sub.dst_local,
                                    sub.num_nodes(), nullptr);
    }
    const Tensor logits = model->PredictLogits(
        GatherRows(h->value, std::vector<std::int64_t>{0, 1, 2, 3}));

    for (std::size_t i = 0; i < targets.size(); ++i) {
      for (std::int64_t j = 0; j < logits.cols(); ++j) {
        EXPECT_NEAR(logits.At(static_cast<std::int64_t>(i), j),
                    reference.At(targets[i], j), kLogitTolerance)
            << kind << " target " << targets[i] << " class " << j;
      }
    }
  }
}

TEST(TraditionalPipelineEquivalenceTest, FullFanoutMatchesReference) {
  const Dataset dataset = SkewedDataset();
  const std::unique_ptr<GnnModel> model =
      MakeModelFor("sage", dataset.graph);
  const Tensor reference = FullGraphReferenceLogits(*model, dataset.graph);

  TraditionalPipelineOptions options;
  options.num_workers = 4;
  options.batch_size = 16;
  Result<InferenceResult> result =
      RunTraditionalPipeline(dataset.graph, *model, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->logits.ApproxEquals(reference, kLogitTolerance));
}

}  // namespace
}  // namespace inferturbo
