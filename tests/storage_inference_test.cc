// The out-of-core acceptance property: inference streamed from a shard
// directory is BIT-identical (tolerance 0.0f) to the in-memory run, on
// both backends, under every strategy combination, with the memory
// budget binding — peak mapped bytes never exceed it. The shard
// partitioning doubles as the worker assignment, so the streamed
// MapReduce run folds floats in exactly the in-memory order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "src/common/crc32.h"
#include "src/common/thread_pool.h"
#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/nn/model.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_pipeline.h"
#include "src/storage/shard_format.h"
#include "src/storage/shard_store.h"
#include "src/storage/shard_writer.h"

namespace inferturbo {
namespace {

constexpr std::int64_t kPartitions = 8;

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
  if (graph.has_edge_features()) {
    config.edge_feature_dim = graph.edge_features().cols();
  }
  Result<std::unique_ptr<GnnModel>> model = MakeModel(kind, config);
  EXPECT_TRUE(model.ok());
  return std::move(model).ValueOrDie();
}

std::string PackInto(const Graph& graph, const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  ShardWriterOptions writer;
  writer.num_partitions = kPartitions;
  const Result<ShardMeta> meta = WriteGraphShards(graph, dir, writer);
  EXPECT_TRUE(meta.ok()) << meta.status().ToString();
  return dir;
}

/// A budget that is genuinely binding — the whole pack minus its
/// smallest shard, so the store can never hold every partition and
/// must evict — that still fits every shard the 2 pool workers and the
/// pipeline's read-ahead window hold leases on at once.
std::uint64_t BindingBudget(const std::string& dir) {
  std::uint64_t smallest = UINT64_MAX;
  std::uint64_t total = 0;
  for (std::int64_t p = 0; p < kPartitions; ++p) {
    const std::uint64_t size =
        std::filesystem::file_size(dir + "/" + ShardFileName(p));
    smallest = std::min(smallest, size);
    total += size;
  }
  const std::uint64_t budget = total - smallest;
  EXPECT_LT(budget, total);
  return budget;
}

Result<ShardStore> OpenStore(const std::string& dir, std::uint64_t budget) {
  ShardStoreOptions options;
  options.directory = dir;
  options.memory_budget_bytes = budget;
  return ShardStore::Open(std::move(options));
}

struct Case {
  bool partial_gather;
  bool broadcast;
  bool shadow_nodes;
};

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name;
  name += c.partial_gather ? "pg1" : "pg0";
  name += c.broadcast ? "_bc1" : "_bc0";
  name += c.shadow_nodes ? "_sn1" : "_sn0";
  return name;
}

class StorageEquivalenceTest : public testing::TestWithParam<Case> {};

TEST_P(StorageEquivalenceTest, StreamedRunsAreBitIdenticalToInMemory) {
  const Case& c = GetParam();
  const Dataset dataset = SkewedDataset();
  const std::unique_ptr<GnnModel> model =
      MakeModelFor("sage", dataset.graph);
  const std::string dir = PackInto(dataset.graph, "storage_equiv");
  const std::uint64_t budget = BindingBudget(dir);
  ThreadPool pool(2);

  InferTurboOptions options;
  options.num_workers = kPartitions;
  options.pool = &pool;
  options.strategies.partial_gather = c.partial_gather;
  options.strategies.broadcast = c.broadcast;
  options.strategies.shadow_nodes = c.shadow_nodes;
  options.strategies.threshold_override =
      (c.broadcast || c.shadow_nodes) ? 8 : -1;
  options.export_embeddings = true;

  // Pipeline on and off must both reproduce the in-memory logits bit
  // for bit on both backends, loading each partition exactly once.
  struct StreamMode {
    int slots;
    const char* name;
  };
  constexpr StreamMode kModes[] = {
      {0, "demand"},
      {2, "pipelined"},
  };
  for (const bool use_mapreduce : {false, true}) {
    SCOPED_TRACE(use_mapreduce ? "mapreduce" : "pregel");
    const Result<InferenceResult> in_memory =
        use_mapreduce
            ? RunInferTurboMapReduce(dataset.graph, *model, options)
            : RunInferTurboPregel(dataset.graph, *model, options);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

    for (const StreamMode& mode : kModes) {
      SCOPED_TRACE(mode.name);
      Result<ShardStore> store = OpenStore(dir, budget);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      const ShardGraphView view(std::move(*store));
      InferTurboOptions streamed_options = options;
      streamed_options.storage_pipeline_slots = mode.slots;
      const Result<InferenceResult> streamed =
          use_mapreduce
              ? RunInferTurboMapReduce(view, *model, streamed_options)
              : RunInferTurboPregel(view, *model, streamed_options);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

      // Bit-identical: tolerance 0.0f, and hard predictions agree.
      EXPECT_TRUE(streamed->logits.ApproxEquals(in_memory->logits, 0.0f));
      EXPECT_EQ(streamed->predictions, in_memory->predictions);
      EXPECT_TRUE(
          streamed->embeddings.ApproxEquals(in_memory->embeddings, 0.0f));

      const StorageMetrics storage = streamed->metrics.storage;
      // A job reads each shard once: the map stage acquires each
      // partition once, and a materialize sweep visits each once.
      EXPECT_EQ(storage.map_calls, kPartitions);
      EXPECT_EQ(storage.cache_misses, kPartitions);
      EXPECT_GT(storage.peak_bytes_mapped, 0u);
      EXPECT_LE(storage.peak_bytes_mapped, budget);
      EXPECT_EQ(storage.checksum_failures, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, StorageEquivalenceTest,
    testing::Values(Case{false, false, false}, Case{true, false, false},
                    Case{true, true, false}, Case{true, false, true},
                    Case{true, true, true}),
    CaseName);

TEST(StorageInferenceTest, EdgeFeatureModelStreamsBitIdentically) {
  PlantedGraphConfig config;
  config.num_nodes = 300;
  config.avg_degree = 5.0;
  config.feature_dim = 8;
  config.num_classes = 4;
  config.edge_feature_dim = 3;
  config.seed = 17;
  const Dataset dataset = MakePlantedDataset("storage-edge", config);
  const std::unique_ptr<GnnModel> model =
      MakeModelFor("edge_sage", dataset.graph);
  const std::string dir = PackInto(dataset.graph, "storage_edge");
  ThreadPool pool(2);

  InferTurboOptions options;
  options.num_workers = kPartitions;
  options.pool = &pool;

  for (const bool use_mapreduce : {false, true}) {
    SCOPED_TRACE(use_mapreduce ? "mapreduce" : "pregel");
    const Result<InferenceResult> in_memory =
        use_mapreduce
            ? RunInferTurboMapReduce(dataset.graph, *model, options)
            : RunInferTurboPregel(dataset.graph, *model, options);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
    Result<ShardStore> store = OpenStore(dir, BindingBudget(dir));
    ASSERT_TRUE(store.ok());
    const ShardGraphView view(std::move(*store));
    const Result<InferenceResult> streamed =
        use_mapreduce ? RunInferTurboMapReduce(view, *model, options)
                      : RunInferTurboPregel(view, *model, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_TRUE(streamed->logits.ApproxEquals(in_memory->logits, 0.0f));
  }
}

TEST(StorageInferenceTest, MapReduceRejectsWorkerPartitionMismatch) {
  const Dataset dataset = SkewedDataset();
  const std::unique_ptr<GnnModel> model =
      MakeModelFor("sage", dataset.graph);
  const std::string dir = PackInto(dataset.graph, "storage_mismatch");
  Result<ShardStore> store = OpenStore(dir, 0);
  ASSERT_TRUE(store.ok());
  const ShardGraphView view(std::move(*store));

  InferTurboOptions options;
  options.num_workers = kPartitions - 3;
  EXPECT_TRUE(RunInferTurboMapReduce(view, *model, options)
                  .status()
                  .IsInvalidArgument());
  // The Pregel backend materializes the view, so any worker count works.
  EXPECT_TRUE(RunInferTurboPregel(view, *model, options).ok());
}

/// Rewrites the first out-edge destination of `partition`'s shard to
/// `dst` and reseals the out-dst page's CRC, so only the meta cross-
/// check can tell the id is bad.
void RewriteFirstDst(const std::string& dir, std::int64_t partition,
                     std::int64_t dst) {
  const std::string path = dir + "/" + ShardFileName(partition);
  std::string file;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    file = bytes.str();
  }
  constexpr int kOutDstSlot = static_cast<int>(PageKind::kOutDst) - 1;
  PageEntry entry;
  ASSERT_TRUE(DecodePageEntry(file, kOutDstSlot, &entry).ok());
  ASSERT_GT(entry.bytes, 0u);
  std::memcpy(file.data() + entry.offset, &dst, sizeof(dst));
  entry.payload_crc = Crc32(file.data() + entry.offset, entry.bytes);
  const std::string sealed = EncodePageEntry(entry);
  file.replace(kShardHeaderBytes + kOutDstSlot * kPageEntryBytes,
               sealed.size(), sealed);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << file;
}

TEST(StorageInferenceTest, OutOfRangeDestinationIsAnIoError) {
  const Dataset dataset = SkewedDataset();
  const std::unique_ptr<GnnModel> model =
      MakeModelFor("sage", dataset.graph);
  for (const std::int64_t bad : {dataset.graph.num_nodes(), std::int64_t{-1}}) {
    SCOPED_TRACE(bad);
    const std::string dir = PackInto(dataset.graph, "storage_bad_dst");
    RewriteFirstDst(dir, /*partition=*/3, bad);
    InferTurboOptions options;
    options.num_workers = kPartitions;
    {
      Result<ShardStore> store = OpenStore(dir, 0);
      ASSERT_TRUE(store.ok());
      const ShardGraphView view(std::move(*store));
      const Result<InferenceResult> result =
          RunInferTurboMapReduce(view, *model, options);
      EXPECT_EQ(result.status().code(), StatusCode::kIoError)
          << result.status().ToString();
      EXPECT_NE(result.status().message().find("outside [0, 400)"),
                std::string::npos)
          << result.status().ToString();
    }
    {
      Result<ShardStore> store = OpenStore(dir, 0);
      ASSERT_TRUE(store.ok());
      const ShardGraphView view(std::move(*store));
      const Result<Graph> graph = MaterializeGraph(view);
      EXPECT_EQ(graph.status().code(), StatusCode::kIoError)
          << graph.status().ToString();
    }
  }
}

TEST(StorageInferenceTest, StreamedPipelineActuallyRuns) {
  const Dataset dataset = SkewedDataset();
  const std::unique_ptr<GnnModel> model =
      MakeModelFor("sage", dataset.graph);
  const std::string dir = PackInto(dataset.graph, "storage_pf");
  ThreadPool pool(2);
  Result<ShardStore> store = OpenStore(dir, BindingBudget(dir));
  ASSERT_TRUE(store.ok());
  const ShardGraphView view(std::move(*store));

  InferTurboOptions options;
  options.num_workers = kPartitions;
  options.pool = &pool;
  const Result<InferenceResult> streamed =
      RunInferTurboMapReduce(view, *model, options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  // Every shard load goes through the pipeline's loader thread, and
  // each consumed load charges its I/O time either to consumer wait or
  // to hidden overlap, so the two together are strictly positive.
  const StorageMetrics storage = streamed->metrics.storage;
  EXPECT_GT(storage.overlap_seconds + storage.pipeline_wait_seconds, 0.0);
}

// The headline acceptance run: a pack at least 4x the memory budget
// still streams bit-identically through the pipeline on both backends,
// with the peak mapped bytes provably under the budget.
TEST(StorageInferenceTest, FourTimesBudgetStreamsBitIdentically) {
  constexpr std::int64_t kManyPartitions = 24;
  // Near-uniform shard sizes (hash partitioning, feature rows
  // dominate): the pipeline's resident window — consumer + slots +
  // the load in flight — stays a small fixed fraction of the pack, so
  // a quarter-of-the-pack budget is binding but never violated. The
  // skew stress lives in the strategy sweep above.
  PlantedGraphConfig config;
  config.num_nodes = 800;
  config.avg_degree = 5.0;
  config.feature_dim = 12;
  config.num_classes = 4;
  config.seed = 23;
  const Dataset dataset = MakePlantedDataset("storage-4x", config);
  const std::unique_ptr<GnnModel> model =
      MakeModelFor("sage", dataset.graph);

  const std::string dir = testing::TempDir() + "/storage_4x";
  std::filesystem::remove_all(dir);
  ShardWriterOptions writer;
  writer.num_partitions = kManyPartitions;
  const Result<ShardMeta> meta = WriteGraphShards(dataset.graph, dir, writer);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();

  std::uint64_t total = 0;
  for (std::int64_t p = 0; p < kManyPartitions; ++p) {
    total += std::filesystem::file_size(dir + "/" + ShardFileName(p));
  }
  const std::uint64_t budget = total / 4;
  ASSERT_GE(total, 4 * budget);

  // One pool worker: the resident set is the consumer's shard plus the
  // pipeline's in-flight slots, comfortably under a quarter of the pack.
  ThreadPool pool(1);
  InferTurboOptions options;
  options.num_workers = kManyPartitions;
  options.pool = &pool;
  options.storage_pipeline_slots = 2;

  for (const bool use_mapreduce : {false, true}) {
    SCOPED_TRACE(use_mapreduce ? "mapreduce" : "pregel");
    const Result<InferenceResult> in_memory =
        use_mapreduce
            ? RunInferTurboMapReduce(dataset.graph, *model, options)
            : RunInferTurboPregel(dataset.graph, *model, options);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();

    Result<ShardStore> store = OpenStore(dir, budget);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const ShardGraphView view(std::move(*store));
    const Result<InferenceResult> streamed =
        use_mapreduce ? RunInferTurboMapReduce(view, *model, options)
                      : RunInferTurboPregel(view, *model, options);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

    EXPECT_TRUE(streamed->logits.ApproxEquals(in_memory->logits, 0.0f));
    EXPECT_EQ(streamed->predictions, in_memory->predictions);
    const StorageMetrics storage = streamed->metrics.storage;
    EXPECT_GT(storage.peak_bytes_mapped, 0u);
    EXPECT_LE(storage.peak_bytes_mapped, budget);
    EXPECT_EQ(storage.checksum_failures, 0);
    EXPECT_GT(storage.evictions, 0);
  }
}

}  // namespace
}  // namespace inferturbo
