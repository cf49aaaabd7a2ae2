// ShardPipeline: the double-buffered loader thread must hand back
// exactly the bytes a direct demand AcquirePartition would, under
// in-order sweeps, out-of-order demand, repeat acquires, load errors,
// and rapid construct/consume/destruct cycling (the tsan target). The
// passthrough modes (slots <= 0, resident views, single partition)
// must skip the thread entirely.
#include "src/storage/shard_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/datasets.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_format.h"
#include "src/storage/shard_store.h"
#include "src/storage/shard_writer.h"

namespace inferturbo {
namespace {

constexpr std::int64_t kPartitions = 6;

Dataset MakeDataset() {
  PlantedGraphConfig config;
  config.num_nodes = 300;
  config.avg_degree = 5.0;
  config.feature_dim = 8;
  config.num_classes = 4;
  config.seed = 41;
  return MakePlantedDataset("shard-pipeline", config);
}

std::string PackInto(const Graph& graph, const std::string& name,
                     std::int64_t partitions = kPartitions) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  ShardWriterOptions writer;
  writer.num_partitions = partitions;
  const Result<ShardMeta> meta = WriteGraphShards(graph, dir, writer);
  EXPECT_TRUE(meta.ok()) << meta.status().ToString();
  return dir;
}

Result<ShardStore> OpenStore(const std::string& dir,
                             std::uint64_t budget = 0) {
  ShardStoreOptions options;
  options.directory = dir;
  options.memory_budget_bytes = budget;
  return ShardStore::Open(std::move(options));
}

void ExpectSlicesEqual(const PartitionSlice& a, const PartitionSlice& b,
                       std::int64_t feature_dim) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    ASSERT_EQ(a.nodes[i], b.nodes[i]);
    ASSERT_EQ(a.out_offsets[i], b.out_offsets[i]);
  }
  ASSERT_EQ(a.out_dst.size(), b.out_dst.size());
  for (std::size_t e = 0; e < a.out_dst.size(); ++e) {
    ASSERT_EQ(a.out_dst[e], b.out_dst[e]);
    ASSERT_EQ(a.out_edge_ids[e], b.out_edge_ids[e]);
  }
  const std::size_t floats =
      a.nodes.size() * static_cast<std::size_t>(feature_dim);
  for (std::size_t i = 0; i < floats; ++i) {
    ASSERT_EQ(a.node_features[i], b.node_features[i]);
  }
}

TEST(ShardPipelineTest, InOrderSweepIsByteIdenticalToDemandAcquire) {
  const Dataset d = MakeDataset();
  const std::string dir = PackInto(d.graph, "pipe_sweep");
  Result<ShardStore> direct_store = OpenStore(dir);
  Result<ShardStore> piped_store = OpenStore(dir);
  ASSERT_TRUE(direct_store.ok() && piped_store.ok());
  const ShardGraphView direct(std::move(*direct_store));
  const ShardGraphView piped(std::move(*piped_store));

  ShardPipeline pipeline(piped, ShardPipelineOptions{2});
  EXPECT_TRUE(pipeline.active());
  // Give the loader its head start before the first demand: it counts
  // partition 0 as an ahead load, under its lock, as soon as it picks
  // it up undemanded. A loaded scheduler may start the thread late, so
  // poll for that (bounded) instead of racing it; a loader that never
  // schedules ahead still fails the check below.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (pipeline.stats().loads_ahead < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::int64_t p = 0; p < kPartitions; ++p) {
    const Result<PartitionSlice> want = direct.AcquirePartition(p);
    const Result<PartitionSlice> got = pipeline.Acquire(p);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSlicesEqual(*want, *got, d.graph.feature_dim());
  }
  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.loads_ahead + stats.loads_demand, kPartitions);
  // An in-order sweep is served ahead of demand, partition 0 included.
  EXPECT_GT(stats.loads_ahead, 0);
  EXPECT_GE(stats.overlap_seconds + stats.wait_seconds, 0.0);
}

TEST(ShardPipelineTest, OutOfOrderDemandJumpsTheLoaderQueue) {
  const Dataset d = MakeDataset();
  const std::string dir = PackInto(d.graph, "pipe_ooo");
  Result<ShardStore> store = OpenStore(dir);
  ASSERT_TRUE(store.ok());
  const ShardGraphView view(std::move(*store));

  ShardPipeline pipeline(view, ShardPipelineOptions{2});
  for (std::int64_t p = kPartitions - 1; p >= 0; --p) {
    const Result<PartitionSlice> slice = pipeline.Acquire(p);
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    EXPECT_FALSE(slice->nodes.empty());
  }
  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.loads_ahead + stats.loads_demand, kPartitions);
  // The very first acquire (last partition) is outside the ahead
  // window, so at least one load was demanded.
  EXPECT_GT(stats.loads_demand, 0);
}

TEST(ShardPipelineTest, RepeatAcquireDegradesToDemandLoad) {
  const Dataset d = MakeDataset();
  const std::string dir = PackInto(d.graph, "pipe_repeat");
  Result<ShardStore> store = OpenStore(dir);
  ASSERT_TRUE(store.ok());
  const ShardGraphView view(std::move(*store));

  ShardPipeline pipeline(view, ShardPipelineOptions{2});
  const Result<PartitionSlice> first = pipeline.Acquire(0);
  const Result<PartitionSlice> second = pipeline.Acquire(0);
  ASSERT_TRUE(first.ok() && second.ok());
  ExpectSlicesEqual(*first, *second, d.graph.feature_dim());
}

TEST(ShardPipelineTest, OutOfRangeAcquirePassesThroughToTheView) {
  const Dataset d = MakeDataset();
  const std::string dir = PackInto(d.graph, "pipe_range");
  Result<ShardStore> store = OpenStore(dir);
  ASSERT_TRUE(store.ok());
  const ShardGraphView view(std::move(*store));

  ShardPipeline pipeline(view, ShardPipelineOptions{2});
  EXPECT_TRUE(pipeline.Acquire(-1).status().IsInvalidArgument());
  EXPECT_TRUE(pipeline.Acquire(kPartitions).status().IsInvalidArgument());
  // The pipeline still serves valid partitions afterwards.
  EXPECT_TRUE(pipeline.Acquire(0).ok());
}

TEST(ShardPipelineTest, PassthroughModesSkipTheLoaderThread) {
  const Dataset d = MakeDataset();
  const std::string dir = PackInto(d.graph, "pipe_pass");
  Result<ShardStore> store = OpenStore(dir);
  ASSERT_TRUE(store.ok());
  const ShardGraphView streamed(std::move(*store));

  // slots <= 0 disables the pipeline.
  ShardPipeline demand(streamed, ShardPipelineOptions{0});
  EXPECT_FALSE(demand.active());
  EXPECT_TRUE(demand.Acquire(0).ok());
  EXPECT_EQ(demand.stats().loads_ahead + demand.stats().loads_demand, 0);

  // Resident views never need streaming overlap.
  const InMemoryGraphView resident(d.graph, kPartitions);
  ShardPipeline in_memory(resident, ShardPipelineOptions{2});
  EXPECT_FALSE(in_memory.active());
  EXPECT_TRUE(in_memory.Acquire(0).ok());

  // A single-partition pack has nothing to load ahead.
  const std::string single_dir = PackInto(d.graph, "pipe_single", 1);
  Result<ShardStore> single_store = OpenStore(single_dir);
  ASSERT_TRUE(single_store.ok());
  const ShardGraphView single(std::move(*single_store));
  ShardPipeline single_pipe(single, ShardPipelineOptions{2});
  EXPECT_FALSE(single_pipe.active());
  EXPECT_TRUE(single_pipe.Acquire(0).ok());
}

TEST(ShardPipelineTest, LoadErrorsSurfaceWithoutHanging) {
  const Dataset d = MakeDataset();
  const std::string dir = PackInto(d.graph, "pipe_error");
  // Flip one payload byte in partition 2 before any load: its page CRC
  // fails every attempt, so the pipeline must report the error from
  // Acquire(2) and keep serving the other partitions.
  const std::string shard_path = dir + "/" + ShardFileName(2);
  std::fstream f(shard_path,
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(ShardPayloadStart() + 64);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  f.seekp(ShardPayloadStart() + 64);
  f.write(&byte, 1);
  f.close();

  Result<ShardStore> store = OpenStore(dir);
  ASSERT_TRUE(store.ok());
  const ShardGraphView view(std::move(*store));
  ShardPipeline pipeline(view, ShardPipelineOptions{2});
  for (std::int64_t p = 0; p < kPartitions; ++p) {
    const Result<PartitionSlice> slice = pipeline.Acquire(p);
    if (p == 2) {
      ASSERT_FALSE(slice.ok());
      EXPECT_EQ(slice.status().code(), StatusCode::kIoError);
    } else {
      ASSERT_TRUE(slice.ok()) << "partition " << p << ": "
                              << slice.status().ToString();
    }
  }
}

// The tsan workhorse: many short-lived single-slot pipelines, some
// fully consumed by concurrent workers, some abandoned mid-sweep so
// the destructor races an in-flight load.
TEST(ShardPipelineTest, SingleSlotRapidCyclingStress) {
  const Dataset d = MakeDataset();
  const std::string dir = PackInto(d.graph, "pipe_stress");
  std::uint64_t largest = 0;
  for (std::int64_t p = 0; p < kPartitions; ++p) {
    largest = std::max<std::uint64_t>(
        largest,
        std::filesystem::file_size(dir + "/" + ShardFileName(p)));
  }
  // A binding budget keeps eviction churning under the pipeline.
  Result<ShardStore> store = OpenStore(dir, 3 * largest);
  ASSERT_TRUE(store.ok());
  const ShardGraphView view(std::move(*store));

  for (int round = 0; round < 12; ++round) {
    ShardPipeline pipeline(view, ShardPipelineOptions{1});
    const bool abandon = (round % 3) == 2;
    const std::int64_t limit = abandon ? kPartitions / 2 : kPartitions;
    std::atomic<std::int64_t> next{0};
    std::atomic<int> failures{0};
    auto worker = [&]() {
      while (true) {
        const std::int64_t p = next.fetch_add(1);
        if (p >= limit) return;
        const Result<PartitionSlice> slice = pipeline.Acquire(p);
        if (!slice.ok() || slice->nodes.empty()) {
          failures.fetch_add(1);
        }
      }
    };
    std::thread a(worker);
    std::thread b(worker);
    a.join();
    b.join();
    ASSERT_EQ(failures.load(), 0) << "round " << round;
    // Abandoned rounds destroy the pipeline here with loads in flight.
  }
  EXPECT_EQ(view.storage_metrics().checksum_failures, 0);
}

TEST(ShardPipelineTest, MaterializeReproducesThePackedGraphAtAnyWindow) {
  const Dataset d = MakeDataset();
  const std::string dir = PackInto(d.graph, "pipe_mat");
  for (const int slots : {0, 2}) {
    SCOPED_TRACE("pipeline_slots=" + std::to_string(slots));
    Result<ShardStore> store = OpenStore(dir);
    ASSERT_TRUE(store.ok());
    const ShardGraphView view(std::move(*store));

    MaterializeOptions options;
    options.pipeline_slots = slots;
    PipelineStats stats;
    options.stats = &stats;
    const Result<Graph> rebuilt = MaterializeGraph(view, options);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();

    EXPECT_EQ(rebuilt->num_nodes(), d.graph.num_nodes());
    EXPECT_EQ(rebuilt->num_edges(), d.graph.num_edges());
    EXPECT_EQ(rebuilt->edge_src(), d.graph.edge_src());
    EXPECT_EQ(rebuilt->edge_dst(), d.graph.edge_dst());
    EXPECT_EQ(rebuilt->labels(), d.graph.labels());
    EXPECT_EQ(rebuilt->num_classes(), d.graph.num_classes());
    ASSERT_EQ(rebuilt->node_features().ByteSize(),
              d.graph.node_features().ByteSize());
    EXPECT_EQ(0, std::memcmp(rebuilt->node_features().data(),
                             d.graph.node_features().data(),
                             d.graph.node_features().ByteSize()));
    EXPECT_EQ(rebuilt->has_edge_features(), d.graph.has_edge_features());
    // Passthrough (slots 0) keeps no pipeline accounting; the window
    // accounts every partition as an ahead or a demand load.
    EXPECT_EQ(stats.loads_ahead + stats.loads_demand,
              slots > 0 ? kPartitions : 0);
  }
}

}  // namespace
}  // namespace inferturbo
