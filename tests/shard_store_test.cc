// Out-of-core shard store: pack/open round trips, slice fidelity
// against the source graph, LRU eviction under a memory budget,
// concurrent misses on one partition, and corruption (truncation, bit flips, torn writes)
// surfacing as clean Status errors — exercised against the scripted
// I/O fault injector.
#include "src/storage/shard_store.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "src/graph/datasets.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_format.h"
#include "src/storage/shard_pipeline.h"
#include "src/storage/shard_reader.h"
#include "src/storage/shard_writer.h"
#include "src/telemetry/metrics.h"

namespace inferturbo {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Dataset MakeDataset(bool edge_features = false) {
  PlantedGraphConfig config;
  config.num_nodes = 600;
  config.avg_degree = 6.0;
  config.feature_dim = 12;
  config.num_classes = 4;
  if (edge_features) config.edge_feature_dim = 3;
  config.seed = 29;
  return MakePlantedDataset("shard-store", config);
}

bool BitIdentical(const Graph& a, const Graph& b) {
  return a.num_nodes() == b.num_nodes() && a.num_edges() == b.num_edges() &&
         a.edge_src() == b.edge_src() && a.edge_dst() == b.edge_dst() &&
         a.labels() == b.labels() &&
         a.node_features().ApproxEquals(b.node_features(), 0.0f) &&
         a.has_edge_features() == b.has_edge_features() &&
         (!a.has_edge_features() ||
          a.edge_features().ApproxEquals(b.edge_features(), 0.0f));
}

TEST(ShardWriterTest, PackAndOpenRoundTripsMeta) {
  const Dataset d = MakeDataset(/*edge_features=*/true);
  const std::string dir = FreshDir("shards_meta");
  ShardWriterOptions writer;
  writer.num_partitions = 4;
  const Result<ShardMeta> meta = WriteGraphShards(d.graph, dir, writer);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();

  ShardStoreOptions options;
  options.directory = dir;
  const Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->meta().num_nodes, d.graph.num_nodes());
  EXPECT_EQ(store->meta().num_edges, d.graph.num_edges());
  EXPECT_EQ(store->meta().feature_dim, d.graph.feature_dim());
  EXPECT_EQ(store->meta().edge_feature_dim, 3);
  EXPECT_EQ(store->meta().num_classes, d.graph.num_classes());
  EXPECT_TRUE(store->meta().has_labels);
  EXPECT_EQ(store->meta().num_partitions(), 4);
  std::int64_t nodes = 0;
  std::int64_t edges = 0;
  for (const ShardPartitionInfo& p : store->meta().partitions) {
    nodes += p.num_nodes;
    edges += p.num_edges;
  }
  EXPECT_EQ(nodes, d.graph.num_nodes());
  EXPECT_EQ(edges, d.graph.num_edges());
}

TEST(ShardWriterTest, MultiLabelGraphsAreRejected) {
  PlantedGraphConfig config;
  config.num_nodes = 100;
  config.feature_dim = 4;
  config.num_classes = 6;
  config.multi_label = true;
  config.seed = 3;
  const Dataset d = MakePlantedDataset("multi", config);
  EXPECT_TRUE(WriteGraphShards(d.graph, FreshDir("shards_multi"))
                  .status()
                  .IsInvalidArgument());
}

TEST(ShardStoreTest, MappedSlicesMatchTheSourceGraph) {
  const Dataset d = MakeDataset(/*edge_features=*/true);
  const std::string dir = FreshDir("shards_slices");
  ShardWriterOptions writer;
  writer.num_partitions = 4;
  ASSERT_TRUE(WriteGraphShards(d.graph, dir, writer).ok());

  ShardStoreOptions options;
  options.directory = dir;
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  std::vector<bool> node_seen(static_cast<std::size_t>(d.graph.num_nodes()));
  std::vector<bool> edge_seen(static_cast<std::size_t>(d.graph.num_edges()));
  for (std::int64_t p = 0; p < 4; ++p) {
    const Result<ShardLease> lease = store->Map(p);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    const MappedShard& shard = **lease;
    const auto nodes = shard.node_ids();
    const auto offsets = shard.out_offsets();
    ASSERT_EQ(offsets.size(), nodes.size() + 1);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      ASSERT_GE(v, 0);
      ASSERT_LT(v, d.graph.num_nodes());
      if (i > 0) {
        ASSERT_LT(nodes[i - 1], v);  // ascending member order
      }
      ASSERT_FALSE(node_seen[static_cast<std::size_t>(v)]);
      node_seen[static_cast<std::size_t>(v)] = true;
      EXPECT_EQ(shard.labels()[i], d.graph.labels()[v]);
      const float* row = shard.node_features() +
                         static_cast<std::size_t>(i) * 12;
      for (std::int64_t c = 0; c < 12; ++c) {
        ASSERT_EQ(row[c], d.graph.node_features().At(v, c));
      }
      // Out-edges carry the source graph's global dst + edge ids, in
      // the source graph's out-edge order.
      const auto out = d.graph.OutEdges(v);
      ASSERT_EQ(offsets[i + 1] - offsets[i],
                static_cast<std::int64_t>(out.size()));
      for (std::size_t k = 0; k < out.size(); ++k) {
        const std::size_t e =
            static_cast<std::size_t>(offsets[i]) + k;
        const EdgeId id = out[k];
        EXPECT_EQ(shard.out_edge_ids()[e], id);
        EXPECT_EQ(shard.out_dst()[e],
                  d.graph.edge_dst()[static_cast<std::size_t>(id)]);
        ASSERT_FALSE(edge_seen[static_cast<std::size_t>(id)]);
        edge_seen[static_cast<std::size_t>(id)] = true;
        const float* efeat = shard.edge_features() + e * 3;
        for (std::int64_t c = 0; c < 3; ++c) {
          ASSERT_EQ(efeat[c], d.graph.edge_features().At(id, c));
        }
      }
    }
  }
  for (bool seen : node_seen) EXPECT_TRUE(seen);
  for (bool seen : edge_seen) EXPECT_TRUE(seen);
}

TEST(ShardStoreTest, MaterializeGraphIsBitIdentical) {
  for (const bool edge_features : {false, true}) {
    const Dataset d = MakeDataset(edge_features);
    const std::string dir = FreshDir(
        edge_features ? "shards_mat_ef" : "shards_mat");
    ShardWriterOptions writer;
    writer.num_partitions = 5;
    ASSERT_TRUE(WriteGraphShards(d.graph, dir, writer).ok());
    ShardStoreOptions options;
    options.directory = dir;
    Result<ShardStore> store = ShardStore::Open(std::move(options));
    ASSERT_TRUE(store.ok());
    const ShardGraphView view(std::move(*store));
    const Result<Graph> rebuilt = MaterializeGraph(view);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_TRUE(BitIdentical(d.graph, *rebuilt));
  }
}

TEST(ShardStoreTest, InMemoryViewMatchesShardViewByteForByte) {
  const Dataset d = MakeDataset(/*edge_features=*/true);
  const std::string dir = FreshDir("shards_views");
  ShardWriterOptions writer;
  writer.num_partitions = 6;
  ASSERT_TRUE(WriteGraphShards(d.graph, dir, writer).ok());
  ShardStoreOptions options;
  options.directory = dir;
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok());
  const ShardGraphView streamed(std::move(*store));
  const InMemoryGraphView resident(d.graph, 6);
  ASSERT_EQ(resident.num_partitions(), streamed.num_partitions());
  for (std::int64_t p = 0; p < 6; ++p) {
    const Result<PartitionSlice> a = resident.AcquirePartition(p);
    const Result<PartitionSlice> b = streamed.AcquirePartition(p);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->nodes.size(), b->nodes.size());
    for (std::size_t i = 0; i < a->nodes.size(); ++i) {
      ASSERT_EQ(a->nodes[i], b->nodes[i]);
      ASSERT_EQ(a->out_offsets[i], b->out_offsets[i]);
      ASSERT_EQ(a->labels[i], b->labels[i]);
    }
    ASSERT_EQ(a->out_dst.size(), b->out_dst.size());
    for (std::size_t e = 0; e < a->out_dst.size(); ++e) {
      ASSERT_EQ(a->out_dst[e], b->out_dst[e]);
      ASSERT_EQ(a->out_edge_ids[e], b->out_edge_ids[e]);
    }
    const std::size_t feat = a->nodes.size() * 12;
    for (std::size_t i = 0; i < feat; ++i) {
      ASSERT_EQ(a->node_features[i], b->node_features[i]);
    }
    const std::size_t efeat = a->out_dst.size() * 3;
    for (std::size_t i = 0; i < efeat; ++i) {
      ASSERT_EQ(a->edge_features[i], b->edge_features[i]);
    }
  }
}

TEST(ShardStoreTest, BudgetEvictsLeastRecentlyUsedShards) {
  const Dataset d = MakeDataset();
  const std::string dir = FreshDir("shards_budget");
  ShardWriterOptions writer;
  writer.num_partitions = 8;
  ASSERT_TRUE(WriteGraphShards(d.graph, dir, writer).ok());

  // Find the largest shard, then cap the budget at two of those: the
  // store must keep cycling shards out to stay under it.
  std::uint64_t largest = 0;
  for (std::int64_t p = 0; p < 8; ++p) {
    largest = std::max<std::uint64_t>(
        largest, std::filesystem::file_size(
                     dir + "/" + ShardFileName(p)));
  }
  ShardStoreOptions options;
  options.directory = dir;
  options.memory_budget_bytes = 2 * largest;
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok());

  for (int pass = 0; pass < 2; ++pass) {
    for (std::int64_t p = 0; p < 8; ++p) {
      const Result<ShardLease> lease = store->Map(p);
      ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    }
  }
  const StorageMetrics metrics = store->metrics();
  EXPECT_GT(metrics.evictions, 0);
  EXPECT_LE(metrics.peak_bytes_mapped, 2 * largest);
  EXPECT_EQ(metrics.checksum_failures, 0);
  EXPECT_GE(metrics.map_calls, 8);
}

TEST(ShardStoreTest, ForcedReadPathsAreBitIdentical) {
  const Dataset d = MakeDataset(/*edge_features=*/true);
  const std::string dir = FreshDir("shards_read_paths");
  ShardWriterOptions writer;
  writer.num_partitions = 5;
  ASSERT_TRUE(WriteGraphShards(d.graph, dir, writer).ok());

  for (const ShardReadPath path :
       {ShardReadPath::kMmap, ShardReadPath::kPread, ShardReadPath::kAuto}) {
    SCOPED_TRACE(ShardReadPathName(path));
    ShardStoreOptions options;
    options.directory = dir;
    options.read_path = path;
    Result<ShardStore> store = ShardStore::Open(std::move(options));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    // kAuto resolves to pread on any readable pack.
    EXPECT_EQ(store->read_path(), path == ShardReadPath::kAuto
                                      ? ShardReadPath::kPread
                                      : path);
    const ShardGraphView view(std::move(*store));
    const Result<Graph> rebuilt = MaterializeGraph(view);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_TRUE(BitIdentical(d.graph, *rebuilt));
    EXPECT_EQ(view.storage_metrics().checksum_failures, 0);
    // The forced tier served every shard: none fell back to mmap.
    EXPECT_EQ(view.storage_metrics().read_path_fallbacks, 0);
  }
}

TEST(ShardStoreTest, InjectorStoresReportAndObservePread) {
  const Dataset d = MakeDataset();
  const std::string dir = FreshDir("shards_injector_path");
  ShardWriterOptions writer;
  writer.num_partitions = 3;
  ASSERT_TRUE(WriteGraphShards(d.graph, dir, writer).ok());
  ScriptedIoFaultInjector injector;  // healthy: nothing armed
  ShardStoreOptions options;
  options.directory = dir;
  options.fault_injector = &injector;
  options.read_path = ShardReadPath::kMmap;  // ignored under an injector
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // Injector loads are buffered reads, so the provenance says pread...
  EXPECT_EQ(store->read_path(), ShardReadPath::kPread);
  EXPECT_EQ(store->metrics().read_path,
            static_cast<std::int64_t>(ShardReadPath::kPread));

  // ...and every load lands in the pread latency instruments, none in
  // mmap's.
  const bool was_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  Counter* pread_reads = GlobalMetrics().GetCounter("storage.read.pread.reads");
  Counter* pread_bytes = GlobalMetrics().GetCounter("storage.read.pread.bytes");
  Counter* mmap_reads = GlobalMetrics().GetCounter("storage.read.mmap.reads");
  const std::int64_t reads_before = pread_reads->value();
  const std::int64_t bytes_before = pread_bytes->value();
  const std::int64_t mmap_before = mmap_reads->value();
  std::int64_t mapped = 0;
  for (std::int64_t p = 0; p < 3; ++p) {
    const Result<ShardLease> lease = store->Map(p);
    ASSERT_TRUE(lease.ok()) << lease.status().ToString();
    mapped += static_cast<std::int64_t>((*lease)->mapped_bytes());
  }
  SetMetricsEnabled(was_enabled);
  EXPECT_EQ(pread_reads->value() - reads_before, 3);
  EXPECT_EQ(pread_bytes->value() - bytes_before, mapped);
  EXPECT_EQ(mmap_reads->value(), mmap_before);
}

TEST(ShardStoreTest, SecondMapIsACacheHit) {
  const Dataset d = MakeDataset();
  const std::string dir = FreshDir("shards_hit");
  ASSERT_TRUE(WriteGraphShards(d.graph, dir).ok());
  ShardStoreOptions options;
  options.directory = dir;
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Map(0).ok());
  ASSERT_TRUE(store->Map(0).ok());
  const StorageMetrics metrics = store->metrics();
  EXPECT_EQ(metrics.cache_misses, 1);
  EXPECT_EQ(metrics.cache_hits, 1);
  EXPECT_EQ(metrics.map_calls, 1);
}

/// Healthy injector that holds every read of `file` until `parties`
/// readers are inside it at once, so concurrent Map() misses are
/// guaranteed to overlap their loads instead of merely likely to.
class RendezvousInjector : public IoFaultInjector {
 public:
  RendezvousInjector(std::string file, int parties)
      : file_(std::move(file)), parties_(parties) {}

  IoFaultKind Tick(IoOp /*op*/, const std::string& path) override {
    if (path.find(file_) == std::string::npos) return IoFaultKind::kNone;
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    all_arrived_.notify_all();
    all_arrived_.wait_for(lock, std::chrono::seconds(10),
                          [this] { return arrived_ >= parties_; });
    return IoFaultKind::kNone;
  }

 private:
  const std::string file_;
  const int parties_;
  std::mutex mu_;
  std::condition_variable all_arrived_;
  int arrived_ = 0;
};

TEST(ShardStoreTest, ConcurrentMapOfAColdPartitionSharesOneLease) {
  const Dataset d = MakeDataset();
  const std::string dir = FreshDir("shards_concurrent_map");
  ShardWriterOptions writer;
  writer.num_partitions = 4;
  ASSERT_TRUE(WriteGraphShards(d.graph, dir, writer).ok());

  constexpr int kThreads = 4;
  const std::uint64_t shard_bytes =
      std::filesystem::file_size(dir + "/" + ShardFileName(2));
  RendezvousInjector injector(ShardFileName(2), kThreads);
  ShardStoreOptions options;
  options.directory = dir;
  // Room for exactly one copy: a second charged copy would break it.
  options.memory_budget_bytes = shard_bytes;
  options.fault_injector = &injector;
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok());

  std::vector<ShardLease> leases(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &leases, t] {
      Result<ShardLease> lease = store->Map(2);
      ASSERT_TRUE(lease.ok()) << lease.status().ToString();
      leases[static_cast<std::size_t>(t)] = std::move(*lease);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (const ShardLease& lease : leases) {
    ASSERT_NE(lease, nullptr);
    EXPECT_EQ(lease.get(), leases[0].get());
  }
  const StorageMetrics metrics = store->metrics();
  // Every thread missed and loaded (the rendezvous overlaps the loads);
  // one copy was published, the others were dropped without a charge.
  EXPECT_EQ(metrics.cache_misses, kThreads);
  EXPECT_EQ(metrics.map_calls, kThreads);
  EXPECT_EQ(metrics.bytes_mapped, shard_bytes);
  EXPECT_EQ(metrics.peak_bytes_mapped, shard_bytes);
  EXPECT_LE(metrics.peak_bytes_mapped, store->options().memory_budget_bytes);
  EXPECT_EQ(metrics.unmap_calls, 0);
  EXPECT_EQ(metrics.evictions, 0);
}

TEST(ShardStoreTest, MapOutOfRangeIsInvalidArgument) {
  const Dataset d = MakeDataset();
  const std::string dir = FreshDir("shards_range");
  ASSERT_TRUE(WriteGraphShards(d.graph, dir).ok());
  ShardStoreOptions options;
  options.directory = dir;
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->Map(-1).status().IsInvalidArgument());
  EXPECT_TRUE(store->Map(1).status().IsInvalidArgument());
}

TEST(ShardStoreTest, OpenRejectsMissingOrCorruptMeta) {
  ShardStoreOptions missing;
  missing.directory = testing::TempDir() + "/shards_no_such_dir";
  std::filesystem::remove_all(missing.directory);
  EXPECT_FALSE(ShardStore::Open(std::move(missing)).ok());

  const Dataset d = MakeDataset();
  const std::string dir = FreshDir("shards_badmeta");
  ASSERT_TRUE(WriteGraphShards(d.graph, dir).ok());
  const std::string meta_path = dir + "/" + ShardMetaFileName();
  std::fstream f(meta_path,
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(24);
  char byte = 0x5a;
  f.write(&byte, 1);
  f.close();
  ShardStoreOptions corrupt;
  corrupt.directory = dir;
  const Result<ShardStore> store = ShardStore::Open(std::move(corrupt));
  EXPECT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kIoError);
}

TEST(ShardStoreTest, ResealedOversizedHeaderIsACleanIoError) {
  const Dataset d = MakeDataset();
  const std::string dir = FreshDir("shards_huge_header");
  ASSERT_TRUE(WriteGraphShards(d.graph, dir).ok());
  // A header frame only needs a valid CRC: reseal one whose page sizes
  // (2^33 nodes x 2^31 features) overflow 64 bits.
  ShardHeader header;
  header.num_nodes = std::int64_t{1} << 33;
  header.feature_dim = std::int64_t{1} << 31;
  const std::string frame = EncodeShardHeader(header);
  std::fstream f(dir + "/" + ShardFileName(0),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  f.close();

  ShardStoreOptions options;
  options.directory = dir;
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok());
  const Result<ShardLease> bad = store->Map(0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
}

TEST(ShardStoreTest, MetaCountsPastInt64MaxAreACleanIoError) {
  const std::string dir = FreshDir("shards_huge_meta");
  const auto open_with = [&dir](const ShardMeta& meta) {
    std::ofstream(dir + "/" + ShardMetaFileName(), std::ios::binary)
        << EncodeShardMeta(meta);
    ShardStoreOptions options;
    options.directory = dir;
    return ShardStore::Open(std::move(options)).status();
  };
  ShardMeta meta;
  meta.feature_dim = 4;
  meta.partitions = {{std::numeric_limits<std::int64_t>::max(), 0},
                     {1, 0}};
  EXPECT_EQ(open_with(meta).code(), StatusCode::kIoError);

  meta.partitions = {{2, 0}};
  meta.num_nodes = 2;
  meta.feature_dim = -1;
  EXPECT_EQ(open_with(meta).code(), StatusCode::kIoError);
}

TEST(ShardStoreTest, TruncatedShardFileIsACleanIoError) {
  const Dataset d = MakeDataset();
  const std::string dir = FreshDir("shards_trunc");
  ShardWriterOptions writer;
  writer.num_partitions = 2;
  ASSERT_TRUE(WriteGraphShards(d.graph, dir, writer).ok());
  const std::string shard_path = dir + "/" + ShardFileName(1);
  const std::uintmax_t size = std::filesystem::file_size(shard_path);
  std::filesystem::resize_file(shard_path, size / 2);

  ShardStoreOptions options;
  options.directory = dir;
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok());  // meta is intact; the damage is per-shard
  ASSERT_TRUE(store->Map(0).ok());
  const Result<ShardLease> bad = store->Map(1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
}

TEST(ShardStoreTest, FlippedPayloadByteFailsTheChecksum) {
  const Dataset d = MakeDataset();
  const std::string dir = FreshDir("shards_flip");
  ASSERT_TRUE(WriteGraphShards(d.graph, dir).ok());
  // Flip one byte deep in the payload region on disk: the frame
  // structure stays valid, only a page CRC can catch it.
  const std::string shard_path = dir + "/" + ShardFileName(0);
  std::fstream f(shard_path,
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(ShardPayloadStart() + 128);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  f.seekp(ShardPayloadStart() + 128);
  f.write(&byte, 1);
  f.close();

  ShardStoreOptions options;
  options.directory = dir;
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok());
  const Result<ShardLease> bad = store->Map(0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
  EXPECT_NE(bad.status().message().find("checksum"), std::string::npos);
  EXPECT_GT(store->metrics().checksum_failures, 0);
}

TEST(ShardStoreTest, TransientReadBitFlipIsRetriedToSuccess) {
  const Dataset d = MakeDataset();
  const std::string dir = FreshDir("shards_transient");
  ASSERT_TRUE(WriteGraphShards(d.graph, dir).ok());
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kRead, "shard_00000", IoFaultKind::kBitFlip,
               /*times=*/1);
  ShardStoreOptions options;
  options.directory = dir;
  options.fault_injector = &injector;
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const Result<ShardLease> lease = store->Map(0);
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  EXPECT_EQ(injector.faults_fired(), 1);
  EXPECT_GT(store->metrics().checksum_failures, 0);
  // The healthy retry's data is what got cached.
  EXPECT_EQ((*lease)->node_ids().size(),
            static_cast<std::size_t>(d.graph.num_nodes()));
}

TEST(ShardStoreTest, PersistentReadCorruptionFailsCleanly) {
  const Dataset d = MakeDataset();
  const std::string dir = FreshDir("shards_persistent");
  ASSERT_TRUE(WriteGraphShards(d.graph, dir).ok());
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kRead, "shard_00000", IoFaultKind::kShortRead,
               /*times=*/-1);
  ShardStoreOptions options;
  options.directory = dir;
  options.fault_injector = &injector;
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok());
  const Result<ShardLease> bad = store->Map(0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
}

TEST(ShardWriterTest, TransientWriteFaultsAreRetriedToSuccess) {
  const Dataset d = MakeDataset();
  const std::string dir = FreshDir("shards_wretry");
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kWrite, "shard_00000", IoFaultKind::kWriteFail,
               /*times=*/2);
  ShardWriterOptions writer;
  writer.num_partitions = 2;
  writer.fault_injector = &injector;
  const Result<ShardMeta> meta = WriteGraphShards(d.graph, dir, writer);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(injector.faults_fired(), 2);

  ShardStoreOptions options;
  options.directory = dir;
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->Map(0).ok());
  EXPECT_TRUE(store->Map(1).ok());
}

TEST(ShardWriterTest, PersistentWriteFailureLeavesNoValidPack) {
  const Dataset d = MakeDataset();
  const std::string dir = FreshDir("shards_wfail");
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kWrite, "shard_", IoFaultKind::kNoSpace,
               /*times=*/-1);
  ShardWriterOptions writer;
  writer.num_partitions = 2;
  writer.fault_injector = &injector;
  EXPECT_FALSE(WriteGraphShards(d.graph, dir, writer).ok());
  // The meta file is the commit point and was never written: the
  // directory must not open as a pack.
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + ShardMetaFileName()));
  ShardStoreOptions options;
  options.directory = dir;
  EXPECT_FALSE(ShardStore::Open(std::move(options)).ok());
}

}  // namespace
}  // namespace inferturbo
