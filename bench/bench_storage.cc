// Out-of-core storage benchmark and regression harness: packs a
// synthetic graph into a shard directory, then times the access
// patterns the streaming inference path is built from and writes
// BENCH_storage.json — one record per mode with MB/s over the pack.
//
//   cold       open the store and demand-load every shard (page-in)
//   warm       every Map() is a cache hit (unlimited budget)
//   streamed   sequential partition sweep under a BINDING budget (the
//              pack minus its smallest shard), touching every feature
//              byte — the MapReduce map stage's access shape
//   pipelined  the same sweep through a ShardPipeline: a dedicated
//              loader thread double-buffers shard I/O behind the
//              checksum compute
//
// Every mode but warm opens a fresh store per sweep, as a job does.
// Every mode folds the bytes it touches into a deterministic
// gather_checksum (seeded dataset + hash partitioning = host-stable),
// and the run FAILS — not just reports — when an invariant breaks:
// peak mapped bytes over budget or any checksum failure. The JSON also
// records which read-path tier (pread or mmap) auto-detection picked.
//
// Usage:
//   bench_storage                     full sweep, writes BENCH_storage.json
//   bench_storage --quick             CI smoke: same dataset shape, short timing
//   bench_storage --out=PATH          write the JSON elsewhere
//   bench_storage --overlap-gate      exit 1 unless the pipelined sweep is at
//                                     least as fast as the streamed sweep
//                                     (minus --overlap-tolerance slack)
//
// Baseline comparison is tools/report_diff against the checked-in
// BENCH_storage.json (gather_checksum is exact-class); unknown flags
// exit 2.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/crc32.h"
#include "src/graph/datasets.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_format.h"
#include "src/storage/shard_pipeline.h"
#include "src/storage/shard_reader.h"
#include "src/storage/shard_store.h"
#include "src/storage/shard_writer.h"

namespace inferturbo {
namespace {

constexpr std::int64_t kPartitions = 8;

// Keeps folded checksums observable so the optimizer cannot delete a
// timed sweep.
volatile std::uint64_t g_sink = 0;

struct BenchRecord {
  std::string mode;
  std::string shape;
  double seconds_per_iter = 0.0;
  double mb_per_s = 0.0;
  std::uint64_t peak_bytes_mapped = 0;
};

/// Folds every byte a slice exposes (topology + features + labels)
/// into a CRC accumulator — the "work" each sweep iteration does, and
/// the cross-host determinism witness.
std::uint64_t ChecksumSlice(const PartitionSlice& slice,
                            std::int64_t feature_dim,
                            std::int64_t edge_feature_dim) {
  std::uint64_t acc = 0;
  acc += Crc32(slice.nodes.data(), slice.nodes.size_bytes());
  acc += Crc32(slice.out_offsets.data(), slice.out_offsets.size_bytes());
  acc += Crc32(slice.out_dst.data(), slice.out_dst.size_bytes());
  acc += Crc32(slice.out_edge_ids.data(), slice.out_edge_ids.size_bytes());
  acc += Crc32(slice.node_features,
               slice.nodes.size() * static_cast<std::size_t>(feature_dim) *
                   sizeof(float));
  if (slice.edge_features != nullptr) {
    acc += Crc32(slice.edge_features,
                 slice.out_dst.size() *
                     static_cast<std::size_t>(edge_feature_dim) *
                     sizeof(float));
  }
  if (!slice.labels.empty()) {
    acc += Crc32(slice.labels.data(), slice.labels.size_bytes());
  }
  return acc;
}

std::uint64_t SweepView(const GraphView& view) {
  std::uint64_t acc = 0;
  for (std::int64_t p = 0; p < view.num_partitions(); ++p) {
    const Result<PartitionSlice> slice = view.AcquirePartition(p);
    if (!slice.ok()) {
      std::fprintf(stderr, "bench_storage: %s\n",
                   slice.status().ToString().c_str());
      std::exit(2);
    }
    acc += ChecksumSlice(*slice, view.feature_dim(),
                         view.edge_feature_dim());
  }
  return acc;
}

/// The pipeline's access shape: same sweep, but every acquire goes
/// through the double-buffered loader thread.
std::uint64_t SweepPipelined(const GraphView& view, int slots) {
  ShardPipeline pipeline(view, ShardPipelineOptions{slots});
  std::uint64_t acc = 0;
  for (std::int64_t p = 0; p < view.num_partitions(); ++p) {
    const Result<PartitionSlice> slice = pipeline.Acquire(p);
    if (!slice.ok()) {
      std::fprintf(stderr, "bench_storage: %s\n",
                   slice.status().ToString().c_str());
      std::exit(2);
    }
    acc += ChecksumSlice(*slice, view.feature_dim(),
                         view.edge_feature_dim());
  }
  return acc;
}

ShardStoreOptions StoreOptions(const std::string& dir,
                               std::uint64_t budget) {
  ShardStoreOptions options;
  options.directory = dir;
  options.memory_budget_bytes = budget;
  return options;
}

ShardStore MustOpen(ShardStoreOptions options) {
  Result<ShardStore> store = ShardStore::Open(std::move(options));
  if (!store.ok()) {
    std::fprintf(stderr, "bench_storage: %s\n",
                 store.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*store);
}

void WriteJson(const std::string& path,
               const std::vector<BenchRecord>& records, bool quick,
               std::uint64_t gather_checksum, std::uint64_t budget,
               ShardReadPath read_path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_storage: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  out << "{\n";
  out << "  \"bench\": \"bench_storage\",\n";
  out << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  out << "  \"gather_checksum\": \"" << gather_checksum << "\",\n";
  out << "  \"memory_budget_bytes\": " << budget << ",\n";
  out << "  \"read_path\": \"" << ShardReadPathName(read_path) << "\",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"op\": \"%s\", \"shape\": \"%s\", "
                  "\"seconds_per_iter\": %.6e, \"mb_per_s\": %.2f, "
                  "\"peak_bytes_mapped\": %llu}%s",
                  r.mode.c_str(), r.shape.c_str(), r.seconds_per_iter,
                  r.mb_per_s,
                  static_cast<unsigned long long>(r.peak_bytes_mapped),
                  i + 1 < records.size() ? "," : "");
    out << line << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %zu records to %s\n", records.size(), path.c_str());
}

int Main(int argc, const char* const argv[]) {
  const Result<FlagParser> flags = ParseFlags(
      argc, argv, {"quick", "out", "overlap-gate", "overlap-tolerance"});
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  const bool quick = flags->GetBool("quick", false);
  const std::string out_path =
      flags->GetString("out", "BENCH_storage.json");
  const bool overlap_gate = flags->GetBool("overlap-gate", false);
  const double overlap_tolerance =
      flags->GetDouble("overlap-tolerance", 0.10);

  bench::TimingOptions timing;
  timing.min_seconds = quick ? 0.02 : 0.3;
  timing.max_iters = quick ? 3 : 50;

  // One dataset shape for quick AND full runs, so a quick CI check
  // compares against the checked-in full baseline on matching rows.
  PlantedGraphConfig config;
  config.num_nodes = 120000;
  config.avg_degree = 8.0;
  config.feature_dim = 64;
  config.num_classes = 8;
  config.in_skew_alpha = 1.2;
  config.seed = 7;
  std::printf("generating %lld nodes x %lld features...\n",
              static_cast<long long>(config.num_nodes),
              static_cast<long long>(config.feature_dim));
  const Dataset dataset = MakePlantedDataset("bench-storage", config);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "bench_storage_pack")
          .string();
  std::filesystem::remove_all(dir);
  ShardWriterOptions writer;
  writer.num_partitions = kPartitions;
  const Result<ShardMeta> meta =
      WriteGraphShards(dataset.graph, dir, writer);
  if (!meta.ok()) {
    std::fprintf(stderr, "bench_storage: %s\n",
                 meta.status().ToString().c_str());
    return 2;
  }

  std::uint64_t smallest = UINT64_MAX;
  std::uint64_t pack_bytes = 0;
  for (std::int64_t p = 0; p < kPartitions; ++p) {
    const std::uint64_t size =
        std::filesystem::file_size(dir + "/" + ShardFileName(p));
    smallest = std::min(smallest, size);
    pack_bytes += size;
  }
  // Binding: the whole pack can never be resident at once.
  const std::uint64_t budget = pack_bytes - smallest;
  const double pack_mb = static_cast<double>(pack_bytes) / (1024.0 * 1024.0);

  std::ostringstream shape_label;
  shape_label << config.num_nodes << "x" << config.feature_dim << "p"
              << kPartitions;
  const std::string shape = shape_label.str();
  std::printf("pack: %.1f MiB in %lld shards (budget %.1f MiB)\n\n",
              pack_mb, static_cast<long long>(kPartitions),
              static_cast<double>(budget) / (1024.0 * 1024.0));

  std::vector<BenchRecord> records;
  std::uint64_t gather_checksum = 0;
  ShardReadPath read_path = ShardReadPath::kMmap;
  int failures = 0;
  const auto record = [&](const std::string& mode, double seconds,
                          std::uint64_t peak) {
    BenchRecord r;
    r.mode = mode;
    r.shape = shape;
    r.seconds_per_iter = seconds;
    r.mb_per_s = pack_mb / seconds;
    r.peak_bytes_mapped = peak;
    records.push_back(r);
    std::printf("%-11s %-16s %10.3f ms/iter  %9.1f MB/s  peak %.1f MiB\n",
                mode.c_str(), shape.c_str(), seconds * 1e3, r.mb_per_s,
                static_cast<double>(peak) / (1024.0 * 1024.0));
  };

  {  // cold: open + demand-load the whole pack every iteration
    std::uint64_t peak = 0;
    const double seconds = bench::TimeIt(timing, [&] {
      ShardStore store = MustOpen(StoreOptions(dir, 0));
      const ShardGraphView view(std::move(store));
      g_sink = g_sink + SweepView(view);
      peak = view.storage_metrics().peak_bytes_mapped;
    });
    record("cold", seconds, peak);
  }

  {  // warm: one store, every Map a cache hit
    ShardStore store = MustOpen(StoreOptions(dir, 0));
    read_path = store.read_path();
    const ShardGraphView view(std::move(store));
    gather_checksum = SweepView(view);  // fill
    const double seconds = bench::TimeIt(
        timing, [&] { g_sink = g_sink + SweepView(view); });
    const StorageMetrics metrics = view.storage_metrics();
    record("warm", seconds, metrics.peak_bytes_mapped);
    if (metrics.checksum_failures != 0) {
      std::fprintf(stderr, "INVARIANT: checksum_failures = %lld != 0\n",
                   static_cast<long long>(metrics.checksum_failures));
      ++failures;
    }
  }

  {  // streamed: sequential sweep under the binding budget
    std::uint64_t peak = 0;
    const double seconds = bench::TimeIt(timing, [&] {
      ShardStore store = MustOpen(StoreOptions(dir, budget));
      const ShardGraphView view(std::move(store));
      const std::uint64_t acc = SweepView(view);
      g_sink = g_sink + acc;
      if (acc != gather_checksum) {
        std::fprintf(stderr, "INVARIANT: streamed checksum diverged\n");
        ++failures;
      }
      peak = view.storage_metrics().peak_bytes_mapped;
    });
    record("streamed", seconds, peak);
    if (peak > budget) {
      std::fprintf(stderr,
                   "INVARIANT: peak %llu exceeds the %llu-byte budget\n",
                   static_cast<unsigned long long>(peak),
                   static_cast<unsigned long long>(budget));
      ++failures;
    }
  }

  {  // pipelined: the sweep with a dedicated loader thread overlapping
     // shard I/O for p+1 behind the checksum compute on p
    std::uint64_t peak = 0;
    const double seconds = bench::TimeIt(timing, [&] {
      ShardStore store = MustOpen(StoreOptions(dir, budget));
      const ShardGraphView view(std::move(store));
      const std::uint64_t acc = SweepPipelined(view, /*slots=*/2);
      g_sink = g_sink + acc;
      if (acc != gather_checksum) {
        std::fprintf(stderr, "INVARIANT: pipelined checksum diverged\n");
        ++failures;
      }
      peak = view.storage_metrics().peak_bytes_mapped;
    });
    record("pipelined", seconds, peak);
    if (peak > budget) {
      std::fprintf(stderr,
                   "INVARIANT: peak %llu exceeds the %llu-byte budget\n",
                   static_cast<unsigned long long>(peak),
                   static_cast<unsigned long long>(budget));
      ++failures;
    }
  }

  if (overlap_gate) {
    double streamed_s = 0.0;
    double pipelined_s = 0.0;
    for (const BenchRecord& r : records) {
      if (r.mode == "streamed") streamed_s = r.seconds_per_iter;
      if (r.mode == "pipelined") pipelined_s = r.seconds_per_iter;
    }
    if (pipelined_s > streamed_s * (1.0 + overlap_tolerance)) {
      std::fprintf(stderr,
                   "OVERLAP GATE: pipelined %.3f ms/iter is slower than "
                   "streamed %.3f ms/iter (tolerance %.0f%%)\n",
                   pipelined_s * 1e3, streamed_s * 1e3,
                   overlap_tolerance * 100.0);
      ++failures;
    } else {
      std::printf("overlap gate: pipelined %.3f ms/iter vs streamed "
                  "%.3f ms/iter — ok\n",
                  pipelined_s * 1e3, streamed_s * 1e3);
    }
  }

  std::printf("\ngather_checksum: %llu  read_path: %s\n",
              static_cast<unsigned long long>(gather_checksum),
              std::string(ShardReadPathName(read_path)).c_str());
  WriteJson(out_path, records, quick, gather_checksum, budget, read_path);
  std::filesystem::remove_all(dir);

  if (failures != 0) {
    std::fprintf(stderr, "bench_storage: %d invariant violation(s)\n",
                 failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace inferturbo

int main(int argc, char** argv) { return inferturbo::Main(argc, argv); }
