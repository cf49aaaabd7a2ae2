#include "src/inference/output_writer.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/common/crc32.h"
#include "src/common/parallel_exec.h"
#include "src/common/timer.h"
#include "src/graph/partition.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace inferturbo {
namespace {

std::string ShardName(const char* prefix, std::int64_t shard) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s_%05lld.tsv", prefix,
                static_cast<long long>(shard));
  return buf;
}

// Widest token each formatter can emit: "-9223372036854775808", and a
// float at six significant digits ("-1.17549e-38", "-nan").
constexpr std::size_t kMaxIntChars = 20;
constexpr std::size_t kMaxFloatChars = 16;

void AppendInt(std::int64_t value, std::string* out) {
  char buf[kMaxIntChars];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// std::to_chars at general precision 6 prints exactly what
// printf("%.6g") prints for every float, NaN and inf included, without
// the locale and format-string parsing.
void AppendFloats(const float* values, std::int64_t n, std::string* out) {
  char buf[kMaxFloatChars];
  for (std::int64_t j = 0; j < n; ++j) {
    out->push_back(j == 0 ? '\t' : ',');
    out->append(buf, std::to_chars(buf, buf + sizeof(buf),
                                   static_cast<double>(values[j]),
                                   std::chars_format::general, 6)
                         .ptr);
  }
}

std::string CrcHex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

}  // namespace

Status WriteInferenceOutput(const InferenceResult& result,
                            const std::string& directory,
                            const OutputWriterOptions& options) {
  if (options.num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  const std::int64_t num_nodes = result.logits.rows();
  const bool with_embeddings = !result.embeddings.empty();
  const std::size_t num_shards = static_cast<std::size_t>(options.num_shards);
  HashPartitioner partitioner(options.num_shards);

  // Group node ids by shard with a counting sort: shard s owns
  // order[begin[s], begin[s + 1]), in ascending node-id order.
  std::vector<std::int64_t> begin(num_shards + 1, 0);
  for (NodeId v = 0; v < num_nodes; ++v) {
    ++begin[static_cast<std::size_t>(partitioner.PartitionOf(v)) + 1];
  }
  for (std::size_t s = 0; s < num_shards; ++s) begin[s + 1] += begin[s];
  std::vector<NodeId> order(static_cast<std::size_t>(num_nodes));
  std::vector<std::int64_t> cursor(begin.begin(), begin.end() - 1);
  for (NodeId v = 0; v < num_nodes; ++v) {
    const std::size_t s = static_cast<std::size_t>(partitioner.PartitionOf(v));
    order[static_cast<std::size_t>(cursor[s]++)] = v;
  }

  // Shard contents are built in memory first, then each file lands
  // atomically (temp + rename) and the manifest — which downstream
  // consumers treat as the commit record — is written only after every
  // shard is durable. A crash mid-export leaves either a complete,
  // readable export or no manifest at all, never a torn one.
  //
  // Buffers are reserved here to a per-row upper bound, so the format
  // tasks never regrow one and only the bytes written become resident.
  const std::size_t score_row_bound =
      2 * kMaxIntChars + 2 +
      (options.write_logits
           ? static_cast<std::size_t>(result.logits.cols()) *
                 (kMaxFloatChars + 1)
           : 0);
  const std::size_t embedding_row_bound =
      kMaxIntChars + 1 +
      static_cast<std::size_t>(result.embeddings.cols()) *
          (kMaxFloatChars + 1);
  std::vector<std::string> scores(num_shards);
  std::vector<std::string> embeddings(with_embeddings ? num_shards : 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t rows = static_cast<std::size_t>(begin[s + 1] - begin[s]);
    scores[s].reserve(rows * score_row_bound);
    if (with_embeddings) embeddings[s].reserve(rows * embedding_row_bound);
  }

  // One task per shard formats its rows and checksums its score bytes;
  // tasks share nothing but read-only inputs.
  std::vector<std::uint32_t> score_crc(num_shards, 0);
  StaticExecutor::Default().RunTasks(
      static_cast<int>(num_shards), [&](WorkerSlot&, int task) {
        TraceSpan span("output/format", task);
        const WallTimer timer;
        const std::size_t s = static_cast<std::size_t>(task);
        std::string& out = scores[s];
        for (std::int64_t i = begin[s]; i < begin[s + 1]; ++i) {
          const NodeId v = order[static_cast<std::size_t>(i)];
          AppendInt(v, &out);
          out.push_back('\t');
          AppendInt(result.predictions[static_cast<std::size_t>(v)], &out);
          if (options.write_logits) {
            AppendFloats(result.logits.RowPtr(v), result.logits.cols(), &out);
          }
          out.push_back('\n');
          if (with_embeddings) {
            std::string& emb = embeddings[s];
            AppendInt(v, &emb);
            AppendFloats(result.embeddings.RowPtr(v),
                         result.embeddings.cols(), &emb);
            emb.push_back('\n');
          }
        }
        score_crc[s] = Crc32(out);
        if (MetricsEnabled()) {
          static Histogram* hist =
              GlobalMetrics().GetHistogram("output.format_seconds");
          hist->Observe(timer.ElapsedSeconds());
        }
      });

  // Files commit serially in shard order, manifest last, so a fault
  // injector sees the same operation sequence as a serial writer.
  TraceSpan span("output/commit");
  const WallTimer commit_timer;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::int64_t shard = static_cast<std::int64_t>(s);
    INFERTURBO_RETURN_NOT_OK(
        WriteFileAtomic(directory + "/" + ShardName("scores", shard),
                        scores[s], options.fault_injector, options.retry));
    if (with_embeddings) {
      INFERTURBO_RETURN_NOT_OK(WriteFileAtomic(
          directory + "/" + ShardName("embeddings", shard), embeddings[s],
          options.fault_injector, options.retry));
    }
  }

  // Manifest rows carry each score shard's row count and CRC32 so
  // readers can verify shard integrity end to end.
  std::ostringstream manifest;
  manifest << "num_nodes\t" << num_nodes << "\n";
  manifest << "num_shards\t" << options.num_shards << "\n";
  manifest << "embeddings\t" << (with_embeddings ? 1 : 0) << "\n";
  for (std::size_t s = 0; s < num_shards; ++s) {
    manifest << ShardName("scores", static_cast<std::int64_t>(s)) << "\t"
             << begin[s + 1] - begin[s] << "\t" << CrcHex(score_crc[s])
             << "\n";
  }
  const Status committed =
      WriteFileAtomic(directory + "/MANIFEST.tsv", manifest.str(),
                      options.fault_injector, options.retry);
  if (MetricsEnabled()) {
    static Histogram* hist =
        GlobalMetrics().GetHistogram("output.commit_seconds");
    hist->Observe(commit_timer.ElapsedSeconds());
  }
  return committed;
}

Result<std::vector<std::int64_t>> ReadPredictions(
    const std::string& directory, IoFaultInjector* injector,
    const IoRetryPolicy& retry) {
  // Every count in the manifest is checked against bytes that exist
  // before it sizes an allocation: a damaged manifest is an IoError,
  // never a std::length_error.
  std::string manifest;
  {
    std::ifstream in(directory + "/MANIFEST.tsv", std::ios::binary);
    if (!in) return Status::IoError("cannot open manifest");
    std::ostringstream bytes;
    bytes << in.rdbuf();
    manifest = std::move(bytes).str();
  }
  std::istringstream manifest_in(manifest);
  std::string nodes_key, shards_key, embeddings_key;
  std::int64_t num_nodes = 0, num_shards = 0, has_embeddings = 0;
  manifest_in >> nodes_key >> num_nodes >> shards_key >> num_shards >>
      embeddings_key >> has_embeddings;
  if (!manifest_in || nodes_key != "num_nodes" ||
      shards_key != "num_shards" || embeddings_key != "embeddings" ||
      num_nodes <= 0 || num_shards <= 0) {
    return Status::IoError("malformed manifest");
  }
  // The shortest shard row is "scores_00000.tsv\t0\t00000000\n".
  constexpr std::int64_t kMinShardRowBytes = 28;
  if (num_shards > static_cast<std::int64_t>(manifest.size()) /
                       kMinShardRowBytes) {
    return Status::IoError("manifest lists " + std::to_string(num_shards) +
                           " shards in " + std::to_string(manifest.size()) +
                           " bytes");
  }
  // Per-shard rows: name, row count, crc32 hex. The row counts must
  // partition num_nodes, and no shard may promise more rows than its
  // file could hold (the shortest row is "0\t0\n").
  std::vector<std::int64_t> shard_rows(static_cast<std::size_t>(num_shards));
  std::vector<std::string> shard_crc(static_cast<std::size_t>(num_shards));
  std::int64_t rows_listed = 0;
  for (std::int64_t s = 0; s < num_shards; ++s) {
    std::string name;
    std::int64_t& rows = shard_rows[static_cast<std::size_t>(s)];
    manifest_in >> name >> rows >> shard_crc[static_cast<std::size_t>(s)];
    if (!manifest_in || name != ShardName("scores", s) || rows < 0 ||
        rows > num_nodes - rows_listed) {
      return Status::IoError("malformed manifest shard row for shard " +
                             std::to_string(s));
    }
    const std::string path = directory + "/" + name;
    std::error_code error;
    const std::uintmax_t bytes = std::filesystem::file_size(path, error);
    if (error) return Status::IoError("cannot open " + path);
    if (static_cast<std::uintmax_t>(rows) > bytes / 4) {
      return Status::IoError("manifest promises more rows than " + path +
                             " holds");
    }
    rows_listed += rows;
  }
  if (rows_listed != num_nodes) {
    return Status::IoError("manifest shard rows sum to " +
                           std::to_string(rows_listed) + ", not num_nodes " +
                           std::to_string(num_nodes));
  }

  std::vector<std::int64_t> predictions(
      static_cast<std::size_t>(num_nodes), -1);
  for (std::int64_t s = 0; s < num_shards; ++s) {
    const std::string path = directory + "/" + ShardName("scores", s);
    // Read + CRC verify as one retried unit: a transient short read or
    // bit flip fails the checksum and the retry re-reads healthy bytes;
    // persistent corruption surfaces as a descriptive IoError.
    std::string content;
    INFERTURBO_RETURN_NOT_OK(RetryWithBackoff(retry, [&] {
      INFERTURBO_ASSIGN_OR_RETURN(content, ReadFileToString(path, injector));
      const std::string actual = CrcHex(Crc32(content));
      if (actual != shard_crc[static_cast<std::size_t>(s)]) {
        return Status::IoError(
            "score shard checksum mismatch for " + path + " (manifest " +
            shard_crc[static_cast<std::size_t>(s)] + ", computed " + actual +
            ")");
      }
      return Status::OK();
    }));
    std::istringstream shard(content);
    std::int64_t rows_seen = 0;
    std::string line;
    while (std::getline(shard, line)) {
      if (line.empty()) continue;
      std::int64_t node = 0, pred = 0;
      const char* p = line.data();
      const char* end = line.data() + line.size();
      auto r1 = std::from_chars(p, end, node);
      if (r1.ec != std::errc() || r1.ptr >= end || *r1.ptr != '\t') {
        return Status::IoError("malformed score row: " + line);
      }
      auto r2 = std::from_chars(r1.ptr + 1, end, pred);
      if (r2.ec != std::errc()) {
        return Status::IoError("malformed score row: " + line);
      }
      if (node < 0 || node >= num_nodes) {
        return Status::IoError("score row for unknown node");
      }
      predictions[static_cast<std::size_t>(node)] = pred;
      ++rows_seen;
    }
    if (rows_seen != shard_rows[static_cast<std::size_t>(s)]) {
      return Status::IoError(
          "score shard " + std::to_string(s) + " holds " +
          std::to_string(rows_seen) + " rows, manifest promised " +
          std::to_string(shard_rows[static_cast<std::size_t>(s)]));
    }
  }
  for (std::int64_t pred : predictions) {
    if (pred < 0) return Status::IoError("manifest promised missing rows");
  }
  return predictions;
}

}  // namespace inferturbo
