// Packs node/edge text tables into an immutable shard directory the
// out-of-core inference path streams (src/storage/):
//
//   graph_pack --nodes=nodes.tsv --edges=edges.tsv
//       --out=/data/job/shards --partitions=8 [--verify]
//
// --partitions must equal the --workers a later shard-backed
// --backend=mapreduce run will use: the shard partitioning *is* the
// worker assignment, which is what makes the streamed run's logits
// bit-identical to an in-memory one. --verify re-opens the pack,
// rebuilds the graph from it, and compares every byte against the
// input before declaring success. An unknown flag exits 2.
#include <cstdio>
#include <string>

#include "src/common/byte_size.h"
#include "src/common/flags.h"
#include "src/graph/graph_io.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_pipeline.h"
#include "src/storage/shard_store.h"
#include "src/storage/shard_writer.h"

namespace inferturbo {
namespace {

bool BitIdentical(const Graph& a, const Graph& b) {
  return a.num_nodes() == b.num_nodes() && a.num_edges() == b.num_edges() &&
         a.edge_src() == b.edge_src() && a.edge_dst() == b.edge_dst() &&
         a.labels() == b.labels() &&
         a.node_features().ApproxEquals(b.node_features(), 0.0f) &&
         a.has_edge_features() == b.has_edge_features() &&
         (!a.has_edge_features() ||
          a.edge_features().ApproxEquals(b.edge_features(), 0.0f));
}

int Main(int argc, const char* const argv[]) {
  const Result<FlagParser> flags = ParseFlags(
      argc, argv, {"nodes", "edges", "out", "partitions", "verify"});
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  const std::string nodes = flags->GetString("nodes", "");
  const std::string edges = flags->GetString("edges", "");
  const std::string out = flags->GetString("out", "");
  if (nodes.empty() || edges.empty() || out.empty()) {
    std::fprintf(stderr,
                 "usage: graph_pack --nodes=NODES.tsv --edges=EDGES.tsv "
                 "--out=SHARD_DIR [--partitions=N] [--verify]\n");
    return 2;
  }

  const Result<Graph> graph = LoadGraphFromTables(nodes, edges);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  ShardWriterOptions writer;
  writer.num_partitions = flags->GetInt("partitions", 8);
  const Result<ShardMeta> meta = WriteGraphShards(*graph, out, writer);
  if (!meta.ok()) {
    std::fprintf(stderr, "%s\n", meta.status().ToString().c_str());
    return 1;
  }
  std::printf("packed %lld nodes / %lld edges into %lld shards under %s\n",
              static_cast<long long>(meta->num_nodes),
              static_cast<long long>(meta->num_edges),
              static_cast<long long>(meta->num_partitions()), out.c_str());

  if (flags->GetBool("verify", false)) {
    ShardStoreOptions store_options;
    store_options.directory = out;
    Result<ShardStore> store = ShardStore::Open(std::move(store_options));
    if (!store.ok()) {
      std::fprintf(stderr, "verify: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    ShardGraphView view(std::move(*store));
    const Result<Graph> rebuilt = MaterializeGraph(view);
    if (!rebuilt.ok()) {
      std::fprintf(stderr, "verify: %s\n",
                   rebuilt.status().ToString().c_str());
      return 1;
    }
    if (!BitIdentical(*graph, *rebuilt)) {
      std::fprintf(stderr,
                   "verify: rebuilt graph differs from the input\n");
      return 1;
    }
    const StorageMetrics metrics = view.storage_metrics();
    std::printf("verify: OK (bit-identical round trip; peak mapped %s)\n",
                FormatBytes(metrics.peak_bytes_mapped).c_str());
  }
  return 0;
}

}  // namespace
}  // namespace inferturbo

int main(int argc, char** argv) { return inferturbo::Main(argc, argv); }
