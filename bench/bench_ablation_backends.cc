// Ablation (DESIGN.md §5): Pregel (state-resident) vs MapReduce
// (shuffle-everything) across worker counts, same graph and model.
// Quantifies the backend trade-off the paper describes qualitatively:
// MapReduce moves strictly more bytes (it re-ships self-state and
// out-edge lists every round) but holds less resident state.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/common/byte_size.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"

namespace inferturbo {
namespace {

void Run() {
  bench::PrintHeader("Ablation: backends",
                     "Pregel vs MapReduce across worker counts");
  PowerLawConfig config;
  config.num_nodes = 10000;
  config.avg_degree = 8.0;
  config.seed = 67;
  const Dataset dataset = MakePowerLawDataset(config, /*feature_dim=*/32);
  std::printf("%5s | %8s | %-9s | %10s %12s %14s %12s\n", "model",
              "workers", "backend", "time (s)", "cpu (s)", "shuffle bytes",
              "peak mem");
  bench::PrintRule();
  // sage pools its messages; gat cannot, so every raw per-edge row
  // reaches apply_node (a union receive).
  for (const char* kind : {"sage", "gat"}) {
    const std::unique_ptr<GnnModel> model =
        bench::UntrainedModelOn(dataset, kind, /*hidden_dim=*/32);
    for (const std::int64_t workers : {4L, 16L, 64L}) {
      InferTurboOptions options;
      options.num_workers = workers;
      options.strategies.partial_gather = true;

      const Result<InferenceResult> pregel =
          RunInferTurboPregel(dataset.graph, *model, options);
      INFERTURBO_CHECK(pregel.ok());
      std::printf("%5s | %8lld | %-9s | %10.3f %12.3f %14s %12s\n", kind,
                  static_cast<long long>(workers), "pregel",
                  pregel->metrics.SimulatedWallSeconds(),
                  pregel->metrics.TotalCpuSeconds(),
                  FormatBytes(pregel->metrics.TotalBytesOut()).c_str(),
                  FormatBytes(pregel->metrics.PeakResidentBytes()).c_str());

      const Result<InferenceResult> mr =
          RunInferTurboMapReduce(dataset.graph, *model, options);
      INFERTURBO_CHECK(mr.ok());
      std::printf("%5s | %8lld | %-9s | %10.3f %12.3f %14s %12s\n", kind,
                  static_cast<long long>(workers), "mapreduce",
                  mr->metrics.SimulatedWallSeconds(),
                  mr->metrics.TotalCpuSeconds(),
                  FormatBytes(mr->metrics.TotalBytesOut()).c_str(),
                  FormatBytes(mr->metrics.PeakResidentBytes()).c_str());
    }
  }
  std::printf(
      "\nexpected shape: MapReduce ships strictly more bytes at every\n"
      "worker count (state re-shuffled each round); Pregel is faster\n"
      "wall-clock. Memory is the paper's §IV-C2 trade-off: Pregel's\n"
      "peak scales with the partition (graph_size / workers — grows\n"
      "unbounded as graphs outgrow the cluster), while MapReduce's is\n"
      "bounded by the largest single key group regardless of graph\n"
      "size, which is why the paper's largest runs only fit the MR\n"
      "backend. Both produce identical predictions (tested in\n"
      "tests/inference_equivalence_test.cc).\n");
}

}  // namespace
}  // namespace inferturbo

int main() { inferturbo::Run(); }
