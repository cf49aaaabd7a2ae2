#ifndef INFERTURBO_BENCH_BENCH_COMMON_H_
#define INFERTURBO_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/graph/datasets.h"
#include "src/nn/model.h"
#include "src/nn/trainer.h"

namespace inferturbo {
namespace bench {

/// Every experiment binary prints a header naming the paper artifact it
/// regenerates, so `for b in build/bench/*; do $b; done` output reads
/// as a reproduction log.
inline void PrintHeader(const std::string& artifact,
                        const std::string& description) {
  std::printf("\n==============================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), description.c_str());
  std::printf("==============================================================\n");
}

inline void PrintRule() {
  std::printf("--------------------------------------------------------------\n");
}

struct TimingOptions {
  double min_seconds = 0.3;
  std::int64_t max_iters = 200;
};

/// Times `fn` by whole iterations until the budget is spent. Returns
/// seconds per iteration (and the iteration count via `iters_out`). One
/// untimed warmup iteration absorbs cold caches, lazy page-ins and lazy
/// ISA dispatch.
template <typename Fn>
double TimeIt(const TimingOptions& options, Fn&& fn,
              std::int64_t* iters_out = nullptr) {
  fn();
  WallTimer timer;
  std::int64_t iters = 0;
  double elapsed = 0.0;
  while (elapsed < options.min_seconds && iters < options.max_iters) {
    fn();
    ++iters;
    elapsed = timer.ElapsedSeconds();
  }
  if (iters_out != nullptr) *iters_out = iters;
  return elapsed / static_cast<double>(iters);
}

/// Parses a comma-separated thread sweep ("1,2,8"); entries below 1 are
/// dropped, and an empty result falls back to {1}.
inline std::vector<int> ParseThreadSet(const std::string& spec) {
  std::vector<int> threads;
  std::stringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    const int t = std::atoi(item.c_str());
    if (t >= 1) threads.push_back(t);
  }
  if (threads.empty()) threads.push_back(1);
  return threads;
}

inline std::string ThreadSetLabel(const std::vector<int>& threads) {
  std::ostringstream out;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    out << (i ? "," : "") << threads[i];
  }
  return out.str();
}

/// The multithreading-is-a-win gate over a thread sweep's records (any
/// type with op, shape, threads and seconds_per_iter): for every
/// (op, shape) with both a 1-thread row and multi-thread rows, the BEST
/// multi-thread time must not be worse than the 1-thread time by more
/// than `tolerance`. On a single-core host the executor caps fan-out at
/// the core count, so multi-thread rows degrade to ~parity and the gate
/// still holds; on a real multi-core runner this enforces actual
/// scaling. Returns 1 on any violation, else 0.
template <typename Record>
int CheckScaling(const std::vector<Record>& records, double tolerance) {
  int violations = 0, groups = 0;
  for (const Record& r : records) {
    if (r.threads != 1) continue;
    double best_multi = 0.0;
    int best_threads = 0;
    for (const Record& m : records) {
      if (m.op != r.op || m.shape != r.shape || m.threads == 1) continue;
      if (best_threads == 0 || m.seconds_per_iter < best_multi) {
        best_multi = m.seconds_per_iter;
        best_threads = m.threads;
      }
    }
    if (best_threads == 0) continue;
    ++groups;
    if (best_multi > r.seconds_per_iter * (1.0 + tolerance)) {
      ++violations;
      std::printf("SCALING VIOLATION %s %s: best multi-thread %.3f ms/iter "
                  "(threads=%d) vs 1-thread %.3f ms/iter (tolerance %.0f%%)\n",
                  r.op.c_str(), r.shape.c_str(), best_multi * 1e3,
                  best_threads, r.seconds_per_iter * 1e3, tolerance * 100.0);
    } else {
      std::printf("scaling ok %s %s: %.2fx at best multi-thread\n",
                  r.op.c_str(), r.shape.c_str(),
                  r.seconds_per_iter / best_multi);
    }
  }
  std::printf("scaling gate: %d groups checked, %d violations\n", groups,
              violations);
  return violations == 0 ? 0 : 1;
}

/// Trains `kind` on `dataset` with fast defaults; benches that need a
/// trained model share this so tables stay comparable.
inline std::unique_ptr<GnnModel> TrainModelOn(const Dataset& dataset,
                                              const std::string& kind,
                                              std::int64_t hidden_dim = 32,
                                              std::int64_t num_layers = 2,
                                              std::int64_t epochs = 8) {
  ModelConfig config;
  config.input_dim = dataset.graph.feature_dim();
  config.hidden_dim = hidden_dim;
  config.num_classes = dataset.graph.num_classes();
  config.num_layers = num_layers;
  config.heads = 4;
  config.seed = 11;
  Result<std::unique_ptr<GnnModel>> model = MakeModel(kind, config);
  INFERTURBO_CHECK(model.ok()) << model.status().ToString();

  TrainerOptions trainer_options;
  trainer_options.epochs = epochs;
  trainer_options.batch_size = 64;
  trainer_options.fanout = 10;
  trainer_options.learning_rate = 1e-2f;
  trainer_options.seed = 7;
  MiniBatchTrainer trainer(&dataset.graph, model->get(), trainer_options);
  const Result<TrainReport> report = trainer.Train();
  INFERTURBO_CHECK(report.ok()) << report.status().ToString();
  return std::move(*model);
}

/// Untrained model with the dataset's shapes (for pure-performance
/// benches where accuracy is irrelevant).
inline std::unique_ptr<GnnModel> UntrainedModelOn(const Dataset& dataset,
                                                  const std::string& kind,
                                                  std::int64_t hidden_dim = 32,
                                                  std::int64_t num_layers = 2,
                                                  std::int64_t heads = 4) {
  ModelConfig config;
  config.input_dim = dataset.graph.feature_dim();
  config.hidden_dim = hidden_dim;
  config.num_classes = dataset.graph.num_classes();
  config.num_layers = num_layers;
  config.heads = heads;
  config.seed = 11;
  Result<std::unique_ptr<GnnModel>> model = MakeModel(kind, config);
  INFERTURBO_CHECK(model.ok()) << model.status().ToString();
  return std::move(*model);
}

}  // namespace bench
}  // namespace inferturbo

#endif  // INFERTURBO_BENCH_BENCH_COMMON_H_
