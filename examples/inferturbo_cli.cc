// A flag-driven command-line front end over the whole public API —
// what an operator would actually run. Subcommand-less; the --mode
// flag selects the action:
//
//   generate   synthesize a dataset and write node/edge tables
//   train      train a model on tables, save parameters + signatures
//   infer      load tables + model, full-graph inference, write
//              sharded scores (+ optional embeddings)
//   serve      stand up the online serving engine on the trained
//              model: zipf query threads + a background delta stream,
//              latency percentiles and cache hit rate at the end
//
// Example session:
//   example_inferturbo_cli --mode=generate --dir=/tmp/job --nodes=5000
//   example_inferturbo_cli --mode=train    --dir=/tmp/job --model=sage
//   example_inferturbo_cli --mode=infer    --dir=/tmp/job --model=sage \
//       --backend=pregel --workers=16 --partial_gather=true
//   example_inferturbo_cli --mode=serve    --dir=/tmp/job --model=sage \
//       --serve_threads=4 --serve_requests=2000 --serve_deltas=16 \
//       --serve_batch_window=1 --serve_max_batch=64
//
// Serve-mode flags:
//   --serve_threads=N         concurrent query threads (default 4)
//   --serve_requests=N        queries per thread (default 500)
//   --serve_nodes_per_query=N node ids per query (default 4)
//   --serve_batch_window=MS   batcher coalescing window (default 1)
//   --serve_max_batch=N       queries per coalesced batch (default 64)
//   --serve_cache=BOOL        per-generation logits cache (default true)
//   --zipf_alpha=A            query popularity skew (default 1.1)
//   --serve_deltas=N          background graph deltas (default 8)
//   --delta_features=N        feature rows refreshed per delta
//   --delta_edges=N           edges added per delta
//   --delta_interval_ms=MS    pause between deltas (default 5)
//   --serve_verify=BOOL       after the run, check served logits are
//                             bit-identical to a from-scratch batch
//                             pass on the final graph (default true)
//
// Observability flags (any mode):
//   --log_level=debug|info|warning|error
//   --trace_out=FILE     Chrome trace-event JSON (open in Perfetto)
//   --metrics_out=FILE   machine-readable run report (infer/serve mode)
//   --profile=true       hardware-counter profiling (perf_event_open);
//                        per-scope cycle/instruction/LLC-miss totals
//                        land in the run report's metrics + profiling
//                        sections (graceful no-op where unavailable)
//   --flight_record_out=FILE  always-on flight recorder: on engine
//                        error or fatal signal the last ~4096
//                        structured events (retries, evictions, fault
//                        injections, generation swaps...) dump as
//                        inferturbo.flight_record.v1 JSON
//   --stats_interval=SEC serve mode: sampler thread appends one
//                        inferturbo.run_timeline.v1 JSONL line per
//                        interval (counter deltas, latency
//                        percentiles, epoch, batcher occupancy)
//   --timeline_out=FILE  serve mode: timeline destination (default
//                        <dir>/timeline.jsonl)
//
// Robustness flags (infer mode; every infer run is supervised, these
// set its policy):
//   --task_deadline_ms=N        per-attempt deadline (0 = none)
//   --max_task_retries=N        retry budget per task (default 3)
//   --speculative_execution=true  backup attempts for stragglers
//   --fault_plan=SPEC           compute-side chaos schedule, e.g.
//       "crash@compute:1:0;transient@map:*:1x2;straggle@reduce:*:2~80"
//
// Performance flags (any mode):
//   --num_threads=N             kernel-layer threads, a non-negative
//                               int (0 = all cores); results are
//                               bit-identical at any value
//   --fast_math=true            opt-in fp32 FMA matmul tier — faster,
//                               NOT bit-identical (documented tolerance)
//
// Run with no flags for a demo that chains all three in /tmp. A flag
// no mode reads is rejected with exit code 2, and so is an integer flag
// whose value is not a whole base-10 integer in its range (kIntFlags).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <string_view>
#include <thread>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/runtime/fault_plan.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/perf_counters.h"
#include "src/telemetry/run_report.h"
#include "src/telemetry/timeline.h"
#include "src/telemetry/trace.h"
#include "src/graph/datasets.h"
#include "src/graph/graph_io.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/inference/output_writer.h"
#include "src/inference/reference_inference.h"
#include "src/nn/metrics.h"
#include "src/common/byte_size.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_store.h"
#include "src/nn/model.h"
#include "src/nn/trainer.h"
#include "src/serving/serving_engine.h"
#include "src/serving/workload.h"
#include "src/common/timer.h"
#include "src/tensor/kernels/kernels.h"

namespace inferturbo {
namespace {

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

// Every integer flag, its default and the values it accepts.
struct IntFlagSpec {
  std::string_view key;
  std::int64_t fallback, lo, hi;
};

constexpr IntFlagSpec kIntFlags[] = {
    // any mode
    {"seed", 11, 0, std::numeric_limits<std::int64_t>::max()},
    {"hidden", 32, 1, kIntMax},
    {"layers", 2, 1, kIntMax},
    {"heads", 4, 1, kIntMax},
    {"num_threads", 0, 0, kIntMax},
    // generate
    {"nodes", 5000, 1, kIntMax},
    {"classes", 6, 1, kIntMax},
    {"features", 16, 1, kIntMax},
    // train
    {"epochs", 10, 0, kIntMax},
    {"batch", 64, 1, kIntMax},
    {"fanout", 10, 1, kIntMax},
    // infer
    {"workers", 8, 1, kIntMax},
    {"checkpoint_interval", 0, 0, kIntMax},
    {"keep_last", 2, 1, kIntMax},
    {"max_task_retries", 3, 0, kIntMax},
    {"pipeline_slots", 2, 0, kIntMax},
    {"shards", 4, 1, kIntMax},
    // serve
    {"serve_threads", 4, 1, 1024},
    {"serve_requests", 500, 1, kIntMax},
    {"serve_nodes_per_query", 4, 1, kIntMax},
    {"serve_max_batch", 64, 1, kIntMax},
    {"serve_deltas", 8, 0, kIntMax},
    {"delta_features", 4, 0, kIntMax},
    {"delta_edges", 2, 0, kIntMax},
};

// The integer flags of one run, each read once through
// FlagParser::GetIntInRange before any mode runs: a value that is not a
// whole base-10 integer in its range is a usage error (exit 2).
class IntFlags {
 public:
  static Result<IntFlags> Parse(const FlagParser& flags) {
    IntFlags ints;
    for (const IntFlagSpec& spec : kIntFlags) {
      const Result<std::int64_t> value = flags.GetIntInRange(
          std::string(spec.key), spec.fallback, spec.lo, spec.hi);
      if (!value.ok()) return value.status();
      ints.values_.emplace(spec.key, *value);
    }
    return ints;
  }

  std::int64_t operator[](std::string_view key) const {
    const auto it = values_.find(key);
    INFERTURBO_CHECK(it != values_.end()) << "no integer flag --" << key;
    return it->second;
  }

 private:
  std::map<std::string_view, std::int64_t> values_;
};

ModelConfig ModelConfigFromFlags(const IntFlags& ints, const Graph& graph) {
  ModelConfig config;
  config.input_dim = graph.feature_dim();
  config.hidden_dim = ints["hidden"];
  config.num_classes = graph.num_classes();
  config.num_layers = ints["layers"];
  config.heads = ints["heads"];
  config.seed = static_cast<std::uint64_t>(ints["seed"]);
  return config;
}

int Generate(const FlagParser& flags, const IntFlags& ints,
             const std::string& dir) {
  PlantedGraphConfig config;
  config.num_nodes = ints["nodes"];
  config.avg_degree = flags.GetDouble("avg_degree", 10.0);
  config.num_classes = ints["classes"];
  config.feature_dim = ints["features"];
  config.homophily = flags.GetDouble("homophily", 0.75);
  config.in_skew_alpha = flags.GetDouble("in_skew", 0.0);
  config.seed = static_cast<std::uint64_t>(ints["seed"]);
  const Dataset dataset = MakePlantedDataset("cli", config);
  if (!WriteNodeTable(dataset.graph, dir + "/nodes.tsv").ok() ||
      !WriteEdgeTable(dataset.graph, dir + "/edges.tsv").ok()) {
    std::fprintf(stderr, "failed to write tables under %s\n", dir.c_str());
    return 1;
  }
  std::printf("generated %lld nodes / %lld edges -> %s/{nodes,edges}.tsv\n",
              static_cast<long long>(dataset.graph.num_nodes()),
              static_cast<long long>(dataset.graph.num_edges()),
              dir.c_str());
  return 0;
}

int Train(const FlagParser& flags, const IntFlags& ints,
          const std::string& dir) {
  const Result<Graph> graph =
      LoadGraphFromTables(dir + "/nodes.tsv", dir + "/edges.tsv");
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const std::string kind = flags.GetString("model", "sage");
  Result<std::unique_ptr<GnnModel>> model =
      MakeModel(kind, ModelConfigFromFlags(ints, *graph));
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  TrainerOptions options;
  // Tables carry no train/val/test split; draw a labeled subset.
  if (graph->train_nodes().empty()) {
    Rng rng(static_cast<std::uint64_t>(ints["seed"]));
    const std::int64_t count =
        std::max<std::int64_t>(32, graph->num_nodes() / 5);
    for (std::int64_t i = 0; i < count; ++i) {
      options.train_nodes.push_back(static_cast<NodeId>(rng.NextBounded(
          static_cast<std::uint64_t>(graph->num_nodes()))));
    }
    std::sort(options.train_nodes.begin(), options.train_nodes.end());
    options.train_nodes.erase(
        std::unique(options.train_nodes.begin(), options.train_nodes.end()),
        options.train_nodes.end());
  }
  options.epochs = ints["epochs"];
  options.batch_size = ints["batch"];
  options.fanout = ints["fanout"];
  options.learning_rate =
      static_cast<float>(flags.GetDouble("lr", 1e-2));
  options.verbose = flags.GetBool("verbose", false);
  MiniBatchTrainer trainer(&*graph, model->get(), options);
  const Result<TrainReport> report = trainer.Train();
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  if (!(*model)->SaveParameters(dir + "/model.bin").ok() ||
      !(*model)->SaveSignatures(dir + "/signatures.txt").ok()) {
    std::fprintf(stderr, "failed to save model under %s\n", dir.c_str());
    return 1;
  }
  std::printf("trained %s for %lld steps (final loss %.4f); saved model + "
              "signature file\n",
              kind.c_str(), static_cast<long long>(report->steps),
              report->final_loss);
  return 0;
}

int Infer(const FlagParser& flags, const IntFlags& ints,
          const std::string& dir) {
  const Result<Graph> graph =
      LoadGraphFromTables(dir + "/nodes.tsv", dir + "/edges.tsv");
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const std::string kind = flags.GetString("model", "sage");
  Result<std::unique_ptr<GnnModel>> model =
      MakeModel(kind, ModelConfigFromFlags(ints, *graph));
  if (!model.ok() || !(*model)->LoadParameters(dir + "/model.bin").ok()) {
    std::fprintf(stderr, "cannot rebuild the trained model (same flags as "
                         "--mode=train required)\n");
    return 1;
  }

  InferTurboOptions options;
  options.num_workers = ints["workers"];
  options.strategies.partial_gather = flags.GetBool("partial_gather", true);
  options.strategies.broadcast = flags.GetBool("broadcast", false);
  options.strategies.shadow_nodes = flags.GetBool("shadow_nodes", false);
  options.strategies.lambda = flags.GetDouble("lambda", 0.1);
  options.export_embeddings = flags.GetBool("embeddings", false);
  // Durable checkpoints: --checkpoint_dir enables them; --resume picks
  // up a previously killed job from its newest valid checkpoint.
  options.checkpoint_directory = flags.GetString("checkpoint_dir", "");
  options.checkpoint_interval = ints["checkpoint_interval"];
  options.checkpoint_keep_last = ints["keep_last"];
  options.resume_from = flags.GetBool("resume", false);
  if (!options.checkpoint_directory.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.checkpoint_directory, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create checkpoint directory %s: %s\n",
                   options.checkpoint_directory.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }
  // Task supervision policy + compute-side chaos. --fault_plan injects
  // the given crash/transient/straggle schedule (see ParseFaultPlan for
  // the grammar, e.g. "crash@compute:1:0;straggle@reduce:*:2~80").
  FaultPlan fault_plan;
  const std::string fault_spec = flags.GetString("fault_plan", "");
  if (!fault_spec.empty()) {
    const Status parsed = ParseFaultPlan(fault_spec, &fault_plan);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
      return 2;
    }
    options.fault_plan = &fault_plan;
  }
  options.supervision.task_deadline_seconds =
      flags.GetDouble("task_deadline_ms", 0.0) / 1000.0;
  options.supervision.max_task_retries =
      static_cast<int>(ints["max_task_retries"]);
  options.supervision.speculative_execution =
      flags.GetBool("speculative_execution", false);
  const std::string backend = flags.GetString("backend", "pregel");

  // --packed=DIR streams the graph from a graph_pack shard directory
  // (out-of-core) instead of the resident copy; the resident load above
  // still supplies model dims and the accuracy labels.
  // --storage_memory_budget caps resident shard bytes ("512MB", "4GiB").
  // --pipeline_slots sets the streaming pipeline's in-flight window
  // (2 = double buffering, 0 = demand loads).
  const std::string packed = flags.GetString("packed", "");
  Result<InferenceResult> result = Status::Internal("unset");
  options.storage_pipeline_slots = static_cast<int>(ints["pipeline_slots"]);
  if (!packed.empty()) {
    const Result<std::uint64_t> budget =
        flags.GetBytes("storage_memory_budget", 0);
    if (!budget.ok()) {
      std::fprintf(stderr, "%s\n", budget.status().ToString().c_str());
      return 1;
    }
    ShardStoreOptions store_options;
    store_options.directory = packed;
    store_options.memory_budget_bytes = *budget;
    Result<ShardStore> store = ShardStore::Open(std::move(store_options));
    if (!store.ok()) {
      std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
      return 1;
    }
    if (backend == "mapreduce" &&
        options.num_workers != store->meta().num_partitions()) {
      std::fprintf(stderr,
                   "--workers=%lld must equal the pack's --partitions=%lld "
                   "for the mapreduce backend\n",
                   static_cast<long long>(options.num_workers),
                   static_cast<long long>(store->meta().num_partitions()));
      return 1;
    }
    ShardGraphView view(std::move(*store));
    result = backend == "mapreduce"
                 ? RunInferTurboMapReduce(view, **model, options)
                 : RunInferTurboPregel(view, **model, options);
  } else {
    result = backend == "mapreduce"
                 ? RunInferTurboMapReduce(*graph, **model, options)
                 : RunInferTurboPregel(*graph, **model, options);
  }
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  const std::string out_dir = dir + "/output";
  std::filesystem::create_directories(out_dir);
  OutputWriterOptions writer;
  writer.num_shards = ints["shards"];
  if (!WriteInferenceOutput(*result, out_dir, writer).ok()) {
    std::fprintf(stderr, "failed to write output shards\n");
    return 1;
  }
  std::printf("scored %lld nodes on %s backend: %.3f cpu-s, makespan "
              "%.4fs, %lld shards under %s\n",
              static_cast<long long>(graph->num_nodes()), backend.c_str(),
              result->metrics.TotalCpuSeconds(),
              result->metrics.SimulatedWallSeconds(),
              static_cast<long long>(writer.num_shards), out_dir.c_str());
  const SupervisionMetrics& sup = result->metrics.supervision;
  std::printf("supervision: %lld tasks / %lld attempts, %lld retries, "
              "%lld injected faults (%lld crash, %lld transient, %lld "
              "straggle), %lld speculative commits\n",
              static_cast<long long>(sup.tasks),
              static_cast<long long>(sup.attempts),
              static_cast<long long>(sup.retries),
              static_cast<long long>(sup.injected_crashes +
                                     sup.injected_transients +
                                     sup.injected_delays),
              static_cast<long long>(sup.injected_crashes),
              static_cast<long long>(sup.injected_transients),
              static_cast<long long>(sup.injected_delays),
              static_cast<long long>(sup.speculative_commits));
  // The realized schedule, for deterministic replay of this run.
  for (const TaskFaultEvent& event : fault_plan.realized_events()) {
    INFERTURBO_LOG(Info) << "fault_plan realized: "
                         << TaskFaultEventToString(event);
  }
  // --metrics_out: one JSON document unifying job + storage accounting,
  // the metric-registry snapshot, and the flags this run was given.
  const std::string metrics_out = flags.GetString("metrics_out", "");
  if (!metrics_out.empty()) {
    RunReportOptions report;
    report.backend = backend;
    for (const std::string& key : flags.Keys()) {
      report.config[key] = flags.GetString(key, "");
    }
    const Status status =
        WriteRunReport(metrics_out, result->metrics, report);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("run report -> %s\n", metrics_out.c_str());
  }
  if (!graph->labels().empty()) {
    std::vector<NodeId> all(static_cast<std::size_t>(graph->num_nodes()));
    std::iota(all.begin(), all.end(), 0);
    std::printf("accuracy over all nodes: %.4f\n",
                AccuracyOn(result->logits, graph->labels(), all));
  }
  return 0;
}

int Serve(const FlagParser& flags, const IntFlags& ints,
          const std::string& dir) {
  Result<Graph> graph =
      LoadGraphFromTables(dir + "/nodes.tsv", dir + "/edges.tsv");
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  const std::string kind = flags.GetString("model", "sage");
  Result<std::unique_ptr<GnnModel>> model =
      MakeModel(kind, ModelConfigFromFlags(ints, *graph));
  if (!model.ok() || !(*model)->LoadParameters(dir + "/model.bin").ok()) {
    std::fprintf(stderr, "cannot rebuild the trained model (same flags as "
                         "--mode=train required)\n");
    return 1;
  }
  // Percentiles come from the registry's histograms; serve mode always
  // wants them, not only when --metrics_out is set.
  SetMetricsEnabled(true);

  ServingOptions options;
  options.batch_window_seconds =
      flags.GetDouble("serve_batch_window", 1.0) / 1000.0;
  options.max_batch = ints["serve_max_batch"];
  options.cache_logits = flags.GetBool("serve_cache", true);
  std::printf("warming store: full %lld-layer forward over %lld nodes...\n",
              static_cast<long long>((*model)->num_layers()),
              static_cast<long long>(graph->num_nodes()));
  ServingEngine engine(model->get(), std::move(*graph), options);

  // --stats_interval / --timeline_out: a sampler thread appends one
  // run_timeline.v1 JSONL line per interval while the workload runs —
  // registry counter deltas plus the serving-specific gauges below.
  std::optional<TimelineSampler> timeline;
  const double stats_interval = flags.GetDouble("stats_interval", 0.0);
  std::string timeline_out = flags.GetString("timeline_out", "");
  if (stats_interval > 0.0 || !timeline_out.empty()) {
    if (timeline_out.empty()) timeline_out = dir + "/timeline.jsonl";
    TimelineOptions timeline_options;
    timeline_options.path = timeline_out;
    timeline_options.interval_seconds =
        stats_interval > 0.0 ? stats_interval : 1.0;
    timeline_options.extra = [&engine] {
      const ServingStats s = engine.stats();
      return JsonValue(JsonValue::Object{
          {"serving",
           JsonValue(JsonValue::Object{
               {"epoch", JsonValue(s.epoch)},
               {"queries", JsonValue(s.queries)},
               {"batches", JsonValue(s.batches)},
               {"deltas", JsonValue(s.deltas)},
               {"mean_batch_occupancy", JsonValue(s.mean_batch_occupancy)},
               {"cache_hit_rate", JsonValue(s.cache_hit_rate())},
           })},
      });
    };
    timeline.emplace(timeline_options);
  }

  const std::int64_t num_threads = ints["serve_threads"];
  const std::int64_t requests_per_thread = ints["serve_requests"];
  const std::int64_t nodes_per_query = ints["serve_nodes_per_query"];
  const double zipf_alpha = flags.GetDouble("zipf_alpha", 1.1);
  const std::int64_t num_deltas = ints["serve_deltas"];
  const double delta_interval_seconds =
      flags.GetDouble("delta_interval_ms", 5.0) / 1000.0;
  const std::uint64_t seed = static_cast<std::uint64_t>(ints["seed"]);

  // Queries hit only the warm-start id range: the zipf domain is fixed
  // up front while the delta stream may append nodes concurrently.
  const std::int64_t query_domain = engine.graph_snapshot()->num_nodes();
  std::atomic<std::int64_t> query_failures{0};
  WallTimer wall;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(num_threads));
  for (std::int64_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t] {
      ZipfQueryStream stream(query_domain, zipf_alpha,
                             seed + static_cast<std::uint64_t>(t) * 1001);
      for (std::int64_t i = 0; i < requests_per_thread; ++i) {
        const Result<QueryResponse> response =
            engine.Query(stream.Next(nodes_per_query));
        if (!response.ok()) {
          query_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Background writer: live graph updates race the query threads.
  DeltaStream::Options delta_options;
  delta_options.feature_updates = ints["delta_features"];
  delta_options.new_edges = ints["delta_edges"];
  delta_options.zipf_alpha = zipf_alpha;
  delta_options.seed = seed + 7777;
  DeltaStream delta_stream(*engine.graph_snapshot(), delta_options);
  std::int64_t delta_failures = 0;
  for (std::int64_t d = 0; d < num_deltas; ++d) {
    const Result<DeltaApplied> applied =
        engine.ApplyMutation(delta_stream.Next());
    if (!applied.ok()) {
      std::fprintf(stderr, "%s\n", applied.status().ToString().c_str());
      ++delta_failures;
      continue;
    }
    INFERTURBO_LOG(Info) << "epoch " << applied->epoch << ": recomputed "
                         << applied->recomputed_nodes << " node states, "
                         << "invalidated "
                         << applied->invalidated_cache_rows
                         << " cached logits rows in " << applied->seconds
                         << "s";
    if (delta_interval_seconds > 0.0 && d + 1 < num_deltas) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(delta_interval_seconds));
    }
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_seconds = wall.ElapsedSeconds();
  if (timeline) {
    timeline->Stop();
    std::printf("timeline -> %s (%lld samples)\n", timeline_out.c_str(),
                static_cast<long long>(timeline->samples()));
  }

  const ServingStats stats = engine.stats();
  const double qps =
      wall_seconds > 0.0 ? static_cast<double>(stats.queries) / wall_seconds
                         : 0.0;
  std::printf(
      "served %lld queries on %lld threads in %.3fs (%.0f qps), %lld "
      "batches (mean occupancy %.2f)\n",
      static_cast<long long>(stats.queries),
      static_cast<long long>(num_threads), wall_seconds, qps,
      static_cast<long long>(stats.batches), stats.mean_batch_occupancy);
  std::printf(
      "latency p50 %.1fus  p95 %.1fus  p99 %.1fus; cache hit rate %.1f%% "
      "(%lld hits / %lld misses)\n",
      stats.query_p50_seconds * 1e6, stats.query_p95_seconds * 1e6,
      stats.query_p99_seconds * 1e6, stats.cache_hit_rate() * 100.0,
      static_cast<long long>(stats.cache_hits),
      static_cast<long long>(stats.cache_misses));
  std::printf(
      "deltas: %lld applied -> epoch %lld, %lld node states recomputed, "
      "%lld cache rows invalidated\n",
      static_cast<long long>(stats.deltas),
      static_cast<long long>(stats.epoch),
      static_cast<long long>(stats.recomputed_nodes),
      static_cast<long long>(stats.invalidated_cache_rows));
  if (query_failures.load() > 0 || delta_failures > 0) {
    std::fprintf(stderr, "%lld queries / %lld deltas failed\n",
                 static_cast<long long>(query_failures.load()),
                 static_cast<long long>(delta_failures));
    return 1;
  }

  // Exactness spot-check: every served row must be bit-identical to a
  // from-scratch batch run on the final graph. The oracle is the
  // layer-wise reference pass — the same fold order the warm store and
  // change propagation use; the distributed backends match it within
  // the repo-wide logit tolerance, not bitwise (their partition-local
  // folds reassociate the gather sums).
  if (flags.GetBool("serve_verify", true)) {
    const std::shared_ptr<const Graph> final_graph = engine.graph_snapshot();
    std::vector<NodeId> all(
        static_cast<std::size_t>(final_graph->num_nodes()));
    std::iota(all.begin(), all.end(), 0);
    const Result<QueryResponse> served = engine.Query(all);
    if (!served.ok()) {
      std::fprintf(stderr, "verification query failed\n");
      return 1;
    }
    const Tensor batch = FullGraphReferenceLogits(**model, *final_graph);
    const bool identical =
        served->logits.rows() == batch.rows() &&
        served->logits.cols() == batch.cols() &&
        std::memcmp(served->logits.RowPtr(0), batch.RowPtr(0),
                    static_cast<std::size_t>(served->logits.rows() *
                                             served->logits.cols()) *
                        sizeof(float)) == 0;
    if (!identical) {
      std::fprintf(stderr, "served logits diverge from a from-scratch "
                           "batch run on the final graph\n");
      return 1;
    }
    std::printf("verify: served logits bit-identical to a from-scratch "
                "batch run on the final graph (epoch %lld)\n",
                static_cast<long long>(served->epoch));
  }

  const std::string metrics_out = flags.GetString("metrics_out", "");
  if (!metrics_out.empty()) {
    ServingReport serving;
    serving.queries = stats.queries;
    serving.batches = stats.batches;
    serving.cache_hits = stats.cache_hits;
    serving.cache_misses = stats.cache_misses;
    serving.deltas = stats.deltas;
    serving.epoch = stats.epoch;
    serving.recomputed_nodes = stats.recomputed_nodes;
    serving.invalidated_cache_rows = stats.invalidated_cache_rows;
    serving.query_p50_seconds = stats.query_p50_seconds;
    serving.query_p95_seconds = stats.query_p95_seconds;
    serving.query_p99_seconds = stats.query_p99_seconds;
    serving.mean_batch_occupancy = stats.mean_batch_occupancy;
    serving.cache_hit_rate = stats.cache_hit_rate();
    serving.wall_seconds = wall_seconds;
    serving.queries_per_second = qps;
    RunReportOptions report;
    report.backend = "serving";
    report.serving = &serving;
    for (const std::string& key : flags.Keys()) {
      report.config[key] = flags.GetString(key, "");
    }
    const Status status = WriteRunReport(metrics_out, JobMetrics{}, report);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("run report -> %s\n", metrics_out.c_str());
  }
  return 0;
}

int Main(int argc, const char* const argv[]) {
  // Every flag any mode reads; anything else is a usage error (exit 2).
  const Result<FlagParser> flags = ParseFlags(
      argc, argv,
      {// any mode
       "mode", "dir", "model", "seed", "hidden", "layers", "heads",
       "log_level", "trace_out", "metrics_out", "profile",
       "flight_record_out", "num_threads", "fast_math",
       // generate
       "nodes", "avg_degree", "classes", "features", "homophily", "in_skew",
       // train
       "epochs", "batch", "fanout", "lr", "verbose",
       // infer
       "backend", "workers", "partial_gather", "broadcast", "shadow_nodes",
       "lambda", "embeddings", "shards", "checkpoint_dir",
       "checkpoint_interval", "keep_last", "resume", "fault_plan",
       "task_deadline_ms", "max_task_retries", "speculative_execution",
       "packed", "storage_memory_budget", "pipeline_slots",
       // serve
       "serve_threads", "serve_requests", "serve_nodes_per_query",
       "serve_batch_window", "serve_max_batch", "serve_cache", "zipf_alpha",
       "serve_deltas", "delta_features", "delta_edges", "delta_interval_ms",
       "serve_verify", "stats_interval", "timeline_out"});
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  const Result<IntFlags> ints = IntFlags::Parse(*flags);
  if (!ints.ok()) {
    std::fprintf(stderr, "%s\n", ints.status().ToString().c_str());
    return 2;
  }
  const std::string log_level = flags->GetString("log_level", "");
  if (!log_level.empty()) {
    LogLevel level;
    if (!ParseLogLevel(log_level, &level)) {
      std::fprintf(stderr,
                   "unknown --log_level=%s (debug|info|warning|error)\n",
                   log_level.c_str());
      return 2;
    }
    SetLogLevel(level);
  }
  // Kernel-layer performance knobs. --num_threads bounds kernel
  // fan-out (bit-identical at any value); --fast_math opts in to the
  // tolerance-validated FMA tier and is never on by default.
  {
    kernels::KernelConfig config = kernels::GetKernelConfig();
    config.max_threads = static_cast<int>((*ints)["num_threads"]);
    config.fast_math = flags->GetBool("fast_math", false);
    kernels::SetKernelConfig(config);
    if (config.fast_math && !kernels::UsingFastMath()) {
      std::fprintf(stderr,
                   "warning: --fast_math requested but this CPU/build lacks "
                   "AVX2+FMA; staying on the deterministic tier\n");
    }
  }
  // Telemetry is opt-in per run: tracing/metrics stay compiled-out-cheap
  // (a branch on a relaxed atomic) unless the flags ask for output.
  const std::string trace_out = flags->GetString("trace_out", "");
  if (!trace_out.empty()) SetTracingEnabled(true);
  if (!flags->GetString("metrics_out", "").empty()) SetMetricsEnabled(true);
  if (flags->GetBool("profile", false)) {
    // Counter totals accumulate through the registry, so profiling
    // implies metrics.
    SetProfilingEnabled(true);
    SetMetricsEnabled(true);
    if (!PerfCountersSupported()) {
      std::fprintf(stderr,
                   "warning: --profile requested but hardware counters are "
                   "unavailable (%s); profile.* metrics will stay zero\n",
                   PerfCountersUnavailableReason().c_str());
    }
  }
  const std::string flight_out = flags->GetString("flight_record_out", "");
  if (!flight_out.empty()) {
    // Non-empty path arms the recorder; the signal handler covers
    // fatal crashes, DumpFlightRecordOnError below covers clean
    // error exits.
    SetFlightRecordPath(flight_out);
    InstallFlightRecordSignalHandler();
  }

  const std::string dir = flags->GetString("dir", "/tmp/inferturbo_cli");
  std::filesystem::create_directories(dir);
  const std::string mode = flags->GetString("mode", "");
  const int rc = [&]() -> int {
    if (mode == "generate") return Generate(*flags, *ints, dir);
    if (mode == "train") return Train(*flags, *ints, dir);
    if (mode == "infer") return Infer(*flags, *ints, dir);
    if (mode == "serve") return Serve(*flags, *ints, dir);
    if (!mode.empty()) {
      std::fprintf(stderr,
                   "unknown --mode=%s (generate|train|infer|serve)\n",
                   mode.c_str());
      return 2;
    }
    // Demo: chain all three.
    std::printf("== demo: generate -> train -> infer under %s ==\n",
                dir.c_str());
    if (const int rc = Generate(*flags, *ints, dir); rc != 0) return rc;
    if (const int rc = Train(*flags, *ints, dir); rc != 0) return rc;
    return Infer(*flags, *ints, dir);
  }();
  if (rc != 0 &&
      DumpFlightRecordOnError("cli exit code " + std::to_string(rc))) {
    std::fprintf(stderr, "flight record -> %s\n", flight_out.c_str());
  }
  if (!trace_out.empty()) {
    const Status status = WriteTraceFile(trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return rc != 0 ? rc : 1;
    }
    std::printf("trace -> %s (open in https://ui.perfetto.dev)\n",
                trace_out.c_str());
  }
  return rc;
}

}  // namespace
}  // namespace inferturbo

int main(int argc, char** argv) { return inferturbo::Main(argc, argv); }
