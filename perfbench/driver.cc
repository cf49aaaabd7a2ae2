// End-to-end benchmark driver. For one workload and seed it generates
// the inputs, times the public entry point of each layer from outside
// (graph generation, shard packing, the inference backends, the output
// writer, the serving engine), checks every output against an oracle,
// and prints one JSON result line as the last line of stdout.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --work_dir=DIR
//
// --trace=0 reports the end-to-end metrics with telemetry off.
// --trace=1 reports the per-layer metrics: the first half of the window
// runs untraced, the second half with metrics and tracing on, so the
// tracing overhead is measured inside one process. perfbench/README.md
// describes the workloads and what each metric should move.
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/flags.h"
#include "src/graph/datasets.h"
#include "src/inference/incremental.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/inference/output_writer.h"
#include "src/inference/reference_inference.h"
#include "src/nn/model.h"
#include "src/serving/serving_engine.h"
#include "src/serving/workload.h"
#include "src/storage/graph_view.h"
#include "src/storage/shard_store.h"
#include "src/storage/shard_writer.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/perf_counters.h"
#include "src/telemetry/trace.h"

namespace inferturbo {
namespace perfbench {
namespace {

// ---------------------------------------------------------------------
// Workload definitions. Every size below is fixed by the workload; only
// the seed varies between runs.

constexpr std::int64_t kNodes = 100'000;
constexpr double kAvgDegree = 10.0;
constexpr std::int64_t kFeatureDim = 64;
constexpr std::int64_t kPlantedClasses = 8;
constexpr double kInSkewAlpha = 1.0;
constexpr double kOutSkewAlpha = 1.2;
constexpr std::int64_t kHiddenDim = 64;
constexpr std::int64_t kLayers = 2;
constexpr std::int64_t kGatHeads = 4;
constexpr std::int64_t kWorkers = 8;
constexpr std::int64_t kOutputShards = 8;
// Out of core: the pack is ~44 MB, 2.6x this budget, so the store must
// evict while the map stage streams the shards.
constexpr std::uint64_t kShardBudgetBytes = 16ull << 20;
constexpr int kPipelineSlots = 2;
// Buffered reads from the page cache: the pack was just written, and
// direct I/O to a shared virtual disk made job_s swing 20% between runs
// while cpu_s held at 4%. The budget still binds what the store holds.
constexpr ShardReadPath kShardReadPath = ShardReadPath::kPread;
// Serving: open-loop Zipf point lookups from three senders plus one
// delta writer, which keeps the load generator at four threads.
constexpr int kSenders = 3;
constexpr double kQueriesPerSecond = 1500.0;
constexpr std::int64_t kNodesPerQuery = 4;
constexpr double kQueryZipfAlpha = 1.1;
constexpr double kDeltasPerSecond = 4.0;
constexpr double kBatchWindowSeconds = 0.0;
constexpr std::int64_t kMaxBatch = 64;
// Setup repeats this many times per run; setup_s is the mean of the
// faster half.
constexpr int kSetupRepeats = 7;
// Full-graph runs first run untimed jobs for this long: the first few
// jobs of a process run 20-30% slow while the VM faults in fresh pages.
constexpr double kWarmUpSeconds = 2.0;
// Full-graph runs time at least this many jobs, however short --seconds.
constexpr int kMinJobs = 3;
// Cross-backend tolerance documented by the equivalence tests.
constexpr float kLogitTolerance = 2e-3f;

enum class Kind { kPregel, kMapReducePacked, kServe };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  const char* model;
  bool out_skew_power_law;  // else the planted in-skew generator
  bool partial_gather;
  bool broadcast;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"pregel_sage", Kind::kPregel, "sage", false, true, false},
    {"pregel_gat_bcast", Kind::kPregel, "gat", true, false, true},
    {"mr_sage_packed", Kind::kMapReducePacked, "sage", false, true, false},
    {"serve_zipf_delta", Kind::kServe, "sage", false, true, false},
};

// ---------------------------------------------------------------------
// Process measurements.

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// User + system CPU of the whole process, as users pay for it.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so a
/// later PeakRssMb() covers only what happened after this call.
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Cumulative CPU ticks of the whole machine as this guest sees them.
struct CpuTicks {
  double busy = 0.0;  // user, nice, system, irq, softirq
  double steal = 0.0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  double value = 0.0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && stat >> value; ++i) {
    if (i == 7) {
      ticks.steal = value;
    } else if (i != 3 && i != 4) {
      ticks.busy += value;
    }
  }
  return ticks;
}

/// Share of the CPU time this VM asked for that the hypervisor gave to
/// other guests instead. Idle vCPUs ask for nothing, so a single busy
/// thread that lost a fifth of its time reads 0.2 here, however many
/// vCPUs idle beside it.
double StolenShareOfDemand(const CpuTicks& begin, const CpuTicks& end) {
  const double steal = end.steal - begin.steal;
  const double demand = end.busy - begin.busy + steal;
  return demand > 0.0 ? std::clamp(steal / demand, 0.0, 1.0) : 0.0;
}

/// Wall-clock interval that also reports its time net of vCPU steal:
/// wall time scaled by the share of demanded CPU the VM actually got.
/// On a shared host the hypervisor's other guests take 0-20% of this
/// VM's CPU, which stretches every wall time by the same share while
/// the program's own work is unchanged; the net time takes that out.
class StealAwareTimer {
 public:
  StealAwareTimer() : ticks_(ReadCpuTicks()), start_(Now()) {}

  struct Reading {
    double wall_s = 0.0;
    double net_s = 0.0;
    double stolen_share = 0.0;
  };

  Reading Read() const {
    Reading r;
    r.wall_s = Now() - start_;
    r.stolen_share = StolenShareOfDemand(ticks_, ReadCpuTicks());
    r.net_s = r.wall_s * (1.0 - r.stolen_share);
    return r;
  }

 private:
  CpuTicks ticks_;
  double start_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Mean of the faster half of the sample (of the single value if there
/// is one). On a shared VM the host's other guests only ever add time:
/// besides stealing vCPUs outright they load the sibling hyperthreads
/// and the memory bus, which slows this VM's own CPU time too. A fixed
/// 30 ms single-threaded task, timed twice a second on an idle 4-vCPU
/// guest, had 15 s windows whose medians spread 0.30 (quartile distance
/// over median) while the mean of each window's faster half spread 0.10.
/// Bursts of contention come and go within seconds, so every run sees
/// quiet stretches, and its faster half measures the program rather than
/// the neighbours.
double FasterHalfMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t half = std::max<std::size_t>(1, values.size() / 2);
  return std::accumulate(values.begin(), values.begin() + half, 0.0) /
         static_cast<double>(half);
}

/// Nearest-rank quantile of an already sorted sample.
double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::uint32_t LogitsCrc(const Tensor& logits) {
  return Crc32(logits.data(),
               static_cast<std::size_t>(logits.size()) * sizeof(float));
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return INFINITY;
  float worst = 0.0f;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const float d = std::fabs(a.data()[i] - b.data()[i]);
    if (std::isnan(d)) return INFINITY;
    worst = std::max(worst, d);
  }
  return worst;
}

double DirectoryMb(const std::string& directory) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return static_cast<double>(bytes) / 1e6;
}

// ---------------------------------------------------------------------
// Result line.

class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }

  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

/// Attempted/failed operations and failed checks (each is printed).
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t problems = 0;

  void Fail(const std::string& why) {
    ++problems;
    std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
  }
  bool correct() const { return failed == 0 && problems == 0; }
};

// ---------------------------------------------------------------------
// Setup: graph, model, pack, warm store.

struct Args {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

Graph MakeGraph(const Args& args) {
  if (args.spec->out_skew_power_law) {
    PowerLawConfig config;
    config.num_nodes = kNodes;
    config.avg_degree = kAvgDegree;
    config.skew = PowerLawSkew::kOut;
    config.alpha = kOutSkewAlpha;
    config.seed = args.seed;
    return std::move(MakePowerLawDataset(config, kFeatureDim).graph);
  }
  PlantedGraphConfig config;
  config.num_nodes = kNodes;
  config.avg_degree = kAvgDegree;
  config.feature_dim = kFeatureDim;
  config.num_classes = kPlantedClasses;
  config.in_skew_alpha = kInSkewAlpha;
  config.seed = args.seed;
  return std::move(MakePlantedDataset(args.spec->name, config).graph);
}

std::unique_ptr<GnnModel> MakeBenchModel(const Args& args,
                                         const Graph& graph) {
  ModelConfig config;
  config.input_dim = graph.feature_dim();
  config.hidden_dim = kHiddenDim;
  config.num_classes = graph.num_classes();
  config.num_layers = kLayers;
  config.heads = kGatHeads;
  config.seed = args.seed * 7919 + 11;
  Result<std::unique_ptr<GnnModel>> model =
      MakeModel(args.spec->model, config);
  if (!model.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", model.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*model);
}

struct Prepared {
  Graph graph;
  std::unique_ptr<GnnModel> model;
  std::unique_ptr<ServingEngine> engine;
  std::uint64_t pack_bytes = 0;
};

struct SetupTimes {
  std::vector<double> total_s, generate_s, pack_s, warm_s;
};

/// One setup pass. Only the timed steps count toward setup_s.
Prepared SetupOnce(const Args& args, const std::string& shard_dir,
                   SetupTimes* times) {
  Prepared p;
  const StealAwareTimer timer;
  const double t0 = Now();
  p.graph = MakeGraph(args);
  const double t1 = Now();
  p.model = MakeBenchModel(args, p.graph);
  const double t2 = Now();
  double pack_s = 0.0;
  double warm_s = 0.0;
  if (args.spec->kind == Kind::kMapReducePacked) {
    ShardWriterOptions writer;
    writer.num_partitions = kWorkers;
    const Result<ShardMeta> meta =
        WriteGraphShards(p.graph, shard_dir, writer);
    if (!meta.ok()) {
      std::fprintf(stderr, "perfbench: pack failed: %s\n",
                   meta.status().ToString().c_str());
      std::exit(2);
    }
    pack_s = Now() - t2;
    for (const auto& entry : std::filesystem::directory_iterator(shard_dir)) {
      if (!entry.is_regular_file()) continue;
      p.pack_bytes += entry.file_size();
    }
  }
  if (args.spec->kind == Kind::kServe) {
    ServingOptions options;
    options.batch_window_seconds = kBatchWindowSeconds;
    options.max_batch = kMaxBatch;
    options.cache_logits = true;
    p.engine = std::make_unique<ServingEngine>(p.model.get(), Graph(p.graph),
                                               options);
    warm_s = Now() - t2;
  }
  times->generate_s.push_back(t1 - t0);
  times->pack_s.push_back(pack_s);
  times->warm_s.push_back(warm_s);
  times->total_s.push_back(timer.Read().net_s);
  return p;
}

// ---------------------------------------------------------------------
// Telemetry switches.

void SetTelemetry(bool on) {
  SetMetricsEnabled(on);
  SetTracingEnabled(on);
}

bool TelemetryOff() { return !MetricsEnabled() && !TracingEnabled(); }

/// Per-name span seconds and the union of span intervals inside
/// [begin_ns, end_ns), from the program's own spans. Harness spans
/// ("bench/...") are excluded from both.
struct SpanSummary {
  std::map<std::string, double> seconds;
  double covered_s = 0.0;
};

SpanSummary SummarizeSpans(const std::vector<TraceEvent>& events,
                           std::int64_t begin_ns, std::int64_t end_ns) {
  SpanSummary summary;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const TraceEvent& e : events) {
    const std::string name = e.name;
    if (name.rfind("bench/", 0) == 0 || !e.complete) continue;
    summary.seconds[name] += static_cast<double>(e.dur_ns) * 1e-9;
    const std::int64_t lo = std::max(begin_ns, e.start_ns);
    const std::int64_t hi = std::min(end_ns, e.start_ns + e.dur_ns);
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
  for (const auto& [lo, hi] : intervals) {
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
  summary.covered_s = static_cast<double>(covered) * 1e-9;
  return summary;
}

double CounterValue(const MetricRegistry::Sample& sample,
                    const std::string& name) {
  const auto it = sample.counters.find(name);
  return it == sample.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// Per-layer values of one job or serve window, keyed by metric name.
using LayerValues = std::map<std::string, double>;

void AddKernelCounters(const MetricRegistry::Sample& sample,
                       LayerValues* out) {
  (*out)["kernel.matmul.calls"] = CounterValue(sample, "kernel.matmul.calls");
  (*out)["kernel.matmul.gflop"] = CounterValue(sample, "kernel.matmul.flops") / 1e9;
  (*out)["kernel.matmul.gb"] = CounterValue(sample, "kernel.matmul.bytes") / 1e9;
  (*out)["kernel.gather_rows.gb"] =
      CounterValue(sample, "kernel.gather_rows.bytes") / 1e9;
  // SegmentMean is composed over SegmentSum, so the building blocks
  // alone count every folded byte once.
  (*out)["kernel.segment.gb"] = (CounterValue(sample, "kernel.segment_sum.bytes") +
                                 CounterValue(sample, "kernel.segment_max.bytes") +
                                 CounterValue(sample, "kernel.segment_min.bytes")) /
                                1e9;
}

// ---------------------------------------------------------------------
// Full-graph workloads.

/// kWarmUp: checked, not counted. kTimed: counted, telemetry off.
/// kTraced: counted, metrics and tracing on.
enum class JobMode { kWarmUp, kTimed, kTraced };

struct JobSample {
  double job_s = 0.0;  // net of vCPU steal
  double wall_s = 0.0;
  double stolen_share = 0.0;
  double cpu_s = 0.0;
  double infer_s = 0.0;
  double write_s = 0.0;
  double open_s = 0.0;
  double peak_rss_mb = 0.0;
  LayerValues layers;  // traced jobs only
};

class FullGraphRunner {
 public:
  FullGraphRunner(const Args& args, Prepared prepared, std::string shard_dir,
                  std::string out_dir, Outcome* outcome)
      : args_(args),
        prepared_(std::move(prepared)),
        shard_dir_(std::move(shard_dir)),
        out_dir_(std::move(out_dir)),
        outcome_(outcome) {
    options_.num_workers = kWorkers;
    options_.strategies.partial_gather = args.spec->partial_gather;
    options_.strategies.broadcast = args.spec->broadcast;
    options_.storage_pipeline_slots = kPipelineSlots;
    writer_.num_shards = kOutputShards;
  }

  /// Oracle inputs and guards that need the resident graph; runs
  /// untimed, before any job. The packed workload then drops the graph,
  /// so its jobs see only the shards.
  void PrepareOracle(std::int64_t max_out_degree) {
    reference_ = FullGraphReferenceLogits(*prepared_.model, prepared_.graph);
    const std::int64_t hub_threshold = options_.strategies.HubThreshold(
        prepared_.graph.num_edges(), kWorkers);
    if (args_.spec->broadcast && max_out_degree <= hub_threshold) {
      outcome_->Fail("guard: no node's out-degree (max " +
                     std::to_string(max_out_degree) +
                     ") exceeds the broadcast threshold " +
                     std::to_string(hub_threshold));
    }
    if (args_.spec->kind == Kind::kMapReducePacked) {
      prepared_.graph = Graph();
    }
  }

  /// One job: backend call through the committed output manifest, then
  /// the untimed checks.
  JobSample RunJob(JobMode mode) {
    const bool traced = mode == JobMode::kTraced;
    const bool counted = mode != JobMode::kWarmUp;
    if (!traced && !TelemetryOff()) {
      outcome_->Fail("guard: telemetry left on in an untraced job");
    }
    if (traced) {
      GlobalMetrics().ResetValues();
      ClearTrace();
    }
    JobSample s;
    std::optional<ShardReadPath> read_path;
    // Every job starts from a trimmed heap, so its peak RSS is its own
    // footprint, not what earlier jobs left in malloc's arenas (which
    // crept from ~0.9 to ~1.9 GB over ten jobs), and every job pays the
    // same first-touch faults.
    malloc_trim(0);
    ResetPeakRss();
    const double cpu0 = ProcessCpuSeconds();
    const StealAwareTimer timer;
    const double t0 = Now();
    const std::int64_t t0_ns = TraceNowNs();
    Result<InferenceResult> result = Status::Internal("job never ran");
    {
      TraceSpan span("bench/infer");
      if (args_.spec->kind == Kind::kMapReducePacked) {
        ShardStoreOptions store_options;
        store_options.directory = shard_dir_;
        store_options.memory_budget_bytes = kShardBudgetBytes;
        store_options.read_path = kShardReadPath;
        Result<ShardStore> store = ShardStore::Open(std::move(store_options));
        s.open_s = Now() - t0;
        if (store.ok()) {
          read_path = store->read_path();
          const ShardGraphView view(std::move(*store));
          result = RunInferTurboMapReduce(view, *prepared_.model, options_);
        } else {
          result = store.status();
        }
      } else {
        result = RunInferTurboPregel(prepared_.graph, *prepared_.model,
                                     options_);
      }
    }
    const double t1 = Now();
    const std::int64_t t1_ns = TraceNowNs();
    Status written = result.status();
    if (result.ok()) {
      TraceSpan span("bench/write");
      written = WriteInferenceOutput(*result, out_dir_, writer_);
    }
    const StealAwareTimer::Reading job = timer.Read();
    const double t2 = Now();
    s.cpu_s = ProcessCpuSeconds() - cpu0;
    s.peak_rss_mb = PeakRssMb();
    s.job_s = job.net_s;
    s.wall_s = job.wall_s;
    s.stolen_share = job.stolen_share;
    s.infer_s = t1 - t0 - s.open_s;
    s.write_s = t2 - t1;
    std::fprintf(stderr,
                 "job: wall %.4fs net %.4fs stolen %.3f cpu %.4fs infer "
                 "%.4fs write %.4fs\n",
                 s.wall_s, s.job_s, s.stolen_share, s.cpu_s, s.infer_s,
                 s.write_s);

    // --- untimed: oracle, guards, per-layer extraction.
    if (counted) ++outcome_->attempted;
    bool ok = written.ok();
    if (!ok) {
      outcome_->Fail("job: " + written.ToString());
    } else {
      const std::uint32_t crc = LogitsCrc(result->logits);
      if (!first_crc_) {
        first_crc_ = crc;
        const float diff = MaxAbsDiff(result->logits, reference_);
        std::printf("oracle: logits crc %08x, max |diff| vs reference %.3g\n",
                    crc, static_cast<double>(diff));
        reference_ok_ = diff <= kLogitTolerance;
        if (!reference_ok_) {
          outcome_->Fail("oracle: logits differ from the reference by " +
                         std::to_string(diff));
        }
        reference_ = Tensor();
        predictions_ = result->predictions;
      } else if (crc != *first_crc_) {
        reference_ok_ = false;
        outcome_->Fail("oracle: logits crc changed between jobs");
      }
      ok = reference_ok_;
    }
    if (ok && args_.spec->kind == Kind::kMapReducePacked) {
      // The budget binds when the store had to evict and never held the
      // whole pack. Shards that mappers or pipeline slots still lease
      // cannot be evicted, so the peak can pass the budget by a shard or
      // two; storage.budget_overshoot_mb reports by how much.
      const StorageMetrics& st = result->metrics.storage;
      if (st.evictions <= 0 || st.peak_bytes_mapped >= prepared_.pack_bytes) {
        ok = false;
        outcome_->Fail("guard: out-of-core run did not bind (evictions " +
                       std::to_string(st.evictions) + ", peak mapped " +
                       std::to_string(st.peak_bytes_mapped) + " bytes)");
      }
      if (read_path) read_path_ = *read_path;
    }
    if (!ok && counted) ++outcome_->failed;
    if (ok && traced) {
      const std::vector<TraceEvent> events = DrainTrace();
      s.layers = LayerMetrics(*result, s, SummarizeSpans(events, t0_ns, t1_ns));
    }
    return s;
  }

  /// Re-reads the last committed export and checks it against the
  /// predictions of the first job (untimed).
  void VerifyExport() {
    const Result<std::vector<std::int64_t>> read = ReadPredictions(out_dir_);
    if (!read.ok() || *read != predictions_) {
      outcome_->Fail("oracle: committed export does not round-trip");
      ++outcome_->failed;
    }
    output_mb_ = DirectoryMb(out_dir_);
  }

  double output_mb() const { return output_mb_; }
  std::optional<ShardReadPath> read_path() const { return read_path_; }
  std::uint64_t pack_bytes() const { return prepared_.pack_bytes; }

 private:
  LayerValues LayerMetrics(const InferenceResult& result, const JobSample& s,
                           const SpanSummary& spans) const {
    LayerValues v;
    const JobMetrics& m = result.metrics;
    const bool pregel = args_.spec->kind == Kind::kPregel;
    const std::string backend = pregel ? "pregel." : "mapreduce.";
    v[backend + "infer_s"] = s.infer_s;
    double busy = 0.0, route = 0.0, busy_max = 0.0;
    for (const WorkerStepMetrics& w : m.PerWorkerTotals()) {
      busy += w.busy_seconds;
      route += w.route_seconds;
      busy_max = std::max(busy_max, w.busy_seconds);
    }
    const auto step_busy = [&](std::int64_t step, bool max) {
      double out = 0.0;
      for (const WorkerMetrics& w : m.workers) {
        if (step >= static_cast<std::int64_t>(w.steps.size())) continue;
        const double b = w.steps[static_cast<std::size_t>(step)].busy_seconds;
        out = max ? std::max(out, b) : out + b;
      }
      return out;
    };
    if (pregel) {
      for (std::int64_t step = 0; step <= kLayers; ++step) {
        v["pregel.step" + std::to_string(step) + ".busy_max_s"] =
            step_busy(step, true);
      }
      v["pregel.busy_s"] = busy;
      v["pregel.route_s"] = route;
      v["pregel.bytes_in_mb"] = static_cast<double>(m.TotalBytesIn()) / 1e6;
      v["pregel.busy_skew"] =
          busy > 0.0 ? busy_max / (busy / static_cast<double>(kWorkers)) : 0.0;
    } else {
      v["mapreduce.map_busy_s"] = step_busy(0, false);
      v["mapreduce.reduce1_busy_s"] = step_busy(1, false);
      v["mapreduce.reduce2_busy_s"] = step_busy(2, false);
      v["mapreduce.shuffle_mb"] = static_cast<double>(m.TotalBytesIn()) / 1e6;
      double records = 0.0;
      for (const WorkerStepMetrics& w : m.PerWorkerTotals()) {
        records += static_cast<double>(w.records_in);
      }
      v["mapreduce.records_in"] = records;
    }
    const auto span = [&](const char* name) {
      const auto it = spans.seconds.find(name);
      return it == spans.seconds.end() ? 0.0 : it->second;
    };
    v["span.pregel.gather_s"] = span("pregel/gather");
    v["span.pregel.apply_s"] = span("pregel/apply");
    v["span.pregel.scatter_s"] = span("pregel/scatter");
    v["span.pregel.combine_s"] = span("pregel/combine");
    v["span.pregel.route_s"] = span("pregel/route");
    v["span.mr.shuffle_read_s"] = span("mr/shuffle_read");
    v["span.mr.reduce_s"] = span("mr/reduce");
    v["trace.attributed_frac"] = s.infer_s > 0.0 ? spans.covered_s / s.infer_s
                                                 : 0.0;
    AddKernelCounters(GlobalMetrics().TakeSample(), &v);
    v["output.write_s"] = s.write_s;
    const StorageMetrics& st = m.storage;
    v["storage.open_s"] = s.open_s;
    v["storage.loads"] = static_cast<double>(st.map_calls);
    v["storage.evictions"] = static_cast<double>(st.evictions);
    v["storage.peak_mapped_mb"] =
        static_cast<double>(st.peak_bytes_mapped) / 1e6;
    v["storage.budget_overshoot_mb"] =
        st.peak_bytes_mapped > kShardBudgetBytes
            ? static_cast<double>(st.peak_bytes_mapped - kShardBudgetBytes) / 1e6
            : 0.0;
    v["storage.pipeline_wait_s"] = st.pipeline_wait_seconds;
    v["storage.overlap_s"] = st.overlap_seconds;
    return v;
  }

  const Args& args_;
  Prepared prepared_;
  const std::string shard_dir_;
  const std::string out_dir_;
  Outcome* outcome_;
  InferTurboOptions options_;
  OutputWriterOptions writer_;
  Tensor reference_;
  std::vector<std::int64_t> predictions_;
  std::optional<std::uint32_t> first_crc_;
  bool reference_ok_ = true;
  double output_mb_ = 0.0;
  std::optional<ShardReadPath> read_path_;
};

// ---------------------------------------------------------------------
// Serving workload.

struct ServeWindow {
  std::vector<double> query_latency_s;  // from due time to response
  std::vector<double> send_late_s;      // actual send minus due time
  std::vector<double> delta_s;      // wall
  std::vector<double> delta_net_s;  // net of vCPU steal
  std::vector<double> delta_stolen;
  double first_delta_peak_rss_mb = 0.0;
  std::int64_t queries = 0;
  std::int64_t query_failures = 0;
  std::int64_t deltas = 0;
  std::int64_t delta_failures = 0;
  std::int64_t recomputed_nodes = 0;
  std::int64_t invalidated_rows = 0;
  double cpu_s = 0.0;
  ServingStats stats_before, stats_after;
};

/// Runs `seconds` of open-loop traffic: kSenders threads send Zipf
/// lookups on a fixed schedule, one writer applies the delta stream on
/// its own schedule. `window_index` gives a later window fresh query
/// streams; `deltas` continues where the previous window left it.
ServeWindow RunServeWindow(ServingEngine* engine, DeltaStream* deltas,
                           std::int64_t num_nodes, std::uint64_t seed,
                           double seconds, std::int64_t window_index) {
  ServeWindow w;
  w.stats_before = engine->stats();
  const std::int64_t per_sender = static_cast<std::int64_t>(
      seconds * kQueriesPerSecond / kSenders);
  const std::int64_t num_deltas =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                    seconds * kDeltasPerSecond));
  std::vector<std::vector<double>> latency(kSenders), late(kSenders);
  std::vector<std::int64_t> failures(kSenders, 0);
  const double cpu0 = ProcessCpuSeconds();
  const auto start = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(5);
  const auto due_at = [&](double offset_s) {
    return start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kSenders; ++t) {
    threads.emplace_back([&, t] {
      // Wake-ups land within microseconds of the due time instead of
      // the default 50 us timer slack.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      ZipfQueryStream stream(num_nodes, kQueryZipfAlpha,
                             seed * 1000003 + static_cast<std::uint64_t>(
                                                  window_index * kSenders + t));
      latency[t].reserve(static_cast<std::size_t>(per_sender));
      late[t].reserve(static_cast<std::size_t>(per_sender));
      for (std::int64_t i = 0; i < per_sender; ++i) {
        const auto due = due_at(
            (static_cast<double>(i * kSenders + t)) / kQueriesPerSecond);
        std::vector<NodeId> nodes = stream.Next(kNodesPerQuery);
        std::this_thread::sleep_until(due);
        const auto sent = std::chrono::steady_clock::now();
        const Result<QueryResponse> response = engine->Query(std::move(nodes));
        const auto done = std::chrono::steady_clock::now();
        latency[t].push_back(std::chrono::duration<double>(done - due).count());
        late[t].push_back(std::chrono::duration<double>(sent - due).count());
        if (!response.ok() ||
            response->logits.rows() != kNodesPerQuery) {
          ++failures[t];
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (std::int64_t d = 0; d < num_deltas; ++d) {
      GraphMutation mutation = deltas->Next();
      std::this_thread::sleep_until(
          due_at(static_cast<double>(d) / kDeltasPerSecond));
      const StealAwareTimer timer;
      const Result<DeltaApplied> applied = engine->ApplyMutation(mutation);
      const StealAwareTimer::Reading took = timer.Read();
      w.delta_s.push_back(took.wall_s);
      w.delta_net_s.push_back(took.net_s);
      w.delta_stolen.push_back(took.stolen_share);
      std::fprintf(stderr, "delta: wall %.4fs net %.4fs stolen %.3f\n",
                   took.wall_s, took.net_s, took.stolen_share);
      if (d == 0) w.first_delta_peak_rss_mb = PeakRssMb();
      ++w.deltas;
      if (!applied.ok() || applied->recomputed_nodes <= 0) {
        ++w.delta_failures;
        continue;
      }
      w.recomputed_nodes += applied->recomputed_nodes;
      w.invalidated_rows += applied->invalidated_cache_rows;
    }
  });
  for (std::thread& thread : threads) thread.join();
  w.cpu_s = ProcessCpuSeconds() - cpu0;
  for (int t = 0; t < kSenders; ++t) {
    w.query_latency_s.insert(w.query_latency_s.end(), latency[t].begin(),
                             latency[t].end());
    w.send_late_s.insert(w.send_late_s.end(), late[t].begin(), late[t].end());
    w.query_failures += failures[t];
  }
  w.queries = static_cast<std::int64_t>(w.query_latency_s.size());
  std::sort(w.query_latency_s.begin(), w.query_latency_s.end());
  std::sort(w.send_late_s.begin(), w.send_late_s.end());
  w.stats_after = engine->stats();
  return w;
}

/// Checks the served logits of every node against a from-scratch
/// forward on the final graph (untimed). Bit-identical is the contract.
bool VerifyServedLogits(ServingEngine* engine, const GnnModel& model) {
  const std::shared_ptr<const Graph> graph = engine->graph_snapshot();
  std::vector<NodeId> all(static_cast<std::size_t>(graph->num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  const Result<QueryResponse> served = engine->Query(all);
  if (!served.ok()) return false;
  const LayerStates states = ComputeLayerStates(model, *graph);
  const Tensor expected = model.PredictLogits(states.states.back());
  const bool same = served->logits.rows() == expected.rows() &&
                    LogitsCrc(served->logits) == LogitsCrc(expected);
  std::printf("oracle: served logits crc %08x over %lld nodes at epoch %lld%s\n",
              LogitsCrc(served->logits),
              static_cast<long long>(graph->num_nodes()),
              static_cast<long long>(served->epoch),
              same ? "" : " (MISMATCH)");
  return same;
}

// ---------------------------------------------------------------------
// Main.

/// Every per-layer metric a traced run prints, in BENCHMARK.json order.
/// A metric a workload does not exercise reads 0.
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
constexpr LayerMetricDef kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"graph.max_in_degree", "count"},
    {"graph.max_out_degree", "count"},
    {"storage.pack_s", "s"},
    {"storage.open_s", "s"},
    {"storage.loads", "count"},
    {"storage.evictions", "count"},
    {"storage.peak_mapped_mb", "MB"},
    {"storage.budget_overshoot_mb", "MB"},
    {"storage.pipeline_wait_s", "s"},
    {"storage.overlap_s", "s"},
    {"pregel.infer_s", "s"},
    {"pregel.step0.busy_max_s", "s"},
    {"pregel.step1.busy_max_s", "s"},
    {"pregel.step2.busy_max_s", "s"},
    {"pregel.busy_s", "s"},
    {"pregel.route_s", "s"},
    {"pregel.bytes_in_mb", "MB"},
    {"pregel.busy_skew", "ratio"},
    {"span.pregel.gather_s", "s"},
    {"span.pregel.apply_s", "s"},
    {"span.pregel.scatter_s", "s"},
    {"span.pregel.combine_s", "s"},
    {"span.pregel.route_s", "s"},
    {"mapreduce.infer_s", "s"},
    {"mapreduce.map_busy_s", "s"},
    {"mapreduce.reduce1_busy_s", "s"},
    {"mapreduce.reduce2_busy_s", "s"},
    {"mapreduce.shuffle_mb", "MB"},
    {"mapreduce.records_in", "count"},
    {"span.mr.shuffle_read_s", "s"},
    {"span.mr.reduce_s", "s"},
    {"kernel.matmul.calls", "count"},
    {"kernel.matmul.gflop", "GFLOP"},
    {"kernel.matmul.gb", "GB"},
    {"kernel.gather_rows.gb", "GB"},
    {"kernel.segment.gb", "GB"},
    {"output.write_s", "s"},
    {"output.mb", "MB"},
    {"serving.warm_s", "s"},
    {"serving.window_peak_rss_mb", "MB"},
    {"serving.queries", "count"},
    {"serving.query_p50_us", "us"},
    {"serving.query_p99_us", "us"},
    {"serving.send_late_ms", "ms"},
    {"serving.batches", "count"},
    {"serving.batch_occupancy", "queries"},
    {"serving.cache_hit_rate", "ratio"},
    {"serving.deltas", "count"},
    {"serving.delta_p50_ms", "ms"},
    {"serving.delta_recomputed_nodes", "count"},
    {"serving.delta_invalidated_rows", "count"},
    {"serving.delta_us_per_recomputed_node", "us"},
    {"trace.overhead_frac", "ratio"},
    {"trace.attributed_frac", "ratio"},
    {"job.wall_s", "s"},
    {"host.stolen_share", "ratio"},
    {"error_rate", "ratio"},
};

int Run(const Args& args) {
  const std::string shard_dir = args.work_dir + "/shards";
  const std::string out_dir = args.work_dir + "/output";
  std::filesystem::create_directories(out_dir);
  std::printf("workload %s seed %llu nodes %lld seconds %.3g trace %d "
              "nproc %ld perf_counters %s\n",
              args.spec->name, static_cast<unsigned long long>(args.seed),
              static_cast<long long>(kNodes), args.seconds,
              args.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              PerfCountersSupported() ? "yes" : "no");

  // Setup, several times; the last one is kept.
  SetupTimes setup;
  Prepared prepared;
  for (int r = 0; r < kSetupRepeats; ++r) {
    prepared.engine.reset();  // before the model it points at
    prepared = Prepared();
    std::filesystem::remove_all(shard_dir);
    prepared = SetupOnce(args, shard_dir, &setup);
  }

  Outcome outcome;
  LayerValues layers;
  layers["graph.generate_s"] = Median(setup.generate_s);
  layers["storage.pack_s"] = Median(setup.pack_s);
  layers["serving.warm_s"] = Median(setup.warm_s);

  std::int64_t max_in_degree = 0, max_out_degree = 0;
  for (NodeId v = 0; v < prepared.graph.num_nodes(); ++v) {
    max_in_degree = std::max(max_in_degree, prepared.graph.InDegree(v));
    max_out_degree = std::max(max_out_degree, prepared.graph.OutDegree(v));
  }
  layers["graph.max_in_degree"] = static_cast<double>(max_in_degree);
  layers["graph.max_out_degree"] = static_cast<double>(max_out_degree);

  double job_s = 0.0, cpu_s = 0.0, peak_rss_mb = 0.0;
  if (args.spec->kind != Kind::kServe) {
    FullGraphRunner runner(args, std::move(prepared), shard_dir, out_dir,
                           &outcome);
    runner.PrepareOracle(max_out_degree);
    // Warm-up jobs: first-touch faults and lazy set-up; checked, not
    // timed.
    const double warm_up_start = Now();
    do {
      runner.RunJob(JobMode::kWarmUp);
    } while (Now() - warm_up_start < kWarmUpSeconds);

    const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
    std::vector<double> job, wall, stolen, cpu, rss, traced_job;
    std::vector<LayerValues> traced_layers;
    const double window_start = Now();
    while (static_cast<int>(job.size()) < kMinJobs ||
           Now() - window_start < untraced_seconds) {
      const JobSample s = runner.RunJob(JobMode::kTimed);
      job.push_back(s.job_s);
      wall.push_back(s.wall_s);
      stolen.push_back(s.stolen_share);
      cpu.push_back(s.cpu_s);
      rss.push_back(s.peak_rss_mb);
    }
    if (args.trace) {
      SetTelemetry(true);
      const double traced_start = Now();
      while (static_cast<int>(traced_job.size()) < kMinJobs ||
             Now() - traced_start < args.seconds - untraced_seconds) {
        JobSample s = runner.RunJob(JobMode::kTraced);
        traced_job.push_back(s.job_s);
        if (!s.layers.empty()) traced_layers.push_back(std::move(s.layers));
      }
      SetTelemetry(false);
    }
    runner.VerifyExport();
    job_s = FasterHalfMean(job);
    cpu_s = FasterHalfMean(cpu);
    peak_rss_mb = Median(rss);
    layers["job.wall_s"] = FasterHalfMean(wall);
    layers["host.stolen_share"] = Median(stolen);
    std::map<std::string, std::vector<double>> per_name;
    for (const LayerValues& lv : traced_layers) {
      for (const auto& [name, value] : lv) per_name[name].push_back(value);
    }
    for (const auto& [name, values] : per_name) layers[name] = Median(values);
    layers["output.mb"] = runner.output_mb();
    if (args.trace) {
      layers["trace.overhead_frac"] =
          FasterHalfMean(traced_job) / job_s - 1.0;
    }
    if (runner.read_path()) {
      std::printf("storage: shard read path %s (auto would pick %s), budget "
                  "%llu bytes, pack %llu bytes\n",
                  std::string(ShardReadPathName(*runner.read_path())).c_str(),
                  std::string(ShardReadPathName(
                                  DetectShardReadPath(shard_dir + "/meta.its")))
                      .c_str(),
                  static_cast<unsigned long long>(kShardBudgetBytes),
                  static_cast<unsigned long long>(runner.pack_bytes()));
    }
    std::printf("jobs: %zu untraced, job %.4fs net of steal (wall %.4fs, "
                "stolen %.3f), cpu %.4fs\n",
                job.size(), job_s, layers["job.wall_s"],
                layers["host.stolen_share"], cpu_s);
  } else {
    ServingEngine* engine = prepared.engine.get();
    const std::int64_t num_nodes = prepared.graph.num_nodes();
    DeltaStream::Options delta_options;
    delta_options.zipf_alpha = kQueryZipfAlpha;
    delta_options.seed = args.seed * 31 + 19;
    DeltaStream deltas(prepared.graph, delta_options);
    prepared.graph = Graph();  // the engine holds its own copy
    // Warm-up traffic fills the logits cache's hot rows (not counted).
    {
      ZipfQueryStream warm(num_nodes, kQueryZipfAlpha, args.seed + 7);
      for (int i = 0; i < 2000; ++i) engine->Query(warm.Next(kNodesPerQuery));
    }
    if (!TelemetryOff()) outcome.Fail("guard: telemetry left on");
    const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
    malloc_trim(0);  // start from live data, not what set-up left behind
    ResetPeakRss();
    ServeWindow w = RunServeWindow(engine, &deltas, num_nodes, args.seed,
                                   untraced_seconds, 0);
    // The first delta's peak: the served store plus one generation in
    // flight. The window's peak also holds every cone the seed's delta
    // stream happens to grow, so it is reported per layer instead.
    peak_rss_mb = w.first_delta_peak_rss_mb;
    layers["serving.window_peak_rss_mb"] = PeakRssMb();
    job_s = FasterHalfMean(w.delta_net_s);
    layers["job.wall_s"] = FasterHalfMean(w.delta_s);
    layers["host.stolen_share"] = Median(w.delta_stolen);
    cpu_s = w.cpu_s;
    outcome.attempted += w.queries + w.deltas;
    outcome.failed += w.query_failures + w.delta_failures;
    if (w.query_failures + w.delta_failures > 0) {
      outcome.Fail(std::to_string(w.query_failures) + " queries and " +
                   std::to_string(w.delta_failures) + " deltas failed");
    }
    ServeWindow report = std::move(w);
    if (args.trace) {
      SetTelemetry(true);
      GlobalMetrics().ResetValues();
      ClearTrace();
      ServeWindow traced = RunServeWindow(engine, &deltas, num_nodes, args.seed,
                                          args.seconds - untraced_seconds, 1);
      const MetricRegistry::Sample sample = GlobalMetrics().TakeSample();
      SetTelemetry(false);
      DrainTrace();
      AddKernelCounters(sample, &layers);
      layers["trace.overhead_frac"] =
          FasterHalfMean(traced.delta_net_s) / job_s - 1.0;
      outcome.attempted += traced.queries + traced.deltas;
      outcome.failed += traced.query_failures + traced.delta_failures;
      report = std::move(traced);
    }
    const ServingStats& before = report.stats_before;
    const ServingStats& after = report.stats_after;
    const double lookups = static_cast<double>(
        (after.cache_hits - before.cache_hits) +
        (after.cache_misses - before.cache_misses));
    layers["serving.query_p50_us"] =
        SortedQuantile(report.query_latency_s, 0.50) * 1e6;
    layers["serving.query_p99_us"] =
        SortedQuantile(report.query_latency_s, 0.99) * 1e6;
    layers["serving.delta_p50_ms"] = Median(report.delta_s) * 1e3;
    layers["serving.send_late_ms"] =
        SortedQuantile(report.send_late_s, 0.99) * 1e3;
    layers["serving.queries"] = static_cast<double>(report.queries);
    layers["serving.batches"] =
        static_cast<double>(after.batches - before.batches);
    layers["serving.batch_occupancy"] = after.mean_batch_occupancy;
    layers["serving.cache_hit_rate"] =
        lookups > 0 ? static_cast<double>(after.cache_hits -
                                          before.cache_hits) / lookups
                    : 0.0;
    layers["serving.deltas"] = static_cast<double>(report.deltas);
    layers["serving.delta_recomputed_nodes"] =
        static_cast<double>(report.recomputed_nodes);
    layers["serving.delta_invalidated_rows"] =
        static_cast<double>(report.invalidated_rows);
    double delta_total = 0.0;
    for (double d : report.delta_s) delta_total += d;
    layers["serving.delta_us_per_recomputed_node"] =
        report.recomputed_nodes > 0
            ? delta_total * 1e6 / static_cast<double>(report.recomputed_nodes)
            : 0.0;
    std::printf("serve: %lld queries p50 %.1fus p99 %.1fus, %lld deltas "
                "p50 %.2fms wall, faster half %.2fms net of steal (stolen "
                "%.3f), cpu %.3fs\n",
                static_cast<long long>(report.queries),
                layers["serving.query_p50_us"], layers["serving.query_p99_us"],
                static_cast<long long>(report.deltas),
                layers["serving.delta_p50_ms"], job_s * 1e3,
                layers["host.stolen_share"], report.cpu_s);
    if (!VerifyServedLogits(engine, *prepared.model)) {
      outcome.Fail("oracle: served logits differ from a from-scratch forward");
      ++outcome.failed;
    }
  }

  layers["error_rate"] =
      outcome.attempted > 0
          ? static_cast<double>(outcome.failed) /
                static_cast<double>(outcome.attempted)
          : 1.0;
  if (outcome.attempted == 0) outcome.Fail("no operation attempted");

  MetricSet out;
  if (!args.trace) {
    out.Add("setup_s", FasterHalfMean(setup.total_s), "s");
    out.Add("job_s", job_s, "s");
    out.Add("cpu_s", cpu_s, "s");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    for (const LayerMetricDef& def : kPerLayer) {
      const auto it = layers.find(def.name);
      out.Add(def.name, it == layers.end() ? 0.0 : it->second, def.unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              outcome.correct() ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(std::max<std::int64_t>(
                  outcome.failed, outcome.correct() ? 0 : 1)),
              out.Json().c_str());
  std::fflush(stdout);
  return outcome.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace inferturbo

int main(int argc, char** argv) {
  using namespace inferturbo;
  using namespace inferturbo::perfbench;
  const Result<FlagParser> flags = FlagParser::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  Args args;
  const std::string workload = flags->GetString("workload", "");
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload == spec.name) args.spec = &spec;
  }
  args.seed = static_cast<std::uint64_t>(flags->GetInt("seed", 1));
  args.seconds = flags->GetDouble("seconds", 10.0);
  args.trace = flags->GetInt("trace", 0) != 0;
  args.work_dir = flags->GetString("work_dir", "");
  if (args.spec == nullptr || args.work_dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 --work_dir=DIR\n");
    return 2;
  }
  return Run(args);
}
