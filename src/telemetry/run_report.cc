#include "src/telemetry/run_report.h"

#include <string>
#include <utility>

#include "src/common/atomic_file.h"
#include "src/storage/shard_reader.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/perf_counters.h"

namespace inferturbo {
namespace {

JsonValue WorkerTotalsJson(const WorkerStepMetrics& t) {
  return JsonValue(JsonValue::Object{
      {"busy_seconds", JsonValue(t.busy_seconds)},
      {"wait_seconds", JsonValue(t.wait_seconds)},
      {"route_seconds", JsonValue(t.route_seconds)},
      {"bytes_in", JsonValue(t.bytes_in)},
      {"bytes_out", JsonValue(t.bytes_out)},
      {"records_in", JsonValue(t.records_in)},
      {"records_out", JsonValue(t.records_out)},
      {"peak_resident_bytes", JsonValue(t.peak_resident_bytes)},
  });
}

/// Per-read-path latency distributions, from the instruments
/// ObserveShardRead feeds. Only tiers that actually served reads this
/// run appear, so an in-memory run's storage section stays compact and
/// a `read_path_fallbacks` regression is visible as a second tier
/// (mmap) showing up next to the configured one.
JsonValue ReadLatencyJson() {
  JsonValue::Object out;
  for (const ShardReadPath path :
       {ShardReadPath::kMmap, ShardReadPath::kPread}) {
    const std::string name(ShardReadPathName(path));
    const std::string base = "storage.read." + name;
    Counter* reads = GlobalMetrics().GetCounter(base + ".reads");
    if (reads->value() == 0) continue;
    Histogram* seconds = GlobalMetrics().GetHistogram(base + ".seconds");
    Counter* bytes = GlobalMetrics().GetCounter(base + ".bytes");
    out[name] = JsonValue(JsonValue::Object{
        {"reads", JsonValue(reads->value())},
        {"bytes", JsonValue(bytes->value())},
        {"p50_seconds", JsonValue(seconds->Percentile(0.50))},
        {"p95_seconds", JsonValue(seconds->Percentile(0.95))},
        {"p99_seconds", JsonValue(seconds->Percentile(0.99))},
        {"max_seconds", JsonValue(seconds->max())},
    });
  }
  return JsonValue(std::move(out));
}

JsonValue StorageJson(const StorageMetrics& s) {
  return JsonValue(JsonValue::Object{
      {"bytes_mapped", JsonValue(s.bytes_mapped)},
      {"peak_bytes_mapped", JsonValue(s.peak_bytes_mapped)},
      {"map_calls", JsonValue(s.map_calls)},
      {"unmap_calls", JsonValue(s.unmap_calls)},
      {"cache_hits", JsonValue(s.cache_hits)},
      {"cache_misses", JsonValue(s.cache_misses)},
      {"evictions", JsonValue(s.evictions)},
      {"checksum_failures", JsonValue(s.checksum_failures)},
      {"overlap_seconds", JsonValue(s.overlap_seconds)},
      {"pipeline_wait_seconds", JsonValue(s.pipeline_wait_seconds)},
      {"read_path",
       JsonValue(std::string(ShardReadPathName(
           static_cast<ShardReadPath>(s.read_path))))},
      {"read_path_fallbacks", JsonValue(s.read_path_fallbacks)},
      {"read_latency", ReadLatencyJson()},
  });
}

JsonValue FaultsJson(const SupervisionMetrics& s) {
  return JsonValue(JsonValue::Object{
      {"tasks", JsonValue(s.tasks)},
      {"attempts", JsonValue(s.attempts)},
      {"retries", JsonValue(s.retries)},
      {"injected_crashes", JsonValue(s.injected_crashes)},
      {"injected_transients", JsonValue(s.injected_transients)},
      {"injected_delays", JsonValue(s.injected_delays)},
      {"deadline_exceeded", JsonValue(s.deadline_exceeded)},
      {"speculative_launched", JsonValue(s.speculative_launched)},
      {"speculative_commits", JsonValue(s.speculative_commits)},
      {"quarantined_workers", JsonValue(s.quarantined_workers)},
      {"reassigned_tasks", JsonValue(s.reassigned_tasks)},
      {"superstep_reexecutions", JsonValue(s.superstep_reexecutions)},
      {"checkpoint_restores", JsonValue(s.checkpoint_restores)},
  });
}

JsonValue ServingJson(const ServingReport& s) {
  return JsonValue(JsonValue::Object{
      {"queries", JsonValue(s.queries)},
      {"batches", JsonValue(s.batches)},
      {"cache_hits", JsonValue(s.cache_hits)},
      {"cache_misses", JsonValue(s.cache_misses)},
      {"cache_hit_rate", JsonValue(s.cache_hit_rate)},
      {"deltas", JsonValue(s.deltas)},
      {"epoch", JsonValue(s.epoch)},
      {"recomputed_nodes", JsonValue(s.recomputed_nodes)},
      {"invalidated_cache_rows", JsonValue(s.invalidated_cache_rows)},
      {"query_p50_seconds", JsonValue(s.query_p50_seconds)},
      {"query_p95_seconds", JsonValue(s.query_p95_seconds)},
      {"query_p99_seconds", JsonValue(s.query_p99_seconds)},
      {"mean_batch_occupancy", JsonValue(s.mean_batch_occupancy)},
      {"wall_seconds", JsonValue(s.wall_seconds)},
      {"queries_per_second", JsonValue(s.queries_per_second)},
  });
}

}  // namespace

JsonValue BuildRunReport(const JobMetrics& metrics,
                         const RunReportOptions& options) {
  JsonValue::Object job{
      {"num_workers", JsonValue(static_cast<std::int64_t>(
                          metrics.workers.size()))},
      {"num_steps", JsonValue(metrics.num_steps())},
      {"simulated_wall_seconds", JsonValue(metrics.SimulatedWallSeconds())},
      {"total_cpu_seconds", JsonValue(metrics.TotalCpuSeconds())},
      {"total_bytes_in", JsonValue(metrics.TotalBytesIn())},
      {"total_bytes_out", JsonValue(metrics.TotalBytesOut())},
      {"peak_resident_bytes", JsonValue(metrics.PeakResidentBytes())},
      {"latency_variance", JsonValue(LatencyVariance(metrics))},
      {"spill_read_retries", JsonValue(metrics.spill_read_retries)},
      {"spill_write_retries", JsonValue(metrics.spill_write_retries)},
  };
  if (options.per_worker) {
    JsonValue::Array per_worker;
    for (const WorkerStepMetrics& t : metrics.PerWorkerTotals()) {
      per_worker.push_back(WorkerTotalsJson(t));
    }
    job["per_worker"] = JsonValue(std::move(per_worker));
  }

  JsonValue::Object config;
  for (const auto& [key, value] : options.config) {
    config[key] = JsonValue(value);
  }

  JsonValue::Object report{
      {"schema", JsonValue("inferturbo.run_report.v1")},
      {"backend", JsonValue(options.backend)},
      {"config", JsonValue(std::move(config))},
      {"job", JsonValue(std::move(job))},
      {"storage", StorageJson(metrics.storage)},
      {"faults", FaultsJson(metrics.supervision)},
      {"metrics", GlobalMetrics().Snapshot()},
      {"profiling", ProfilingReportJson()},
  };
  if (options.serving != nullptr) {
    report["serving"] = ServingJson(*options.serving);
  }
  return JsonValue(std::move(report));
}

std::string BuildRunReportJson(const JobMetrics& metrics,
                               const RunReportOptions& options) {
  return BuildRunReport(metrics, options).Dump(2) + "\n";
}

Status WriteRunReport(const std::string& path, const JobMetrics& metrics,
                      const RunReportOptions& options) {
  return WriteFileAtomic(path, BuildRunReportJson(metrics, options));
}

}  // namespace inferturbo
