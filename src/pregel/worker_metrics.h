#ifndef INFERTURBO_PREGEL_WORKER_METRICS_H_
#define INFERTURBO_PREGEL_WORKER_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace inferturbo {

/// One worker's accounting for one superstep (or one MapReduce stage).
/// These counters are what the paper's cluster dashboards report and
/// what Figs. 9-13 plot: per-instance latency, input/output bytes and
/// records.
struct WorkerStepMetrics {
  /// Wall time the worker spent inside its compute function.
  double busy_seconds = 0.0;
  /// Non-CPU stall time (e.g. graph-store round trips in the baseline
  /// pipeline); contributes to latency but not to cpu·min.
  double wait_seconds = 0.0;
  /// Time spent in the routing + accounting barrier delivering this
  /// worker's inbox (and its share of the broadcast-board accounting).
  /// Previously charged to nobody; kept separate from busy_seconds so
  /// historical latency numbers stay comparable.
  double route_seconds = 0.0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::int64_t records_in = 0;
  std::int64_t records_out = 0;
  /// Peak bytes this worker had to hold in memory during the step —
  /// the axis on which the two backends trade off: Pregel keeps node
  /// state and the full inbox resident, MapReduce streams key groups
  /// from (simulated) external storage.
  std::uint64_t peak_resident_bytes = 0;

  void Accumulate(const WorkerStepMetrics& other) {
    busy_seconds += other.busy_seconds;
    wait_seconds += other.wait_seconds;
    route_seconds += other.route_seconds;
    bytes_in += other.bytes_in;
    bytes_out += other.bytes_out;
    records_in += other.records_in;
    records_out += other.records_out;
    peak_resident_bytes =
        std::max(peak_resident_bytes, other.peak_resident_bytes);
  }
};

/// A worker's full history across supersteps/stages.
struct WorkerMetrics {
  std::vector<WorkerStepMetrics> steps;

  WorkerStepMetrics Total() const {
    WorkerStepMetrics total;
    for (const WorkerStepMetrics& s : steps) total.Accumulate(s);
    return total;
  }
};

/// Cost model of the simulated cluster. Latency of a worker in a step
/// is busy time plus the time its traffic occupies the NIC.
struct ClusterCostModel {
  /// Per-worker network bandwidth. The paper's cluster has ~20 Gb/s per
  /// instance (2.5e9 B/s); the default assumes the same share.
  double network_bytes_per_second = 2.5e9;
  /// Fixed per-step overhead (barrier, scheduling).
  double per_step_overhead_seconds = 0.0;

  double StepLatencySeconds(const WorkerStepMetrics& m) const {
    return m.busy_seconds + m.wait_seconds +
           static_cast<double>(m.bytes_in + m.bytes_out) /
               network_bytes_per_second +
           per_step_overhead_seconds;
  }
};

/// Out-of-core storage accounting (src/storage/): how many bytes of
/// shard files a job had mapped, and how well the shard pipeline hid
/// the load cost. A job that never touched the shard store reports zeros.
struct StorageMetrics {
  /// Shard bytes currently mapped (mmap or heap fallback).
  std::uint64_t bytes_mapped = 0;
  /// High-water mark of bytes_mapped over the store's lifetime — the
  /// number the memory-budget contract is checked against.
  std::uint64_t peak_bytes_mapped = 0;
  /// Physical shard loads (each maps one partition's file).
  std::int64_t map_calls = 0;
  /// Mappings released (eviction or last lease dropped).
  std::int64_t unmap_calls = 0;
  /// Map() requests satisfied by an already-mapped shard.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  /// Cache entries dropped to respect the memory budget.
  std::int64_t evictions = 0;
  /// Shards rejected on load because a page failed CRC/bounds checks.
  std::int64_t checksum_failures = 0;
  /// I/O seconds the shard pipeline hid behind compute (ahead-scheduled
  /// load time that the consumer never waited for).
  double overlap_seconds = 0.0;
  /// Seconds consumers stalled in ShardPipeline::Acquire waiting for an
  /// in-flight load.
  double pipeline_wait_seconds = 0.0;
  /// How shard bytes were read: a ShardReadPath numeric code
  /// (0 auto / 1 mmap / 2 pread; 3 and 4 are retired). Provenance for
  /// BENCH_storage.json and the run report.
  std::int64_t read_path = 0;
  /// Loads where the detected read tier failed mid-job and the store
  /// fell back to mmap for that shard.
  std::int64_t read_path_fallbacks = 0;

  /// Folds another stage's storage accounting into this one: activity
  /// counters sum, instantaneous/high-water byte gauges take the max
  /// (stages share one store, so peaks don't add).
  void Merge(const StorageMetrics& other) {
    bytes_mapped = std::max(bytes_mapped, other.bytes_mapped);
    peak_bytes_mapped = std::max(peak_bytes_mapped, other.peak_bytes_mapped);
    map_calls += other.map_calls;
    unmap_calls += other.unmap_calls;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    evictions += other.evictions;
    checksum_failures += other.checksum_failures;
    overlap_seconds += other.overlap_seconds;
    pipeline_wait_seconds += other.pipeline_wait_seconds;
    read_path = std::max(read_path, other.read_path);
    read_path_fallbacks += other.read_path_fallbacks;
  }
};

/// Task-supervision accounting (src/runtime/): every attempt, retry,
/// injected fault, speculative launch, and quarantine decision a job's
/// supervisor made. Feeds the run report's "faults" section, which must
/// account for every injected event.
struct SupervisionMetrics {
  /// Logical tasks supervised (one per partition per supervised stage).
  std::int64_t tasks = 0;
  /// Total attempts launched, including first attempts, retries, and
  /// speculative backups.
  std::int64_t attempts = 0;
  /// Re-attempts after a failed attempt (excludes speculative backups).
  std::int64_t retries = 0;
  /// Injected faults, by kind, as realized by the FaultPlan.
  std::int64_t injected_crashes = 0;
  std::int64_t injected_transients = 0;
  std::int64_t injected_delays = 0;
  /// Attempts cancelled because they overran the per-attempt deadline.
  std::int64_t deadline_exceeded = 0;
  /// Speculative backup attempts launched / backups that won the commit.
  std::int64_t speculative_launched = 0;
  std::int64_t speculative_commits = 0;
  /// Executors quarantined after repeated permanent failures, and tasks
  /// deterministically reassigned off quarantined executors.
  std::int64_t quarantined_workers = 0;
  std::int64_t reassigned_tasks = 0;
  /// Pregel degradation ladder: supersteps re-executed from immutable
  /// inputs after per-task retry exhaustion, and checkpoint restores
  /// when re-execution was also exhausted.
  std::int64_t superstep_reexecutions = 0;
  std::int64_t checkpoint_restores = 0;

  void Merge(const SupervisionMetrics& other) {
    tasks += other.tasks;
    attempts += other.attempts;
    retries += other.retries;
    injected_crashes += other.injected_crashes;
    injected_transients += other.injected_transients;
    injected_delays += other.injected_delays;
    deadline_exceeded += other.deadline_exceeded;
    speculative_launched += other.speculative_launched;
    speculative_commits += other.speculative_commits;
    quarantined_workers += other.quarantined_workers;
    reassigned_tasks += other.reassigned_tasks;
    superstep_reexecutions += other.superstep_reexecutions;
    checkpoint_restores += other.checkpoint_restores;
  }
};

/// Whole-job accounting: one WorkerMetrics per logical worker.
struct JobMetrics {
  std::vector<WorkerMetrics> workers;
  ClusterCostModel cost_model;
  /// Spill-path I/O attempts that failed transiently and were retried
  /// to success (MapReduce external-storage dataflow). Nonzero only
  /// when an I/O fault injector fired on the spill path.
  std::int64_t spill_read_retries = 0;
  std::int64_t spill_write_retries = 0;
  /// Shard-store counters for jobs that ran over an out-of-core
  /// GraphView (zeros for fully-resident runs).
  StorageMetrics storage;
  /// Task-supervision counters of the job's supervisor.
  SupervisionMetrics supervision;

  std::int64_t num_steps() const {
    return workers.empty() ? 0
                           : static_cast<std::int64_t>(workers[0].steps.size());
  }

  /// Simulated cluster makespan: per step, the slowest worker gates the
  /// barrier; steps are sequential. This is the "time cost" the paper
  /// reports (logical workers share physical cores here, so raw wall
  /// time would undercount stragglers).
  double SimulatedWallSeconds() const;

  /// Sum of busy time over all workers — the paper's cpu·min metric
  /// (divide by 60).
  double TotalCpuSeconds() const;
  double TotalCpuMinutes() const { return TotalCpuSeconds() / 60.0; }

  /// Per-worker totals, index = worker id.
  std::vector<WorkerStepMetrics> PerWorkerTotals() const;
  /// Per-worker simulated latency (all steps).
  std::vector<double> PerWorkerLatencySeconds() const;

  std::uint64_t TotalBytesIn() const;
  std::uint64_t TotalBytesOut() const;
  /// Highest per-worker resident footprint seen anywhere in the job.
  std::uint64_t PeakResidentBytes() const;

  /// Appends `other`'s steps to this job's workers (stage chaining for
  /// multi-round MapReduce jobs). Worker counts must match.
  void AppendStages(const JobMetrics& other);
};

/// Population variance of per-worker latency — the y-axis of Fig. 10.
double LatencyVariance(const JobMetrics& metrics);

}  // namespace inferturbo

#endif  // INFERTURBO_PREGEL_WORKER_METRICS_H_
