#ifndef INFERTURBO_STORAGE_SHARD_PIPELINE_H_
#define INFERTURBO_STORAGE_SHARD_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "src/common/result.h"
#include "src/pregel/worker_metrics.h"
#include "src/storage/graph_view.h"

namespace inferturbo {

struct ShardPipelineOptions {
  /// In-flight partition window: the loader keeps up to this many
  /// unconsumed partitions resident (loading or ready) ahead of the
  /// consumer. 2 = classic double buffering (compute on p while I/O
  /// fills p+1). <= 0 disables the pipeline — Acquire degrades to a
  /// plain demand AcquirePartition.
  int slots = 2;
};

/// Aggregated pipeline accounting for one sweep, folded into the job's
/// StorageMetrics so the overlap win shows up in run reports.
struct PipelineStats {
  /// I/O seconds hidden behind compute: for each consumed load, the
  /// part of its load time the consumer did not wait for.
  double overlap_seconds = 0.0;
  /// Seconds consumers stalled inside Acquire() waiting on a load.
  double wait_seconds = 0.0;
  /// Loads the loader issued ahead of demand vs. loads a consumer had
  /// to ask for explicitly (out-of-window or out-of-order access).
  std::int64_t loads_ahead = 0;
  std::int64_t loads_demand = 0;

  void Merge(const PipelineStats& other) {
    overlap_seconds += other.overlap_seconds;
    wait_seconds += other.wait_seconds;
    loads_ahead += other.loads_ahead;
    loads_demand += other.loads_demand;
  }
  /// Adds this sweep's overlap/wait accounting to a StorageMetrics.
  void FoldInto(StorageMetrics* metrics) const {
    metrics->overlap_seconds += overlap_seconds;
    metrics->pipeline_wait_seconds += wait_seconds;
  }
};

/// Explicit double-buffered streaming over a GraphView: one dedicated
/// loader thread fills up to `slots` partitions ahead of the consumer,
/// and Acquire(p) hands off through an explicit ready-future.
///
/// Contract: one sweep. Each partition is acquired at most once per
/// pipeline instance (a second Acquire of the same partition degrades
/// to a direct demand load). Consumption may be out of order — a
/// demanded partition jumps the loader's queue — and the loader never
/// schedules past the view's last partition. Construct one pipeline per
/// map stage / materialize sweep; construction cost is one thread.
///
/// Passthrough mode: views with a resident graph, single-partition
/// views, and slots <= 0 skip the thread entirely and Acquire calls
/// straight through, so callers never special-case in-memory runs.
///
/// Thread-safe for concurrent Acquire calls on distinct partitions
/// (the MapReduce map stage runs map instances on a pool). The view
/// must outlive the pipeline.
class ShardPipeline {
 public:
  explicit ShardPipeline(const GraphView& view,
                         ShardPipelineOptions options = {});
  ~ShardPipeline();

  ShardPipeline(const ShardPipeline&) = delete;
  ShardPipeline& operator=(const ShardPipeline&) = delete;

  /// Blocks until partition p is loaded (usually it already is) and
  /// returns its slice, freeing the slot for the next load. Load errors
  /// surface here exactly as a direct AcquirePartition would report
  /// them; after an error the pipeline keeps serving other partitions.
  Result<PartitionSlice> Acquire(std::int64_t partition);

  /// False when running in passthrough mode (no loader thread).
  bool active() const { return loader_.joinable(); }

  /// Snapshot of the sweep's accounting so far.
  PipelineStats stats() const;

 private:
  struct Slot {
    bool ready = false;
    Result<PartitionSlice> result = Status::OK();
    double io_seconds = 0.0;
  };

  /// Lowest schedulable partition under the window, or -1. Demanded
  /// partitions win regardless of window occupancy (a consumer is
  /// blocked on them).
  std::int64_t PickTargetLocked();
  void LoaderLoop();

  const GraphView& view_;
  const ShardPipelineOptions options_;
  const std::int64_t num_partitions_;

  mutable std::mutex mu_;
  std::condition_variable loader_cv_;  ///< wakes the loader
  std::condition_variable ready_cv_;   ///< wakes blocked consumers
  std::map<std::int64_t, Slot> slots_;  ///< scheduled, not yet consumed
  std::unordered_set<std::int64_t> demanded_;
  std::unordered_set<std::int64_t> consumed_;
  std::int64_t next_ahead_ = 0;  ///< scheduling cursor for ahead loads
  std::int64_t in_flight_ = 0;   ///< loads the loader is executing now
  bool stop_ = false;
  PipelineStats stats_;

  std::thread loader_;
};

/// Options for MaterializeGraph.
struct MaterializeOptions {
  /// Pipeline window used while sweeping partitions; <= 0 streams on
  /// demand.
  int pipeline_slots = 2;
  /// When set, the sweep's pipeline accounting is merged in.
  PipelineStats* stats = nullptr;
};

/// Rebuilds a full in-memory Graph from any view, reproducing the
/// original edge numbering exactly: slices carry global edge ids, so
/// every edge lands at its original position and the rebuilt CSC
/// in-edge order — and with it every order-sensitive float fold — is
/// bit-identical to the graph that was packed. The partition sweep runs
/// on a ShardPipeline, so shard I/O for partition p+1 overlaps the
/// rebuild of partition p; peak extra memory is the pipeline window's
/// slices on top of the output graph.
Result<Graph> MaterializeGraph(const GraphView& view,
                               const MaterializeOptions& options = {});

}  // namespace inferturbo

#endif  // INFERTURBO_STORAGE_SHARD_PIPELINE_H_
