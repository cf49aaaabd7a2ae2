#ifndef INFERTURBO_INFERENCE_INFERTURBO_PREGEL_H_
#define INFERTURBO_INFERENCE_INFERTURBO_PREGEL_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/io_fault.h"
#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/runtime/fault_plan.h"
#include "src/runtime/task_supervisor.h"
#include "src/graph/graph.h"
#include "src/inference/result.h"
#include "src/inference/strategies.h"
#include "src/nn/model.h"

namespace inferturbo {

/// Configuration shared by both InferTurbo backends.
struct InferTurboOptions {
  /// Logical cluster size (paper: ~1000 Pregel instances / ~5000
  /// MapReduce instances).
  std::int64_t num_workers = 8;
  StrategyConfig strategies;
  ClusterCostModel cost_model;
  /// Physical pool the logical workers run on (DefaultThreadPool() if
  /// null).
  ThreadPool* pool = nullptr;

  // --- fault tolerance --------------------------------------------
  /// Pregel backend: checkpoint driver + engine state every N
  /// supersteps (0 = off); a supervised superstep that fails past its
  /// re-executions rolls back to the last one. The MapReduce backend
  /// needs no checkpointing — its shuffle inputs are durable and failed
  /// tasks re-execute. Compute faults are injected through `fault_plan`.
  std::int64_t checkpoint_interval = 0;

  /// MapReduce backend only: when non-empty, shuffle blocks round-trip
  /// through files under this directory (must exist) instead of
  /// staying in memory — the backend's external-storage dataflow.
  std::string mr_spill_directory;

  // --- durable checkpoints (cross-process resume) ------------------
  /// When non-empty, job state is also serialized to versioned,
  /// CRC-checksummed files under this directory (must exist), so a
  /// killed *process* can resume. Pregel: every checkpoint_interval
  /// supersteps (interval defaults to 1 when left at 0); MapReduce:
  /// after the map stage and after each reduce round.
  std::string checkpoint_directory;
  /// Retention: only the newest K durable checkpoints are kept.
  std::int64_t checkpoint_keep_last = 2;
  /// Start from the newest valid checkpoint under
  /// checkpoint_directory instead of superstep/round 0 (falls back to
  /// a fresh start when the store holds none). Resumed jobs produce
  /// logits bit-identical to an uninterrupted run.
  bool resume_from = false;
  /// Simulated whole-process death for tests: when it returns true for
  /// a superstep (Pregel) or stage index (MapReduce; 0 = map, l+1 =
  /// reduce round l), the job aborts with Status::Aborted before that
  /// unit's compute runs — after prior units' durable checkpoints.
  std::function<bool(std::int64_t)> kill_switch;
  /// Optional fault injection on every durable I/O path (checkpoint
  /// store, MR spill blocks, output writer), plus the bounded
  /// retry/backoff policy for transient faults.
  IoFaultInjector* io_fault_injector = nullptr;
  IoRetryPolicy io_retry;

  /// Also return final-layer node embeddings (InferenceResult::
  /// embeddings) — the output mode embedding-production jobs use.
  bool export_embeddings = false;

  // --- out-of-core streaming (src/storage/) ------------------------
  /// In-flight window of the ShardPipeline that streams partitions to
  /// the map stage / materialize sweep when the job runs over an
  /// out-of-core GraphView: the load for partition p+1 starts the
  /// moment compute on p begins. 2 = double buffering; <= 0 falls back
  /// to demand loads. Irrelevant for in-memory runs.
  int storage_pipeline_slots = 2;

  // --- task supervision (src/runtime/) -----------------------------
  /// Every per-partition unit of work (Pregel compute tasks, MapReduce
  /// map/shuffle/reduce tasks) runs under one TaskSupervisor per job:
  /// per-attempt deadlines, bounded retry with exponential backoff,
  /// speculative backup execution, and executor quarantine. Any fault
  /// schedule within the retry budgets yields logits bit-identical to
  /// a fault-free run. This is its policy; `pool` and `fault_plan`
  /// inside it are overridden from this struct's fields.
  TaskSupervisionOptions supervision;
  /// Optional compute-side chaos schedule (crash/transient/straggle
  /// per task attempt). Not owned.
  FaultPlan* fault_plan = nullptr;
};

/// Full-graph layer-wise GNN inference on the Pregel backend (paper
/// §IV-C1): nodes are hash-partitioned with their out-edges and state;
/// superstep 0 initializes states from raw features and scatters layer-0
/// messages; superstep s applies layer s-1 and scatters layer-s
/// messages; the prediction head is fused into the last superstep. A
/// k-layer model finishes in k+1 supersteps with no k-hop redundancy —
/// each node's state is computed exactly once per layer.
Result<InferenceResult> RunInferTurboPregel(const Graph& graph,
                                            const GnnModel& model,
                                            const InferTurboOptions& options);

class GraphView;

/// Pregel over a GraphView. The Pregel backend keeps all state
/// resident by design (that is its side of the paper's trade-off), so
/// an out-of-core view is materialized back into a Graph first —
/// MaterializeGraph reproduces the exact original edge ordering, so
/// logits stay bit-identical to running on the graph that was packed.
/// Views over a resident graph run on it directly. In either case
/// result.metrics.storage carries the view's storage counters.
Result<InferenceResult> RunInferTurboPregel(const GraphView& view,
                                            const GnnModel& model,
                                            const InferTurboOptions& options);

}  // namespace inferturbo

#endif  // INFERTURBO_INFERENCE_INFERTURBO_PREGEL_H_
