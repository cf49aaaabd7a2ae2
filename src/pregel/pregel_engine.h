#ifndef INFERTURBO_PREGEL_PREGEL_ENGINE_H_
#define INFERTURBO_PREGEL_PREGEL_ENGINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/checkpoint/checkpoint_store.h"
#include "src/common/result.h"
#include "src/common/thread_pool.h"
#include "src/gas/message.h"
#include "src/graph/partition.h"
#include "src/pregel/worker_metrics.h"
#include "src/runtime/task_supervisor.h"

namespace inferturbo {

/// A Pregel-like bulk-synchronous graph-processing engine (paper
/// §IV-C1), simulated in-process: N logical workers run a compute
/// function superstep by superstep, exchanging vectorized message
/// batches routed by destination node id through a shared partitioner.
///
/// The engine is model-agnostic — PageRank runs on it in the tests —
/// and provides the three mechanisms InferTurbo builds its strategies
/// on: message *combiners* (partial-gather), a keyed *broadcast board*
/// (the "aggregator" used by the broadcast strategy), and per-worker
/// byte/latency accounting (Figs. 9-13).
class PregelEngine;

/// Per-worker view handed to the compute function each superstep.
class PregelContext {
 public:
  std::int64_t superstep() const { return superstep_; }
  std::int64_t worker_id() const { return worker_id_; }
  std::int64_t num_workers() const;

  /// Message batches addressed to this worker's nodes, in deterministic
  /// (source worker, emission) order. Batches may have different
  /// payload widths (e.g. id-only broadcast references next to dense
  /// rows).
  const std::vector<MessageBatch>& inbox() const { return *inbox_; }

  /// Queues a batch for delivery next superstep; rows are routed to the
  /// workers owning their `dst` ids. Local deliveries are free;
  /// cross-worker rows are charged to both ends' byte counters.
  void SendBatch(MessageBatch batch);

  /// Queues a pre-pooled partial batch (its payload carries a trailing
  /// count column). Routed like SendBatch but flagged so receivers
  /// merge instead of folding count-1 rows.
  void SendPartialBatch(MessageBatch batch);

  /// Publishes a row on the broadcast board under `key`; every worker
  /// can look it up *next* superstep. Charged as one message to every
  /// other worker (the strategy's whole point: cost scales with
  /// #workers, not out-degree).
  void PublishBroadcast(NodeId key, const float* row, std::int64_t width);

  /// Row published under `key` in the previous superstep, or nullptr.
  const std::vector<float>* LookupBroadcast(NodeId key) const;

  /// True when `batch_index` in inbox() is a partial (pre-pooled)
  /// batch.
  bool IsPartialBatch(std::size_t batch_index) const;

  /// Asks to end the job after this superstep; the job stops when every
  /// worker voted in the same superstep.
  void VoteToHalt();

  /// Defers a publication of driver-visible state (node states, output
  /// rows) until the whole superstep's compute stage has committed.
  /// It is mandatory for state the compute function would otherwise
  /// mutate in place whenever the supervisor may attempt a worker more
  /// than once: duplicate (speculative) attempts of one worker may run
  /// concurrently, and a failed stage re-executes the superstep from its
  /// immutable inputs — both are only safe when in-place mutation is
  /// postponed to the commit point. Callbacks run
  /// on the coordinator thread, in worker order, exactly once per
  /// committed superstep.
  void DeferToCommit(std::function<void()> fn);

  /// Extra accounting hooks (e.g. reading node state from a local
  /// store).
  void ChargeBusySeconds(double seconds);
  /// Reports memory the worker holds resident this superstep (node
  /// states, vectorized gather buffers); folded as a max. The engine
  /// itself already counts the inbox.
  void ChargeResidentBytes(std::uint64_t bytes);

 private:
  friend class PregelEngine;
  PregelEngine* engine_ = nullptr;
  std::int64_t worker_id_ = 0;
  std::int64_t superstep_ = 0;
  const std::vector<MessageBatch>* inbox_ = nullptr;
  std::vector<bool> inbox_partial_;
  // Outgoing, grouped by destination worker.
  struct Outgoing {
    MessageBatch batch;
    bool partial = false;
  };
  std::vector<std::vector<Outgoing>> outbox_;  // [dst_worker] -> batches
  std::vector<std::pair<NodeId, std::vector<float>>> broadcast_out_;
  std::vector<std::function<void()>> commit_callbacks_;
  bool halt_vote_ = false;
  double extra_busy_seconds_ = 0.0;
  std::uint64_t resident_bytes_ = 0;

  void RunCommitCallbacks() {
    for (const std::function<void()>& fn : commit_callbacks_) fn();
    commit_callbacks_.clear();
  }
};

class PregelEngine {
 public:
  struct Options {
    std::int64_t num_workers = 8;
    std::int64_t max_supersteps = 64;
    ClusterCostModel cost_model;
    /// Optional combiner applied to each (source worker, destination
    /// worker) merged batch before it leaves the source — where
    /// partial-gather's sender-side aggregation runs. Its runtime is
    /// charged to the source worker. Returns {batch, is_partial}.
    std::function<std::pair<MessageBatch, bool>(std::int64_t dst_worker,
                                                MessageBatch batch)>
        combiner;
    /// Runs logical workers on this pool (DefaultThreadPool() if null).
    ThreadPool* pool = nullptr;

    // --- fault tolerance (paper §IV: inherited from the substrate) --
    /// Checkpoint the engine's in-flight state (inboxes, partial flags,
    /// broadcast board) and the driver's state every N supersteps; 0
    /// disables checkpointing. A checkpoint is one encoded form:
    /// EncodePregelEngineState plus serialize_driver's bytes, kept in
    /// memory for a supervised rollback and, when checkpoint_store is
    /// set, also saved there for a cross-process resume.
    std::int64_t checkpoint_interval = 0;
    /// Not owned; may be null (rollbacks then stay in memory).
    CheckpointStore* checkpoint_store = nullptr;
    /// Serializes the driver's mutable state at a checkpoint...
    std::function<std::string()> serialize_driver;
    /// ...and rebuilds it from those bytes on a rollback or a resume,
    /// given the superstep the checkpoint was taken before.
    std::function<Status(const std::string&, std::int64_t step)>
        deserialize_driver;
    /// Start Run from the store's newest valid checkpoint instead of
    /// superstep 0 (falls back to a fresh start when the store holds no
    /// loadable checkpoint — the job died before its first one).
    bool resume = false;
    /// Simulated whole-process death for tests: when it returns true
    /// for a superstep, Run aborts with Status::Aborted *after* the
    /// step's durable checkpoint (if due) was written and before its
    /// compute runs — in-memory state is discarded, exactly like a
    /// killed driver.
    std::function<bool(std::int64_t step)> kill_switch;

    // --- task supervision (src/runtime/) ----------------------------
    /// Every superstep's compute phase runs as a stage of this
    /// supervisor: per-attempt deadlines, bounded retry with backoff,
    /// speculative backups, and executor quarantine. Null = Run builds a
    /// default one on `pool` (no deadline, speculation or fault plan, so
    /// each task runs once). A compute that may be attempted more than
    /// once must follow the deferred-commit contract
    /// (PregelContext::DeferToCommit) for any in-place state mutation.
    /// On per-task retry exhaustion the engine degrades in order:
    /// superstep re-execution from the superstep's immutable inputs
    /// (bounded by the supervisor's max_superstep_reexecutions), then
    /// checkpoint restore, then a clean non-OK Status. Not owned.
    TaskSupervisor* supervisor = nullptr;
  };

  /// `compute` is invoked once per worker per superstep.
  using ComputeFn = std::function<void(PregelContext*)>;

  PregelEngine(Options options, HashPartitioner partitioner);

  /// Runs supersteps until every worker votes to halt in the same step
  /// or max_supersteps is reached. Returns the per-worker accounting.
  /// Supersteps that failed or were replayed after a checkpoint
  /// restore appear as extra metric steps — recovery work is real
  /// work. Returns a non-OK Status — never crashes — when a supervised
  /// stage fails past the degradation ladder (the stage's code; the
  /// message says when no checkpoint was there to restore), when the
  /// restore loop exceeds its superstep-attempt budget (Aborted), when
  /// a checkpoint cannot be persisted or decoded, or when the kill
  /// switch fires (Aborted).
  Result<JobMetrics> Run(const ComputeFn& compute);

  const HashPartitioner& partitioner() const { return partitioner_; }
  std::int64_t num_workers() const { return options_.num_workers; }

 private:
  friend class PregelContext;

  Options options_;
  HashPartitioner partitioner_;
  // Board published last superstep (read side) and this superstep
  // (write side, merged at the barrier).
  std::unordered_map<NodeId, std::vector<float>> board_current_;
};

/// Bit-exact serialization of the engine's in-flight state (inboxes,
/// partial flags, broadcast board) for durable checkpoints. The board
/// is written in sorted key order so the bytes are deterministic.
std::string EncodePregelEngineState(
    const std::vector<std::vector<MessageBatch>>& inboxes,
    const std::vector<std::vector<bool>>& inbox_partial,
    const std::unordered_map<NodeId, std::vector<float>>& board);

/// Inverse of EncodePregelEngineState; every length is bounds-checked
/// so truncated or corrupted bytes surface as IoError, never UB.
Status DecodePregelEngineState(
    std::string_view bytes, std::int64_t num_workers,
    std::vector<std::vector<MessageBatch>>* inboxes,
    std::vector<std::vector<bool>>* inbox_partial,
    std::unordered_map<NodeId, std::vector<float>>* board);

}  // namespace inferturbo

#endif  // INFERTURBO_PREGEL_PREGEL_ENGINE_H_
