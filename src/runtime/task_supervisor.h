#ifndef INFERTURBO_RUNTIME_TASK_SUPERVISOR_H_
#define INFERTURBO_RUNTIME_TASK_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/pregel/worker_metrics.h"
#include "src/runtime/fault_plan.h"

namespace inferturbo {

/// Supervision policy for every per-partition unit of work.
struct TaskSupervisionOptions {
  /// Per-attempt deadline. 0 = no deadline. When an attempt overruns
  /// it, the supervisor abandons it (cooperative cancel), counts a
  /// kDeadlineExceeded failure, and schedules a retry.
  double task_deadline_seconds = 0.0;
  /// Retries after the first attempt. Each retry waits out an
  /// exponential backoff. A task whose failures exceed this budget
  /// fails the stage.
  int max_task_retries = 3;
  /// Launch a speculative backup attempt for a task that has not
  /// committed within `speculation_delay_seconds` of its first launch
  /// — straggler mitigation. First attempt to commit wins; the loser
  /// is abandoned. At most one backup per task is in flight.
  bool speculative_execution = false;
  double speculation_delay_seconds = 0.05;
  /// An executor is quarantined after this many crash-kind (permanent)
  /// failures; its tasks deterministically reassign to the next
  /// healthy executor. Transient/deadline failures do not count.
  int quarantine_threshold = 3;
  /// Retry backoff schedule.
  double initial_backoff_seconds = 0.0005;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 0.05;
  /// Pool the attempts run on (nullptr = DefaultThreadPool()). RunStage
  /// must be called from outside this pool's workers.
  ThreadPool* pool = nullptr;
  /// Optional compute-side chaos injector consulted before every
  /// attempt body.
  FaultPlan* fault_plan = nullptr;
  /// Pregel-only degradation ladder: how many times a superstep may be
  /// re-executed from its immutable inputs after per-task retry
  /// exhaustion, before falling back to checkpoint restore.
  int max_superstep_reexecutions = 2;
};

/// One supervised stage of homogeneous tasks (a Pregel superstep's
/// compute phase, a MapReduce map/shuffle/reduce round).
struct TaskStage {
  TaskStageKind kind = TaskStageKind::kPregelCompute;
  /// Superstep or MapReduce round index, for fault targeting & spans.
  std::int64_t stage_index = 0;
};

class TaskSupervisor;

/// Handle passed to a task body. The contract for bit-identical
/// recovery: compute into attempt-local buffers, then call TryCommit()
/// exactly once; publish side effects (write shared slots, record
/// spill file names) only when it returns true. Duplicate attempts of
/// one task may run concurrently (speculation), but at most one wins.
class TaskAttempt {
 public:
  /// Task index within the stage (== partition / logical worker id).
  std::size_t task() const { return task_; }
  /// 0-based attempt number, unique per task. Use it to scope side
  /// effects that cannot be buffered in memory (e.g. spill file names).
  int attempt() const { return attempt_; }
  /// Logical executor assigned to this attempt. Purely supervision
  /// bookkeeping (fault targeting, quarantine): task data is indexed by
  /// task(), so executor identity never changes computed bytes.
  int executor() const { return executor_; }
  bool speculative() const { return speculative_; }

  /// True once the supervisor has given up on this attempt (deadline,
  /// or a rival committed). Long-running bodies should poll this and
  /// return early — Status value then does not matter.
  bool ShouldAbandon() const {
    return abandon_.load(std::memory_order_acquire);
  }

  /// First-commit-wins. True exactly once per task across all its
  /// attempts; the winner then owns publication of the task's result.
  bool TryCommit();

 private:
  friend class TaskSupervisor;
  std::size_t task_ = 0;
  int attempt_ = 0;
  int executor_ = 0;
  bool speculative_ = false;
  std::atomic<bool> abandon_{false};
  // Set by the deadline scanner so a later error return is not counted
  // as a second failure.
  bool failure_counted_ = false;
  bool commit_attempted_ = false;
  bool won_commit_ = false;
  // Deadlines are measured from when the body actually starts running
  // on a pool worker, not from enqueue, so a backlogged queue cannot
  // expire an attempt that never got a chance to run.
  bool started_set_ = false;
  std::chrono::steady_clock::time_point started_;
  TaskSupervisor* supervisor_ = nullptr;
  void* stage_ctx_ = nullptr;
};

/// The task body. Runs on a pool worker; may run concurrently with a
/// duplicate attempt of the same task. Returns OK on success (the
/// supervisor auto-commits if the body never called TryCommit),
/// kUnavailable / kDeadlineExceeded for retryable failures, anything
/// else for permanent-style failures (counts toward quarantine).
using TaskFn = std::function<Status(TaskAttempt*)>;

/// Called once per committed task when it has settled: it committed
/// and the last of its attempts has returned, so no attempt of it can
/// read its inputs any more — the point to free them. Runs on a pool
/// worker, outside the supervisor's lock; never for a task that did not
/// commit.
using TaskSettledFn = std::function<void(std::size_t task)>;

/// Per-stage outcome: which attempt/executor won each task.
struct StageResult {
  std::vector<int> committed_attempt;
  std::vector<int> committed_executor;
  /// True when any task needed more than one attempt (the stage result
  /// is still bit-identical; callers may want to log).
  bool had_failures = false;
};

/// Wraps every per-partition unit of work with deadlines, bounded
/// retry with exponential backoff, speculative backup execution, and
/// executor quarantine. One supervisor lives for a whole job, so
/// quarantine decisions and metrics persist across supersteps/rounds.
///
/// Thread model: RunStage blocks the calling (coordinator) thread; the
/// attempts run on the pool. The supervisor never calls
/// ThreadPool::Wait (that waits for the whole pool); it tracks its own
/// in-flight attempts and settle calls and always drains them before
/// returning, even on stage failure — attempt closures may reference
/// coordinator-frame state.
class TaskSupervisor {
 public:
  explicit TaskSupervisor(TaskSupervisionOptions options);

  /// Runs `num_tasks` tasks under supervision. Returns the per-task
  /// commit record, or the first retry-exhausted task's error. Never
  /// hangs: injected delays are finite and abandoned attempts are
  /// cooperatively cancelled. `settled` (optional) runs as each task
  /// settles; RunStage returns only after every such call has returned.
  Result<StageResult> RunStage(const TaskStage& stage, std::size_t num_tasks,
                               const TaskFn& fn,
                               const TaskSettledFn& settled = nullptr);

  /// Accumulated across all stages this supervisor ran.
  SupervisionMetrics metrics() const;

  bool IsQuarantined(int executor) const;
  int num_quarantined() const;

  const TaskSupervisionOptions& options() const { return options_; }

 private:
  friend class TaskAttempt;
  struct TaskSlot;
  struct StageContext;

  void LaunchAttempt(StageContext* ctx, std::size_t task, bool speculative);
  void RunAttemptBody(StageContext* ctx, std::shared_ptr<TaskAttempt> attempt,
                      const TaskFn& fn);
  /// Locked. Counts one failure against `task`; schedules a retry or
  /// marks the task (and stage) exhausted.
  void RecordFailureLocked(StageContext* ctx, std::size_t task, int executor,
                           const Status& error);
  /// Locked. Deterministic executor for `task`'s next attempt: its home
  /// executor, or the next non-quarantined one (wrapping probe).
  int AssignExecutorLocked(StageContext* ctx, std::size_t task);

  const TaskSupervisionOptions options_;
  ThreadPool* pool_;

  mutable std::mutex mu_;  // guards metrics_ and executor health
  SupervisionMetrics metrics_;
  struct ExecutorHealth {
    int permanent_failures = 0;
    bool quarantined = false;
  };
  std::map<int, ExecutorHealth> executors_;
};

}  // namespace inferturbo

#endif  // INFERTURBO_RUNTIME_TASK_SUPERVISOR_H_
