#include "src/runtime/task_supervisor.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/trace.h"

namespace inferturbo {
namespace {

using Clock = std::chrono::steady_clock;

std::chrono::nanoseconds SecondsToNanos(double seconds) {
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(seconds * 1e9));
}

}  // namespace

/// Per-task supervision state for one stage.
struct TaskSupervisor::TaskSlot {
  int next_attempt = 0;
  int failures = 0;
  bool committed = false;
  int committed_attempt = -1;
  int committed_executor = -1;
  int running = 0;
  bool launched = false;
  bool backup_inflight = false;
  bool backup_ever = false;
  bool retry_pending = false;
  Clock::time_point retry_due{};
  double backoff = 0.0;
  Clock::time_point first_launch{};
  bool exhausted = false;
  Status last_error;
};

/// Lives on RunStage's frame; attempts reach it through a raw pointer,
/// which is safe because RunStage drains every in-flight attempt
/// before returning. All fields are guarded by the supervisor's mu_.
struct TaskSupervisor::StageContext {
  TaskStage stage;
  const TaskFn* fn = nullptr;
  const TaskSettledFn* settled = nullptr;
  std::vector<TaskSlot> tasks;
  std::vector<std::shared_ptr<TaskAttempt>> running;
  // Settle calls in progress outside mu_; the drain waits for them too.
  int settling = 0;
  std::size_t committed_count = 0;
  bool failed = false;
  bool had_failures = false;
  Status stage_error;
  std::condition_variable cv;
};

bool TaskAttempt::TryCommit() {
  INFERTURBO_CHECK(supervisor_ != nullptr);
  auto* ctx = static_cast<TaskSupervisor::StageContext*>(stage_ctx_);
  std::lock_guard<std::mutex> lock(supervisor_->mu_);
  commit_attempted_ = true;
  TaskSupervisor::TaskSlot& slot = ctx->tasks[task_];
  if (slot.committed || ctx->failed ||
      abandon_.load(std::memory_order_acquire)) {
    return false;
  }
  slot.committed = true;
  slot.committed_attempt = attempt_;
  slot.committed_executor = executor_;
  slot.retry_pending = false;
  won_commit_ = true;
  ++ctx->committed_count;
  if (speculative_) {
    ++supervisor_->metrics_.speculative_commits;
    RecordFlightEvent(FlightEventKind::kSpeculativeCommit, "task/commit",
                      static_cast<std::int64_t>(task_), attempt_);
  }
  // The race is decided: rivals stop work at their next abandon poll.
  for (const std::shared_ptr<TaskAttempt>& rival : ctx->running) {
    if (rival->task_ == task_ && rival.get() != this) {
      rival->abandon_.store(true, std::memory_order_release);
    }
  }
  ctx->cv.notify_all();
  return true;
}

TaskSupervisor::TaskSupervisor(TaskSupervisionOptions options)
    : options_(std::move(options)),
      pool_(options_.pool != nullptr ? options_.pool : &DefaultThreadPool()) {}

SupervisionMetrics TaskSupervisor::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

bool TaskSupervisor::IsQuarantined(int executor) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = executors_.find(executor);
  return it != executors_.end() && it->second.quarantined;
}

int TaskSupervisor::num_quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  int count = 0;
  for (const auto& [id, health] : executors_) {
    if (health.quarantined) ++count;
  }
  return count;
}

int TaskSupervisor::AssignExecutorLocked(StageContext* ctx,
                                         std::size_t task) {
  const int num_executors =
      static_cast<int>(std::max<std::size_t>(1, ctx->tasks.size()));
  const int home = static_cast<int>(task) % num_executors;
  for (int probe = 0; probe < num_executors; ++probe) {
    const int candidate = (home + probe) % num_executors;
    const auto it = executors_.find(candidate);
    if (it == executors_.end() || !it->second.quarantined) {
      if (candidate != home) ++metrics_.reassigned_tasks;
      return candidate;
    }
  }
  // Every executor is quarantined; in-process quarantine is advisory,
  // so fall back to the home executor rather than refusing to run.
  return home;
}

void TaskSupervisor::LaunchAttempt(StageContext* ctx, std::size_t task,
                                   bool speculative) {
  // Caller holds mu_.
  TaskSlot& slot = ctx->tasks[task];
  auto attempt = std::make_shared<TaskAttempt>();
  attempt->task_ = task;
  attempt->attempt_ = slot.next_attempt++;
  attempt->executor_ = AssignExecutorLocked(ctx, task);
  attempt->speculative_ = speculative;
  attempt->supervisor_ = this;
  attempt->stage_ctx_ = ctx;
  ++slot.running;
  if (!slot.launched) {
    slot.launched = true;
    slot.first_launch = Clock::now();
  }
  if (speculative) {
    slot.backup_inflight = true;
    slot.backup_ever = true;
    ++metrics_.speculative_launched;
    RecordFlightEvent(FlightEventKind::kSpeculativeLaunch, "task/speculate",
                      static_cast<std::int64_t>(task), attempt->attempt_);
  } else if (attempt->attempt_ > 0) {
    ++metrics_.retries;
    RecordFlightEvent(FlightEventKind::kRetry, "task/retry",
                      static_cast<std::int64_t>(task), attempt->attempt_);
  }
  ++metrics_.attempts;
  ctx->running.push_back(attempt);

  const TaskFn* fn = ctx->fn;
  auto body = [this, ctx, attempt, fn] { RunAttemptBody(ctx, attempt, *fn); };
  // Recovery work (retries, backups) jumps the queue so it is not
  // stuck behind a backlog of first attempts.
  if (attempt->attempt_ > 0) {
    pool_->SubmitUrgent(std::move(body));
  } else {
    pool_->Submit(std::move(body));
  }
}

void TaskSupervisor::RunAttemptBody(StageContext* ctx,
                                    std::shared_ptr<TaskAttempt> attempt,
                                    const TaskFn& fn) {
  bool skip = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    attempt->started_ = Clock::now();
    attempt->started_set_ = true;
    const TaskSlot& slot = ctx->tasks[attempt->task_];
    skip = slot.committed || ctx->failed ||
           attempt->abandon_.load(std::memory_order_acquire);
  }
  // The deadline scan times an attempt from its start, so it must see
  // the start: a scan that ran before it would otherwise sleep until
  // some other attempt ends, which may be never.
  if (options_.task_deadline_seconds > 0.0) ctx->cv.notify_all();

  Status status = Status::OK();
  bool ran = false;
  if (!skip) {
    TaskFault fault;
    if (options_.fault_plan != nullptr) {
      fault = options_.fault_plan->Next({ctx->stage.kind,
                                         ctx->stage.stage_index,
                                         attempt->executor_,
                                         attempt->attempt_});
    }
    switch (fault.kind) {
      case TaskFaultKind::kCrash: {
        std::lock_guard<std::mutex> lock(mu_);
        ++metrics_.injected_crashes;
        RecordFlightEvent(FlightEventKind::kFaultInjected, "fault/crash",
                          attempt->executor_, attempt->attempt_);
        status = Status::Internal(
            "injected crash (stage " +
            std::string(TaskStageKindToString(ctx->stage.kind)) + ":" +
            std::to_string(ctx->stage.stage_index) + ", executor " +
            std::to_string(attempt->executor_) + ", attempt " +
            std::to_string(attempt->attempt_) + ")");
        break;
      }
      case TaskFaultKind::kTransient: {
        std::lock_guard<std::mutex> lock(mu_);
        ++metrics_.injected_transients;
        RecordFlightEvent(FlightEventKind::kFaultInjected, "fault/transient",
                          attempt->executor_, attempt->attempt_);
        status = Status::Unavailable("injected transient fault (executor " +
                                     std::to_string(attempt->executor_) +
                                     ", attempt " +
                                     std::to_string(attempt->attempt_) + ")");
        break;
      }
      case TaskFaultKind::kStraggle: {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++metrics_.injected_delays;
          RecordFlightEvent(FlightEventKind::kFaultInjected, "fault/delay",
                            attempt->executor_, attempt->attempt_);
        }
        // Cooperative straggle: sleep in small slices so a committed
        // rival or an expired deadline cancels the delay promptly.
        TraceSpan span("task.straggle", attempt->executor_);
        const Clock::time_point until =
            Clock::now() + SecondsToNanos(fault.delay_seconds);
        while (Clock::now() < until && !attempt->ShouldAbandon()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        break;
      }
      case TaskFaultKind::kNone:
        break;
    }
    if (status.ok() && !attempt->ShouldAbandon()) {
      TraceSpan span(attempt->speculative_ ? "task.attempt.speculative"
                                           : "task.attempt",
                     attempt->executor_);
      status = fn(attempt.get());
      ran = true;
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  TaskSlot& slot = ctx->tasks[attempt->task_];
  --slot.running;
  if (attempt->speculative_) slot.backup_inflight = false;
  ctx->running.erase(
      std::find(ctx->running.begin(), ctx->running.end(), attempt));

  if (status.ok() && ran && !attempt->commit_attempted_ &&
      !slot.committed && !ctx->failed &&
      !attempt->abandon_.load(std::memory_order_acquire)) {
    // The body returned OK without an explicit commit: commit on its
    // behalf (bodies with publication side effects call TryCommit
    // themselves, before publishing).
    attempt->commit_attempted_ = true;
    slot.committed = true;
    slot.committed_attempt = attempt->attempt_;
    slot.committed_executor = attempt->executor_;
    slot.retry_pending = false;
    attempt->won_commit_ = true;
    ++ctx->committed_count;
    if (attempt->speculative_) ++metrics_.speculative_commits;
    for (const std::shared_ptr<TaskAttempt>& rival : ctx->running) {
      if (rival->task_ == attempt->task_) {
        rival->abandon_.store(true, std::memory_order_release);
      }
    }
  } else if (!status.ok() && !attempt->failure_counted_ && !slot.committed &&
             !ctx->failed &&
             !attempt->abandon_.load(std::memory_order_acquire)) {
    attempt->failure_counted_ = true;
    RecordFailureLocked(ctx, attempt->task_, attempt->executor_, status);
  }
  // A committed task launches no further attempts, so the last one to
  // return settles it, exactly once.
  const bool settle = slot.committed && slot.running == 0 && *ctx->settled;
  if (settle) ++ctx->settling;
  ctx->cv.notify_all();
  if (!settle) return;
  lock.unlock();
  (*ctx->settled)(attempt->task_);
  lock.lock();
  --ctx->settling;
  ctx->cv.notify_all();
}

void TaskSupervisor::RecordFailureLocked(StageContext* ctx, std::size_t task,
                                         int executor, const Status& error) {
  TaskSlot& slot = ctx->tasks[task];
  ++slot.failures;
  ctx->had_failures = true;
  slot.last_error = error;

  // Crash-style failures (anything not retryable-by-code) count toward
  // the executor's quarantine budget; transient and deadline failures
  // do not — a slow or briefly unlucky executor is not a bad one.
  const bool permanent =
      !(error.IsUnavailable() || error.IsDeadlineExceeded());
  if (permanent) {
    ExecutorHealth& health = executors_[executor];
    ++health.permanent_failures;
    if (!health.quarantined && options_.quarantine_threshold > 0 &&
        health.permanent_failures >= options_.quarantine_threshold) {
      health.quarantined = true;
      ++metrics_.quarantined_workers;
      RecordFlightEvent(FlightEventKind::kQuarantine, "task/quarantine",
                        executor, health.permanent_failures);
      INFERTURBO_LOG(Warning)
          << "quarantining executor " << executor << " after "
          << health.permanent_failures << " permanent failures";
    }
  }

  if (slot.failures > options_.max_task_retries) {
    slot.exhausted = true;
    RecordFlightEvent(FlightEventKind::kTaskFailure, "task/exhausted",
                      static_cast<std::int64_t>(task), slot.failures);
    if (!ctx->failed) {
      ctx->failed = true;
      ctx->stage_error = error.WithMessage(
          "task " + std::to_string(task) + " exhausted " +
              std::to_string(options_.max_task_retries) +
              " retries; last error: " + error.ToString());
      INFERTURBO_LOG(Warning)
          << "stage " << TaskStageKindToString(ctx->stage.kind) << ":"
          << ctx->stage.stage_index
          << " failed: " << ctx->stage_error.ToString();
    }
    return;
  }
  if (slot.backoff <= 0.0) slot.backoff = options_.initial_backoff_seconds;
  slot.retry_pending = true;
  slot.retry_due = Clock::now() + SecondsToNanos(slot.backoff);
  slot.backoff = std::min(slot.backoff * options_.backoff_multiplier,
                          options_.max_backoff_seconds);
}

Result<StageResult> TaskSupervisor::RunStage(const TaskStage& stage,
                                             std::size_t num_tasks,
                                             const TaskFn& fn,
                                             const TaskSettledFn& settled) {
  INFERTURBO_CHECK(!ThreadPool::InPoolWorker())
      << "RunStage must not be called from a pool worker";
  StageContext ctx;
  ctx.stage = stage;
  ctx.fn = &fn;
  ctx.settled = &settled;
  ctx.tasks.resize(num_tasks);

  std::unique_lock<std::mutex> lock(mu_);
  metrics_.tasks += static_cast<std::int64_t>(num_tasks);
  for (std::size_t task = 0; task < num_tasks; ++task) {
    LaunchAttempt(&ctx, task, /*speculative=*/false);
  }

  const bool deadlines = options_.task_deadline_seconds > 0.0;
  while (ctx.committed_count < num_tasks && !ctx.failed) {
    const Clock::time_point now = Clock::now();
    bool have_wakeup = false;
    Clock::time_point wakeup = Clock::time_point::max();
    const auto consider = [&](Clock::time_point due) {
      if (!have_wakeup || due < wakeup) {
        have_wakeup = true;
        wakeup = due;
      }
    };

    // Deadline scan: expire attempts that overran their budget. The
    // attempt keeps running until its next abandon poll; supervision
    // accounting moves on immediately.
    if (deadlines) {
      for (const std::shared_ptr<TaskAttempt>& attempt : ctx.running) {
        if (!attempt->started_set_ || attempt->failure_counted_ ||
            attempt->abandon_.load(std::memory_order_acquire)) {
          continue;
        }
        if (ctx.tasks[attempt->task_].committed) continue;
        const Clock::time_point due =
            attempt->started_ +
            SecondsToNanos(options_.task_deadline_seconds);
        if (now >= due) {
          attempt->abandon_.store(true, std::memory_order_release);
          attempt->failure_counted_ = true;
          ++metrics_.deadline_exceeded;
          RecordFlightEvent(FlightEventKind::kDeadline, "task/deadline",
                            static_cast<std::int64_t>(attempt->task_),
                            attempt->attempt_);
          RecordFailureLocked(
              &ctx, attempt->task_, attempt->executor_,
              Status::DeadlineExceeded(
                  "attempt " + std::to_string(attempt->attempt_) +
                  " of task " + std::to_string(attempt->task_) + " over " +
                  std::to_string(options_.task_deadline_seconds) +
                  "s budget"));
          if (ctx.failed) break;
        } else {
          consider(due);
        }
      }
      if (ctx.failed) break;
    }

    for (std::size_t task = 0; task < num_tasks; ++task) {
      TaskSlot& slot = ctx.tasks[task];
      if (slot.committed || slot.exhausted) continue;
      if (slot.retry_pending) {
        if (now >= slot.retry_due) {
          slot.retry_pending = false;
          LaunchAttempt(&ctx, task, /*speculative=*/false);
        } else {
          consider(slot.retry_due);
        }
        continue;
      }
      if (options_.speculative_execution && slot.launched &&
          !slot.backup_ever && slot.running >= 1 &&
          slot.next_attempt < options_.max_task_retries + 2) {
        const Clock::time_point due =
            slot.first_launch +
            SecondsToNanos(options_.speculation_delay_seconds);
        if (now >= due) {
          LaunchAttempt(&ctx, task, /*speculative=*/true);
        } else {
          consider(due);
        }
      }
    }

    if (ctx.committed_count >= num_tasks || ctx.failed) break;
    if (have_wakeup) {
      ctx.cv.wait_until(lock, wakeup);
    } else {
      ctx.cv.wait(lock);
    }
  }

  // Drain: abandon every still-running attempt (losers on success,
  // everything on failure) and wait for the closures and settle calls
  // to unwind — they reference this frame.
  for (const std::shared_ptr<TaskAttempt>& attempt : ctx.running) {
    attempt->abandon_.store(true, std::memory_order_release);
  }
  while (!ctx.running.empty() || ctx.settling > 0) ctx.cv.wait(lock);

  if (ctx.failed) return ctx.stage_error;
  StageResult result;
  result.committed_attempt.reserve(num_tasks);
  result.committed_executor.reserve(num_tasks);
  for (const TaskSlot& slot : ctx.tasks) {
    result.committed_attempt.push_back(slot.committed_attempt);
    result.committed_executor.push_back(slot.committed_executor);
  }
  result.had_failures = ctx.had_failures;
  return result;
}

}  // namespace inferturbo
