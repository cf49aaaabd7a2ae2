// TaskSupervisor unit tests: the first-commit-wins attempt protocol,
// bounded retry with status-code-aware accounting, per-attempt
// deadlines, speculative backups, executor quarantine and the settle
// hook — exercised directly against small synthetic task bodies so
// every assertion pins one supervisor behavior the engines rely on.
#include "src/runtime/task_supervisor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/runtime/fault_plan.h"

namespace inferturbo {
namespace {

using std::chrono::steady_clock;

// Cooperative wait: parks until the supervisor abandons the attempt,
// bounded so a supervisor bug cannot hang the test binary.
void WaitForAbandon(TaskAttempt* attempt, double max_seconds = 10.0) {
  const auto give_up =
      steady_clock::now() +
      std::chrono::duration_cast<steady_clock::duration>(
          std::chrono::duration<double>(max_seconds));
  while (!attempt->ShouldAbandon() && steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(TaskSupervisorTest, HappyPathCommitsEveryTaskOnAttemptZero) {
  TaskSupervisor supervisor({});
  constexpr std::size_t kTasks = 5;
  std::vector<int> out(kTasks, -1);
  const Result<StageResult> stage = supervisor.RunStage(
      {TaskStageKind::kPregelCompute, 0}, kTasks,
      [&](TaskAttempt* attempt) -> Status {
        const int value = static_cast<int>(attempt->task()) * 10;
        if (attempt->TryCommit()) out[attempt->task()] = value;
        return Status::OK();
      });
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
  EXPECT_FALSE(stage->had_failures);
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(stage->committed_attempt[t], 0) << t;
    EXPECT_EQ(stage->committed_executor[t], static_cast<int>(t)) << t;
    EXPECT_EQ(out[t], static_cast<int>(t) * 10) << t;
  }
  const SupervisionMetrics m = supervisor.metrics();
  EXPECT_EQ(m.tasks, 5);
  EXPECT_EQ(m.attempts, 5);
  EXPECT_EQ(m.retries, 0);
  EXPECT_EQ(m.deadline_exceeded, 0);
  EXPECT_EQ(supervisor.num_quarantined(), 0);
}

TEST(TaskSupervisorTest, BodyReturningOkWithoutTryCommitIsAutoCommitted) {
  TaskSupervisor supervisor({});
  const Result<StageResult> stage =
      supervisor.RunStage({TaskStageKind::kMrMap, 0}, 3,
                          [](TaskAttempt*) { return Status::OK(); });
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
  EXPECT_EQ(supervisor.metrics().tasks, 3);
  EXPECT_EQ(supervisor.metrics().attempts, 3);
}

TEST(TaskSupervisorTest, InjectedCrashRetriesAndRecovers) {
  FaultPlan plan;
  // Executor 1's first attempt in stage 0 crashes, once.
  plan.ArmCrash(TaskStageKind::kAny, /*stage_index=*/0, /*executor=*/1,
                /*times=*/1);
  TaskSupervisionOptions options;
  options.fault_plan = &plan;
  TaskSupervisor supervisor(options);

  std::atomic<int> commits{0};
  const Result<StageResult> stage = supervisor.RunStage(
      {TaskStageKind::kPregelCompute, 0}, 3,
      [&](TaskAttempt* attempt) -> Status {
        if (attempt->TryCommit()) commits.fetch_add(1);
        return Status::OK();
      });
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
  EXPECT_TRUE(stage->had_failures);
  EXPECT_EQ(commits.load(), 3);
  // The crashed task committed on its retry, same executor (one crash
  // is under the default quarantine threshold).
  EXPECT_EQ(stage->committed_attempt[1], 1);
  EXPECT_EQ(stage->committed_executor[1], 1);
  const SupervisionMetrics m = supervisor.metrics();
  EXPECT_EQ(m.injected_crashes, 1);
  EXPECT_EQ(m.retries, 1);
  EXPECT_EQ(m.attempts, 4);
  EXPECT_EQ(supervisor.num_quarantined(), 0);
  EXPECT_EQ(plan.crashes_fired(), 1);
}

TEST(TaskSupervisorTest, TransientFailuresRetryWithoutQuarantine) {
  FaultPlan plan;
  plan.ArmTransient(TaskStageKind::kAny, -1, /*executor=*/0, /*times=*/2);
  TaskSupervisionOptions options;
  options.fault_plan = &plan;
  options.quarantine_threshold = 1;  // a single crash would quarantine
  TaskSupervisor supervisor(options);

  const Result<StageResult> stage =
      supervisor.RunStage({TaskStageKind::kMrReduce, 2}, 2,
                          [](TaskAttempt*) { return Status::OK(); });
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
  // Two kUnavailable failures burned two retries but zero quarantine
  // budget: transient codes are not permanent-style.
  EXPECT_EQ(stage->committed_attempt[0], 2);
  EXPECT_EQ(stage->committed_executor[0], 0);
  const SupervisionMetrics m = supervisor.metrics();
  EXPECT_EQ(m.injected_transients, 2);
  EXPECT_EQ(m.retries, 2);
  EXPECT_EQ(supervisor.num_quarantined(), 0);
  EXPECT_FALSE(supervisor.IsQuarantined(0));
}

TEST(TaskSupervisorTest, RetryExhaustionFailsStageWithPreservedCode) {
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kAny, -1, -1, /*times=*/-1);  // every attempt
  TaskSupervisionOptions options;
  options.fault_plan = &plan;
  options.max_task_retries = 1;
  options.quarantine_threshold = 0;  // keep crashes landing on one executor
  TaskSupervisor supervisor(options);

  std::atomic<int> bodies_run{0};
  const Result<StageResult> stage = supervisor.RunStage(
      {TaskStageKind::kPregelCompute, 1}, 2, [&](TaskAttempt*) -> Status {
        bodies_run.fetch_add(1);
        return Status::OK();
      });
  ASSERT_FALSE(stage.ok());
  // Crashes report kInternal; the stage error preserves the code and
  // names the exhausted retry budget.
  EXPECT_EQ(stage.status().code(), StatusCode::kInternal);
  EXPECT_NE(stage.status().message().find("exhausted"), std::string::npos)
      << stage.status().ToString();
  // A crash kills the attempt before its body runs.
  EXPECT_EQ(bodies_run.load(), 0);
}

TEST(TaskSupervisorTest, ExhaustionWithTransientCodeSurfacesUnavailable) {
  FaultPlan plan;
  plan.ArmTransient(TaskStageKind::kAny, -1, -1, /*times=*/-1);
  TaskSupervisionOptions options;
  options.fault_plan = &plan;
  options.max_task_retries = 1;
  TaskSupervisor supervisor(options);

  const Result<StageResult> stage =
      supervisor.RunStage({TaskStageKind::kMrMap, 0}, 1,
                          [](TaskAttempt*) { return Status::OK(); });
  ASSERT_FALSE(stage.ok());
  EXPECT_TRUE(stage.status().IsUnavailable()) << stage.status().ToString();
}

TEST(TaskSupervisorTest, DeadlineAbandonsStragglerAndRetryCommits) {
  TaskSupervisionOptions options;
  options.task_deadline_seconds = 0.05;
  TaskSupervisor supervisor(options);

  const Result<StageResult> stage = supervisor.RunStage(
      {TaskStageKind::kPregelCompute, 0}, 2,
      [&](TaskAttempt* attempt) -> Status {
        if (attempt->task() == 0 && attempt->attempt() == 0) {
          // Overruns the 50 ms budget; parks until the deadline
          // scanner abandons it.
          WaitForAbandon(attempt);
          EXPECT_TRUE(attempt->ShouldAbandon());
          // An abandoned attempt must not win even if it claims OK.
          EXPECT_FALSE(attempt->TryCommit());
          return Status::OK();
        }
        return Status::OK();
      });
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
  EXPECT_TRUE(stage->had_failures);
  EXPECT_GE(stage->committed_attempt[0], 1);
  const SupervisionMetrics m = supervisor.metrics();
  EXPECT_GE(m.deadline_exceeded, 1);
  EXPECT_GE(m.retries, 1);
  // Deadline overruns are transient-style: no quarantine.
  EXPECT_EQ(supervisor.num_quarantined(), 0);
}

TEST(TaskSupervisorTest, DeadlineTimesAnAttemptThatStartsAfterTheScan) {
  // One executor thread, held busy until after the supervisor's first
  // scan, which therefore sees no started attempt. The straggler then
  // holds the only thread, so no attempt ends to wake the scan: only
  // the straggler's own start can.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.Submit([&release] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release.store(true);
  });
  TaskSupervisionOptions options;
  options.pool = &pool;
  options.task_deadline_seconds = 0.05;
  TaskSupervisor supervisor(options);
  bool abandoned = false;
  const Result<StageResult> stage = supervisor.RunStage(
      {TaskStageKind::kPregelCompute, 0}, 2,
      [&](TaskAttempt* attempt) -> Status {
        if (attempt->task() == 0 && attempt->attempt() == 0) {
          WaitForAbandon(attempt, /*max_seconds=*/5.0);
          abandoned = attempt->ShouldAbandon();
        }
        return Status::OK();
      });
  releaser.join();
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
  EXPECT_TRUE(abandoned);
  EXPECT_GE(stage->committed_attempt[0], 1);
  EXPECT_EQ(supervisor.metrics().deadline_exceeded, 1);
}

TEST(TaskSupervisorTest, SpeculativeBackupCommitsWhileStragglerSleeps) {
  TaskSupervisionOptions options;
  options.speculative_execution = true;
  options.speculation_delay_seconds = 0.01;
  TaskSupervisor supervisor(options);

  std::atomic<int> wins{0};
  const Result<StageResult> stage = supervisor.RunStage(
      {TaskStageKind::kMrReduce, 1}, 3,
      [&](TaskAttempt* attempt) -> Status {
        if (attempt->task() == 0 && attempt->attempt() == 0) {
          WaitForAbandon(attempt);  // straggle until the backup wins
          if (attempt->TryCommit()) wins.fetch_add(1);
          return Status::OK();
        }
        if (attempt->TryCommit()) wins.fetch_add(1);
        return Status::OK();
      });
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
  // Exactly one attempt per task won, and task 0's winner was the
  // speculative backup (attempt 1).
  EXPECT_EQ(wins.load(), 3);
  EXPECT_EQ(stage->committed_attempt[0], 1);
  const SupervisionMetrics m = supervisor.metrics();
  EXPECT_GE(m.speculative_launched, 1);
  EXPECT_GE(m.speculative_commits, 1);
  EXPECT_EQ(m.tasks, 3);
}

TEST(TaskSupervisorTest, CommitIsExclusiveAcrossEagerBackups) {
  // Zero speculation delay => backups race first attempts aggressively;
  // first-commit-wins must still hand out exactly one win per task.
  TaskSupervisionOptions options;
  options.speculative_execution = true;
  options.speculation_delay_seconds = 0.0;
  TaskSupervisor supervisor(options);

  constexpr std::size_t kTasks = 8;
  std::atomic<int> wins{0};
  const Result<StageResult> stage = supervisor.RunStage(
      {TaskStageKind::kPregelCompute, 2}, kTasks,
      [&](TaskAttempt* attempt) -> Status {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (attempt->TryCommit()) wins.fetch_add(1);
        return Status::OK();
      });
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
  EXPECT_EQ(wins.load(), static_cast<int>(kTasks));
  EXPECT_EQ(supervisor.metrics().tasks, static_cast<std::int64_t>(kTasks));
}

TEST(TaskSupervisorTest, QuarantineReassignsTaskToNextHealthyExecutor) {
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kAny, -1, /*executor=*/1, /*times=*/-1);
  TaskSupervisionOptions options;
  options.fault_plan = &plan;
  options.quarantine_threshold = 2;
  TaskSupervisor supervisor(options);

  const Result<StageResult> stage =
      supervisor.RunStage({TaskStageKind::kPregelCompute, 0}, 3,
                          [](TaskAttempt*) { return Status::OK(); });
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
  // Task 1's home executor crashed twice, got quarantined, and the
  // third attempt deterministically moved to executor 2 — where the
  // (executor-1-scoped) fault rule no longer matches.
  EXPECT_EQ(stage->committed_attempt[1], 2);
  EXPECT_EQ(stage->committed_executor[1], 2);
  EXPECT_TRUE(supervisor.IsQuarantined(1));
  EXPECT_FALSE(supervisor.IsQuarantined(0));
  EXPECT_EQ(supervisor.num_quarantined(), 1);
  const SupervisionMetrics m = supervisor.metrics();
  EXPECT_EQ(m.injected_crashes, 2);
  EXPECT_EQ(m.quarantined_workers, 1);
  EXPECT_GE(m.reassigned_tasks, 1);
}

TEST(TaskSupervisorTest, QuarantinePersistsAcrossStages) {
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kAny, /*stage_index=*/0, /*executor=*/0,
                /*times=*/-1);
  TaskSupervisionOptions options;
  options.fault_plan = &plan;
  options.quarantine_threshold = 1;
  TaskSupervisor supervisor(options);

  ASSERT_TRUE(supervisor
                  .RunStage({TaskStageKind::kPregelCompute, 0}, 2,
                            [](TaskAttempt*) { return Status::OK(); })
                  .ok());
  ASSERT_TRUE(supervisor.IsQuarantined(0));

  // The next stage never routes task 0 to the quarantined executor:
  // one supervisor per job means health outlives any single stage.
  const Result<StageResult> next =
      supervisor.RunStage({TaskStageKind::kPregelCompute, 1}, 2,
                          [](TaskAttempt*) { return Status::OK(); });
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->committed_executor[0], 1);
  EXPECT_GE(supervisor.metrics().reassigned_tasks, 1);
}

TEST(TaskSupervisorTest, StraggleInjectionDelaysButStillCommits) {
  FaultPlan plan;
  plan.ArmDelay(TaskStageKind::kAny, -1, /*executor=*/0,
                /*delay_seconds=*/0.02, /*times=*/1);
  TaskSupervisionOptions options;
  options.fault_plan = &plan;
  TaskSupervisor supervisor(options);

  const Result<StageResult> stage =
      supervisor.RunStage({TaskStageKind::kMrShuffle, 1}, 2,
                          [](TaskAttempt*) { return Status::OK(); });
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
  // A straggle is not a failure: attempt 0 still commits.
  EXPECT_EQ(stage->committed_attempt[0], 0);
  EXPECT_FALSE(stage->had_failures);
  const SupervisionMetrics m = supervisor.metrics();
  EXPECT_EQ(m.injected_delays, 1);
  EXPECT_EQ(m.retries, 0);
  EXPECT_EQ(plan.delays_fired(), 1);
}

TEST(TaskSupervisorTest, MetricsAccumulateAcrossStages) {
  FaultPlan plan;
  plan.ArmTransient(TaskStageKind::kAny, -1, -1, /*times=*/1);
  TaskSupervisionOptions options;
  options.fault_plan = &plan;
  TaskSupervisor supervisor(options);

  for (int s = 0; s < 3; ++s) {
    ASSERT_TRUE(supervisor
                    .RunStage({TaskStageKind::kPregelCompute, s}, 2,
                              [](TaskAttempt*) { return Status::OK(); })
                    .ok());
  }
  const SupervisionMetrics m = supervisor.metrics();
  EXPECT_EQ(m.tasks, 6);
  EXPECT_EQ(m.attempts, 7);  // 6 firsts + 1 retry for the transient
  EXPECT_EQ(m.retries, 1);
  EXPECT_EQ(m.injected_transients, 1);
}

// --- settle hook: a task's inputs may be freed once it has settled ---

// Per-task bookkeeping for the settle-hook tests: attempts inside their
// body, settle calls, and settle calls that came while an attempt of
// the task was still inside its body (which may be reading the inputs
// the hook frees).
struct SettleProbe {
  explicit SettleProbe(std::size_t tasks)
      : in_body(tasks), settles(tasks), early(tasks), committed(tasks) {}

  TaskFn Track(TaskFn body) {
    return [this, body](TaskAttempt* attempt) {
      in_body[attempt->task()].fetch_add(1);
      const Status status = body(attempt);
      in_body[attempt->task()].fetch_sub(1);
      return status;
    };
  }
  TaskSettledFn Hook() {
    return [this](std::size_t task) {
      if (in_body[task].load() != 0) early[task].fetch_add(1);
      settles[task].fetch_add(1);
    };
  }
  // Commits `attempt` and flags its task as committed.
  void Commit(TaskAttempt* attempt) {
    if (attempt->TryCommit()) committed[attempt->task()].store(true);
  }
  // Parks a rival until its task has committed, so the commit happens
  // while the rival is still inside its body.
  void WaitForCommit(std::size_t task) {
    const auto give_up = steady_clock::now() + std::chrono::seconds(10);
    while (!committed[task].load() && steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::vector<std::atomic<int>> in_body;
  std::vector<std::atomic<int>> settles;
  std::vector<std::atomic<int>> early;
  std::vector<std::atomic<bool>> committed;
};

TEST(TaskSupervisorTest, SettleWaitsForStragglerAfterBackupCommits) {
  TaskSupervisionOptions options;
  options.speculative_execution = true;
  options.speculation_delay_seconds = 0.01;
  TaskSupervisor supervisor(options);
  constexpr std::size_t kTasks = 3;
  SettleProbe probe(kTasks);

  const Result<StageResult> stage = supervisor.RunStage(
      {TaskStageKind::kMrReduce, 0}, kTasks,
      probe.Track([&](TaskAttempt* attempt) -> Status {
        if (attempt->task() == 0 && attempt->attempt() == 0) {
          // The straggling original: the backup commits while it is
          // still running.
          WaitForAbandon(attempt);
          probe.WaitForCommit(0);
          return Status::OK();
        }
        probe.Commit(attempt);
        return Status::OK();
      }),
      probe.Hook());
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
  EXPECT_EQ(stage->committed_attempt[0], 1);
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(probe.settles[t].load(), 1) << t;
    EXPECT_EQ(probe.early[t].load(), 0) << t;
  }
}

TEST(TaskSupervisorTest, SettleWaitsForDeadlineAbandonedAttempt) {
  TaskSupervisionOptions options;
  options.task_deadline_seconds = 0.05;
  TaskSupervisor supervisor(options);
  constexpr std::size_t kTasks = 2;
  SettleProbe probe(kTasks);

  const Result<StageResult> stage = supervisor.RunStage(
      {TaskStageKind::kMrShuffle, 0}, kTasks,
      probe.Track([&](TaskAttempt* attempt) -> Status {
        if (attempt->task() == 0 && attempt->attempt() == 0) {
          // Overruns its deadline, then keeps running until the retry
          // that replaced it has committed.
          WaitForAbandon(attempt);
          probe.WaitForCommit(0);
          return Status::OK();
        }
        probe.Commit(attempt);
        return Status::OK();
      }),
      probe.Hook());
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
  EXPECT_GE(stage->committed_attempt[0], 1);
  EXPECT_GE(supervisor.metrics().deadline_exceeded, 1);
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(probe.settles[t].load(), 1) << t;
    EXPECT_EQ(probe.early[t].load(), 0) << t;
  }
}

TEST(TaskSupervisorTest, SettleNeverFiresForUncommittedTaskOfFailedStage) {
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kAny, -1, /*executor=*/1, /*times=*/-1);
  TaskSupervisionOptions options;
  options.fault_plan = &plan;
  options.max_task_retries = 1;
  options.quarantine_threshold = 0;  // keep task 1 on its crashing executor
  TaskSupervisor supervisor(options);
  constexpr std::size_t kTasks = 3;
  SettleProbe probe(kTasks);

  const Result<StageResult> stage = supervisor.RunStage(
      {TaskStageKind::kMrMap, 0}, kTasks,
      probe.Track([&](TaskAttempt* attempt) -> Status {
        probe.Commit(attempt);
        return Status::OK();
      }),
      probe.Hook());
  ASSERT_FALSE(stage.ok());
  EXPECT_EQ(probe.settles[1].load(), 0);
  for (std::size_t t = 0; t < kTasks; ++t) {
    // A committed task of a failed stage may settle, but only once.
    EXPECT_LE(probe.settles[t].load(), probe.committed[t].load() ? 1 : 0)
        << t;
    EXPECT_EQ(probe.early[t].load(), 0) << t;
  }
}

TEST(TaskSupervisorTest, RunStageReturnsOnlyAfterEverySettleCallReturned) {
  TaskSupervisor supervisor({});
  constexpr std::size_t kTasks = 4;
  std::atomic<int> returned{0};
  const Result<StageResult> stage = supervisor.RunStage(
      {TaskStageKind::kPregelCompute, 0}, kTasks,
      [](TaskAttempt*) { return Status::OK(); },
      [&returned](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        returned.fetch_add(1);
      });
  EXPECT_EQ(returned.load(), static_cast<int>(kTasks));
  ASSERT_TRUE(stage.ok()) << stage.status().ToString();
}

}  // namespace
}  // namespace inferturbo
