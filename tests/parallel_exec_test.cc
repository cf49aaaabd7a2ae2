// The static-ownership scheduler's contracts: fixed task→thread
// mapping, the RangeBegin partition algebra, serial nested
// launches, exact task counts in ParallelForChunksFixed (even beyond
// the thread count), and barrier correctness under back-to-back
// launches (the tsan job runs this binary to vet the spin-then-park
// epoch protocol). An explicit StaticExecutor(4) makes the multi-thread
// paths real even on single-core hosts; the env override below sizes
// the Default() executor to 4 for the same reason, so the config-driven
// kernels exercise genuine cross-thread launches here regardless of the
// machine.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/parallel_exec.h"
#include "src/common/rng.h"
#include "src/tensor/kernels/kernel_config.h"
#include "src/tensor/kernels/kernels.h"
#include "src/tensor/kernels/reference.h"

namespace inferturbo {
namespace {

// Must run before the first StaticExecutor::Default() call in this
// process: a static initializer beats main(), and nothing touches the
// executor before then in a test binary.
const bool g_exec_env = [] {
  ::setenv("INFERTURBO_EXEC_THREADS", "4", /*overwrite=*/1);
  return true;
}();

TEST(RangePartition, BoundariesCoverEverythingExactlyOnce) {
  for (const std::int64_t n : {0, 1, 2, 7, 10, 16, 1000, 4097}) {
    for (const std::int64_t tasks : {1, 2, 3, 4, 7, 8, 16}) {
      if (tasks > n && n > 0) continue;
      std::int64_t covered = 0;
      for (std::int64_t t = 0; t < tasks; ++t) {
        const std::int64_t begin = kernels::RangeBegin(n, t, tasks);
        const std::int64_t end = kernels::RangeBegin(n, t + 1, tasks);
        ASSERT_LE(begin, end);
        covered += end - begin;
      }
      EXPECT_EQ(covered, n) << "n=" << n << " tasks=" << tasks;
      EXPECT_EQ(kernels::RangeBegin(n, 0, tasks), 0);
      EXPECT_EQ(kernels::RangeBegin(n, tasks, tasks), n);
    }
  }
}

TEST(StaticExecutorTest, RunsEveryTaskExactlyOnce) {
  StaticExecutor exec(4);
  EXPECT_EQ(exec.num_threads(), 4);
  for (const int tasks : {1, 2, 3, 4, 5, 9, 64}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(tasks));
    for (auto& h : hits) h.store(0);
    exec.RunTasks(tasks, [&](WorkerSlot&, int t) {
      hits[static_cast<std::size_t>(t)].fetch_add(1);
    });
    for (int t = 0; t < tasks; ++t) {
      EXPECT_EQ(hits[static_cast<std::size_t>(t)].load(), 1)
          << "task " << t << " of " << tasks;
    }
  }
}

TEST(StaticExecutorTest, TaskToThreadMapIsStatic) {
  StaticExecutor exec(4);
  constexpr int kTasks = 16;
  // Record the slot thread_id each task saw: task t must always land on
  // thread t mod 4, launch after launch.
  for (int round = 0; round < 8; ++round) {
    std::vector<int> thread_of_task(kTasks, -1);
    exec.RunTasks(kTasks, [&](WorkerSlot& slot, int t) {
      thread_of_task[static_cast<std::size_t>(t)] = slot.thread_id;
    });
    for (int t = 0; t < kTasks; ++t) {
      EXPECT_EQ(thread_of_task[static_cast<std::size_t>(t)], t % 4)
          << "task " << t << " round " << round;
    }
  }
}

TEST(StaticExecutorTest, BackToBackLaunchesKeepTheBarrierHonest) {
  // Rapid-fire launches with work of wildly different sizes: a worker
  // still in the previous epoch, or one double-running a task, breaks
  // the sum. (This is the stress body the tsan CI job leans on.)
  StaticExecutor exec(4);
  Rng rng(7);
  for (int round = 0; round < 500; ++round) {
    const int tasks =
        1 + static_cast<int>(rng.NextBounded(9));  // 1..9, above and below T
    std::atomic<std::int64_t> sum{0};
    exec.RunTasks(tasks, [&](WorkerSlot&, int t) {
      std::int64_t local = 0;
      for (int i = 0; i <= t; ++i) local += i + 1;
      sum.fetch_add(local);
    });
    std::int64_t want = 0;
    for (int t = 0; t < tasks; ++t) {
      for (int i = 0; i <= t; ++i) want += i + 1;
    }
    ASSERT_EQ(sum.load(), want) << "round " << round;
  }
}

TEST(StaticExecutorTest, NestedLaunchesRunInlineSerially) {
  StaticExecutor exec(4);
  std::atomic<int> inner_runs{0};
  std::atomic<bool> saw_worker_flag{false};
  exec.RunTasks(4, [&](WorkerSlot&, int) {
    EXPECT_TRUE(StaticExecutor::InWorker() || !saw_worker_flag.load());
    // A nested launch from inside a task must not deadlock and must run
    // all its tasks (inline, on this thread).
    StaticExecutor::Default().RunTasks(
        3, [&](WorkerSlot&, int) { inner_runs.fetch_add(1); });
    saw_worker_flag.store(true);
  });
  EXPECT_EQ(inner_runs.load(), 4 * 3);
}

TEST(StaticExecutorTest, WorkerSlotsAreDistinctAndPersistent) {
  StaticExecutor exec(4);
  // Each task writes a marker into its slot scratch; distinct threads
  // must see distinct slots, and scratch persists across launches.
  exec.RunTasks(4, [&](WorkerSlot& slot, int t) {
    slot.scratch.assign(1, static_cast<float>(t));
  });
  std::vector<float> seen(4, -1.0f);
  exec.RunTasks(4, [&](WorkerSlot& slot, int t) {
    ASSERT_EQ(slot.thread_id, t % 4);
    seen[static_cast<std::size_t>(t)] = slot.scratch.at(0);
  });
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], static_cast<float>(t));
  }
}

TEST(StaticExecutorTest, DefaultHonorsEnvOverride) {
  // The static initializer above set INFERTURBO_EXEC_THREADS=4 before
  // anything could instantiate the default executor.
  EXPECT_EQ(StaticExecutor::Default().num_threads(), 4);
}

class ChunkApiTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = kernels::GetKernelConfig(); }
  void TearDown() override { kernels::SetKernelConfig(saved_); }

  void UseThreads(int max_threads) {
    kernels::KernelConfig config;
    config.max_threads = max_threads;
    config.min_parallel_work = 1;
    kernels::SetKernelConfig(config);
  }

 private:
  kernels::KernelConfig saved_;
};

TEST_F(ChunkApiTest, FixedTaskCountIsHonoredBeyondThreads) {
  UseThreads(4);
  // 11 tasks on a 4-thread scheduler: every task index must still be
  // delivered exactly once with the exact partition boundaries —
  // owner-bucketed data built for 11 tasks depends on it.
  constexpr int kTasks = 11;
  constexpr std::int64_t kN = 103;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  std::vector<std::int64_t> begins(kTasks, -1), ends(kTasks, -1);
  kernels::ParallelForChunksFixed(
      kN, kTasks, [&](const kernels::RangeChunk& chunk) {
        hits[static_cast<std::size_t>(chunk.task)].fetch_add(1);
        begins[static_cast<std::size_t>(chunk.task)] = chunk.begin;
        ends[static_cast<std::size_t>(chunk.task)] = chunk.end;
        ASSERT_EQ(chunk.num_tasks, kTasks);
        ASSERT_NE(chunk.slot, nullptr);
      });
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_EQ(hits[static_cast<std::size_t>(t)].load(), 1);
    EXPECT_EQ(begins[static_cast<std::size_t>(t)],
              kernels::RangeBegin(kN, t, kTasks));
    EXPECT_EQ(ends[static_cast<std::size_t>(t)],
              kernels::RangeBegin(kN, t + 1, kTasks));
  }
}

TEST_F(ChunkApiTest, PlanNeverExceedsSchedulerThreads) {
  UseThreads(64);
  // Asking for 64 threads cannot plan more concurrency than the
  // executor has (4 here): excess tasks would serialize with pure
  // partitioning overhead.
  EXPECT_LE(kernels::PlanParallelTasks(1 << 20, 1 << 10),
            StaticExecutor::Default().num_threads());
  UseThreads(2);
  EXPECT_LE(kernels::PlanParallelTasks(1 << 20, 1 << 10), 2);
}

// With the Default() executor sized to 4 by the env override, the
// config-driven kernels genuinely fan out here even on a 1-core host.
// Bit-identity across thread counts is the contract that makes the
// scheduling knobs safe to flip in production.
TEST_F(ChunkApiTest, KernelsBitIdenticalAcrossThreadCounts) {
  Rng rng(11);
  const Tensor a = Tensor::RandomNormal(37, 29, 1.0f, &rng);
  const Tensor b = Tensor::RandomNormal(29, 41, 1.0f, &rng);
  const Tensor want_mm = kernels::reference::MatMul(a, b);

  const Tensor values = Tensor::RandomNormal(257, 9, 1.0f, &rng);
  std::vector<std::int64_t> ids(257);
  for (auto& id : ids) {
    id = static_cast<std::int64_t>(rng.NextBounded(31));
  }
  const Tensor want_seg = kernels::reference::SegmentSum(values, ids, 31);

  Tensor want_scatter(31, 9);
  std::span<const std::int64_t> ids_span(ids);
  {
    std::vector<std::int64_t> clipped(ids);
    kernels::reference::ScatterAddRows(&want_scatter, clipped, values);
  }

  for (const int threads : {1, 2, 3, 4}) {
    UseThreads(threads);
    const Tensor got_mm = kernels::MatMul(a, b);
    ASSERT_EQ(0, std::memcmp(want_mm.data(), got_mm.data(),
                             want_mm.ByteSize()))
        << "matmul threads=" << threads;
    const Tensor got_seg = kernels::SegmentSum(values, ids, 31);
    ASSERT_EQ(0, std::memcmp(want_seg.data(), got_seg.data(),
                             want_seg.ByteSize()))
        << "segment_sum threads=" << threads;
    Tensor got_scatter(31, 9);
    kernels::ScatterAddRows(&got_scatter, ids_span, values);
    ASSERT_EQ(0, std::memcmp(want_scatter.data(), got_scatter.data(),
                             want_scatter.ByteSize()))
        << "scatter_add threads=" << threads;
  }
}

}  // namespace
}  // namespace inferturbo
