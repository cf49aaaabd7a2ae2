#include "src/tensor/kernels/kernel_config.h"

#include <algorithm>
#include <atomic>

#include "src/common/parallel_exec.h"
#include "src/common/thread_pool.h"

namespace inferturbo {
namespace kernels {
namespace {

std::atomic<int> g_max_threads{0};
std::atomic<std::int64_t> g_min_parallel_work{1 << 18};
std::atomic<bool> g_fast_math{false};

}  // namespace

KernelConfig GetKernelConfig() {
  KernelConfig config;
  config.max_threads = g_max_threads.load(std::memory_order_relaxed);
  config.min_parallel_work =
      g_min_parallel_work.load(std::memory_order_relaxed);
  config.fast_math = g_fast_math.load(std::memory_order_relaxed);
  return config;
}

void SetKernelConfig(const KernelConfig& config) {
  g_max_threads.store(config.max_threads, std::memory_order_relaxed);
  g_min_parallel_work.store(std::max<std::int64_t>(1,
                                                   config.min_parallel_work),
                            std::memory_order_relaxed);
  g_fast_math.store(config.fast_math, std::memory_order_relaxed);
}

int PlanParallelTasks(std::int64_t n, std::int64_t work_per_item) {
  if (n <= 0) return 1;
  // Nested launches run serially: a pool worker waiting on the pool
  // deadlocks, and an executor worker re-entering the barrier would
  // wait on itself.
  if (ThreadPool::InPoolWorker() || StaticExecutor::InWorker()) return 1;
  const KernelConfig config = GetKernelConfig();
  const std::int64_t scheduler_threads =
      StaticExecutor::Default().num_threads();
  // max_threads is an upper bound, never a way to plan more concurrency
  // than the scheduler has: tasks beyond the scheduler's threads cannot
  // run concurrently and would be pure partitioning overhead (asking
  // for 8 threads on a 1-core host must degrade to serial, not to 8
  // serialized chunks with worse locality).
  const std::int64_t thread_cap =
      config.max_threads > 0 ? std::min<std::int64_t>(config.max_threads,
                                                      scheduler_threads)
                             : scheduler_threads;
  const std::int64_t total_work = n * std::max<std::int64_t>(1, work_per_item);
  return static_cast<int>(std::max<std::int64_t>(
      1, std::min({thread_cap, n, total_work / config.min_parallel_work})));
}

void ParallelForChunksFixed(std::int64_t n, int tasks,
                            const std::function<void(const RangeChunk&)>& fn) {
  if (n <= 0) return;
  if (tasks <= 1) {
    RangeChunk chunk;
    chunk.begin = 0;
    chunk.end = n;
    chunk.slot = &StaticExecutor::SerialSlot();
    fn(chunk);
    return;
  }
  const std::int64_t tasks64 = tasks;
  StaticExecutor::Default().RunTasks(tasks, [&](WorkerSlot& slot, int t) {
    RangeChunk chunk;
    chunk.begin = RangeBegin(n, t, tasks64);
    chunk.end = RangeBegin(n, t + 1, tasks64);
    chunk.task = t;
    chunk.num_tasks = tasks;
    chunk.slot = &slot;
    fn(chunk);
  });
}

void ParallelForWeightedChunks(
    std::span<const std::int64_t> prefix, int tasks,
    const std::function<void(const RangeChunk&)>& fn) {
  const int chunks = std::max(1, tasks);
  ParallelForChunksFixed(chunks, chunks, [&](const RangeChunk& chunk) {
    RangeChunk owned = chunk;
    owned.begin = WeightedRangeBegin(prefix, chunk.task, chunk.num_tasks);
    owned.end = WeightedRangeBegin(prefix, chunk.task + 1, chunk.num_tasks);
    fn(owned);
  });
}

void ParallelForChunks(std::int64_t n, std::int64_t work_per_item,
                       const std::function<void(const RangeChunk&)>& fn) {
  ParallelForChunksFixed(n, PlanParallelTasks(n, work_per_item), fn);
}

void ParallelForRanges(
    std::int64_t n, std::int64_t work_per_item,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  ParallelForChunks(n, work_per_item, [&](const RangeChunk& chunk) {
    if (chunk.begin < chunk.end) fn(chunk.begin, chunk.end);
  });
}

}  // namespace kernels
}  // namespace inferturbo
