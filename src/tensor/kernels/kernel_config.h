#ifndef INFERTURBO_TENSOR_KERNELS_KERNEL_CONFIG_H_
#define INFERTURBO_TENSOR_KERNELS_KERNEL_CONFIG_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>

#include "src/common/parallel_exec.h"

namespace inferturbo {
namespace kernels {

/// Process-wide tuning knobs for the fast kernel layer. Thread fan-out
/// never changes results — every output row is owned by exactly one
/// task in a fixed contiguous partition — so the scheduling knobs only
/// trade latency against dispatch overhead. The fast-math knob is the
/// one exception and is opt-in: it selects a separate kernel tier
/// that trades bit-identity with the scalar oracle for throughput
/// (documented tolerance, see fast_math_test).
struct KernelConfig {
  /// Upper bound on tasks per kernel launch; 0 means the static
  /// executor's thread count.
  int max_threads = 0;
  /// Minimum work (multiply-adds or copied floats) a task must carry
  /// before a kernel fans out; below this everything runs on the
  /// calling thread.
  std::int64_t min_parallel_work = 1 << 18;
  /// Opt-in fast-math tier for the matmuls: FMA contraction and
  /// relaxed accumulation order, validated against the scalar oracle
  /// at a documented tolerance instead of bit-identity. Never on by
  /// default; ignored when the CPU lacks FMA.
  bool fast_math = false;
};

KernelConfig GetKernelConfig();
void SetKernelConfig(const KernelConfig& config);

/// One contiguous chunk of a fixed partition of [0, n): indices
/// [begin, end), owned exclusively by task `task` of `num_tasks`.
/// `slot` is the executing thread's persistent slot (scratch reuse);
/// ownership decisions must use (task, num_tasks) only — the
/// determinism contract.
struct RangeChunk {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  int task = 0;
  int num_tasks = 1;
  WorkerSlot* slot = nullptr;
};

/// The partition boundary formula every parallel kernel shares: chunk
/// t of `tasks` owns [RangeBegin(n, t, tasks), RangeBegin(n, t+1,
/// tasks)). Depends only on (n, t, tasks) — never on scheduling.
inline std::int64_t RangeBegin(std::int64_t n, std::int64_t t,
                               std::int64_t tasks) {
  return n * t / tasks;
}

/// The balanced cut rule: items [0, n) whose weights (rows, in-edges)
/// prefix-sum to `prefix` (n + 1 entries, prefix[0] == 0,
/// nondecreasing). Chunk t of `tasks` owns whole items
/// [WeightedRangeBegin(prefix, t, tasks),
///  WeightedRangeBegin(prefix, t + 1, tasks)): each cut falls at the
/// first item whose prefix reaches the chunk's even share of the total,
/// and the last chunk ends at n. Depends only on (prefix, t, tasks).
inline std::int64_t WeightedRangeBegin(std::span<const std::int64_t> prefix,
                                       std::int64_t t, std::int64_t tasks) {
  const std::int64_t n = static_cast<std::int64_t>(prefix.size()) - 1;
  if (t >= tasks) return n;
  return std::lower_bound(prefix.begin(), prefix.end(),
                          RangeBegin(prefix.back(), t, tasks)) -
         prefix.begin();
}

/// How many tasks a kernel launch over `n` items of `work_per_item`
/// cost would fan out to under the current config (1 when the caller
/// is already a pool/executor worker — nested launches run serially).
/// Kernels that size per-task state or cuts by the task count call
/// this and then launch that exact count (ParallelForChunksFixed or
/// ParallelForWeightedChunks), so the plan and the execution can never
/// disagree.
int PlanParallelTasks(std::int64_t n, std::int64_t work_per_item);

/// Runs `fn(begin, end)` over a fixed contiguous partition of [0, n).
/// Partition boundaries depend only on (n, task count), never on
/// scheduling, and each index belongs to exactly one call — the
/// determinism contract every parallel kernel builds on. Runs serially
/// when the work is too small or the caller is already a pool or
/// executor worker (nested waits would deadlock).
void ParallelForRanges(
    std::int64_t n, std::int64_t work_per_item,
    const std::function<void(std::int64_t, std::int64_t)>& fn);

/// As ParallelForRanges, but hands each task its RangeChunk (task
/// index + per-thread slot) for owner-indexed state and scratch reuse.
void ParallelForChunks(std::int64_t n, std::int64_t work_per_item,
                       const std::function<void(const RangeChunk&)>& fn);

/// ParallelForChunks at an exact task count (from PlanParallelTasks):
/// runs precisely `tasks` chunks even when that exceeds the scheduler's
/// threads, so per-task state sized for `tasks` stays valid.
void ParallelForChunksFixed(std::int64_t n, int tasks,
                            const std::function<void(const RangeChunk&)>& fn);

/// ParallelForChunksFixed with WeightedRangeBegin's cuts: exactly
/// `tasks` chunks over the prefix.size() - 1 items, each a run of
/// whole items of about equal weight (a chunk may be empty).
void ParallelForWeightedChunks(
    std::span<const std::int64_t> prefix, int tasks,
    const std::function<void(const RangeChunk&)>& fn);

}  // namespace kernels
}  // namespace inferturbo

#endif  // INFERTURBO_TENSOR_KERNELS_KERNEL_CONFIG_H_
