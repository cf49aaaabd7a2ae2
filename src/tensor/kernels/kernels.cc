#include "src/tensor/kernels/kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <vector>

#include "src/common/logging.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/perf_counters.h"
#include "src/tensor/kernels/kernel_stats.h"
#include "src/tensor/kernels/matmul_tiles.h"
#include "src/tensor/kernels/reference.h"
#include "src/tensor/kernels/row_fold.h"

namespace inferturbo {
namespace kernels {
namespace {

/// Per-op FLOP/byte/call accounting into the global registry
/// ("kernel.<op>.calls/.flops/.bytes"). Disabled cost is one relaxed
/// load + branch; the map lookup only runs when metrics are on, and
/// kernel calls are coarse (one per layer per superstep) relative to
/// the mutex cost. Composed ops (SegmentMean over SegmentSum) also
/// count their building blocks.
void AccountKernel(const char* op, const KernelWork& work) {
  if (!MetricsEnabled()) return;
  struct OpCounters {
    Counter* calls;
    Counter* flops;
    Counter* bytes;
  };
  static std::mutex* mu = new std::mutex();
  static auto* cache = new std::map<std::string, OpCounters, std::less<>>();
  OpCounters counters;
  {
    std::lock_guard<std::mutex> lock(*mu);
    auto it = cache->find(std::string_view(op));
    if (it == cache->end()) {
      const std::string base = std::string("kernel.") + op;
      it = cache
               ->emplace(std::string(op),
                         OpCounters{
                             GlobalMetrics().GetCounter(base + ".calls"),
                             GlobalMetrics().GetCounter(base + ".flops"),
                             GlobalMetrics().GetCounter(base + ".bytes"),
                         })
               .first;
    }
    counters = it->second;
  }
  counters.calls->Increment();
  counters.flops->Add(work.flops);
  counters.bytes->Add(work.bytes);
}

using RowKernel = void (*)(const float*, const float*, float*, std::int64_t,
                           std::int64_t, std::int64_t, std::int64_t);

RowKernel MatMulRowsKernel() {
  static const RowKernel kernel = detail::Avx2KernelsAvailable()
                                      ? detail::MatMulRowsAvx2
                                      : detail::MatMulRowsPortable;
  return kernel;
}

RowKernel MatMulTBRowsKernel() {
  static const RowKernel kernel = detail::Avx2KernelsAvailable()
                                      ? detail::MatMulTBRowsAvx2
                                      : detail::MatMulTBRowsPortable;
  return kernel;
}

using PanelKernel = void (*)(const float*, const float*, float*, std::int64_t,
                             std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t);

PanelKernel MatMulPanelKernel() {
  static const PanelKernel kernel = detail::Avx2KernelsAvailable()
                                        ? detail::MatMulPanelAvx2
                                        : detail::MatMulPanelPortable;
  return kernel;
}

// Panel partition geometry: column-chunk boundaries snap to the tile
// width so no task ever splits a 16-wide register tile, and each
// packed block is capped so a panel (k × kPanelMaxCols floats, half
// that as bf16) stays cache-resident in the owning thread's scratch.
constexpr std::int64_t kPanelQuantum = 16;
constexpr std::int64_t kPanelMaxCols = 128;

// Pack columns [j0, j0 + pw) of B(k×n) into a dense k×pw panel.
void PackPanel(const float* b, std::int64_t k, std::int64_t n, std::int64_t j0,
               std::int64_t pw, float* out) {
  const std::size_t bytes = static_cast<std::size_t>(pw) * sizeof(float);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    std::memcpy(out + kk * pw, b + kk * n + j0, bytes);
  }
}

// Shared C(m×n) = A(m×k)·B(k×n) body behind MatMul and the transposed
// variants. Three dispatch paths:
//  - deterministic rows: each task owns output rows. Serial calls and
//    skinny-N shapes (not enough 16-column panels for the task count).
//  - deterministic panels: tasks own column ranges; each packs its B
//    columns into persistent per-thread scratch, so the streamed
//    operand stays dense and core-local. Bit-identical to the row path
//    (packing moves bytes, every per-element chain is unchanged).
//  - fast-math panels: same geometry, FMA tiles (optionally bf16
//    storage). Opt-in, tolerance-validated, never silently selected.
void MatMulInto(const float* pa, const float* pb, float* pc, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  const KernelConfig config = GetKernelConfig();
  const bool fast = config.fast_math && detail::FastMathKernelsAvailable();
  const bool bf16 = fast && config.fast_math_bf16;
  const std::int64_t groups = (n + kPanelQuantum - 1) / kPanelQuantum;
  const std::int64_t items = std::max(m, groups);
  const std::int64_t work_per_item = m * k * n / std::max<std::int64_t>(1,
                                                                        items);
  const int tasks = PlanParallelTasks(items, work_per_item);

  if (!fast && (tasks <= 1 || tasks > groups)) {
    const RowKernel kernel = MatMulRowsKernel();
    const int row_tasks = static_cast<int>(
        std::min<std::int64_t>(tasks, std::max<std::int64_t>(1, m)));
    ParallelForChunksFixed(m, row_tasks, [&](const RangeChunk& chunk) {
      if (chunk.begin < chunk.end) {
        kernel(pa, pb, pc, chunk.begin, chunk.end, k, n);
      }
    });
    return;
  }

  const int panel_tasks = static_cast<int>(
      std::min<std::int64_t>(tasks, std::max<std::int64_t>(1, groups)));
  constexpr std::int64_t kGroupsPerBlock = kPanelMaxCols / kPanelQuantum;
  ParallelForChunksFixed(groups, panel_tasks, [&](const RangeChunk& chunk) {
    std::vector<float>& scratch = chunk.slot->scratch;
    for (std::int64_t g0 = chunk.begin; g0 < chunk.end;
         g0 += kGroupsPerBlock) {
      const std::int64_t g1 = std::min(chunk.end, g0 + kGroupsPerBlock);
      const std::int64_t j0 = g0 * kPanelQuantum;
      const std::int64_t j1 = std::min(n, g1 * kPanelQuantum);
      const std::int64_t pw = j1 - j0;
      if (pw <= 0) continue;
      if (bf16) {
        // bf16 panels live in the same float scratch, two values per
        // slot.
        const std::size_t need = static_cast<std::size_t>(k * pw + 1) / 2;
        if (scratch.size() < need) scratch.resize(need);
        std::uint16_t* packed =
            reinterpret_cast<std::uint16_t*>(scratch.data());
        detail::PackPanelBf16(pb, k, n, j0, pw, packed);
        detail::MatMulPanelBf16Fma(pa, packed, pc, m, k, pw, j0, n);
        continue;
      }
      const std::size_t need = static_cast<std::size_t>(k * pw);
      if (scratch.size() < need) scratch.resize(need);
      PackPanel(pb, k, n, j0, pw, scratch.data());
      if (fast) {
        detail::MatMulPanelFma(pa, scratch.data(), pc, m, k, pw, j0, n);
      } else {
        MatMulPanelKernel()(pa, scratch.data(), pc, m, k, pw, j0, n);
      }
    }
  });
}

// Below this many multiply-adds the transpose-and-tile path for
// MatMulTransposedA costs more in allocation than it saves.
constexpr std::int64_t kTransposeAMinMulAdds = 1 << 15;

// Cache-blocked out-of-place transpose: (rows×cols) -> (cols×rows).
void TransposeInto(const float* __restrict__ src, std::int64_t rows,
                   std::int64_t cols, float* __restrict__ dst) {
  constexpr std::int64_t kBlock = 32;
  for (std::int64_t r0 = 0; r0 < rows; r0 += kBlock) {
    const std::int64_t r1 = std::min(rows, r0 + kBlock);
    for (std::int64_t c0 = 0; c0 < cols; c0 += kBlock) {
      const std::int64_t c1 = std::min(cols, c0 + kBlock);
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = c0; c < c1; ++c) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
}

}  // namespace

bool UsingAvx2() { return detail::Avx2KernelsAvailable(); }

bool UsingFastMath() {
  return GetKernelConfig().fast_math && detail::FastMathKernelsAvailable();
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  PerfCounterScope profile("kernel.matmul");
  AccountKernel("matmul", MatMulWork(m, k, n));
  Tensor c(m, n);
  if (c.empty()) return c;
  MatMulInto(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.rows(), k = a.cols(), n = b.rows();
  PerfCounterScope profile("kernel.matmul_tb");
  AccountKernel("matmul_tb", MatMulWork(m, k, n));
  Tensor c(m, n);
  if (c.empty()) return c;
  const RowKernel kernel = MatMulTBRowsKernel();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  ParallelForRanges(m, k * n, [&](std::int64_t r0, std::int64_t r1) {
    kernel(pa, pb, pc, r0, r1, k, n);
  });
  return c;
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  const std::int64_t k = a.rows(), m = a.cols(), n = b.cols();
  PerfCounterScope profile("kernel.matmul_ta");
  AccountKernel("matmul_ta", MatMulWork(m, k, n));
  if (m * k * n < kTransposeAMinMulAdds && !UsingFastMath()) {
    return reference::MatMulTransposedA(a, b);
  }
  // A^T·B = MatMul over a transposed copy of A. The tiled kernel skips
  // the same zero entries in the same ascending-k order the reference's
  // k-i-j loop does, so results stay bit-identical while the hot loop
  // gets the register-tiled treatment (and the fast-math tier applies
  // here too, since the shared body does the dispatch).
  std::vector<float> at(static_cast<std::size_t>(m * k));
  TransposeInto(a.data(), k, m, at.data());
  Tensor c(m, n);
  if (c.empty()) return c;
  MatMulInto(at.data(), b.data(), c.data(), m, k, n);
  return c;
}

namespace {

/// Owner buckets for destination-scattered rows: row indices grouped
/// by the task that owns their destination under the RangeBegin
/// partition, input order preserved within each task (the counting
/// sort is stable). One serial O(rows) pass replaces the old
/// scan-all-rows-and-filter scheme, whose id-scan traffic and branchy
/// filter grew linearly with the task count — the reason segment ops
/// used to get SLOWER with more threads.
struct OwnerBuckets {
  std::vector<std::int64_t> offsets;  // tasks + 1
  std::vector<std::int64_t> rows;     // grouped by owner, input order kept
};

OwnerBuckets BucketRowsByOwner(const std::int64_t* ids, std::int64_t rows,
                               std::int64_t num_dst, int tasks) {
  OwnerBuckets buckets;
  buckets.offsets.assign(static_cast<std::size_t>(tasks) + 1, 0);
  for (std::int64_t i = 0; i < rows; ++i) {
    ++buckets.offsets[static_cast<std::size_t>(
        RangeOwner(ids[i], num_dst, tasks)) + 1];
  }
  for (int t = 0; t < tasks; ++t) {
    buckets.offsets[static_cast<std::size_t>(t) + 1] +=
        buckets.offsets[static_cast<std::size_t>(t)];
  }
  buckets.rows.resize(static_cast<std::size_t>(rows));
  std::vector<std::int64_t> cursor(buckets.offsets.begin(),
                                   buckets.offsets.end() - 1);
  for (std::int64_t i = 0; i < rows; ++i) {
    buckets.rows[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(
            RangeOwner(ids[i], num_dst, tasks))]++)] = i;
  }
  return buckets;
}

/// Shared body of the segment folds: destination-range ownership over
/// segments; each task folds only its pre-bucketed rows, in input
/// order. Accumulation order per segment matches the serial reference
/// exactly at any task count (each segment is owned by one task, and
/// that task sees its rows in the original order).
void SegmentFoldInto(Tensor* out, const Tensor& values,
                     std::span<const std::int64_t> ids,
                     std::int64_t num_segments, detail::RowFoldFn fold) {
  const std::int64_t cols = values.cols();
  const float* pv = values.data();
  float* po = out->data();
  const std::int64_t* pid = ids.data();
  const std::int64_t rows = static_cast<std::int64_t>(ids.size());
  const std::int64_t work_per_segment =
      rows * cols / std::max<std::int64_t>(1, num_segments);
  const int tasks = PlanParallelTasks(num_segments, work_per_segment);
  if (tasks <= 1) {
    // One task: the reference loop, unfiltered and unbucketed.
    for (std::int64_t i = 0; i < rows; ++i) {
      fold(po + pid[i] * cols, pv + i * cols, cols);
    }
    return;
  }
  const OwnerBuckets buckets =
      BucketRowsByOwner(pid, rows, num_segments, tasks);
  ParallelForChunksFixed(num_segments, tasks, [&](const RangeChunk& chunk) {
    const std::int64_t lo =
        buckets.offsets[static_cast<std::size_t>(chunk.task)];
    const std::int64_t hi =
        buckets.offsets[static_cast<std::size_t>(chunk.task) + 1];
    for (std::int64_t p = lo; p < hi; ++p) {
      const std::int64_t i = buckets.rows[static_cast<std::size_t>(p)];
      fold(po + pid[i] * cols, pv + i * cols, cols);
    }
  });
}

/// Max/min share everything but the init value and the fold.
Tensor SegmentExtremum(const Tensor& values, std::span<const std::int64_t> ids,
                       std::int64_t num_segments, float init,
                       detail::RowFoldFn fold) {
  const std::int64_t cols = values.cols();
  Tensor out = Tensor::Full(num_segments, cols, init);
  if (cols == 0) return out;
  if (ids.empty()) return Tensor(num_segments, cols);  // all segments empty
  SegmentFoldInto(&out, values, ids, num_segments, fold);
  // Empty segments report zero rather than +-inf so downstream layers
  // see a neutral "no messages" value.
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_segments), 0);
  for (std::int64_t id : ids) ++counts[static_cast<std::size_t>(id)];
  float* po = out.data();
  ParallelForRanges(num_segments, cols, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t s = s0; s < s1; ++s) {
      if (counts[static_cast<std::size_t>(s)] != 0) continue;
      float* row = po + s * cols;
      std::fill(row, row + cols, 0.0f);
    }
  });
  return out;
}

}  // namespace

Tensor SegmentSum(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments) {
  const std::int64_t cols = values.cols();
  PerfCounterScope profile("kernel.segment_sum");
  AccountKernel("segment_sum",
                SegmentFoldWork(static_cast<std::int64_t>(ids.size()), cols));
  Tensor out(num_segments, cols);
  if (ids.empty() || cols == 0) return out;
  SegmentFoldInto(&out, values, ids, num_segments, detail::RowAdd());
  return out;
}

Tensor SegmentMax(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments) {
  PerfCounterScope profile("kernel.segment_max");
  AccountKernel("segment_max",
                SegmentFoldWork(static_cast<std::int64_t>(ids.size()),
                                values.cols()));
  return SegmentExtremum(values, ids, num_segments,
                         -std::numeric_limits<float>::infinity(),
                         detail::RowMax());
}

Tensor SegmentMin(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments) {
  PerfCounterScope profile("kernel.segment_min");
  AccountKernel("segment_min",
                SegmentFoldWork(static_cast<std::int64_t>(ids.size()),
                                values.cols()));
  return SegmentExtremum(values, ids, num_segments,
                         std::numeric_limits<float>::infinity(),
                         detail::RowMin());
}

Tensor SegmentMean(const Tensor& values, std::span<const std::int64_t> ids,
                   std::int64_t num_segments) {
  PerfCounterScope profile("kernel.segment_mean");
  AccountKernel("segment_mean",
                SegmentMeanWork(static_cast<std::int64_t>(ids.size()),
                                values.cols(), num_segments));
  Tensor out = SegmentSum(values, ids, num_segments);
  if (num_segments == 0) return out;
  std::vector<std::int64_t> counts(static_cast<std::size_t>(num_segments), 0);
  for (std::int64_t id : ids) ++counts[static_cast<std::size_t>(id)];
  const std::int64_t cols = out.cols();
  float* po = out.data();
  ParallelForRanges(num_segments, cols,
                    [&](std::int64_t s0, std::int64_t s1) {
                      for (std::int64_t s = s0; s < s1; ++s) {
                        const std::int64_t count =
                            counts[static_cast<std::size_t>(s)];
                        if (count == 0) continue;
                        const float inv = 1.0f / static_cast<float>(count);
                        float* row = po + s * cols;
                        for (std::int64_t j = 0; j < cols; ++j) row[j] *= inv;
                      }
                    });
  return out;
}

Tensor GatherRows(const Tensor& a, std::span<const std::int64_t> indices) {
  const std::int64_t out_rows = static_cast<std::int64_t>(indices.size());
  const std::int64_t cols = a.cols();
  PerfCounterScope profile("kernel.gather_rows");
  AccountKernel("gather_rows", GatherWork(out_rows, cols));
  for (std::int64_t idx : indices) {
    INFERTURBO_CHECK(0 <= idx && idx < a.rows())
        << "GatherRows index " << idx << " out of " << a.rows();
  }
  Tensor c(out_rows, cols);
  if (c.empty()) return c;
  const float* pa = a.data();
  float* pc = c.data();
  const std::int64_t* pid = indices.data();
  const std::size_t row_bytes = static_cast<std::size_t>(cols) * sizeof(float);
  ParallelForRanges(out_rows, cols, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t i = r0; i < r1; ++i) {
      std::memcpy(pc + i * cols, pa + pid[i] * cols, row_bytes);
    }
  });
  return c;
}

void ScatterAddRows(Tensor* acc, std::span<const std::int64_t> indices,
                    const Tensor& rows) {
  PerfCounterScope profile("kernel.scatter_add_rows");
  AccountKernel("scatter_add_rows",
                ScatterAddWork(static_cast<std::int64_t>(indices.size()),
                               rows.cols()));
  for (std::int64_t idx : indices) {
    INFERTURBO_CHECK(0 <= idx && idx < acc->rows())
        << "ScatterAddRows index " << idx << " out of " << acc->rows();
  }
  if (indices.empty() || rows.cols() == 0) return;
  SegmentFoldInto(acc, rows, indices, acc->rows(), detail::RowAdd());
}

}  // namespace kernels
}  // namespace inferturbo
