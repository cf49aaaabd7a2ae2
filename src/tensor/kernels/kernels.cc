#include "src/tensor/kernels/kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <vector>

#include "src/common/logging.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/perf_counters.h"
#include "src/tensor/kernels/kernel_stats.h"
#include "src/tensor/kernels/matmul_tiles.h"
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
// packed block is capped so a panel (k × kPanelMaxCols floats) stays
// cache-resident in the owning thread's scratch.
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

// Shared C(m×n) = A(m×k)·B(k×n) body behind MatMul and
// MatMulTransposedA. One panel kernel per tier, two ways to cut it:
//  - rows: each task owns output rows and runs the deterministic panel
//    kernel over all of B unpacked (pw == ldc == n). Serial calls and
//    skinny-N shapes (not enough 16-column panels for the task count).
//  - columns: tasks own column ranges; each packs its B columns into
//    persistent per-thread scratch, so the streamed operand stays dense
//    and core-local. Bit-identical to the row cut (packing moves bytes,
//    every per-element chain is unchanged). The opt-in fast-math tier
//    always takes this cut, with FMA tiles instead of the
//    deterministic ones; it is tolerance-validated and never silently
//    selected.
void MatMulInto(const float* pa, const float* pb, float* pc, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  const bool fast = UsingFastMath();
  const std::int64_t groups = (n + kPanelQuantum - 1) / kPanelQuantum;
  const std::int64_t items = std::max(m, groups);
  const std::int64_t work_per_item = m * k * n / std::max<std::int64_t>(1,
                                                                        items);
  const int tasks = PlanParallelTasks(items, work_per_item);
  const PanelKernel kernel = fast ? detail::MatMulPanelFma
                                  : MatMulPanelKernel();

  if (!fast && (tasks <= 1 || tasks > groups)) {
    const int row_tasks = static_cast<int>(
        std::min<std::int64_t>(tasks, std::max<std::int64_t>(1, m)));
    ParallelForChunksFixed(m, row_tasks, [&](const RangeChunk& chunk) {
      if (chunk.begin < chunk.end) {
        kernel(pa + chunk.begin * k, pb, pc + chunk.begin * n,
               chunk.end - chunk.begin, k, n, /*c0=*/0, /*ldc=*/n);
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
      const std::size_t need = static_cast<std::size_t>(k * pw);
      if (scratch.size() < need) scratch.resize(need);
      PackPanel(pb, k, n, j0, pw, scratch.data());
      kernel(pa, scratch.data(), pc, m, k, pw, j0, n);
    }
  });
}

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
  // A^T·B = MatMul over a transposed copy of A. The tiled kernel folds
  // each element's products in the ascending-k order of the reference's
  // k-i-j loop, skipping zero entries wherever that changes a byte, so
  // results stay bit-identical while the hot loop gets the
  // register-tiled treatment (and the fast-math tier applies here too,
  // since the shared body does the dispatch).
  std::vector<float> at(static_cast<std::size_t>(m * k));
  TransposeInto(a.data(), k, m, at.data());
  Tensor c(m, n);
  if (c.empty()) return c;
  MatMulInto(at.data(), b.data(), c.data(), m, k, n);
  return c;
}

void PooledSegmentFold(detail::FoldOp op, bool mean, float* out,
                       std::int64_t width, std::int64_t num_segments,
                       std::span<const std::int64_t> segs,
                       std::span<const float* const> rows,
                       std::span<const std::int64_t> counts,
                       std::vector<std::int64_t>* folded_counts) {
  INFERTURBO_CHECK(rows.size() == segs.size() &&
                   (counts.empty() || counts.size() == segs.size()))
      << "gather has " << segs.size() << " segments for " << rows.size()
      << " rows and " << counts.size() << " counts";
  const std::int64_t n = static_cast<std::int64_t>(segs.size());
  const bool extremum = op != detail::FoldOp::kAdd;
  const bool finalize = mean || extremum;
  const int tasks = PlanParallelTasks(
      num_segments,
      std::max<std::int64_t>(
          width, n * width / std::max<std::int64_t>(1, num_segments)));
  // True folded message count per segment: a partial row carries more
  // than one original message, so this is NOT the row count. Built only
  // when something reads it: the finalize, the multi-task cut or the
  // caller.
  const bool counting = finalize || tasks > 1 || folded_counts != nullptr;
  std::vector<std::int64_t> folded(
      counting ? static_cast<std::size_t>(num_segments) : 0, 0);
  bool sorted = true;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const std::int64_t seg = segs[i];
    INFERTURBO_CHECK(0 <= seg && seg < num_segments)
        << "gather dst index " << seg << " out of [0," << num_segments << ")";
    if (counting) {
      folded[static_cast<std::size_t>(seg)] += counts.empty() ? 1 : counts[i];
    }
    sorted = sorted && (i == 0 || segs[i - 1] <= seg);
  }

  const detail::PtrRowFoldFn fold = detail::PtrRowFold(op);
  // Folds segments [s0, s1) from rows [r0, r1), which hold all of them.
  const auto fold_range = [&](std::int64_t s0, std::int64_t s1,
                              std::int64_t r0, std::int64_t r1) {
    fold(out, width, width, segs.data() + r0, rows.data() + r0, r1 - r0, s0,
         s1);
    if (!finalize) return;
    // Finalize the owned range: empty extremum rows flip their +-inf
    // init to the neutral zero; mean divides by the count.
    for (std::int64_t v = s0; v < s1; ++v) {
      float* acc = out + v * width;
      const std::int64_t count = folded[static_cast<std::size_t>(v)];
      if (count == 0) {
        if (extremum) std::fill(acc, acc + width, 0.0f);
      } else if (mean) {
        const float inv = 1.0f / static_cast<float>(count);
        for (std::int64_t j = 0; j < width; ++j) acc[j] *= inv;
      }
    }
  };
  if (tasks <= 1) {
    fold_range(0, num_segments, 0, n);
    if (folded_counts != nullptr) *folded_counts = std::move(folded);
    return;
  }
  // Each task owns whole segments, cut at even shares of the rows: a
  // hub's rows all fold in one task, in ascending row order. Without
  // partial counts the folded counts are the rows per segment.
  std::vector<std::int64_t> row_prefix(
      static_cast<std::size_t>(num_segments) + 1, 0);
  if (counts.empty()) {
    std::partial_sum(folded.begin(), folded.end(), row_prefix.begin() + 1);
  } else {
    for (const std::int64_t seg : segs) ++row_prefix[seg + 1];
    std::partial_sum(row_prefix.begin(), row_prefix.end(), row_prefix.begin());
  }
  ParallelForWeightedChunks(row_prefix, tasks, [&](const RangeChunk& chunk) {
    if (chunk.begin == chunk.end) return;
    // Sorted segments (a cone's in-edges) put a task's rows in one run;
    // otherwise it scans every row for its own.
    if (sorted) {
      fold_range(chunk.begin, chunk.end, row_prefix[chunk.begin],
                 row_prefix[chunk.end]);
    } else {
      fold_range(chunk.begin, chunk.end, 0, n);
    }
  });
  if (folded_counts != nullptr) *folded_counts = std::move(folded);
}

namespace {

/// Folds values' rows into out's rows ids[i] through PooledSegmentFold.
void FoldRowsInto(Tensor* out, const Tensor& values,
                  std::span<const std::int64_t> ids, detail::FoldOp op,
                  bool mean) {
  if (out->cols() == 0) return;
  // Reused per thread: a fresh 1 MiB pointer vector per call (131072
  // rows) measured about 1.2 ms of page faults, once freeing it beside
  // the output let the allocator return the pages.
  thread_local std::vector<const float*> rows;
  rows.resize(ids.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = values.RowPtr(static_cast<std::int64_t>(i));
  }
  PooledSegmentFold(op, mean, out->data(), out->cols(), out->rows(), ids,
                    rows);
}

}  // namespace

Tensor SegmentSum(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments) {
  PerfCounterScope profile("kernel.segment_sum");
  AccountKernel("segment_sum",
                SegmentFoldWork(static_cast<std::int64_t>(ids.size()),
                                values.cols()));
  Tensor out(num_segments, values.cols());
  FoldRowsInto(&out, values, ids, detail::FoldOp::kAdd, /*mean=*/false);
  return out;
}

Tensor SegmentMax(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments) {
  PerfCounterScope profile("kernel.segment_max");
  AccountKernel("segment_max",
                SegmentFoldWork(static_cast<std::int64_t>(ids.size()),
                                values.cols()));
  Tensor out = Tensor::Full(num_segments, values.cols(),
                            -std::numeric_limits<float>::infinity());
  FoldRowsInto(&out, values, ids, detail::FoldOp::kMax, /*mean=*/false);
  return out;
}

Tensor SegmentMin(const Tensor& values, std::span<const std::int64_t> ids,
                  std::int64_t num_segments) {
  PerfCounterScope profile("kernel.segment_min");
  AccountKernel("segment_min",
                SegmentFoldWork(static_cast<std::int64_t>(ids.size()),
                                values.cols()));
  Tensor out = Tensor::Full(num_segments, values.cols(),
                            std::numeric_limits<float>::infinity());
  FoldRowsInto(&out, values, ids, detail::FoldOp::kMin, /*mean=*/false);
  return out;
}

Tensor SegmentMean(const Tensor& values, std::span<const std::int64_t> ids,
                   std::int64_t num_segments) {
  const std::int64_t rows = static_cast<std::int64_t>(ids.size());
  PerfCounterScope profile("kernel.segment_mean");
  AccountKernel("segment_mean",
                SegmentMeanWork(rows, values.cols(), num_segments));
  // The mean's fold is a segment sum, counted as one too.
  AccountKernel("segment_sum", SegmentFoldWork(rows, values.cols()));
  Tensor out(num_segments, values.cols());
  FoldRowsInto(&out, values, ids, detail::FoldOp::kAdd, /*mean=*/true);
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
  FoldRowsInto(acc, rows, indices, detail::FoldOp::kAdd, /*mean=*/false);
}

}  // namespace kernels
}  // namespace inferturbo
