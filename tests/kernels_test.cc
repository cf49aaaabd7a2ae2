// The kernel layer's bit-identity contract: every fast kernel must
// reproduce its scalar reference exactly — same bytes, not just within
// tolerance — at any thread count, over shapes that exercise every
// tile lane (full 4×16 and 6×16 tiles, column tails, narrow panels,
// row tails, empty, 1-row, 1-col) and the skip-on-zero path, including
// a zero A column over an infinite B row or a single NaN or Inf. The
// crash-sweep and cross-backend equivalence suites build on this
// guarantee.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/tensor/kernels/kernel_config.h"
#include "src/tensor/kernels/kernels.h"
#include "src/tensor/kernels/matmul_tiles.h"
#include "src/tensor/kernels/reference.h"

namespace inferturbo {
namespace {

// Must run before the first StaticExecutor::Default() call in this
// process, so a 1-core host still splits the multi-thread settings
// into several tasks.
const bool g_exec_env = [] {
  ::setenv("INFERTURBO_EXEC_THREADS", "4", /*overwrite=*/1);
  return true;
}();

bool BitIdentical(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data(), b.data(), a.ByteSize()) == 0;
}

// Random matrix with exact +0.0/-0.0 entries sprinkled in so the
// skip-on-zero lanes and signed-zero accumulation actually run.
Tensor RandomWithZeros(std::int64_t rows, std::int64_t cols, Rng* rng) {
  Tensor t = Tensor::RandomNormal(rows, cols, 1.0f, rng);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const std::uint64_t roll = rng->NextBounded(10);
      if (roll == 0) t.At(r, c) = 0.0f;
      if (roll == 1) t.At(r, c) = -0.0f;
    }
  }
  return t;
}

// Where a NaN or ±Inf in B meets ±0 A entries. Every A entry at k
// index z = k/2 is ±0, and B holds at row z:
//  - kInfRow: ±Inf in every column;
//  - kNanInTile: one NaN at column min(21, n - 1), inside a full
//    16-column tile whenever n >= 32 or n == 16;
//  - kInfInTail: one +Inf at the first column of the sub-16 tail (the
//    last column when n is a multiple of 16).
// The reference skips zero A entries, so its output stays finite; a
// kernel that multiplies them, or misses the one non-finite value when
// deciding whether it must skip, yields NaN there. A is (m×k), or (k×m)
// when `a_is_k_by_m` (MatMulTransposedA's operand); B is (k×n) either
// way.
enum class Trap { kNone, kInfRow, kNanInTile, kInfInTail };

const Trap kTraps[] = {Trap::kNone, Trap::kInfRow, Trap::kNanInTile,
                       Trap::kInfInTail};

void PlantTrap(Trap trap, Tensor* a, bool a_is_k_by_m, Tensor* b) {
  const std::int64_t k = b->rows(), n = b->cols();
  if (trap == Trap::kNone || k == 0 || n == 0) return;
  const std::int64_t z = k / 2;
  const std::int64_t m = a_is_k_by_m ? a->cols() : a->rows();
  for (std::int64_t i = 0; i < m; ++i) {
    (a_is_k_by_m ? a->At(z, i) : a->At(i, z)) = i % 2 == 0 ? 0.0f : -0.0f;
  }
  const float inf = std::numeric_limits<float>::infinity();
  switch (trap) {
    case Trap::kInfRow:
      for (std::int64_t j = 0; j < n; ++j) {
        b->At(z, j) = j % 2 == 0 ? inf : -inf;
      }
      break;
    case Trap::kNanInTile:
      b->At(z, std::min<std::int64_t>(21, n - 1)) =
          std::numeric_limits<float>::quiet_NaN();
      break;
    case Trap::kInfInTail:
      b->At(z, n % 16 == 0 ? n - 1 : n - n % 16) = inf;
      break;
    case Trap::kNone:
      break;
  }
}

bool AllFinite(const Tensor& t) {
  return std::all_of(t.data(), t.data() + t.size(),
                     [](float v) { return std::isfinite(v); });
}

// Thread settings every kernel is checked under. max_threads=1 pins
// the serial path; the larger settings force multi-task partitions
// even on tiny shapes (min_parallel_work=1) and oversubscribe the
// pool, which must not change a single bit.
struct ThreadSetting {
  int max_threads;
  std::int64_t min_parallel_work;
};

const ThreadSetting kThreadSettings[] = {{1, 1 << 18}, {2, 1}, {5, 1}};

class KernelsTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = kernels::GetKernelConfig(); }
  void TearDown() override { kernels::SetKernelConfig(saved_); }

  void Use(const ThreadSetting& setting) {
    kernels::KernelConfig config;
    config.max_threads = setting.max_threads;
    config.min_parallel_work = setting.min_parallel_work;
    kernels::SetKernelConfig(config);
  }

 private:
  kernels::KernelConfig saved_;
};

struct MatMulShape {
  std::int64_t m, k, n;
};

// Full tiles, tails in every dimension, degenerate and empty shapes.
const MatMulShape kMatMulShapes[] = {
    {0, 0, 0}, {0, 4, 4},   {4, 0, 4},   {4, 4, 0},    {1, 1, 1},
    {1, 7, 1}, {2, 3, 4},   {4, 16, 16}, {5, 17, 23},  {7, 1, 9},
    {3, 9, 8}, {16, 8, 33}, {33, 29, 47}, {64, 64, 64}, {12, 40, 17},
};

TEST_F(KernelsTest, MatMulBitIdenticalAtEveryThreadCount) {
  Rng rng(101);
  for (const MatMulShape& shape : kMatMulShapes) {
    const Tensor a0 = RandomWithZeros(shape.m, shape.k, &rng);
    const Tensor b0 = RandomWithZeros(shape.k, shape.n, &rng);
    for (const Trap trap : kTraps) {
      Tensor a = a0, b = b0;
      PlantTrap(trap, &a, /*a_is_k_by_m=*/false, &b);
      const Tensor want = kernels::reference::MatMul(a, b);
      ASSERT_TRUE(AllFinite(want));
      for (const ThreadSetting& setting : kThreadSettings) {
        Use(setting);
        const Tensor got = kernels::MatMul(a, b);
        EXPECT_TRUE(BitIdentical(want, got))
            << shape.m << "x" << shape.k << "x" << shape.n << " trap "
            << static_cast<int>(trap) << " at " << setting.max_threads
            << " threads";
      }
    }
  }
}

TEST_F(KernelsTest, MatMulTransposedBBitIdenticalAtEveryThreadCount) {
  Rng rng(102);
  for (const MatMulShape& shape : kMatMulShapes) {
    const Tensor a = RandomWithZeros(shape.m, shape.k, &rng);
    const Tensor b = RandomWithZeros(shape.n, shape.k, &rng);
    const Tensor want = kernels::reference::MatMulTransposedB(a, b);
    for (const ThreadSetting& setting : kThreadSettings) {
      Use(setting);
      const Tensor got = kernels::MatMulTransposedB(a, b);
      EXPECT_TRUE(BitIdentical(want, got))
          << shape.m << "x" << shape.k << "x" << shape.n << " at "
          << setting.max_threads << " threads";
    }
  }
}

TEST_F(KernelsTest, MatMulTransposedABitIdenticalAtEveryThreadCount) {
  Rng rng(103);
  for (const MatMulShape& shape : kMatMulShapes) {
    // A is (k×m) here; C = A^T·B is (m×n).
    const Tensor a0 = RandomWithZeros(shape.k, shape.m, &rng);
    const Tensor b0 = RandomWithZeros(shape.k, shape.n, &rng);
    for (const Trap trap : kTraps) {
      Tensor a = a0, b = b0;
      PlantTrap(trap, &a, /*a_is_k_by_m=*/true, &b);
      const Tensor want = kernels::reference::MatMulTransposedA(a, b);
      ASSERT_TRUE(AllFinite(want));
      for (const ThreadSetting& setting : kThreadSettings) {
        Use(setting);
        const Tensor got = kernels::MatMulTransposedA(a, b);
        EXPECT_TRUE(BitIdentical(want, got))
            << shape.m << "x" << shape.k << "x" << shape.n << " trap "
            << static_cast<int>(trap) << " at " << setting.max_threads
            << " threads";
      }
    }
  }
}

TEST_F(KernelsTest, MatMulRandomizedShapesSweep) {
  Rng rng(104);
  for (int trial = 0; trial < 25; ++trial) {
    const std::int64_t m = static_cast<std::int64_t>(rng.NextBounded(70));
    const std::int64_t k = static_cast<std::int64_t>(rng.NextBounded(70));
    const std::int64_t n = static_cast<std::int64_t>(rng.NextBounded(70));
    const Tensor a = RandomWithZeros(m, k, &rng);
    const Tensor b = RandomWithZeros(k, n, &rng);
    const Tensor want = kernels::reference::MatMul(a, b);
    for (const ThreadSetting& setting : kThreadSettings) {
      Use(setting);
      EXPECT_TRUE(BitIdentical(want, kernels::MatMul(a, b)))
          << "trial " << trial << ": " << m << "x" << k << "x" << n << " at "
          << setting.max_threads << " threads";
    }
  }
}

// Each ISA's deterministic panel kernel, called directly: MatMul never
// reaches the portable body on an AVX2 host. Every way MatMulInto cuts
// it must reproduce the reference's bytes and touch nothing else: a row
// window that starts off the 4- and 6-row tile grids over unpacked B
// (pw == ldc == n), a packed sub-panel written at column offset c0 > 0
// with a column tail, and a narrow packed panel (pw = 8, as an 8-class
// head's weights). One A row is all ±0, so its output row must read +0
// whether the kernel skips or multiplies its entries.
TEST(KernelsPanelTest, EachIsaPanelKernelMatchesTheReference) {
  using PanelFn = void (*)(const float*, const float*, float*, std::int64_t,
                           std::int64_t, std::int64_t, std::int64_t,
                           std::int64_t);
  std::vector<PanelFn> variants = {kernels::detail::MatMulPanelPortable};
  if (kernels::detail::Avx2KernelsAvailable()) {
    variants.push_back(kernels::detail::MatMulPanelAvx2);
  }
  Rng rng(105);
  for (const MatMulShape& shape :
       {MatMulShape{29, 19, 37}, MatMulShape{40, 64, 70}}) {
    const std::int64_t m = shape.m, k = shape.k, n = shape.n;
    const std::int64_t r0 = 5, r1 = m - 2, j0 = 16;
    Tensor a0 = RandomWithZeros(m, k, &rng);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      a0.At(r0 + 1, kk) = kk % 2 == 0 ? 0.0f : -0.0f;
    }
    const Tensor b0 = RandomWithZeros(k, n, &rng);
    for (const Trap trap : kTraps) {
      Tensor a = a0, b = b0;
      PlantTrap(trap, &a, /*a_is_k_by_m=*/false, &b);
      const Tensor full = kernels::reference::MatMul(a, b);
      ASSERT_TRUE(AllFinite(full));

      Tensor want_rows(m, n);
      for (std::int64_t i = r0; i < r1; ++i) {
        want_rows.SetRow(i, full.RowPtr(i));
      }
      for (std::size_t v = 0; v < variants.size(); ++v) {
        Tensor rows(m, n);
        variants[v](a.RowPtr(r0), b.data(), rows.RowPtr(r0), r1 - r0, k, n,
                    /*c0=*/0, /*ldc=*/n);
        EXPECT_TRUE(BitIdentical(want_rows, rows))
            << "variant " << v << " trap " << static_cast<int>(trap)
            << " rows [" << r0 << ", " << r1 << ") of " << m << "x" << k
            << "x" << n;
      }

      for (const std::int64_t pw : {n - j0 - 3, std::int64_t{8}}) {
        std::vector<float> panel(static_cast<std::size_t>(k * pw));
        for (std::int64_t kk = 0; kk < k; ++kk) {
          for (std::int64_t j = 0; j < pw; ++j) {
            panel[static_cast<std::size_t>(kk * pw + j)] = b.At(kk, j0 + j);
          }
        }
        Tensor want_cols(m, n);
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = j0; j < j0 + pw; ++j) {
            want_cols.At(i, j) = full.At(i, j);
          }
        }
        for (std::size_t v = 0; v < variants.size(); ++v) {
          Tensor cols(m, n);
          variants[v](a.data(), panel.data(), cols.data(), m, k, pw, j0,
                      /*ldc=*/n);
          EXPECT_TRUE(BitIdentical(want_cols, cols))
              << "variant " << v << " trap " << static_cast<int>(trap)
              << " columns [" << j0 << ", " << j0 + pw << ") of " << m << "x"
              << k << "x" << n;
        }
      }
    }
  }
}

struct SegmentShape {
  std::int64_t rows, cols, segments;
};

const SegmentShape kSegmentShapes[] = {
    {0, 4, 3},  {1, 1, 1},   {5, 0, 4},    {7, 3, 1},
    {16, 8, 5}, {64, 32, 9}, {200, 17, 64}, {33, 1, 200},
};

// How segment ids are drawn. Uniform ids are unsorted, so a multi-task
// fold takes the filtered scan; ids sorted by destination take the
// one-run-per-task branch; a hub segment holding over half the rows
// puts one heavy segment between the row-share cuts.
enum class IdDraw { kUniform, kSorted, kHub };

const IdDraw kIdDraws[] = {IdDraw::kUniform, IdDraw::kSorted, IdDraw::kHub};

std::vector<std::int64_t> RandomIds(std::int64_t rows,
                                    std::int64_t num_segments, IdDraw draw,
                                    Rng* rng) {
  std::vector<std::int64_t> ids(static_cast<std::size_t>(rows));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    // Sampling from the full range leaves some segments empty on
    // purpose — empty segments must stay exactly zero.
    ids[i] = static_cast<std::int64_t>(
        rng->NextBounded(static_cast<std::uint64_t>(num_segments)));
    // Two rows in three go to the middle segment.
    if (draw == IdDraw::kHub && i % 3 != 0) ids[i] = num_segments / 2;
  }
  if (draw == IdDraw::kSorted) std::sort(ids.begin(), ids.end());
  return ids;
}

TEST_F(KernelsTest, SegmentSumAndMeanBitIdenticalAtEveryThreadCount) {
  Rng rng(105);
  for (const SegmentShape& shape : kSegmentShapes) {
    for (const IdDraw draw : kIdDraws) {
      const Tensor values = RandomWithZeros(shape.rows, shape.cols, &rng);
      const std::vector<std::int64_t> ids =
          RandomIds(shape.rows, shape.segments, draw, &rng);
      const Tensor want_sum =
          kernels::reference::SegmentSum(values, ids, shape.segments);
      const Tensor want_mean =
          kernels::reference::SegmentMean(values, ids, shape.segments);
      for (const ThreadSetting& setting : kThreadSettings) {
        Use(setting);
        EXPECT_TRUE(BitIdentical(
            want_sum, kernels::SegmentSum(values, ids, shape.segments)))
            << shape.rows << "x" << shape.cols << " into " << shape.segments
            << " segments, draw " << static_cast<int>(draw) << ", at "
            << setting.max_threads << " threads";
        EXPECT_TRUE(BitIdentical(
            want_mean, kernels::SegmentMean(values, ids, shape.segments)))
            << shape.rows << "x" << shape.cols << " into " << shape.segments
            << " segments, draw " << static_cast<int>(draw) << ", at "
            << setting.max_threads << " threads";
      }
    }
  }
}

TEST_F(KernelsTest, GatherRowsBitIdenticalAtEveryThreadCount) {
  Rng rng(106);
  const Tensor source = RandomWithZeros(37, 13, &rng);
  for (const std::int64_t count : {std::int64_t{0}, std::int64_t{1},
                                   std::int64_t{50}, std::int64_t{333}}) {
    // Repetition allowed: indices sample with replacement.
    std::vector<std::int64_t> indices(static_cast<std::size_t>(count));
    for (auto& idx : indices) {
      idx = static_cast<std::int64_t>(rng.NextBounded(37));
    }
    const Tensor want = kernels::reference::GatherRows(source, indices);
    for (const ThreadSetting& setting : kThreadSettings) {
      Use(setting);
      EXPECT_TRUE(BitIdentical(want, kernels::GatherRows(source, indices)))
          << count << " gathered rows at " << setting.max_threads
          << " threads";
    }
  }
}

TEST_F(KernelsTest, ScatterAddRowsBitIdenticalAtEveryThreadCount) {
  Rng rng(107);
  for (const SegmentShape& shape : kSegmentShapes) {
    if (shape.rows == 0 || shape.cols == 0) continue;
    for (const IdDraw draw : kIdDraws) {
      const Tensor rows = RandomWithZeros(shape.rows, shape.cols, &rng);
      const Tensor base = RandomWithZeros(shape.segments, shape.cols, &rng);
      const std::vector<std::int64_t> indices =
          RandomIds(shape.rows, shape.segments, draw, &rng);
      Tensor want = base;
      kernels::reference::ScatterAddRows(&want, indices, rows);
      for (const ThreadSetting& setting : kThreadSettings) {
        Use(setting);
        Tensor got = base;
        kernels::ScatterAddRows(&got, indices, rows);
        EXPECT_TRUE(BitIdentical(want, got))
            << shape.rows << " rows into " << shape.segments << ", draw "
            << static_cast<int>(draw) << ", at " << setting.max_threads
            << " threads";
      }
    }
  }
}

TEST_F(KernelsTest, IsaDispatchReportsWithoutCrashing) {
  // Informational: whichever instantiation dispatch picked, results
  // above were already pinned bit-identical to the scalar reference.
  (void)kernels::UsingAvx2();
}

}  // namespace
}  // namespace inferturbo
