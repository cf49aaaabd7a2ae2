#include "src/tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/chunked_rows.h"
#include "src/tensor/ops.h"

namespace inferturbo {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.rows(), 0);
  EXPECT_EQ(t.cols(), 0);
  EXPECT_TRUE(t.empty());
}

TEST(TensorTest, ConstructorZeroFills) {
  Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::int64_t c = 0; c < 4; ++c) EXPECT_EQ(t.At(r, c), 0.0f);
  }
}

TEST(TensorTest, FullFillsValue) {
  Tensor t = Tensor::Full(2, 2, 7.5f);
  EXPECT_EQ(t.At(0, 0), 7.5f);
  EXPECT_EQ(t.At(1, 1), 7.5f);
}

TEST(TensorTest, FromRowsRoundTrips) {
  Tensor t = Tensor::FromRows({{1.0f, 2.0f}, {3.0f, 4.0f}});
  EXPECT_EQ(t.At(0, 1), 2.0f);
  EXPECT_EQ(t.At(1, 0), 3.0f);
  EXPECT_EQ(t.RowVector(1), (std::vector<float>{3.0f, 4.0f}));
}

TEST(TensorTest, SetRowOverwrites) {
  Tensor t(2, 3);
  t.SetRow(1, std::vector<float>{1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.At(1, 2), 3.0f);
  EXPECT_EQ(t.At(0, 2), 0.0f);
}

TEST(TensorTest, GlorotUniformIsDeterministicUnderSeed) {
  Rng rng1(42);
  Rng rng2(42);
  Tensor a = Tensor::GlorotUniform(4, 5, &rng1);
  Tensor b = Tensor::GlorotUniform(4, 5, &rng2);
  EXPECT_TRUE(a.ApproxEquals(b, 0.0f));
}

TEST(TensorTest, GlorotUniformRespectsLimit) {
  Rng rng(7);
  Tensor t = Tensor::GlorotUniform(10, 10, &rng);
  const float limit = std::sqrt(6.0f / 20.0f);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::fabs(t.data()[i]), limit);
  }
}

TEST(TensorTest, ApproxEqualsDetectsShapeMismatch) {
  EXPECT_FALSE(Tensor(2, 2).ApproxEquals(Tensor(2, 3)));
}

TEST(TensorTest, ApproxEqualsUsesTolerance) {
  Tensor a = Tensor::Full(1, 1, 1.0f);
  Tensor b = Tensor::Full(1, 1, 1.0f + 5e-6f);
  EXPECT_TRUE(a.ApproxEquals(b, 1e-5f));
  EXPECT_FALSE(a.ApproxEquals(b, 1e-7f));
}

TEST(OpsTest, MatMulMatchesHand) {
  Tensor a = Tensor::FromRows({{1, 2}, {3, 4}});
  Tensor b = Tensor::FromRows({{5, 6}, {7, 8}});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(c.ApproxEquals(Tensor::FromRows({{19, 22}, {43, 50}})));
}

TEST(OpsTest, MatMulTransposedVariantsAgree) {
  Rng rng(3);
  Tensor a = Tensor::RandomNormal(4, 6, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal(6, 5, 1.0f, &rng);
  Tensor expected = MatMul(a, b);
  EXPECT_TRUE(MatMulTransposedB(a, Transpose(b)).ApproxEquals(expected,
                                                              1e-4f));
  EXPECT_TRUE(MatMulTransposedA(Transpose(a), b).ApproxEquals(expected,
                                                              1e-4f));
}

TEST(OpsTest, AddAndSubInverse) {
  Rng rng(5);
  Tensor a = Tensor::RandomNormal(3, 3, 1.0f, &rng);
  Tensor b = Tensor::RandomNormal(3, 3, 1.0f, &rng);
  EXPECT_TRUE(Sub(Add(a, b), b).ApproxEquals(a, 1e-5f));
}

TEST(OpsTest, AddRowBroadcastAddsBiasToEveryRow) {
  Tensor a = Tensor::FromRows({{1, 1}, {2, 2}});
  Tensor bias = Tensor::FromRows({{10, 20}});
  Tensor c = AddRowBroadcast(a, bias);
  EXPECT_TRUE(c.ApproxEquals(Tensor::FromRows({{11, 21}, {12, 22}})));
}

TEST(OpsTest, MulColBroadcastScalesRows) {
  Tensor a = Tensor::FromRows({{1, 2}, {3, 4}});
  Tensor s = Tensor::FromRows({{2}, {0.5f}});
  Tensor c = MulColBroadcast(a, s);
  EXPECT_TRUE(c.ApproxEquals(Tensor::FromRows({{2, 4}, {1.5f, 2}})));
}

TEST(OpsTest, ReluClampsNegatives) {
  Tensor a = Tensor::FromRows({{-1, 2}, {0, -3}});
  EXPECT_TRUE(Relu(a).ApproxEquals(Tensor::FromRows({{0, 2}, {0, 0}})));
}

// The in-place epilogue writes the bytes of the out-of-place ops and
// of the per-element definitions, x + b and x > 0 ? x : 0, over every
// pairing of NaN, signed zeros, infinities and denormals in the input
// and the bias: NaN and -0.0 both come out of the ReLU as +0.0.
TEST(OpsTest, InPlaceEpilogueMatchesOutOfPlaceBytes) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            -0.0f,
                            0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1e-40f,
                            -1e-40f,
                            1.5f,
                            -2.25f};
  const auto k = static_cast<std::int64_t>(std::size(specials));
  // Row r, column j holds specials[(r + j) % k] and the bias specials[j],
  // so every (input, bias) pair meets in some cell.
  Tensor a(k, k);
  Tensor bias(1, k);
  for (std::int64_t j = 0; j < k; ++j) {
    bias.At(0, j) = specials[j];
    for (std::int64_t r = 0; r < k; ++r) a.At(r, j) = specials[(r + j) % k];
  }
  Tensor expected(k, k);
  for (std::int64_t r = 0; r < k; ++r) {
    for (std::int64_t j = 0; j < k; ++j) {
      const float x = a.At(r, j) + bias.At(0, j);
      expected.At(r, j) = x > 0.0f ? x : 0.0f;
    }
  }
  const Tensor out_of_place = Relu(AddRowBroadcast(a, bias));
  Tensor in_place = a;
  AddRowBroadcastInPlace(&in_place, bias);
  ReluInPlace(&in_place);
  const auto bytes = static_cast<std::size_t>(k * k) * sizeof(float);
  EXPECT_EQ(std::memcmp(in_place.data(), out_of_place.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(in_place.data(), expected.data(), bytes), 0);

  // ReLU alone, straight on the specials.
  Tensor row(1, k);
  for (std::int64_t j = 0; j < k; ++j) row.At(0, j) = specials[j];
  const Tensor relu = Relu(row);
  ReluInPlace(&row);
  EXPECT_EQ(std::memcmp(row.data(), relu.data(),
                        static_cast<std::size_t>(k) * sizeof(float)),
            0);
  for (std::int64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(row.At(0, j), 0.0f);
    EXPECT_FALSE(std::signbit(row.At(0, j))) << "column " << j;
  }
}

TEST(OpsTest, LeakyReluKeepsSlope) {
  Tensor a = Tensor::FromRows({{-10, 10}});
  EXPECT_TRUE(
      LeakyRelu(a, 0.2f).ApproxEquals(Tensor::FromRows({{-2, 10}})));
}

TEST(OpsTest, SigmoidIsBounded) {
  Tensor a = Tensor::FromRows({{-100, 0, 100}});
  Tensor s = Sigmoid(a);
  EXPECT_NEAR(s.At(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(s.At(0, 1), 0.5f, 1e-6f);
  EXPECT_NEAR(s.At(0, 2), 1.0f, 1e-6f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(11);
  Tensor a = Tensor::RandomNormal(5, 7, 3.0f, &rng);
  Tensor s = SoftmaxRows(a);
  for (std::int64_t r = 0; r < 5; ++r) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < 7; ++c) sum += s.At(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(OpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(13);
  Tensor a = Tensor::RandomNormal(4, 5, 2.0f, &rng);
  Tensor ls = LogSoftmaxRows(a);
  Tensor s = SoftmaxRows(a);
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t c = 0; c < 5; ++c) {
      EXPECT_NEAR(ls.At(r, c), std::log(s.At(r, c)), 1e-4f);
    }
  }
}

TEST(OpsTest, LogSoftmaxIsStableForLargeLogits) {
  Tensor a = Tensor::FromRows({{1000.0f, 999.0f}});
  Tensor ls = LogSoftmaxRows(a);
  EXPECT_TRUE(std::isfinite(ls.At(0, 0)));
  EXPECT_TRUE(std::isfinite(ls.At(0, 1)));
}

TEST(OpsTest, ConcatAndSliceColsRoundTrip) {
  Tensor a = Tensor::FromRows({{1, 2}, {3, 4}});
  Tensor b = Tensor::FromRows({{5}, {6}});
  Tensor c = ConcatCols(a, b);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_TRUE(SliceCols(c, 0, 2).ApproxEquals(a));
  EXPECT_TRUE(SliceCols(c, 2, 3).ApproxEquals(b));
}

TEST(OpsTest, ConcatRowsStacksAndHandlesEmpty) {
  Tensor a = Tensor::FromRows({{1, 2}});
  Tensor b = Tensor::FromRows({{3, 4}});
  Tensor c = ConcatRows(a, b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.At(1, 0), 3.0f);
  EXPECT_TRUE(ConcatRows(Tensor(), a).ApproxEquals(a));
}

TEST(OpsTest, GatherRowsWithRepetition) {
  Tensor a = Tensor::FromRows({{1, 1}, {2, 2}, {3, 3}});
  const std::vector<std::int64_t> idx = {2, 0, 2};
  Tensor g = GatherRows(a, idx);
  EXPECT_TRUE(g.ApproxEquals(Tensor::FromRows({{3, 3}, {1, 1}, {3, 3}})));
}

TEST(OpsTest, ScatterAddRowsAccumulates) {
  Tensor acc(2, 2);
  Tensor rows = Tensor::FromRows({{1, 1}, {2, 2}, {4, 4}});
  const std::vector<std::int64_t> idx = {0, 1, 0};
  ScatterAddRows(&acc, idx, rows);
  EXPECT_TRUE(acc.ApproxEquals(Tensor::FromRows({{5, 5}, {2, 2}})));
}

TEST(OpsTest, ArgmaxRowsBreaksTiesLow) {
  Tensor a = Tensor::FromRows({{1, 3, 3}, {5, 2, 5}});
  const std::vector<std::int64_t> am = ArgmaxRows(a);
  EXPECT_EQ(am[0], 1);
  EXPECT_EQ(am[1], 0);
}

TEST(OpsTest, SumAllAndL2Norm) {
  Tensor a = Tensor::FromRows({{3, 4}});
  EXPECT_DOUBLE_EQ(SumAll(a), 7.0);
  EXPECT_NEAR(L2Norm(a), 5.0, 1e-6);
}

TEST(OpsTest, TransposeIsInvolution) {
  Rng rng(17);
  Tensor a = Tensor::RandomNormal(3, 6, 1.0f, &rng);
  EXPECT_TRUE(Transpose(Transpose(a)).ApproxEquals(a, 0.0f));
}

// WithRows checks every patch id, not only the first of each chunk:
// a negative id after a valid one shares its chunk (-1 / 32 == 0) and
// would be written one row before the fresh chunk.
TEST(ChunkedRowsTest, WithRowsRejectsEveryBadId) {
  const Tensor base(8, 2);
  const ChunkedRows rows = ChunkedRows::View(base, nullptr);
  const Tensor values(2, 2);
  for (const std::vector<std::int64_t>& ids :
       {std::vector<std::int64_t>{0, -1}, std::vector<std::int64_t>{5, 3},
        std::vector<std::int64_t>{3, 3}}) {
    EXPECT_DEATH(rows.WithRows(8, ids, values),
                 "sorted, unique and in range")
        << "ids {" << ids[0] << ", " << ids[1] << "}";
  }
}

}  // namespace
}  // namespace inferturbo
