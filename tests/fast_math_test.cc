// The opt-in fast-math tier's two contracts. (1) Opt-in means OFF is
// free: with fast_math unset the kernels are bit-identical to the
// scalar oracle — the deterministic tier must not change by a single
// bit whether or not the fast TU is compiled in. (2) ON is bounded:
// fp32 FMA results stay inside the documented
// envelope |fast - oracle| <= tol * (|A|·|B|)[i,j] + tiny at every
// shape and thread setting.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/nn/model.h"
#include "src/tensor/kernels/kernel_config.h"
#include "src/tensor/kernels/kernels.h"
#include "src/tensor/kernels/reference.h"

namespace inferturbo {
namespace {

// Size the Default() executor to 4 before anything instantiates it, so
// the multi-thread settings below genuinely fan out on any host.
const bool g_exec_env = [] {
  ::setenv("INFERTURBO_EXEC_THREADS", "4", /*overwrite=*/1);
  return true;
}();

Tensor AbsTensor(const Tensor& t) {
  Tensor out(t.rows(), t.cols());
  for (std::int64_t i = 0; i < t.size(); ++i) {
    out.data()[i] = std::fabs(t.data()[i]);
  }
  return out;
}

// Largest |fast - oracle| / envelope ratio over the matrix (elements
// with a zero envelope must match to kTiny absolutely).
void ExpectWithinEnvelope(const Tensor& fast, const Tensor& oracle,
                          const Tensor& envelope, float tol,
                          const std::string& label) {
  constexpr float kTiny = 1e-6f;
  ASSERT_EQ(fast.rows(), oracle.rows()) << label;
  ASSERT_EQ(fast.cols(), oracle.cols()) << label;
  for (std::int64_t i = 0; i < fast.rows(); ++i) {
    for (std::int64_t j = 0; j < fast.cols(); ++j) {
      const float bound = tol * envelope.At(i, j) + kTiny;
      const float err = std::fabs(fast.At(i, j) - oracle.At(i, j));
      ASSERT_LE(err, bound)
          << label << " at (" << i << "," << j << "): fast=" << fast.At(i, j)
          << " oracle=" << oracle.At(i, j);
    }
  }
}

const int kThreadSettings[] = {1, 2, 4};

class FastMathTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = kernels::GetKernelConfig(); }
  void TearDown() override { kernels::SetKernelConfig(saved_); }

  void Use(int max_threads, bool fast) {
    kernels::KernelConfig config;
    config.max_threads = max_threads;
    config.min_parallel_work = 1;
    config.fast_math = fast;
    kernels::SetKernelConfig(config);
  }

  bool FastMathAvailable() {
    Use(1, /*fast=*/true);
    const bool available = kernels::UsingFastMath();
    Use(1, /*fast=*/false);
    return available;
  }

 private:
  kernels::KernelConfig saved_;
};

struct Shape {
  std::int64_t m, k, n;
};

// Full panels, column tails, row tails, skinny and tiny shapes.
const Shape kShapes[] = {{1, 1, 1},    {2, 3, 4},    {5, 17, 23},
                         {7, 64, 16},  {16, 8, 33},  {33, 29, 47},
                         {64, 64, 64}, {6, 40, 128}, {65, 31, 130}};

TEST_F(FastMathTest, Fp32TierWithinDocumentedTolerance) {
  if (!FastMathAvailable()) {
    GTEST_SKIP() << "no AVX2+FMA on this CPU/build";
  }
  Rng rng(211);
  for (const Shape& shape : kShapes) {
    const Tensor a = Tensor::RandomNormal(shape.m, shape.k, 1.0f, &rng);
    const Tensor b = Tensor::RandomNormal(shape.k, shape.n, 1.0f, &rng);
    const Tensor oracle = kernels::reference::MatMul(a, b);
    const Tensor envelope =
        kernels::reference::MatMul(AbsTensor(a), AbsTensor(b));
    for (const int threads : kThreadSettings) {
      Use(threads, /*fast=*/true);
      std::ostringstream label;
      label << "fp32 " << shape.m << "x" << shape.k << "x" << shape.n
            << " threads=" << threads;
      ExpectWithinEnvelope(kernels::MatMul(a, b), oracle, envelope,
                           kernels::kFastMathRelTol, label.str());
    }
  }
}

TEST_F(FastMathTest, TransposedAUsesTheTierToo) {
  if (!FastMathAvailable()) {
    GTEST_SKIP() << "no AVX2+FMA on this CPU/build";
  }
  Rng rng(213);
  const Tensor a = Tensor::RandomNormal(47, 33, 1.0f, &rng);  // k×m
  const Tensor b = Tensor::RandomNormal(47, 29, 1.0f, &rng);  // k×n
  const Tensor oracle = kernels::reference::MatMulTransposedA(a, b);
  // Envelope via the explicit transpose of |A|.
  Tensor at(a.cols(), a.rows());
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    for (std::int64_t c = 0; c < a.cols(); ++c) {
      at.At(c, r) = std::fabs(a.At(r, c));
    }
  }
  const Tensor envelope = kernels::reference::MatMul(at, AbsTensor(b));
  for (const int threads : kThreadSettings) {
    Use(threads, /*fast=*/true);
    ExpectWithinEnvelope(kernels::MatMulTransposedA(a, b), oracle, envelope,
                         kernels::kFastMathRelTol, "matmul_ta fp32");
  }
}

TEST_F(FastMathTest, OffMeansBitIdenticalToTheOracle) {
  // The flag off must reproduce the deterministic tier exactly — the
  // fast TU being linked in cannot perturb a single bit.
  Rng rng(214);
  for (const Shape& shape : kShapes) {
    const Tensor a = Tensor::RandomNormal(shape.m, shape.k, 1.0f, &rng);
    const Tensor b = Tensor::RandomNormal(shape.k, shape.n, 1.0f, &rng);
    const Tensor want = kernels::reference::MatMul(a, b);
    for (const int threads : kThreadSettings) {
      Use(threads, /*fast=*/false);
      const Tensor got = kernels::MatMul(a, b);
      ASSERT_EQ(0, std::memcmp(want.data(), got.data(), want.ByteSize()))
          << shape.m << "x" << shape.k << "x" << shape.n << " threads="
          << threads;
    }
  }
}

// End-to-end: with fast_math off, both backends' logits are bitwise
// unchanged at every thread setting — the whole-pipeline restatement of
// the kernel contract, and the guarantee that the flag's default
// changes nothing for existing users.
TEST_F(FastMathTest, OffKeepsBothBackendsLogitsBitIdentical) {
  PlantedGraphConfig graph_config;
  graph_config.num_nodes = 220;
  graph_config.avg_degree = 6.0;
  graph_config.num_classes = 4;
  graph_config.feature_dim = 12;
  graph_config.seed = 5;
  const Dataset dataset = MakePlantedDataset("fastmath", graph_config);

  ModelConfig model_config;
  model_config.input_dim = dataset.graph.feature_dim();
  model_config.hidden_dim = 16;
  model_config.num_classes = dataset.graph.num_classes();
  model_config.num_layers = 2;
  model_config.seed = 9;
  Result<std::unique_ptr<GnnModel>> model = MakeModel("sage", model_config);
  ASSERT_TRUE(model.ok());

  InferTurboOptions options;
  options.num_workers = 4;

  Use(1, /*fast=*/false);
  const Result<InferenceResult> base_pregel =
      RunInferTurboPregel(dataset.graph, **model, options);
  const Result<InferenceResult> base_mr =
      RunInferTurboMapReduce(dataset.graph, **model, options);
  ASSERT_TRUE(base_pregel.ok());
  ASSERT_TRUE(base_mr.ok());

  for (const int threads : kThreadSettings) {
    Use(threads, /*fast=*/false);
    const Result<InferenceResult> pregel =
        RunInferTurboPregel(dataset.graph, **model, options);
    const Result<InferenceResult> mr =
        RunInferTurboMapReduce(dataset.graph, **model, options);
    ASSERT_TRUE(pregel.ok());
    ASSERT_TRUE(mr.ok());
    EXPECT_EQ(0, std::memcmp(base_pregel->logits.data(),
                             pregel->logits.data(),
                             base_pregel->logits.ByteSize()))
        << "pregel threads=" << threads;
    EXPECT_EQ(0, std::memcmp(base_mr->logits.data(), mr->logits.data(),
                             base_mr->logits.ByteSize()))
        << "mapreduce threads=" << threads;
  }
}

}  // namespace
}  // namespace inferturbo
