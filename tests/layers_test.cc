// Per-layer properties: the training-side computation flow (ForwardAg)
// and the inference-side computation flow (ComputeMessage / ApplyNode
// plus an engine-style gather) are two implementations of the same
// math and must agree on any graph.
#include <gtest/gtest.h>

#include <memory>

#include "src/gas/gas_conv.h"
#include "src/nn/gat_conv.h"
#include "src/nn/gcn_conv.h"
#include "src/nn/gin_conv.h"
#include "src/nn/pool_sage_conv.h"
#include "src/nn/sage_conv.h"
#include "src/tensor/ops.h"

namespace inferturbo {
namespace {

struct TestGraph {
  Tensor features;
  std::vector<std::int64_t> src;
  std::vector<std::int64_t> dst;
  std::int64_t num_nodes;
};

TestGraph MakeRandomTestGraph(std::uint64_t seed, std::int64_t num_nodes = 30,
                              std::int64_t num_edges = 120,
                              std::int64_t dim = 6) {
  Rng rng(seed);
  TestGraph g;
  g.num_nodes = num_nodes;
  g.features = Tensor::RandomNormal(num_nodes, dim, 1.0f, &rng);
  for (std::int64_t e = 0; e < num_edges; ++e) {
    g.src.push_back(static_cast<std::int64_t>(
        rng.NextBounded(static_cast<std::uint64_t>(num_nodes))));
    g.dst.push_back(static_cast<std::int64_t>(
        rng.NextBounded(static_cast<std::uint64_t>(num_nodes))));
  }
  return g;
}

/// Inference-side forward of one layer over an edge list.
Tensor InferenceForward(const GasConv& layer, const TestGraph& g) {
  const Tensor node_messages = layer.ComputeMessage(g.features);
  const Tensor edge_messages = GatherRows(node_messages, g.src);
  const GatherResult gathered =
      GatherIntoResult(layer.signature().agg_kind, edge_messages, g.dst,
                       g.num_nodes);
  return layer.ApplyNode(g.features, gathered);
}

Tensor TrainingForward(const GasConv& layer, const TestGraph& g) {
  ag::VarPtr h = ag::Constant(g.features);
  return layer.ForwardAg(h, g.src, g.dst, g.num_nodes, nullptr)->value;
}

TEST(SageConvTest, TrainingAndInferencePathsAgree) {
  Rng rng(41);
  SageConv layer(6, 5, /*activation=*/true, &rng);
  const TestGraph g = MakeRandomTestGraph(1);
  EXPECT_TRUE(
      TrainingForward(layer, g).ApproxEquals(InferenceForward(layer, g),
                                             1e-4f));
}

TEST(GcnConvTest, TrainingAndInferencePathsAgree) {
  Rng rng(43);
  GcnConv layer(6, 5, /*activation=*/true, &rng);
  const TestGraph g = MakeRandomTestGraph(2);
  EXPECT_TRUE(
      TrainingForward(layer, g).ApproxEquals(InferenceForward(layer, g),
                                             1e-4f));
}

TEST(GatConvTest, TrainingAndInferencePathsAgree) {
  Rng rng(47);
  GatConv layer(6, 4, /*heads=*/2, /*activation=*/true, &rng);
  const TestGraph g = MakeRandomTestGraph(3);
  EXPECT_TRUE(
      TrainingForward(layer, g).ApproxEquals(InferenceForward(layer, g),
                                             1e-4f));
}

TEST(GinConvTest, TrainingAndInferencePathsAgree) {
  Rng rng(101);
  GinConv layer(6, 5, /*activation=*/true, &rng);
  const TestGraph g = MakeRandomTestGraph(7);
  EXPECT_TRUE(
      TrainingForward(layer, g).ApproxEquals(InferenceForward(layer, g),
                                             1e-4f));
}

TEST(GinConvTest, SignatureIsSumAggregate) {
  Rng rng(103);
  GinConv layer(6, 5, true, &rng);
  EXPECT_EQ(layer.signature().agg_kind, AggKind::kSum);
  EXPECT_TRUE(layer.signature().partial_gather);
}

TEST(GinConvTest, EpsilonScalesSelfTerm) {
  Rng rng(107);
  GinConv layer(4, 3, /*activation=*/false, &rng);
  const TestGraph g = MakeRandomTestGraph(8, 6, 12, 4);
  const Tensor before = InferenceForward(layer, g);
  layer.Parameters()[0]->value.At(0, 0) = 2.0f;  // eps
  const Tensor after = InferenceForward(layer, g);
  EXPECT_FALSE(before.ApproxEquals(after, 1e-6f));
}

TEST(PoolSageConvTest, TrainingAndInferencePathsAgree) {
  Rng rng(109);
  PoolSageConv layer(6, 5, /*activation=*/true, &rng);
  const TestGraph g = MakeRandomTestGraph(9);
  EXPECT_TRUE(
      TrainingForward(layer, g).ApproxEquals(InferenceForward(layer, g),
                                             1e-4f));
}

TEST(PoolSageConvTest, SignatureIsMaxAggregate) {
  Rng rng(113);
  PoolSageConv layer(6, 5, true, &rng);
  EXPECT_EQ(layer.signature().agg_kind, AggKind::kMax);
  EXPECT_TRUE(layer.signature().partial_gather);
  EXPECT_EQ(layer.signature().message_dim, 5);  // transformed width
}

TEST(GatConvTest, IsolatedNodeFallsBackToSelfTransform) {
  Rng rng(53);
  GatConv layer(4, 3, /*heads=*/1, /*activation=*/false, &rng);
  TestGraph g = MakeRandomTestGraph(4, /*num_nodes=*/5, /*num_edges=*/0,
                                    /*dim=*/4);
  const Tensor out = InferenceForward(layer, g);
  // With no in-edges the GAT output is W h_v + b for every node.
  const Tensor train_out = TrainingForward(layer, g);
  EXPECT_TRUE(out.ApproxEquals(train_out, 1e-4f));
  EXPECT_GT(L2Norm(out), 0.0);
}

TEST(SageConvTest, SignatureDeclaresLawfulAggregate) {
  Rng rng(59);
  SageConv layer(6, 5, true, &rng);
  EXPECT_EQ(layer.signature().agg_kind, AggKind::kMean);
  EXPECT_TRUE(layer.signature().partial_gather);
  EXPECT_TRUE(layer.signature().broadcastable_messages);
  EXPECT_EQ(layer.signature().message_dim, 6);
}

TEST(GatConvTest, SignatureDeclaresUnionAggregate) {
  Rng rng(61);
  GatConv layer(6, 4, 2, true, &rng);
  // Attention breaks the commutative/associative rule -> union +
  // @Gather(partial=False), as in the paper's Fig. 3.
  EXPECT_EQ(layer.signature().agg_kind, AggKind::kUnion);
  EXPECT_FALSE(layer.signature().partial_gather);
  EXPECT_FALSE(PartialGatherReduces(layer.signature().agg_kind));
  EXPECT_EQ(layer.signature().message_dim, 2 * 4 + 2);
}

TEST(LayersTest, ParametersAreSharedBetweenPaths) {
  Rng rng(67);
  SageConv layer(4, 3, false, &rng);
  const TestGraph g = MakeRandomTestGraph(5, 10, 30, 4);
  const Tensor before = InferenceForward(layer, g);
  // Mutate a parameter through the training-side handle; inference
  // must see the change (same storage).
  layer.Parameters()[0]->value.At(0, 0) += 1.0f;
  const Tensor after = InferenceForward(layer, g);
  EXPECT_FALSE(before.ApproxEquals(after, 1e-6f));
}

TEST(LayersTest, MessagesAreIdenticalAcrossOutEdges) {
  // The broadcastable_messages contract: ComputeMessage is per-node, so
  // two edges from the same source must carry equal rows.
  Rng rng(71);
  GatConv layer(4, 3, 2, true, &rng);
  const TestGraph g = MakeRandomTestGraph(6, 8, 40, 4);
  const Tensor node_messages = layer.ComputeMessage(g.features);
  const Tensor edge_messages = GatherRows(node_messages, g.src);
  for (std::size_t e1 = 0; e1 < g.src.size(); ++e1) {
    for (std::size_t e2 = e1 + 1; e2 < g.src.size(); ++e2) {
      if (g.src[e1] != g.src[e2]) continue;
      for (std::int64_t j = 0; j < edge_messages.cols(); ++j) {
        ASSERT_EQ(edge_messages.At(static_cast<std::int64_t>(e1), j),
                  edge_messages.At(static_cast<std::int64_t>(e2), j));
      }
    }
  }
}

}  // namespace
}  // namespace inferturbo
