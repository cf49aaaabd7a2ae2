#include "src/gas/message.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/gas/gas_conv.h"
#include "src/gas/superstep_gather.h"
#include "src/tensor/segment_ops.h"
#include "tests/scalar_oracles.h"

namespace inferturbo {
namespace {

TEST(MessageBatchTest, IncrementalPushKeepsContentsThroughGrowth) {
  // Push grows the payload geometrically; many single-row pushes must
  // land every row intact and in order (the vertex-API build path).
  Rng rng(3);
  const std::int64_t n = 1000, width = 5;
  const Tensor rows = Tensor::RandomNormal(n, width, 1.0f, &rng);
  MessageBatch a;
  for (std::int64_t i = 0; i < n; ++i) {
    a.Push(static_cast<NodeId>(i % 17), static_cast<NodeId>(i),
           rows.RowPtr(i), width);
  }
  ASSERT_EQ(a.size(), n);
  EXPECT_TRUE(a.payload.ApproxEquals(rows, 0.0f));
  EXPECT_EQ(a.dst[999], 999 % 17);
  EXPECT_EQ(a.src[999], 999);
}

TEST(MessageBatchTest, PushAfterMismatchedReserveAdoptsRowWidth) {
  // A reservation at one width must not poison a first push at another
  // width while the batch is still empty.
  MessageBatch a;
  a.Reserve(4, 2);
  const float r[] = {1.0f, 2.0f, 3.0f};
  a.Push(0, 0, r, 3);
  ASSERT_EQ(a.payload.cols(), 3);
  EXPECT_EQ(a.payload.At(0, 2), 3.0f);
}

TEST(MessageBatchTest, WireBytesChargePayloadAndHeader) {
  const float r[] = {1.0f, 2.0f};
  MessageBatch a;
  a.Push(0, 0, r, 2);
  EXPECT_EQ(a.WireBytes(), MessageBytes(2));
}

TEST(MessageBatchTest, IdOnlyBatchChargesReferenceBytes) {
  MessageBatch refs;
  refs.payload = Tensor(0, 0);
  refs.dst.push_back(3);
  refs.src.push_back(9);
  EXPECT_EQ(refs.WireBytes(), IdOnlyMessageBytes());
}

// A partial batch from the engines' CombineBatch or, when `scalar`, from
// the scalar combine oracle; every PooledCombineTest case holds both.
MessageBatch Combine(bool scalar, AggKind kind, const MessageBatch& batch,
                     NodeId from) {
  if (!scalar) return CombineBatch(kind, batch, from);
  std::vector<const float*> rows;
  for (std::int64_t i = 0; i < batch.size(); ++i) {
    rows.push_back(batch.payload.RowPtr(i));
  }
  return ScalarCombine(kind, batch.payload.cols(), batch.dst, rows, from);
}

// The receive that matches Combine(scalar, ...).
GatherResult Gather(bool scalar, AggKind kind, std::int64_t width,
                    std::span<const MessageBatch> partials,
                    std::int64_t num_nodes) {
  const std::vector<bool> batch_partial(partials.size(), true);
  std::vector<std::int64_t> local_index(static_cast<std::size_t>(num_nodes));
  std::iota(local_index.begin(), local_index.end(), 0);
  return (scalar ? ScalarGatherInbox : GatherSuperstepInbox)(
      kind, width, partials, batch_partial, local_index, num_nodes,
      BroadcastLookupFn{});
}

std::vector<float> Row(const MessageBatch& batch, std::int64_t i) {
  return std::vector<float>(batch.payload.RowPtr(i),
                            batch.payload.RowPtr(i) + batch.payload.cols());
}

TEST(PooledCombineTest, SumAccumulates) {
  const float r1[] = {1.0f, 2.0f};
  const float r2[] = {10.0f, 20.0f};
  MessageBatch batch;
  batch.Push(5, 0, r1, 2);
  batch.Push(5, 1, r2, 2);
  batch.Push(9, 2, r1, 2);
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar);
    const MessageBatch partial = Combine(scalar, AggKind::kSum, batch, 0);
    EXPECT_EQ(partial.dst, (std::vector<NodeId>{5, 9}));
    EXPECT_EQ(Row(partial, 0), (std::vector<float>{11.0f, 22.0f, 2.0f}));
    EXPECT_EQ(Row(partial, 1), (std::vector<float>{1.0f, 2.0f, 1.0f}));
  }
}

TEST(PooledCombineTest, MeanDividesAtFinalize) {
  const float a = 2.0f, b = 4.0f;
  MessageBatch batch;
  batch.Push(0, 0, &a, 1);
  batch.Push(0, 1, &b, 1);
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar);
    const std::vector<MessageBatch> partials = {
        Combine(scalar, AggKind::kMean, batch, 0)};
    EXPECT_EQ(Row(partials[0], 0), (std::vector<float>{6.0f, 2.0f}));
    const GatherResult r = Gather(scalar, AggKind::kMean, 1, partials, 1);
    EXPECT_EQ(r.pooled.At(0, 0), 3.0f);
    EXPECT_EQ(r.counts, (std::vector<std::int64_t>{2}));
  }
}

TEST(PooledCombineTest, MaxMinSemantics) {
  const float a = -2.0f, b = 5.0f;
  MessageBatch batch;
  batch.Push(0, 0, &a, 1);
  batch.Push(0, 1, &b, 1);
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar);
    EXPECT_EQ(Combine(scalar, AggKind::kMax, batch, 0).payload.At(0, 0), 5.0f);
    EXPECT_EQ(Combine(scalar, AggKind::kMin, batch, 0).payload.At(0, 0),
              -2.0f);
  }
}

TEST(PooledCombineTest, PartialBatchCarriesCountColumn) {
  const float r[] = {4.0f, 8.0f};
  MessageBatch batch;
  batch.Push(3, 0, r, 2);
  batch.Push(3, 1, r, 2);
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar);
    const MessageBatch partial =
        Combine(scalar, AggKind::kMean, batch, /*from=*/7);
    ASSERT_EQ(partial.size(), 1);
    EXPECT_EQ(partial.payload.cols(), 3);
    EXPECT_EQ(partial.payload.At(0, 0), 8.0f);  // running sum, not mean
    EXPECT_EQ(partial.payload.At(0, 2), 2.0f);  // count
    EXPECT_EQ(partial.src, (std::vector<NodeId>{7}));
  }
}

// The partial-gather exactness property: splitting a message stream
// across senders, partially pooling each side, and merging the
// partials at the receiver's superstep gather must equal pooling
// everything at the receiver.
TEST(PooledCombineTest, PartialThenMergeEqualsDirect) {
  Rng rng(31);
  for (const AggKind kind :
       {AggKind::kSum, AggKind::kMean, AggKind::kMax, AggKind::kMin}) {
    const std::int64_t num_msgs = 200, width = 3, num_nodes = 11;
    Tensor rows = Tensor::RandomNormal(num_msgs, width, 1.0f, &rng);
    std::vector<std::int64_t> dst;
    for (std::int64_t i = 0; i < num_msgs; ++i) {
      dst.push_back(static_cast<std::int64_t>(
          rng.NextBounded(static_cast<std::uint64_t>(num_nodes))));
    }

    // Direct: everything folded at the receiver.
    const GatherResult direct = GatherIntoResult(kind, rows, dst, num_nodes);

    for (const bool scalar : {false, true}) {
      SCOPED_TRACE(testing::Message() << "kind=" << static_cast<int>(kind)
                                      << " scalar=" << scalar);
      // Partial: three senders each pool a third, receiver merges.
      std::vector<MessageBatch> partials;
      for (int part = 0; part < 3; ++part) {
        MessageBatch outgoing;
        for (std::int64_t i = part; i < num_msgs; i += 3) {
          outgoing.Push(dst[static_cast<std::size_t>(i)], i, rows.RowPtr(i),
                        width);
        }
        partials.push_back(Combine(scalar, kind, outgoing, part));
      }
      const GatherResult via_partial =
          Gather(scalar, kind, width, partials, num_nodes);
      EXPECT_TRUE(via_partial.pooled.ApproxEquals(direct.pooled, 1e-4f));
      EXPECT_EQ(via_partial.counts, direct.counts);
    }
  }
}

TEST(SplitByWorkerTest, PreservesPerWorkerOrderAndContent) {
  const std::int64_t num_workers = 4;
  const HashPartitioner partitioner(num_workers);
  Rng rng(47);
  MessageBatch batch;
  const std::int64_t n = 123, width = 3;
  batch.Reserve(static_cast<std::size_t>(n), width);
  batch.payload = Tensor::RandomNormal(n, width, 1.0f, &rng);
  for (std::int64_t i = 0; i < n; ++i) {
    batch.dst.push_back(static_cast<NodeId>(rng.NextBounded(500)));
    batch.src.push_back(static_cast<NodeId>(i));
  }
  const MessageBatch original = batch;

  std::vector<MessageBatch> slices =
      SplitByWorker(std::move(batch), partitioner, num_workers);
  ASSERT_EQ(slices.size(), static_cast<std::size_t>(num_workers));

  // Every row lands on its owner, and each slice preserves the
  // original relative order — verified by replaying the input and
  // consuming each owner's slice front-to-back.
  std::vector<std::int64_t> cursor(static_cast<std::size_t>(num_workers), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto w =
        static_cast<std::size_t>(partitioner.PartitionOf(original.dst[i]));
    const MessageBatch& slice = slices[w];
    const std::int64_t at = cursor[w]++;
    ASSERT_LT(at, slice.size());
    EXPECT_EQ(slice.dst[static_cast<std::size_t>(at)], original.dst[i]);
    EXPECT_EQ(slice.src[static_cast<std::size_t>(at)], original.src[i]);
    for (std::int64_t j = 0; j < width; ++j) {
      EXPECT_EQ(slice.payload.At(at, j), original.payload.At(i, j));
    }
  }
  // No extra rows anywhere: cursors consumed every slice exactly.
  for (std::size_t w = 0; w < static_cast<std::size_t>(num_workers); ++w) {
    EXPECT_EQ(cursor[w], slices[w].size());
  }
}

TEST(SplitByWorkerTest, SingleOwnerBatchMovesWithoutCopy) {
  const std::int64_t num_workers = 3;
  const HashPartitioner partitioner(num_workers);
  MessageBatch batch;
  // Find two ids on the same worker so the batch is single-owner.
  const NodeId id = 5;
  const std::int64_t w = partitioner.PartitionOf(id);
  const float r[] = {1.0f, 2.0f};
  batch.Push(id, 1, r, 2);
  batch.Push(id, 2, r, 2);
  const float* payload_before = batch.payload.data();

  std::vector<MessageBatch> slices =
      SplitByWorker(std::move(batch), partitioner, num_workers);
  ASSERT_EQ(slices[static_cast<std::size_t>(w)].size(), 2);
  // The fast path must move the payload, not reallocate it.
  EXPECT_EQ(slices[static_cast<std::size_t>(w)].payload.data(),
            payload_before);
  for (std::int64_t other = 0; other < num_workers; ++other) {
    if (other != w) {
      EXPECT_TRUE(slices[static_cast<std::size_t>(other)].empty());
    }
  }
}

TEST(SplitByWorkerTest, EmptyBatchYieldsAllEmptySlices) {
  const HashPartitioner partitioner(2);
  std::vector<MessageBatch> slices =
      SplitByWorker(MessageBatch{}, partitioner, 2);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_TRUE(slices[0].empty());
  EXPECT_TRUE(slices[1].empty());
}

TEST(SplitByWorkerTest, ZeroWidthPayloadSplitsIds) {
  // Identifier-only batches (broadcast references) have a 0-column
  // payload; the splitter must route ids without touching row memory.
  const std::int64_t num_workers = 2;
  const HashPartitioner partitioner(num_workers);
  MessageBatch batch;
  batch.payload = Tensor(0, 0);
  NodeId a = 0, b = 0;
  // Pick one id per worker so the multi-owner path runs.
  for (NodeId id = 0; id < 100; ++id) {
    if (partitioner.PartitionOf(id) == 0) a = id;
    if (partitioner.PartitionOf(id) == 1) b = id;
  }
  batch.dst = {a, b, a};
  batch.src = {10, 11, 12};

  std::vector<MessageBatch> slices =
      SplitByWorker(std::move(batch), partitioner, num_workers);
  EXPECT_EQ(slices[0].dst, (std::vector<NodeId>{a, a}));
  EXPECT_EQ(slices[0].src, (std::vector<NodeId>{10, 12}));
  EXPECT_EQ(slices[1].dst, (std::vector<NodeId>{b}));
  EXPECT_EQ(slices[1].src, (std::vector<NodeId>{11}));
}

TEST(GatherIntoResultTest, UnionKeepsRawRows) {
  Tensor rows = Tensor::FromRows({{1, 2}, {3, 4}});
  const std::vector<std::int64_t> dst = {1, 0};
  const GatherResult r = GatherIntoResult(AggKind::kUnion, rows, dst, 2);
  ASSERT_EQ(r.rows.size(), 2u);
  for (std::int64_t i = 0; i < 2; ++i) {
    EXPECT_EQ(r.rows[static_cast<std::size_t>(i)][0], rows.At(i, 0));
    EXPECT_EQ(r.rows[static_cast<std::size_t>(i)][1], rows.At(i, 1));
  }
  EXPECT_EQ(r.dst_index, dst);
  EXPECT_EQ(r.counts, (std::vector<std::int64_t>{1, 1}));
}

// A union result owns its rows: they read the same bytes after the
// source tensor is gone, and a copy of the result (which may outlive
// the original) reads them too.
TEST(GatherIntoResultTest, UnionRowsOutliveTheSourceAndCopies) {
  const std::vector<std::vector<float>> values = {{1, 2, 3}, {4, 5, 6}};
  const std::vector<std::int64_t> dst = {0, 0};
  std::optional<GatherResult> original;
  {
    Tensor source = Tensor::FromRows(values);
    original = GatherIntoResult(AggKind::kUnion, source, dst, 1);
    std::fill(source.data(), source.data() + source.size(), -1.0f);
  }
  const auto expect_rows = [&](const GatherResult& r) {
    ASSERT_EQ(r.rows.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(std::vector<float>(r.rows[i], r.rows[i] + 3), values[i]);
    }
  };
  expect_rows(*original);
  GatherResult copy = *original;
  original.reset();
  expect_rows(copy);
  GatherResult assigned;
  assigned = copy;
  copy = GatherResult();
  expect_rows(assigned);
}

TEST(GatherIntoResultTest, IsolatedNodesReadNeutralZero) {
  Tensor rows = Tensor::FromRows({{5, 5}});
  const std::vector<std::int64_t> dst = {0};
  for (const AggKind kind :
       {AggKind::kSum, AggKind::kMean, AggKind::kMax, AggKind::kMin}) {
    const GatherResult r = GatherIntoResult(kind, rows, dst, 3);
    EXPECT_EQ(r.counts[1], 0);
    EXPECT_EQ(r.pooled.At(1, 0), 0.0f);
    EXPECT_EQ(r.pooled.At(2, 1), 0.0f);
  }
}

TEST(GatherIntoResultTest, DstIndexLengthMustMatchMessageRows) {
  const Tensor rows = Tensor::FromRows({{1, 2}, {3, 4}});
  const std::vector<std::int64_t> shorter = {0};
  const std::vector<std::int64_t> longer = {0, 1, 1};
  for (const AggKind kind : {AggKind::kSum, AggKind::kMax, AggKind::kUnion}) {
    SCOPED_TRACE(static_cast<int>(kind));
    EXPECT_DEATH(GatherIntoResult(kind, rows, shorter, 2),
                 "dst indices for 2 message rows");
    EXPECT_DEATH(GatherIntoResult(kind, rows, longer, 2),
                 "dst indices for 2 message rows");
  }
}

}  // namespace
}  // namespace inferturbo
