// Randomized equivalence suite for the kernel-backed superstep data
// plane: the fast gather (GatherPooledRows, or GatherUnionRows for
// union) must be BIT-identical to the scalar receive oracle for every
// aggregator kind, batch mix (dense / partial / id-only broadcast refs
// / empty), and thread count; CombineBatch, CombineRows and every
// compiled PtrRowFold variant must be bit-identical to the scalar
// combine oracle including emission order; and the SegmentMax/
// SegmentMin kernels must match their pinned scalar references
// exactly. Both oracles run the reference's ScalarPooledFold.
#include "src/gas/superstep_gather.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/gas/message.h"
#include "src/inference/reference_inference.h"
#include "src/tensor/kernels/kernel_config.h"
#include "src/tensor/kernels/kernels.h"
#include "src/tensor/kernels/matmul_tiles.h"
#include "src/tensor/kernels/reference.h"
#include "src/tensor/kernels/row_fold.h"
#include "tests/scalar_oracles.h"

namespace inferturbo {
namespace {

// Must run before the first StaticExecutor::Default() call in this
// process, so a 1-core host still runs the 4-thread cases as 4 tasks.
const bool g_exec_env = [] {
  ::setenv("INFERTURBO_EXEC_THREADS", "4", /*overwrite=*/1);
  return true;
}();

// Forces the kernel layer to `threads` workers with no serial
// fallback, restoring the previous config on scope exit.
class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) : saved_(kernels::GetKernelConfig()) {
    kernels::KernelConfig config = saved_;
    config.max_threads = threads;
    config.min_parallel_work = threads > 1 ? 1 : (std::int64_t{1} << 62);
    kernels::SetKernelConfig(config);
  }
  ~ThreadGuard() { kernels::SetKernelConfig(saved_); }

 private:
  kernels::KernelConfig saved_;
};

// Skewed destination draw: min of two uniforms concentrates mass on
// low ids, so some segments are hubs and some are empty.
std::int64_t SkewedDst(Rng* rng, std::int64_t num_nodes) {
  const auto bound = static_cast<std::uint64_t>(num_nodes);
  const std::uint64_t a = rng->NextBounded(bound);
  const std::uint64_t b = rng->NextBounded(bound);
  return static_cast<std::int64_t>(a < b ? a : b);
}

struct RandomInbox {
  std::vector<MessageBatch> batches;
  std::vector<bool> partial;
  std::unordered_map<NodeId, std::vector<float>> board;
  std::vector<std::int64_t> local_index;  // identity over [0, num_nodes)
  std::int64_t num_nodes = 0;

  BroadcastLookupFn Lookup() const {
    return [this](NodeId key) -> const std::vector<float>* {
      const auto it = board.find(key);
      return it == board.end() ? nullptr : &it->second;
    };
  }
};

// A worker inbox like the Pregel engine delivers: dense batches,
// optionally sender-combined partial batches (built through the scalar
// combine so count columns are authentic), optionally
// id-only broadcast references, plus one deliberately empty batch.
RandomInbox MakeInbox(Rng* rng, AggKind kind, std::int64_t msg_dim,
                      bool with_partial, bool with_id_only) {
  RandomInbox inbox;
  inbox.num_nodes = 40;
  inbox.local_index.resize(static_cast<std::size_t>(inbox.num_nodes));
  for (std::int64_t i = 0; i < inbox.num_nodes; ++i) {
    inbox.local_index[static_cast<std::size_t>(i)] = i;
  }

  const std::int64_t num_dense = 3;
  for (std::int64_t bi = 0; bi < num_dense; ++bi) {
    MessageBatch b;
    const std::int64_t n =
        static_cast<std::int64_t>(rng->NextBounded(120)) + 1;
    b.payload = Tensor::RandomNormal(n, msg_dim, 2.0f, rng);
    for (std::int64_t i = 0; i < n; ++i) {
      b.dst.push_back(SkewedDst(rng, inbox.num_nodes));
      b.src.push_back(static_cast<NodeId>(rng->NextBounded(1000)));
    }
    inbox.batches.push_back(std::move(b));
    inbox.partial.push_back(false);
  }

  inbox.batches.emplace_back();  // empty batch must be a no-op
  inbox.partial.push_back(false);

  if (with_partial) {
    for (int sender = 0; sender < 2; ++sender) {
      const std::int64_t n =
          static_cast<std::int64_t>(rng->NextBounded(200)) + 1;
      const Tensor rows = Tensor::RandomNormal(n, msg_dim, 2.0f, rng);
      std::vector<NodeId> dst;
      std::vector<const float*> row_ptrs;
      for (std::int64_t i = 0; i < n; ++i) {
        dst.push_back(SkewedDst(rng, inbox.num_nodes));
        row_ptrs.push_back(rows.RowPtr(i));
      }
      inbox.batches.push_back(
          ScalarCombine(kind, msg_dim, dst, row_ptrs, /*from=*/sender));
      inbox.partial.push_back(true);
    }
  }

  if (with_id_only) {
    for (NodeId key = 900; key < 904; ++key) {
      std::vector<float> value(static_cast<std::size_t>(msg_dim));
      for (float& v : value) v = rng->NextFloat(-3.0f, 3.0f);
      inbox.board[key] = std::move(value);
    }
    MessageBatch refs;
    refs.payload = Tensor(0, 0);
    const std::int64_t n =
        static_cast<std::int64_t>(rng->NextBounded(60)) + 1;
    for (std::int64_t i = 0; i < n; ++i) {
      refs.dst.push_back(SkewedDst(rng, inbox.num_nodes));
      refs.src.push_back(900 + static_cast<NodeId>(rng->NextBounded(4)));
    }
    inbox.batches.push_back(std::move(refs));
    inbox.partial.push_back(false);
  }
  return inbox;
}

bool SameBytes(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameBytes(a.data(), b.data(), a.size());
}

void ExpectBitIdentical(const GatherResult& fast, const GatherResult& oracle,
                        std::int64_t msg_dim) {
  EXPECT_EQ(fast.kind, oracle.kind);
  EXPECT_EQ(fast.counts, oracle.counts);
  // Tolerance 0: bit-identity is the contract, not approximation.
  EXPECT_TRUE(fast.pooled.ApproxEquals(oracle.pooled, 0.0f));
  ASSERT_EQ(fast.rows.size(), oracle.rows.size());
  for (std::size_t i = 0; i < fast.rows.size(); ++i) {
    EXPECT_TRUE(SameBytes(fast.rows[i], oracle.rows[i], msg_dim))
        << "union row " << i;
  }
  EXPECT_EQ(fast.dst_index, oracle.dst_index);
}

TEST(SuperstepGatherTest, PooledKindsMatchScalarOracleBitIdentically) {
  Rng rng(2024);
  for (const AggKind kind :
       {AggKind::kSum, AggKind::kMean, AggKind::kMax, AggKind::kMin}) {
    for (const bool with_partial : {false, true}) {
      for (const bool with_id_only : {false, true}) {
        const std::int64_t msg_dim = 1 + static_cast<std::int64_t>(
                                             rng.NextBounded(19));
        const RandomInbox inbox =
            MakeInbox(&rng, kind, msg_dim, with_partial, with_id_only);
        const GatherResult oracle = ScalarGatherInbox(
            kind, msg_dim, inbox.batches, inbox.partial, inbox.local_index,
            inbox.num_nodes, inbox.Lookup());
        for (const int threads : {1, 4}) {
          ThreadGuard guard(threads);
          const GatherResult fast = GatherSuperstepInbox(
              kind, msg_dim, inbox.batches, inbox.partial, inbox.local_index,
              inbox.num_nodes, inbox.Lookup());
          ExpectBitIdentical(fast, oracle, msg_dim);
        }
      }
    }
  }
}

TEST(SuperstepGatherTest, UnionMatchesScalarOracleBitIdentically) {
  Rng rng(77);
  for (const bool with_id_only : {false, true}) {
    const std::int64_t msg_dim = 8;
    const RandomInbox inbox = MakeInbox(&rng, AggKind::kUnion, msg_dim,
                                        /*with_partial=*/false, with_id_only);
    const GatherResult oracle = ScalarGatherInbox(
        AggKind::kUnion, msg_dim, inbox.batches, inbox.partial,
        inbox.local_index, inbox.num_nodes, inbox.Lookup());
    for (const int threads : {1, 4}) {
      ThreadGuard guard(threads);
      const GatherResult fast = GatherSuperstepInbox(
          AggKind::kUnion, msg_dim, inbox.batches, inbox.partial,
          inbox.local_index, inbox.num_nodes, inbox.Lookup());
      ExpectBitIdentical(fast, oracle, msg_dim);
    }
  }
}

TEST(SuperstepGatherTest, EmptyInboxYieldsNeutralZeros) {
  const std::vector<MessageBatch> batches;
  const std::vector<bool> partial;
  const std::vector<std::int64_t> local_index = {0, 1, 2};
  for (const AggKind kind : {AggKind::kSum, AggKind::kMean, AggKind::kMax,
                             AggKind::kMin, AggKind::kUnion}) {
    const GatherResult fast =
        GatherSuperstepInbox(kind, 5, batches, partial, local_index, 3,
                             BroadcastLookupFn{});
    const GatherResult oracle = ScalarGatherInbox(
        kind, 5, batches, partial, local_index, 3, BroadcastLookupFn{});
    ExpectBitIdentical(fast, oracle, 5);
    EXPECT_EQ(fast.counts, (std::vector<std::int64_t>{0, 0, 0}));
    if (kind != AggKind::kUnion) {
      EXPECT_EQ(fast.pooled.rows(), 3);
      for (std::int64_t v = 0; v < 3; ++v) {
        for (std::int64_t j = 0; j < 5; ++j) {
          EXPECT_EQ(fast.pooled.At(v, j), 0.0f);
        }
      }
    }
  }
}

TEST(SuperstepGatherTest, EmptyLocalIndexBucketsEverythingToSegmentZero) {
  // The MapReduce reduce stage: one key group, no local-index table.
  Rng rng(5);
  MessageBatch b;
  const std::int64_t n = 37, msg_dim = 6;
  b.payload = Tensor::RandomNormal(n, msg_dim, 1.0f, &rng);
  for (std::int64_t i = 0; i < n; ++i) {
    b.dst.push_back(static_cast<NodeId>(rng.NextBounded(1000)));
    b.src.push_back(static_cast<NodeId>(i));
  }
  const std::vector<MessageBatch> batches = {b};
  const std::vector<bool> partial = {false};
  const GatherResult fast = GatherSuperstepInbox(
      AggKind::kSum, msg_dim, batches, partial, {}, 1, BroadcastLookupFn{});
  const GatherResult oracle = ScalarGatherInbox(
      AggKind::kSum, msg_dim, batches, partial, {}, 1, BroadcastLookupFn{});
  ExpectBitIdentical(fast, oracle, msg_dim);
  EXPECT_EQ(fast.counts, (std::vector<std::int64_t>{n}));
}

// Overwrites a sprinkle of the first `width` columns with NaN, +0 and
// -0: the inputs on which a hardware vmaxps/vminps or a reordered add
// would differ from the scalar fold.
void SprinkleSpecialValues(Tensor* t, std::int64_t width, Rng* rng) {
  for (std::int64_t i = 0; i < t->rows(); ++i) {
    float* row = t->RowPtr(i);
    for (std::int64_t j = 0; j < width; ++j) {
      switch (rng->NextBounded(12)) {
        case 0:
          row[j] = std::numeric_limits<float>::quiet_NaN();
          break;
        case 1:
          row[j] = 0.0f;
          break;
        case 2:
          row[j] = -0.0f;
          break;
        default:
          break;
      }
    }
  }
}

// GatherPooledRows cuts its tasks at even shares of the rows, not of
// the segments: one hub segment holds more than a quarter of the rows,
// the cuts of 4 tasks fall on empty segments in one layout and on
// full ones in another, rows come sorted by segment or shuffled,
// partial rows carry counts above 1, and a gather with no rows still
// finalizes every segment (extrema read 0, mean never divides). Each layout matches
// the scalar fold at 1 and 4 tasks, bit for bit.
TEST(SuperstepGatherTest, RowBalancedCutsMatchScalarFold) {
  // Rows per segment: prefix 0, 0, 50, 50, 50, 60, ... over 120 rows,
  // so the cuts of 4 tasks (at 30, 60 and 90 rows) fall on segments 2,
  // 5 and 11, each empty.
  const std::vector<std::int64_t> weights = {0, 50, 0, 0,  10, 0, 10, 0,
                                             10, 0, 10, 0, 10, 0, 10, 0};
  const auto num_nodes = static_cast<std::int64_t>(weights.size());
  std::vector<std::int64_t> prefix(weights.size() + 1, 0);
  for (std::size_t v = 0; v < weights.size(); ++v) {
    prefix[v + 1] = prefix[v] + weights[v];
  }
  for (const std::int64_t t : {1, 2, 3}) {
    const std::int64_t cut = kernels::WeightedRangeBegin(prefix, t, 4);
    EXPECT_EQ(weights[static_cast<std::size_t>(cut)], 0) << "cut " << t;
  }
  EXPECT_EQ(kernels::WeightedRangeBegin(prefix, 4, 4), num_nodes);
  EXPECT_GT(4 * weights[1], prefix.back());

  Rng rng(31);
  // Each layout sorted (a task folds one run of rows) and shuffled (each
  // task scans every row for its own): the one above, one in which every
  // segment holds rows (a cut segment folded by two tasks would count
  // twice), and none at all.
  const std::vector<std::int64_t> no_empty = {3, 50, 2, 1,  10, 4, 10, 2,
                                              10, 3, 10, 1, 10, 2, 10, 5};
  std::vector<std::vector<NodeId>> layouts;
  for (const std::vector<std::int64_t>* rows_per : {&weights, &no_empty}) {
    std::vector<NodeId> sorted;
    for (std::int64_t v = 0; v < num_nodes; ++v) {
      sorted.insert(sorted.end(), static_cast<std::size_t>((*rows_per)[v]), v);
    }
    std::vector<NodeId> shuffled = sorted;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
    }
    layouts.push_back(std::move(sorted));
    layouts.push_back(std::move(shuffled));
  }
  layouts.emplace_back();
  for (const AggKind kind :
       {AggKind::kSum, AggKind::kMean, AggKind::kMax, AggKind::kMin}) {
    for (const std::int64_t width : {std::int64_t{19}, std::int64_t{40}}) {
      for (const bool partial : {false, true}) {
        for (const std::vector<NodeId>& dst : layouts) {
          SCOPED_TRACE(::testing::Message()
                       << "kind " << static_cast<int>(kind) << " width "
                       << width << " partial " << partial << " rows "
                       << dst.size());
          const auto n = static_cast<std::int64_t>(dst.size());
          MessageBatch batch;
          batch.dst = dst;
          batch.src.assign(dst.size(), 0);
          batch.payload = Tensor::RandomNormal(n, width + 1, 2.0f, &rng);
          SprinkleSpecialValues(&batch.payload, width, &rng);
          std::vector<const float*> rows;
          std::vector<std::int64_t> counts;
          for (std::int64_t i = 0; i < n; ++i) {
            float* row = batch.payload.RowPtr(i);
            row[width] = static_cast<float>(1 + rng.NextBounded(3));
            rows.push_back(row);
            if (partial) counts.push_back(static_cast<std::int64_t>(row[width]));
          }
          std::vector<std::int64_t> local_index(
              static_cast<std::size_t>(num_nodes));
          std::iota(local_index.begin(), local_index.end(), 0);
          const std::vector<MessageBatch> batches = {batch};
          const GatherResult oracle = ScalarGatherInbox(
              kind, width, batches, {partial}, local_index, num_nodes,
              BroadcastLookupFn{});
          for (const int threads : {1, 4}) {
            ThreadGuard guard(threads);
            const GatherResult fast = GatherPooledRows(
                kind, width, num_nodes, dst, rows, counts);
            EXPECT_EQ(fast.counts, oracle.counts);
            EXPECT_TRUE(SameBytes(fast.pooled, oracle.pooled));
            if (n == 0) {
              for (std::int64_t i = 0; i < fast.pooled.size(); ++i) {
                ASSERT_EQ(fast.pooled.data()[i], 0.0f);
              }
            }
          }
        }
      }
    }
  }
}

// The one scalar fold both oracles run: rows fold in ascending order,
// a stride of width + 1 leaves the trailing count column untouched, a
// non-empty counts span adds each row's partial count (an empty one
// adds 1 per row), and a segment outside the counts span dies.
TEST(SuperstepGatherTest, ScalarFoldSkipsCountColumnAndAddsPartialCounts) {
  const float a[2] = {1.0f, -4.0f};
  const float b[2] = {3.0f, 2.0f};
  const std::vector<std::int64_t> segs = {1, 0, 1};
  const std::vector<const float*> rows = {a, b, b};
  const std::vector<std::int64_t> partial_counts = {2, 5, 3};
  const struct {
    AggKind kind;
    std::vector<float> seg1;
  } cases[] = {{AggKind::kSum, {4.0f, -2.0f}},
               {AggKind::kMax, {3.0f, 2.0f}},
               {AggKind::kMin, {1.0f, -4.0f}}};
  for (const auto& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.kind));
    Tensor acc = Tensor::Full(2, 3, PooledInitValue(c.kind));
    acc.RowPtr(0)[2] = 7.5f;
    acc.RowPtr(1)[2] = 7.5f;
    std::vector<std::int64_t> seg_counts(2, 0);
    ScalarPooledFold(c.kind, 2, 3, segs, rows, partial_counts, acc.data(),
                     seg_counts);
    EXPECT_EQ(seg_counts, (std::vector<std::int64_t>{5, 5}));
    EXPECT_EQ(std::vector<float>(acc.RowPtr(0), acc.RowPtr(0) + 3),
              (std::vector<float>{3.0f, 2.0f, 7.5f}));
    EXPECT_EQ(std::vector<float>(acc.RowPtr(1), acc.RowPtr(1) + 2), c.seg1);
    EXPECT_EQ(acc.RowPtr(1)[2], 7.5f);
    ScalarPooledFold(c.kind, 2, 3, segs, rows, {}, acc.data(), seg_counts);
    EXPECT_EQ(seg_counts, (std::vector<std::int64_t>{6, 7}));
  }
  std::vector<std::int64_t> seg_counts(1, 0);
  float acc[3] = {};
  EXPECT_DEATH(ScalarPooledFold(AggKind::kSum, 2, 3, segs, rows, {}, acc,
                                seg_counts),
               "fold segment 1 out of \\[0,1\\)");
}

// The one combine against the scalar combine oracle, bit for bit,
// including first-seen emission order: CombineBatch over the
// materialized batch (through its dense slot table, and through its
// hash map when destination ids are sparse) and CombineRows over
// repeated, unsorted pointers into the message table. Each compiled
// PtrRowFold variant is held to the oracle's rows at out_stride =
// width, in two segment ranges as two receive tasks would fold, and at
// width + 1, the combine's wire stride, where it must leave the count
// column alone.
TEST(SuperstepGatherTest, CombineMatchesPerRowFoldAndEmissionOrder) {
  Rng rng(909);
  for (const AggKind kind :
       {AggKind::kSum, AggKind::kMean, AggKind::kMax, AggKind::kMin}) {
    const kernels::detail::FoldOp op = PooledFoldOp(kind);
    std::vector<kernels::detail::PtrRowFoldFn> variants = {
        op == kernels::detail::FoldOp::kMax
            ? kernels::detail::PtrRowFoldMaxPortable
        : op == kernels::detail::FoldOp::kMin
            ? kernels::detail::PtrRowFoldMinPortable
            : kernels::detail::PtrRowFoldAddPortable};
    if (kernels::detail::Avx2KernelsAvailable()) {
      variants.push_back(op == kernels::detail::FoldOp::kMax
                             ? kernels::detail::PtrRowFoldMaxAvx2
                         : op == kernels::detail::FoldOp::kMin
                             ? kernels::detail::PtrRowFoldMinAvx2
                             : kernels::detail::PtrRowFoldAddAvx2);
    }
    for (const bool sparse : {false, true}) {
      for (const std::int64_t width : {1, 7, 8, 9, 65}) {
        SCOPED_TRACE(testing::Message()
                     << "kind " << static_cast<int>(kind) << " sparse "
                     << sparse << " width " << width);
        Tensor messages = Tensor::RandomNormal(60, width, 2.0f, &rng);
        SprinkleSpecialValues(&messages, width, &rng);
        // Edge i carries message row row_index[i] (repeated, unsorted)
        // to dst[i]; the batch holds those rows materialized. Sparse
        // ids lie past CombineBatch's dense-table bound of 4n + 1024.
        const std::int64_t n = 150;
        std::vector<const float*> row_ptrs;
        MessageBatch batch;
        batch.payload = Tensor(n, width);
        for (std::int64_t i = 0; i < n; ++i) {
          const auto r = static_cast<std::int64_t>(
              rng.NextBounded(static_cast<std::uint64_t>(messages.rows())));
          row_ptrs.push_back(messages.RowPtr(r));
          batch.payload.SetRow(i, messages.RowPtr(r));
          const auto d = static_cast<NodeId>(rng.NextBounded(25));
          batch.dst.push_back(sparse ? 4 * n + 1024 + 1000003 * d : d);
          batch.src.push_back(static_cast<NodeId>(i));
        }
        // Slots in first-seen destination order, as a caller that
        // resolves them itself would produce.
        std::vector<NodeId> dst_order;
        std::vector<std::int64_t> slots;
        std::unordered_map<NodeId, std::int64_t> slot_of;
        for (const NodeId d : batch.dst) {
          const auto [it, inserted] = slot_of.try_emplace(
              d, static_cast<std::int64_t>(dst_order.size()));
          if (inserted) dst_order.push_back(d);
          slots.push_back(it->second);
        }

        const MessageBatch wire_oracle =
            ScalarCombine(kind, width, batch.dst, row_ptrs, 9);
        EXPECT_EQ(wire_oracle.dst, dst_order);

        const auto expect_matches_oracle = [&](const MessageBatch& wire) {
          // dst equality covers first-seen EMISSION order, not just
          // content.
          EXPECT_EQ(wire.dst, wire_oracle.dst);
          EXPECT_EQ(wire.src, wire_oracle.src);
          EXPECT_TRUE(SameBytes(wire.payload, wire_oracle.payload));
        };
        expect_matches_oracle(CombineBatch(kind, batch, 9));
        expect_matches_oracle(
            CombineRows(kind, width, dst_order, slots, row_ptrs, 9));

        const float init = PooledInitValue(kind);
        const auto num_slots = static_cast<std::int64_t>(dst_order.size());
        for (const kernels::detail::PtrRowFoldFn fold : variants) {
          Tensor rows = Tensor::Full(num_slots, width, init);
          fold(rows.data(), width, width, slots.data(), row_ptrs.data(), n, 0,
               num_slots / 2);
          fold(rows.data(), width, width, slots.data(), row_ptrs.data(), n,
               num_slots / 2, num_slots);
          Tensor strided = Tensor::Full(num_slots, width + 1, init);
          fold(strided.data(), width, width + 1, slots.data(), row_ptrs.data(),
               n, 0, num_slots);
          for (std::int64_t s = 0; s < num_slots; ++s) {
            EXPECT_TRUE(SameBytes(rows.RowPtr(s),
                                  wire_oracle.payload.RowPtr(s), width))
                << "stride " << width << " slot " << s;
            EXPECT_TRUE(SameBytes(strided.RowPtr(s),
                                  wire_oracle.payload.RowPtr(s), width))
                << "stride " << width + 1 << " slot " << s;
            EXPECT_TRUE(SameBytes(strided.RowPtr(s) + width, &init, 1))
                << "count column of slot " << s;
          }
        }
      }
    }
  }
}

// The combine folds through raw row pointers into its own payload, so
// its slot-range and length checks are all that stands between a bad
// slot and an out-of-bounds write.
TEST(SuperstepGatherTest, CombineRowsChecksSlotsAndLengths) {
  const float row[2] = {1.0f, 2.0f};
  const std::vector<NodeId> dst_order = {4, 7};
  const std::vector<const float*> two_rows = {row, row};
  const std::vector<const float*> one_row = {row};
  for (const AggKind kind :
       {AggKind::kSum, AggKind::kMean, AggKind::kMax, AggKind::kMin}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const std::vector<std::int64_t> past_end = {0, 2};
    const std::vector<std::int64_t> negative = {-1};
    const std::vector<std::int64_t> in_range = {0, 1};
    EXPECT_DEATH(CombineRows(kind, 2, dst_order, past_end, two_rows, 0),
                 "combine slot 2 out of \\[0,2\\)");
    EXPECT_DEATH(CombineRows(kind, 2, dst_order, negative, one_row, 0),
                 "combine slot -1 out of \\[0,2\\)");
    EXPECT_DEATH(CombineRows(kind, 2, dst_order, in_range, one_row, 0),
                 "combine has 2 slots for 1 rows");
  }
}

// The receive range-checks every segment before it folds: a batch
// whose destination maps outside [0, num_nodes) dies, whatever the
// kind.
TEST(SuperstepGatherTest, DestinationOutsideTheWorkerDies) {
  MessageBatch b;
  b.payload = Tensor::FromRows({{1, 2}, {3, 4}});
  b.dst = {0, 1};
  b.src = {7, 8};
  const std::vector<MessageBatch> batches = {b};
  const std::vector<bool> partial = {false};
  const std::vector<std::int64_t> local_index = {0, 5};
  for (const AggKind kind : {AggKind::kSum, AggKind::kMean, AggKind::kMax,
                             AggKind::kMin, AggKind::kUnion}) {
    SCOPED_TRACE(static_cast<int>(kind));
    EXPECT_DEATH(GatherSuperstepInbox(kind, 2, batches, partial, local_index,
                                      2, BroadcastLookupFn{}),
                 "gather dst index 5 out of \\[0,2\\)");
  }
}

// The union receive copies nothing, so its range and length checks are
// all that stands between a bad segment and an out-of-bounds apply.
TEST(SuperstepGatherTest, UnionRowsCheckSegmentsAndLengths) {
  const float row[2] = {1.0f, 2.0f};
  EXPECT_DEATH(GatherUnionRows(2, {0, 2}, {row, row}),
               "gather dst index 2 out of \\[0,2\\)");
  EXPECT_DEATH(GatherUnionRows(2, {-1}, {row}),
               "gather dst index -1 out of \\[0,2\\)");
  EXPECT_DEATH(GatherUnionRows(2, {0, 1}, {row}),
               "union gather has 2 segments for 1 rows");
  EXPECT_DEATH(GatherUnionRows(2, {0}, {row, row}),
               "union gather has 1 segments for 2 rows");
}

TEST(SuperstepGatherTest, SegmentExtremaMatchPinnedReference) {
  Rng rng(42);
  const std::int64_t rows = 700, cols = 13, segments = 50;
  // Shift everything negative so a buggy zero-init would surface in max.
  Tensor values = Tensor::RandomNormal(rows, cols, 1.0f, &rng);
  for (std::int64_t i = 0; i < values.size(); ++i) {
    values.data()[i] -= 5.0f;
  }
  // Three id draws: uniform (the filtered scan), sorted by destination
  // (one run of rows per task), and a hub segment holding two rows in
  // three.
  enum class Draw { kUniform, kSorted, kHub };
  for (const Draw draw : {Draw::kUniform, Draw::kSorted, Draw::kHub}) {
    SCOPED_TRACE(static_cast<int>(draw));
    std::vector<std::int64_t> ids(static_cast<std::size_t>(rows));
    // Leave segments [40, 50) empty: they must read neutral zero.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<std::int64_t>(rng.NextBounded(40));
      if (draw == Draw::kHub && i % 3 != 0) ids[i] = 20;
    }
    if (draw == Draw::kSorted) std::sort(ids.begin(), ids.end());
    const Tensor ref_max =
        kernels::reference::SegmentMax(values, ids, segments);
    const Tensor ref_min =
        kernels::reference::SegmentMin(values, ids, segments);
    for (const int threads : {1, 4}) {
      ThreadGuard guard(threads);
      EXPECT_TRUE(kernels::SegmentMax(values, ids, segments)
                      .ApproxEquals(ref_max, 0.0f));
      EXPECT_TRUE(kernels::SegmentMin(values, ids, segments)
                      .ApproxEquals(ref_min, 0.0f));
    }
    for (std::int64_t s = 40; s < segments; ++s) {
      for (std::int64_t j = 0; j < cols; ++j) {
        EXPECT_EQ(ref_max.At(s, j), 0.0f);
        EXPECT_EQ(ref_min.At(s, j), 0.0f);
      }
    }
  }
}

}  // namespace
}  // namespace inferturbo
