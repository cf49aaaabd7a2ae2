#include "src/mapreduce/mapreduce_engine.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/io_fault.h"
#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/nn/model.h"
#include "src/nn/sage_conv.h"
#include "src/runtime/task_supervisor.h"
#include "src/tensor/kernels/row_fold.h"

namespace inferturbo {
namespace {

constexpr std::size_t kBlock = MapReduceJob::kReduceBlockKeys;

/// Every output record as (key, first float) — enough for the
/// single-float jobs below.
std::map<std::int64_t, float> FirstFloats(std::vector<MrBlock> blocks) {
  std::map<std::int64_t, float> out;
  for (const MrBlock& block : blocks) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      out[block.key(i)] = block.record(i).floats[0];
    }
  }
  return out;
}

TEST(MapReduceEngineTest, WordCountStyleAggregation) {
  // Map emits (key % 5, 1); reduce sums. 100 records -> 5 keys of 20.
  MapReduceJob::Options options;
  options.num_instances = 4;
  MapReduceJob job(options);
  job.RunMap([](std::int64_t instance, MrEmitter* emitter) {
    const float one = 1.0f;
    for (std::int64_t i = 0; i < 25; ++i) {
      emitter->Emit((instance * 25 + i) % 5, 0, -1, {&one, 1});
    }
  });
  job.RunReduce(
      [](const MrKeyGroups& groups, MrEmitter* emitter) {
        for (std::size_t g = 0; g < groups.size(); ++g) {
          float sum = 0.0f;
          for (const MrRecord v : groups.values(g)) sum += v.floats[0];
          emitter->Emit(groups.key(g), 0, -1, {&sum, 1});
        }
      });
  const std::map<std::int64_t, float> result = FirstFloats(job.TakeOutputs());
  ASSERT_EQ(result.size(), 5u);
  for (const auto& [key, sum] : result) EXPECT_EQ(sum, 20.0f);
}

TEST(MapReduceEngineTest, ValuesArriveInProducerOrder) {
  MapReduceJob::Options options;
  options.num_instances = 3;
  MapReduceJob job(options);
  job.RunMap([](std::int64_t instance, MrEmitter* emitter) {
    for (int i = 0; i < 2; ++i) emitter->Emit(0, 0, instance * 10 + i);
  });
  std::vector<NodeId> order;
  job.RunReduce(
      [&order](const MrKeyGroups& groups, MrEmitter*) {
        for (const MrRecord v : groups.values(0)) order.push_back(v.src);
      });
  EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 10, 11, 20, 21}));
}

TEST(MapReduceEngineTest, AllShuffleTrafficIsCharged) {
  // Unlike Pregel, local delivery also pays (external-storage model).
  MapReduceJob::Options options;
  options.num_instances = 2;
  MapReduceJob job(options);
  job.RunMap([](std::int64_t instance, MrEmitter* emitter) {
    if (instance != 0) return;
    const float row[] = {1.0f, 2.0f};
    emitter->Emit(0, 0, -1, row);  // lands wherever key 0 hashes
  });
  job.RunReduce([](const MrKeyGroups&, MrEmitter*) {});
  std::uint64_t out = 0, in = 0;
  for (const auto& w : job.metrics().workers) {
    out += w.Total().bytes_out;
    in += w.Total().bytes_in;
  }
  EXPECT_GT(out, 0u);
  EXPECT_EQ(out, in);
}

TEST(MapReduceEngineTest, MultiRoundChainingPreservesData) {
  MapReduceJob::Options options;
  options.num_instances = 3;
  MapReduceJob job(options);
  job.RunMap([](std::int64_t instance, MrEmitter* emitter) {
    const float value = static_cast<float>(instance);
    emitter->Emit(instance, 0, -1, {&value, 1});
  });
  // Each round forwards key -> key+1 with value+10.
  for (int round = 0; round < 3; ++round) {
    job.RunReduce(
        [](const MrKeyGroups& groups, MrEmitter* emitter) {
          for (std::size_t g = 0; g < groups.size(); ++g) {
            for (const MrRecord v : groups.values(g)) {
              const float next = v.floats[0] + 10.0f;
              emitter->Emit(groups.key(g) + 1, 0, -1, {&next, 1});
            }
          }
        });
  }
  std::map<std::int64_t, float> result = FirstFloats(job.TakeOutputs());
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[3], 30.0f);
  EXPECT_EQ(result[4], 31.0f);
  EXPECT_EQ(result[5], 32.0f);
}

TEST(MapReduceEngineTest, MetricsTrackOneStepPerStage) {
  MapReduceJob::Options options;
  options.num_instances = 2;
  MapReduceJob job(options);
  job.RunMap([](std::int64_t, MrEmitter*) {});
  job.RunReduce([](const MrKeyGroups&, MrEmitter*) {});
  job.RunReduce([](const MrKeyGroups&, MrEmitter*) {});
  EXPECT_EQ(job.metrics().num_steps(), 3);
}

TEST(MapReduceEngineTest, PeakResidentTracksLargestKeyGroup) {
  // The accounting is per key group, not per reduce block: a block of
  // many small groups does not count as one resident group.
  const float row[] = {1.0f, 2.0f};
  const MrRecord sample{0, -1, row, {}};
  for (const std::size_t small_keys : {std::size_t{1}, 3 * kBlock}) {
    MapReduceJob::Options options;
    options.num_instances = 1;
    MapReduceJob job(options);
    job.RunMap([&](std::int64_t, MrEmitter* emitter) {
      // Keys 0..small_keys-1: one record each; key -1: ten records.
      for (std::size_t k = 0; k < small_keys; ++k) {
        emitter->Emit(static_cast<std::int64_t>(k), 0, -1, row);
      }
      for (int i = 0; i < 10; ++i) emitter->Emit(-1, 0, -1, row);
    });
    job.RunReduce([](const MrKeyGroups&, MrEmitter*) {});
    EXPECT_EQ(job.metrics().PeakResidentBytes(), 10 * sample.WireBytes());
  }
}

TEST(MrRecordTest, WireBytesCountAllFields) {
  const float floats[] = {1.0f, 2.0f};
  const std::int64_t ids[] = {1, 2, 3};
  const MrRecord v{0, -1, floats, ids};
  EXPECT_EQ(v.WireBytes(),
            kMessageHeaderBytes + sizeof(std::int32_t) + sizeof(NodeId) +
                2 * sizeof(float) + 3 * sizeof(std::int64_t));
}

TEST(MrEmitterTest, RecordsSpanBlocksWithoutCopyingPayloads) {
  // Enough records to fill several blocks, with payloads of mixed width
  // including one wider than any default block.
  MrEmitter emitter;
  std::vector<std::int64_t> wide(100000);
  for (std::size_t i = 0; i < wide.size(); ++i) {
    wide[i] = static_cast<std::int64_t>(i);
  }
  const float* first_payload = nullptr;
  for (int i = 0; i < 5000; ++i) {
    std::vector<float> floats(static_cast<std::size_t>(i % 70),
                              static_cast<float>(i));
    if (i == 0) {
      first_payload = emitter.Append(i, 2, -i, 0, 0).floats.data();
    } else if (i == 2500) {
      emitter.Emit(i, 1, i, floats, wide);
    } else {
      emitter.Emit(i, 2, -i, floats);
    }
  }
  EXPECT_EQ(emitter.size(), 5000u);
  const std::vector<MrBlock> blocks = emitter.TakeBlocks();
  EXPECT_GT(blocks.size(), 3u);
  // Later appends never moved an earlier record's payload.
  EXPECT_EQ(blocks[0].record(0).floats.data(), first_payload);
  std::int64_t expected = 0;
  for (const MrBlock& block : blocks) {
    for (std::size_t i = 0; i < block.size(); ++i, ++expected) {
      ASSERT_EQ(block.key(i), expected);
      const MrRecord record = block.record(i);
      ASSERT_EQ(record.floats.size(), static_cast<std::size_t>(expected % 70));
      for (const float f : record.floats) {
        ASSERT_EQ(f, static_cast<float>(expected));
      }
      if (expected == 2500) {
        EXPECT_EQ(record.tag, 1);
        ASSERT_EQ(record.ids.size(), wide.size());
        EXPECT_EQ(record.ids.back(), 99999);
      } else {
        EXPECT_EQ(record.tag, 2);
        EXPECT_EQ(record.src, -expected);
        EXPECT_TRUE(record.ids.empty());
      }
    }
  }
  EXPECT_EQ(expected, 5000);
  EXPECT_EQ(emitter.size(), 0u);
}

// --- folding at emission ------------------------------------------------

/// The row folds' scalar semantics (row_fold.h), applied one row at a
/// time: the reference every EmitFolded result must match byte for byte.
void ReferenceFold(kernels::detail::FoldOp op, float* acc, const float* row,
                   std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    switch (op) {
      case kernels::detail::FoldOp::kAdd:
        acc[j] += row[j];
        break;
      case kernels::detail::FoldOp::kMax:
        acc[j] = (acc[j] < row[j]) ? row[j] : acc[j];
        break;
      case kernels::detail::FoldOp::kMin:
        acc[j] = (row[j] < acc[j]) ? row[j] : acc[j];
        break;
    }
  }
}

TEST(MrEmitterFoldTest, FoldsMatchASequentialPerKeyFold) {
  using kernels::detail::FoldOp;
  const std::pair<FoldOp, MrFoldFn> kinds[] = {
      {FoldOp::kAdd, kernels::detail::RowAdd()},
      {FoldOp::kMax, kernels::detail::RowMax()},
      {FoldOp::kMin, kernels::detail::RowMin()},
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& [op, fold] : kinds) {
    for (const std::size_t width : {1, 7, 8, 9, 65}) {
      SCOPED_TRACE(testing::Message() << "op " << static_cast<int>(op)
                                      << " width " << width);
      MrEmitter emitter;
      std::map<std::int64_t, std::pair<std::vector<float>, std::int64_t>>
          expected;
      std::uint64_t state = 12345 + width;
      const auto next = [&state] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<std::uint32_t>(state >> 33);
      };
      for (int i = 0; i < 400; ++i) {
        // Repeated, unsorted keys; values mix NaN, both zeros, repeats.
        const std::int64_t key = static_cast<std::int64_t>(next() % 37) * 3;
        std::vector<float> row(width);
        for (float& f : row) {
          switch (next() % 8) {
            case 0: f = nan; break;
            case 1: f = 0.0f; break;
            case 2: f = -0.0f; break;
            case 3: f = 1.5f; break;
            default:
              f = static_cast<float>(static_cast<std::int32_t>(next() % 2001) -
                                     1000) /
                  64.0f;
          }
        }
        emitter.EmitFolded(key, 4, row, fold);
        auto [it, opened] = expected.try_emplace(key, row, 1);
        if (!opened) {
          ReferenceFold(op, it->second.first.data(), row.data(), width);
          ++it->second.second;
        }
      }
      EXPECT_EQ(emitter.size(), expected.size());
      std::size_t seen = 0;
      for (const MrBlock& block : emitter.TakeBlocks()) {
        for (std::size_t i = 0; i < block.size(); ++i, ++seen) {
          const MrRecord record = block.record(i);
          const auto& [floats, count] = expected.at(block.key(i));
          EXPECT_EQ(record.tag, 4);
          EXPECT_EQ(record.src, -1);
          ASSERT_EQ(record.floats.size(), width);
          EXPECT_EQ(std::memcmp(record.floats.data(), floats.data(),
                                width * sizeof(float)),
                    0)
              << "key " << block.key(i);
          ASSERT_EQ(record.ids.size(), 1u);
          EXPECT_EQ(record.ids[0], count);
        }
      }
      EXPECT_EQ(seen, expected.size());
    }
  }
}

TEST(MrEmitterFoldTest, FoldedRecordsFollowEveryPlainRecord) {
  MrEmitter emitter;
  const float one = 1.0f;
  // Enough of both kinds to span several blocks of each run.
  for (std::int64_t i = 0; i < 3000; ++i) {
    emitter.Emit(i % 50, 1, i);
    emitter.EmitFolded(i % 70, 9, {&one, 1}, kernels::detail::RowAdd());
  }
  EXPECT_EQ(emitter.size(), 3000u + 70u);
  std::int64_t plain = 0;
  std::int64_t folded = 0;
  for (const MrBlock& block : emitter.TakeBlocks()) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      const MrRecord record = block.record(i);
      if (record.tag == 1) {
        ASSERT_EQ(folded, 0) << "plain record after a folded one";
        EXPECT_EQ(record.src, plain);  // plain records keep emission order
        ++plain;
      } else {
        ASSERT_EQ(record.tag, 9);
        // Keys open in first-emission order, 0..69.
        EXPECT_EQ(block.key(i), folded);
        EXPECT_EQ(record.floats[0], static_cast<float>(record.ids[0]));
        ++folded;
      }
    }
  }
  EXPECT_EQ(plain, 3000);
  EXPECT_EQ(folded, 70);
}

TEST(MrEmitterFoldTest, ExtremeKeysFoldWithoutALargeAllocation) {
  // A key indexing the dense table directly would need 2^40 slots; the
  // fold must hash such keys (and negative ones) instead.
  const std::size_t heap_before = mallinfo2().uordblks;
  MrEmitter emitter;
  const std::int64_t far = std::int64_t{1} << 40;
  const float row[] = {2.0f, -1.0f};
  for (int i = 0; i < 3; ++i) {
    emitter.EmitFolded(far, 4, row, kernels::detail::RowAdd());
    emitter.EmitFolded(-1, 4, row, kernels::detail::RowMax());
  }
  EXPECT_LT(mallinfo2().uordblks, heap_before + (std::size_t{1} << 20));
  std::map<std::int64_t, MrRecord> records;
  const std::vector<MrBlock> blocks = emitter.TakeBlocks();
  for (const MrBlock& block : blocks) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      records[block.key(i)] = block.record(i);
    }
  }
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[far].floats[0], 6.0f);
  EXPECT_EQ(records[far].floats[1], -3.0f);
  EXPECT_EQ(records[far].ids[0], 3);
  EXPECT_EQ(records[-1].floats[0], 2.0f);
  EXPECT_EQ(records[-1].ids[0], 3);
}

TEST(MrEmitterFoldTest, KeyOpenedBeforeTheTableReachedItKeepsOneRecord) {
  // Key 5000 is past the dense table's reach while few records exist,
  // and inside it once many do: both phases fold into one record.
  MrEmitter emitter;
  const float one = 1.0f;
  emitter.EmitFolded(5000, 4, {&one, 1}, kernels::detail::RowAdd());
  for (std::int64_t i = 0; i < 2000; ++i) emitter.Emit(i, 1, -1);
  emitter.EmitFolded(5000, 4, {&one, 1}, kernels::detail::RowAdd());
  emitter.EmitFolded(4999, 4, {&one, 1}, kernels::detail::RowAdd());
  emitter.EmitFolded(5000, 4, {&one, 1}, kernels::detail::RowAdd());
  std::map<std::int64_t, std::int64_t> counts;
  for (const MrBlock& block : emitter.TakeBlocks()) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      if (block.record(i).tag == 4) {
        ASSERT_EQ(counts.count(block.key(i)), 0u) << "key folded twice";
        counts[block.key(i)] = block.record(i).ids[0];
      }
    }
  }
  EXPECT_EQ(counts, (std::map<std::int64_t, std::int64_t>{{4999, 1},
                                                          {5000, 3}}));
}

TEST(MrEmitterFoldTest, WidthMismatchOnOneKeyDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const float row[] = {1.0f, 2.0f, 3.0f};
  EXPECT_DEATH(
      {
        MrEmitter emitter;
        emitter.EmitFolded(7, 4, std::span<const float>(row, 3),
                           kernels::detail::RowAdd());
        emitter.EmitFolded(8, 4, std::span<const float>(row, 2),
                           kernels::detail::RowAdd());
        emitter.EmitFolded(7, 4, std::span<const float>(row, 2),
                           kernels::detail::RowAdd());
      },
      "folded row for key 7 has 2 floats, its partial has 3");
}

TEST(MrEmitterFoldTest, TakeBlocksResetsTheFoldState) {
  MrEmitter emitter;
  const float first[] = {1.0f, 2.0f};
  const float second[] = {5.0f};
  emitter.EmitFolded(3, 4, first, kernels::detail::RowAdd());
  emitter.EmitFolded(3, 4, first, kernels::detail::RowAdd());
  ASSERT_EQ(emitter.TakeBlocks().size(), 1u);
  EXPECT_EQ(emitter.size(), 0u);
  // A fresh record, of a new width, with a fresh count.
  emitter.EmitFolded(3, 4, second, kernels::detail::RowAdd());
  const std::vector<MrBlock> blocks = emitter.TakeBlocks();
  ASSERT_EQ(blocks.size(), 1u);
  ASSERT_EQ(blocks[0].size(), 1u);
  const MrRecord record = blocks[0].record(0);
  ASSERT_EQ(record.floats.size(), 1u);
  EXPECT_EQ(record.floats[0], 5.0f);
  EXPECT_EQ(record.ids[0], 1);
}

TEST(MrEmitterFoldTest, FoldingShrinksShuffleBytes) {
  const auto run = [](bool fold) {
    MapReduceJob::Options options;
    options.num_instances = 2;
    MapReduceJob job(options);
    job.RunMap([fold](std::int64_t, MrEmitter* emitter) {
      const float one = 1.0f;
      for (int i = 0; i < 50; ++i) {
        if (fold) {
          emitter->EmitFolded(7, 0, {&one, 1}, kernels::detail::RowAdd());
        } else {
          emitter->Emit(7, 0, -1, {&one, 1});
        }
      }
    });
    float total = 0.0f;
    std::int64_t rows = 0;
    job.RunReduce([&](const MrKeyGroups& groups, MrEmitter*) {
      for (const MrRecord v : groups.values(0)) {
        total += v.floats[0];
        rows += v.ids.empty() ? 1 : v.ids[0];
      }
    });
    std::uint64_t shuffle_bytes = 0;
    for (const auto& w : job.metrics().workers) {
      shuffle_bytes += w.Total().bytes_out;
    }
    EXPECT_EQ(total, 100.0f);  // folding never changes the answer
    EXPECT_EQ(rows, 100);
    return shuffle_bytes;
  };
  EXPECT_LT(run(true), run(false) / 10);
}

// --- block-boundary coverage -------------------------------------------

/// The first `count` keys that instance 0 of `instances` owns.
std::vector<std::int64_t> KeysOwnedByInstanceZero(std::size_t count,
                                                  std::int64_t instances) {
  std::vector<std::int64_t> keys;
  for (std::int64_t k = 0; keys.size() < count; ++k) {
    if (MapReduceJob::InstanceForKey(k, instances) == 0) keys.push_back(k);
  }
  return keys;
}

TEST(MapReduceBlockTest, KeyGroupsArriveAscendingAcrossBlockEdges) {
  constexpr std::int64_t kInstances = 3;
  for (const std::size_t num_keys :
       {std::size_t{1}, kBlock - 1, kBlock, kBlock + 1}) {
    SCOPED_TRACE(num_keys);
    const std::vector<std::int64_t> keys =
        KeysOwnedByInstanceZero(num_keys, kInstances);
    MapReduceJob::Options options;
    options.num_instances = kInstances;
    MapReduceJob job(options);
    // Every producer emits two values per key, walking the keys in
    // descending order so the shuffle's sort has work to do; src
    // encodes (producer, emission index).
    job.RunMap([&](std::int64_t instance, MrEmitter* emitter) {
      std::int64_t emitted = 0;
      for (int pass = 0; pass < 2; ++pass) {
        for (auto k = keys.rbegin(); k != keys.rend(); ++k) {
          emitter->Emit(*k, 0, instance * 100000 + emitted++);
        }
      }
    });
    std::mutex mu;
    std::vector<std::size_t> block_sizes;
    std::vector<std::int64_t> seen_keys;
    std::map<std::int64_t, std::vector<NodeId>> values;
    ASSERT_TRUE(job.RunReduce([&](const MrKeyGroups& groups, MrEmitter*) {
                     std::lock_guard<std::mutex> lock(mu);
                     block_sizes.push_back(groups.size());
                     for (std::size_t g = 0; g < groups.size(); ++g) {
                       seen_keys.push_back(groups.key(g));
                       for (const MrRecord v : groups.values(g)) {
                         values[groups.key(g)].push_back(v.src);
                       }
                     }
                   })
                    .ok());
    // Only instance 0 owns keys, so one task produced every call.
    const std::size_t full_blocks = num_keys / kBlock;
    const std::size_t tail = num_keys % kBlock;
    ASSERT_EQ(block_sizes.size(), full_blocks + (tail > 0 ? 1 : 0));
    for (std::size_t b = 0; b < block_sizes.size(); ++b) {
      EXPECT_EQ(block_sizes[b], b < full_blocks ? kBlock : tail);
    }
    EXPECT_EQ(seen_keys, keys);  // ascending, each key exactly once
    for (std::size_t i = 0; i < keys.size(); ++i) {
      // Producer order, then emission order: the descending walk put
      // key i at emission (num_keys - 1 - i) and (2 num_keys - 1 - i).
      std::vector<NodeId> expected;
      for (std::int64_t p = 0; p < kInstances; ++p) {
        const std::int64_t first = static_cast<std::int64_t>(num_keys - 1 - i);
        expected.push_back(p * 100000 + first);
        expected.push_back(p * 100000 + first +
                           static_cast<std::int64_t>(num_keys));
      }
      EXPECT_EQ(values[keys[i]], expected) << "key " << keys[i];
    }
  }
}

TEST(MapReduceBlockTest, SupervisedDuplicateAttemptsSeeIdenticalInputs) {
  // The first reduce call of the run stalls long enough for a
  // speculative backup of its task to start; both attempts then reduce
  // concurrently over the same shared input blocks and must see
  // identical key groups, value by value.
  constexpr std::int64_t kInstances = 2;
  const auto map_fn = [](std::int64_t instance, MrEmitter* emitter) {
    for (std::int64_t i = 0; i < 700; ++i) {
      const float row[] = {static_cast<float>(i), static_cast<float>(instance)};
      const std::int64_t ids[] = {instance, i};
      emitter->Emit((i * 7919) % 601, static_cast<std::int32_t>(i % 3),
                    instance * 1000 + i, row, ids);
    }
  };
  std::mutex mu;
  // First key of a block -> a digest of every call that reduced it.
  std::map<std::int64_t, std::vector<std::uint32_t>> digests;
  std::atomic<bool> stalled{false};
  const auto reduce_fn = [&](const MrKeyGroups& groups, MrEmitter* emitter) {
    if (!stalled.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    std::uint32_t crc = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::int64_t key = groups.key(g);
      crc = Crc32(&key, sizeof(key), crc);
      for (const MrRecord v : groups.values(g)) {
        crc = Crc32(&v.tag, sizeof(v.tag), crc);
        crc = Crc32(&v.src, sizeof(v.src), crc);
        crc = Crc32(v.floats.data(), v.floats.size_bytes(), crc);
        crc = Crc32(v.ids.data(), v.ids.size_bytes(), crc);
        emitter->Emit(key, v.tag, v.src, v.floats, v.ids);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    digests[groups.key(0)].push_back(crc);
  };

  MapReduceJob::Options plain_options;
  plain_options.num_instances = kInstances;
  MapReduceJob plain(plain_options);
  ASSERT_TRUE(plain.RunMap(map_fn).ok());
  stalled = true;  // no stall for the reference run
  ASSERT_TRUE(plain.RunReduce(reduce_fn).ok());
  digests.clear();
  stalled = false;

  ThreadPool pool(4);
  TaskSupervisionOptions supervision;
  supervision.pool = &pool;
  supervision.speculative_execution = true;
  supervision.speculation_delay_seconds = 0.01;
  TaskSupervisor supervisor(supervision);
  MapReduceJob::Options options = plain_options;
  options.pool = &pool;
  options.supervisor = &supervisor;
  MapReduceJob job(options);
  ASSERT_TRUE(job.RunMap(map_fn).ok());
  ASSERT_TRUE(job.RunReduce(reduce_fn).ok());

  EXPECT_GE(supervisor.metrics().speculative_launched, 1);
  bool duplicated = false;
  for (const auto& [first_key, crcs] : digests) {
    duplicated = duplicated || crcs.size() > 1;
    for (const std::uint32_t crc : crcs) {
      EXPECT_EQ(crc, crcs[0]) << "block starting at key " << first_key;
    }
  }
  EXPECT_TRUE(duplicated) << "no block was reduced by two attempts";
  // Whichever attempt won, the committed dataflow is the plain job's,
  // byte for byte.
  EXPECT_EQ(job.SerializeDataflow(), plain.SerializeDataflow());
}

// --- golden byte formats ------------------------------------------------
// The spill-block and checkpoint encodings, and the logits of a fixed
// job, are pinned by CRC32: any change to the dataflow representation
// must reproduce them byte for byte.

/// A fixed record set exercising every field: tags, srcs, and float/id
/// payloads of varying (including zero) length, over colliding keys.
void EmitGoldenRecords(std::int64_t instance, MrEmitter* emitter) {
  for (std::int64_t i = 0; i < 12; ++i) {
    std::vector<float> floats;
    for (std::int64_t f = 0; f < i % 4; ++f) {
      floats.push_back(0.25f * static_cast<float>(f) +
                       static_cast<float>(instance * 12 + i));
    }
    std::vector<std::int64_t> ids;
    for (std::int64_t d = 0; d < i % 3; ++d) {
      ids.push_back(instance * 1000 + i * 10 + d);
    }
    emitter->Emit((instance * 7 + i * 5) % 11, static_cast<std::int32_t>(i % 3),
                  instance * 100 + i, floats, ids);
  }
}

/// Forwards every value to key + 1, tagging it with its arrival rank
/// within the key group, so the output bytes pin the reduce order too.
void ForwardReduce(const MrKeyGroups& groups, MrEmitter* emitter) {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::int64_t rank = 0;
    for (const MrRecord v : groups.values(g)) {
      const MrRecordSlot slot = emitter->Append(
          groups.key(g) + 1, v.tag, v.src, v.floats.size(), v.ids.size() + 1);
      std::copy(v.floats.begin(), v.floats.end(), slot.floats.begin());
      std::copy(v.ids.begin(), v.ids.end(), slot.ids.begin());
      slot.ids.back() = rank++;
    }
  }
}

/// Records the CRC32 of every spill block at the moment the reducer
/// reads it; faults are never injected.
class SpillRecorder : public IoFaultInjector {
 public:
  IoFaultKind Tick(IoOp op, const std::string& path) override {
    if (op == IoOp::kRead && path.ends_with(".blk")) {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      // A CRC over bytes that end in their own CRC is a constant, so
      // checksum the block without its trailer.
      const std::string block = bytes.str();
      const std::string_view body(block.data(),
                                  block.size() - sizeof(std::uint32_t));
      std::lock_guard<std::mutex> lock(mu_);
      crcs_[std::filesystem::path(path).filename().string()] = Crc32(body);
    }
    return IoFaultKind::kNone;
  }
  /// One CRC over "name=crc;" for every block, in name order.
  std::uint32_t Digest() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string joined;
    for (const auto& [name, crc] : crcs_) {
      joined += name + "=" + std::to_string(crc) + ";";
    }
    return Crc32(joined);
  }
  std::size_t blocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return crcs_.size();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint32_t> crcs_;
};

TEST(MapReduceGoldenTest, CheckpointBytesArePinned) {
  MapReduceJob::Options options;
  options.num_instances = 3;
  MapReduceJob job(options);
  ASSERT_TRUE(job.RunMap(EmitGoldenRecords).ok());
  const std::string mapped = job.SerializeDataflow();
  EXPECT_EQ(Crc32(mapped), 0x97a22633u);
  ASSERT_TRUE(job.RunReduce(ForwardReduce).ok());
  const std::string reduced = job.SerializeDataflow();
  EXPECT_EQ(Crc32(reduced), 0x33ff2d7au);

  // Old checkpoints restore, and re-serialize to the same bytes.
  MapReduceJob restored(options);
  ASSERT_TRUE(restored.RestoreDataflow(mapped).ok());
  EXPECT_EQ(restored.SerializeDataflow(), mapped);
  ASSERT_TRUE(restored.RunReduce(ForwardReduce).ok());
  EXPECT_EQ(restored.SerializeDataflow(), reduced);
}

TEST(MapReduceGoldenTest, CorruptCheckpointBytesAreRejected) {
  MapReduceJob::Options options;
  options.num_instances = 3;
  MapReduceJob job(options);
  ASSERT_TRUE(job.RunMap(EmitGoldenRecords).ok());
  const std::string bytes = job.SerializeDataflow();
  // Every truncation, and a length prefix blown past the buffer, is a
  // clean IoError.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    MapReduceJob restored(options);
    EXPECT_EQ(restored.RestoreDataflow(bytes.substr(0, len)).code(),
              StatusCode::kIoError)
        << "truncated to " << len;
  }
  std::string bloated = bytes;
  // Instance 0's first record: i64 instances, u64 count, i64 key, i32
  // tag, i64 src, then the u64 float count.
  const std::size_t float_count_at = 8 + 8 + 8 + 4 + 8;
  bloated[float_count_at + 6] = '\x7f';
  MapReduceJob restored(options);
  EXPECT_EQ(restored.RestoreDataflow(bloated).code(), StatusCode::kIoError);
}

TEST(MapReduceGoldenTest, SpillBytesArePinned) {
  const std::string dir = testing::TempDir() + "/golden_spill_plain";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SpillRecorder recorder;
  MapReduceJob::Options options;
  options.num_instances = 3;
  options.spill_directory = dir;
  options.fault_injector = &recorder;
  MapReduceJob job(options);
  ASSERT_TRUE(job.RunMap(EmitGoldenRecords).ok());
  ASSERT_TRUE(job.RunReduce(ForwardReduce).ok());
  EXPECT_GT(recorder.blocks(), 3u);
  EXPECT_EQ(recorder.Digest(), 0x86a47531u);
}

TEST(MapReduceGoldenTest, InferenceLogitsArePinned) {
  PlantedGraphConfig config;
  config.num_nodes = 500;
  config.avg_degree = 6.0;
  config.feature_dim = 12;
  config.num_classes = 4;
  config.in_skew_alpha = 1.0;
  config.edge_feature_dim = 3;
  config.seed = 11;
  const Dataset dataset = MakePlantedDataset("golden", config);
  struct Case {
    const char* model;
    bool partial_gather;
    bool broadcast;
    std::uint32_t crc;
  };
  const Case cases[] = {
      {"sage", true, false, 0xb3c391f9u},
      {"gat", false, true, 0x50077c3eu},
      {"edge_sage", false, false, 0xb92bc855u},
      {"pool_sage", true, false, 0x3ae9227cu},
      {"gin", true, false, 0x3f0a9bcbu},
      {"sage", false, true, 0x7a5c7fa5u},
      {"gat", false, false, 0x50077c3eu},
      // The only configuration where one producer sends a key both
      // broadcast refs and a partial aggregate: pins refs-before-partial
      // within each producer's values. Same logits as the Pregel pin.
      {"sage", true, true, 0xd052b0e4u},
  };
  const std::string dir = testing::TempDir() + "/golden_logits_spill";
  for (const Case& c : cases) {
    SCOPED_TRACE(c.model);
    ModelConfig mc;
    mc.input_dim = config.feature_dim;
    mc.hidden_dim = 16;
    mc.num_classes = config.num_classes;
    mc.num_layers = 2;
    mc.heads = 2;
    mc.edge_feature_dim = config.edge_feature_dim;
    mc.seed = 3;
    Result<std::unique_ptr<GnnModel>> model = MakeModel(c.model, mc);
    ASSERT_TRUE(model.ok());
    for (const bool spill : {false, true}) {
      SCOPED_TRACE(spill ? "spill" : "in memory");
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      InferTurboOptions options;
      options.num_workers = 4;
      options.strategies.partial_gather = c.partial_gather;
      options.strategies.broadcast = c.broadcast;
      options.strategies.threshold_override = c.broadcast ? 8 : -1;
      if (spill) options.mr_spill_directory = dir;
      const Result<InferenceResult> result =
          RunInferTurboMapReduce(dataset.graph, **model, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const Tensor& logits = result->logits;
      EXPECT_EQ(Crc32(logits.data(), static_cast<std::size_t>(
                                         logits.rows() * logits.cols()) *
                                         sizeof(float)),
                c.crc);
    }
  }
}

// A SAGE layer whose message rows carry one float more than its
// signature's message dim declares. Its message is no longer its
// state, so the scatter must call ComputeMessage.
class WideMessageSage : public SageConv {
 public:
  using SageConv::SageConv;
  bool MessageIsState() const override { return false; }
  Tensor ComputeMessage(const Tensor& node_states) const override {
    const Tensor narrow = SageConv::ComputeMessage(node_states);
    Tensor wide(narrow.rows(), narrow.cols() + 1);
    for (std::int64_t r = 0; r < narrow.rows(); ++r) {
      std::copy(narrow.RowPtr(r), narrow.RowPtr(r) + narrow.cols(),
                wide.RowPtr(r));
    }
    return wide;
  }
};

// The reduce folds message records in place, so a record that is not
// exactly message_dim floats wide must die rather than be read short
// or long.
TEST(MapReduceReduceTest, MessageRecordOfTheWrongWidthDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  PlantedGraphConfig config;
  config.num_nodes = 60;
  config.feature_dim = 4;
  config.num_classes = 2;
  config.seed = 5;
  const Dataset dataset = MakePlantedDataset("wide", config);
  Rng rng(1);
  std::vector<std::unique_ptr<GasConv>> layers;
  layers.push_back(std::make_unique<WideMessageSage>(
      config.feature_dim, 8, /*activation=*/true, &rng));
  const GnnModel model(std::move(layers), config.num_classes, &rng);
  InferTurboOptions options;
  options.num_workers = 2;
  EXPECT_DEATH(
      (void)RunInferTurboMapReduce(dataset.graph, model, options),
      "has 5 floats, not the message dim 4");
}

}  // namespace
}  // namespace inferturbo
