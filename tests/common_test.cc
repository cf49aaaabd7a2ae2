#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/common/byte_size.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"

namespace inferturbo {
namespace {

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextUint64() == b.NextUint64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedHitsAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleIsUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 2000.0, 0.5, 0.05);
}

TEST(RngTest, GaussianHasRoughlyUnitVariance) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.08);
  EXPECT_NEAR(sq / n, 1.0, 0.12);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversIndexSpaceExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForHandlesSmallN) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
  pool.ParallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  // A spin long enough to register at microsecond resolution.
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMicros(), 0);
}

// Random bytes for the CRC tests, from the seeded Rng.
std::vector<unsigned char> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.NextUint64());
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32Portable("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32Portable(nullptr, 0), 0u);
  // 64 and more bytes reach the folding path where the CPU has one.
  const std::string zeros(64, '\0');
  EXPECT_EQ(Crc32(zeros), 0x758D6336u);
  const std::string digits = std::string(70, '0') + "123456789";
  EXPECT_EQ(Crc32(digits), Crc32Portable(digits.data(), digits.size()));
}

TEST(Crc32Test, MatchesTheByteTableAtEveryLengthAndOffset) {
  constexpr std::size_t kMaxLength = 1100;
  constexpr std::size_t kMaxOffset = 15;
  const std::vector<unsigned char> buffer =
      RandomBytes(kMaxLength + kMaxOffset, 17);
  Rng seeds(23);
  for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      const unsigned char* p = buffer.data() + offset;
      ASSERT_EQ(Crc32(p, length), Crc32Portable(p, length))
          << "offset " << offset << " length " << length;
      const auto seed = static_cast<std::uint32_t>(seeds.NextUint64());
      ASSERT_EQ(Crc32(p, length, seed), Crc32Portable(p, length, seed))
          << "offset " << offset << " length " << length << " seed " << seed;
    }
  }
}

TEST(Crc32Test, MatchesTheByteTableOnAShardSizedBuffer) {
  // About the size of one packed shard on the MapReduce benchmark.
  const std::vector<unsigned char> shard =
      RandomBytes(std::size_t{5} * 1024 * 1024 + 411 * 1024 + 7, 29);
  EXPECT_EQ(Crc32(shard.data(), shard.size()),
            Crc32Portable(shard.data(), shard.size()));
  EXPECT_EQ(Crc32(shard.data() + 3, shard.size() - 3, 0x12345678u),
            Crc32Portable(shard.data() + 3, shard.size() - 3, 0x12345678u));
}

TEST(Crc32Test, ChainsAcrossEverySplitNearTheFoldBoundaries) {
  const std::vector<unsigned char> buffer = RandomBytes(300, 31);
  for (const std::size_t total : {std::size_t{64}, std::size_t{80},
                                  std::size_t{128}, std::size_t{129},
                                  std::size_t{200}, std::size_t{300}}) {
    const std::uint32_t whole = Crc32(buffer.data(), total);
    for (std::size_t split = 0; split <= total; ++split) {
      const std::uint32_t head = Crc32(buffer.data(), split);
      ASSERT_EQ(Crc32(buffer.data() + split, total - split, head), whole)
          << "total " << total << " split " << split;
    }
  }
}

TEST(ByteSizeTest, MessageByteArithmetic) {
  EXPECT_EQ(EmbeddingBytes(64), 256u);
  EXPECT_EQ(MessageBytes(64), kMessageHeaderBytes + 256);
  EXPECT_EQ(IdOnlyMessageBytes(), kMessageHeaderBytes + 8);
}

TEST(ByteSizeTest, FormatBytesPicksUnits) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KiB");
  EXPECT_EQ(FormatBytes(std::uint64_t{3} * 1024 * 1024 * 1024), "3.0 GiB");
}

}  // namespace
}  // namespace inferturbo
