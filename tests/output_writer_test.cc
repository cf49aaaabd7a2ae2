#include "src/inference/output_writer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/graph/datasets.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/nn/model.h"

namespace inferturbo {
namespace {

InferenceResult ScoreSomething(bool embeddings) {
  PowerLawConfig config;
  config.num_nodes = 200;
  config.avg_degree = 5.0;
  config.seed = 19;
  const Dataset d = MakePowerLawDataset(config, /*feature_dim=*/8);
  ModelConfig mc;
  mc.input_dim = 8;
  mc.hidden_dim = 6;
  mc.num_classes = 2;
  mc.num_layers = 2;
  const std::unique_ptr<GnnModel> model = MakeSageModel(mc);
  InferTurboOptions options;
  options.num_workers = 3;
  options.export_embeddings = embeddings;
  return RunInferTurboPregel(d.graph, *model, options).ValueOrDie();
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// CRC32 (8 hex digits) of every file in `dir`, space-separated, in
/// file-name order: MANIFEST.tsv, then embeddings_*, then scores_*.
std::string FileCrcs(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  std::string out;
  for (const std::string& name : names) {
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", Crc32(ReadAll(dir + "/" + name)));
    if (!out.empty()) out.push_back(' ');
    out += crc;
  }
  return out;
}

/// Logits and embeddings full of the values %.6g formatting gets wrong
/// most easily: NaNs of both signs, infinities, -0, the smallest
/// subnormal, FLT_MAX, the fixed/scientific switch points, and exact
/// decimal ties (999999.5 and 1234565 round half-even to 1e+06 and
/// 1.23456e+06).
InferenceResult SpecialValuesResult() {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  InferenceResult result;
  result.logits = Tensor::FromRows({{nan, inf, -inf},
                                    {-0.0f, 1e-45f, FLT_MAX},
                                    {1e-5f, 0.0001f, 999999.5f},
                                    {1e6f, 1234565.0f, -FLT_MIN}});
  result.predictions = {1, 0, 2, std::numeric_limits<std::int64_t>::max()};
  result.embeddings = Tensor::FromRows(
      {{-nan, 0.1f}, {123456.5f, -1e-38f}, {100000.0f, 0.5f}, {-2.5f, 1e38f}});
  return result;
}

TEST(OutputWriterTest, PredictionsRoundTripThroughShards) {
  const InferenceResult result = ScoreSomething(false);
  const std::string dir = FreshDir("writer_roundtrip");
  OutputWriterOptions options;
  options.num_shards = 5;
  ASSERT_TRUE(WriteInferenceOutput(result, dir, options).ok());
  const Result<std::vector<std::int64_t>> read = ReadPredictions(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, result.predictions);
}

TEST(OutputWriterTest, WritesExpectedShardFiles) {
  const InferenceResult result = ScoreSomething(true);
  const std::string dir = FreshDir("writer_files");
  OutputWriterOptions options;
  options.num_shards = 3;
  ASSERT_TRUE(WriteInferenceOutput(result, dir, options).ok());
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST.tsv"));
  for (int s = 0; s < 3; ++s) {
    char score_name[64], emb_name[64];
    std::snprintf(score_name, sizeof(score_name), "%s/scores_%05d.tsv",
                  dir.c_str(), s);
    std::snprintf(emb_name, sizeof(emb_name), "%s/embeddings_%05d.tsv",
                  dir.c_str(), s);
    EXPECT_TRUE(std::filesystem::exists(score_name));
    EXPECT_TRUE(std::filesystem::exists(emb_name));
  }
}

TEST(OutputWriterTest, EmbeddingExportIsOptIn) {
  const InferenceResult without = ScoreSomething(false);
  EXPECT_TRUE(without.embeddings.empty());
  const InferenceResult with = ScoreSomething(true);
  EXPECT_EQ(with.embeddings.rows(), with.logits.rows());
  EXPECT_EQ(with.embeddings.cols(), 6);
  // Logits are the head applied to the exported embeddings — spot-check
  // one is consistent with the other (nonzero rows everywhere).
  EXPECT_GT(with.embeddings.ByteSize(), 0u);
}

TEST(OutputWriterTest, ShardingIsDeterministic) {
  const InferenceResult result = ScoreSomething(false);
  const std::string dir_a = FreshDir("writer_det_a");
  const std::string dir_b = FreshDir("writer_det_b");
  OutputWriterOptions options;
  ASSERT_TRUE(WriteInferenceOutput(result, dir_a, options).ok());
  ASSERT_TRUE(WriteInferenceOutput(result, dir_b, options).ok());
  for (int s = 0; s < options.num_shards; ++s) {
    char name[64];
    std::snprintf(name, sizeof(name), "scores_%05d.tsv", s);
    std::ifstream a(dir_a + "/" + name), b(dir_b + "/" + name);
    std::string content_a((std::istreambuf_iterator<char>(a)),
                          std::istreambuf_iterator<char>());
    std::string content_b((std::istreambuf_iterator<char>(b)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(content_a, content_b);
    EXPECT_FALSE(content_a.empty());
  }
}

TEST(OutputWriterTest, ReadRejectsMissingManifest) {
  EXPECT_FALSE(ReadPredictions("/no/such/dir").ok());
}

TEST(OutputWriterTest, RejectsZeroShards) {
  const InferenceResult result = ScoreSomething(false);
  OutputWriterOptions options;
  options.num_shards = 0;
  EXPECT_TRUE(WriteInferenceOutput(result, "/tmp", options)
                  .IsInvalidArgument());
}

TEST(OutputWriterTest, ExportLeavesNoTempFilesBehind) {
  const InferenceResult result = ScoreSomething(true);
  const std::string dir = FreshDir("writer_no_temp");
  OutputWriterOptions options;
  options.num_shards = 3;
  // Even with transient write faults forcing retries, every file lands
  // via rename and no .tmp. leftovers survive the export.
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kWrite, "scores_", IoFaultKind::kWriteFail,
               /*times=*/2);
  options.fault_injector = &injector;
  ASSERT_TRUE(WriteInferenceOutput(result, dir, options).ok());
  EXPECT_EQ(injector.faults_fired(), 2);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << "leftover temp file: " << entry.path();
  }
  const Result<std::vector<std::int64_t>> read = ReadPredictions(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, result.predictions);
}

TEST(OutputWriterTest, FailedManifestWriteLeavesNoCommitRecord) {
  const InferenceResult result = ScoreSomething(false);
  const std::string dir = FreshDir("writer_manifest_fail");
  OutputWriterOptions options;
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kWrite, "MANIFEST", IoFaultKind::kNoSpace,
               /*times=*/-1);
  options.fault_injector = &injector;
  const Status status = WriteInferenceOutput(result, dir, options);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  // The manifest is the commit record: without it the export directory
  // reads as "no export", never as a torn one.
  EXPECT_FALSE(std::filesystem::exists(dir + "/MANIFEST.tsv"));
  EXPECT_FALSE(ReadPredictions(dir).ok());
}

TEST(OutputWriterTest, ShardCorruptionOnDiskIsDetected) {
  const InferenceResult result = ScoreSomething(false);
  const std::string dir = FreshDir("writer_shard_corrupt");
  OutputWriterOptions options;
  ASSERT_TRUE(WriteInferenceOutput(result, dir, options).ok());
  // Flip a byte in one score shard after the export committed.
  const std::string victim = dir + "/scores_00001.tsv";
  std::string content;
  {
    std::ifstream in(victim, std::ios::binary);
    content.assign((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(content.empty());
  content[content.size() / 2] ^= 0x10;
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out << content;
  }
  const Result<std::vector<std::int64_t>> read = ReadPredictions(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_NE(read.status().message().find("checksum mismatch"),
            std::string::npos)
      << read.status().ToString();
}

TEST(OutputWriterTest, TransientReadFaultIsRetried) {
  const InferenceResult result = ScoreSomething(false);
  const std::string dir = FreshDir("writer_read_retry");
  OutputWriterOptions options;
  ASSERT_TRUE(WriteInferenceOutput(result, dir, options).ok());
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kRead, "scores_", IoFaultKind::kBitFlip, /*times=*/1);
  const Result<std::vector<std::int64_t>> read =
      ReadPredictions(dir, &injector);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(injector.faults_fired(), 1);
  EXPECT_EQ(*read, result.predictions);
}

/// Exports ScoreSomething() to `name` in 3 shards, then makes each
/// {from, to} replacement in its manifest.
std::string ExportWithDamagedManifest(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& edits) {
  const std::string dir = FreshDir(name);
  OutputWriterOptions options;
  options.num_shards = 3;
  EXPECT_TRUE(WriteInferenceOutput(ScoreSomething(false), dir, options).ok());
  std::string manifest = ReadAll(dir + "/MANIFEST.tsv");
  for (const auto& [from, to] : edits) {
    const std::size_t at = manifest.find(from);
    EXPECT_NE(at, std::string::npos) << manifest;
    if (at != std::string::npos) manifest.replace(at, from.size(), to);
  }
  std::ofstream(dir + "/MANIFEST.tsv", std::ios::binary | std::ios::trunc)
      << manifest;
  return dir;
}

void ExpectIoError(const std::string& dir) {
  const Result<std::vector<std::int64_t>> read = ReadPredictions(dir);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError)
      << read.status().ToString();
}

// Counts in a damaged manifest used to size allocations unchecked and
// abort the process with std::length_error.
TEST(OutputWriterTest, HugeNumNodesInManifestIsIoError) {
  ExpectIoError(ExportWithDamagedManifest(
      "writer_huge_nodes",
      {{"num_nodes\t200\n", "num_nodes\t4611686018427387904\n"}}));
}

TEST(OutputWriterTest, HugeNumShardsInManifestIsIoError) {
  ExpectIoError(ExportWithDamagedManifest(
      "writer_huge_shards",
      {{"num_shards\t3\n", "num_shards\t4611686018427387904\n"}}));
}

TEST(OutputWriterTest, ManifestRowsBeyondShardBytesAreIoError) {
  // Row counts that sum to num_nodes, but shard 0 (65 real rows) cannot
  // hold the rows it promises.
  ExpectIoError(ExportWithDamagedManifest(
      "writer_huge_rows",
      {{"num_nodes\t200\n", "num_nodes\t4611686018427387904\n"},
       {"scores_00000.tsv\t65\t",
        "scores_00000.tsv\t4611686018427387769\t"}}));
}

TEST(OutputWriterTest, ManifestHeaderKeysAreChecked) {
  ExpectIoError(ExportWithDamagedManifest("writer_bad_key",
                                          {{"num_nodes\t", "num_edges\t"}}));
}

// --- golden export bytes ----------------------------------------------

// The export format is a contract with downstream loaders: these CRCs
// pin every byte of every file, so any change to number formatting,
// row order, sharding or the manifest layout shows up here.
TEST(OutputWriterGoldenTest, ScoredExportBytesArePinned) {
  struct Case {
    std::int64_t num_shards;
    bool write_logits;
    bool embeddings;
    const char* crcs;  // FileCrcs() of the export directory
  };
  const Case cases[] = {
      {1, true, false, "ec9d0ca3 70fdc7ba"},
      {1, true, true, "1d470909 f2e0553d 70fdc7ba"},
      {1, false, false, "7fc6487a 862defa0"},
      {1, false, true, "8e1c4dd0 f2e0553d 862defa0"},
      {3, true, false, "c4e784bc a60a5828 d91528b7 f38ef6b9"},
      {3, true, true,
       "a0dbe934 24a09c21 9feebe68 c608362e a60a5828 d91528b7 f38ef6b9"},
      {3, false, false, "e4bc18d5 eea9325b 623e7683 67d9ea9e"},
      {3, false, true,
       "8080755d 24a09c21 9feebe68 c608362e eea9325b 623e7683 67d9ea9e"},
      {8, true, false,
       "fd446ee8 4c55b4f8 4ca7a8ed 9dd9b24b 8d5dace8 9b726b67 b5b92103 "
       "0b4ff210 994eb017"},
      {8, true, true,
       "fb0aa655 dac376ee 763f1f65 2f1d51f8 f18d2cbc e34abea4 3942ce95 "
       "13c36b0c 78ec8729 4c55b4f8 4ca7a8ed 9dd9b24b 8d5dace8 9b726b67 "
       "b5b92103 0b4ff210 994eb017"},
      {8, false, false,
       "0aeef6c0 bf837517 4544da00 bdf0ff77 2a41de99 408402a4 d256295f "
       "5f62a53e e645e52e"},
      {8, false, true,
       "0ca03e7d dac376ee 763f1f65 2f1d51f8 f18d2cbc e34abea4 3942ce95 "
       "13c36b0c 78ec8729 bf837517 4544da00 bdf0ff77 2a41de99 408402a4 "
       "d256295f 5f62a53e e645e52e"},
  };
  const InferenceResult plain = ScoreSomething(false);
  const InferenceResult with_embeddings = ScoreSomething(true);
  for (const Case& c : cases) {
    SCOPED_TRACE("num_shards=" + std::to_string(c.num_shards) +
                 " write_logits=" + std::to_string(c.write_logits) +
                 " embeddings=" + std::to_string(c.embeddings));
    const std::string dir = FreshDir("writer_golden");
    OutputWriterOptions options;
    options.num_shards = c.num_shards;
    options.write_logits = c.write_logits;
    ASSERT_TRUE(WriteInferenceOutput(c.embeddings ? with_embeddings : plain,
                                     dir, options)
                    .ok());
    EXPECT_EQ(FileCrcs(dir), c.crcs);
  }
}

TEST(OutputWriterGoldenTest, SpecialFloatsFormatLikePrintfG6) {
  const InferenceResult result = SpecialValuesResult();
  const std::string dir = FreshDir("writer_golden_special");
  OutputWriterOptions options;
  options.num_shards = 1;
  ASSERT_TRUE(WriteInferenceOutput(result, dir, options).ok());
  EXPECT_EQ(ReadAll(dir + "/scores_00000.tsv"),
            "0\t1\tnan,inf,-inf\n"
            "1\t0\t-0,1.4013e-45,3.40282e+38\n"
            "2\t2\t1e-05,0.0001,1e+06\n"
            "3\t9223372036854775807\t1e+06,1.23456e+06,-1.17549e-38\n");
  EXPECT_EQ(ReadAll(dir + "/embeddings_00000.tsv"),
            "0\t-nan,0.1\n"
            "1\t123456,-1e-38\n"
            "2\t100000,0.5\n"
            "3\t-2.5,1e+38\n");
  EXPECT_EQ(FileCrcs(dir), "409a97a0 c6202422 b4157105");

  const std::string sharded = FreshDir("writer_golden_special_sharded");
  options.num_shards = 3;
  ASSERT_TRUE(WriteInferenceOutput(result, sharded, options).ok());
  EXPECT_EQ(FileCrcs(sharded),
            "c6be9c96 f65990de 560faf18 bec330c1 a5a0d0b9 da54f957 769b83bd");
}

// Every float the writer prints must read exactly as printf("%.6g")
// would print it. A seeded sweep over ~1M random bit patterns (NaN
// payloads, subnormals and infinities included) through one shard.
TEST(OutputWriterGoldenTest, RandomFloatBitsFormatLikePrintfG6) {
  constexpr std::int64_t kRows = 1024;
  constexpr std::int64_t kCols = 1024;
  Rng rng(20261017);
  InferenceResult result;
  result.logits = Tensor(kRows, kCols);
  for (std::int64_t i = 0; i < kRows * kCols; ++i) {
    const std::uint32_t bits = static_cast<std::uint32_t>(rng.NextUint64());
    std::memcpy(result.logits.data() + i, &bits, sizeof(bits));
  }
  result.predictions.resize(static_cast<std::size_t>(kRows));
  for (std::int64_t v = 0; v < kRows; ++v) {
    result.predictions[static_cast<std::size_t>(v)] = v % 7;
  }
  const std::string dir = FreshDir("writer_golden_random");
  OutputWriterOptions options;
  options.num_shards = 1;
  ASSERT_TRUE(WriteInferenceOutput(result, dir, options).ok());

  std::string expected;
  char buf[32];
  for (std::int64_t v = 0; v < kRows; ++v) {
    expected += std::to_string(v) + "\t" + std::to_string(v % 7);
    for (std::int64_t j = 0; j < kCols; ++j) {
      expected.push_back(j == 0 ? '\t' : ',');
      std::snprintf(buf, sizeof(buf), "%.6g",
                    static_cast<double>(result.logits.RowPtr(v)[j]));
      expected += buf;
    }
    expected.push_back('\n');
  }
  const std::string actual = ReadAll(dir + "/scores_00000.tsv");
  const std::size_t at = static_cast<std::size_t>(
      std::mismatch(expected.begin(), expected.end(), actual.begin(),
                    actual.end())
          .first -
      expected.begin());
  EXPECT_EQ(actual.size(), expected.size());
  EXPECT_EQ(at, expected.size())
      << "first difference after: "
      << expected.substr(at < 40 ? 0 : at - 40, 40);
}

}  // namespace
}  // namespace inferturbo
