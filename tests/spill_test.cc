// External-storage shuffle: with a spill directory configured, every
// shuffle block round-trips through disk between the producer and
// reducer halves of a round, and results stay bit-identical.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/io_fault.h"
#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/mapreduce/mapreduce_engine.h"
#include "src/nn/model.h"

namespace inferturbo {
namespace {

TEST(SpillTest, EngineRoundTripsBlocksThroughDisk) {
  const std::string dir = testing::TempDir() + "/spill_engine";
  std::filesystem::create_directories(dir);

  const auto run = [&](bool spill) {
    MapReduceJob::Options options;
    options.num_instances = 3;
    if (spill) options.spill_directory = dir;
    MapReduceJob job(options);
    job.RunMap([](std::int64_t instance, MrEmitter* emitter) {
      for (int i = 0; i < 20; ++i) {
        const float floats[] = {static_cast<float>(i),
                                static_cast<float>(instance)};
        const std::int64_t id = instance * 100 + i;
        emitter->Emit(i % 7, 0, instance, floats, {&id, 1});
      }
    });
    // Reduce tasks run concurrently: each key's sum lands under a lock.
    std::mutex mu;
    std::map<std::int64_t, float> sums;
    job.RunReduce([&](const MrKeyGroups& groups, MrEmitter* emitter) {
      for (std::size_t g = 0; g < groups.size(); ++g) {
        float sum = 0.0f;
        for (const MrRecord v : groups.values(g)) {
          sum += v.floats[0] + v.floats[1] + static_cast<float>(v.ids[0] % 97);
        }
        emitter->Emit(groups.key(g), 0, -1, {&sum, 1});
        std::lock_guard<std::mutex> lock(mu);
        sums[groups.key(g)] = sum;
      }
    });
    EXPECT_EQ(spill, job.spill_bytes_written() > 0);
    return sums;
  };
  const std::map<std::int64_t, float> in_memory = run(false);
  EXPECT_EQ(in_memory.size(), 7u);
  EXPECT_EQ(in_memory, run(true));
  // Spill files are cleaned up after being consumed.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

TEST(SpillTest, InferenceWithSpillMatchesInMemory) {
  const std::string dir = testing::TempDir() + "/spill_inference";
  std::filesystem::create_directories(dir);

  PowerLawConfig config;
  config.num_nodes = 300;
  config.avg_degree = 6.0;
  config.seed = 7;
  const Dataset d = MakePowerLawDataset(config, /*feature_dim=*/10);
  ModelConfig mc;
  mc.input_dim = 10;
  mc.hidden_dim = 8;
  mc.num_classes = 2;
  mc.num_layers = 2;
  const std::unique_ptr<GnnModel> model = MakeSageModel(mc);

  InferTurboOptions in_memory;
  in_memory.num_workers = 4;
  in_memory.strategies.partial_gather = true;
  const Result<InferenceResult> reference =
      RunInferTurboMapReduce(d.graph, *model, in_memory);
  ASSERT_TRUE(reference.ok());

  InferTurboOptions spilled = in_memory;
  spilled.mr_spill_directory = dir;
  const Result<InferenceResult> via_disk =
      RunInferTurboMapReduce(d.graph, *model, spilled);
  ASSERT_TRUE(via_disk.ok()) << via_disk.status().ToString();
  EXPECT_TRUE(via_disk->logits.ApproxEquals(reference->logits, 0.0f));
}

// Shared fixture-style setup for the fault-injection tests below.
struct SpillFaultRig {
  Dataset d;
  std::unique_ptr<GnnModel> model;
  Result<InferenceResult> reference = Status::Internal("not run");
  InferTurboOptions spilled;

  explicit SpillFaultRig(const std::string& dir_name) {
    const std::string dir = testing::TempDir() + "/" + dir_name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    PowerLawConfig config;
    config.num_nodes = 300;
    config.avg_degree = 6.0;
    config.seed = 7;
    d = MakePowerLawDataset(config, /*feature_dim=*/10);
    ModelConfig mc;
    mc.input_dim = 10;
    mc.hidden_dim = 8;
    mc.num_classes = 2;
    mc.num_layers = 2;
    model = MakeSageModel(mc);
    InferTurboOptions in_memory;
    in_memory.num_workers = 4;
    in_memory.strategies.partial_gather = true;
    reference = RunInferTurboMapReduce(d.graph, *model, in_memory);
    spilled = in_memory;
    spilled.mr_spill_directory = dir;
  }
};

// Spill blocks (any file whose name holds ".blk") left in `dir`.
std::vector<std::string> LeftoverBlocks(const std::string& dir) {
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".blk") != std::string::npos) left.push_back(name);
  }
  return left;
}

TEST(SpillTest, TransientReadFaultIsRetriedAndCounted) {
  SpillFaultRig rig("spill_read_fault");
  ASSERT_TRUE(rig.reference.ok());
  // One spill block comes back bit-flipped; the block checksum catches
  // it and the retry re-reads healthy bytes from disk.
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kRead, ".blk", IoFaultKind::kBitFlip, /*times=*/1);
  rig.spilled.io_fault_injector = &injector;
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(rig.d.graph, *rig.model, rig.spilled);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(injector.faults_fired(), 1);
  EXPECT_GT(result->metrics.spill_read_retries, 0);
  EXPECT_TRUE(result->logits.ApproxEquals(rig.reference->logits, 0.0f));
}

TEST(SpillTest, TransientShortReadIsRetriedAndCounted) {
  SpillFaultRig rig("spill_short_read");
  ASSERT_TRUE(rig.reference.ok());
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kRead, ".blk", IoFaultKind::kShortRead, /*times=*/1);
  rig.spilled.io_fault_injector = &injector;
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(rig.d.graph, *rig.model, rig.spilled);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->metrics.spill_read_retries, 0);
  EXPECT_TRUE(result->logits.ApproxEquals(rig.reference->logits, 0.0f));
}

TEST(SpillTest, TransientWriteFaultIsRetriedAndCounted) {
  SpillFaultRig rig("spill_write_fault");
  ASSERT_TRUE(rig.reference.ok());
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kWrite, ".blk", IoFaultKind::kWriteFail, /*times=*/1);
  rig.spilled.io_fault_injector = &injector;
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(rig.d.graph, *rig.model, rig.spilled);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(injector.faults_fired(), 1);
  EXPECT_GT(result->metrics.spill_write_retries, 0);
  EXPECT_TRUE(result->logits.ApproxEquals(rig.reference->logits, 0.0f));
}

TEST(SpillTest, PersistentReadCorruptionSurfacesAsIoError) {
  SpillFaultRig rig("spill_persistent_fault");
  ASSERT_TRUE(rig.reference.ok());
  // Every read of one block stays corrupt: retries exhaust and the job
  // fails with a descriptive IoError instead of producing wrong logits.
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kRead, ".blk", IoFaultKind::kBitFlip, /*times=*/-1);
  rig.spilled.io_fault_injector = &injector;
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(rig.d.graph, *rig.model, rig.spilled);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("checksum mismatch"),
            std::string::npos)
      << result.status().ToString();
  // The failed round removed its blocks; a resume re-enters from the
  // checkpointed dataflow and never reads them.
  EXPECT_EQ(LeftoverBlocks(rig.spilled.mr_spill_directory),
            std::vector<std::string>{});
}

TEST(SpillTest, PersistentWriteFaultSurfacesAsIoError) {
  SpillFaultRig rig("spill_enospc");
  ASSERT_TRUE(rig.reference.ok());
  ScriptedIoFaultInjector injector;
  injector.Arm(IoOp::kWrite, ".blk", IoFaultKind::kNoSpace, /*times=*/-1);
  rig.spilled.io_fault_injector = &injector;
  const Result<InferenceResult> result =
      RunInferTurboMapReduce(rig.d.graph, *rig.model, rig.spilled);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("no space"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(LeftoverBlocks(rig.spilled.mr_spill_directory),
            std::vector<std::string>{});
}

}  // namespace
}  // namespace inferturbo
