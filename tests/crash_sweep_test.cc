// Crash sweep — exhaustively kills each (superstep, worker) pair once
// via a FaultPlan crash rule, and each checkpoint boundary
// once via simulated whole-process death + resume_from, on both
// backends. Every recovered or resumed run must produce logits
// bit-identical to an undisturbed one.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/nn/model.h"
#include "src/runtime/fault_plan.h"

namespace inferturbo {
namespace {

Dataset SmallGraph() {
  PowerLawConfig config;
  config.num_nodes = 400;
  config.avg_degree = 6.0;
  config.seed = 3;
  return MakePowerLawDataset(config, /*feature_dim=*/12);
}

// Out-skewed so the broadcast strategy actually publishes hub payloads
// — the kill/resume sweeps must round-trip the broadcast board/table
// through the durable checkpoint.
Dataset SkewedGraph() {
  PowerLawConfig config;
  config.num_nodes = 400;
  config.avg_degree = 8.0;
  config.alpha = 1.5;
  config.skew = PowerLawSkew::kOut;
  config.seed = 23;
  return MakePowerLawDataset(config, /*feature_dim=*/10);
}

std::unique_ptr<GnnModel> SmallModel(const Graph& g) {
  ModelConfig config;
  config.input_dim = g.feature_dim();
  config.hidden_dim = 8;
  config.num_classes = g.num_classes();
  config.num_layers = 3;  // 4 Pregel supersteps / 1 map + 3 reduce rounds
  return MakeSageModel(config);
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

constexpr std::int64_t kWorkers = 3;
constexpr std::int64_t kPregelSupersteps = 4;  // 3 layers + init
constexpr std::int64_t kMrStages = 4;          // map + 3 reduce rounds

TEST(PregelCrashSweepTest, EveryStepWorkerPairRecoversBitIdentical) {
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = kWorkers;
  clean.strategies.partial_gather = true;
  const Result<InferenceResult> reference =
      RunInferTurboPregel(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  // No per-task retry and no superstep re-execution: every crash is
  // recovered by a checkpoint restore.
  for (std::int64_t step = 0; step < kPregelSupersteps; ++step) {
    for (int worker = 0; worker < kWorkers; ++worker) {
      FaultPlan plan;
      plan.ArmCrash(TaskStageKind::kPregelCompute, step, worker);
      InferTurboOptions faulty = clean;
      faulty.checkpoint_interval = 1;
      faulty.fault_plan = &plan;
      faulty.supervision.max_task_retries = 0;
      faulty.supervision.max_superstep_reexecutions = 0;
      const Result<InferenceResult> recovered =
          RunInferTurboPregel(d.graph, *model, faulty);
      ASSERT_TRUE(recovered.ok())
          << "step " << step << " worker " << worker << ": "
          << recovered.status().ToString();
      EXPECT_EQ(recovered->metrics.supervision.checkpoint_restores, 1)
          << "step " << step << " worker " << worker;
      EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f))
          << "step " << step << " worker " << worker
          << ": recovered run must be bit-identical";
    }
  }
}

TEST(MapReduceCrashSweepTest, EveryStageInstancePairRecoversBitIdentical) {
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = kWorkers;
  clean.strategies.partial_gather = true;
  const Result<InferenceResult> reference =
      RunInferTurboMapReduce(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  // Only reduce stages re-execute (the map's inputs are the immutable
  // graph), so the sweep covers stages 1..k.
  for (std::int64_t stage = 1; stage < kMrStages; ++stage) {
    for (int instance = 0; instance < kWorkers; ++instance) {
      FaultPlan plan;
      plan.ArmCrash(TaskStageKind::kMrReduce, stage, instance);
      InferTurboOptions faulty = clean;
      faulty.fault_plan = &plan;
      const Result<InferenceResult> recovered =
          RunInferTurboMapReduce(d.graph, *model, faulty);
      ASSERT_TRUE(recovered.ok())
          << "stage " << stage << " instance " << instance << ": "
          << recovered.status().ToString();
      EXPECT_EQ(recovered->metrics.supervision.retries, 1)
          << "stage " << stage << " instance " << instance;
      EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f))
          << "stage " << stage << " instance " << instance;
    }
  }
}

// Broadcast on, with partial gather off and on: with it on, the scatter
// plans of a resumed job are first built after the resume.
TEST(PregelCrashSweepTest, ProcessDeathAtEverySuperstepResumesBitIdentical) {
  const Dataset d = SkewedGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  for (const bool partial_gather : {false, true}) {
    SCOPED_TRACE(partial_gather ? "partial gather" : "dense");
    InferTurboOptions clean;
    clean.num_workers = kWorkers;
    clean.strategies.broadcast = true;
    clean.strategies.threshold_override = 10;
    clean.strategies.partial_gather = partial_gather;
    const Result<InferenceResult> reference =
        RunInferTurboPregel(d.graph, *model, clean);
    ASSERT_TRUE(reference.ok());

    for (std::int64_t kill_step = 0; kill_step < kPregelSupersteps;
         ++kill_step) {
      const std::string dir =
          FreshDir(std::string("pregel_death_") +
                   (partial_gather ? "partial_" : "") +
                   std::to_string(kill_step));

      InferTurboOptions doomed = clean;
      doomed.checkpoint_directory = dir;
      doomed.checkpoint_interval = 1;
      doomed.kill_switch = [kill_step](std::int64_t step) {
        return step == kill_step;
      };
      const Result<InferenceResult> aborted =
          RunInferTurboPregel(d.graph, *model, doomed);
      ASSERT_FALSE(aborted.ok()) << "kill at superstep " << kill_step;
      EXPECT_EQ(aborted.status().code(), StatusCode::kAborted);

      // A "new process": fresh options, no kill switch, resume_from.
      InferTurboOptions revived = clean;
      revived.checkpoint_directory = dir;
      revived.checkpoint_interval = 1;
      revived.resume_from = true;
      const Result<InferenceResult> resumed =
          RunInferTurboPregel(d.graph, *model, revived);
      ASSERT_TRUE(resumed.ok()) << "resume after kill at superstep "
                                << kill_step << ": "
                                << resumed.status().ToString();
      EXPECT_TRUE(resumed->logits.ApproxEquals(reference->logits, 0.0f))
          << "resume after kill at superstep " << kill_step
          << ": resumed run must be bit-identical";
    }
  }
}

TEST(MapReduceCrashSweepTest, ProcessDeathAtEveryStageResumesBitIdentical) {
  const Dataset d = SkewedGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = kWorkers;
  clean.strategies.broadcast = true;
  clean.strategies.threshold_override = 10;
  const Result<InferenceResult> reference =
      RunInferTurboMapReduce(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  for (std::int64_t kill_stage = 0; kill_stage < kMrStages; ++kill_stage) {
    const std::string dir =
        FreshDir("mr_death_" + std::to_string(kill_stage));

    InferTurboOptions doomed = clean;
    doomed.checkpoint_directory = dir;
    doomed.kill_switch = [kill_stage](std::int64_t stage) {
      return stage == kill_stage;
    };
    const Result<InferenceResult> aborted =
        RunInferTurboMapReduce(d.graph, *model, doomed);
    ASSERT_FALSE(aborted.ok()) << "kill before stage " << kill_stage;
    EXPECT_EQ(aborted.status().code(), StatusCode::kAborted);

    // Killing before stage 0 leaves an empty store; resume degrades to
    // a fresh run. Every later stage resumes mid-job off the newest
    // checkpoint — including the broadcast table the reduce rounds
    // resolve references against.
    InferTurboOptions revived = clean;
    revived.checkpoint_directory = dir;
    revived.resume_from = true;
    const Result<InferenceResult> resumed =
        RunInferTurboMapReduce(d.graph, *model, revived);
    ASSERT_TRUE(resumed.ok()) << "resume after kill before stage "
                              << kill_stage << ": "
                              << resumed.status().ToString();
    EXPECT_TRUE(resumed->logits.ApproxEquals(reference->logits, 0.0f))
        << "resume after kill before stage " << kill_stage
        << ": resumed run must be bit-identical";
  }
}

}  // namespace
}  // namespace inferturbo
