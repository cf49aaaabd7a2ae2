// Fault tolerance — the system property the paper inherits from its
// substrates (§I: "it gains good system properties (e.g., scalability,
// fault tolerance) of those mature infrastructures"). These tests
// crash worker/task attempts mid-job through a FaultPlan and require
// the recovered run to produce *bit-identical* results to an
// undisturbed one.
#include <gtest/gtest.h>

#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/nn/model.h"
#include "src/runtime/fault_plan.h"

namespace inferturbo {
namespace {

Dataset SmallGraph() {
  PowerLawConfig config;
  config.num_nodes = 500;
  config.avg_degree = 6.0;
  config.seed = 3;
  return MakePowerLawDataset(config, /*feature_dim=*/12);
}

std::unique_ptr<GnnModel> SmallModel(const Graph& g) {
  ModelConfig config;
  config.input_dim = g.feature_dim();
  config.hidden_dim = 8;
  config.num_classes = g.num_classes();
  config.num_layers = 3;  // enough supersteps to fail in the middle
  return MakeSageModel(config);
}

// A Pregel job whose crashed superstep goes straight to a checkpoint
// restore: no per-task retry and no superstep re-execution.
InferTurboOptions RollbackOnCrash(InferTurboOptions options,
                                  std::int64_t checkpoint_interval,
                                  FaultPlan* plan) {
  options.checkpoint_interval = checkpoint_interval;
  options.fault_plan = plan;
  options.supervision.max_task_retries = 0;
  options.supervision.max_superstep_reexecutions = 0;
  return options;
}

TEST(PregelFaultToleranceTest, RecoversFromSingleWorkerCrash) {
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = 4;
  clean.strategies.partial_gather = true;
  const Result<InferenceResult> reference =
      RunInferTurboPregel(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  // Worker 2 crashes once, in superstep 2.
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kPregelCompute, /*stage_index=*/2,
                /*executor=*/2);
  const InferTurboOptions faulty = RollbackOnCrash(clean, 1, &plan);
  const Result<InferenceResult> recovered =
      RunInferTurboPregel(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->metrics.supervision.checkpoint_restores, 1);
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f))
      << "recovered run must be bit-identical";
  // The replayed superstep shows up as extra accounted work.
  EXPECT_EQ(recovered->metrics.num_steps(),
            reference->metrics.num_steps() + 1);
}

TEST(PregelFaultToleranceTest, RecoversFromRepeatedCrashes) {
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = 4;
  const Result<InferenceResult> reference =
      RunInferTurboPregel(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  // Three distinct crashes across different steps/workers.
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kPregelCompute, 1, 0);
  plan.ArmCrash(TaskStageKind::kPregelCompute, 2, 3);
  plan.ArmCrash(TaskStageKind::kPregelCompute, 3, 1);
  const InferTurboOptions faulty = RollbackOnCrash(clean, 2, &plan);
  const Result<InferenceResult> recovered =
      RunInferTurboPregel(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->metrics.supervision.checkpoint_restores, 3);
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f));
}

TEST(PregelFaultToleranceTest, CheckpointIntervalControlsReplayDepth) {
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);
  // Interval 4 on a 4-superstep job -> only step 0 is checkpointed, so
  // a crash at step 3 replays steps 0..3 (4 extra metric steps... the
  // aborted attempt plus three replayed ones = job steps + 4 - 1 + 1).
  InferTurboOptions clean;
  clean.num_workers = 3;
  const Result<InferenceResult> reference =
      RunInferTurboPregel(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kPregelCompute, /*stage_index=*/3,
                /*executor=*/0);
  const InferTurboOptions faulty = RollbackOnCrash(clean, 4, &plan);
  const Result<InferenceResult> recovered =
      RunInferTurboPregel(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->metrics.supervision.checkpoint_restores, 1);
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f));
  // Replay from step 0: aborted attempt at step 3 + steps 0,1,2 redone.
  EXPECT_EQ(recovered->metrics.num_steps(),
            reference->metrics.num_steps() + 4);
}

TEST(MapReduceFaultToleranceTest, ReExecutesFailedReduceTask) {
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = 4;
  clean.strategies.partial_gather = true;
  const Result<InferenceResult> reference =
      RunInferTurboMapReduce(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  // Instance 1's reduce task crashes once, in stage 2 (reduce round 1).
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kMrReduce, /*stage_index=*/2,
                /*executor=*/1);
  InferTurboOptions faulty = clean;
  faulty.fault_plan = &plan;
  const Result<InferenceResult> recovered =
      RunInferTurboMapReduce(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->metrics.supervision.retries, 1);
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f));
  // Unlike Pregel's rollback, only the failed task re-runs: stage
  // count is unchanged; the retried instance just worked longer.
  EXPECT_EQ(recovered->metrics.num_steps(),
            reference->metrics.num_steps());
}

TEST(MapReduceFaultToleranceTest, SurvivesManyFailures) {
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = 4;
  const Result<InferenceResult> reference =
      RunInferTurboMapReduce(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  // Every instance fails once in every reduce stage (stages 1..3).
  // Three crashes per executor would quarantine all of them, so
  // quarantine is off: each retry stays on its home executor.
  FaultPlan plan;
  for (std::int64_t stage = 1; stage <= 3; ++stage) {
    for (int instance = 0; instance < 4; ++instance) {
      plan.ArmCrash(TaskStageKind::kMrReduce, stage, instance);
    }
  }
  InferTurboOptions faulty = clean;
  faulty.fault_plan = &plan;
  faulty.supervision.quarantine_threshold = 0;
  const Result<InferenceResult> recovered =
      RunInferTurboMapReduce(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->metrics.supervision.retries, 12);
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f));
}

TEST(PregelFaultToleranceTest, RecoveryReplaysBroadcastBoard) {
  // With the broadcast strategy on, hub payloads live on the engine's
  // board between supersteps; the checkpoint must capture it or the
  // replayed superstep would resolve stale (or missing) references.
  PowerLawConfig config;
  config.num_nodes = 400;
  config.avg_degree = 8.0;
  config.alpha = 1.5;
  config.skew = PowerLawSkew::kOut;  // guarantees hubs -> board traffic
  config.seed = 23;
  const Dataset d = MakePowerLawDataset(config, /*feature_dim=*/10);
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = 4;
  clean.strategies.broadcast = true;
  clean.strategies.threshold_override = 10;
  const Result<InferenceResult> reference =
      RunInferTurboPregel(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  // Crash in a middle superstep, after broadcast payloads were
  // published and references are in flight.
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kPregelCompute, /*stage_index=*/2,
                /*executor=*/1);
  const InferTurboOptions faulty = RollbackOnCrash(clean, 1, &plan);
  const Result<InferenceResult> recovered =
      RunInferTurboPregel(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->metrics.supervision.checkpoint_restores, 1);
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f));
}

TEST(PregelFaultToleranceTest, FailureWithoutCheckpointingIsCleanError) {
  // A worker failure with checkpointing disabled is unrecoverable, but
  // it must surface as a Status the caller can handle — not a process
  // abort.
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kPregelCompute, /*stage_index=*/1,
                /*executor=*/0);
  InferTurboOptions base;
  base.num_workers = 4;
  // Checkpointing explicitly off.
  const InferTurboOptions faulty = RollbackOnCrash(base, 0, &plan);
  const Result<InferenceResult> result =
      RunInferTurboPregel(d.graph, *model, faulty);
  ASSERT_FALSE(result.ok());
  // The stage's crash code survives; the message says why it was final.
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find(
                "no checkpoint to restore (set checkpoint_interval)"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(plan.crashes_fired(), 1);
}

TEST(PregelFaultToleranceTest, RollbackRestoresExportedEmbeddings) {
  // A rollback decodes the driver's embedding buffer through the same
  // shape checks a resume uses; the recovered embeddings must match a
  // clean run's bit for bit.
  const Dataset d = SmallGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = 4;
  clean.export_embeddings = true;
  const Result<InferenceResult> reference =
      RunInferTurboPregel(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->embeddings.empty());

  // The crash hits the last superstep, which fills the embeddings;
  // the rollback restores the buffers checkpointed before superstep 2.
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kPregelCompute, /*stage_index=*/3,
                /*executor=*/1);
  const InferTurboOptions faulty = RollbackOnCrash(clean, 2, &plan);
  const Result<InferenceResult> recovered =
      RunInferTurboPregel(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->metrics.supervision.checkpoint_restores, 1);
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f));
  EXPECT_TRUE(
      recovered->embeddings.ApproxEquals(reference->embeddings, 0.0f))
      << "recovered embeddings must be bit-identical";
}

}  // namespace
}  // namespace inferturbo
