// Chaos sweep — the supervision counterpart of crash_sweep_test.
// Randomized compute-fault schedules (crash / transient / straggle),
// straggler-plus-speculation scenarios, the Pregel degradation ladder
// (task retry -> superstep re-execution -> checkpoint restore -> clean
// error), and seeded random I/O fault record/replay, on both backends
// and all three load-balancing strategies. Every recovered run must be
// bit-identical to an undisturbed one, and the supervision counters
// must account for exactly the faults the plan injected.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/io_fault.h"
#include "src/common/rng.h"
#include "src/graph/datasets.h"
#include "src/inference/inferturbo_mapreduce.h"
#include "src/inference/inferturbo_pregel.h"
#include "src/nn/model.h"
#include "src/runtime/fault_plan.h"
#include "src/telemetry/run_report.h"

namespace inferturbo {
namespace {

// Out-skewed so broadcast and shadow-nodes actually engage their hub
// handling while the supervisor retries around them.
Dataset ChaosGraph() {
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
constexpr std::int64_t kSteps = 4;  // supersteps / MR stage indices

struct StrategyVariant {
  const char* name;
  StrategyConfig strategies;
};

std::vector<StrategyVariant> AllStrategies() {
  StrategyConfig pg;
  pg.partial_gather = true;
  StrategyConfig bc;
  bc.broadcast = true;
  bc.threshold_override = 10;
  StrategyConfig sn;
  sn.shadow_nodes = true;
  sn.threshold_override = 10;
  return {{"partial_gather", pg}, {"broadcast", bc}, {"shadow_nodes", sn}};
}

// A seeded plan that is always inside the default retry budget: the
// crash and the transient can at worst land on the same task in the
// same stage (2 failures < 3 retries), and straggles never fail.
void ArmRandomPlan(std::uint64_t seed, FaultPlan* plan) {
  Rng rng(seed);
  const auto step = [&] {
    return static_cast<std::int64_t>(rng.NextBounded(kSteps));
  };
  const auto worker = [&] { return static_cast<int>(rng.NextBounded(kWorkers)); };
  plan->ArmCrash(TaskStageKind::kAny, step(), worker(), /*times=*/1);
  plan->ArmTransient(TaskStageKind::kAny, step(), worker(), /*times=*/1);
  for (int i = 0; i < 2; ++i) {
    plan->ArmDelay(TaskStageKind::kAny, step(), worker(),
                   /*delay_seconds=*/0.005 + 0.005 * rng.NextBounded(3),
                   /*times=*/1);
  }
}

using BackendFn = Result<InferenceResult> (*)(const Graph&, const GnnModel&,
                                              const InferTurboOptions&);

struct Backend {
  const char* name;
  BackendFn run;
};

std::vector<Backend> BothBackends() {
  return {{"pregel",
           [](const Graph& g, const GnnModel& m, const InferTurboOptions& o) {
             return RunInferTurboPregel(g, m, o);
           }},
          {"mapreduce",
           [](const Graph& g, const GnnModel& m, const InferTurboOptions& o) {
             return RunInferTurboMapReduce(g, m, o);
           }}};
}

TEST(ChaosSweepTest, RandomizedPlansStayBitIdenticalOnBothBackends) {
  const Dataset d = ChaosGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  for (const Backend& backend : BothBackends()) {
    for (const StrategyVariant& variant : AllStrategies()) {
      InferTurboOptions clean;
      clean.num_workers = kWorkers;
      clean.strategies = variant.strategies;
      const Result<InferenceResult> reference =
          backend.run(d.graph, *model, clean);
      ASSERT_TRUE(reference.ok())
          << backend.name << "/" << variant.name << ": "
          << reference.status().ToString();

      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        FaultPlan plan;
        ArmRandomPlan(seed * 31 + (variant.name[0] == 'p' ? 0 : 7), &plan);

        InferTurboOptions chaotic = clean;
        chaotic.fault_plan = &plan;  // implicitly enables supervision
        const Result<InferenceResult> survived =
            backend.run(d.graph, *model, chaotic);
        ASSERT_TRUE(survived.ok())
            << backend.name << "/" << variant.name << " seed " << seed
            << ": " << survived.status().ToString();
        EXPECT_TRUE(survived->logits.ApproxEquals(reference->logits, 0.0f))
            << backend.name << "/" << variant.name << " seed " << seed
            << ": chaotic run must be bit-identical";

        // Supervision accounting matches the realized plan exactly:
        // every injected crash/transient burned one retry, straggles
        // burned none, and nothing escalated past rung 1.
        const SupervisionMetrics& s = survived->metrics.supervision;
        EXPECT_EQ(s.injected_crashes, plan.crashes_fired());
        EXPECT_EQ(s.injected_transients, plan.transients_fired());
        EXPECT_EQ(s.injected_delays, plan.delays_fired());
        EXPECT_EQ(s.retries, plan.crashes_fired() + plan.transients_fired());
        EXPECT_EQ(s.superstep_reexecutions, 0);
        EXPECT_EQ(s.checkpoint_restores, 0);
        EXPECT_GT(s.tasks, 0);
        // The crash rule's coordinates always occur on both backends,
        // so the plan never fires zero faults.
        EXPECT_GE(plan.crashes_fired(), 1) << backend.name << " seed " << seed;
      }
    }
  }
}

TEST(ChaosSweepTest, SpeculativeBackupRescuesStragglerOnBothBackends) {
  const Dataset d = ChaosGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  for (const Backend& backend : BothBackends()) {
    InferTurboOptions clean;
    clean.num_workers = kWorkers;
    clean.strategies.partial_gather = true;
    const Result<InferenceResult> reference =
        backend.run(d.graph, *model, clean);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    // Worker 1's first matching attempt sleeps 500 ms; the backup
    // launches after 20 ms, commits, and the straggler's cooperative
    // delay aborts — so the run finishes long before the straggle
    // would have.
    FaultPlan plan;
    plan.ArmDelay(TaskStageKind::kAny, -1, /*executor=*/1,
                  /*delay_seconds=*/0.5, /*times=*/1);

    InferTurboOptions mitigated = clean;
    mitigated.fault_plan = &plan;
    mitigated.supervision.speculative_execution = true;
    mitigated.supervision.speculation_delay_seconds = 0.02;
    const Result<InferenceResult> survived =
        backend.run(d.graph, *model, mitigated);
    ASSERT_TRUE(survived.ok())
        << backend.name << ": " << survived.status().ToString();
    EXPECT_TRUE(survived->logits.ApproxEquals(reference->logits, 0.0f))
        << backend.name << ": speculative winner must be bit-identical";

    const SupervisionMetrics& s = survived->metrics.supervision;
    EXPECT_EQ(s.injected_delays, 1) << backend.name;
    EXPECT_GE(s.speculative_launched, 1) << backend.name;
    EXPECT_GE(s.speculative_commits, 1) << backend.name;
    EXPECT_EQ(s.retries, 0) << backend.name;  // straggle is not a failure
  }
}

TEST(PregelChaosLadderTest, SuperstepReexecutionRecoversAfterRetryExhaustion) {
  const Dataset d = ChaosGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = kWorkers;
  clean.strategies.partial_gather = true;
  const Result<InferenceResult> reference =
      RunInferTurboPregel(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  // Five crash shots pinned to executor 0 in superstep 1: four exhaust
  // the per-task retry budget (failing the stage), the fifth burns one
  // retry inside the re-executed superstep, which then completes.
  // Quarantine is disabled so the shots cannot be dodged by
  // reassignment — this test is about rung 2, not rung 1.5.
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kPregelCompute, /*stage_index=*/1,
                /*executor=*/0, /*times=*/5);

  InferTurboOptions faulty = clean;
  faulty.fault_plan = &plan;
  faulty.supervision.quarantine_threshold = 0;
  const Result<InferenceResult> recovered =
      RunInferTurboPregel(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f))
      << "re-executed superstep must be bit-identical";

  const SupervisionMetrics& s = recovered->metrics.supervision;
  EXPECT_EQ(s.injected_crashes, 5);
  EXPECT_EQ(s.superstep_reexecutions, 1);
  EXPECT_EQ(s.checkpoint_restores, 0);
  EXPECT_EQ(plan.crashes_fired(), 5);
}

TEST(PregelChaosLadderTest, CheckpointRestoreIsTheRungAfterReexecution) {
  const Dataset d = ChaosGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = kWorkers;
  clean.strategies.partial_gather = true;
  const Result<InferenceResult> reference =
      RunInferTurboPregel(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  // Twelve shots = three failed stage executions of superstep 1 (the
  // original plus both re-executions, four failures each). That
  // exhausts rung 2, forcing a checkpoint restore; the replay after
  // the restore runs with the plan spent and completes.
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kPregelCompute, /*stage_index=*/1,
                /*executor=*/0, /*times=*/12);

  InferTurboOptions faulty = clean;
  faulty.checkpoint_interval = 1;
  faulty.fault_plan = &plan;
  faulty.supervision.quarantine_threshold = 0;
  const Result<InferenceResult> recovered =
      RunInferTurboPregel(d.graph, *model, faulty);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->logits.ApproxEquals(reference->logits, 0.0f))
      << "checkpoint-restored run must be bit-identical";

  const SupervisionMetrics& s = recovered->metrics.supervision;
  EXPECT_EQ(s.injected_crashes, 12);
  EXPECT_EQ(s.superstep_reexecutions, 2);
  EXPECT_EQ(s.checkpoint_restores, 1);
}

TEST(PregelChaosLadderTest, ExhaustedLadderReturnsCleanErrorNotAHang) {
  const Dataset d = ChaosGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  // Unbounded crashes on executor 0 in superstep 1 and no checkpoint:
  // retries, then both re-executions fail, and rung 4 surfaces the
  // stage error as a Status instead of hanging or crashing.
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kPregelCompute, /*stage_index=*/1,
                /*executor=*/0, /*times=*/-1);

  InferTurboOptions doomed;
  doomed.num_workers = kWorkers;
  doomed.strategies.partial_gather = true;
  doomed.fault_plan = &plan;
  doomed.supervision.quarantine_threshold = 0;
  const Result<InferenceResult> failed =
      RunInferTurboPregel(d.graph, *model, doomed);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_NE(failed.status().message().find("exhausted"), std::string::npos)
      << failed.status().ToString();
  // Original + two re-executions, four failures each.
  EXPECT_EQ(plan.crashes_fired(), 12);
}

TEST(PregelChaosLadderTest, RestoreLoopEndsAtTheAttemptBudget) {
  const Dataset d = ChaosGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  // Unbounded crashes on executor 0 in superstep 1, with a checkpoint
  // before every superstep: rung 3 restores and the crash fires again,
  // forever. Only the engine's superstep-attempt budget ends the loop.
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kPregelCompute, /*stage_index=*/1,
                /*executor=*/0, /*times=*/-1);

  InferTurboOptions doomed;
  doomed.num_workers = kWorkers;
  doomed.strategies.partial_gather = true;
  doomed.checkpoint_interval = 1;
  doomed.fault_plan = &plan;
  doomed.supervision.quarantine_threshold = 0;
  const Result<InferenceResult> failed =
      RunInferTurboPregel(d.graph, *model, doomed);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kAborted)
      << failed.status().ToString();
  EXPECT_NE(failed.status().message().find("superstep attempts"),
            std::string::npos)
      << failed.status().ToString();
  EXPECT_GT(plan.crashes_fired(), 12);
}

TEST(MapReduceChaosTest, ExhaustedRetriesFailCleanly) {
  const Dataset d = ChaosGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  // Every reduce attempt of round 0 crashes, on every executor — even
  // quarantine-driven reassignment finds no healthy home, so the task
  // exhausts its budget and the job reports a clean error.
  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kMrReduce, /*stage_index=*/1, /*executor=*/-1,
                /*times=*/-1);

  InferTurboOptions doomed;
  doomed.num_workers = kWorkers;
  doomed.strategies.partial_gather = true;
  doomed.fault_plan = &plan;
  const Result<InferenceResult> failed =
      RunInferTurboMapReduce(d.graph, *model, doomed);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("exhausted"), std::string::npos)
      << failed.status().ToString();
}

TEST(ChaosSweepTest, RunReportCarriesTheFaultsSection) {
  const Dataset d = ChaosGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  FaultPlan plan;
  plan.ArmCrash(TaskStageKind::kPregelCompute, /*stage_index=*/1,
                /*executor=*/0, /*times=*/1);
  plan.ArmDelay(TaskStageKind::kAny, -1, /*executor=*/2,
                /*delay_seconds=*/0.01, /*times=*/2);

  InferTurboOptions options;
  options.num_workers = kWorkers;
  options.strategies.partial_gather = true;
  options.fault_plan = &plan;
  const Result<InferenceResult> run =
      RunInferTurboPregel(d.graph, *model, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  RunReportOptions report_options;
  report_options.backend = "pregel";
  const JsonValue report = BuildRunReport(run->metrics, report_options);
  const JsonValue* faults = report.Find("faults");
  ASSERT_NE(faults, nullptr) << report.Dump(2);
  EXPECT_EQ(faults->Find("injected_crashes")->as_int(), 1);
  EXPECT_EQ(faults->Find("injected_delays")->as_int(), 2);
  EXPECT_EQ(faults->Find("retries")->as_int(), 1);
  EXPECT_GT(faults->Find("tasks")->as_int(), 0);
  EXPECT_GT(faults->Find("attempts")->as_int(),
            faults->Find("tasks")->as_int());

  // The report round-trips through the strict parser, faults included.
  const Result<JsonValue> reparsed = ParseJson(report.Dump(2));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->Find("faults")->Find("injected_crashes")->as_int(), 1);

  // Every realized injection is in the plan's replayable log. (Firing
  // order between concurrent attempts is not deterministic, so count
  // kinds rather than positions.)
  const std::vector<TaskFaultEvent> events = plan.realized_events();
  ASSERT_EQ(events.size(), 3u);
  int crashes = 0;
  int straggles = 0;
  for (const TaskFaultEvent& event : events) {
    crashes += event.kind == TaskFaultKind::kCrash ? 1 : 0;
    straggles += event.kind == TaskFaultKind::kStraggle ? 1 : 0;
    EXPECT_FALSE(TaskFaultEventToString(event).empty());
  }
  EXPECT_EQ(crashes, 1);
  EXPECT_EQ(straggles, 2);
}

TEST(RandomIoFaultTest, SameSeedSameScheduleAndReplayMatches) {
  RandomIoFaultInjector::Profile profile;
  profile.fault_probability = 0.5;
  profile.log_faults = false;

  const auto drive = [](IoFaultInjector* injector) {
    std::vector<IoFaultKind> kinds;
    for (int i = 0; i < 40; ++i) {
      const IoOp op = (i % 2 == 0) ? IoOp::kWrite : IoOp::kRead;
      kinds.push_back(
          injector->Tick(op, "spill/block_" + std::to_string(i % 5)));
    }
    return kinds;
  };

  RandomIoFaultInjector a(/*seed=*/99, profile);
  RandomIoFaultInjector b(/*seed=*/99, profile);
  const std::vector<IoFaultKind> realized = drive(&a);
  EXPECT_EQ(realized, drive(&b)) << "same seed must realize identically";
  ASSERT_GT(a.faults_fired(), 0);
  EXPECT_EQ(a.realized_schedule().size(),
            static_cast<std::size_t>(a.faults_fired()));

  RandomIoFaultInjector other(/*seed=*/100, profile);
  EXPECT_NE(realized, drive(&other)) << "different seed, different chaos";

  // Replay is keyed by (op, path) — each key's faults come back in
  // recorded order, front-loaded within that key's ticks (by design,
  // so replay is robust to thread-interleaving differences). The
  // faults per key must therefore match the recording exactly.
  ReplayIoFaultInjector replay(a.realized_schedule());
  const std::vector<IoFaultKind> replayed = drive(&replay);
  std::map<std::pair<int, std::string>, std::vector<IoFaultKind>> want;
  for (const IoFaultEvent& event : a.realized_schedule()) {
    want[{static_cast<int>(event.op), event.path}].push_back(event.kind);
  }
  std::map<std::pair<int, std::string>, std::vector<IoFaultKind>> got;
  for (int i = 0; i < 40; ++i) {
    if (replayed[static_cast<std::size_t>(i)] == IoFaultKind::kNone) continue;
    const IoOp op = (i % 2 == 0) ? IoOp::kWrite : IoOp::kRead;
    got[{static_cast<int>(op), "spill/block_" + std::to_string(i % 5)}]
        .push_back(replayed[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(replay.faults_fired(), a.faults_fired());
  EXPECT_EQ(replay.faults_pending(), 0);
}

TEST(RandomIoFaultTest, SpillChaosRecordsAndReplaysBitIdentical) {
  const Dataset d = ChaosGraph();
  const std::unique_ptr<GnnModel> model = SmallModel(d.graph);

  InferTurboOptions clean;
  clean.num_workers = kWorkers;
  clean.strategies.partial_gather = true;
  const Result<InferenceResult> reference =
      RunInferTurboMapReduce(d.graph, *model, clean);
  ASSERT_TRUE(reference.ok());

  // Only retryable fault kinds (write failures; read-side draws degrade
  // to short reads) and a cap well under the retry budget, so the run
  // always survives.
  RandomIoFaultInjector::Profile profile;
  profile.fault_probability = 0.3;
  profile.write_fail_weight = 1.0;
  profile.no_space_weight = 0.0;
  profile.short_read_weight = 0.0;
  profile.bit_flip_weight = 0.0;
  profile.max_faults = 3;
  profile.log_faults = false;
  RandomIoFaultInjector random(/*seed=*/7, profile);

  // One directory for both runs: replay keys faults by path, so the
  // replayed job must touch the exact paths the recording did.
  const std::string spill_dir = FreshDir("chaos_spill");

  InferTurboOptions recorded = clean;
  recorded.mr_spill_directory = spill_dir;
  recorded.io_fault_injector = &random;
  recorded.io_retry.max_attempts = 8;
  const Result<InferenceResult> first =
      RunInferTurboMapReduce(d.graph, *model, recorded);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->logits.ApproxEquals(reference->logits, 0.0f));

  const std::vector<IoFaultEvent> schedule = random.realized_schedule();
  ASSERT_GT(schedule.size(), 0u) << "expected the seed to fire faults";

  // A second run replays the exact same faults against the same spill
  // paths — the deterministic reproduction of a randomized failure.
  ReplayIoFaultInjector replay(schedule);
  InferTurboOptions replayed = clean;
  replayed.mr_spill_directory = FreshDir("chaos_spill");
  replayed.io_fault_injector = &replay;
  replayed.io_retry.max_attempts = 8;
  const Result<InferenceResult> second =
      RunInferTurboMapReduce(d.graph, *model, replayed);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->logits.ApproxEquals(reference->logits, 0.0f));
  EXPECT_EQ(replay.faults_fired(),
            static_cast<std::int64_t>(schedule.size()));
  EXPECT_EQ(replay.faults_pending(), 0);
}

}  // namespace
}  // namespace inferturbo
