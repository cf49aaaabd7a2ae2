#include "src/common/flags.h"

#include <gtest/gtest.h>

#include "src/common/byte_size.h"
#include "src/runtime/fault_plan.h"

namespace inferturbo {
namespace {

FlagParser MustParse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "binary");
  const Result<FlagParser> parsed =
      FlagParser::Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).ValueOrDie();
}

TEST(FlagParserTest, EqualsAndSpaceForms) {
  const FlagParser flags =
      MustParse({"--mode=train", "--workers", "16", "--lr=0.05"});
  EXPECT_EQ(flags.GetString("mode", ""), "train");
  EXPECT_EQ(flags.GetInt("workers", 0), 16);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0.0), 0.05);
}

TEST(FlagParserTest, BareFlagIsBooleanTrue) {
  const FlagParser flags = MustParse({"--verbose", "--mode=x"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.Has("verbose"));
}

TEST(FlagParserTest, TrailingBareFlagIsBooleanTrue) {
  const FlagParser flags = MustParse({"--mode=x", "--dry_run"});
  EXPECT_TRUE(flags.GetBool("dry_run", false));
}

TEST(FlagParserTest, FallbacksApplyWhenMissing) {
  const FlagParser flags = MustParse({});
  EXPECT_EQ(flags.GetString("mode", "demo"), "demo");
  EXPECT_EQ(flags.GetInt("workers", 8), 8);
  EXPECT_FALSE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.Has("anything"));
}

TEST(FlagParserTest, BoolSpellings) {
  const FlagParser flags =
      MustParse({"--a=true", "--b=1", "--c=yes", "--d=false", "--e=0"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_FALSE(flags.GetBool("e", true));
}

TEST(FlagParserTest, RejectsPositionalArguments) {
  const char* argv[] = {"binary", "positional"};
  EXPECT_FALSE(FlagParser::Parse(2, argv).ok());
}

TEST(FlagParserTest, RejectsBareDoubleDash) {
  const char* argv[] = {"binary", "--"};
  EXPECT_FALSE(FlagParser::Parse(2, argv).ok());
}

TEST(FlagParserTest, KeysListsEverything) {
  const FlagParser flags = MustParse({"--b=2", "--a=1"});
  EXPECT_EQ(flags.Keys(), (std::vector<std::string>{"a", "b"}));
}

std::uint64_t MustParseBytes(std::string_view text) {
  const Result<std::uint64_t> parsed = ParseByteSize(text);
  EXPECT_TRUE(parsed.ok()) << "'" << text << "': "
                           << parsed.status().ToString();
  return parsed.ok() ? *parsed : 0;
}

TEST(ParseByteSizeTest, PlainNumbersAreBytes) {
  EXPECT_EQ(MustParseBytes("0"), 0u);
  EXPECT_EQ(MustParseBytes("1048576"), 1048576u);
  EXPECT_EQ(MustParseBytes("  42  "), 42u);
}

TEST(ParseByteSizeTest, UnitsAreBinaryAndCaseInsensitive) {
  EXPECT_EQ(MustParseBytes("512MB"), 512ull << 20);
  EXPECT_EQ(MustParseBytes("512MiB"), 512ull << 20);
  EXPECT_EQ(MustParseBytes("4GiB"), 4ull << 30);
  EXPECT_EQ(MustParseBytes("4gb"), 4ull << 30);
  EXPECT_EQ(MustParseBytes("64k"), 64ull << 10);
  EXPECT_EQ(MustParseBytes("64 KB"), 64ull << 10);
  EXPECT_EQ(MustParseBytes("2tb"), 2ull << 40);
  EXPECT_EQ(MustParseBytes("100B"), 100u);
}

TEST(ParseByteSizeTest, FractionsRoundDown) {
  EXPECT_EQ(MustParseBytes("1.5KiB"), 1536u);
  EXPECT_EQ(MustParseBytes("0.5 GiB"), 512ull << 20);
  EXPECT_EQ(MustParseBytes("2.7"), 2u);
}

TEST(ParseByteSizeTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "  ", "MB", "12XB", "12MiBs", "-4GiB", "1e400", "4GiB extra",
        "nan", "inf"}) {
    EXPECT_FALSE(ParseByteSize(bad).ok()) << "'" << bad << "'";
  }
}

TEST(ParseByteSizeTest, RejectsOverflow) {
  EXPECT_FALSE(ParseByteSize("17179869184GiB").ok());
  // Just under 2^64 still parses.
  EXPECT_TRUE(ParseByteSize("15EB").ok() == false);  // unknown unit
  EXPECT_TRUE(ParseByteSize("16000000TB").ok());
}

TEST(ParseByteSizeTest, RoundTripsWithFormatBytes) {
  // FormatBytes keeps one decimal, so the round trip is exact for whole
  // units and within half a unit otherwise.
  for (const std::uint64_t bytes :
       {0ull, 100ull, 1ull << 10, 64ull << 10, 512ull << 20, 4ull << 30,
        3ull << 40}) {
    const std::string text = FormatBytes(bytes);
    const Result<std::uint64_t> parsed = ParseByteSize(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(*parsed, bytes) << text;
  }
  const std::uint64_t odd = (1ull << 30) + (357ull << 20);  // "1.3 GiB"
  const Result<std::uint64_t> parsed = ParseByteSize(FormatBytes(odd));
  ASSERT_TRUE(parsed.ok());
  const double relative_error =
      std::abs(static_cast<double>(*parsed) - static_cast<double>(odd)) /
      static_cast<double>(odd);
  EXPECT_LT(relative_error, 0.05) << FormatBytes(odd);
}

TEST(FlagParserTest, GetBytesParsesUnitsAndRejectsGarbage) {
  const FlagParser flags =
      MustParse({"--storage_memory_budget=512MB", "--bad=12parsecs"});
  const Result<std::uint64_t> budget =
      flags.GetBytes("storage_memory_budget", 0);
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(*budget, 512ull << 20);
  const Result<std::uint64_t> missing = flags.GetBytes("absent", 77);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(*missing, 77u);
  const Result<std::uint64_t> bad = flags.GetBytes("bad", 0);
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("--bad"), std::string::npos);
}

TEST(FlagParserTest, GetIntInRangeAcceptsOnlyWholeIntegersInRange) {
  const FlagParser flags = MustParse(
      {"--workers=16", "--lo=-3", "--zero=0", "--garbage=abc",
       "--suffix=4x", "--space= 4", "--plus=+4", "--empty=",
       "--wraps=4294967298", "--huge=99999999999999999999", "--neg=-2"});
  const std::int64_t kIntMax = 2147483647;
  ASSERT_TRUE(flags.GetIntInRange("workers", 8, 1, kIntMax).ok());
  EXPECT_EQ(*flags.GetIntInRange("workers", 8, 1, kIntMax), 16);
  EXPECT_EQ(*flags.GetIntInRange("lo", 0, -5, 5), -3);
  EXPECT_EQ(*flags.GetIntInRange("zero", 7, 0, kIntMax), 0);
  // A missing flag reads its fallback.
  EXPECT_EQ(*flags.GetIntInRange("absent", 8, 1, kIntMax), 8);
  // Garbage, trailing or leading junk, an empty value, a value that a
  // 32-bit cast would wrap, one past int64, and a disallowed negative.
  for (const std::string key : {"garbage", "suffix", "space", "plus", "empty",
                                "wraps", "huge", "neg"}) {
    const Result<std::int64_t> bad = flags.GetIntInRange(key, 2, 0, kIntMax);
    ASSERT_FALSE(bad.ok()) << key;
    EXPECT_TRUE(bad.status().IsInvalidArgument()) << key;
    EXPECT_NE(bad.status().message().find("--" + key + "="),
              std::string::npos)
        << bad.status().ToString();
    EXPECT_NE(bad.status().message().find("[0, 2147483647]"),
              std::string::npos)
        << bad.status().ToString();
  }
  // The range's ends are inclusive.
  EXPECT_TRUE(flags.GetIntInRange("workers", 0, 16, 16).ok());
  EXPECT_FALSE(flags.GetIntInRange("workers", 0, 17, 32).ok());
  EXPECT_FALSE(flags.GetIntInRange("workers", 0, 0, 15).ok());
}

TEST(FlagParserTest, ParseFlagsRejectsUnknownFlags) {
  const char* good[] = {"binary", "--quick", "--out=x.json"};
  const Result<FlagParser> parsed = ParseFlags(3, good, {"quick", "out"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("out", ""), "x.json");

  // A retired flag and a typo are both usage errors that name the flag.
  for (const std::string name : {"read_path", "storage_memory_budegt"}) {
    const std::string flag = "--" + name + "=1";
    const char* argv[] = {"binary", "--quick", flag.c_str()};
    const Result<FlagParser> rejected =
        ParseFlags(3, argv, {"quick", "storage_memory_budget"});
    ASSERT_FALSE(rejected.ok()) << flag;
    EXPECT_TRUE(rejected.status().IsInvalidArgument());
    EXPECT_NE(rejected.status().message().find("unknown flag --" + name),
              std::string::npos)
        << rejected.status().ToString();
  }
  // Malformed argv still fails in the parser itself.
  const char* positional[] = {"binary", "stray"};
  EXPECT_FALSE(ParseFlags(2, positional, {"quick"}).ok());
}

// --- task supervision / chaos flags (the CLI's robustness knobs) -----

TEST(FlagParserTest, SupervisionFlagsParse) {
  const FlagParser flags = MustParse(
      {"--task_deadline_ms=250", "--max_task_retries=5",
       "--speculative_execution", "--fault_plan=crash@compute:1:0"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("task_deadline_ms", 0.0), 250.0);
  EXPECT_EQ(flags.GetInt("max_task_retries", 3), 5);
  EXPECT_TRUE(flags.GetBool("speculative_execution", false));
  EXPECT_EQ(flags.GetString("fault_plan", ""), "crash@compute:1:0");
  // Has() tells a flag that was given from one left at its default.
  EXPECT_TRUE(flags.Has("task_deadline_ms"));
  EXPECT_FALSE(MustParse({"--mode=infer"}).Has("task_deadline_ms"));
}

TEST(FaultPlanSpecTest, ParsesKindsStagesAndModifiers) {
  FaultPlan plan;
  ASSERT_TRUE(ParseFaultPlan("crash@compute:1:0;transient@map:0:*x3;"
                             "straggle@reduce:*:2x-1~250",
                             &plan)
                  .ok());
  EXPECT_EQ(plan.num_rules(), 3u);
  // Rule 1 fires for compute step 1 worker 0, exactly once.
  EXPECT_EQ(plan.Next({TaskStageKind::kPregelCompute, 1, 0, 0}).kind,
            TaskFaultKind::kCrash);
  EXPECT_EQ(plan.Next({TaskStageKind::kPregelCompute, 1, 0, 1}).kind,
            TaskFaultKind::kNone);
  // Rule 2: any worker in the map stage, three shots.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.Next({TaskStageKind::kMrMap, 0, i, 0}).kind,
              TaskFaultKind::kTransient);
  }
  EXPECT_EQ(plan.Next({TaskStageKind::kMrMap, 0, 9, 0}).kind,
            TaskFaultKind::kNone);
  // Rule 3: unbounded straggle on worker 2 in any reduce round, 250 ms.
  const TaskFault straggle = plan.Next({TaskStageKind::kMrReduce, 7, 2, 0});
  EXPECT_EQ(straggle.kind, TaskFaultKind::kStraggle);
  EXPECT_DOUBLE_EQ(straggle.delay_seconds, 0.25);
  EXPECT_EQ(plan.Next({TaskStageKind::kMrReduce, 8, 2, 1}).kind,
            TaskFaultKind::kStraggle);
  EXPECT_EQ(plan.crashes_fired(), 1);
  EXPECT_EQ(plan.transients_fired(), 3);
  EXPECT_EQ(plan.delays_fired(), 2);
  EXPECT_EQ(plan.faults_fired(), 6);
  EXPECT_EQ(plan.realized_events().size(), 6u);
}

TEST(FaultPlanSpecTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"boom@compute:1:0", "crash@nowhere:1:0", "crash@compute:1",
        "crash@compute", "crash", "crash@compute:x:0",
        "crash@compute:1:0~50", "straggle@compute:1:0~",
        "crash@compute:1:0x0", "crash@compute:1:0 extra"}) {
    FaultPlan plan;
    EXPECT_FALSE(ParseFaultPlan(bad, &plan).ok()) << "'" << bad << "'";
  }
  // Empty specs (and stray separators) arm nothing and are fine.
  FaultPlan empty;
  EXPECT_TRUE(ParseFaultPlan("", &empty).ok());
  EXPECT_TRUE(ParseFaultPlan(" ; ", &empty).ok());
  EXPECT_EQ(empty.num_rules(), 0u);
}

TEST(FaultPlanSpecTest, RealizedEventsRenderStably) {
  FaultPlan plan;
  ASSERT_TRUE(ParseFaultPlan("crash@compute:1:0", &plan).ok());
  ASSERT_EQ(plan.Next({TaskStageKind::kPregelCompute, 1, 0, 2}).kind,
            TaskFaultKind::kCrash);
  const std::vector<TaskFaultEvent> events = plan.realized_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(TaskFaultEventToString(events[0]), "crash@compute:1:0#2");
}

}  // namespace
}  // namespace inferturbo
