// The CI regression gate over telemetry documents. Two modes:
//
//   report_diff --baseline=BENCH_x.json --current=BENCH_x.ci.json
//       [--tolerance=0.25] [--abs-tolerance=1e-9] [--keys=speedup,gflops]
//       [--fail-on-missing] [--min-compared=1]
//
//     Compares two run_report.v1 / BENCH_*.json documents. Bench
//     documents (top-level "results" array) are aligned row-by-row on
//     their identity fields; keys are gated by direction (times may
//     not grow, throughputs may not shrink, checksums/CRCs must match
//     exactly — see ClassifyMetricKey). Exit 1 on any regression.
//
//   report_diff --lint=FILE [--schema=inferturbo.run_timeline.v1]
//
//     Validates that FILE is well-formed JSON (one document or JSONL)
//     using the in-tree strict parser, optionally requiring every
//     document's "schema" member. Exit 1 on malformed input.
//
// Exit codes: 0 ok, 1 regression/lint failure, 2 usage error (an
// unknown flag is one).
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/telemetry/report_diff.h"

namespace inferturbo {
namespace {

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

int Main(int argc, const char* const argv[]) {
  const Result<FlagParser> flags = ParseFlags(
      argc, argv,
      {"lint", "schema", "baseline", "current", "tolerance", "abs-tolerance",
       "keys", "fail-on-missing", "min-compared"});
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }

  const std::string lint = flags->GetString("lint", "");
  if (!lint.empty()) {
    const Result<std::int64_t> documents =
        LintJsonFile(lint, flags->GetString("schema", ""));
    if (!documents.ok()) {
      std::fprintf(stderr, "report_diff: lint failed: %s\n",
                   documents.status().ToString().c_str());
      return 1;
    }
    std::printf("report_diff: %s ok (%lld documents)\n", lint.c_str(),
                static_cast<long long>(*documents));
    return 0;
  }

  const std::string baseline = flags->GetString("baseline", "");
  const std::string current = flags->GetString("current", "");
  if (baseline.empty() || current.empty()) {
    std::fprintf(
        stderr,
        "usage: report_diff --baseline=A.json --current=B.json\n"
        "           [--tolerance=0.25] [--abs-tolerance=1e-9]\n"
        "           [--keys=substr,substr] [--fail-on-missing]\n"
        "           [--min-compared=1]\n"
        "       report_diff --lint=FILE [--schema=NAME]\n");
    return 2;
  }

  ReportDiffOptions options;
  options.tolerance = flags->GetDouble("tolerance", options.tolerance);
  options.abs_tolerance =
      flags->GetDouble("abs-tolerance", options.abs_tolerance);
  options.key_filters = SplitCommas(flags->GetString("keys", ""));
  options.fail_on_missing = flags->GetBool("fail-on-missing", false);
  options.min_compared =
      flags->GetInt("min-compared", options.min_compared);

  const Result<ReportDiffResult> result =
      DiffReportFiles(baseline, current, options);
  if (!result.ok()) {
    std::fprintf(stderr, "report_diff: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  std::printf("report_diff: %s vs %s\n%s", baseline.c_str(),
              current.c_str(), FormatReportDiff(*result).c_str());
  return result->ok ? 0 : 1;
}

}  // namespace
}  // namespace inferturbo

int main(int argc, char** argv) {
  return inferturbo::Main(argc, argv);
}
