// Superstep data-plane benchmarks and regression harness: times the
// kernel-backed gather / combine / route path against the scalar
// oracles (tests/scalar_oracles.h) on power-law (zipf) inboxes and writes
// BENCH_superstep.json — one record per (op, shape, threads) with
// throughput, ns/message, and the measured speedup. Self-contained
// timing (no external benchmark framework), same JSON and flag shape
// as bench_kernels so tools/report_diff gates both against their
// checked-in baselines.
//
// Usage:
//   bench_superstep                    full sweep, writes BENCH_superstep.json
//   bench_superstep --quick            CI smoke: smaller inbox, shorter timing
//   bench_superstep --out=PATH         write the JSON elsewhere
//   bench_superstep --threads=LIST     comma-separated thread sweep
//                                      (default "1,2,8" — fixed so baselines
//                                      compare like against like)
//   bench_superstep --scaling-gate     exit 1 if any op's best multi-thread
//                                      time is worse than its 1-thread time
//                                      by more than --scaling-tolerance
//
// Unknown flags exit 2.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/telemetry/perf_counters.h"
#include "src/gas/message.h"
#include "src/gas/superstep_gather.h"
#include "src/graph/partition.h"
#include "src/tensor/kernels/kernel_config.h"
#include "src/tensor/kernels/kernels.h"
#include "tests/scalar_oracles.h"

namespace inferturbo {
namespace {

// Keeps results observable so the optimizer cannot delete a timed call.
volatile float g_sink = 0.0f;
void Sink(const Tensor& t) {
  if (t.size() > 0) g_sink = g_sink + t.data()[0];
}
void Sink(const GatherResult& r) {
  Sink(r.pooled);
  if (!r.rows.empty()) g_sink = g_sink + r.rows[0][0];
}

struct BenchRecord {
  std::string op;
  std::string shape;
  int threads = 1;
  double seconds_per_iter = 0.0;
  double gflops = 0.0;       // folded floats per second, 1e-9
  double ns_per_elem = 0.0;  // per message
  double speedup_vs_reference = 0.0;
  // Hardware counters per fast-side iteration; 0 when perf_event_open
  // is unavailable. Calling-thread counters only, so multi-thread rows
  // undercount fan-out work — compare threads=1 rows across runs.
  double cycles_per_iter = 0.0;
  double instructions_per_iter = 0.0;
  double llc_misses_per_iter = 0.0;
};

void SetThreads(int max_threads) {
  kernels::KernelConfig config = kernels::GetKernelConfig();
  config.max_threads = max_threads;
  config.min_parallel_work = max_threads > 1 ? 1 : (std::int64_t{1} << 62);
  kernels::SetKernelConfig(config);
}

struct Harness {
  bench::TimingOptions timing;
  // Fixed sweep (default {1, 2, 8}) so baseline rows always compare
  // like against like regardless of the machine's core count.
  std::vector<int> thread_set = {1, 2, 8};
  std::vector<BenchRecord> records;

  template <typename RefFn, typename FastFn>
  void Bench(const std::string& op, const std::string& shape, double flops,
             double elems, RefFn&& ref, FastFn&& fast) {
    for (const int threads : thread_set) {
      // The scalar side is re-timed inside every row, interleaved
      // iteration by iteration with the fast side: on shared hardware
      // the effective memory bandwidth drifts minute to minute, and a
      // ratio of measurements taken a minute apart is mostly noise.
      // The reference always runs with the serial kernel config (the
      // always-serial oracle convention the kernel benches share).
      double ref_seconds = std::numeric_limits<double>::infinity();
      double seconds = std::numeric_limits<double>::infinity();
      double elapsed = 0.0;
      std::int64_t iters = 0;
      PerfCounterValues counters;
      SetThreads(1);
      ref();
      SetThreads(threads);
      fast();
      while (elapsed < 2.0 * timing.min_seconds && iters < timing.max_iters) {
        SetThreads(1);
        {
          WallTimer timer;
          ref();
          const double s = timer.ElapsedSeconds();
          ref_seconds = std::min(ref_seconds, s);
          elapsed += s;
        }
        SetThreads(threads);
        {
          // The scope brackets only the timed fast block, so counter
          // totals divide cleanly by `iters` (warmup excluded).
          PerfCounterScope profile("bench", &counters);
          WallTimer timer;
          fast();
          const double s = timer.ElapsedSeconds();
          seconds = std::min(seconds, s);
          elapsed += s;
        }
        ++iters;
      }
      BenchRecord record;
      record.op = op;
      record.shape = shape;
      record.threads = threads;
      record.seconds_per_iter = seconds;
      record.gflops = flops > 0 ? flops / seconds * 1e-9 : 0.0;
      record.ns_per_elem = elems > 0 ? seconds * 1e9 / elems : 0.0;
      record.speedup_vs_reference = ref_seconds / seconds;
      if (counters.valid && iters > 0) {
        const double per_iter = 1.0 / static_cast<double>(iters);
        record.cycles_per_iter =
            static_cast<double>(counters.cycles) * per_iter;
        record.instructions_per_iter =
            static_cast<double>(counters.instructions) * per_iter;
        record.llc_misses_per_iter =
            static_cast<double>(counters.llc_misses) * per_iter;
      }
      records.push_back(record);
      std::printf("%-15s %-16s threads=%d  %10.3f ms/iter  %7.2f Gfold/s"
                  "  %8.3f ns/msg  %5.2fx vs scalar\n",
                  op.c_str(), shape.c_str(), threads, seconds * 1e3,
                  record.gflops, record.ns_per_elem,
                  record.speedup_vs_reference);
    }
  }
};

// Zipf(alpha) destinations over [0, num_nodes): the hub-heavy inbox a
// power-law graph delivers. Sampled from an explicit CDF so the skew
// is exact and deterministic.
std::vector<NodeId> ZipfDsts(Rng* rng, std::int64_t num_msgs,
                             std::int64_t num_nodes, double alpha) {
  std::vector<double> cdf(static_cast<std::size_t>(num_nodes));
  double total = 0.0;
  for (std::int64_t i = 0; i < num_nodes; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf[static_cast<std::size_t>(i)] = total;
  }
  std::vector<NodeId> dsts(static_cast<std::size_t>(num_msgs));
  for (auto& d : dsts) {
    const double u = rng->NextDouble() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    d = static_cast<NodeId>(it - cdf.begin());
  }
  return dsts;
}

// One superstep's worth of traffic: `senders` dense batches (as the
// engine's routing delivers them) plus the same messages as one flat
// batch for the combine/route ops. The row pointers the scalar
// combine reads are resolved once here, untimed.
struct Workload {
  std::vector<MessageBatch> batches;
  std::vector<std::vector<const float*>> batch_rows;
  std::vector<bool> partial;
  MessageBatch flat;
  std::vector<const float*> flat_rows;
  std::vector<std::int64_t> local_index;  // identity
  std::int64_t num_nodes = 0;
  std::int64_t num_msgs = 0;
  std::int64_t msg_dim = 0;
  std::string shape;
};

Workload MakeWorkload(std::int64_t num_msgs, std::int64_t msg_dim,
                      std::int64_t num_nodes, double alpha, int senders) {
  Rng rng(17);
  Workload w;
  w.num_nodes = num_nodes;
  w.num_msgs = num_msgs;
  w.msg_dim = msg_dim;
  w.local_index.resize(static_cast<std::size_t>(num_nodes));
  for (std::int64_t i = 0; i < num_nodes; ++i) {
    w.local_index[static_cast<std::size_t>(i)] = i;
  }
  const std::vector<NodeId> dsts = ZipfDsts(&rng, num_msgs, num_nodes, alpha);
  w.flat.payload = Tensor::RandomNormal(num_msgs, msg_dim, 1.0f, &rng);
  w.flat.dst = dsts;
  w.flat.src.assign(static_cast<std::size_t>(num_msgs), 0);
  const std::int64_t per = num_msgs / senders;
  for (int s = 0; s < senders; ++s) {
    const std::int64_t begin = s * per;
    const std::int64_t end = s + 1 == senders ? num_msgs : begin + per;
    MessageBatch b;
    b.payload = Tensor(end - begin, msg_dim);
    std::copy(w.flat.payload.RowPtr(begin), w.flat.payload.RowPtr(begin) +
                                                (end - begin) * msg_dim,
              b.payload.data());
    b.dst.assign(dsts.begin() + begin, dsts.begin() + end);
    b.src.assign(static_cast<std::size_t>(end - begin),
                 static_cast<NodeId>(s));
    w.batches.push_back(std::move(b));
    w.partial.push_back(false);
  }
  const auto row_pointers = [](const MessageBatch& b) {
    std::vector<const float*> rows;
    for (std::int64_t i = 0; i < b.size(); ++i) {
      rows.push_back(b.payload.RowPtr(i));
    }
    return rows;
  };
  w.flat_rows = row_pointers(w.flat);
  for (const MessageBatch& b : w.batches) {
    w.batch_rows.push_back(row_pointers(b));
  }
  std::ostringstream label;
  label << num_msgs << "x" << msg_dim << "z" << alpha;
  w.shape = label.str();
  return w;
}

// Receiver-side gather: the full inbox → GatherResult fold, fast
// kernels vs the pinned scalar oracle.
void BenchGather(Harness* harness, const Workload& w) {
  const double elems = static_cast<double>(w.num_msgs);
  const double flops = elems * static_cast<double>(w.msg_dim);
  harness->Bench(
      "gather", w.shape, flops, elems,
      [&] {
        Sink(ScalarGatherInbox(AggKind::kSum, w.msg_dim, w.batches,
                               w.partial, w.local_index, w.num_nodes,
                               BroadcastLookupFn{}));
      },
      [&] {
        Sink(GatherSuperstepInbox(AggKind::kSum, w.msg_dim, w.batches,
                                  w.partial, w.local_index, w.num_nodes,
                                  BroadcastLookupFn{}));
      });
}

// Sender-side combine: folding one outgoing batch into the partial wire
// batch, CombineBatch vs the per-row scalar combine.
void BenchCombine(Harness* harness, const Workload& w) {
  const double elems = static_cast<double>(w.num_msgs);
  const double flops = elems * static_cast<double>(w.msg_dim);
  harness->Bench(
      "combine", w.shape, flops, elems,
      [&] {
        Sink(ScalarCombine(AggKind::kSum, w.msg_dim, w.flat.dst, w.flat_rows,
                           0)
                 .payload);
      },
      [&] { Sink(CombineBatch(AggKind::kSum, w.flat, 0).payload); });
}

// The whole partial-gather data plane: every sender combines its
// outgoing batch, the receiver gathers the partial aggregates. This is
// the acceptance row — the per-superstep message path end to end.
void BenchGatherCombine(Harness* harness, const Workload& w) {
  const double elems = static_cast<double>(w.num_msgs);
  const double flops = elems * static_cast<double>(w.msg_dim);
  const std::vector<bool> all_partial(w.batches.size(), true);
  harness->Bench(
      "gather_combine", w.shape, flops, elems,
      [&] {
        std::vector<MessageBatch> partials;
        for (std::size_t s = 0; s < w.batches.size(); ++s) {
          partials.push_back(ScalarCombine(AggKind::kSum, w.msg_dim,
                                           w.batches[s].dst, w.batch_rows[s],
                                           static_cast<NodeId>(s)));
        }
        Sink(ScalarGatherInbox(AggKind::kSum, w.msg_dim, partials,
                               all_partial, w.local_index, w.num_nodes,
                               BroadcastLookupFn{}));
      },
      [&] {
        // Senders combine concurrently — the engine shape: each sending
        // worker runs its combiner on its own pool thread, and every
        // accumulator is private to its sender. Only the baseline is
        // serial (the always-serial reference convention the kernel
        // benches share).
        const auto num_senders =
            static_cast<std::int64_t>(w.batches.size());
        std::vector<MessageBatch> partials(w.batches.size());
        kernels::ParallelForRanges(
            num_senders, (w.num_msgs / num_senders) * w.msg_dim,
            [&](std::int64_t s0, std::int64_t s1) {
              for (std::int64_t s = s0; s < s1; ++s) {
                partials[static_cast<std::size_t>(s)] =
                    CombineBatch(AggKind::kSum,
                                 w.batches[static_cast<std::size_t>(s)],
                                 static_cast<NodeId>(s));
              }
            });
        Sink(GatherSuperstepInbox(AggKind::kSum, w.msg_dim, partials,
                                  all_partial, w.local_index, w.num_nodes,
                                  BroadcastLookupFn{}));
      });
}

// Routing: bucketing one outgoing batch by destination worker, the
// low-copy SplitByWorker vs a per-row Push loop.
void BenchRoute(Harness* harness, const Workload& w) {
  const std::int64_t num_workers = 8;
  const HashPartitioner partitioner(num_workers);
  const double elems = static_cast<double>(w.num_msgs);
  harness->Bench(
      "route", w.shape, 0.0, elems,
      [&] {
        // Both sides start from their own copy of the outgoing batch —
        // the engine hands routing a batch it owns — so the comparison
        // is split strategy, not copy avoidance.
        MessageBatch outgoing(w.flat);
        std::vector<MessageBatch> slices(static_cast<std::size_t>(num_workers));
        for (std::int64_t i = 0; i < outgoing.size(); ++i) {
          const auto owner = static_cast<std::size_t>(partitioner.PartitionOf(
              outgoing.dst[static_cast<std::size_t>(i)]));
          slices[owner].Push(outgoing.dst[static_cast<std::size_t>(i)],
                             outgoing.src[static_cast<std::size_t>(i)],
                             outgoing.payload.RowPtr(i), w.msg_dim);
        }
        Sink(slices[0].payload);
      },
      [&] {
        MessageBatch outgoing(w.flat);
        std::vector<MessageBatch> slices =
            SplitByWorker(std::move(outgoing), partitioner, num_workers);
        Sink(slices[0].payload);
      });
}

void WriteJson(const std::string& path, const std::vector<BenchRecord>& records,
               bool quick, const std::vector<int>& thread_set) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_superstep: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  out << "{\n";
  out << "  \"bench\": \"bench_superstep\",\n";
  out << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  out << "  \"avx2\": " << (kernels::UsingAvx2() ? "true" : "false") << ",\n";
  out << "  \"thread_set\": \"" << bench::ThreadSetLabel(thread_set)
      << "\",\n";
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  // Explicit marker: rows carry real hardware counts, or they are all
  // zero because perf_event_open is unavailable on this host.
  out << "  \"perf_counters\": \""
      << (PerfCountersSupported() ? "available" : "unavailable") << "\",\n";
  if (!PerfCountersSupported()) {
    out << "  \"perf_fallback_reason\": \""
        << PerfCountersUnavailableReason() << "\",\n";
  }
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    char line[768];
    std::snprintf(line, sizeof(line),
                  "    {\"op\": \"%s\", \"shape\": \"%s\", \"threads\": %d, "
                  "\"seconds_per_iter\": %.6e, \"gflops\": %.4f, "
                  "\"ns_per_elem\": %.4f, \"speedup_vs_reference\": %.3f, "
                  "\"cycles_per_iter\": %.0f, "
                  "\"instructions_per_iter\": %.0f, "
                  "\"llc_misses_per_iter\": %.0f}%s",
                  r.op.c_str(), r.shape.c_str(), r.threads,
                  r.seconds_per_iter, r.gflops, r.ns_per_elem,
                  r.speedup_vs_reference, r.cycles_per_iter,
                  r.instructions_per_iter, r.llc_misses_per_iter,
                  i + 1 < records.size() ? "," : "");
    out << line << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %zu records to %s\n", records.size(), path.c_str());
}

int Main(int argc, char** argv) {
  const Result<FlagParser> flags = ParseFlags(
      argc, argv,
      {"quick", "out", "threads", "scaling-gate", "scaling-tolerance"});
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  const bool quick = flags->GetBool("quick", false);
  const std::string out_path = flags->GetString("out", "BENCH_superstep.json");
  const bool scaling_gate = flags->GetBool("scaling-gate", false);
  const double scaling_tolerance = flags->GetDouble("scaling-tolerance", 0.15);

  Harness harness;
  harness.thread_set =
      bench::ParseThreadSet(flags->GetString("threads", "1,2,8"));
  harness.timing.min_seconds = quick ? 0.1 : 0.3;
  harness.timing.max_iters = quick ? 30 : 50;

  // Measurement is the whole point of a bench run, so profiling is on
  // unconditionally; rows degrade to zero counters where the host
  // forbids perf_event_open.
  SetProfilingEnabled(true);

  std::printf("bench_superstep (%s mode, avx2=%s, threads={%s}, %u hardware "
              "threads, perf counters %s)\n\n",
              quick ? "quick" : "full", kernels::UsingAvx2() ? "on" : "off",
              bench::ThreadSetLabel(harness.thread_set).c_str(),
              std::thread::hardware_concurrency(),
              PerfCountersSupported()
                  ? "available"
                  : PerfCountersUnavailableReason().c_str());

  // The quick sweep reuses the smaller full-sweep inbox so CI's
  // report_diff gate compares real rows against the checked-in Release
  // baseline.
  const std::vector<std::int64_t> sizes =
      quick ? std::vector<std::int64_t>{262144}
            : std::vector<std::int64_t>{262144, 1048576};
  const kernels::KernelConfig saved = kernels::GetKernelConfig();
  for (const std::int64_t num_msgs : sizes) {
    const Workload w = MakeWorkload(num_msgs, /*msg_dim=*/64,
                                    /*num_nodes=*/65536, /*alpha=*/2.0,
                                    /*senders=*/8);
    BenchGather(&harness, w);
    BenchCombine(&harness, w);
    BenchGatherCombine(&harness, w);
    BenchRoute(&harness, w);
  }
  kernels::SetKernelConfig(saved);

  WriteJson(out_path, harness.records, quick, harness.thread_set);

  return scaling_gate ? bench::CheckScaling(harness.records, scaling_tolerance)
                      : 0;
}

}  // namespace
}  // namespace inferturbo

int main(int argc, char** argv) { return inferturbo::Main(argc, argv); }
