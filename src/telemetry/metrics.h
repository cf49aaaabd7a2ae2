#ifndef INFERTURBO_TELEMETRY_METRICS_H_
#define INFERTURBO_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/telemetry/json.h"

namespace inferturbo {

/// Process-wide telemetry master switch for metric instruments. When
/// off (the default) every Add/Set/Observe is a relaxed atomic load +
/// branch and nothing else — the overhead contract the bench ratio
/// gates depend on. Instruments are registered either way, so a
/// snapshot after a disabled run simply reports zeros.
namespace telemetry_internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace telemetry_internal

inline bool MetricsEnabled() {
  return telemetry_internal::g_metrics_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

/// A monotonically increasing counter. Thread-safe; all updates are
/// relaxed atomics (counters are read only at snapshot time, never for
/// cross-thread synchronization).
class Counter {
 public:
  void Add(std::int64_t delta) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  Counter() = default;
  std::atomic<std::int64_t> value_{0};
};

/// A last-write-wins instantaneous value (queue depth, bytes mapped).
class Gauge {
 public:
  void Set(std::int64_t value) {
    if (!MetricsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
    std::int64_t peak = peak_.load(std::memory_order_relaxed);
    while (value > peak &&
           !peak_.compare_exchange_weak(peak, value,
                                        std::memory_order_relaxed)) {
    }
  }
  void Add(std::int64_t delta) {
    if (!MetricsEnabled()) return;
    Set(value_.load(std::memory_order_relaxed) + delta);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  Gauge() = default;
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> peak_{0};
};

struct HistogramOptions {
  /// Upper bound of the first bucket. The default grid (1 µs × 2^i,
  /// 40 buckets) spans sub-microsecond spans up to ~152 hours, wide
  /// enough for any duration this repo records in seconds.
  double first_bucket = 1e-6;
  double growth = 2.0;
  int num_buckets = 40;
};

/// A cheap point-in-time copy of a histogram's state. Supports
/// subtraction, so a periodic sampler can report percentiles over just
/// the last interval (snapshot_now - snapshot_then) instead of
/// since-process-start cumulatives — the timeline's p50/p95/p99 lines
/// are interval-local for exactly this reason.
struct HistogramSnapshot {
  HistogramOptions options;
  std::vector<std::int64_t> buckets;
  std::int64_t count = 0;
  double sum = 0.0;
  double max = 0.0;

  /// This snapshot minus an `earlier` one of the same histogram:
  /// bucket-wise and count/sum difference. max cannot be un-observed,
  /// so the delta keeps the later max (an upper bound for the
  /// interval).
  HistogramSnapshot DeltaSince(const HistogramSnapshot& earlier) const;

  /// Quantile estimate in [0, 1] via cumulative bucket walk with linear
  /// interpolation inside the winning bucket, clamped to the observed
  /// max. Returns 0 when empty.
  double Percentile(double q) const;
  double BucketUpperBound(int i) const;
};

/// Fixed exponential-bucket histogram. Observe() touches only relaxed
/// atomics (one bucket count, a CAS-folded sum, a CAS max), so
/// concurrent observers never serialize on a lock.
class Histogram {
 public:
  void Observe(double value);

  /// Point-in-time copy (relaxed loads; no lock, no quiescence —
  /// concurrent observers may straddle the copy by one count).
  HistogramSnapshot Snapshot() const;

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double max() const;

  /// Snapshot().Percentile(q).
  double Percentile(double q) const;

  /// Inclusive upper bound of bucket `i` (the last bucket is +inf).
  double BucketUpperBound(int i) const;
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  std::int64_t bucket_count(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  explicit Histogram(const HistogramOptions& options);

  HistogramOptions options_;
  std::vector<std::atomic<std::int64_t>> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // double stored as bits, CAS-added
  std::atomic<std::uint64_t> max_bits_{0};
};

/// Name -> instrument map. Lock-light: the mutex guards registration
/// only; Get* returns a stable pointer callers cache (commonly in a
/// function-local static), after which updates are pure atomics.
/// Instruments live for the registry's lifetime and are never deleted.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name,
                          const HistogramOptions& options = {});

  /// Zeroes every instrument's value but keeps the instruments (and all
  /// cached pointers) valid. Lets one process run several jobs with
  /// per-job metric sections.
  void ResetValues();

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {count, sum, max, p50, p95, p99}}} — keys sorted, deterministic.
  JsonValue Snapshot() const;
  std::string SnapshotJson() const { return Snapshot().Dump(2); }

  /// Structured point-in-time copy of every instrument, for samplers
  /// that need deltas between two points (the serve-mode timeline).
  struct Sample {
    std::map<std::string, std::int64_t> counters;
    /// name -> {value, peak}.
    std::map<std::string, std::pair<std::int64_t, std::int64_t>> gauges;
    std::map<std::string, HistogramSnapshot> histograms;
  };
  Sample TakeSample() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry every subsystem instruments into.
MetricRegistry& GlobalMetrics();

}  // namespace inferturbo

#endif  // INFERTURBO_TELEMETRY_METRICS_H_
