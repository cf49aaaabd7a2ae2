#include "src/telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace inferturbo {

namespace telemetry_internal {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace telemetry_internal

void SetMetricsEnabled(bool enabled) {
  telemetry_internal::g_metrics_enabled.store(enabled,
                                              std::memory_order_relaxed);
}

namespace {

// Lock-free double accumulation over an atomic bit pattern. Relaxed is
// fine: sums are only read at snapshot time.
void AtomicAddDouble(std::atomic<std::uint64_t>* bits, double delta) {
  std::uint64_t observed = bits->load(std::memory_order_relaxed);
  while (true) {
    const double current = std::bit_cast<double>(observed);
    const std::uint64_t desired = std::bit_cast<std::uint64_t>(current + delta);
    if (bits->compare_exchange_weak(observed, desired,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

void AtomicMaxDouble(std::atomic<std::uint64_t>* bits, double value) {
  std::uint64_t observed = bits->load(std::memory_order_relaxed);
  while (std::bit_cast<double>(observed) < value) {
    const std::uint64_t desired = std::bit_cast<std::uint64_t>(value);
    if (bits->compare_exchange_weak(observed, desired,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

/// Inclusive upper bound of bucket `i` on the exponential grid (the
/// last bucket is +inf).
double UpperBound(const HistogramOptions& options, int i) {
  if (i >= options.num_buckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  double bound = options.first_bucket;
  for (int b = 0; b < i; ++b) bound *= options.growth;
  return bound;
}

}  // namespace

HistogramSnapshot HistogramSnapshot::DeltaSince(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot delta;
  delta.options = options;
  delta.buckets.resize(buckets.size());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::int64_t before =
        i < earlier.buckets.size() ? earlier.buckets[i] : 0;
    delta.buckets[i] = buckets[i] - before;
  }
  delta.count = count - earlier.count;
  delta.sum = sum - earlier.sum;
  delta.max = max;  // a max cannot be un-observed; keep the later bound
  return delta;
}

double HistogramSnapshot::BucketUpperBound(int i) const {
  return UpperBound(options, i);
}

double HistogramSnapshot::Percentile(double q) const {
  if (count <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count);
  std::int64_t cumulative = 0;
  for (int i = 0; i < static_cast<int>(buckets.size()); ++i) {
    const std::int64_t in_bucket = buckets[static_cast<std::size_t>(i)];
    if (in_bucket <= 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      const double lower = i == 0 ? 0.0 : BucketUpperBound(i - 1);
      // The overflow bucket has no finite upper edge; use the largest
      // value actually seen instead of infinity.
      double upper = i == static_cast<int>(buckets.size()) - 1
                         ? max
                         : BucketUpperBound(i);
      if (upper < lower) upper = lower;
      const double fraction = (rank - static_cast<double>(cumulative)) /
                              static_cast<double>(in_bucket);
      // Interpolation can land past the largest observation inside a
      // wide bucket; no percentile may exceed the observed max.
      return std::min(lower + (upper - lower) * fraction, max);
    }
    cumulative += in_bucket;
  }
  return max;
}

Histogram::Histogram(const HistogramOptions& options)
    : options_(options),
      buckets_(static_cast<std::size_t>(options.num_buckets)) {}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.options = options_;
  snapshot.buckets.reserve(buckets_.size());
  for (const auto& bucket : buckets_) {
    snapshot.buckets.push_back(bucket.load(std::memory_order_relaxed));
  }
  snapshot.count = count();
  snapshot.sum = sum();
  snapshot.max = max();
  return snapshot;
}

double Histogram::BucketUpperBound(int i) const {
  return UpperBound(options_, i);
}

void Histogram::Observe(double value) {
  if (!MetricsEnabled()) return;
  if (value < 0.0) value = 0.0;
  // Walk the exponential grid; num_buckets is small (default 40) and
  // most observations land in the first few buckets, so this beats a
  // log() call on the hot path.
  int bucket = 0;
  double bound = options_.first_bucket;
  while (bucket < options_.num_buckets - 1 && value > bound) {
    bound *= options_.growth;
    ++bucket;
  }
  buckets_[static_cast<std::size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_bits_, value);
  AtomicMaxDouble(&max_bits_, value);
}

double Histogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::max() const {
  return std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
}

double Histogram::Percentile(double q) const {
  return Snapshot().Percentile(q);
}

Counter* MetricRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(new Counter()))
             .first;
  }
  return it->second.get();
}

Gauge* MetricRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name), std::unique_ptr<Gauge>(new Gauge()))
             .first;
  }
  return it->second.get();
}

Histogram* MetricRegistry::GetHistogram(std::string_view name,
                                        const HistogramOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(new Histogram(options)))
             .first;
  }
  return it->second.get();
}

void MetricRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->value_.store(0, std::memory_order_relaxed);
    gauge->peak_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, histogram] : histograms_) {
    for (auto& bucket : histogram->buckets_) {
      bucket.store(0, std::memory_order_relaxed);
    }
    histogram->count_.store(0, std::memory_order_relaxed);
    histogram->sum_bits_.store(0, std::memory_order_relaxed);
    histogram->max_bits_.store(0, std::memory_order_relaxed);
  }
}

JsonValue MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonValue::Object counters;
  for (const auto& [name, counter] : counters_) {
    counters[name] = JsonValue(counter->value());
  }
  JsonValue::Object gauges;
  for (const auto& [name, gauge] : gauges_) {
    gauges[name] = JsonValue(JsonValue::Object{
        {"value", JsonValue(gauge->value())},
        {"peak", JsonValue(gauge->peak())},
    });
  }
  JsonValue::Object histograms;
  for (const auto& [name, histogram] : histograms_) {
    histograms[name] = JsonValue(JsonValue::Object{
        {"count", JsonValue(histogram->count())},
        {"sum", JsonValue(histogram->sum())},
        {"max", JsonValue(histogram->max())},
        {"p50", JsonValue(histogram->Percentile(0.50))},
        {"p95", JsonValue(histogram->Percentile(0.95))},
        {"p99", JsonValue(histogram->Percentile(0.99))},
    });
  }
  return JsonValue(JsonValue::Object{
      {"counters", JsonValue(std::move(counters))},
      {"gauges", JsonValue(std::move(gauges))},
      {"histograms", JsonValue(std::move(histograms))},
  });
}

MetricRegistry::Sample MetricRegistry::TakeSample() const {
  std::lock_guard<std::mutex> lock(mu_);
  Sample sample;
  for (const auto& [name, counter] : counters_) {
    sample.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    sample.gauges[name] = {gauge->value(), gauge->peak()};
  }
  for (const auto& [name, histogram] : histograms_) {
    sample.histograms[name] = histogram->Snapshot();
  }
  return sample;
}

MetricRegistry& GlobalMetrics() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

}  // namespace inferturbo
