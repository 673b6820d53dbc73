// MetricsRegistry: named counters, gauges and histograms for engine
// observability (docs/ARCHITECTURE.md §9).
//
// Hot-path contract: a counter increment or histogram observation is one
// relaxed atomic add on the metric's own cell (a histogram adds to its
// bucket and its sum). Every write site runs on the engine or server
// thread; parallel workers report their timings to the thread that started
// them, which observes them afterwards. Registration happens single-threaded
// at setup time; handles are trivially copyable value types whose
// default-constructed state is a no-op, so instrumented code needs no null
// checks and pays nothing when no registry is attached.
//
// Determinism contract: counters and gauges must carry *semantic* event
// counts (identical at any thread count); wall-time and other
// scheduling-dependent measurements belong in histograms, whose contents are
// excluded from determinism digests.

#ifndef SCUBA_OBS_METRICS_H_
#define SCUBA_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"

namespace scuba {

enum class MetricKind : uint8_t { kCounter = 0, kGauge, kHistogram };

/// Stable lowercase name ("counter", "gauge", "histogram").
std::string_view MetricKindName(MetricKind kind);

/// Monotonic counter handle. Default-constructed = detached no-op.
class Counter {
 public:
  Counter() = default;

  void Increment(uint64_t n = 1) {
    if (cell_ != nullptr) cell_->fetch_add(n, std::memory_order_relaxed);
  }

  /// The total (0 when detached).
  uint64_t Value() const {
    return cell_ == nullptr ? 0 : cell_->load(std::memory_order_relaxed);
  }

  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<uint64_t>* cell) : cell_(cell) {}
  std::atomic<uint64_t>* cell_ = nullptr;
};

/// Last-write-wins double gauge, set from the single-threaded engine loop
/// (between rounds), never from workers.
class Gauge {
 public:
  Gauge() = default;

  void Set(double value) {
    if (bits_ != nullptr) {
      bits_->store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
    }
  }
  /// The last value set (0 when detached).
  double Value() const {
    return bits_ == nullptr ? 0.0
                            : std::bit_cast<double>(
                                  bits_->load(std::memory_order_relaxed));
  }

  explicit operator bool() const { return bits_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<uint64_t>* bits) : bits_(bits) {}
  std::atomic<uint64_t>* bits_ = nullptr;
};

/// Bucketed histogram handle (timings and other scheduling-dependent
/// distributions). Observe is one relaxed add on the bucket cell plus a
/// relaxed CAS loop on the sum cell.
class HistogramMetric {
 public:
  HistogramMetric() = default;

  void Observe(double value);

  explicit operator bool() const { return cells_ != nullptr; }

 private:
  friend class MetricsRegistry;
  HistogramMetric(std::atomic<uint64_t>* cells,
                  const std::vector<double>* bounds)
      : cells_(cells), bounds_(bounds) {}
  /// One cell per finite bucket, one overflow cell, then the sum's bits.
  std::atomic<uint64_t>* cells_ = nullptr;
  const std::vector<double>* bounds_ = nullptr;
};

/// Point-in-time value of one metric.
struct MetricSnapshot {
  std::string name;  ///< Full identity, label set included.
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;
  double gauge = 0.0;
  Histogram histogram;  ///< Bucketed; empty unless kind == kHistogram.
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration is idempotent by name: re-registering an existing metric of
  /// the same kind returns a handle to the same storage. A name collision
  /// with a different kind returns a detached no-op handle (the registry
  /// never aliases storage across kinds). Registration must not race
  /// concurrent adds on the metric being created; adds on *other* metrics
  /// are unaffected (metric storage is stable once created).
  Counter RegisterCounter(std::string name, std::string help);
  Gauge RegisterGauge(std::string name, std::string help);
  /// `upper_bounds` as in Histogram::WithBuckets; kInvalidArgument on bad
  /// bounds, a kind collision, or a bounds mismatch with an existing
  /// histogram of the same name.
  Result<HistogramMetric> RegisterHistogram(std::string name, std::string help,
                                            std::vector<double> upper_bounds);

  /// View of every metric, in registration order (deterministic).
  std::vector<MetricSnapshot> Snapshot() const;

  /// Prometheus text exposition (HELP/TYPE + one line per sample; histograms
  /// expand to cumulative _bucket/_sum/_count series).
  std::string PrometheusExposition() const;

  size_t metric_count() const { return metrics_.size(); }

 private:
  struct Metric {
    std::string name;
    std::string help;
    MetricKind kind;
    std::vector<double> bounds;  ///< Histogram only.
    /// Counter: the count. Gauge: the value's bits. Histogram: one cell per
    /// finite bucket, the overflow cell, then the sum's bits.
    std::unique_ptr<std::atomic<uint64_t>[]> cells;
  };

  Metric* FindOrNull(const std::string& name, MetricKind kind);
  /// Appends a new metric and returns its zeroed cells.
  std::atomic<uint64_t>* Add(std::string name, std::string help,
                             MetricKind kind, std::vector<double> bounds = {});

  std::vector<std::unique_ptr<Metric>> metrics_;
  std::unordered_map<std::string, size_t> index_;
};

}  // namespace scuba

#endif  // SCUBA_OBS_METRICS_H_
