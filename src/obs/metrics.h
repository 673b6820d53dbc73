// MetricsRegistry: named counters, gauges and histograms for engine
// observability (docs/ARCHITECTURE.md §9).
//
// Hot-path contract: a counter increment or histogram observation is one
// relaxed atomic add into a per-thread shard (16 cache-line-padded cells per
// metric, threads hashed onto cells by a thread-local index), so concurrent
// workers never contend on a line. Shards are merged on read (Snapshot), not
// on write. Registration happens single-threaded at setup time; handles are
// trivially copyable value types whose default-constructed state is a no-op,
// so instrumented code needs no null checks and pays nothing when no registry
// is attached.
//
// Determinism contract: counters and gauges must carry *semantic* event
// counts (identical at any thread count); wall-time and other
// scheduling-dependent measurements belong in histograms, whose contents are
// excluded from determinism digests.

#ifndef SCUBA_OBS_METRICS_H_
#define SCUBA_OBS_METRICS_H_

#include <atomic>
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

/// One cache line per shard cell so concurrent adds from different threads
/// never share a line.
struct alignas(64) MetricCell {
  std::atomic<uint64_t> value{0};
};

/// The shard a calling thread adds into: a thread-local index assigned from a
/// process-wide counter, modulo the shard count.
uint32_t ThreadShardIndex();

/// Monotonic counter handle. Default-constructed = detached no-op.
class Counter {
 public:
  Counter() = default;

  void Increment(uint64_t n = 1) {
    if (cells_ != nullptr) {
      cells_[ThreadShardIndex()].value.fetch_add(n,
                                                 std::memory_order_relaxed);
    }
  }

  /// The total, shards merged (0 when detached). For readers off the hot
  /// path, such as a server's stats(); cost is one load per shard.
  uint64_t Value() const;

  explicit operator bool() const { return cells_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(MetricCell* cells) : cells_(cells) {}
  MetricCell* cells_ = nullptr;
};

/// Last-write-wins double gauge. Not sharded: gauges are set from the
/// single-threaded engine loop (between rounds), never from workers.
class Gauge {
 public:
  Gauge() = default;

  void Set(double value);
  /// The last value set (0 when detached).
  double Value() const;

  explicit operator bool() const { return bits_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<uint64_t>* bits) : bits_(bits) {}
  std::atomic<uint64_t>* bits_ = nullptr;
};

/// Bucketed histogram handle (timings and other scheduling-dependent
/// distributions). Observe is one relaxed add on the bucket cell plus a
/// relaxed CAS loop on the shard's sum cell.
class HistogramMetric {
 public:
  HistogramMetric() = default;

  void Observe(double value);

  explicit operator bool() const { return cells_ != nullptr; }

 private:
  friend class MetricsRegistry;
  HistogramMetric(MetricCell* cells, const std::vector<double>* bounds,
                  uint32_t stride)
      : cells_(cells), bounds_(bounds), stride_(stride) {}
  MetricCell* cells_ = nullptr;
  const std::vector<double>* bounds_ = nullptr;
  uint32_t stride_ = 0;  ///< Cells per shard: bounds + overflow + sum.
};

/// Point-in-time value of one metric, shards merged.
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
  static constexpr uint32_t kShards = 16;

  MetricsRegistry();
  ~MetricsRegistry();
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

  /// Merged view of every metric, in registration order (deterministic).
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
    std::vector<double> bounds;            ///< Histogram only.
    uint32_t stride = 0;                   ///< Histogram: cells per shard.
    std::unique_ptr<MetricCell[]> cells;   ///< Counter/histogram shards.
    std::atomic<uint64_t> gauge_bits{0};   ///< Gauge only.
  };

  Metric* FindOrNull(const std::string& name, MetricKind kind);

  std::vector<std::unique_ptr<Metric>> metrics_;
  std::unordered_map<std::string, size_t> index_;
};

}  // namespace scuba

#endif  // SCUBA_OBS_METRICS_H_
