#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/check.h"

namespace scuba {

namespace {

/// Shortest round-trip-exact decimal for a double (Prometheus/JSON value
/// formatting; deterministic for a given value).
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string_view MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "counter";
}

uint32_t ThreadShardIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed) % MetricsRegistry::kShards;
  return index;
}

uint64_t Counter::Value() const {
  if (cells_ == nullptr) return 0;
  uint64_t total = 0;
  for (uint32_t i = 0; i < MetricsRegistry::kShards; ++i) {
    total += cells_[i].value.load(std::memory_order_relaxed);
  }
  return total;
}

double Gauge::Value() const {
  if (bits_ == nullptr) return 0.0;
  return std::bit_cast<double>(bits_->load(std::memory_order_relaxed));
}

void Gauge::Set(double value) {
  if (bits_ != nullptr) {
    bits_->store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
  }
}

void HistogramMetric::Observe(double value) {
  if (cells_ == nullptr) return;
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_->begin(), bounds_->end(), value) -
      bounds_->begin());
  MetricCell* shard = cells_ + ThreadShardIndex() * stride_;
  shard[bucket].value.fetch_add(1, std::memory_order_relaxed);
  // Shard sum: CAS loop on the bit pattern. Contention is rare (only threads
  // hashed onto the same shard) and the loop is wait-free in practice.
  std::atomic<uint64_t>& sum_bits = shard[stride_ - 1].value;
  uint64_t old_bits = sum_bits.load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t new_bits =
        std::bit_cast<uint64_t>(std::bit_cast<double>(old_bits) + value);
    if (sum_bits.compare_exchange_weak(old_bits, new_bits,
                                       std::memory_order_relaxed)) {
      break;
    }
  }
}

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Metric* MetricsRegistry::FindOrNull(const std::string& name,
                                                     MetricKind kind) {
  auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  Metric* m = metrics_[it->second].get();
  return m->kind == kind ? m : nullptr;
}

Counter MetricsRegistry::RegisterCounter(std::string name, std::string help) {
  if (index_.contains(name)) {
    Metric* existing = FindOrNull(name, MetricKind::kCounter);
    return existing != nullptr ? Counter(existing->cells.get()) : Counter();
  }
  auto metric = std::make_unique<Metric>();
  metric->name = std::move(name);
  metric->help = std::move(help);
  metric->kind = MetricKind::kCounter;
  metric->cells = std::make_unique<MetricCell[]>(kShards);
  Counter handle(metric->cells.get());
  index_.emplace(metric->name, metrics_.size());
  metrics_.push_back(std::move(metric));
  return handle;
}

Gauge MetricsRegistry::RegisterGauge(std::string name, std::string help) {
  if (index_.contains(name)) {
    Metric* existing = FindOrNull(name, MetricKind::kGauge);
    return existing != nullptr ? Gauge(&existing->gauge_bits) : Gauge();
  }
  auto metric = std::make_unique<Metric>();
  metric->name = std::move(name);
  metric->help = std::move(help);
  metric->kind = MetricKind::kGauge;
  metric->gauge_bits.store(std::bit_cast<uint64_t>(0.0),
                           std::memory_order_relaxed);
  Gauge handle(&metric->gauge_bits);
  index_.emplace(metric->name, metrics_.size());
  metrics_.push_back(std::move(metric));
  return handle;
}

Result<HistogramMetric> MetricsRegistry::RegisterHistogram(
    std::string name, std::string help, std::vector<double> upper_bounds) {
  // Validate the layout up front (shares Histogram's rules).
  Result<Histogram> probe = Histogram::WithBuckets(upper_bounds);
  if (!probe.ok()) return probe.status();
  if (index_.contains(name)) {
    Metric* existing = FindOrNull(name, MetricKind::kHistogram);
    if (existing == nullptr) {
      return Status::InvalidArgument("metric '" + name +
                                     "' already registered with another kind");
    }
    if (existing->bounds != upper_bounds) {
      return Status::InvalidArgument(
          "metric '" + name + "' already registered with different buckets");
    }
    return HistogramMetric(existing->cells.get(), &existing->bounds,
                           existing->stride);
  }
  auto metric = std::make_unique<Metric>();
  metric->name = std::move(name);
  metric->help = std::move(help);
  metric->kind = MetricKind::kHistogram;
  metric->bounds = std::move(upper_bounds);
  // Per shard: one cell per finite bucket, one overflow cell, one sum cell.
  metric->stride = static_cast<uint32_t>(metric->bounds.size()) + 2;
  metric->cells = std::make_unique<MetricCell[]>(kShards * metric->stride);
  for (uint32_t i = 0; i < kShards; ++i) {
    metric->cells[i * metric->stride + metric->stride - 1].value.store(
        std::bit_cast<uint64_t>(0.0), std::memory_order_relaxed);
  }
  HistogramMetric handle(metric->cells.get(), &metric->bounds, metric->stride);
  index_.emplace(metric->name, metrics_.size());
  metrics_.push_back(std::move(metric));
  return handle;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (const std::unique_ptr<Metric>& m : metrics_) {
    MetricSnapshot snap;
    snap.name = m->name;
    snap.help = m->help;
    snap.kind = m->kind;
    switch (m->kind) {
      case MetricKind::kCounter:
        snap.counter = Counter(m->cells.get()).Value();
        break;
      case MetricKind::kGauge:
        snap.gauge = Gauge(&m->gauge_bits).Value();
        break;
      case MetricKind::kHistogram: {
        // Reconstruct each shard as a bucketed Histogram and Merge (shards
        // share one layout by construction, so Merge cannot fail).
        Result<Histogram> merged = Histogram::WithBuckets(m->bounds);
        SCUBA_CHECK(merged.ok());
        for (uint32_t s = 0; s < kShards; ++s) {
          const MetricCell* shard = m->cells.get() + s * m->stride;
          std::vector<uint64_t> counts(m->bounds.size() + 1);
          for (size_t b = 0; b < counts.size(); ++b) {
            counts[b] = shard[b].value.load(std::memory_order_relaxed);
          }
          const double sum = std::bit_cast<double>(
              shard[m->stride - 1].value.load(std::memory_order_relaxed));
          Result<Histogram> piece =
              Histogram::FromBucketData(m->bounds, std::move(counts), sum);
          SCUBA_CHECK(piece.ok());
          SCUBA_CHECK(merged->Merge(*piece).ok());
        }
        snap.histogram = std::move(merged).value();
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::string MetricsRegistry::PrometheusExposition() const {
  std::string out;
  for (const MetricSnapshot& snap : Snapshot()) {
    // "name{label="x"}" splits into the base series name and its label set;
    // HELP/TYPE lines apply to the base name.
    std::string base = snap.name;
    std::string labels;
    if (size_t brace = snap.name.find('{'); brace != std::string::npos) {
      base = snap.name.substr(0, brace);
      labels = snap.name.substr(brace + 1,
                                snap.name.size() - brace - 2);  // strip {}
    }
    out += "# HELP " + base + " " + snap.help + "\n";
    out += "# TYPE " + base + " ";
    out += MetricKindName(snap.kind);
    out += "\n";
    switch (snap.kind) {
      case MetricKind::kCounter:
        out += snap.name + " " + std::to_string(snap.counter) + "\n";
        break;
      case MetricKind::kGauge:
        out += snap.name + " " + FormatDouble(snap.gauge) + "\n";
        break;
      case MetricKind::kHistogram: {
        const std::vector<double>& bounds = snap.histogram.bucket_bounds();
        const std::vector<uint64_t>& counts = snap.histogram.bucket_counts();
        uint64_t cumulative = 0;
        for (size_t b = 0; b < counts.size(); ++b) {
          cumulative += counts[b];
          const std::string le =
              b < bounds.size() ? FormatDouble(bounds[b]) : "+Inf";
          std::string series_labels = labels.empty()
                                          ? "le=\"" + le + "\""
                                          : labels + ",le=\"" + le + "\"";
          out += base + "_bucket{" + series_labels + "} " +
                 std::to_string(cumulative) + "\n";
        }
        std::string suffix_labels = labels.empty() ? "" : "{" + labels + "}";
        out += base + "_sum" + suffix_labels + " " +
               FormatDouble(snap.histogram.sum()) + "\n";
        out += base + "_count" + suffix_labels + " " +
               std::to_string(cumulative) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace scuba
