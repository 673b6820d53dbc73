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

void HistogramMetric::Observe(double value) {
  if (cells_ == nullptr) return;
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_->begin(), bounds_->end(), value) -
      bounds_->begin());
  cells_[bucket].fetch_add(1, std::memory_order_relaxed);
  // Sum: CAS loop on the bit pattern (wait-free in practice; observers are
  // one thread at a time).
  std::atomic<uint64_t>& sum_bits = cells_[bounds_->size() + 1];
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

MetricsRegistry::Metric* MetricsRegistry::FindOrNull(const std::string& name,
                                                     MetricKind kind) {
  auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  Metric* m = metrics_[it->second].get();
  return m->kind == kind ? m : nullptr;
}

std::atomic<uint64_t>* MetricsRegistry::Add(std::string name, std::string help,
                                            MetricKind kind,
                                            std::vector<double> bounds) {
  auto metric = std::make_unique<Metric>();
  metric->name = std::move(name);
  metric->help = std::move(help);
  metric->kind = kind;
  metric->bounds = std::move(bounds);
  // Value-initialized: a zero count, and 0.0's bit pattern for a gauge or a
  // histogram sum.
  metric->cells = std::make_unique<std::atomic<uint64_t>[]>(
      kind == MetricKind::kHistogram ? metric->bounds.size() + 2 : 1);
  index_.emplace(metric->name, metrics_.size());
  metrics_.push_back(std::move(metric));
  return metrics_.back()->cells.get();
}

Counter MetricsRegistry::RegisterCounter(std::string name, std::string help) {
  if (index_.contains(name)) {
    Metric* existing = FindOrNull(name, MetricKind::kCounter);
    return existing != nullptr ? Counter(existing->cells.get()) : Counter();
  }
  return Counter(Add(std::move(name), std::move(help), MetricKind::kCounter));
}

Gauge MetricsRegistry::RegisterGauge(std::string name, std::string help) {
  if (index_.contains(name)) {
    Metric* existing = FindOrNull(name, MetricKind::kGauge);
    return existing != nullptr ? Gauge(existing->cells.get()) : Gauge();
  }
  return Gauge(Add(std::move(name), std::move(help), MetricKind::kGauge));
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
    return HistogramMetric(existing->cells.get(), &existing->bounds);
  }
  std::atomic<uint64_t>* cells = Add(std::move(name), std::move(help),
                                     MetricKind::kHistogram, upper_bounds);
  return HistogramMetric(cells, &metrics_.back()->bounds);
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
        snap.gauge = Gauge(m->cells.get()).Value();
        break;
      case MetricKind::kHistogram: {
        std::vector<uint64_t> counts(m->bounds.size() + 1);
        for (size_t b = 0; b < counts.size(); ++b) {
          counts[b] = m->cells[b].load(std::memory_order_relaxed);
        }
        const double sum = std::bit_cast<double>(
            m->cells[counts.size()].load(std::memory_order_relaxed));
        Result<Histogram> histogram =
            Histogram::FromBucketData(m->bounds, std::move(counts), sum);
        SCUBA_CHECK(histogram.ok());
        snap.histogram = std::move(histogram).value();
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
