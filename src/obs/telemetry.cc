#include "obs/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace scuba {

namespace {

/// JSON number for a double; non-finite values (which valid JSON cannot
/// carry) clamp to 0, but instrumented timings are never non-finite.
std::string JsonDouble(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Status WriteLine(std::ofstream& file, const std::string& line,
                 std::string_view path_kind) {
  file << line << '\n';
  if (!file.good()) {
    return Status::IoError(std::string("telemetry write failed (") +
                           std::string(path_kind) + " stream)");
  }
  return Status::OK();
}

std::string MetaLine(std::string_view stream, std::string_view engine_name) {
  std::string out = "{\"schema_version\":";
  out += std::to_string(kTelemetrySchemaVersion);
  out += ",\"kind\":\"meta\",\"stream\":\"";
  out += JsonEscape(stream);
  out += "\",\"engine\":\"";
  out += JsonEscape(engine_name);
  out += "\"}";
  return out;
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Result<std::unique_ptr<RoundTelemetryEmitter>> RoundTelemetryEmitter::Open(
    const TelemetryOptions& options, std::string_view engine_name) {
  std::unique_ptr<RoundTelemetryEmitter> emitter(new RoundTelemetryEmitter());
  if (!options.metrics_out.empty()) {
    emitter->metrics_file_.open(options.metrics_out,
                                std::ios::out | std::ios::trunc);
    if (!emitter->metrics_file_.is_open()) {
      return Status::IoError("cannot open metrics output " +
                             options.metrics_out);
    }
    emitter->metrics_open_ = true;
    SCUBA_RETURN_IF_ERROR(WriteLine(emitter->metrics_file_,
                                    MetaLine("metrics", engine_name),
                                    "metrics"));
  }
  if (!options.trace_out.empty()) {
    emitter->trace_file_.open(options.trace_out,
                              std::ios::out | std::ios::trunc);
    if (!emitter->trace_file_.is_open()) {
      return Status::IoError("cannot open trace output " + options.trace_out);
    }
    emitter->trace_open_ = true;
    SCUBA_RETURN_IF_ERROR(WriteLine(emitter->trace_file_,
                                    MetaLine("trace", engine_name), "trace"));
  }
  return emitter;
}

Status RoundTelemetryEmitter::EmitRound(
    uint64_t round, const std::vector<MetricSnapshot>& metrics,
    const TraceCollector* trace) {
  if (metrics_open_) {
    std::string line = "{\"schema_version\":";
    line += std::to_string(kTelemetrySchemaVersion);
    line += ",\"kind\":\"round\",\"round\":";
    line += std::to_string(round);
    line += ",\"metrics\":[";
    bool first = true;
    for (const MetricSnapshot& m : metrics) {
      std::string entry;
      switch (m.kind) {
        case MetricKind::kCounter: {
          uint64_t& prev = prev_counters_[m.name];
          const uint64_t delta = m.counter - prev;
          prev = m.counter;
          if (delta == 0) continue;  // quiet counters keep lines compact
          entry = "{\"name\":\"" + JsonEscape(m.name) +
                  "\",\"kind\":\"counter\",\"delta\":" +
                  std::to_string(delta) +
                  ",\"total\":" + std::to_string(m.counter) + "}";
          break;
        }
        case MetricKind::kGauge:
          entry = "{\"name\":\"" + JsonEscape(m.name) +
                  "\",\"kind\":\"gauge\",\"value\":" + JsonDouble(m.gauge) +
                  "}";
          break;
        case MetricKind::kHistogram: {
          HistogramBaseline& prev = prev_histograms_[m.name];
          const uint64_t total_count =
              static_cast<uint64_t>(m.histogram.count());
          const uint64_t delta_count = total_count - prev.count;
          const double delta_sum = m.histogram.sum() - prev.sum;
          prev.count = total_count;
          prev.sum = m.histogram.sum();
          if (delta_count == 0) continue;
          entry = "{\"name\":\"" + JsonEscape(m.name) +
                  "\",\"kind\":\"histogram\",\"delta_count\":" +
                  std::to_string(delta_count) +
                  ",\"delta_sum\":" + JsonDouble(delta_sum) +
                  ",\"total_count\":" + std::to_string(total_count) +
                  ",\"total_sum\":" + JsonDouble(m.histogram.sum()) + "}";
          break;
        }
      }
      if (!first) line += ",";
      first = false;
      line += entry;
    }
    line += "]}";
    SCUBA_RETURN_IF_ERROR(WriteLine(metrics_file_, line, "metrics"));
  }

  if (trace_open_ && trace != nullptr && trace->active()) {
    const std::vector<SpanRecord>& spans = trace->spans();
    std::string line = "{\"schema_version\":";
    line += std::to_string(kTelemetrySchemaVersion);
    line += ",\"kind\":\"round\",\"round\":";
    line += std::to_string(round);
    line += ",\"spans\":[";
    int32_t join_id = -1;
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      if (s.parent == 0 && s.name == "join") {
        join_id = static_cast<int32_t>(i);
      }
      if (i > 0) line += ",";
      line += "{\"id\":" + std::to_string(i) + ",\"name\":\"" +
              JsonEscape(s.name) + "\",\"parent\":" + std::to_string(s.parent) +
              ",\"wall_seconds\":" + JsonDouble(s.wall_seconds) +
              ",\"count\":" + std::to_string(s.count);
      if (s.index >= 0) line += ",\"index\":" + std::to_string(s.index);
      if (s.worker_seconds > 0.0) {
        line += ",\"worker_seconds\":" + JsonDouble(s.worker_seconds);
      }
      line += "}";
    }
    line += "]";
    // Per-window load imbalance: max over mean of the join windows' busy
    // times (1.0 = perfectly balanced), the signal the distributed
    // range-query literature uses to detect skewed partitions.
    if (join_id >= 0) {
      double max_busy = 0.0;
      double sum_busy = 0.0;
      uint32_t shards = 0;
      for (const SpanRecord& s : spans) {
        if (s.parent != join_id || s.name != "engine_shard") continue;
        ++shards;
        max_busy = std::max(max_busy, s.wall_seconds);
        sum_busy += s.wall_seconds;
      }
      if (shards > 0) {
        const double mean = sum_busy / static_cast<double>(shards);
        const double imbalance = mean > 0.0 ? max_busy / mean : 1.0;
        line += ",\"join\":{\"shards\":" + std::to_string(shards) +
                ",\"imbalance\":" + JsonDouble(imbalance) + "}";
      }
    }
    line += "}";
    SCUBA_RETURN_IF_ERROR(WriteLine(trace_file_, line, "trace"));
  }
  return Status::OK();
}

Status RoundTelemetryEmitter::Finish(const MetricsRegistry& registry) {
  if (metrics_open_) {
    std::string line = "{\"schema_version\":";
    line += std::to_string(kTelemetrySchemaVersion);
    line += ",\"kind\":\"exposition\",\"prometheus\":\"";
    line += JsonEscape(registry.PrometheusExposition());
    line += "\"}";
    SCUBA_RETURN_IF_ERROR(WriteLine(metrics_file_, line, "metrics"));
    metrics_file_.flush();
    metrics_file_.close();
    metrics_open_ = false;
  }
  if (trace_open_) {
    trace_file_.flush();
    trace_file_.close();
    trace_open_ = false;
  }
  return Status::OK();
}

Result<std::unique_ptr<EngineTelemetry>> EngineTelemetry::Create(
    const TelemetryOptions& options, std::string_view engine_name) {
  std::unique_ptr<EngineTelemetry> telemetry(new EngineTelemetry());
  if (!options.metrics_out.empty() || !options.trace_out.empty()) {
    Result<std::unique_ptr<RoundTelemetryEmitter>> emitter =
        RoundTelemetryEmitter::Open(options, engine_name);
    if (!emitter.ok()) return emitter.status();
    telemetry->emitter_ = std::move(emitter).value();
  }
  return telemetry;
}

void EngineTelemetry::EnsureRound(uint64_t round) {
  if (round == current_round_) return;
  FlushCurrentRound();
  current_round_ = round;
  trace_.BeginRound(round);
}

void EngineTelemetry::FlushCurrentRound() {
  if (current_round_ == 0) return;
  if (round_hook_) round_hook_();
  trace_.FinalizeRoot();
  if (emitter_ != nullptr) {
    Status s = emitter_->EmitRound(current_round_, registry_.Snapshot(),
                                   &trace_);
    if (status_.ok() && !s.ok()) status_ = s;
  }
  current_round_ = 0;
}

Status EngineTelemetry::Flush() {
  FlushCurrentRound();
  if (!finished_ && emitter_ != nullptr) {
    Status s = emitter_->Finish(registry_);
    if (status_.ok() && !s.ok()) status_ = s;
  }
  finished_ = true;
  return status_;
}

}  // namespace scuba
