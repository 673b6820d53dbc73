// Shared plumbing for the figure-reproduction benchmark binaries.
//
// Each bench binary regenerates one table/figure of the paper's §6 on the
// synthetic Worcester substitute (DESIGN.md). Default scale matches §6.1:
// 10,000 moving objects + 10,000 moving range queries, 100% update rate,
// Delta = 2, Theta_D = 100, Theta_S = 10, 100x100 grid. Set SCUBA_BENCH_FAST=1
// to run a reduced scale for smoke testing.

#ifndef SCUBA_BENCH_BENCH_COMMON_H_
#define SCUBA_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "baseline/grid_join_engine.h"
#include "common/check.h"
#include "core/scuba_engine.h"
#include "eval/experiment.h"
#include "obs/telemetry.h"

namespace scuba::bench {

struct BenchScale {
  uint32_t objects = 10000;
  uint32_t queries = 10000;
  int ticks = 12;
};

/// Paper scale by default; SCUBA_BENCH_FAST=1 shrinks the workload ~10x.
inline BenchScale ReadScale() {
  BenchScale scale;
  const char* fast = std::getenv("SCUBA_BENCH_FAST");
  if (fast != nullptr && fast[0] == '1') {
    scale.objects = 1000;
    scale.queries = 1000;
    scale.ticks = 8;
  }
  return scale;
}

/// The §6.1 experiment configuration with the given skew.
inline ExperimentConfig DefaultConfig(uint32_t skew, uint64_t seed = 0x5C0BA) {
  BenchScale scale = ReadScale();
  ExperimentConfig config;
  config.city.seed = seed;
  config.workload.num_objects = scale.objects;
  config.workload.num_queries = scale.queries;
  config.workload.skew = skew;
  config.workload.seed = seed;
  config.ticks = scale.ticks;
  config.delta = 2;
  return config;
}

inline ExperimentData BuildOrDie(const ExperimentConfig& config) {
  Result<ExperimentData> data = BuildExperimentData(config);
  SCUBA_CHECK_MSG(data.ok(), data.status().ToString().c_str());
  return std::move(data).value();
}

/// Uniform per-run summary the tables print.
struct BenchOutcome {
  double join_seconds = 0.0;
  double maintenance_seconds = 0.0;
  double wall_seconds = 0.0;
  size_t peak_memory = 0;
  uint64_t total_results = 0;
  uint64_t comparisons = 0;
  size_t clusters = 0;     ///< Final cluster count (SCUBA only).
  size_t grid_memory = 0;  ///< Spatial-index-only bytes (Fig. 9b's claim).
  uint32_t join_threads = 1;        ///< Worker tasks per join round.
  double join_worker_seconds = 0.0; ///< Summed worker busy time (join phase).
};

inline BenchOutcome Summarize(const EngineRunResult& run) {
  BenchOutcome out;
  out.join_seconds = run.stats.total_join_seconds;
  out.maintenance_seconds = run.stats.total_maintenance_seconds;
  out.wall_seconds = run.wall_seconds;
  out.peak_memory = run.peak_memory_bytes;
  out.total_results = run.stats.total_results;
  out.comparisons = run.stats.comparisons;
  out.join_threads = run.stats.join_threads;
  out.join_worker_seconds = run.stats.total_join_worker_seconds;
  return out;
}

/// Replays the data's trace into a fresh SCUBA engine built from `options`
/// (region is filled in from the data).
inline BenchOutcome RunScuba(const ExperimentData& data, Timestamp delta,
                             ScubaOptions options = {}) {
  options.region = data.region;
  options.delta = delta;
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(options);
  SCUBA_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  Result<EngineRunResult> run = RunOnTrace(engine->get(), data.trace, delta);
  SCUBA_CHECK_MSG(run.ok(), run.status().ToString().c_str());
  BenchOutcome out = Summarize(*run);
  out.clusters = (*engine)->ClusterCount();
  out.grid_memory = (*engine)->cluster_grid().EstimateMemoryUsage();
  return out;
}

/// Same for the regular grid-based comparator.
inline BenchOutcome RunRegular(const ExperimentData& data, Timestamp delta,
                               uint32_t grid_cells = 100) {
  GridJoinOptions options;
  options.region = data.region;
  options.grid_cells = grid_cells;
  Result<std::unique_ptr<GridJoinEngine>> engine =
      GridJoinEngine::Create(options);
  SCUBA_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  Result<EngineRunResult> run = RunOnTrace(engine->get(), data.trace, delta);
  SCUBA_CHECK_MSG(run.ok(), run.status().ToString().c_str());
  BenchOutcome out = Summarize(*run);
  out.grid_memory = (*engine)->object_grid().EstimateMemoryUsage() +
                    (*engine)->query_grid().EstimateMemoryUsage();
  return out;
}

/// Builds one BENCH_*.json document: a root object whose fields, nested
/// objects and arrays appear in call order, one per line. Object() and
/// Array() open a scope that Close() ends; inside an array pass no key.
/// Save() closes what is still open and writes the file.
class JsonWriter {
 public:
  JsonWriter() : out_("{") { closers_.push_back('}'); }

  void Object(const char* key = nullptr) { Open(key, '{', '}'); }
  void Array(const char* key) { Open(key, '[', ']'); }
  void Close() {
    SCUBA_CHECK(closers_.size() > 1);
    const char closer = closers_.back();
    closers_.pop_back();
    Newline();
    out_ += closer;
    first_ = false;
  }

  template <typename T>
    requires std::is_integral_v<T>
  void Int(const char* key, T value) {
    Item(key);
    out_ += std::to_string(value);
  }
  /// A fixed-point number with `decimals` digits; non-finite values, which
  /// JSON cannot spell, are written as null.
  void Num(const char* key, double value, int decimals) {
    Item(key);
    if (!std::isfinite(value)) {
      out_ += "null";
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    out_ += buf;
  }
  void Str(const char* key, std::string_view value) {
    Item(key);
    out_ += '"' + JsonEscape(value) + '"';
  }
  void Bool(const char* key, bool value) {
    Item(key);
    out_ += value ? "true" : "false";
  }

  void Save(const char* path) {
    while (closers_.size() > 1) Close();
    closers_.clear();
    out_ += "\n}\n";
    std::FILE* file = std::fopen(path, "w");
    SCUBA_CHECK_MSG(file != nullptr, path);
    std::fputs(out_.c_str(), file);
    SCUBA_CHECK_MSG(std::fclose(file) == 0, path);
    std::printf("wrote %s\n", path);
  }

 private:
  void Open(const char* key, char opener, char closer) {
    Item(key);
    out_ += opener;
    closers_.push_back(closer);
    first_ = true;
  }
  void Item(const char* key) {
    if (!first_) out_ += ',';
    first_ = false;
    Newline();
    if (key != nullptr) out_ += '"' + JsonEscape(key) + "\": ";
  }
  void Newline() {
    out_ += '\n';
    out_.append(2 * closers_.size(), ' ');
  }

  std::string out_;
  std::vector<char> closers_;  ///< One per open scope, the root's first.
  bool first_ = true;          ///< No item yet in the innermost scope.
};

inline void PrintBanner(const char* figure, const char* title) {
  BenchScale scale = ReadScale();
  std::printf("=== %s: %s ===\n", figure, title);
  std::printf(
      "workload: %u objects + %u queries, %d ticks, delta=2, theta_d=100, "
      "theta_s=10\n\n",
      scale.objects, scale.queries, scale.ticks);
}

}  // namespace scuba::bench

#endif  // SCUBA_BENCH_BENCH_COMMON_H_
