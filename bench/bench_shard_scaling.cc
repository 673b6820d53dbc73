// Join-window scaling sweep: replays the §6.1-scale workload at skew 100
// (few large clusters) and at skew 10 (many small multi-cell clusters, the
// join-between-heavy case) through the engine at shards (join windows) = 1,
// 2, 4, 8 with join_threads = 4, and reports wall time, summed worker time
// and speedup versus one window. Windows split the join's cells, not the
// engine's state, so the work is the same at every count; the sweep shows
// what the per-window scan overhead costs.
// Besides the printed table it writes BENCH_shards.json so the perf
// trajectory is machine-readable across PRs. Windows must not change the
// answer: final results and state hashes are asserted identical across the
// sweep, as are the join comparisons and pairs tested (a cheap last line of
// defence behind the determinism matrix tests).

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "core/scuba_engine.h"
#include "persist/snapshot.h"

namespace scuba::bench {
namespace {

struct WindowOutcome {
  BenchOutcome base;
  uint32_t skew = 0;
  uint32_t shards = 1;
  uint64_t state_hash = 0;
  uint64_t pairs_tested = 0;
  double speedup = 1.0;  ///< Wall time of one window (same skew) / this.
  ResultSet final_results;
};

WindowOutcome RunWindows(const ExperimentData& data, uint32_t skew,
                         uint32_t shards) {
  ScubaOptions options;
  options.region = data.region;
  options.delta = 2;
  options.shards = shards;
  options.join_threads = 4;
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(options);
  SCUBA_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  Result<EngineRunResult> run = RunOnTrace(engine->get(), data.trace, 2);
  SCUBA_CHECK_MSG(run.ok(), run.status().ToString().c_str());

  WindowOutcome out;
  out.base = Summarize(*run);
  out.base.clusters = (*engine)->ClusterCount();
  out.skew = skew;
  out.shards = shards;
  out.state_hash = EngineStateHash(**engine);
  out.pairs_tested = (*engine)->StatsSnapshot().join.pairs_tested;
  out.final_results = std::move(run->final_results);
  return out;
}

/// Runs the window sweep over one skew's workload, printing a table row per
/// window count and asserting that windows leave the answer and the join
/// work unchanged.
void RunSweep(uint32_t skew, std::vector<WindowOutcome>* outcomes) {
  ExperimentData data = BuildOrDie(DefaultConfig(skew));
  std::printf("skew %u\n", skew);
  std::printf("%8s %10s %12s %10s %12s\n", "windows", "wall(s)", "worker(s)",
              "speedup", "results");
  const size_t first = outcomes->size();
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    WindowOutcome out = RunWindows(data, skew, shards);
    const WindowOutcome& one = outcomes->size() > first ? (*outcomes)[first]
                                                        : out;
    out.speedup = out.base.wall_seconds > 0.0
                      ? one.base.wall_seconds / out.base.wall_seconds
                      : 0.0;
    std::printf("%8u %10.4f %12.4f %9.2fx %12llu\n", shards,
                out.base.wall_seconds, out.base.join_worker_seconds,
                out.speedup,
                static_cast<unsigned long long>(out.base.total_results));
    SCUBA_CHECK_MSG(out.final_results == one.final_results,
                    "window count must not change the answer");
    SCUBA_CHECK_MSG(out.state_hash == one.state_hash,
                    "window count must not change the state hash");
    SCUBA_CHECK_MSG(out.base.total_results == one.base.total_results,
                    "window count must not change the result count");
    SCUBA_CHECK_MSG(out.base.comparisons == one.base.comparisons,
                    "window count must not change the join comparisons");
    SCUBA_CHECK_MSG(out.pairs_tested == one.pairs_tested,
                    "window count must not change the pairs tested");
    outcomes->push_back(std::move(out));
  }
  std::printf("\n");
}

int Main() {
  PrintBanner("shards", "join-window scaling (one store, N scan windows)");
  std::printf("hardware threads: %u (join_threads fixed at 4)\n\n",
              ThreadPool::DefaultThreadCount());

  std::vector<WindowOutcome> outcomes;
  for (uint32_t skew : {100u, 10u}) RunSweep(skew, &outcomes);

  BenchScale scale = ReadScale();
  JsonWriter json;
  json.Str("bench", "shard_scaling");
  json.Object("workload");
  json.Int("objects", scale.objects);
  json.Int("queries", scale.queries);
  json.Int("ticks", scale.ticks);
  json.Close();
  json.Int("hardware_threads", ThreadPool::DefaultThreadCount());
  json.Int("join_threads", 4);
  json.Array("sweep");
  for (const WindowOutcome& out : outcomes) {
    char state_hash[17];
    std::snprintf(state_hash, sizeof(state_hash), "%016llx",
                  static_cast<unsigned long long>(out.state_hash));
    json.Object();
    json.Int("skew", out.skew);
    json.Int("shards", out.shards);
    json.Str("state_hash", state_hash);
    json.Num("wall_seconds", out.base.wall_seconds, 6);
    json.Num("join_seconds", out.base.join_seconds, 6);
    json.Num("worker_seconds", out.base.join_worker_seconds, 6);
    json.Num("speedup_vs_one_shard", out.speedup, 4);
    json.Int("results", out.base.total_results);
    json.Int("comparisons", out.base.comparisons);
    json.Int("pairs_tested", out.pairs_tested);
    json.Close();
  }
  json.Save("BENCH_shards.json");
  return 0;
}

}  // namespace
}  // namespace scuba::bench

int main() { return scuba::bench::Main(); }
