// Join-phase thread-scaling sweep: replays the §6.1-scale workload (10k
// objects + 10k queries) through SCUBA at join_threads = 1, 2, 4, 8 and
// reports join wall time, summed worker time, speedup versus serial and the
// join phase's share of total run wall time.
// Besides the printed table it writes BENCH_parallel.json so the perf
// trajectory is machine-readable across PRs. join_threads only parallelizes
// the join phase — identical results at every thread count is asserted here
// too (a cheap last line of defence behind the unit tests).

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/thread_pool.h"

namespace scuba::bench {
namespace {

int Main() {
  PrintBanner("parallel", "join-phase thread scaling (sharded cluster join)");
  std::printf("hardware threads: %u\n\n", ThreadPool::DefaultThreadCount());

  ExperimentData data = BuildOrDie(DefaultConfig(/*skew=*/100));
  const std::vector<uint32_t> sweep = {1, 2, 4, 8};

  std::printf("%8s %10s %12s %10s %12s %10s %10s %14s\n", "threads", "join(s)",
              "worker(s)", "speedup", "efficiency", "wall(s)", "join/wall",
              "results");
  std::vector<BenchOutcome> outcomes;
  for (uint32_t threads : sweep) {
    ScubaOptions options;
    options.join_threads = threads;
    BenchOutcome out = RunScuba(data, /*delta=*/2, options);
    outcomes.push_back(out);
    double speedup = outcomes.front().join_seconds > 0.0
                         ? outcomes.front().join_seconds / out.join_seconds
                         : 0.0;
    double join_share =
        out.wall_seconds > 0.0 ? out.join_seconds / out.wall_seconds : 0.0;
    std::printf("%8u %10.4f %12.4f %9.2fx %11.2f%% %10.4f %9.1f%% %14llu\n",
                threads, out.join_seconds, out.join_worker_seconds, speedup,
                100.0 * speedup / threads, out.wall_seconds,
                100.0 * join_share,
                static_cast<unsigned long long>(out.total_results));
    SCUBA_CHECK_MSG(out.total_results == outcomes.front().total_results,
                    "thread counts must not change the answer");
  }

  // Telemetry overhead: the same workload with metrics + trace JSONL output
  // enabled must stay within a few percent of the plain run (the ≤2% budget
  // from docs/ARCHITECTURE.md §9). Reps interleave the two configurations and
  // each side keeps its best, so drifting machine state hits both equally.
  auto one_run = [&](bool telemetry) {
    ScubaOptions options;
    options.join_threads = 4;
    options.region = data.region;
    options.delta = 2;
    if (telemetry) {
      options.telemetry.metrics_out = "BENCH_telemetry_metrics.jsonl";
      options.telemetry.trace_out = "BENCH_telemetry_trace.jsonl";
    }
    Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(options);
    SCUBA_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
    Result<EngineRunResult> run = RunOnTrace(engine->get(), data.trace, 2);
    SCUBA_CHECK_MSG(run.ok(), run.status().ToString().c_str());
    Status flushed = (*engine)->FlushTelemetry();
    SCUBA_CHECK_MSG(flushed.ok(), flushed.ToString().c_str());
    return run->wall_seconds;
  };
  double plain_wall = 0.0;
  double telemetry_wall = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double plain = one_run(false);
    const double instrumented = one_run(true);
    if (rep == 0 || plain < plain_wall) plain_wall = plain;
    if (rep == 0 || instrumented < telemetry_wall) telemetry_wall = instrumented;
  }
  const double overhead =
      plain_wall > 0.0 ? (telemetry_wall - plain_wall) / plain_wall : 0.0;
  std::printf("\ntelemetry overhead: plain %.4fs, instrumented %.4fs "
              "(%+.2f%%)\n",
              plain_wall, telemetry_wall, 100.0 * overhead);

  BenchScale scale = ReadScale();
  JsonWriter json;
  json.Str("bench", "parallel_scaling");
  json.Object("workload");
  json.Int("objects", scale.objects);
  json.Int("queries", scale.queries);
  json.Int("ticks", scale.ticks);
  json.Close();
  json.Int("hardware_threads", ThreadPool::DefaultThreadCount());
  json.Array("sweep");
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const BenchOutcome& out = outcomes[i];
    double speedup = outcomes.front().join_seconds > 0.0
                         ? outcomes.front().join_seconds / out.join_seconds
                         : 0.0;
    double join_share =
        out.wall_seconds > 0.0 ? out.join_seconds / out.wall_seconds : 0.0;
    json.Object();
    json.Int("threads", sweep[i]);
    json.Num("join_seconds", out.join_seconds, 6);
    json.Num("worker_seconds", out.join_worker_seconds, 6);
    json.Num("speedup_vs_serial", speedup, 4);
    json.Num("wall_seconds", out.wall_seconds, 6);
    json.Num("join_share_of_wall", join_share, 4);
    json.Int("results", out.total_results);
    json.Int("comparisons", out.comparisons);
    json.Close();
  }
  json.Close();
  json.Object("telemetry");
  json.Num("plain_wall_seconds", plain_wall, 6);
  json.Num("instrumented_wall_seconds", telemetry_wall, 6);
  json.Num("overhead_fraction", overhead, 4);
  json.Close();
  json.Save("BENCH_parallel.json");
  return 0;
}

}  // namespace
}  // namespace scuba::bench

int main() { return scuba::bench::Main(); }
