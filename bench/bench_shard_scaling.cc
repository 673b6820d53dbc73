// Shard-count scaling sweep: replays the §6.1-scale workload at skew 100
// (few large clusters) and at skew 10 (many small multi-cell clusters, the
// join-between-heavy case) through the sharded engine at shards = 1, 2, 4, 8
// (join_threads = 4) and reports wall time, summed worker time, speedup
// versus one shard, ownership handoffs per round, border clusters read in
// place from a neighbor stripe's store per round (the "ghosts" counter), and
// the per-shard join-comparison imbalance (max shard load over mean shard
// load — 1.0 is a perfect split).
// Besides the printed table it writes BENCH_shards.json so the perf
// trajectory is machine-readable across PRs. Sharding must not change the
// answer: final results and state hashes are asserted identical across the
// sweep, as are the summed join comparisons and pairs tested (a cheap last
// line of defence behind the determinism matrix tests).

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "shard/sharded_engine.h"

namespace scuba::bench {
namespace {

struct ShardOutcome {
  BenchOutcome base;
  uint32_t skew = 0;
  uint32_t shards = 1;
  uint64_t handoffs = 0;
  uint64_t ghosts = 0;
  uint64_t rounds = 0;
  uint64_t state_hash = 0;
  uint64_t pairs_tested = 0;  ///< Summed over the shards' join executors.
  double imbalance = 1.0;  ///< max per-shard comparisons / mean, 1.0 = even.
  double speedup = 1.0;    ///< Wall time of one shard (same skew) / this.
  std::vector<uint64_t> per_shard_comparisons;
  ResultSet final_results;
};

ShardOutcome RunSharded(const ExperimentData& data, uint32_t skew,
                        uint32_t shards) {
  ScubaOptions options;
  options.region = data.region;
  options.delta = 2;
  options.shards = shards;
  options.join_threads = 4;
  Result<std::unique_ptr<ShardedEngine>> engine = ShardedEngine::Create(options);
  SCUBA_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  Result<EngineRunResult> run = RunOnTrace(engine->get(), data.trace, 2);
  SCUBA_CHECK_MSG(run.ok(), run.status().ToString().c_str());

  ShardOutcome out;
  out.base = Summarize(*run);
  out.base.clusters = (*engine)->ClusterCount();
  out.skew = skew;
  out.shards = shards;
  out.handoffs = (*engine)->handoffs();
  out.ghosts = (*engine)->ghosts_published();
  out.rounds = run->stats.evaluations;
  out.state_hash = EngineStateHash(**engine);
  out.final_results = std::move(run->final_results);

  uint64_t total = 0, max_load = 0;
  for (uint32_t s = 0; s < shards; ++s) {
    const ClusterJoinExecutor::Counters& counters =
        (*engine)->shard(s).join.counters();
    const uint64_t load = counters.comparisons;
    out.pairs_tested += counters.pairs_tested;
    out.per_shard_comparisons.push_back(load);
    total += load;
    if (load > max_load) max_load = load;
  }
  out.imbalance = total > 0 ? static_cast<double>(max_load) * shards /
                                  static_cast<double>(total)
                            : 1.0;
  return out;
}

/// Runs the shard sweep over one skew's workload, printing a table row per
/// shard count and asserting that sharding leaves the answer and the join
/// work unchanged.
void RunSweep(uint32_t skew, std::vector<ShardOutcome>* outcomes) {
  ExperimentData data = BuildOrDie(DefaultConfig(skew));
  std::printf("skew %u\n", skew);
  std::printf("%8s %10s %12s %10s %11s %10s %10s %12s\n", "shards", "wall(s)",
              "worker(s)", "speedup", "imbalance", "handoffs", "border",
              "results");
  const size_t first = outcomes->size();
  for (uint32_t shards : {1u, 2u, 4u, 8u}) {
    ShardOutcome out = RunSharded(data, skew, shards);
    const ShardOutcome& one = outcomes->size() > first ? (*outcomes)[first]
                                                       : out;
    out.speedup = out.base.wall_seconds > 0.0
                      ? one.base.wall_seconds / out.base.wall_seconds
                      : 0.0;
    std::printf("%8u %10.4f %12.4f %9.2fx %10.2fx %10llu %10llu %12llu\n",
                shards, out.base.wall_seconds, out.base.join_worker_seconds,
                out.speedup, out.imbalance,
                static_cast<unsigned long long>(out.handoffs),
                static_cast<unsigned long long>(out.ghosts),
                static_cast<unsigned long long>(out.base.total_results));
    SCUBA_CHECK_MSG(out.final_results == one.final_results,
                    "shard count must not change the answer");
    SCUBA_CHECK_MSG(out.state_hash == one.state_hash,
                    "shard count must not change the state hash");
    SCUBA_CHECK_MSG(out.base.total_results == one.base.total_results,
                    "shard count must not change the result count");
    SCUBA_CHECK_MSG(out.base.comparisons == one.base.comparisons,
                    "shard count must not change the join comparisons");
    SCUBA_CHECK_MSG(out.pairs_tested == one.pairs_tested,
                    "shard count must not change the pairs tested");
    outcomes->push_back(std::move(out));
  }
  std::printf("\n");
}

int Main() {
  PrintBanner("shards", "shard-count scaling (sharded multi-engine rounds)");
  std::printf("hardware threads: %u (join_threads fixed at 4)\n\n",
              ThreadPool::DefaultThreadCount());

  std::vector<ShardOutcome> outcomes;
  for (uint32_t skew : {100u, 10u}) RunSweep(skew, &outcomes);

  const char* path = "BENCH_shards.json";
  std::FILE* json = std::fopen(path, "w");
  SCUBA_CHECK_MSG(json != nullptr, "cannot open BENCH_shards.json");
  BenchScale scale = ReadScale();
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"shard_scaling\",\n"
               "  \"workload\": {\"objects\": %u, \"queries\": %u, "
               "\"ticks\": %d},\n"
               "  \"hardware_threads\": %u,\n"
               "  \"join_threads\": 4,\n"
               "  \"sweep\": [\n",
               scale.objects, scale.queries, scale.ticks,
               ThreadPool::DefaultThreadCount());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const ShardOutcome& out = outcomes[i];
    const double handoffs_per_round =
        out.rounds > 0 ? static_cast<double>(out.handoffs) /
                             static_cast<double>(out.rounds)
                       : 0.0;
    const double ghosts_per_round =
        out.rounds > 0
            ? static_cast<double>(out.ghosts) / static_cast<double>(out.rounds)
            : 0.0;
    std::fprintf(json,
                 "    {\"skew\": %u, \"shards\": %u, "
                 "\"state_hash\": \"%016llx\", \"wall_seconds\": %.6f, "
                 "\"join_seconds\": %.6f, \"worker_seconds\": %.6f, "
                 "\"speedup_vs_one_shard\": %.4f, \"imbalance\": %.4f, "
                 "\"handoffs\": %llu, \"handoffs_per_round\": %.2f, "
                 "\"ghosts\": %llu, \"ghosts_per_round\": %.2f, "
                 "\"results\": %llu, \"comparisons\": %llu, "
                 "\"pairs_tested\": %llu, \"per_shard_comparisons\": [",
                 out.skew, out.shards,
                 static_cast<unsigned long long>(out.state_hash),
                 out.base.wall_seconds, out.base.join_seconds,
                 out.base.join_worker_seconds, out.speedup, out.imbalance,
                 static_cast<unsigned long long>(out.handoffs),
                 handoffs_per_round,
                 static_cast<unsigned long long>(out.ghosts), ghosts_per_round,
                 static_cast<unsigned long long>(out.base.total_results),
                 static_cast<unsigned long long>(out.base.comparisons),
                 static_cast<unsigned long long>(out.pairs_tested));
    for (size_t s = 0; s < out.per_shard_comparisons.size(); ++s) {
      std::fprintf(json, "%s%llu", s > 0 ? ", " : "",
                   static_cast<unsigned long long>(
                       out.per_shard_comparisons[s]));
    }
    std::fprintf(json, "]}%s\n", i + 1 < outcomes.size() ? "," : "");
  }
  std::fprintf(json,
               "  ]\n"
               "}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", path);
  return 0;
}

}  // namespace
}  // namespace scuba::bench

int main() { return scuba::bench::Main(); }
