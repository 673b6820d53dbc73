// Traffic monitoring: a city-scale continuous-query deployment.
//
// Simulates a synthetic city with thousands of vehicles (the paper's intro
// scenario: traffic jams naturally cluster), registers moving range queries
// (patrol cars monitoring their surroundings), wires everything through the
// stream pipeline, and reports per-round answers plus engine internals.
//
// Run:  ./traffic_monitoring [vehicles] [patrols] [ticks]

#include <cstdio>
#include <cstdlib>

#include "common/memory_usage.h"
#include "core/scuba_engine.h"
#include "eval/experiment.h"
#include "gen/workload_generator.h"
#include "network/grid_city.h"
#include "stream/pipeline.h"

using namespace scuba;  // Example code only.

int main(int argc, char** argv) {
  uint32_t vehicles = argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 4000;
  uint32_t patrols = argc > 2 ? static_cast<uint32_t>(std::atoi(argv[2])) : 1000;
  int ticks = argc > 3 ? std::atoi(argv[3]) : 20;

  // A 21x21-node city with arterials and highways (the Worcester stand-in).
  RoadNetwork city = DefaultBenchmarkCity();
  std::printf("city: %zu connection nodes, %zu road segments, area %s x %s\n",
              city.NodeCount(), city.EdgeCount(),
              std::to_string(static_cast<int>(city.BoundingBox().Width())).c_str(),
              std::to_string(static_cast<int>(city.BoundingBox().Height())).c_str());

  // Vehicles travel in convoys of ~50 (rush-hour clusterability); a quarter
  // of convoys carry monitoring queries.
  WorkloadOptions workload;
  workload.num_objects = vehicles;
  workload.num_queries = patrols;
  workload.skew = 50;
  workload.seed = 2026;
  Result<ObjectSimulator> sim = GenerateWorkload(&city, workload);
  if (!sim.ok()) {
    std::fprintf(stderr, "%s\n", sim.status().ToString().c_str());
    return 1;
  }
  ObjectSimulator simulator = std::move(sim).value();

  ScubaOptions options;
  options.region = DataRegion(city);
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(options);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }

  Result<StreamPipeline> pipeline =
      StreamPipeline::Create(&simulator, engine->get(), options.delta);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%6s %10s %10s %12s %12s\n", "tick", "matches", "clusters",
              "join(ms)", "maint(ms)");
  Status run = pipeline->RunTicks(ticks, [&](Timestamp now, const ResultSet& r) {
    const EvalStats stats = (*engine)->StatsSnapshot().eval;
    std::printf("%6lld %10zu %10zu %12.3f %12.3f\n",
                static_cast<long long>(now), r.size(), (*engine)->ClusterCount(),
                stats.last_join_seconds * 1e3,
                stats.last_maintenance_seconds * 1e3);
  });
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.ToString().c_str());
    return 1;
  }

  const EngineSnapshotStats snapshot = (*engine)->StatsSnapshot();
  std::printf("\n%s\n", snapshot.Format("scuba").c_str());
  std::printf("join-between selectivity: %.1f%% of tested cluster pairs "
              "overlapped\n",
              100.0 * snapshot.JoinBetweenSelectivity());
  std::printf("engine memory: %s\n",
              FormatBytes((*engine)->EstimateMemoryUsage()).c_str());
  const ClustererStats& cs = snapshot.clusterer;
  std::printf("clustering: %llu created, %llu absorbed, %llu refreshed, "
              "%llu departures\n",
              static_cast<unsigned long long>(cs.clusters_created),
              static_cast<unsigned long long>(cs.members_absorbed),
              static_cast<unsigned long long>(cs.members_refreshed),
              static_cast<unsigned long long>(cs.members_departed));
  return 0;
}
