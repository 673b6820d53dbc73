// EngineSnapshotStats: the one-stop immutable aggregate of everything a SCUBA
// engine counts, returned by ScubaEngine::StatsSnapshot(). It is the one
// source of every engine count: the metrics registry is fed from it through
// the table in core/engine_metrics.cc (docs/ARCHITECTURE.md §9.1). The
// QueryProcessor-interface stats() override remains for code that reads
// engines through the base interface.
//
// Reporting helpers (Format, selectivity, speedup) live here as methods so
// the derived figures come from one struct instead of reaching into
// EvalStats internals.

#ifndef SCUBA_CORE_ENGINE_SNAPSHOT_H_
#define SCUBA_CORE_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "cluster/leader_follower.h"
#include "core/cluster_join.h"
#include "core/load_shedder.h"
#include "core/query_processor.h"
#include "core/scuba_options.h"
#include "shard/shard_supervisor.h"

namespace scuba {

/// SCUBA-specific maintenance counters beyond the uniform EvalStats.
struct ScubaPhaseStats {
  uint64_t clusters_dissolved_expired = 0;
  uint64_t members_shed_maintenance = 0;
  uint64_t clusters_split = 0;
};

/// Load-shedder state at snapshot time.
struct ShedderSnapshotStats {
  LoadSheddingMode mode = LoadSheddingMode::kNone;
  double eta = 0.0;
  double nucleus_radius = 0.0;
  uint64_t adjustments = 0;
};

struct EngineSnapshotStats {
  EvalStats eval;
  ScubaPhaseStats phase;
  ClustererStats clusterer;
  ClusterJoinExecutor::Counters join;
  ShedderSnapshotStats shedder;
  /// Window supervision counters; all zero when the engine is unsupervised.
  SupervisionStats supervision;
  /// Live moving clusters at snapshot time.
  size_t clusters = 0;
  /// Join windows at snapshot time (options.shards minus reassign
  /// evictions).
  uint32_t windows = 0;

  /// One-line summary (historical FormatStats format, byte for byte): join /
  /// maintenance seconds, results, comparisons, plus conditional sections for
  /// parallel, hardening and durability counters when present.
  std::string Format(std::string_view engine_name) const;

  /// Fraction of tested cluster pairs that overlapped (0 when none tested).
  double JoinBetweenSelectivity() const;
  /// Realized join-phase speedup: summed worker busy time over join wall
  /// time (1.0 = serial; 0 when no join time was recorded).
  double JoinParallelSpeedup() const;
};

}  // namespace scuba

#endif  // SCUBA_CORE_ENGINE_SNAPSHOT_H_
