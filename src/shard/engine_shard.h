// EngineShard: one spatial stripe's worth of SCUBA engine state
// (docs/ARCHITECTURE.md §11).
//
// Each shard owns a contiguous row stripe of the map — the cell window
// [cell_begin, cell_end) — and the full vertical slice of machinery a round
// needs inside it: an authoritative ClusterStore slice (a cluster lives in
// exactly one shard's store, its members' home entries with it), a GridIndex
// mirror, a LoadShedder, and a ClusterJoinExecutor with its own SoA slab
// arena, so shards share no mutable state on the hot path.
//
// Grid mirror invariant: a cluster is registered in this shard's grid iff its
// registered circle touches the stripe, and always under its FULL global cell
// list (the grid spans the whole map; only the scan window is restricted).
// Consequently, for any cell inside the stripe the entry set equals the
// single-engine grid's, which is what keeps the owner-cell dedup rule and
// min-cid probes bit-identical under sharding.
//
// Border clusters: a cluster registered in the stripe but owned by another
// shard is read in place from the owner's store by the stripe's scoped join.
// Stores do not change during the join phase, so the read needs no copy and
// no lock.

#ifndef SCUBA_SHARD_ENGINE_SHARD_H_
#define SCUBA_SHARD_ENGINE_SHARD_H_

#include <cstdint>
#include <utility>

#include "cluster/cluster_store.h"
#include "core/cluster_join.h"
#include "core/load_shedder.h"
#include "core/result_set.h"
#include "core/scuba_options.h"
#include "index/grid_index.h"

namespace scuba {

struct EngineShard {
  EngineShard(uint32_t id, uint32_t cell_begin, uint32_t cell_end,
              GridIndex grid, const ScubaOptions& options)
      : id(id),
        cell_begin(cell_begin),
        cell_end(cell_end),
        grid(std::move(grid)),
        shedder(options.shedding, options.theta_d),
        join(options.query_reach_aware, /*join_threads=*/1),
        nucleus_radius(shedder.nucleus_radius()) {}

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  uint32_t id = 0;
  uint32_t cell_begin = 0;  ///< First cell of the owned stripe.
  uint32_t cell_end = 0;    ///< One past the last owned cell.

  /// Authoritative clusters owned by this shard (plus their members' homes).
  ClusterStore store;
  /// Full-map geometry; registers exactly the clusters touching the stripe.
  GridIndex grid;
  LoadShedder shedder;
  /// Per-shard executor (threads=1: parallelism is one task per shard).
  ClusterJoinExecutor join;
  /// This shard's slice of the round's matches, merged by the coordinator.
  ResultSet results;
  /// Last successfully published slice. Maintained only under supervision
  /// (ShardSupervisor): a degraded round serves this copy for a quarantined
  /// stripe so the round still answers, marked via ResultSet::MarkDegraded.
  ResultSet last_good_results;
  /// Shed radius applied to clusters owned by this shard (cached from the
  /// shard's shedder after each maintenance round).
  double nucleus_radius = 0.0;

  // Per-round load figures for --rebalance=observe and telemetry.
  double last_busy_seconds = 0.0;
  uint64_t last_ghosts = 0;       ///< Border clusters read from neighbors.
  uint64_t last_comparisons = 0;  ///< Join comparisons delta this round.
};

}  // namespace scuba

#endif  // SCUBA_SHARD_ENGINE_SHARD_H_
