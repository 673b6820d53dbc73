// LeaderFollowerClusterer: incremental moving-cluster formation (paper §3.2).
//
// Adapts Leader–Follower clustering to location-update streams: each arriving
// update either refreshes the entity inside its current cluster, is absorbed
// by a nearby compatible cluster found through the ClusterGrid, or starts a
// new single-member cluster. Admission uses the paper's three conditions:
// same destination connection node, distance to centroid <= theta_d and
// |speed - aveSpeed| <= theta_s.

#ifndef SCUBA_CLUSTER_LEADER_FOLLOWER_H_
#define SCUBA_CLUSTER_LEADER_FOLLOWER_H_

#include <cstdint>

#include "cluster/cluster_store.h"
#include "common/status.h"
#include "gen/update.h"
#include "index/grid_index.h"

namespace scuba {

struct ClustererOptions {
  /// Distance threshold Theta_D (spatial units): new members must lie within
  /// this distance of the cluster centroid.
  double theta_d = 100.0;
  /// Speed threshold Theta_S (units/tick): |speed - aveSpeed| bound.
  double theta_s = 10.0;
  /// When true, candidate clusters are gathered from every grid cell within
  /// theta_d of the update (ablation; the paper probes only the update's own
  /// cell, which can miss compatible clusters whose circle stops short of it).
  bool probe_theta_d_disk = false;
  /// When true (default), clusters are registered in the grid under their
  /// query-reach-inflated JoinBounds() so the join-between filter is lossless;
  /// false reproduces the paper's pure member-circle registration (ablation).
  bool register_join_bounds = true;
  /// Grid registrations are padded by this many spatial units and only redone
  /// when a cluster outgrows its padded registration. Padding trades a few
  /// extra candidate checks for far fewer grid updates on the ingest hot
  /// path. 0 re-registers on every bounds change (the paper's literal
  /// behaviour; ablation).
  double grid_sync_padding = 100.0;
};

/// Counters exposed for tests and the maintenance-cost experiment.
struct ClustererStats {
  uint64_t clusters_created = 0;
  uint64_t members_absorbed = 0;    ///< Joined an existing cluster.
  uint64_t members_refreshed = 0;   ///< Updated in place in their cluster.
  uint64_t members_departed = 0;    ///< Left a cluster (conditions failed).
  uint64_t clusters_dissolved_empty = 0;
  uint64_t members_shed = 0;        ///< Positions discarded on ingest.
};

/// Decides whether `cluster` needs (re-)registration in `grid` under its
/// (optionally query-reach inflated) bounds, padded by `padding`. Returns
/// false when the cluster's current bounds are still covered by its previous
/// padded registration — correctness is preserved because a superset
/// registration can only add probe candidates, never hide the cluster. When
/// true, updates the cluster's registered_bounds() and writes the padded
/// circle to register into `*padded_out`, but does NOT touch the grid: the
/// caller applies (or batches) the registration. Pure planning, so parallel
/// post-join workers may call it concurrently against a read-only grid and
/// merge the registrations serially afterwards.
bool PlanClusterGridSync(const GridIndex& grid, MovingCluster* cluster,
                         bool use_join_bounds, double padding,
                         Circle* padded_out);

/// Plans via PlanClusterGridSync and immediately applies the registration to
/// `grid`. The serial ingest path's one-stop grid sync.
Status SyncClusterGrid(GridIndex* grid, MovingCluster* cluster,
                       bool use_join_bounds, double padding);

class LeaderFollowerClusterer {
 public:
  /// `store` and `cluster_grid` must outlive the clusterer. The grid must be
  /// dedicated to clusters (keys are ClusterIds).
  LeaderFollowerClusterer(const ClustererOptions& options, ClusterStore* store,
                          GridIndex* cluster_grid);

  /// Routes one object/query update through the §3.2 procedure. The grid and
  /// store stay synchronized with the cluster's resulting bounds.
  Status ProcessObjectUpdate(const LocationUpdate& update);
  Status ProcessQueryUpdate(const QueryUpdate& update);

  /// Current nucleus radius Theta_N for ingest-time load shedding; 0 disables.
  /// (Members landing within the nucleus have their positions discarded
  /// immediately, which is what makes shedding save join work.)
  void set_nucleus_radius(double r) { nucleus_radius_ = r; }
  double nucleus_radius() const { return nucleus_radius_; }

  const ClustererStats& stats() const { return stats_; }
  const ClustererOptions& options() const { return options_; }

 private:
  friend struct PersistAccess;  ///< Snapshot serialization (src/persist).
  /// Shared implementation; `kind` selects absorb/update member calls.
  Status ProcessUpdate(EntityKind kind, const LocationUpdate* obj,
                       const QueryUpdate* qry);

  /// Finds the lowest-cid compatible cluster near `position` (paper step
  /// 1/3). Picking the minimum cid — rather than the first compatible entry
  /// in grid-cell order — makes the choice independent of how registrations
  /// happen to be ordered inside a cell (cell-entry order depends on the
  /// history of removals and re-registrations, including post-join's
  /// cid-ordered apply and snapshot restores).
  ClusterId FindCompatibleCluster(Point position, double speed,
                                  NodeId dest) const;

  /// Re-registers a cluster's (possibly changed) bounds in the grid.
  Status SyncGrid(MovingCluster* cluster);

  ClustererOptions options_;
  ClusterStore* store_;
  GridIndex* grid_;
  double nucleus_radius_ = 0.0;
  ClustererStats stats_;
};

}  // namespace scuba

#endif  // SCUBA_CLUSTER_LEADER_FOLLOWER_H_
