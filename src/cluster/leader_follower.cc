#include "cluster/leader_follower.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace scuba {

LeaderFollowerClusterer::LeaderFollowerClusterer(const ClustererOptions& options,
                                                 ClusterStore* store,
                                                 GridIndex* cluster_grid)
    : options_(options), store_(store), grid_(cluster_grid) {
  SCUBA_CHECK(store != nullptr && cluster_grid != nullptr);
  SCUBA_CHECK(options.theta_d >= 0.0 && options.theta_s >= 0.0);
}

bool PlanClusterGridSync(const GridIndex& grid, MovingCluster* cluster,
                         bool use_join_bounds, double padding,
                         Circle* padded_out) {
  Circle needed = use_join_bounds ? cluster->JoinBounds() : cluster->Bounds();
  if (grid.Contains(cluster->cid()) &&
      ContainsCircle(cluster->registered_bounds(), needed)) {
    return false;  // still covered by the previous registration
  }
  Circle padded{needed.center, needed.radius + padding};
  cluster->set_registered_bounds(padded);
  *padded_out = padded;
  return true;
}

Status SyncClusterGrid(GridIndex* grid, MovingCluster* cluster,
                       bool use_join_bounds, double padding) {
  bool was_registered = grid->Contains(cluster->cid());
  Circle padded;
  if (!PlanClusterGridSync(*grid, cluster, use_join_bounds, padding, &padded)) {
    return Status::OK();
  }
  return was_registered ? grid->Update(cluster->cid(), padded)
                        : grid->Insert(cluster->cid(), padded);
}

Status LeaderFollowerClusterer::SyncGrid(MovingCluster* cluster) {
  return SyncClusterGrid(grid_, cluster, options_.register_join_bounds,
                         options_.grid_sync_padding);
}

ClusterId LeaderFollowerClusterer::FindCompatibleCluster(Point position,
                                                         double speed,
                                                         NodeId dest) const {
  auto check = [&](ClusterId cid) {
    const MovingCluster* c = store_->GetCluster(cid);
    return c != nullptr &&
           c->SatisfiesJoinConditions(position, speed, dest, options_.theta_d,
                                      options_.theta_s);
  };

  // The minimum compatible cid wins regardless of where candidates sit in a
  // cell's entry vector (see the header: this keeps clustering decisions
  // independent of grid-registration order).
  ClusterId best = kInvalidClusterId;
  if (!options_.probe_theta_d_disk) {
    // Paper step 1: probe the cell under the update.
    for (uint32_t cid : grid_->EntriesNear(position)) {
      if ((best == kInvalidClusterId || cid < best) && check(cid)) best = cid;
    }
    return best;
  }

  // Ablation variant: gather candidates from every cell within theta_d.
  std::vector<uint32_t> candidates;
  Rect probe{position.x - options_.theta_d, position.y - options_.theta_d,
             position.x + options_.theta_d, position.y + options_.theta_d};
  grid_->CollectInRect(probe, &candidates);
  for (uint32_t cid : candidates) {
    if ((best == kInvalidClusterId || cid < best) && check(cid)) best = cid;
  }
  return best;
}

Status LeaderFollowerClusterer::ProcessUpdate(EntityKind kind,
                                              const LocationUpdate* obj,
                                              const QueryUpdate* qry) {
  const Point position = (kind == EntityKind::kObject) ? obj->position
                                                       : qry->position;
  const double speed = (kind == EntityKind::kObject) ? obj->speed : qry->speed;
  const NodeId dest = (kind == EntityKind::kObject) ? obj->dest_node
                                                    : qry->dest_node;
  const uint32_t id = (kind == EntityKind::kObject) ? obj->oid : qry->qid;
  const EntityRef ref{kind, id};

  // Keep the paper's ObjectsTable / QueriesTable current.
  if (kind == EntityKind::kObject) {
    store_->UpsertObjectAttrs(obj->oid, obj->attrs);
  } else {
    store_->UpsertQueryAttrs(qry->qid, qry->attrs);
  }

  // Fast path: the entity already lives in a cluster; refresh it in place if
  // it still satisfies the admission conditions.
  ClusterId home = store_->HomeOf(ref);
  if (home != kInvalidClusterId) {
    MovingCluster* cluster = store_->GetCluster(home);
    SCUBA_CHECK_MSG(cluster != nullptr, "ClusterHome points at a missing cluster");
    if (cluster->SatisfiesJoinConditions(position, speed, dest,
                                         options_.theta_d, options_.theta_s)) {
      Status s = (kind == EntityKind::kObject)
                     ? cluster->UpdateObjectMember(*obj)
                     : cluster->UpdateQueryMember(*qry);
      SCUBA_RETURN_IF_ERROR(s);
      ++stats_.members_refreshed;
      if (nucleus_radius_ > 0.0 &&
          cluster->ShedMemberIfInNucleus(ref, nucleus_radius_)) {
        ++stats_.members_shed;
      }
      return SyncGrid(cluster);
    }
    // Conditions no longer hold (typically: passed a connection node and the
    // destination changed) — leave and re-cluster below.
    SCUBA_RETURN_IF_ERROR(cluster->RemoveMember(ref));
    SCUBA_RETURN_IF_ERROR(store_->ClearHome(ref));
    ++stats_.members_departed;
    if (cluster->size() == 0) {
      SCUBA_RETURN_IF_ERROR(grid_->Remove(home));
      SCUBA_RETURN_IF_ERROR(store_->RemoveCluster(home));
      ++stats_.clusters_dissolved_empty;
    } else {
      SCUBA_RETURN_IF_ERROR(SyncGrid(cluster));
    }
  }

  // Paper steps 1+3+4: probe the grid and join the first compatible cluster.
  ClusterId target = FindCompatibleCluster(position, speed, dest);
  if (target != kInvalidClusterId) {
    MovingCluster* cluster = store_->GetCluster(target);
    if (kind == EntityKind::kObject) {
      cluster->AbsorbObject(*obj);
    } else {
      cluster->AbsorbQuery(*qry);
    }
    SCUBA_RETURN_IF_ERROR(store_->SetHome(ref, target));
    ++stats_.members_absorbed;
    if (nucleus_radius_ > 0.0 &&
        cluster->ShedMemberIfInNucleus(ref, nucleus_radius_)) {
      ++stats_.members_shed;
    }
    return SyncGrid(cluster);
  }

  // Paper steps 2/5: no compatible cluster — start a new one here.
  ClusterId cid = store_->NextClusterId();
  MovingCluster fresh = (kind == EntityKind::kObject)
                            ? MovingCluster::FromObject(cid, *obj)
                            : MovingCluster::FromQuery(cid, *qry);
  SCUBA_RETURN_IF_ERROR(SyncGrid(&fresh));
  SCUBA_RETURN_IF_ERROR(store_->AddCluster(std::move(fresh)));
  ++stats_.clusters_created;
  return Status::OK();
}

Status LeaderFollowerClusterer::ProcessObjectUpdate(const LocationUpdate& u) {
  return ProcessUpdate(EntityKind::kObject, &u, nullptr);
}

Status LeaderFollowerClusterer::ProcessQueryUpdate(const QueryUpdate& u) {
  return ProcessUpdate(EntityKind::kQuery, nullptr, &u);
}

}  // namespace scuba
