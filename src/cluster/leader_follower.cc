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

ClusterStore::ClusterSlot LeaderFollowerClusterer::FindCompatibleCluster(
    Point position, double speed, NodeId dest) const {
  // The minimum compatible cid wins regardless of where candidates sit in a
  // cell's entry vector (see the header: this keeps clustering decisions
  // independent of grid-registration order).
  ClusterId best = kInvalidClusterId;
  ClusterStore::ClusterSlot best_slot = ClusterStore::kNoSlot;
  auto consider = [&](ClusterId cid) {
    if (best != kInvalidClusterId && cid >= best) return;
    const ClusterStore::ClusterSlot slot = store_->FindCluster(cid);
    if (slot != ClusterStore::kNoSlot &&
        store_->ClusterAt(slot)->SatisfiesJoinConditions(
            position, speed, dest, options_.theta_d, options_.theta_s)) {
      best = cid;
      best_slot = slot;
    }
  };

  if (!options_.probe_theta_d_disk) {
    // Paper step 1: probe the cell under the update.
    for (uint32_t cid : grid_->EntriesNear(position)) consider(cid);
    return best_slot;
  }

  // Ablation variant: gather candidates from every cell within theta_d.
  std::vector<uint32_t> candidates;
  Rect probe{position.x - options_.theta_d, position.y - options_.theta_d,
             position.x + options_.theta_d, position.y + options_.theta_d};
  grid_->CollectInRect(probe, &candidates);
  for (uint32_t cid : candidates) consider(cid);
  return best_slot;
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
  const uint64_t attrs = (kind == EntityKind::kObject) ? obj->attrs
                                                       : qry->attrs;
  const EntityRef ref{kind, id};

  // The update's one slot-table lookup: keeps the paper's ObjectsTable /
  // QueriesTable current and yields the entity's home and member index.
  const ClusterStore::Slot slot = store_->UpsertAttrs(ref, attrs);

  // Fast path: the entity already lives in a cluster, reached through the
  // row's cluster slot; refresh it in place if it still satisfies the
  // admission conditions.
  const ClusterStore::ClusterSlot home = store_->SlotHome(slot);
  if (home != ClusterStore::kNoSlot) {
    MovingCluster* cluster = store_->ClusterAt(home);
    SCUBA_CHECK_MSG(cluster != nullptr, "ClusterHome points at a free slot");
    const size_t index = store_->SlotMemberIndex(slot);
    if (cluster->SatisfiesJoinConditions(position, speed, dest,
                                         options_.theta_d, options_.theta_s)) {
      Status s = (kind == EntityKind::kObject)
                     ? cluster->UpdateObjectMember(index, *obj)
                     : cluster->UpdateQueryMember(index, *qry);
      SCUBA_RETURN_IF_ERROR(s);
      ++stats_.members_refreshed;
      if (nucleus_radius_ > 0.0 &&
          cluster->ShedMemberIfInNucleus(index, nucleus_radius_)) {
        ++stats_.members_shed;
      }
      return SyncGrid(cluster);
    }
    // Conditions no longer hold (typically: passed a connection node and the
    // destination changed) — leave and re-cluster below. The swap-remove
    // moves the tail member into the hole; its slot follows it.
    SCUBA_RETURN_IF_ERROR(cluster->RemoveMember(index, ref));
    store_->UnhomeSlot(slot);
    if (index < cluster->size()) {
      store_->RepointMember(cluster->members()[index].Ref(),
                            static_cast<uint32_t>(index));
    }
    ++stats_.members_departed;
    if (cluster->size() == 0) {
      const ClusterId cid = cluster->cid();
      SCUBA_RETURN_IF_ERROR(grid_->Remove(cid));
      SCUBA_RETURN_IF_ERROR(store_->RemoveCluster(cid));
      ++stats_.clusters_dissolved_empty;
    } else {
      SCUBA_RETURN_IF_ERROR(SyncGrid(cluster));
    }
  }

  // Paper steps 1+3+4: probe the grid and join the first compatible cluster.
  const ClusterStore::ClusterSlot target =
      FindCompatibleCluster(position, speed, dest);
  if (target != ClusterStore::kNoSlot) {
    MovingCluster* cluster = store_->ClusterAt(target);
    if (kind == EntityKind::kObject) {
      cluster->AbsorbObject(*obj);
    } else {
      cluster->AbsorbQuery(*qry);
    }
    const size_t index = cluster->size() - 1;  // absorbed at the back
    store_->HomeSlot(slot, target, static_cast<uint32_t>(index));
    ++stats_.members_absorbed;
    if (nucleus_radius_ > 0.0 &&
        cluster->ShedMemberIfInNucleus(index, nucleus_radius_)) {
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
