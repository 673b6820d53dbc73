#include "core/knn.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace scuba {

namespace {

/// Collects object-member candidates from a set of clusters into `out`.
void CollectObjects(const ClusterStore& store,
                    const std::vector<uint32_t>& cluster_ids, Point query,
                    std::vector<KnnNeighbor>* out) {
  for (uint32_t cid : cluster_ids) {
    const MovingCluster* c = store.GetCluster(cid);
    if (c == nullptr) continue;
    for (const ClusterMember& m : c->members()) {
      if (m.kind != EntityKind::kObject) continue;
      double d = Distance(query, c->MemberPosition(m));
      // A shed member may be anywhere within its nucleus: report the
      // optimistic (minimum possible) distance.
      if (m.shed) d = std::max(0.0, d - m.approx_radius);
      out->push_back(KnnNeighbor{m.id, d});
    }
  }
}

void RankAndTruncate(std::vector<KnnNeighbor>* neighbors, size_t k) {
  std::sort(neighbors->begin(), neighbors->end(),
            [](const KnnNeighbor& a, const KnnNeighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.oid < b.oid;
            });
  if (neighbors->size() > k) neighbors->resize(k);
}

}  // namespace

Result<std::vector<KnnNeighbor>> ClusterKnn(const ClusterStore& store,
                                            const GridIndex& cluster_grid,
                                            Point query, size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");

  // Expand square rings of grid cells around the query until the k-th best
  // candidate distance is within the ring's guaranteed coverage radius.
  const double cell_extent =
      std::min(cluster_grid.region().Width(), cluster_grid.region().Height()) /
      cluster_grid.cells_per_side();
  const double max_extent =
      std::max(cluster_grid.region().Width(), cluster_grid.region().Height());

  std::vector<KnnNeighbor> neighbors;
  std::vector<uint32_t> cluster_ids;
  std::unordered_set<uint32_t> seen;
  for (double reach = cell_extent;; reach *= 2.0) {
    Rect probe{query.x - reach, query.y - reach, query.x + reach,
               query.y + reach};
    cluster_ids.clear();
    cluster_grid.CollectInRect(probe, &cluster_ids);
    std::vector<uint32_t> fresh;
    for (uint32_t cid : cluster_ids) {
      if (seen.insert(cid).second) fresh.push_back(cid);
    }
    CollectObjects(store, fresh, query, &neighbors);
    RankAndTruncate(&neighbors, k);
    // `reach` bounds the covered L-inf radius; any unseen cluster overlapping
    // the probe square is registered in one of its cells, so if we already
    // hold k candidates within `reach`, no farther cluster can beat them.
    bool covered = neighbors.size() >= k && neighbors.back().distance <= reach;
    if (covered || reach > 2.0 * max_extent) break;
  }
  return neighbors;
}

Result<std::vector<KnnNeighbor>> BruteForceKnn(const ClusterStore& store,
                                               Point query, size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  std::vector<KnnNeighbor> neighbors;
  for (ClusterId cid : store.SortedClusterIds()) {
    const MovingCluster& cluster = *store.GetCluster(cid);
    for (const ClusterMember& m : cluster.members()) {
      if (m.kind != EntityKind::kObject) continue;
      double d = Distance(query, cluster.MemberPosition(m));
      if (m.shed) d = std::max(0.0, d - m.approx_radius);
      neighbors.push_back(KnnNeighbor{m.id, d});
    }
  }
  RankAndTruncate(&neighbors, k);
  return neighbors;
}

}  // namespace scuba
