#include "cluster/kmeans.h"

#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"

namespace scuba {

namespace {

struct Snapshot {
  std::vector<Point> points;
  std::vector<NodeId> dests;
};

Snapshot Collect(const std::vector<LocationUpdate>& objs,
                 const std::vector<QueryUpdate>& qrys) {
  Snapshot s;
  s.points.reserve(objs.size() + qrys.size());
  s.dests.reserve(objs.size() + qrys.size());
  for (const LocationUpdate& u : objs) {
    s.points.push_back(u.position);
    s.dests.push_back(u.dest_node);
  }
  for (const QueryUpdate& u : qrys) {
    s.points.push_back(u.position);
    s.dests.push_back(u.dest_node);
  }
  return s;
}

}  // namespace

Result<KMeansResult> KMeansCluster(const std::vector<LocationUpdate>& objs,
                                   const std::vector<QueryUpdate>& qrys,
                                   const KMeansOptions& options) {
  if (objs.empty() && qrys.empty()) {
    return Status::InvalidArgument("k-means needs at least one update");
  }
  if (options.iterations == 0) {
    return Status::InvalidArgument("k-means needs at least one iteration");
  }

  Snapshot snap = Collect(objs, qrys);
  const size_t n = snap.points.size();

  // Seed: the paper estimates k by counting unique destinations; we seed one
  // centroid at the first point heading to each distinct destination.
  std::vector<Point> centroids;
  if (options.k == 0) {
    std::unordered_set<NodeId> seen;
    for (size_t i = 0; i < n; ++i) {
      if (seen.insert(snap.dests[i]).second) {
        centroids.push_back(snap.points[i]);
      }
    }
  } else {
    uint32_t k = options.k;
    if (static_cast<size_t>(k) > n) k = static_cast<uint32_t>(n);
    // Evenly spaced sample of the input as seeds (deterministic).
    for (uint32_t c = 0; c < k; ++c) {
      centroids.push_back(snap.points[(static_cast<size_t>(c) * n) / k]);
    }
  }
  const uint32_t k = static_cast<uint32_t>(centroids.size());
  SCUBA_CHECK(k >= 1);

  KMeansResult result;
  result.k = k;
  result.assignment.assign(n, 0);

  std::vector<Point> sums(k);
  std::vector<size_t> counts(k);
  for (uint32_t iter = 0; iter < options.iterations; ++iter) {
    // Assignment step.
    result.inertia = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      uint32_t best_c = 0;
      for (uint32_t c = 0; c < k; ++c) {
        double d2 = SquaredDistance(snap.points[i], centroids[c]);
        if (d2 < best) {
          best = d2;
          best_c = c;
        }
      }
      result.assignment[i] = best_c;
      result.inertia += best;
    }
    result.iterations_run = iter + 1;

    // Update step (empty clusters keep their centroid).
    for (uint32_t c = 0; c < k; ++c) {
      sums[c] = Point{0.0, 0.0};
      counts[c] = 0;
    }
    for (size_t i = 0; i < n; ++i) {
      uint32_t c = result.assignment[i];
      sums[c].x += snap.points[i].x;
      sums[c].y += snap.points[i].y;
      counts[c]++;
    }
    for (uint32_t c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        centroids[c] = Point{sums[c].x / static_cast<double>(counts[c]),
                             sums[c].y / static_cast<double>(counts[c])};
      }
    }
  }
  result.centroids = std::move(centroids);
  return result;
}

Status PopulateFromKMeans(const std::vector<LocationUpdate>& objs,
                          const std::vector<QueryUpdate>& qrys,
                          const KMeansResult& result, ClusterStore* store,
                          GridIndex* grid) {
  if (store == nullptr || grid == nullptr) {
    return Status::InvalidArgument("store/grid must be non-null");
  }
  if (store->ClusterCount() != 0 || grid->size() != 0) {
    return Status::FailedPrecondition("store and grid must start empty");
  }
  if (result.assignment.size() != objs.size() + qrys.size()) {
    return Status::InvalidArgument("assignment size does not match snapshot");
  }

  // Build one MovingCluster per non-empty k-means cluster by absorbing its
  // members in input order; cids follow first appearance.
  std::unordered_map<uint32_t, size_t> building_index;
  std::vector<MovingCluster> building;
  for (size_t i = 0; i < result.assignment.size(); ++i) {
    const bool is_object = i < objs.size();
    const auto [it, fresh] =
        building_index.try_emplace(result.assignment[i], building.size());
    if (fresh) {
      const ClusterId cid = store->NextClusterId();
      building.push_back(is_object
                             ? MovingCluster::FromObject(cid, objs[i])
                             : MovingCluster::FromQuery(cid, qrys[i - objs.size()]));
    } else if (is_object) {
      building[it->second].AbsorbObject(objs[i]);
    } else {
      building[it->second].AbsorbQuery(qrys[i - objs.size()]);
    }
  }

  for (MovingCluster& cluster : building) {
    cluster.RecomputeTightBounds();
    SCUBA_RETURN_IF_ERROR(grid->Insert(cluster.cid(), cluster.Bounds()));
    SCUBA_RETURN_IF_ERROR(store->AddCluster(std::move(cluster)));
  }
  return Status::OK();
}

}  // namespace scuba
