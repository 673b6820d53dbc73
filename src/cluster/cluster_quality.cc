#include "cluster/cluster_quality.h"

#include <algorithm>
#include <cstdio>

namespace scuba {

std::string ClusterQuality::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "clusters=%zu members=%zu singletons=%zu mixed=%zu "
                "avg_members=%.2f avg_radius=%.2f max_radius=%.2f msd=%.2f",
                cluster_count, member_count, singleton_count, mixed_count,
                avg_members, avg_radius, max_radius, mean_squared_distance);
  return buf;
}

ClusterQuality EvaluateClusterQuality(const ClusterStore& store) {
  ClusterQuality q;
  double radius_sum = 0.0;
  double sq_dist_sum = 0.0;
  for (ClusterId cid : store.SortedClusterIds()) {
    const MovingCluster& cluster = *store.GetCluster(cid);
    ++q.cluster_count;
    q.member_count += cluster.size();
    if (cluster.size() == 1) ++q.singleton_count;
    if (cluster.HasMixedKinds()) ++q.mixed_count;
    radius_sum += cluster.radius();
    q.max_radius = std::max(q.max_radius, cluster.radius());
    for (const ClusterMember& m : cluster.members()) {
      sq_dist_sum +=
          SquaredDistance(cluster.centroid(), cluster.MemberPosition(m));
    }
  }
  if (q.cluster_count > 0) {
    q.avg_members =
        static_cast<double>(q.member_count) / static_cast<double>(q.cluster_count);
    q.avg_radius = radius_sum / static_cast<double>(q.cluster_count);
  }
  if (q.member_count > 0) {
    q.mean_squared_distance = sq_dist_sum / static_cast<double>(q.member_count);
  }
  return q;
}

}  // namespace scuba
