// Micro-benchmarks (google-benchmark) of SCUBA's hot-path primitives:
// geometry predicates, grid-index operations, cluster
// absorb/refresh, Leader-Follower update routing, the join-between test, and
// the sort that assembles a round's answer.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "cluster/leader_follower.h"
#include "cluster/moving_cluster.h"
#include "common/rng.h"
#include "core/result_set.h"
#include "geometry/rect.h"
#include "index/grid_index.h"

namespace scuba {
namespace {

LocationUpdate MakeObj(ObjectId oid, Point p, double speed = 10.0,
                       NodeId dest = 1) {
  LocationUpdate u;
  u.oid = oid;
  u.position = p;
  u.speed = speed;
  u.dest_node = dest;
  u.dest_position = Point{9000, 9000};
  return u;
}

void BM_CircleOverlap(benchmark::State& state) {
  Circle a{{100, 100}, 50};
  Circle b{{180, 100}, 40};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Overlaps(a, b));
  }
}
BENCHMARK(BM_CircleOverlap);

void BM_RectCircleIntersect(benchmark::State& state) {
  Rect r{0, 0, 100, 100};
  Circle c{{120, 50}, 30};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Intersects(r, c));
  }
}
BENCHMARK(BM_RectCircleIntersect);

void BM_GridInsertRemove(benchmark::State& state) {
  GridIndex grid =
      std::move(GridIndex::Create(Rect{0, 0, 10000, 10000}, 100).value());
  Rng rng(2);
  uint32_t key = 0;
  for (auto _ : state) {
    Point p{rng.NextDouble(0, 10000), rng.NextDouble(0, 10000)};
    benchmark::DoNotOptimize(grid.Insert(key, p));
    benchmark::DoNotOptimize(grid.Remove(key));
    ++key;
  }
}
BENCHMARK(BM_GridInsertRemove);

void BM_GridUpdateCircle(benchmark::State& state) {
  GridIndex grid =
      std::move(GridIndex::Create(Rect{0, 0, 10000, 10000}, 100).value());
  (void)grid.Insert(1, Circle{{5000, 5000}, static_cast<double>(state.range(0))});
  Rng rng(3);
  for (auto _ : state) {
    Point c{rng.NextDouble(1000, 9000), rng.NextDouble(1000, 9000)};
    benchmark::DoNotOptimize(
        grid.Update(1, Circle{c, static_cast<double>(state.range(0))}));
  }
}
BENCHMARK(BM_GridUpdateCircle)->Arg(50)->Arg(200)->Arg(500);

void BM_ClusterAbsorb(benchmark::State& state) {
  Rng rng(4);
  int64_t n = 0;
  MovingCluster cluster = MovingCluster::FromObject(0, MakeObj(0, {500, 500}));
  for (auto _ : state) {
    if (n >= state.range(0)) {
      state.PauseTiming();
      cluster = MovingCluster::FromObject(0, MakeObj(0, {500, 500}));
      n = 0;
      state.ResumeTiming();
    }
    Point p{500 + rng.NextDouble(-80, 80), 500 + rng.NextDouble(-80, 80)};
    cluster.AbsorbObject(MakeObj(static_cast<ObjectId>(++n), p));
  }
}
BENCHMARK(BM_ClusterAbsorb)->Arg(64)->Arg(256);

void BM_ClusterMemberRefresh(benchmark::State& state) {
  Rng rng(5);
  MovingCluster cluster = MovingCluster::FromObject(0, MakeObj(0, {500, 500}));
  for (uint32_t i = 1; i < 100; ++i) {
    Point p{500 + rng.NextDouble(-80, 80), 500 + rng.NextDouble(-80, 80)};
    cluster.AbsorbObject(MakeObj(i, p));
  }
  // Member i sits at index i: the refresh reaches it by index, as ingest
  // does through the entity's store slot.
  uint32_t id = 0;
  for (auto _ : state) {
    Point p{500 + rng.NextDouble(-80, 80), 500 + rng.NextDouble(-80, 80)};
    benchmark::DoNotOptimize(cluster.UpdateObjectMember(id, MakeObj(id, p)));
    id = (id + 1) % 100;
  }
}
BENCHMARK(BM_ClusterMemberRefresh);

void BM_LeaderFollowerIngest(benchmark::State& state) {
  ClusterStore store;
  GridIndex grid =
      std::move(GridIndex::Create(Rect{0, 0, 10000, 10000}, 100).value());
  LeaderFollowerClusterer clusterer(ClustererOptions{}, &store, &grid);
  Rng rng(6);
  // Groups of 32 co-travelling objects on a square layout of the region.
  // 20000 entities is the paper-offline workload's size; at 2048 the
  // per-entity tables stay cache-resident.
  const uint32_t entities = static_cast<uint32_t>(state.range(0));
  const uint32_t groups = (entities + 31) / 32;
  uint32_t side = 1;
  while (side * side < groups) ++side;
  const double spacing = std::min(1200.0, 10000.0 / side);
  std::vector<LocationUpdate> updates;
  for (uint32_t i = 0; i < entities; ++i) {
    uint32_t group = i / 32;
    Point base{(group % side) * spacing + spacing / 2,
               (group / side) * spacing + spacing / 2};
    Point p{base.x + rng.NextDouble(-60, 60), base.y + rng.NextDouble(-60, 60)};
    updates.push_back(MakeObj(i, p, 10.0, group));
  }
  size_t i = 0;
  for (auto _ : state) {
    LocationUpdate u = updates[i % updates.size()];
    // Drift so refreshes do real work.
    u.position.x += rng.NextDouble(-5, 5);
    benchmark::DoNotOptimize(clusterer.ProcessObjectUpdate(u));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LeaderFollowerIngest)->Arg(2048)->Arg(20000);

void BM_RectContainsPoint(benchmark::State& state) {
  Rect r{0, 0, 125, 125};
  Point p{60, 60};
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.Contains(p));
    p.x = p.x < 124 ? p.x + 0.001 : 0.0;
  }
}
BENCHMARK(BM_RectContainsPoint);

/// `n` matches in the order the join emits them: cluster pairs in scan
/// order, and per pair each query of one cluster (member order) followed by
/// the objects of the other cluster it contains (slab order). Ids are drawn
/// from 10,000 objects and 10,000 queries in clusters of 50, as on the
/// paper's 10k + 10k workload.
std::vector<Match> JoinEmissionOrder(size_t n) {
  Rng rng(2114);
  constexpr uint32_t kIds = 10000;
  constexpr uint32_t kClusterSize = 50;
  std::vector<uint32_t> oids(kIds);
  std::vector<uint32_t> qids(kIds);
  for (uint32_t i = 0; i < kIds; ++i) oids[i] = qids[i] = i + 1;
  for (uint32_t i = kIds - 1; i > 0; --i) {  // members join clusters randomly
    std::swap(oids[i], oids[rng.NextBounded(i + 1)]);
    std::swap(qids[i], qids[rng.NextBounded(i + 1)]);
  }
  std::vector<Match> out;
  out.reserve(n);
  while (out.size() < n) {
    constexpr uint32_t kClusters = kIds / kClusterSize;
    const uint32_t qc = static_cast<uint32_t>(rng.NextBounded(kClusters));
    const uint32_t oc = static_cast<uint32_t>(rng.NextBounded(kClusters));
    for (uint32_t q = 0; q < kClusterSize && out.size() < n; ++q) {
      for (uint32_t o = 0; o < kClusterSize && out.size() < n; ++o) {
        if (rng.NextBool(0.3)) {
          out.push_back(Match{qids[qc * kClusterSize + q],
                              oids[oc * kClusterSize + o]});
        }
      }
    }
  }
  return out;
}

/// ResultSet::Normalize (radix sort + unique) over join-ordered matches; the
/// time includes copying the matches in.
void BM_ResultSetNormalize(benchmark::State& state) {
  const std::vector<Match> emitted =
      JoinEmissionOrder(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    ResultSet r;
    for (const Match& m : emitted) r.Add(m.qid, m.oid);
    r.Normalize();
    benchmark::DoNotOptimize(r.matches().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ResultSetNormalize)->Arg(1000)->Arg(80000)->Arg(300000);

/// The comparison sort Normalize replaced, on the same inputs.
void BM_StdSortMatches(benchmark::State& state) {
  const std::vector<Match> emitted =
      JoinEmissionOrder(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<Match> v;
    for (const Match& m : emitted) v.push_back(m);
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StdSortMatches)->Arg(1000)->Arg(80000)->Arg(300000);

}  // namespace
}  // namespace scuba

BENCHMARK_MAIN();
