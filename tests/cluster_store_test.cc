#include "cluster/cluster_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace scuba {
namespace {

LocationUpdate Obj(ObjectId oid, Point p) {
  LocationUpdate u;
  u.oid = oid;
  u.position = p;
  u.speed = 10.0;
  u.dest_node = 1;
  u.dest_position = Point{100, 0};
  return u;
}

QueryUpdate Qry(QueryId qid, Point p) {
  QueryUpdate u;
  u.qid = qid;
  u.position = p;
  u.speed = 10.0;
  u.dest_node = 1;
  u.dest_position = Point{100, 0};
  u.range_width = 20;
  u.range_height = 20;
  return u;
}

TEST(ClusterStoreTest, NextClusterIdIsMonotonic) {
  ClusterStore store;
  EXPECT_EQ(store.NextClusterId(), 0u);
  EXPECT_EQ(store.NextClusterId(), 1u);
  EXPECT_EQ(store.NextClusterId(), 2u);
}

TEST(ClusterStoreTest, AddAndGetCluster) {
  ClusterStore store;
  ClusterId cid = store.NextClusterId();
  ASSERT_TRUE(store.AddCluster(MovingCluster::FromObject(cid, Obj(7, {1, 2}))).ok());
  EXPECT_EQ(store.ClusterCount(), 1u);
  ASSERT_NE(store.GetCluster(cid), nullptr);
  EXPECT_EQ(store.GetCluster(cid)->cid(), cid);
  EXPECT_EQ(store.GetCluster(999), nullptr);
  // Home entry created for the founding member.
  EXPECT_EQ(store.HomeOf({EntityKind::kObject, 7}), cid);
  EXPECT_EQ(store.HomeCount(), 1u);
}

TEST(ClusterStoreTest, AddDuplicateCidFails) {
  ClusterStore store;
  ASSERT_TRUE(store.AddCluster(MovingCluster::FromObject(0, Obj(1, {0, 0}))).ok());
  EXPECT_TRUE(store.AddCluster(MovingCluster::FromObject(0, Obj(2, {0, 0})))
                  .IsAlreadyExists());
}

TEST(ClusterStoreTest, AddClusterWithHomedMemberFails) {
  ClusterStore store;
  ASSERT_TRUE(store.AddCluster(MovingCluster::FromObject(0, Obj(1, {0, 0}))).ok());
  EXPECT_TRUE(store.AddCluster(MovingCluster::FromObject(1, Obj(1, {5, 5})))
                  .IsAlreadyExists());
  EXPECT_EQ(store.ClusterCount(), 1u);
}

TEST(ClusterStoreTest, RemoveClusterClearsHomes) {
  ClusterStore store;
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  c.AbsorbQuery(Qry(2, {1, 1}));
  ASSERT_TRUE(store.AddCluster(std::move(c)).ok());
  EXPECT_EQ(store.HomeCount(), 2u);
  ASSERT_TRUE(store.RemoveCluster(0).ok());
  EXPECT_EQ(store.ClusterCount(), 0u);
  EXPECT_EQ(store.HomeCount(), 0u);
  EXPECT_EQ(store.HomeOf({EntityKind::kObject, 1}), kInvalidClusterId);
  EXPECT_TRUE(store.RemoveCluster(0).IsNotFound());
}

TEST(ClusterStoreTest, SetAndClearHome) {
  ClusterStore store;
  ASSERT_TRUE(store.AddCluster(MovingCluster::FromObject(0, Obj(1, {0, 0}))).ok());
  EntityRef ref{EntityKind::kQuery, 42};
  EXPECT_TRUE(store.SetHome(ref, 99, 0).IsNotFound());  // no such cluster
  ASSERT_TRUE(store.SetHome(ref, 0, 1).ok());
  EXPECT_EQ(store.HomeOf(ref), 0u);
  EXPECT_EQ(store.SlotMemberIndex(store.FindSlot(ref)), 1u);
  EXPECT_TRUE(store.SetHome(ref, 0, 1).IsAlreadyExists());
  ASSERT_TRUE(store.ClearHome(ref).ok());
  EXPECT_EQ(store.HomeOf(ref), kInvalidClusterId);
  EXPECT_TRUE(store.ClearHome(ref).IsNotFound());
}

TEST(ClusterStoreTest, ObjectAndQueryKindsDistinctInHome) {
  ClusterStore store;
  ASSERT_TRUE(store.AddCluster(MovingCluster::FromObject(0, Obj(5, {0, 0}))).ok());
  // Query with the same numeric id is a different entity.
  EXPECT_EQ(store.HomeOf({EntityKind::kQuery, 5}), kInvalidClusterId);
  EXPECT_EQ(store.HomeOf({EntityKind::kObject, 5}), 0u);
}

TEST(ClusterStoreTest, AttrTables) {
  ClusterStore store;
  EXPECT_TRUE(store.ObjectAttrs(1).status().IsNotFound());
  store.UpsertAttrs({EntityKind::kObject, 1}, kAttrChild);
  store.UpsertAttrs({EntityKind::kQuery, 2}, kAttrBus | kAttrEmergency);
  ASSERT_TRUE(store.ObjectAttrs(1).ok());
  EXPECT_EQ(*store.ObjectAttrs(1), kAttrChild);
  EXPECT_EQ(*store.QueryAttrs(2), kAttrBus | kAttrEmergency);
  store.UpsertAttrs({EntityKind::kObject, 1}, kAttrTruck);  // overwrite
  EXPECT_EQ(*store.ObjectAttrs(1), kAttrTruck);
  EXPECT_EQ(store.ObjectsTableSize(), 1u);
  EXPECT_EQ(store.QueriesTableSize(), 1u);
}

TEST(ClusterStoreTest, HomedOnlyEntityHasNoAttrsRow) {
  // A slot made by AddCluster or SetHome is not an attribute-table row.
  ClusterStore store;
  ASSERT_TRUE(store.AddCluster(MovingCluster::FromObject(0, Obj(1, {0, 0}))).ok());
  ASSERT_TRUE(store.SetHome({EntityKind::kQuery, 2}, 0, 1).ok());
  EXPECT_TRUE(store.ObjectAttrs(1).status().IsNotFound());
  EXPECT_TRUE(store.QueryAttrs(2).status().IsNotFound());
  EXPECT_EQ(store.ObjectsTableSize(), 0u);
  EXPECT_EQ(store.QueriesTableSize(), 0u);
  EXPECT_TRUE(store.SortedAttrRows(EntityKind::kObject).empty());
  store.UpsertAttrs({EntityKind::kObject, 1}, kAttrChild);
  EXPECT_EQ(*store.ObjectAttrs(1), kAttrChild);
  EXPECT_EQ(store.ObjectsTableSize(), 1u);
  EXPECT_EQ(store.HomeOf({EntityKind::kObject, 1}), 0u);  // home kept
}

TEST(ClusterStoreTest, AddClusterRejectsDuplicateMember) {
  ClusterStore store;
  store.UpsertAttrs({EntityKind::kObject, 7}, kAttrChild);
  MovingCluster dup = MovingCluster::FromObject(0, Obj(7, {0, 0}));
  dup.AbsorbObject(Obj(7, {1, 1}));
  dup.AbsorbQuery(Qry(8, {2, 2}));
  ASSERT_EQ(dup.size(), 3u);
  EXPECT_TRUE(store.AddCluster(std::move(dup)).IsAlreadyExists());
  // Unchanged: no cluster, no homes, the attrs row intact, still consistent.
  EXPECT_EQ(store.ClusterCount(), 0u);
  EXPECT_EQ(store.HomeCount(), 0u);
  EXPECT_EQ(store.HomeOf({EntityKind::kObject, 7}), kInvalidClusterId);
  EXPECT_EQ(store.HomeOf({EntityKind::kQuery, 8}), kInvalidClusterId);
  EXPECT_EQ(*store.ObjectAttrs(7), kAttrChild);
  EXPECT_EQ(store.ObjectsTableSize(), 1u);
  EXPECT_TRUE(store.ValidateConsistency().ok());
  // The same entity can still found a cluster of its own.
  ASSERT_TRUE(store.AddCluster(MovingCluster::FromObject(0, Obj(7, {0, 0}))).ok());
  EXPECT_TRUE(store.ValidateConsistency().ok());
}

TEST(ClusterStoreTest, AddClusterWithHomedLaterMemberLeavesStoreUnchanged) {
  ClusterStore store;
  ASSERT_TRUE(store.AddCluster(MovingCluster::FromObject(0, Obj(3, {0, 0}))).ok());
  MovingCluster c = MovingCluster::FromObject(1, Obj(1, {0, 0}));
  c.AbsorbObject(Obj(2, {1, 0}));
  c.AbsorbObject(Obj(3, {2, 0}));  // already homed at cluster 0
  EXPECT_TRUE(store.AddCluster(std::move(c)).IsAlreadyExists());
  EXPECT_EQ(store.ClusterCount(), 1u);
  EXPECT_EQ(store.HomeCount(), 1u);
  EXPECT_EQ(store.HomeOf({EntityKind::kObject, 1}), kInvalidClusterId);
  EXPECT_EQ(store.HomeOf({EntityKind::kObject, 3}), 0u);
  EXPECT_TRUE(store.ValidateConsistency().ok());
}

TEST(ClusterStoreTest, ValidateConsistencyDetectsOrphanHome) {
  ClusterStore store;
  ASSERT_TRUE(store.AddCluster(MovingCluster::FromObject(0, Obj(1, {0, 0}))).ok());
  EXPECT_TRUE(store.ValidateConsistency().ok());
  // Inject an orphan home entry.
  ASSERT_TRUE(store.SetHome({EntityKind::kObject, 99}, 0, 1).ok());
  EXPECT_TRUE(store.ValidateConsistency().IsInternal());
}

TEST(ClusterStoreTest, ValidateConsistencyDetectsEmptyCluster) {
  ClusterStore store;
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  ASSERT_TRUE(store.AddCluster(std::move(c)).ok());
  ASSERT_TRUE(store.GetCluster(0)->RemoveMember(0, {EntityKind::kObject, 1}).ok());
  ASSERT_TRUE(store.ClearHome({EntityKind::kObject, 1}).ok());
  EXPECT_TRUE(store.ValidateConsistency().IsInternal());
}

TEST(ClusterStoreTest, ClearResetsEverything) {
  ClusterStore store;
  ASSERT_TRUE(store.AddCluster(MovingCluster::FromObject(0, Obj(1, {0, 0}))).ok());
  store.UpsertAttrs({EntityKind::kObject, 1}, kAttrChild);
  store.Clear();
  EXPECT_EQ(store.ClusterCount(), 0u);
  EXPECT_EQ(store.HomeCount(), 0u);
  EXPECT_EQ(store.ObjectsTableSize(), 0u);
  EXPECT_TRUE(store.ValidateConsistency().ok());
}

TEST(ClusterStoreTest, MemoryUsageGrowsWithClusters) {
  ClusterStore store;
  size_t empty = store.EstimateMemoryUsage();
  for (uint32_t i = 0; i < 50; ++i) {
    ClusterId cid = store.NextClusterId();
    ASSERT_TRUE(
        store.AddCluster(MovingCluster::FromObject(cid, Obj(i, {1.0 * i, 0})))
            .ok());
  }
  EXPECT_GT(store.EstimateMemoryUsage(), empty);
}

TEST(ClusterStoreTest, MemoryEstimateCountsEntitySlots) {
  // Entities with only an attrs row own no cluster, yet the slot table and
  // its rows (attrs, home cid, member index per entity) still cost memory.
  ClusterStore store;
  const size_t empty = store.EstimateMemoryUsage();
  constexpr uint32_t kEntities = 1000;
  for (uint32_t i = 0; i < kEntities; ++i) {
    store.UpsertAttrs({EntityKind::kObject, i}, kAttrTruck);
  }
  const size_t per_entity =
      sizeof(uint64_t) + sizeof(ClusterId) + sizeof(uint32_t);
  EXPECT_GE(store.EstimateMemoryUsage(), empty + kEntities * per_entity);
}

/// Index of `ref` among `c`'s members, by the store's slot.
size_t SlotIndex(const ClusterStore& store, EntityRef ref) {
  const ClusterStore::Slot slot = store.FindSlot(ref);
  EXPECT_NE(slot, ClusterStore::kNoSlot);
  return store.SlotMemberIndex(slot);
}

/// The clusterer's departure: swap-remove by the slot's index, clear the
/// home and re-point the member that moved into the hole.
void Depart(ClusterStore* store, EntityRef ref) {
  const ClusterStore::Slot slot = store->FindSlot(ref);
  ASSERT_NE(slot, ClusterStore::kNoSlot);
  MovingCluster* cluster = store->ClusterAt(store->SlotHome(slot));
  ASSERT_NE(cluster, nullptr);
  const ClusterId cid = cluster->cid();
  const size_t index = store->SlotMemberIndex(slot);
  ASSERT_TRUE(cluster->RemoveMember(index, ref).ok());
  store->UnhomeSlot(slot);
  if (index < cluster->size()) {
    store->RepointMember(cluster->members()[index].Ref(),
                         static_cast<uint32_t>(index));
  }
  if (cluster->size() == 0) {
    ASSERT_TRUE(store->RemoveCluster(cid).ok());
  }
}

TEST(ClusterStoreTest, MemberSlotsSurviveSwapAndPop) {
  // RemoveMember fills the hole with the tail member, so the moved member's
  // index changes under it; its slot must follow through arbitrary churn.
  ClusterStore store;
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  for (uint32_t i = 2; i <= 12; ++i) {
    c.AbsorbObject(Obj(i, {static_cast<double>(i), 0}));
  }
  ASSERT_TRUE(store.AddCluster(std::move(c)).ok());
  // Remove from the middle, the tail, and the head of the member vector.
  for (uint32_t victim : {6u, 12u, 1u, 3u}) {
    Depart(&store, {EntityKind::kObject, victim});
    EXPECT_EQ(store.HomeOf({EntityKind::kObject, victim}), kInvalidClusterId);
    const MovingCluster* cluster = store.GetCluster(0);
    ASSERT_NE(cluster, nullptr);
    for (size_t i = 0; i < cluster->size(); ++i) {
      EXPECT_EQ(SlotIndex(store, cluster->members()[i].Ref()), i)
          << "slot names the wrong index for id " << cluster->members()[i].id;
    }
    EXPECT_TRUE(store.ValidateConsistency().ok());
  }
  // An update through the slot lands on the member that was moved.
  MovingCluster* cluster = store.GetCluster(0);
  const size_t index = SlotIndex(store, {EntityKind::kObject, 11});
  ASSERT_TRUE(cluster->UpdateObjectMember(index, Obj(11, {99, 0})).ok());
  EXPECT_TRUE(ApproxEqual(cluster->MemberPosition(cluster->members()[index]),
                          Point{99, 0}, 1e-9));
}

TEST(ClusterStoreTest, ValidateMemberSlotsNamesTheBadMember) {
  ClusterStore store;
  MovingCluster c = MovingCluster::FromObject(0, Obj(1, {0, 0}));
  c.AbsorbObject(Obj(2, {1, 0}));
  ASSERT_TRUE(store.AddCluster(std::move(c)).ok());
  ASSERT_TRUE(store.AddCluster(MovingCluster::FromObject(1, Obj(3, {5, 0}))).ok());
  // Object 2 sits at index 1; point its slot at index 0.
  ASSERT_TRUE(store.ClearHome({EntityKind::kObject, 2}).ok());
  ASSERT_TRUE(store.SetHome({EntityKind::kObject, 2}, 0, 0).ok());
  Status s = store.ValidateMemberSlots(*store.GetCluster(0));
  EXPECT_TRUE(s.IsInternal());
  EXPECT_NE(s.message().find("object 2 at index 1"), std::string::npos)
      << s.ToString();
  EXPECT_TRUE(store.ValidateTables().ok());  // counts still agree
  EXPECT_TRUE(store.ValidateConsistency().IsInternal());
  // Home at the other cluster instead.
  ASSERT_TRUE(store.ClearHome({EntityKind::kObject, 2}).ok());
  ASSERT_TRUE(store.SetHome({EntityKind::kObject, 2}, 1, 1).ok());
  s = store.ValidateMemberSlots(*store.GetCluster(0));
  EXPECT_NE(s.message().find("homed at cluster 1"), std::string::npos)
      << s.ToString();
  EXPECT_TRUE(store.ValidateMemberSlots(*store.GetCluster(1)).ok());
}

// Differential test: random store operations against a plain map model. The
// id pool includes 0, UINT32_MAX - 1 and ids shared by an object and a query,
// and holds enough entities to grow the slot table several times; a few
// Clear() calls check that the table is reusable.
class ClusterStoreDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ClusterStoreDifferentialTest, MatchesMapModel) {
  Rng rng(GetParam());
  std::vector<EntityRef> pool;
  for (uint32_t id : {0u, 1u, std::numeric_limits<uint32_t>::max() - 1}) {
    pool.push_back({EntityKind::kObject, id});
    pool.push_back({EntityKind::kQuery, id});
  }
  for (uint32_t i = 0; i < 300; ++i) {
    pool.push_back({i % 3 == 0 ? EntityKind::kQuery : EntityKind::kObject,
                    2 + 7919u * i});
  }
  struct Model {
    std::unordered_map<EntityRef, uint64_t, EntityRefHash> attrs;
    std::unordered_map<EntityRef, ClusterId, EntityRefHash> home;
  };
  Model model;
  ClusterStore store;
  auto pick = [&] { return pool[rng.NextBounded(pool.size())]; };
  auto make = [&](ClusterId cid, EntityRef ref) {
    Point p{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
    return ref.kind == EntityKind::kObject
               ? MovingCluster::FromObject(cid, Obj(ref.id, p))
               : MovingCluster::FromQuery(cid, Qry(ref.id, p));
  };
  auto absorb = [&](MovingCluster* c, EntityRef ref) {
    Point p{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
    if (ref.kind == EntityKind::kObject) {
      c->AbsorbObject(Obj(ref.id, p));
    } else {
      c->AbsorbQuery(Qry(ref.id, p));
    }
  };
  size_t max_homed = 0;
  for (int step = 0; step < 6000; ++step) {
    const double op = rng.NextDouble();
    const EntityRef ref = pick();
    const bool homed = model.home.contains(ref);
    if (op < 0.27) {
      const uint64_t attrs = rng.NextU64();
      const ClusterStore::Slot slot = store.UpsertAttrs(ref, attrs);
      EXPECT_EQ(slot, store.FindSlot(ref));
      model.attrs[ref] = attrs;
    } else if (op < 0.47) {
      // Found a cluster; sometimes with a second member, sometimes with the
      // same entity twice (rejected, store unchanged).
      MovingCluster c = make(store.NextClusterId(), ref);
      const EntityRef second = rng.NextDouble() < 0.1 ? ref : pick();
      if (rng.NextDouble() < 0.3) absorb(&c, second);
      const bool ok =
          !homed && (c.size() == 1 ||
                     (second != ref && !model.home.contains(second)));
      const ClusterId cid = c.cid();
      std::vector<EntityRef> refs;
      for (const ClusterMember& m : c.members()) refs.push_back(m.Ref());
      Status s = store.AddCluster(std::move(c));
      ASSERT_EQ(s.ok(), ok) << s.ToString();
      if (!ok) {
        EXPECT_TRUE(s.IsAlreadyExists()) << s.ToString();
      } else {
        for (const EntityRef& r : refs) model.home[r] = cid;
      }
    } else if (op < 0.72) {
      // Absorb into a random live cluster (the clusterer's join path).
      if (homed || store.ClusterCount() == 0) continue;
      const std::vector<ClusterId> cids = store.SortedClusterIds();
      const ClusterId cid = cids[rng.NextBounded(cids.size())];
      MovingCluster* c = store.GetCluster(cid);
      absorb(c, ref);
      const uint32_t index = static_cast<uint32_t>(c->size() - 1);
      if (const ClusterStore::Slot slot = store.FindSlot(ref);
          slot != ClusterStore::kNoSlot && rng.NextDouble() < 0.5) {
        store.HomeSlot(slot, store.FindCluster(cid), index);
      } else {
        ASSERT_TRUE(store.SetHome(ref, cid, index).ok());
      }
      model.home[ref] = cid;
    } else if (op < 0.9) {
      if (!homed) {
        EXPECT_TRUE(store.ClearHome(ref).IsNotFound());
        continue;
      }
      Depart(&store, ref);
      model.home.erase(ref);
    } else if (op < 0.998) {
      if (!homed) continue;
      const ClusterId cid = model.home.at(ref);
      ASSERT_TRUE(store.RemoveCluster(cid).ok());
      std::erase_if(model.home, [&](const auto& e) { return e.second == cid; });
    } else {
      store.Clear();
      model = Model{};
    }
    max_homed = std::max(max_homed, model.home.size());

    // The store answers exactly as the model does.
    ASSERT_TRUE(store.ValidateConsistency().ok()) << "step " << step;
    ASSERT_EQ(store.HomeCount(), model.home.size());
    std::map<uint32_t, uint64_t> want[2];
    for (const auto& [r, a] : model.attrs) {
      want[static_cast<size_t>(r.kind)][r.id] = a;
    }
    ASSERT_EQ(store.ObjectsTableSize(), want[0].size());
    ASSERT_EQ(store.QueriesTableSize(), want[1].size());
    for (EntityKind kind : {EntityKind::kObject, EntityKind::kQuery}) {
      const std::vector<std::pair<uint32_t, uint64_t>> expected(
          want[static_cast<size_t>(kind)].begin(),
          want[static_cast<size_t>(kind)].end());
      ASSERT_EQ(store.SortedAttrRows(kind), expected);
    }
    if (step % 50 != 0) continue;
    for (const EntityRef& r : pool) {
      auto h = model.home.find(r);
      EXPECT_EQ(store.HomeOf(r),
                h == model.home.end() ? kInvalidClusterId : h->second);
      auto a = model.attrs.find(r);
      Result<uint64_t> got = r.kind == EntityKind::kObject
                                 ? store.ObjectAttrs(r.id)
                                 : store.QueryAttrs(r.id);
      if (a == model.attrs.end()) {
        EXPECT_TRUE(got.status().IsNotFound());
      } else {
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, a->second);
      }
    }
  }
  // Enough live entities to have grown the table past 16 and 32 buckets.
  EXPECT_GT(max_homed, 32u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterStoreDifferentialTest,
                         ::testing::Values(1, 2, 3, 4));

// Differential test of the cluster slots and their cid→slot table against a
// map model: random adds (cids 0, UINT32_MAX - 1, random and descending),
// removes, lookups and home edits, with a few Clear() calls and reuse.
class ClusterSlotDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ClusterSlotDifferentialTest, MatchesMapModel) {
  Rng rng(GetParam());
  constexpr uint32_t kEntities = 120;
  std::map<ClusterId, EntityRef> model;  // single-member clusters
  std::map<uint32_t, ClusterId> home;    // object id -> cid
  ClusterStore store;
  ClusterId descending = 3000000000u;
  size_t max_live = 0;
  auto pick_cid = [&]() -> ClusterId {
    const double r = rng.NextDouble();
    if (r < 0.05) return 0;
    if (r < 0.1) return std::numeric_limits<uint32_t>::max() - 1;
    if (r < 0.5) return descending -= 1 + rng.NextBounded(1000);
    if (r < 0.7 && !model.empty()) {  // a live cid: a duplicate add
      auto it = model.begin();
      std::advance(it, rng.NextBounded(model.size()));
      return it->first;
    }
    return static_cast<ClusterId>(rng.NextBounded(4000000000u));
  };
  for (int step = 0; step < 8000; ++step) {
    const double op = rng.NextDouble();
    const uint32_t oid = static_cast<uint32_t>(rng.NextBounded(kEntities));
    const ClusterId cid = pick_cid();
    if (op < 0.45) {
      Status s = store.AddCluster(
          MovingCluster::FromObject(cid, Obj(oid, {1.0 * oid, 0})));
      const bool ok = !model.contains(cid) && !home.contains(oid);
      ASSERT_EQ(s.ok(), ok) << s.ToString();
      if (ok) {
        model[cid] = EntityRef{EntityKind::kObject, oid};
        home[oid] = cid;
      } else {
        EXPECT_TRUE(s.IsAlreadyExists()) << s.ToString();
      }
    } else if (op < 0.8) {
      // Remove a live cluster, or try an absent cid.
      ClusterId victim = cid;
      if (rng.NextDouble() < 0.8 && !model.empty()) {
        auto it = model.begin();
        std::advance(it, rng.NextBounded(model.size()));
        victim = it->first;
      }
      Status s = store.RemoveCluster(victim);
      auto it = model.find(victim);
      ASSERT_EQ(s.ok(), it != model.end()) << s.ToString();
      if (it != model.end()) {
        home.erase(it->second.id);
        model.erase(it);
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else if (op < 0.995) {
      // Clear a member's home and put it back, or probe an unhomed entity.
      const EntityRef ref{EntityKind::kObject, oid};
      auto h = home.find(oid);
      if (h == home.end()) {
        EXPECT_TRUE(store.ClearHome(ref).IsNotFound());
        if (!model.contains(cid)) {
          EXPECT_TRUE(store.SetHome(ref, cid, 0).IsNotFound());
        }
        continue;
      }
      ASSERT_TRUE(store.ClearHome(ref).ok());
      EXPECT_EQ(store.HomeOf(ref), kInvalidClusterId);
      EXPECT_TRUE(store.SetHome(ref, h->second, 0).ok());
      EXPECT_TRUE(store.SetHome(ref, h->second, 0).IsAlreadyExists());
    } else {
      store.Clear();
      model.clear();
      home.clear();
    }
    max_live = std::max(max_live, model.size());

    ASSERT_TRUE(store.ValidateConsistency().ok())
        << "step " << step << ": " << store.ValidateConsistency().ToString();
    ASSERT_EQ(store.ClusterCount(), model.size());
    std::vector<ClusterId> cids;
    for (const auto& [c, ref] : model) cids.push_back(c);
    ASSERT_EQ(store.SortedClusterIds(), cids);
    // A store never holds more slots than it ever held clusters at once.
    ASSERT_LE(store.ClusterSlotCount(), max_live);
    const MovingCluster* got = store.GetCluster(cid);
    auto want = model.find(cid);
    ASSERT_EQ(got != nullptr, want != model.end()) << "cid " << cid;
    if (got != nullptr) {
      EXPECT_EQ(got->cid(), cid);
      EXPECT_EQ(got->members()[0].Ref(), want->second);
    }
    for (uint32_t id = oid; id < kEntities; id += 17) {
      auto h = home.find(id);
      EXPECT_EQ(store.HomeOf({EntityKind::kObject, id}),
                h == home.end() ? kInvalidClusterId : h->second);
    }
  }
  // Enough live clusters to have grown the cid table past 16 buckets.
  EXPECT_GT(max_live, 16u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterSlotDifferentialTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(ClusterStoreTest, ChurnLeavesMemoryBounded) {
  // A million clusters come and go with at most 16 alive at once: slots are
  // reused and the cid table drops erased cids, so the estimate stops
  // growing once the first 16 are stored.
  constexpr uint32_t kLive = 16;
  ClusterStore store;
  size_t settled = 0;
  for (uint32_t i = 0; i < 1000000; ++i) {
    if (i >= kLive) {
      ASSERT_TRUE(store.RemoveCluster(i - kLive).ok());
    }
    const ClusterId cid = store.NextClusterId();
    ASSERT_EQ(cid, i);
    ASSERT_TRUE(store
                    .AddCluster(MovingCluster::FromObject(
                        cid, Obj(i % kLive, {1.0 * (i % kLive), 0})))
                    .ok());
    if (i == 2 * kLive) settled = store.EstimateMemoryUsage();
  }
  EXPECT_EQ(store.ClusterCount(), kLive);
  EXPECT_EQ(store.ClusterSlotCount(), kLive);
  EXPECT_EQ(store.EstimateMemoryUsage(), settled);
  EXPECT_TRUE(store.ValidateConsistency().ok());
}

TEST(ClusterStoreTest, EstimateCountsClusterInlineBytesOnce) {
  // Each stored cluster pays its inline bytes once (its slot) plus its
  // member record; counting sizeof(MovingCluster) twice would exceed the
  // upper bound.
  constexpr size_t kClusters = 1000;
  ClusterStore store;
  for (uint32_t i = 0; i < kClusters; ++i) {
    ASSERT_TRUE(store
                    .AddCluster(MovingCluster::FromObject(
                        store.NextClusterId(), Obj(i, {1.0 * i, 0})))
                    .ok());
  }
  const size_t bytes = store.EstimateMemoryUsage();
  EXPECT_GE(bytes, kClusters * (sizeof(MovingCluster) + sizeof(ClusterMember)));
  EXPECT_LT(bytes,
            kClusters * (2 * sizeof(MovingCluster) + sizeof(ClusterMember)));
}

}  // namespace
}  // namespace scuba
