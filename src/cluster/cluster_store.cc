#include "cluster/cluster_store.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/memory_usage.h"

namespace scuba {

namespace {

constexpr size_t kMinBuckets = 16;

std::string RefName(EntityRef ref) {
  return std::string(ref.kind == EntityKind::kObject ? "object " : "query ") +
         std::to_string(ref.id);
}

}  // namespace

size_t ClusterStore::IndexTable::Probe(uint64_t key) const {
  const size_t mask = buckets_.size() - 1;
  const uint32_t id = static_cast<uint32_t>(key);
  const uint32_t kind = static_cast<uint32_t>(key >> 32);
  size_t i = HomeBucket(key);
  for (;;) {
    const Bucket& b = buckets_[i];
    if (b.tag == 0 || (b.id == id && (b.tag & 1u) == kind)) return i;
    i = (i + 1) & mask;
  }
}

uint32_t ClusterStore::IndexTable::Find(uint64_t key) const {
  if (buckets_.empty()) return kNoSlot;
  const Bucket& b = buckets_[Probe(key)];
  return b.tag == 0 ? kNoSlot : (b.tag >> 1) - 1;
}

uint32_t ClusterStore::IndexTable::FindOrInsert(uint64_t key, uint32_t fresh) {
  if (2 * (size_ + 1) > buckets_.size()) Grow();
  Bucket& b = buckets_[Probe(key)];
  if (b.tag != 0) return (b.tag >> 1) - 1;
  b = Bucket{static_cast<uint32_t>(key),
             ((fresh + 1) << 1) | static_cast<uint32_t>(key >> 32)};
  ++size_;
  return fresh;
}

void ClusterStore::IndexTable::Erase(uint64_t key) {
  if (buckets_.empty()) return;
  const size_t mask = buckets_.size() - 1;
  size_t hole = Probe(key);
  if (buckets_[hole].tag == 0) return;
  --size_;
  // Backward shift: an entry later in the run moves into the hole unless its
  // home bucket lies (cyclically) after the hole, where a probe for it would
  // no longer pass the hole.
  for (size_t i = (hole + 1) & mask; buckets_[i].tag != 0; i = (i + 1) & mask) {
    const size_t home = HomeBucket(buckets_[i].Key());
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      buckets_[hole] = buckets_[i];
      hole = i;
    }
  }
  buckets_[hole] = Bucket{};
}

void ClusterStore::IndexTable::Grow() {
  const size_t capacity = std::max(kMinBuckets, 2 * buckets_.size());
  // Tags keep index + 1 in 31 bits.
  SCUBA_CHECK_MSG(capacity / 2 < (size_t{1} << 31), "slot table full");
  const std::vector<Bucket> old =
      std::exchange(buckets_, std::vector<Bucket>(capacity));
  for (const Bucket& b : old) {
    if (b.tag != 0) buckets_[Probe(b.Key())] = b;
  }
}

ClusterStore::Slot ClusterStore::InternSlot(EntityRef ref) {
  const Slot fresh = static_cast<Slot>(rows_.size());
  const Slot slot = entity_table_.FindOrInsert(Key(ref), fresh);
  if (slot == fresh) {
    SlotRow row;
    row.id = ref.id;
    row.kind = ref.kind;
    rows_.push_back(row);
  }
  return slot;
}

ClusterStore::Slot ClusterStore::UpsertAttrs(EntityRef ref, uint64_t attrs) {
  const Slot slot = InternSlot(ref);
  SlotRow& row = rows_[slot];
  if (!row.has_attrs) {
    row.has_attrs = true;
    ++attr_rows_[static_cast<size_t>(ref.kind)];
  }
  row.attrs = attrs;
  return slot;
}

void ClusterStore::RepointMember(EntityRef ref, uint32_t member_index) {
  const Slot slot = FindSlot(ref);
  SCUBA_CHECK_MSG(slot != kNoSlot, "moved member has no entity slot");
  rows_[slot].member_index = member_index;
}

Status ClusterStore::AddCluster(MovingCluster cluster) {
  const ClusterId cid = cluster.cid();
  if (FindCluster(cid) != kNoSlot) {
    return Status::AlreadyExists("cluster " + std::to_string(cid) +
                                 " already stored");
  }
  // No row names a free slot, so a home equal to `home` below can only come
  // from an earlier member of this very cluster.
  const ClusterSlot home =
      free_slots_.empty() ? ClusterSlotCount() : free_slots_.back();
  const std::vector<ClusterMember>& members = cluster.members();
  for (size_t i = 0; i < members.size(); ++i) {
    const Slot slot = InternSlot(members[i].Ref());
    if (rows_[slot].home == kNoSlot) {
      HomeSlot(slot, home, static_cast<uint32_t>(i));
      continue;
    }
    // Already homed elsewhere, or homed by an earlier member of this very
    // cluster (a duplicate): undo this call's homes. Slots it appended stay,
    // unhomed and attr-less, which no query distinguishes from absent.
    const bool duplicate = rows_[slot].home == home;
    for (size_t j = 0; j < i; ++j) {
      const Slot undo = FindSlot(members[j].Ref());
      if (rows_[undo].home == home) UnhomeSlot(undo);
    }
    return Status::AlreadyExists(
        RefName(members[i].Ref()) +
        (duplicate ? " is listed twice in cluster " + std::to_string(cid)
                   : " already belongs to another cluster"));
  }
  if (home == ClusterSlotCount()) {
    clusters_.push_back(std::make_unique<MovingCluster>(std::move(cluster)));
  } else {
    clusters_[home] = std::make_unique<MovingCluster>(std::move(cluster));
    free_slots_.pop_back();
  }
  cid_table_.FindOrInsert(cid, home);
  // A directly added cid (restores, tests) is never handed out again.
  next_cid_ = std::max(next_cid_, cid + 1);
  return Status::OK();
}

Status ClusterStore::RemoveCluster(ClusterId cid) {
  const ClusterSlot home = FindCluster(cid);
  if (home == kNoSlot) {
    return Status::NotFound("cluster " + std::to_string(cid) + " not stored");
  }
  for (const ClusterMember& m : clusters_[home]->members()) {
    const Slot slot = FindSlot(m.Ref());
    if (slot != kNoSlot && rows_[slot].home == home) UnhomeSlot(slot);
  }
  clusters_[home].reset();
  free_slots_.push_back(home);
  cid_table_.Erase(cid);
  return Status::OK();
}

ClusterId ClusterStore::HomeOf(EntityRef ref) const {
  const Slot slot = FindSlot(ref);
  const ClusterSlot home = slot == kNoSlot ? kNoSlot : rows_[slot].home;
  return home == kNoSlot ? kInvalidClusterId : clusters_[home]->cid();
}

Status ClusterStore::SetHome(EntityRef ref, ClusterId cid,
                             uint32_t member_index) {
  const ClusterSlot home = FindCluster(cid);
  if (home == kNoSlot) {
    return Status::NotFound("cluster " + std::to_string(cid) + " not stored");
  }
  const Slot slot = InternSlot(ref);
  if (rows_[slot].home != kNoSlot) {
    return Status::AlreadyExists("entity already has a home cluster");
  }
  HomeSlot(slot, home, member_index);
  return Status::OK();
}

Status ClusterStore::ClearHome(EntityRef ref) {
  const Slot slot = FindSlot(ref);
  if (slot == kNoSlot || rows_[slot].home == kNoSlot) {
    return Status::NotFound("entity has no home cluster");
  }
  UnhomeSlot(slot);
  return Status::OK();
}

Result<uint64_t> ClusterStore::ObjectAttrs(ObjectId oid) const {
  const Slot slot = FindSlot(EntityRef{EntityKind::kObject, oid});
  if (slot == kNoSlot || !rows_[slot].has_attrs) {
    return Status::NotFound("object " + std::to_string(oid) +
                            " not in ObjectsTable");
  }
  return rows_[slot].attrs;
}

Result<uint64_t> ClusterStore::QueryAttrs(QueryId qid) const {
  const Slot slot = FindSlot(EntityRef{EntityKind::kQuery, qid});
  if (slot == kNoSlot || !rows_[slot].has_attrs) {
    return Status::NotFound("query " + std::to_string(qid) +
                            " not in QueriesTable");
  }
  return rows_[slot].attrs;
}

std::vector<std::pair<uint32_t, uint64_t>> ClusterStore::SortedAttrRows(
    EntityKind kind) const {
  std::vector<std::pair<uint32_t, uint64_t>> rows;
  rows.reserve(attr_rows_[static_cast<size_t>(kind)]);
  for (const SlotRow& row : rows_) {
    if (row.has_attrs && row.kind == kind) rows.emplace_back(row.id, row.attrs);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

size_t ClusterStore::HomeCount() const {
  return static_cast<size_t>(
      std::count_if(rows_.begin(), rows_.end(),
                    [](const SlotRow& row) { return row.home != kNoSlot; }));
}

std::vector<ClusterStore::ClusterSlot> ClusterStore::SortedClusterSlots()
    const {
  std::vector<ClusterSlot> slots;
  slots.reserve(ClusterCount());
  for (ClusterSlot s = 0; s < ClusterSlotCount(); ++s) {
    if (clusters_[s]) slots.push_back(s);
  }
  std::sort(slots.begin(), slots.end(), [&](ClusterSlot a, ClusterSlot b) {
    return clusters_[a]->cid() < clusters_[b]->cid();
  });
  return slots;
}

std::vector<ClusterId> ClusterStore::SortedClusterIds() const {
  std::vector<ClusterId> cids;
  for (ClusterSlot s : SortedClusterSlots()) cids.push_back(clusters_[s]->cid());
  return cids;
}

void ClusterStore::Clear() {
  const ClusterId next_cid = next_cid_;  // cids are never reused
  *this = ClusterStore();
  next_cid_ = next_cid;
}

Status ClusterStore::ValidateTables() const {
  size_t live = 0;
  size_t member_total = 0;
  for (ClusterSlot s = 0; s < ClusterSlotCount(); ++s) {
    if (!clusters_[s]) continue;
    ++live;
    const MovingCluster& cluster = *clusters_[s];
    const std::string name = "cluster " + std::to_string(cluster.cid());
    if (FindCluster(cluster.cid()) != s) {
      return Status::Internal(name + " in slot " + std::to_string(s) +
                              " is not filed under its cid");
    }
    if (cluster.cid() >= next_cid_) {
      return Status::Internal(name + " is not below the next cluster id " +
                              std::to_string(next_cid_));
    }
    if (cluster.size() == 0) {
      return Status::Internal("empty " + name + " should have been dissolved");
    }
    member_total += cluster.size();
  }
  const bool listed_free_empty =
      std::none_of(free_slots_.begin(), free_slots_.end(),
                   [&](ClusterSlot s) { return clusters_[s] != nullptr; });
  if (cid_table_.size() != live || ClusterCount() != live ||
      !listed_free_empty) {
    return Status::Internal(
        "cid table holds " + std::to_string(cid_table_.size()) +
        " entries and free list " + std::to_string(free_slots_.size()) +
        " slots for " + std::to_string(live) + " clusters in " +
        std::to_string(ClusterSlotCount()) + " slots");
  }
  size_t homed = 0;
  for (const SlotRow& row : rows_) {
    if (row.home == kNoSlot) continue;
    if (row.home >= ClusterSlotCount() || !clusters_[row.home]) {
      return Status::Internal(RefName(row.Ref()) +
                              " is homed at free cluster slot " +
                              std::to_string(row.home));
    }
    ++homed;
  }
  if (homed != member_total) {
    return Status::Internal(std::to_string(homed) + " homed entity slots for " +
                            std::to_string(member_total) + " cluster members");
  }
  return Status::OK();
}

Status ClusterStore::ValidateMemberSlots(const MovingCluster& cluster) const {
  const std::vector<ClusterMember>& members = cluster.members();
  for (size_t i = 0; i < members.size(); ++i) {
    const EntityRef ref = members[i].Ref();
    auto fail = [&](const std::string& what) {
      return Status::Internal("member " + RefName(ref) + " at index " +
                              std::to_string(i) + what);
    };
    const Slot slot = FindSlot(ref);
    if (slot == kNoSlot) return fail(" has no entity slot");
    const SlotRow& row = rows_[slot];
    if (row.home == kNoSlot) return fail(" has no home");
    const MovingCluster* home =
        row.home < ClusterSlotCount() ? ClusterAt(row.home) : nullptr;
    if (home == nullptr) {
      return fail("'s slot is homed at free cluster slot " +
                  std::to_string(row.home));
    }
    if (home != &cluster) {
      return fail("'s slot is homed at cluster " + std::to_string(home->cid()));
    }
    if (row.member_index != i) {
      return fail("'s slot names index " + std::to_string(row.member_index));
    }
  }
  return Status::OK();
}

Status ClusterStore::ValidateConsistency() const {
  for (ClusterSlot s : SortedClusterSlots()) {
    if (Status st = ValidateMemberSlots(*clusters_[s]); !st.ok()) {
      return Status::Internal("cluster " + std::to_string(clusters_[s]->cid()) +
                              ": " + st.message());
    }
  }
  return ValidateTables();
}

size_t ClusterStore::EstimateMemoryUsage() const {
  size_t bytes = VectorMemoryUsage(clusters_) + VectorMemoryUsage(free_slots_) +
                 cid_table_.MemoryUsage() + entity_table_.MemoryUsage() +
                 VectorMemoryUsage(rows_);
  for (const std::unique_ptr<MovingCluster>& cluster : clusters_) {
    if (cluster) bytes += sizeof(MovingCluster) + cluster->EstimateMemoryUsage();
  }
  return bytes;
}

}  // namespace scuba
