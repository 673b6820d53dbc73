#include "cluster/cluster_store.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/memory_usage.h"

namespace scuba {

namespace {

constexpr size_t kMinBuckets = 16;

uint32_t Tag(ClusterStore::Slot slot, EntityKind kind) {
  return ((slot + 1) << 1) | static_cast<uint32_t>(kind);
}

std::string RefName(EntityRef ref) {
  return std::string(ref.kind == EntityKind::kObject ? "object " : "query ") +
         std::to_string(ref.id);
}

}  // namespace

size_t ClusterStore::Probe(EntityRef ref) const {
  const size_t mask = buckets_.size() - 1;
  size_t i = HomeBucket(ref);
  const uint32_t kind = static_cast<uint32_t>(ref.kind);
  for (;;) {
    const Bucket& b = buckets_[i];
    if (b.tag == 0 || (b.id == ref.id && (b.tag & 1u) == kind)) return i;
    i = (i + 1) & mask;
  }
}

ClusterStore::Slot ClusterStore::FindSlot(EntityRef ref) const {
  if (buckets_.empty()) return kNoSlot;
  const Bucket& b = buckets_[Probe(ref)];
  return b.tag == 0 ? kNoSlot : (b.tag >> 1) - 1;
}

void ClusterStore::Grow() {
  const size_t capacity = std::max(kMinBuckets, 2 * buckets_.size());
  // Tags keep slot + 1 in 31 bits.
  SCUBA_CHECK_MSG(capacity / 2 < (size_t{1} << 31), "entity slot table full");
  buckets_.assign(capacity, Bucket{});
  rows_.reserve(capacity / 2);
  for (Slot s = 0; s < rows_.size(); ++s) {
    const SlotRow& row = rows_[s];
    buckets_[Probe(row.Ref())] = Bucket{row.id, Tag(s, row.kind)};
  }
}

ClusterStore::Slot ClusterStore::InternSlot(EntityRef ref) {
  if (2 * (rows_.size() + 1) > buckets_.size()) Grow();
  Bucket& b = buckets_[Probe(ref)];
  if (b.tag != 0) return (b.tag >> 1) - 1;
  const Slot slot = static_cast<Slot>(rows_.size());
  b = Bucket{ref.id, Tag(slot, ref.kind)};
  SlotRow row;
  row.id = ref.id;
  row.kind = ref.kind;
  rows_.push_back(row);
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

void ClusterStore::HomeSlot(Slot slot, ClusterId cid, uint32_t member_index) {
  SlotRow& row = rows_[slot];
  row.home = cid;
  row.member_index = member_index;
}

void ClusterStore::RepointMember(EntityRef ref, uint32_t member_index) {
  const Slot slot = FindSlot(ref);
  SCUBA_CHECK_MSG(slot != kNoSlot, "moved member has no entity slot");
  rows_[slot].member_index = member_index;
}

Status ClusterStore::AddCluster(MovingCluster cluster) {
  const ClusterId cid = cluster.cid();
  if (clusters_.contains(cid)) {
    return Status::AlreadyExists("cluster " + std::to_string(cid) +
                                 " already stored");
  }
  const std::vector<ClusterMember>& members = cluster.members();
  for (size_t i = 0; i < members.size(); ++i) {
    const Slot slot = InternSlot(members[i].Ref());
    if (rows_[slot].home == kInvalidClusterId) {
      HomeSlot(slot, cid, static_cast<uint32_t>(i));
      continue;
    }
    // Already homed elsewhere, or homed by an earlier member of this very
    // cluster (a duplicate): undo this call's homes. Slots it appended stay,
    // unhomed and attr-less, which no query distinguishes from absent.
    const bool duplicate = rows_[slot].home == cid;
    for (size_t j = 0; j < i; ++j) {
      const Slot undo = FindSlot(members[j].Ref());
      if (rows_[undo].home == cid) UnhomeSlot(undo);
    }
    return Status::AlreadyExists(
        RefName(members[i].Ref()) +
        (duplicate ? " is listed twice in cluster " + std::to_string(cid)
                   : " already belongs to another cluster"));
  }
  clusters_.emplace(cid, std::move(cluster));
  return Status::OK();
}

MovingCluster* ClusterStore::GetCluster(ClusterId cid) {
  auto it = clusters_.find(cid);
  return it == clusters_.end() ? nullptr : &it->second;
}

const MovingCluster* ClusterStore::GetCluster(ClusterId cid) const {
  auto it = clusters_.find(cid);
  return it == clusters_.end() ? nullptr : &it->second;
}

Status ClusterStore::RemoveCluster(ClusterId cid) {
  auto it = clusters_.find(cid);
  if (it == clusters_.end()) {
    return Status::NotFound("cluster " + std::to_string(cid) + " not stored");
  }
  for (const ClusterMember& m : it->second.members()) {
    const Slot slot = FindSlot(m.Ref());
    if (slot != kNoSlot && rows_[slot].home == cid) UnhomeSlot(slot);
  }
  clusters_.erase(it);
  return Status::OK();
}

ClusterId ClusterStore::HomeOf(EntityRef ref) const {
  const Slot slot = FindSlot(ref);
  return slot == kNoSlot ? kInvalidClusterId : rows_[slot].home;
}

Status ClusterStore::SetHome(EntityRef ref, ClusterId cid,
                             uint32_t member_index) {
  if (!clusters_.contains(cid)) {
    return Status::NotFound("cluster " + std::to_string(cid) + " not stored");
  }
  const Slot slot = InternSlot(ref);
  if (rows_[slot].home != kInvalidClusterId) {
    return Status::AlreadyExists("entity already has a home cluster");
  }
  HomeSlot(slot, cid, member_index);
  return Status::OK();
}

Status ClusterStore::ClearHome(EntityRef ref) {
  const Slot slot = FindSlot(ref);
  if (slot == kNoSlot || rows_[slot].home == kInvalidClusterId) {
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
      std::count_if(rows_.begin(), rows_.end(), [](const SlotRow& row) {
        return row.home != kInvalidClusterId;
      }));
}

std::vector<ClusterId> ClusterStore::SortedClusterIds() const {
  std::vector<ClusterId> cids;
  cids.reserve(clusters_.size());
  for (const auto& [cid, cluster] : clusters_) {
    (void)cluster;
    cids.push_back(cid);
  }
  std::sort(cids.begin(), cids.end());
  return cids;
}

void ClusterStore::Clear() {
  clusters_.clear();
  buckets_ = {};
  rows_ = {};
  attr_rows_[0] = attr_rows_[1] = 0;
}

Status ClusterStore::ValidateHomeTotals() const {
  size_t member_total = 0;
  for (const auto& [cid, cluster] : clusters_) {
    if (cluster.cid() != cid) {
      return Status::Internal("cluster stored under wrong id");
    }
    if (cluster.size() == 0) {
      return Status::Internal("empty cluster " + std::to_string(cid) +
                              " should have been dissolved");
    }
    member_total += cluster.size();
  }
  const size_t homed = HomeCount();
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
    if (row.home == kInvalidClusterId) return fail(" has no home");
    if (row.home != cluster.cid()) {
      return fail("'s slot is homed at cluster " + std::to_string(row.home));
    }
    if (row.member_index != i) {
      return fail("'s slot names index " + std::to_string(row.member_index));
    }
  }
  return Status::OK();
}

Status ClusterStore::ValidateConsistency() const {
  for (const auto& [cid, cluster] : clusters_) {
    if (Status s = ValidateMemberSlots(cluster); !s.ok()) {
      return Status::Internal("cluster " + std::to_string(cid) + ": " +
                              s.message());
    }
  }
  return ValidateHomeTotals();
}

size_t ClusterStore::EstimateMemoryUsage() const {
  size_t bytes = UnorderedMapMemoryUsage(clusters_) +
                 VectorMemoryUsage(buckets_) + VectorMemoryUsage(rows_);
  for (const auto& [cid, cluster] : clusters_) {
    (void)cid;
    bytes += cluster.EstimateMemoryUsage();
  }
  return bytes;
}

}  // namespace scuba
