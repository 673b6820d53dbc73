// ClusterStore: SCUBA's in-memory tables (paper §4.1, Fig. 5).
//
// Bundles four of the paper's five data structures — ObjectsTable,
// QueriesTable, ClusterHome (entity -> cluster map) and ClusterStorage
// (cid -> MovingCluster) — behind one consistent API. The fifth structure,
// ClusterGrid, is a GridIndex owned by the engine/clusterer.
//
// The first three share one *entity slot table*: a flat open-addressing
// table (linear probing, power-of-two capacity, load <= 1/2) maps an
// EntityRef to a dense slot, and each slot row holds the entity's home cid,
// its index in the home cluster's members(), and its attrs row. One lookup
// thus answers everything the ingest path needs about an entity. Entities
// never leave the ObjectsTable or QueriesTable, so slots are append-only (no
// tombstones); Clear() is the only reset. A slot remembers whether it has an
// attrs row, so an entity homed only through SetHome/AddCluster is still
// absent from the attribute tables.
//
// Slot order is not state: a restored store assigns slots in a different
// order than the live one did. Every enumeration that reaches snapshots or
// state hashes (SortedAttrRows, SortedClusterIds) is sorted by id.
//
// Membership invariant (checked by ValidateConsistency): entity e has
// HomeOf(e) == cid and member index i  <=>  cluster cid's members()[i] is e.

#ifndef SCUBA_CLUSTER_CLUSTER_STORE_H_
#define SCUBA_CLUSTER_CLUSTER_STORE_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/moving_cluster.h"
#include "common/status.h"
#include "common/types.h"

namespace scuba {

class ClusterStore {
 public:
  /// Dense handle of an entity's row; stable until Clear().
  using Slot = uint32_t;
  static constexpr Slot kNoSlot = std::numeric_limits<Slot>::max();

  /// Allocates a fresh cluster id (monotonic, never reused).
  ClusterId NextClusterId() { return next_cid_++; }

  /// Registers a cluster and homes all its members (member i at index i).
  /// Fails (AlreadyExists) on a duplicate cid, if any member already has a
  /// home, or if the cluster lists one entity twice; the store is then
  /// unchanged.
  Status AddCluster(MovingCluster cluster);

  /// Looks up a cluster; nullptr if absent.
  MovingCluster* GetCluster(ClusterId cid);
  const MovingCluster* GetCluster(ClusterId cid) const;

  /// Drops a cluster and clears its members' homes. NotFound if absent.
  Status RemoveCluster(ClusterId cid);

  // --- Entity slots: the ingest path's one lookup per update. ---

  /// Slot of `ref`, or kNoSlot for an entity the store has never seen.
  Slot FindSlot(EntityRef ref) const;

  /// Upserts `ref`'s attrs row (ObjectsTable / QueriesTable) and returns its
  /// slot, appending one for a new entity.
  Slot UpsertAttrs(EntityRef ref, uint64_t attrs);

  /// Home cluster of a slot's entity, or kInvalidClusterId.
  ClusterId SlotHome(Slot slot) const { return rows_[slot].home; }
  /// Index of the slot's entity in its home cluster's members(). Meaningful
  /// only while SlotHome(slot) is valid.
  uint32_t SlotMemberIndex(Slot slot) const { return rows_[slot].member_index; }

  /// Homes an unhomed slot at members()[member_index] of cluster `cid`.
  void HomeSlot(Slot slot, ClusterId cid, uint32_t member_index);
  /// Clears a slot's home.
  void UnhomeSlot(Slot slot) { rows_[slot].home = kInvalidClusterId; }

  /// Prefetch hints for a batch loop that looks ahead of the update it
  /// applies; neither changes any state. PrefetchBucket starts loading the
  /// slot-table bucket `ref` hashes to. PrefetchRow probes the table (its
  /// bucket should be in cache by then) and starts loading the slot row of
  /// an entity already seen, for writing; it does nothing for a new one.
  void PrefetchBucket(EntityRef ref) const {
    if (!buckets_.empty()) __builtin_prefetch(&buckets_[HomeBucket(ref)]);
  }
  void PrefetchRow(EntityRef ref) const {
    const Slot slot = FindSlot(ref);
    if (slot != kNoSlot) __builtin_prefetch(&rows_[slot], /*rw=*/1);
  }

  /// Departure fix-up: a swap-remove moved the homed member `ref` to
  /// `member_index` of its cluster; re-points its slot (one lookup).
  void RepointMember(EntityRef ref, uint32_t member_index);

  // --- Ref-keyed views of the same table (tests, audits, restores). ---

  /// Current cluster of an entity, or kInvalidClusterId.
  ClusterId HomeOf(EntityRef ref) const;

  /// Homes `ref` at members()[member_index] of `cid` (cluster must exist,
  /// else NotFound). AlreadyExists if the entity already has a home — clear
  /// it first. The index is not checked against the cluster: this is also
  /// the audit tests' way of damaging a slot.
  Status SetHome(EntityRef ref, ClusterId cid, uint32_t member_index);

  /// Clears an entity's home. NotFound if it had none.
  Status ClearHome(EntityRef ref);

  /// ObjectsTable / QueriesTable: descriptive attributes per entity
  /// (written through UpsertAttrs).
  Result<uint64_t> ObjectAttrs(ObjectId oid) const;
  Result<uint64_t> QueryAttrs(QueryId qid) const;
  size_t ObjectsTableSize() const { return attr_rows_[0]; }
  size_t QueriesTableSize() const { return attr_rows_[1]; }

  /// (id, attrs) rows of one kind's attribute table, ascending by id — the
  /// slot-order-free enumeration snapshots and state hashes write.
  std::vector<std::pair<uint32_t, uint64_t>> SortedAttrRows(
      EntityKind kind) const;

  size_t ClusterCount() const { return clusters_.size(); }
  /// Entities with a home (a scan over the slots; test/audit aid).
  size_t HomeCount() const;

  const std::unordered_map<ClusterId, MovingCluster>& clusters() const {
    return clusters_;
  }

  /// All stored cluster ids, ascending. The stable enumeration every phase
  /// that shards or mutates the store iterates, so downstream effects never
  /// depend on hash-map iteration order.
  std::vector<ClusterId> SortedClusterIds() const;

  /// Removes everything.
  void Clear();

  /// Store-wide half of the membership invariant: every cluster is stored
  /// under its own cid and is non-empty, and the homed slots number exactly
  /// the members of all clusters. Internal naming the first violation.
  Status ValidateHomeTotals() const;

  /// Per-cluster half: each member's slot names `cluster` and the member's
  /// index in it. Internal naming the first bad member.
  Status ValidateMemberSlots(const MovingCluster& cluster) const;

  /// Both halves over every cluster; OK or the first violation. Test/debug
  /// aid (the invariant audit runs the halves separately so a damaged slot
  /// is blamed on its cluster).
  Status ValidateConsistency() const;

  /// Analytic heap bytes: cluster map, slot table and slot rows, clusters.
  size_t EstimateMemoryUsage() const;

 private:
  friend struct PersistAccess;  ///< Snapshot serialization (src/persist).

  /// One open-addressing bucket: `tag` is 0 when empty, else
  /// ((slot + 1) << 1) | kind.
  struct Bucket {
    uint32_t id = 0;
    uint32_t tag = 0;
  };

  /// One entity's row: its attrs, home and member index.
  struct SlotRow {
    uint64_t attrs = 0;
    ClusterId home = kInvalidClusterId;
    uint32_t member_index = 0;
    uint32_t id = 0;
    EntityKind kind = EntityKind::kObject;
    bool has_attrs = false;

    EntityRef Ref() const { return EntityRef{kind, id}; }
  };

  /// Bucket `ref` hashes to: where its probe sequence starts. Requires a
  /// non-empty table. Fibonacci hashing: the top bits of key * 2^64/phi
  /// spread the dense, sequential ids a workload assigns across the table.
  size_t HomeBucket(EntityRef ref) const {
    const uint64_t key = (static_cast<uint64_t>(ref.kind) << 32) | ref.id;
    const int shift = 64 - std::countr_zero(buckets_.size());
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
  }

  /// Bucket holding `ref`, or the empty bucket where it would go. Requires
  /// a non-empty table.
  size_t Probe(EntityRef ref) const;

  /// Slot of `ref`, appending an unhomed, attr-less row for a new entity.
  Slot InternSlot(EntityRef ref);

  /// Doubles the bucket array (at least 16) and re-inserts every slot.
  void Grow();

  ClusterId next_cid_ = 0;
  std::unordered_map<ClusterId, MovingCluster> clusters_;
  std::vector<Bucket> buckets_;
  std::vector<SlotRow> rows_;
  size_t attr_rows_[2] = {0, 0};  ///< Rows with attrs, by EntityKind.
};

}  // namespace scuba

#endif  // SCUBA_CLUSTER_CLUSTER_STORE_H_
