// ClusterStore: SCUBA's in-memory tables (paper §4.1, Fig. 5).
//
// Bundles four of the paper's five data structures — ObjectsTable,
// QueriesTable, ClusterHome (entity -> cluster map) and ClusterStorage
// (cid -> MovingCluster) — behind one consistent API. The fifth structure,
// ClusterGrid, is a GridIndex owned by the engine/clusterer.
//
// ClusterStorage is a dense vector of *cluster slots* behind one cid→slot
// table (the Fig. 5 mapping). Cids are monotonic and never reused; a slot
// freed by RemoveCluster holds nothing until an AddCluster reuses it. A slot
// owns its cluster on the heap, so a free slot (or spare vector capacity)
// costs one pointer, not a MovingCluster. The
// other three share one *entity slot table*: each EntityRef maps to a dense
// slot whose row holds the entity's home cluster slot, its index in that
// cluster's members() and its attrs row, so one lookup answers everything
// the ingest path needs and row → cluster → member needs no more hashing.
// Entity slots are append-only (Clear() is the only reset); a row remembers
// whether it has an attrs row, so an entity homed only through
// SetHome/AddCluster is still absent from the attribute tables.
//
// A pointer GetCluster or ClusterAt returned stays valid until its cluster is
// removed (RemoveCluster, Clear): AddCluster moves no stored cluster.
//
// Slot order is not state: a restored store assigns both kinds of slots in a
// different order than the live one did. Every enumeration that reaches
// snapshots, state hashes or audits is sorted by id.
//
// Membership invariant (checked by ValidateConsistency): entity e has
// HomeOf(e) == cid and member index i  <=>  cluster cid's members()[i] is e.

#ifndef SCUBA_CLUSTER_CLUSTER_STORE_H_
#define SCUBA_CLUSTER_CLUSTER_STORE_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
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
  /// Dense handle of a stored cluster; stable while the cluster is stored.
  using ClusterSlot = uint32_t;
  static constexpr Slot kNoSlot = std::numeric_limits<Slot>::max();

  /// Allocates a fresh cluster id (monotonic, never reused).
  ClusterId NextClusterId() { return next_cid_++; }

  /// Registers a cluster and homes all its members (member i at index i).
  /// Fails (AlreadyExists) on a duplicate cid, if any member already has a
  /// home, or if the cluster lists one entity twice; the store is then
  /// unchanged.
  Status AddCluster(MovingCluster cluster);

  /// Looks up a cluster through the cid→slot table; nullptr if absent.
  MovingCluster* GetCluster(ClusterId cid) {
    const ClusterSlot slot = FindCluster(cid);
    return slot == kNoSlot ? nullptr : ClusterAt(slot);
  }
  const MovingCluster* GetCluster(ClusterId cid) const {
    return const_cast<ClusterStore*>(this)->GetCluster(cid);
  }

  /// Drops a cluster, frees its slot and clears its members' homes. NotFound
  /// if absent.
  Status RemoveCluster(ClusterId cid);

  // --- Cluster slots. ---

  /// Slot of cluster `cid`, or kNoSlot.
  ClusterSlot FindCluster(ClusterId cid) const { return cid_table_.Find(cid); }
  /// Every stored cluster's slot is below this; free slots are too.
  ClusterSlot ClusterSlotCount() const {
    return static_cast<ClusterSlot>(clusters_.size());
  }
  /// The cluster in `slot` (< ClusterSlotCount()), or nullptr for a free
  /// slot.
  MovingCluster* ClusterAt(ClusterSlot slot) { return clusters_[slot].get(); }
  const MovingCluster* ClusterAt(ClusterSlot slot) const {
    return clusters_[slot].get();
  }

  // --- Entity slots: the ingest path's one lookup per update. ---

  /// Slot of `ref`, or kNoSlot for an entity the store has never seen.
  Slot FindSlot(EntityRef ref) const { return entity_table_.Find(Key(ref)); }

  /// Upserts `ref`'s attrs row (ObjectsTable / QueriesTable) and returns its
  /// slot, appending one for a new entity.
  Slot UpsertAttrs(EntityRef ref, uint64_t attrs);

  /// Home cluster slot of a slot's entity, or kNoSlot.
  ClusterSlot SlotHome(Slot slot) const { return rows_[slot].home; }
  /// Index of the slot's entity in its home cluster's members(). Meaningful
  /// only while SlotHome(slot) is valid.
  uint32_t SlotMemberIndex(Slot slot) const { return rows_[slot].member_index; }

  /// Homes an unhomed slot at members()[member_index] of the cluster in
  /// `home`.
  void HomeSlot(Slot slot, ClusterSlot home, uint32_t member_index) {
    rows_[slot].home = home;
    rows_[slot].member_index = member_index;
  }
  /// Clears a slot's home.
  void UnhomeSlot(Slot slot) { rows_[slot].home = kNoSlot; }

  /// Prefetch hints for a batch loop that looks ahead of the update it
  /// applies; neither changes any state. PrefetchBucket starts loading the
  /// slot-table bucket `ref` hashes to. PrefetchRow probes the table (its
  /// bucket should be in cache by then) and starts loading the slot row of
  /// an entity already seen, for writing; it does nothing for a new one.
  void PrefetchBucket(EntityRef ref) const {
    entity_table_.PrefetchBucket(Key(ref));
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

  size_t ClusterCount() const { return clusters_.size() - free_slots_.size(); }
  /// Entities with a home (a scan over the slots; test/audit aid).
  size_t HomeCount() const;

  /// Slots of every stored cluster, ascending by cid, read from the slots
  /// and not through the cid→slot table (which an audit checks).
  std::vector<ClusterSlot> SortedClusterSlots() const;
  /// All stored cluster ids, ascending: the enumeration every phase that
  /// shards or mutates the store iterates.
  std::vector<ClusterId> SortedClusterIds() const;

  /// Removes everything.
  void Clear();

  /// Store-wide half: the cid→slot table maps exactly the stored clusters'
  /// cids to their slots, each below the next cid; free slots are empty and
  /// no entity is homed at one; clusters are non-empty, and the homed slots
  /// number exactly their members. Internal naming the first violation.
  Status ValidateTables() const;

  /// Per-cluster half: each member's slot names `cluster` and the member's
  /// index in it. Internal naming the first bad member.
  Status ValidateMemberSlots(const MovingCluster& cluster) const;

  /// Both halves over every cluster; OK or the first violation. Test/debug
  /// aid (the invariant audit runs the halves separately so a damaged slot
  /// is blamed on its cluster).
  Status ValidateConsistency() const;

  /// Analytic heap bytes: both tables, the entity rows and the cluster
  /// slots (each cluster's inline bytes once), plus member storage.
  size_t EstimateMemoryUsage() const;

 private:
  friend struct PersistAccess;      ///< Snapshot serialization (src/persist).
  friend class ClusterStoreTestPeer;  ///< Tests that damage the tables.

  /// Open-addressing map from a key (a 32-bit id plus a kind bit) to a dense
  /// index: linear probing, power-of-two capacity, load <= 1/2 and
  /// backward-shift erase, so its size follows the keys it holds. A bucket
  /// is the id and a tag: 0 when empty, else ((index + 1) << 1) | kind.
  class IndexTable {
   public:
    /// Index of `key`, or kNoSlot.
    uint32_t Find(uint64_t key) const;
    /// Index of `key`, inserting `fresh` for a key not yet held.
    uint32_t FindOrInsert(uint64_t key, uint32_t fresh);
    /// Drops `key`, if held.
    void Erase(uint64_t key);
    void PrefetchBucket(uint64_t key) const {
      if (!buckets_.empty()) __builtin_prefetch(&buckets_[HomeBucket(key)]);
    }
    size_t size() const { return size_; }
    size_t MemoryUsage() const { return buckets_.capacity() * sizeof(Bucket); }

   private:
    struct Bucket {
      uint32_t id = 0;
      uint32_t tag = 0;
      uint64_t Key() const { return (uint64_t{tag & 1u} << 32) | id; }
    };
    /// Bucket `key` hashes to: where its probe sequence starts. Requires a
    /// non-empty table. Fibonacci hashing: the top bits of key * 2^64/phi
    /// spread the dense, sequential ids a workload assigns across the table.
    size_t HomeBucket(uint64_t key) const {
      const int shift = 64 - std::countr_zero(buckets_.size());
      return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
    }
    /// Bucket holding `key`, or the empty bucket where it would go. Requires
    /// a non-empty table.
    size_t Probe(uint64_t key) const;
    /// Doubles the bucket array (at least 16) and re-inserts every key.
    void Grow();

    std::vector<Bucket> buckets_;
    size_t size_ = 0;
  };

  /// One entity's row: its attrs, home cluster slot and member index.
  struct SlotRow {
    uint64_t attrs = 0;
    ClusterSlot home = kNoSlot;
    uint32_t member_index = 0;
    uint32_t id = 0;
    EntityKind kind = EntityKind::kObject;
    bool has_attrs = false;

    EntityRef Ref() const { return EntityRef{kind, id}; }
  };

  static uint64_t Key(EntityRef ref) {
    return (static_cast<uint64_t>(ref.kind) << 32) | ref.id;
  }

  /// Slot of `ref`, appending an unhomed, attr-less row for a new entity.
  Slot InternSlot(EntityRef ref);

  ClusterId next_cid_ = 0;
  std::vector<std::unique_ptr<MovingCluster>> clusters_;
  std::vector<ClusterSlot> free_slots_;  ///< Reused last-freed first.
  IndexTable cid_table_;
  IndexTable entity_table_;
  std::vector<SlotRow> rows_;
  size_t attr_rows_[2] = {0, 0};  ///< Rows with attrs, by EntityKind.
};

}  // namespace scuba

#endif  // SCUBA_CLUSTER_CLUSTER_STORE_H_
