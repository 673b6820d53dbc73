// MovingCluster: a circular moving region abstracting co-travelling moving
// objects and queries (paper §3.1).
//
// State follows the paper's (m.cid, m.loc_t, m.n, m.oids, m.qids, m.aveSpeed,
// m.cnLoc, m.r, m.expTime) tuple. Member positions are stored relative to the
// cluster as a Cartesian offset from a pole; a per-cluster *translation
// vector* accumulates the centroid relocations applied between periodic
// executions, so member absolutes are reconstructed only when a join-within
// needs them:
//
//     absolute(member) = (member.anchor + translation) + member.offset
//
// where the pole member.anchor + translation was the centroid when the
// member's position was last refreshed (anchor = centroid_at_refresh -
// translation_at_refresh) and offset = reported position - that centroid. A
// member refreshed this tick reconstructs exactly; a stale member implicitly
// travels with the cluster — precisely the paper's approximation.
//
// The paper (§3.1) writes the relative position in polar form about the
// centroid. The offset is the same relative position in Cartesian form: the
// same two doubles and the same travel-with-the-cluster model, but no
// atan2/sqrt to store it and no cos/sin to read it back on every absorb,
// refresh, tighten, shed and join export.
//
// Load shedding (§5): each cluster owns at most one *nucleus*, a disk of
// radius Theta_N anchored at the centroid, into which member positions are
// shed. A shed member's position degrades to "somewhere in the nucleus": it
// reconstructs at the nucleus center and carries the nucleus radius as its
// uncertainty. All shed members of a cluster share the nucleus, which is what
// lets the join evaluate one predicate per (query, nucleus) instead of one
// per shed member. The nucleus re-anchors to the centroid during post-join
// maintenance so it travels with the cluster.
//
// Member operations take the member's index in members(); the ClusterStore's
// entity slot remembers each homed entity's index, so the ingest path reaches
// a member without any per-cluster lookup structure. RemoveMember swap-
// removes: the tail member moves into the hole, and the caller re-points that
// member's slot.

#ifndef SCUBA_CLUSTER_MOVING_CLUSTER_H_
#define SCUBA_CLUSTER_MOVING_CLUSTER_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "gen/update.h"
#include "geometry/circle.h"
#include "geometry/point.h"

namespace scuba {

struct PersistAccess;  // snapshot serialization back door (src/persist)

/// One object or query inside a moving cluster.
struct ClusterMember {
  EntityKind kind = EntityKind::kObject;
  uint32_t id = 0;
  Vec2 offset;             ///< Position minus the pole (zero when shed).
  Point anchor;            ///< Pole minus the translation at refresh time.
  double speed = 0.0;
  uint64_t attrs = kAttrNone;
  double range_width = 0.0;      ///< Queries only.
  double range_height = 0.0;     ///< Queries only.
  uint64_t required_attrs = 0;   ///< Queries only: attribute predicate.
  Timestamp update_time = 0;
  bool shed = false;          ///< True when the position was load-shed.
  double approx_radius = 0.0; ///< Nucleus radius approximating a shed member.

  EntityRef Ref() const { return EntityRef{kind, id}; }
};

/// Structure-of-arrays destination spans for ExportExactMembers. Each object
/// pointer must address at least the exact-object count and each query
/// pointer the exact-query count reported by CountExactMembers; the caller
/// (the join executor's slab arena) owns the storage. Query positions and
/// extents are written raw — the join layer derives range rectangles.
struct MemberExportSpans {
  double* obj_xs = nullptr;
  double* obj_ys = nullptr;
  uint32_t* obj_ids = nullptr;
  uint64_t* obj_attrs = nullptr;
  double* qry_xs = nullptr;
  double* qry_ys = nullptr;
  double* qry_widths = nullptr;
  double* qry_heights = nullptr;
  uint32_t* qry_ids = nullptr;
  uint64_t* qry_required = nullptr;
};

/// A moving cluster of objects and queries. Invariants:
///  * centroid() is the mean of the members' reconstructed positions;
///  * radius() >= distance(centroid, any member) — the radius may
///    overestimate (conservative for the join-between filter) until
///    RecomputeTightBounds() runs;
///  * every member shares the cluster's destination connection node.
class MovingCluster {
 public:
  /// Starts a single-member cluster from a first update (§3.2 steps 2/5:
  /// centroid at the entity, radius 0).
  static MovingCluster FromObject(ClusterId cid, const LocationUpdate& u);
  static MovingCluster FromQuery(ClusterId cid, const QueryUpdate& u);

  ClusterId cid() const { return cid_; }
  Point centroid() const { return centroid_; }
  double radius() const { return radius_; }
  Circle Bounds() const { return Circle{centroid_, radius_}; }

  /// Largest reach of any query member beyond its position: half-diagonal of
  /// its range rectangle, plus its nucleus radius when shed. Grows on absorb/
  /// update; tightened by RecomputeTightBounds.
  double query_reach() const { return query_reach_; }

  /// Bounds inflated by query_reach(): a disk guaranteed to cover every
  /// member position *and* every member query's monitored region. Using this
  /// in the join-between filter keeps the two-step join lossless even when a
  /// query rectangle pokes out of the member circle (the paper's pure-circle
  /// test can miss such matches; see DESIGN.md deviation 4).
  Circle JoinBounds() const { return Circle{centroid_, radius_ + query_reach_}; }
  double average_speed() const {
    return members_.empty() ? 0.0 : speed_sum_ / static_cast<double>(members_.size());
  }
  NodeId dest_node() const { return dest_node_; }
  Point dest_position() const { return dest_position_; }
  size_t size() const { return members_.size(); }
  size_t object_count() const { return object_count_; }
  size_t query_count() const { return query_count_; }
  bool HasMixedKinds() const { return object_count_ > 0 && query_count_ > 0; }
  const std::vector<ClusterMember>& members() const { return members_; }
  Vec2 translation() const { return translation_; }

  /// The three §3.2 step-3 admission tests: same destination node, distance to
  /// the centroid within theta_d, speed within theta_s of the average.
  bool SatisfiesJoinConditions(Point position, double speed, NodeId dest,
                               double theta_d, double theta_s) const;

  /// Absorbs a new member (§3.2 step 4): records its relative position,
  /// re-averages the centroid and speed, and grows the radius as needed.
  void AbsorbObject(const LocationUpdate& u);
  void AbsorbQuery(const QueryUpdate& u);

  /// Refreshes members()[index] from a new update. NotFound unless that
  /// member is the update's entity.
  Status UpdateObjectMember(size_t index, const LocationUpdate& u);
  Status UpdateQueryMember(size_t index, const QueryUpdate& u);

  /// Removes members()[index] (it re-clusters elsewhere) by moving the tail
  /// member into the hole. NotFound unless that member is `ref`.
  Status RemoveMember(size_t index, EntityRef ref);

  /// Reconstructed absolute position of a member: its pole (anchor plus
  /// the cluster's translation) plus its offset.
  Point MemberPosition(const ClusterMember& m) const {
    return (m.anchor + translation_) + m.offset;
  }

  /// Looks up a member by reference (a linear scan); nullptr if absent.
  const ClusterMember* FindMember(EntityRef ref) const;

  /// Tallies the exact (non-shed) members by kind without reconstructing
  /// positions — the sizing pass for SoA export.
  void CountExactMembers(size_t* exact_objects, size_t* exact_queries) const;

  /// Writes every exact (non-shed) member into `out` as SoA columns, in
  /// members() order (objects and queries each keep their relative order),
  /// reconstructing absolute positions exactly as MemberPosition does.
  /// Returns {objects written, queries written} — the CountExactMembers
  /// tallies. Shed members are skipped; the join reads those through the
  /// nucleus.
  std::pair<size_t, size_t> ExportExactMembers(
      const MemberExportSpans& out) const;

  /// Cluster velocity: average speed towards the destination node.
  Vec2 Velocity() const;

  /// Moves the whole cluster by `delta` (post-join relocation along the
  /// velocity vector); members follow implicitly via the translation vector.
  void Translate(Vec2 delta);

  /// Ticks until the centroid reaches the destination at the average speed,
  /// i.e. the paper's m.expTime given `now` (paper §3.1).
  Timestamp ComputeExpiryTime(Timestamp now) const;

  /// Exact radius/centroid recomputation from member positions (post-join
  /// maintenance; undoes conservative radius growth and removal staleness).
  void RecomputeTightBounds();

  /// Sheds the positions of members within the nucleus (paper §5); the
  /// nucleus is created at the current centroid with `nucleus_radius` if the
  /// cluster has none yet. Returns the number of members shed.
  size_t ShedPositions(double nucleus_radius);

  /// Targeted single-member variant used on the ingest path: sheds
  /// members()[index] iff it currently lies within the (possibly newly
  /// created) nucleus. Returns true when the member was shed.
  bool ShedMemberIfInNucleus(size_t index, double nucleus_radius);

  /// Bookkeeping for lazy ClusterGrid registration: the (padded) circle this
  /// cluster is currently registered under. Owned by the grid-sync logic; a
  /// zero-radius circle at the origin means "never registered".
  const Circle& registered_bounds() const { return registered_bounds_; }
  void set_registered_bounds(const Circle& c) { registered_bounds_ = c; }

  bool has_nucleus() const { return has_nucleus_; }
  double nucleus_radius() const { return nucleus_radius_; }
  /// Current nucleus center (anchor + translation). Meaningful only when
  /// has_nucleus().
  Point NucleusCenter() const { return nucleus_anchor_ + translation_; }

  /// Verifies that the object/query counts match the member tally. Internal
  /// status naming the mismatch; OK otherwise. Audit aid
  /// (ScubaEngine::AuditInvariants; the member <-> slot bijection is the
  /// store's ClusterStore::ValidateMemberSlots).
  Status ValidateMemberCounts() const;

  /// Analytic heap bytes of the member records (the inline bytes are the
  /// holder's to count). Shed members do not pay for position state, their
  /// offset and anchor (the paper's memory saving); maintained members pay
  /// the full member record. The Cartesian offset is the same 16 bytes the
  /// paper's polar (r, theta) would be.
  size_t EstimateMemoryUsage() const;

 private:
  friend struct PersistAccess;  ///< Snapshot serialization (src/persist).
  MovingCluster(ClusterId cid, Point centroid, double speed, NodeId dest_node,
                Point dest_position);

  /// Shared absorb path; `m.offset`/`m.anchor` set from `position`.
  void AbsorbCommon(ClusterMember m, Point position);

  /// Shared member-refresh path.
  Status UpdateCommon(size_t index, EntityRef ref, Point position, double speed,
                      uint64_t attrs, Timestamp time, double range_w,
                      double range_h, uint64_t required_attrs);

  /// Re-derives centroid from sum_ and conservatively grows the radius to
  /// cover the centroid shift.
  void SetCentroid(Point c);

  /// query_reach contribution of one member.
  static double MemberReach(const ClusterMember& m);

  /// Creates the nucleus at the current centroid if absent; grows its radius
  /// if the shedder tightened eta.
  void EnsureNucleus(double nucleus_radius);

  /// Sheds one member (by iterator index) into the nucleus: adjusts the
  /// position sum, re-anchors it and marks it shed. The caller re-derives the
  /// centroid afterwards.
  void ShedMemberAt(size_t index, Point nucleus_center);

  ClusterId cid_ = kInvalidClusterId;
  Point centroid_;
  double radius_ = 0.0;
  double query_reach_ = 0.0;
  Vec2 translation_;          ///< Cumulative Translate() displacement.
  Point position_sum_;        ///< Sum of member reconstructed positions.
  double speed_sum_ = 0.0;
  NodeId dest_node_ = kInvalidNodeId;
  Point dest_position_;
  size_t object_count_ = 0;
  size_t query_count_ = 0;
  bool has_nucleus_ = false;
  Point nucleus_anchor_;        ///< Nucleus center minus translation.
  double nucleus_radius_ = 0.0;
  Circle registered_bounds_;    ///< See registered_bounds().
  std::vector<ClusterMember> members_;
};

}  // namespace scuba

#endif  // SCUBA_CLUSTER_MOVING_CLUSTER_H_
