#include "cluster/moving_cluster.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>

#include "common/check.h"

namespace scuba {

namespace {

/// Expiry horizon used when a cluster's average speed is ~0 (it would never
/// reach its destination; keep it alive until members move again).
constexpr Timestamp kFarFuture = 1'000'000'000;

}  // namespace

MovingCluster::MovingCluster(ClusterId cid, Point centroid, double speed,
                             NodeId dest_node, Point dest_position)
    : cid_(cid),
      centroid_(centroid),
      position_sum_(centroid),
      speed_sum_(speed),
      dest_node_(dest_node),
      dest_position_(dest_position) {}

MovingCluster MovingCluster::FromObject(ClusterId cid, const LocationUpdate& u) {
  MovingCluster c(cid, u.position, u.speed, u.dest_node, u.dest_position);
  ClusterMember m;
  m.kind = EntityKind::kObject;
  m.id = u.oid;
  m.anchor = u.position;
  m.speed = u.speed;
  m.attrs = u.attrs;
  m.update_time = u.time;
  c.members_.push_back(m);
  c.object_count_ = 1;
  return c;
}

MovingCluster MovingCluster::FromQuery(ClusterId cid, const QueryUpdate& u) {
  MovingCluster c(cid, u.position, u.speed, u.dest_node, u.dest_position);
  ClusterMember m;
  m.kind = EntityKind::kQuery;
  m.id = u.qid;
  m.anchor = u.position;
  m.speed = u.speed;
  m.attrs = u.attrs;
  m.range_width = u.range_width;
  m.range_height = u.range_height;
  m.required_attrs = u.required_attrs;
  m.update_time = u.time;
  c.members_.push_back(m);
  c.query_count_ = 1;
  c.query_reach_ = MemberReach(m);
  return c;
}

bool MovingCluster::SatisfiesJoinConditions(Point position, double speed,
                                            NodeId dest, double theta_d,
                                            double theta_s) const {
  if (dest != dest_node_) return false;
  if (SquaredDistance(position, centroid_) > theta_d * theta_d) return false;
  double dv = speed - average_speed();
  return dv >= -theta_s && dv <= theta_s;
}

double MovingCluster::MemberReach(const ClusterMember& m) {
  if (m.kind != EntityKind::kQuery) return 0.0;
  // A shed query's rectangle is approximated *at the nucleus center* with its
  // original extent (paper semantics: accuracy loss includes false negatives),
  // so shedding does not inflate the reach.
  return std::hypot(m.range_width / 2.0, m.range_height / 2.0);
}

void MovingCluster::SetCentroid(Point c) {
  // Existing members keep their anchors, so moving the centroid towards the
  // new mean can strand them slightly outside the stored radius; grow it by
  // the shift so the join-between filter stays conservative. Post-join
  // maintenance tightens it again (RecomputeTightBounds).
  radius_ += Distance(centroid_, c);
  centroid_ = c;
}

void MovingCluster::AbsorbCommon(ClusterMember m, Point position) {
  const double n_new = static_cast<double>(members_.size() + 1);
  position_sum_.x += position.x;
  position_sum_.y += position.y;
  Point new_centroid{position_sum_.x / n_new, position_sum_.y / n_new};

  // Anchor the member so reconstruction returns `position` exactly.
  m.anchor = new_centroid - translation_;
  m.offset = position - new_centroid;

  speed_sum_ += m.speed;
  if (m.kind == EntityKind::kObject) {
    ++object_count_;
  } else {
    ++query_count_;
  }
  members_.push_back(m);
  query_reach_ = std::max(query_reach_, MemberReach(members_.back()));
  SetCentroid(new_centroid);
  radius_ = std::max(radius_, Distance(new_centroid, position));
}

void MovingCluster::AbsorbObject(const LocationUpdate& u) {
  ClusterMember m;
  m.kind = EntityKind::kObject;
  m.id = u.oid;
  m.speed = u.speed;
  m.attrs = u.attrs;
  m.update_time = u.time;
  AbsorbCommon(m, u.position);
}

void MovingCluster::AbsorbQuery(const QueryUpdate& u) {
  ClusterMember m;
  m.kind = EntityKind::kQuery;
  m.id = u.qid;
  m.speed = u.speed;
  m.attrs = u.attrs;
  m.range_width = u.range_width;
  m.range_height = u.range_height;
  m.required_attrs = u.required_attrs;
  m.update_time = u.time;
  AbsorbCommon(m, u.position);
}

Status MovingCluster::UpdateCommon(size_t index, EntityRef ref,
                                   Point position, double speed,
                                   uint64_t attrs, Timestamp time,
                                   double range_w, double range_h,
                                   uint64_t required_attrs) {
  if (index >= members_.size() || members_[index].Ref() != ref) {
    return Status::NotFound("entity is not member " + std::to_string(index) +
                            " of cluster " + std::to_string(cid_));
  }
  auto it = members_.begin() + static_cast<std::ptrdiff_t>(index);
  Point old_pos = MemberPosition(*it);
  position_sum_.x += position.x - old_pos.x;
  position_sum_.y += position.y - old_pos.y;
  const double n = static_cast<double>(members_.size());
  Point new_centroid{position_sum_.x / n, position_sum_.y / n};

  speed_sum_ += speed - it->speed;
  it->speed = speed;
  it->attrs = attrs;
  it->update_time = time;
  it->range_width = range_w;
  it->range_height = range_h;
  it->required_attrs = required_attrs;
  it->anchor = new_centroid - translation_;
  it->offset = position - new_centroid;
  it->shed = false;
  it->approx_radius = 0.0;
  query_reach_ = std::max(query_reach_, MemberReach(*it));

  SetCentroid(new_centroid);
  radius_ = std::max(radius_, Distance(new_centroid, position));
  return Status::OK();
}

Status MovingCluster::UpdateObjectMember(size_t index,
                                         const LocationUpdate& u) {
  return UpdateCommon(index, EntityRef{EntityKind::kObject, u.oid}, u.position,
                      u.speed, u.attrs, u.time, 0.0, 0.0, 0);
}

Status MovingCluster::UpdateQueryMember(size_t index, const QueryUpdate& u) {
  return UpdateCommon(index, EntityRef{EntityKind::kQuery, u.qid}, u.position,
                      u.speed, u.attrs, u.time, u.range_width, u.range_height,
                      u.required_attrs);
}

Status MovingCluster::RemoveMember(size_t index, EntityRef ref) {
  if (index >= members_.size() || members_[index].Ref() != ref) {
    return Status::NotFound("entity is not member " + std::to_string(index) +
                            " of cluster " + std::to_string(cid_));
  }
  auto it = members_.begin() + static_cast<std::ptrdiff_t>(index);
  Point pos = MemberPosition(*it);
  position_sum_.x -= pos.x;
  position_sum_.y -= pos.y;
  speed_sum_ -= it->speed;
  if (it->kind == EntityKind::kObject) {
    --object_count_;
  } else {
    --query_count_;
  }
  *it = members_.back();
  members_.pop_back();
  if (!members_.empty()) {
    const double n = static_cast<double>(members_.size());
    SetCentroid(Point{position_sum_.x / n, position_sum_.y / n});
  }
  return Status::OK();
}

const ClusterMember* MovingCluster::FindMember(EntityRef ref) const {
  for (const ClusterMember& m : members_) {
    if (m.Ref() == ref) return &m;
  }
  return nullptr;
}

void MovingCluster::CountExactMembers(size_t* exact_objects,
                                      size_t* exact_queries) const {
  size_t objects = 0;
  size_t queries = 0;
  for (const ClusterMember& m : members_) {
    if (m.shed) continue;
    (m.kind == EntityKind::kObject ? objects : queries) += 1;
  }
  *exact_objects = objects;
  *exact_queries = queries;
}

std::pair<size_t, size_t> MovingCluster::ExportExactMembers(
    const MemberExportSpans& out) const {
  size_t objects = 0;
  size_t queries = 0;
  for (const ClusterMember& m : members_) {
    if (m.shed) continue;
    const Point pos = MemberPosition(m);
    if (m.kind == EntityKind::kObject) {
      out.obj_xs[objects] = pos.x;
      out.obj_ys[objects] = pos.y;
      out.obj_ids[objects] = m.id;
      out.obj_attrs[objects] = m.attrs;
      ++objects;
    } else {
      out.qry_xs[queries] = pos.x;
      out.qry_ys[queries] = pos.y;
      out.qry_widths[queries] = m.range_width;
      out.qry_heights[queries] = m.range_height;
      out.qry_ids[queries] = m.id;
      out.qry_required[queries] = m.required_attrs;
      ++queries;
    }
  }
  return {objects, queries};
}

Vec2 MovingCluster::Velocity() const {
  Vec2 dir = (dest_position_ - centroid_).Normalized();
  return dir * average_speed();
}

Timestamp MovingCluster::ComputeExpiryTime(Timestamp now) const {
  double speed = average_speed();
  if (speed <= 1e-9) return now + kFarFuture;
  double ticks = Distance(centroid_, dest_position_) / speed;
  if (ticks >= static_cast<double>(kFarFuture)) return now + kFarFuture;
  return now + static_cast<Timestamp>(ticks) + 1;
}

void MovingCluster::Translate(Vec2 delta) {
  translation_ += delta;
  centroid_ += delta;
  position_sum_.x += delta.x * static_cast<double>(members_.size());
  position_sum_.y += delta.y * static_cast<double>(members_.size());
}

void MovingCluster::RecomputeTightBounds() {
  if (members_.empty()) {
    radius_ = 0.0;
    query_reach_ = 0.0;
    has_nucleus_ = false;
    nucleus_radius_ = 0.0;
    return;
  }
  // Exact members anchor themselves; shed members are defined to sit at the
  // nucleus, which we re-anchor to the new centroid so it travels with the
  // cluster. The centroid fixed point is then the mean of the exact members.
  Point exact_sum{0.0, 0.0};
  size_t exact_count = 0;
  for (const ClusterMember& m : members_) {
    if (m.shed) continue;
    Point p = MemberPosition(m);
    exact_sum.x += p.x;
    exact_sum.y += p.y;
    ++exact_count;
  }
  const size_t shed_count = members_.size() - exact_count;
  if (exact_count > 0) {
    centroid_ = Point{exact_sum.x / static_cast<double>(exact_count),
                      exact_sum.y / static_cast<double>(exact_count)};
  } else {
    // Every member is shed: the cluster collapses onto its nucleus center.
    centroid_ = NucleusCenter();
  }
  if (shed_count > 0) {
    nucleus_anchor_ = centroid_ - translation_;
    for (ClusterMember& m : members_) {
      if (m.shed) m.anchor = nucleus_anchor_;
    }
    has_nucleus_ = true;
  } else {
    has_nucleus_ = false;
    nucleus_radius_ = 0.0;
  }
  position_sum_ =
      Point{exact_sum.x + static_cast<double>(shed_count) * centroid_.x,
            exact_sum.y + static_cast<double>(shed_count) * centroid_.y};

  double max_d = 0.0;
  double reach = 0.0;
  for (const ClusterMember& m : members_) {
    // Radius covers the members' *reconstructed* positions. A shed member's
    // true position may lie up to Theta_N further out; covering that
    // uncertainty would only preserve approximation-induced false positives
    // at the cost of a much coarser join-between filter, so we accept the
    // (paper-sanctioned) extra false negatives instead.
    max_d = std::max(max_d, Distance(centroid_, MemberPosition(m)));
    reach = std::max(reach, MemberReach(m));
  }
  radius_ = max_d;
  query_reach_ = reach;
}

void MovingCluster::EnsureNucleus(double nucleus_radius) {
  if (!has_nucleus_) {
    has_nucleus_ = true;
    nucleus_anchor_ = centroid_ - translation_;
    nucleus_radius_ = nucleus_radius;
  } else {
    nucleus_radius_ = std::max(nucleus_radius_, nucleus_radius);
  }
}

void MovingCluster::ShedMemberAt(size_t index, Point nucleus_center) {
  ClusterMember& m = members_[index];
  Point pos = MemberPosition(m);
  position_sum_.x += nucleus_center.x - pos.x;
  position_sum_.y += nucleus_center.y - pos.y;
  m.offset = Vec2{};
  m.anchor = nucleus_anchor_;
  m.shed = true;
  m.approx_radius = nucleus_radius_;
}

size_t MovingCluster::ShedPositions(double nucleus_radius) {
  if (nucleus_radius <= 0.0 || members_.empty()) return 0;
  EnsureNucleus(nucleus_radius);
  const Point nc = NucleusCenter();
  const double r2 = nucleus_radius_ * nucleus_radius_;
  size_t shed_count = 0;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].shed) continue;
    if (SquaredDistance(MemberPosition(members_[i]), nc) > r2) continue;
    ShedMemberAt(i, nc);
    ++shed_count;
  }
  if (shed_count > 0) {
    const double n = static_cast<double>(members_.size());
    SetCentroid(Point{position_sum_.x / n, position_sum_.y / n});
  }
  return shed_count;
}

bool MovingCluster::ShedMemberIfInNucleus(size_t index,
                                          double nucleus_radius) {
  if (nucleus_radius <= 0.0) return false;
  if (index >= members_.size() || members_[index].shed) return false;
  EnsureNucleus(nucleus_radius);
  const Point nc = NucleusCenter();
  if (SquaredDistance(MemberPosition(members_[index]), nc) >
      nucleus_radius_ * nucleus_radius_) {
    return false;
  }
  ShedMemberAt(index, nc);
  const double n = static_cast<double>(members_.size());
  SetCentroid(Point{position_sum_.x / n, position_sum_.y / n});
  return true;
}

Status MovingCluster::ValidateMemberCounts() const {
  size_t objects = 0;
  size_t queries = 0;
  for (const ClusterMember& m : members_) {
    (m.kind == EntityKind::kObject ? objects : queries) += 1;
  }
  if (objects != object_count_ || queries != query_count_) {
    return Status::Internal(
        "cluster " + std::to_string(cid_) + ": counted " +
        std::to_string(objects) + "/" + std::to_string(queries) +
        " object/query members but records " + std::to_string(object_count_) +
        "/" + std::to_string(query_count_));
  }
  return Status::OK();
}

size_t MovingCluster::EstimateMemoryUsage() const {
  // A maintained member pays for its full record; a shed member's position
  // state (offset + anchor) is discarded (paper §5). The inline bytes are
  // the holder's to count.
  constexpr size_t kPositionBytes = sizeof(Vec2) + sizeof(Point);
  size_t bytes = 0;
  for (const ClusterMember& m : members_) {
    bytes += sizeof(ClusterMember);
    if (m.shed) bytes -= kPositionBytes;
  }
  return bytes;
}

}  // namespace scuba
