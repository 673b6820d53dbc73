#include "stream/update_validator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/memory_usage.h"

namespace scuba {

std::string_view BadUpdatePolicyName(BadUpdatePolicy policy) {
  switch (policy) {
    case BadUpdatePolicy::kStrict:
      return "strict";
    case BadUpdatePolicy::kQuarantine:
      return "quarantine";
    case BadUpdatePolicy::kRepair:
      return "repair";
  }
  return "unknown";
}

Result<BadUpdatePolicy> ParseBadUpdatePolicy(std::string_view name) {
  if (name == "strict") return BadUpdatePolicy::kStrict;
  if (name == "quarantine") return BadUpdatePolicy::kQuarantine;
  if (name == "repair") return BadUpdatePolicy::kRepair;
  return Status::InvalidArgument("unknown bad-update policy: " +
                                 std::string(name) +
                                 " (strict|quarantine|repair)");
}

std::string_view RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNonFinite:
      return "non-finite";
    case RejectReason::kDuplicateInBatch:
      return "duplicate-in-batch";
    case RejectReason::kBadSpeed:
      return "bad-speed";
    case RejectReason::kBadRange:
      return "bad-range";
    case RejectReason::kNegativeTime:
      return "negative-time";
    case RejectReason::kTimeRegression:
      return "time-regression";
    case RejectReason::kUnknownDestNode:
      return "unknown-dest";
    case RejectReason::kOffMap:
      return "off-map";
  }
  return "unknown";
}

StatusCode RejectReasonStatusCode(RejectReason reason) {
  switch (reason) {
    case RejectReason::kOffMap:
      return StatusCode::kOutOfRange;
    case RejectReason::kDuplicateInBatch:
      return StatusCode::kAlreadyExists;
    case RejectReason::kTimeRegression:
      return StatusCode::kFailedPrecondition;
    case RejectReason::kUnknownDestNode:
      return StatusCode::kNotFound;
    case RejectReason::kNonFinite:
    case RejectReason::kBadSpeed:
    case RejectReason::kBadRange:
    case RejectReason::kNegativeTime:
      return StatusCode::kInvalidArgument;
  }
  return StatusCode::kInvalidArgument;
}

QuarantineLog::QuarantineLog(size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity_);
}

void QuarantineLog::Push(QuarantinedUpdate entry) {
  ++total_;
  if (capacity_ == 0) return;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(entry));
    return;
  }
  ring_[next_] = std::move(entry);
  next_ = (next_ + 1) % capacity_;
}

std::vector<QuarantinedUpdate> QuarantineLog::Snapshot() const {
  std::vector<QuarantinedUpdate> out;
  out.reserve(ring_.size());
  // Once wrapped, next_ points at the oldest retained entry.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

void QuarantineLog::Clear() {
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

size_t QuarantineLog::EstimateMemoryUsage() const {
  size_t bytes = VectorMemoryUsage(ring_);
  for (const QuarantinedUpdate& entry : ring_) {
    bytes += StringMemoryUsage(entry.detail);
  }
  return bytes;
}

uint64_t ValidatorStats::TotalRejected() const {
  uint64_t sum = 0;
  for (uint64_t r : rejected) sum += r;
  return sum;
}

UpdateValidator::UpdateValidator(const ValidatorConfig& config)
    : config_(config), log_(kQuarantineCapacity) {}

bool UpdateValidator::Screen(Timestamp batch_time, EntityKind kind,
                             uint32_t id, Point* position, Timestamp* time,
                             double* speed, NodeId dest_node,
                             Point dest_position, double* range_width,
                             double* range_height, RejectReason* reason) {
  const bool repair = config_.policy == BadUpdatePolicy::kRepair;
  auto fail = [&](RejectReason r) {
    *reason = r;
    return false;
  };

  if (!std::isfinite(position->x) || !std::isfinite(position->y) ||
      !std::isfinite(dest_position.x) || !std::isfinite(dest_position.y) ||
      !std::isfinite(*speed) ||
      (range_width != nullptr &&
       (!std::isfinite(*range_width) || !std::isfinite(*range_height)))) {
    return fail(RejectReason::kNonFinite);
  }
  const EntityRef ref{kind, id};
  if (seen_in_batch_.contains(ref)) {
    return fail(RejectReason::kDuplicateInBatch);
  }
  bool fixed = false;
  if (*speed < 0.0) {
    if (!repair) return fail(RejectReason::kBadSpeed);
    *speed = 0.0;
    fixed = true;
  }
  // A fabricated range would fabricate matches, so bad ranges never repair.
  if (range_width != nullptr && (*range_width <= 0.0 || *range_height <= 0.0)) {
    return fail(RejectReason::kBadRange);
  }
  if (*time < 0) {
    if (!repair) return fail(RejectReason::kNegativeTime);
    *time = batch_time >= 0 ? batch_time : 0;
    fixed = true;
  }
  Timestamp floor =
      batch_time >= 0 ? batch_time : std::numeric_limits<Timestamp>::min();
  if (auto it = last_time_.find(ref); it != last_time_.end()) {
    floor = std::max(floor, it->second);
  }
  if (*time < floor) {
    if (!repair) return fail(RejectReason::kTimeRegression);
    *time = floor;  // resynchronize to the newest credible time
    fixed = true;
  }
  if (dest_node == kInvalidNodeId ||
      (config_.node_count > 0 && dest_node >= config_.node_count)) {
    return fail(RejectReason::kUnknownDestNode);
  }
  if (config_.check_bounds && !config_.bounds.Contains(*position)) {
    if (!repair) return fail(RejectReason::kOffMap);
    position->x = std::clamp(position->x, config_.bounds.min_x,
                             config_.bounds.max_x);
    position->y = std::clamp(position->y, config_.bounds.min_y,
                             config_.bounds.max_y);
    fixed = true;
  }

  seen_in_batch_.insert(ref);
  auto [it, inserted] = last_time_.try_emplace(ref, *time);
  if (!inserted && *time > it->second) it->second = *time;
  if (fixed) ++stats_.repaired;
  return true;
}

Status UpdateValidator::Reject(EntityKind kind, uint32_t id, Timestamp time,
                               RejectReason reason, std::string detail) {
  ++stats_.rejected[static_cast<size_t>(reason)];
  std::string message;
  if (config_.policy == BadUpdatePolicy::kStrict) {
    message = std::string(RejectReasonName(reason)) + ": " + detail;
  }
  log_.Push(QuarantinedUpdate{kind, id, time, reason, std::move(detail)});
  if (config_.policy == BadUpdatePolicy::kStrict) {
    return Status(RejectReasonStatusCode(reason), std::move(message));
  }
  return Status::OK();
}

Status UpdateValidator::ScreenBatch(Timestamp batch_time,
                                    std::vector<LocationUpdate>* objects,
                                    std::vector<QueryUpdate>* queries) {
  if (objects == nullptr || queries == nullptr) {
    return Status::InvalidArgument("objects and queries must be non-null");
  }
  seen_in_batch_.clear();
  // kStrict never drops (the first bad tuple fails the call), so the
  // compaction below is only needed when filtering.
  const bool filter = config_.policy != BadUpdatePolicy::kStrict;

  size_t keep = 0;
  for (size_t i = 0; i < objects->size(); ++i) {
    LocationUpdate& u = (*objects)[i];
    ++stats_.screened;
    RejectReason reason;
    if (Screen(batch_time, EntityKind::kObject, u.oid, &u.position, &u.time,
               &u.speed, u.dest_node, u.dest_position, nullptr, nullptr,
               &reason)) {
      ++stats_.admitted;
      if (filter && keep != i) (*objects)[keep] = u;
      ++keep;
    } else {
      SCUBA_RETURN_IF_ERROR(
          Reject(EntityKind::kObject, u.oid, u.time, reason, u.ToString()));
    }
  }
  if (filter) objects->resize(keep);

  keep = 0;
  for (size_t i = 0; i < queries->size(); ++i) {
    QueryUpdate& u = (*queries)[i];
    ++stats_.screened;
    RejectReason reason;
    if (Screen(batch_time, EntityKind::kQuery, u.qid, &u.position, &u.time,
               &u.speed, u.dest_node, u.dest_position, &u.range_width,
               &u.range_height, &reason)) {
      ++stats_.admitted;
      if (filter && keep != i) (*queries)[keep] = u;
      ++keep;
    } else {
      SCUBA_RETURN_IF_ERROR(
          Reject(EntityKind::kQuery, u.qid, u.time, reason, u.ToString()));
    }
  }
  if (filter) queries->resize(keep);
  return Status::OK();
}

std::string UpdateValidator::FormatStats() const {
  std::string out = "screened=" + std::to_string(stats_.screened) +
                    " admitted=" + std::to_string(stats_.admitted) +
                    " repaired=" + std::to_string(stats_.repaired) +
                    " rejected=" + std::to_string(stats_.TotalRejected());
  for (size_t i = 0; i < kRejectReasonCount; ++i) {
    if (stats_.rejected[i] == 0) continue;
    out += " " + std::string(RejectReasonName(static_cast<RejectReason>(i))) +
           "=" + std::to_string(stats_.rejected[i]);
  }
  return out;
}

void UpdateValidator::Reset() {
  stats_ = ValidatorStats{};
  log_.Clear();
  last_time_.clear();
  seen_in_batch_.clear();
}

size_t UpdateValidator::EstimateMemoryUsage() const {
  return log_.EstimateMemoryUsage() + UnorderedMapMemoryUsage(last_time_) +
         UnorderedSetMemoryUsage(seen_in_batch_);
}

}  // namespace scuba
