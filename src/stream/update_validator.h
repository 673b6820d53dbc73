// UpdateValidator: stream-side screening of location/query updates before
// they reach an engine (stream hardening, docs/ARCHITECTURE.md §7).
//
// SCUBA's correctness contract only holds for sane tuples: a NaN coordinate,
// an off-map position or a time-regressing report flowing into the clusterer
// can silently corrupt cluster state. The validator classifies every tuple
// against a configurable fault taxonomy, tags each rejection with a distinct
// RejectReason (and StatusCode), and applies one of three policies:
//
//   kStrict     — the screen fails with the first tuple's tagged error;
//   kQuarantine — bad tuples are dropped, counted per reason and retained in
//                 a bounded dead-letter ring buffer (QuarantineLog);
//   kRepair     — clampable faults (off-map position, negative speed,
//                 regressed timestamp) are fixed in place and admitted;
//                 unrepairable tuples fall back to quarantine.
//
// The validator is stateful across batches: it remembers the last admitted
// timestamp per entity (time-regression detection) and the running stream
// high-water time. It is NOT thread-safe; screen batches from one thread.

#ifndef SCUBA_STREAM_UPDATE_VALIDATOR_H_
#define SCUBA_STREAM_UPDATE_VALIDATOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "gen/update.h"
#include "geometry/rect.h"

namespace scuba {

struct PersistAccess;  // snapshot serialization back door (src/persist)

/// What the screen does with an update that fails validation. Engines know
/// no policy: they reject any batch holding a tuple that fails
/// ValidateUpdate, so a stream that must survive bad tuples runs through a
/// non-strict screen first.
enum class BadUpdatePolicy : uint8_t {
  /// Fail the screen with the first bad tuple's tagged error: the stream
  /// stops there.
  kStrict = 0,
  /// Drop the bad tuple, count it under its rejection reason, retain it in
  /// the QuarantineLog dead-letter buffer and keep going.
  kQuarantine,
  /// Clamp what is clampable (off-map positions into bounds, negative speed
  /// to zero, regressed timestamps to the batch time) and admit the repaired
  /// tuple; unrepairable tuples (non-finite fields, unknown destinations)
  /// fall back to quarantine.
  kRepair,
};

/// Stable lowercase name ("strict", "quarantine", "repair").
std::string_view BadUpdatePolicyName(BadUpdatePolicy policy);

/// Parses a policy name; InvalidArgument on anything else.
Result<BadUpdatePolicy> ParseBadUpdatePolicy(std::string_view name);

/// The fault taxonomy. Every rejected tuple is counted under exactly one
/// reason (the first failing check wins; checks run in this order).
enum class RejectReason : uint8_t {
  kNonFinite = 0,     ///< NaN/Inf position, destination, speed or range.
  kDuplicateInBatch,  ///< Same entity appeared earlier in this batch.
  kBadSpeed,          ///< Finite but negative speed.
  kBadRange,          ///< Finite but non-positive query range extents.
  kNegativeTime,      ///< Timestamp below zero.
  kTimeRegression,    ///< Timestamp behind the entity's last admitted update
                      ///< or behind the batch time floor.
  kUnknownDestNode,   ///< Missing cnLoc or node id outside the road network.
  kOffMap,            ///< Finite position outside the configured bounds.
};

inline constexpr size_t kRejectReasonCount = 8;

/// Stable lowercase name ("non-finite", "off-map", ...).
std::string_view RejectReasonName(RejectReason reason);

/// The StatusCode a kStrict screen fails with for this reason. Each reason
/// maps onto the closest canonical code (off-map -> kOutOfRange, duplicate ->
/// kAlreadyExists, regression -> kFailedPrecondition, unknown destination ->
/// kNotFound, the rest -> kInvalidArgument) so callers can dispatch on code
/// without parsing messages.
StatusCode RejectReasonStatusCode(RejectReason reason);

/// One dead-lettered tuple.
struct QuarantinedUpdate {
  EntityKind kind = EntityKind::kObject;
  uint32_t id = 0;
  Timestamp time = 0;
  RejectReason reason = RejectReason::kNonFinite;
  std::string detail;  ///< The tuple's ToString() at rejection time.
};

/// Bounded ring buffer of the most recent quarantined tuples (the CLI dumps
/// it after a run). Pushing beyond capacity overwrites the oldest entry;
/// total() keeps counting.
class QuarantineLog {
 public:
  explicit QuarantineLog(size_t capacity);

  void Push(QuarantinedUpdate entry);

  size_t capacity() const { return capacity_; }
  /// Entries currently retained (min(total, capacity)).
  size_t size() const { return ring_.size(); }
  /// Entries ever pushed, including overwritten ones.
  uint64_t total() const { return total_; }

  /// Retained entries, oldest first.
  std::vector<QuarantinedUpdate> Snapshot() const;

  void Clear();

  /// Analytic heap bytes: the ring buffer plus each retained entry's detail
  /// string.
  size_t EstimateMemoryUsage() const;

 private:
  friend struct PersistAccess;  ///< Snapshot serialization (src/persist).
  size_t capacity_;
  uint64_t total_ = 0;
  size_t next_ = 0;  ///< Ring write position once the buffer is full.
  std::vector<QuarantinedUpdate> ring_;
};

struct ValidatorConfig {
  BadUpdatePolicy policy = BadUpdatePolicy::kStrict;
  /// Off-map check: positions must fall inside this box. Skipped while
  /// check_bounds is false (the default — generated maps jitter entities
  /// slightly past the nominal region, so callers opt in with a margin).
  Rect bounds{0.0, 0.0, 0.0, 0.0};
  bool check_bounds = false;
  /// Unknown-destination check: dest_node must be < node_count. 0 skips the
  /// range part (a missing kInvalidNodeId destination is always rejected).
  uint64_t node_count = 0;
};

/// Entries the validator's dead-letter ring retains.
inline constexpr size_t kQuarantineCapacity = 64;

struct ValidatorStats {
  uint64_t screened = 0;   ///< Tuples seen.
  uint64_t admitted = 0;   ///< Tuples passed through (repaired ones included).
  uint64_t repaired = 0;   ///< Admitted only after clamping (kRepair).
  uint64_t rejected[kRejectReasonCount] = {};

  uint64_t Rejected(RejectReason reason) const {
    return rejected[static_cast<size_t>(reason)];
  }
  uint64_t TotalRejected() const;
};

/// Pass as `batch_time` when the stream has no per-batch time floor (pure
/// per-entity regression checking).
inline constexpr Timestamp kNoBatchTime = -1;

class UpdateValidator {
 public:
  explicit UpdateValidator(const ValidatorConfig& config);

  /// Screens one batch in place. `batch_time` >= 0 declares the tick this
  /// batch belongs to: tuples stamped earlier are time regressions (the
  /// stream contract is that a tick's batch carries that tick's readings);
  /// kNoBatchTime disables the floor. Under kStrict the first bad tuple
  /// fails the call with its tagged StatusCode and nothing is mutated
  /// downstream of the vectors' screening; under kQuarantine/kRepair the
  /// call always succeeds and the vectors retain only admitted (possibly
  /// repaired) tuples in their original relative order.
  Status ScreenBatch(Timestamp batch_time,
                     std::vector<LocationUpdate>* objects,
                     std::vector<QueryUpdate>* queries);

  const ValidatorConfig& config() const { return config_; }
  const ValidatorStats& stats() const { return stats_; }
  const QuarantineLog& quarantine() const { return log_; }

  /// One-line counters summary ("screened=... admitted=... off-map=2 ...");
  /// per-reason entries appear only when nonzero.
  std::string FormatStats() const;

  /// Forgets per-entity history, counters and the quarantine log.
  void Reset();

  /// Analytic heap bytes of all validator state: the quarantine ring (detail
  /// strings included) plus the per-entity last-timestamp map and the
  /// in-batch dedup set.
  size_t EstimateMemoryUsage() const;

 private:
  friend struct PersistAccess;  ///< Snapshot serialization (src/persist).
  /// Decides one tuple's fate. Returns kOk to admit (fields possibly
  /// repaired in place under kRepair, bumping stats_.repaired) or the
  /// rejection reason via `*reason`.
  bool Screen(Timestamp batch_time, EntityKind kind, uint32_t id, Point* position,
              Timestamp* time, double* speed, NodeId dest_node,
              Point dest_position, double* range_width, double* range_height,
              RejectReason* reason);

  /// Bookkeeping shared by both tuple kinds after Screen() said reject.
  /// Returns the tagged error under kStrict, OK (drop the tuple) otherwise.
  Status Reject(EntityKind kind, uint32_t id, Timestamp time,
                RejectReason reason, std::string detail);

  ValidatorConfig config_;
  ValidatorStats stats_;
  QuarantineLog log_;
  /// Last admitted timestamp per entity (time-regression detection).
  std::unordered_map<EntityRef, Timestamp, EntityRefHash> last_time_;
  /// Entities already admitted in the batch being screened.
  std::unordered_set<EntityRef, EntityRefHash> seen_in_batch_;
};

}  // namespace scuba

#endif  // SCUBA_STREAM_UPDATE_VALIDATOR_H_
