// ShardSupervisor: the per-window failure barrier and health state machine
// behind supervised ScubaEngine rounds (docs/ARCHITECTURE.md §13). "Shard"
// here names a join window: a range of whole grid rows the engine scans as
// one task.
//
// The supervisor never touches engine state itself. It wraps each window's
// join task with an exception barrier, a round-deadline check and the
// deterministic fault injector, and tracks one ShardHealthRecord per window:
//
//   healthy ──(task failure / stall / audit violation)──▶ degraded
//   degraded ──(recovery attempt due)──▶ recovering
//   recovering ──(audit clean)──▶ healthy
//   recovering ──(attempt failed)──▶ degraded (backoff), or after
//   max_recovery_attempts failures ──▶ evicted (kDegrade: in place;
//   kReassign: the engine recomputes one fewer window first)
//
// All decisions are made serially by the engine between window scans; the
// only member that runs inside a scan is SuperviseJoinTask, which reads the
// pre-rolled fault schedule and mutates nothing shared.

#ifndef SCUBA_SHARD_SHARD_SUPERVISOR_H_
#define SCUBA_SHARD_SHARD_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/scuba_options.h"
#include "shard/shard_fault_injector.h"

namespace scuba {

/// One window's position in the supervision state machine.
enum class ShardHealth : uint8_t {
  kHealthy = 0,    ///< Joins run; results are live.
  kDegraded,       ///< Quarantined: serves its last-published results.
  kRecovering,     ///< A recovery attempt is running right now.
  kEvicted,        ///< Attempt budget exhausted; permanently quarantined.
};

/// Stable lowercase name ("healthy", "degraded", "recovering", "evicted").
std::string_view ShardHealthName(ShardHealth health);

struct ShardHealthRecord {
  ShardHealth health = ShardHealth::kHealthy;
  uint32_t failures = 0;           ///< Lifetime supervised-task failures.
  uint32_t recovery_attempts = 0;  ///< Failed attempts since the incident.
  uint64_t failed_round = 0;       ///< Round of the current incident.
  uint64_t next_attempt_round = 0; ///< Recovery due when round >= this.
  std::string last_error;          ///< Most recent failure, human-readable.
};

struct SupervisionStats {
  uint64_t rounds_supervised = 0;
  uint64_t shard_failures = 0;    ///< Supervised join tasks that failed.
  uint64_t shard_recoveries = 0;  ///< Online recoveries that verified clean.
  uint64_t shard_evictions = 0;   ///< Windows that exhausted their attempts.
  uint64_t degraded_rounds = 0;   ///< Rounds served with >= 1 stale slice.
};

class ShardSupervisor {
 public:
  /// Parses the fault spec (if any) and arms the injector when the options
  /// ask for it. InvalidArgument on a malformed fault_spec.
  static Result<std::unique_ptr<ShardSupervisor>> Create(
      const ShardSupervisionOptions& options, uint32_t shards);

  /// Serial, coordinator-side: opens round `round` (counting Evaluate calls
  /// from 1) and rolls the injector's fault schedule for it.
  void BeginRound(uint64_t round);
  uint64_t round() const { return round_; }

  /// True when the window must not run its join this round (any non-healthy
  /// state): its result slice is served from last-published results.
  bool Quarantined(uint32_t shard) const {
    return records_[shard].health != ShardHealth::kHealthy;
  }
  bool AnyQuarantined() const;

  /// Runs one window's join body under the failure barrier: injects this
  /// round's task-failure/stall fault, converts any escaped exception into
  /// Status::Internal, and enforces the round deadline. Worker-safe: reads
  /// the pre-rolled schedule, mutates nothing shared (injection stats are
  /// counted serially by the engine afterwards).
  Status SuperviseJoinTask(uint32_t shard,
                           const std::function<Status()>& body) const;

  /// Fault the injector assigned to `shard` this round (nullopt when the
  /// injector is unarmed or rolled nothing).
  std::optional<ShardFaultClass> PlannedFault(uint32_t shard) const {
    return injector_ == nullptr ? std::nullopt : injector_->FaultFor(shard);
  }
  /// Non-null iff fault injection is armed.
  ShardFaultInjector* injector() { return injector_.get(); }
  const ShardFaultInjector* injector() const { return injector_.get(); }

  /// Serial outcome recording: the window's supervised join failed this
  /// round.
  /// Transitions the window to kDegraded with its first recovery attempt due
  /// at the end of the same round.
  void NoteJoinFailure(uint32_t shard, const Status& error);
  /// The round completed with at least one stale slice.
  void NoteDegradedRound() { ++stats_.degraded_rounds; }

  /// True when `shard` has a recovery attempt due this round.
  bool RecoveryDue(uint32_t shard) const {
    const ShardHealthRecord& rec = records_[shard];
    return rec.health == ShardHealth::kDegraded &&
           round_ >= rec.next_attempt_round;
  }
  void BeginRecoveryAttempt(uint32_t shard) {
    records_[shard].health = ShardHealth::kRecovering;
  }
  void NoteRecoverySuccess(uint32_t shard);
  /// Records a failed attempt and schedules the next one with exponential
  /// round-based backoff. Returns true when the attempt budget is exhausted
  /// and the window must be evicted.
  bool NoteRecoveryFailure(uint32_t shard, const Status& error);
  /// kDegrade eviction (in place) or the bookkeeping half of a kReassign
  /// eviction (the engine recomputes its windows separately).
  void NoteEvicted(uint32_t shard);
  /// The engine recomputed `shards` windows: every record resets to
  /// healthy — the evicted window's identity no longer exists.
  void OnLayoutChanged(uint32_t shards);

  uint32_t shard_count() const {
    return static_cast<uint32_t>(records_.size());
  }
  const ShardHealthRecord& record(uint32_t shard) const {
    return records_[shard];
  }
  const ShardSupervisionOptions& options() const { return options_; }
  const SupervisionStats& stats() const { return stats_; }

  /// Multi-line operator dump: one line per window plus the aggregate
  /// counters and (when armed) the injector stats.
  std::string HealthDump() const;

 private:
  ShardSupervisor(const ShardSupervisionOptions& options, uint32_t shards)
      : options_(options), records_(shards) {}

  ShardSupervisionOptions options_;
  std::unique_ptr<ShardFaultInjector> injector_;  ///< Null unless armed.
  std::vector<ShardHealthRecord> records_;
  SupervisionStats stats_;
  uint64_t round_ = 0;
};

}  // namespace scuba

#endif  // SCUBA_SHARD_SHARD_SUPERVISOR_H_
