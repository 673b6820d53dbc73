// ShardFaultInjector: deterministic injection of per-shard failures, for
// proving the shard supervision layer (ShardSupervisor, degraded-mode rounds,
// online per-shard recovery — docs/ARCHITECTURE.md §13) isolates and recovers
// every failure class it claims to.
//
// The injector follows the src/stream/fault_injector discipline: all
// randomness flows through one seeded Rng, so a (seed, plan) pair reproduces
// the exact same fault schedule every run. Faults are rolled SERIALLY at the
// coordinator when a round begins — never inside worker tasks — so the
// schedule depends only on (seed, round order, shard count), not on thread
// interleaving. Exact directives ("round:shard:class") bypass the dice
// entirely for reproducible single-fault drills.

#ifndef SCUBA_SHARD_SHARD_FAULT_INJECTOR_H_
#define SCUBA_SHARD_SHARD_FAULT_INJECTOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace scuba {

/// Every way the injector can fail a shard. The first three strike the
/// shard's supervised join task; kRecoveryFailure strikes the shard's next
/// online recovery attempt instead (exercising the retry/backoff/eviction
/// schedule without real damage).
enum class ShardFaultClass : uint8_t {
  kTaskFailure = 0,  ///< The shard's join task throws -> Status::Internal.
  kCorruptState,     ///< The shard's grid slice is damaged -> audit catches.
  kStall,            ///< The shard's join task misses the round deadline.
  kRecoveryFailure,  ///< The shard's next recovery attempt fails.
};

inline constexpr size_t kShardFaultClassCount = 4;

/// Stable lowercase name ("task-failure", "corrupt-state", "stall",
/// "recovery-failure").
std::string_view ShardFaultClassName(ShardFaultClass fault);

/// Parses a class name; InvalidArgument on anything else.
Result<ShardFaultClass> ParseShardFaultClass(std::string_view name);

/// One exact injection: shard `shard` suffers `fault` in round `round`
/// (rounds count completed Evaluate calls, first round = 1).
struct ShardFaultDirective {
  uint64_t round = 0;
  uint32_t shard = 0;
  ShardFaultClass fault = ShardFaultClass::kTaskFailure;
};

/// Injection plan: every class rolled at probability `rate` per (round,
/// shard) in enum order with the first hit winning (at most one fault per
/// shard per round), plus exact directives that override the dice for their
/// (round, shard).
struct ShardFaultPlan {
  double rate = 0.0;
  std::vector<ShardFaultDirective> directives;

  /// Parses "round:shard:class[,round:shard:class...]", e.g.
  /// "3:1:task-failure,5:0:corrupt-state". Whitespace-free.
  static Result<ShardFaultPlan> ParseSpec(std::string_view spec);
};

struct ShardFaultStats {
  uint64_t rounds_seen = 0;
  uint64_t injected[kShardFaultClassCount] = {};

  uint64_t Injected(ShardFaultClass fault) const {
    return injected[static_cast<size_t>(fault)];
  }
  uint64_t TotalInjected() const;
  /// "rounds=N injected=M task-failure=2 ..." (nonzero classes only).
  std::string ToString() const;
};

class ShardFaultInjector {
 public:
  ShardFaultInjector(const ShardFaultPlan& plan, uint64_t seed);

  /// Rolls this round's fault assignments for `shards` shards. Serial,
  /// coordinator-side; `round` counts Evaluate calls from 1. Directives for
  /// this round override the rolls of their shard.
  void BeginRound(uint64_t round, uint32_t shards);

  /// Fault assigned to `shard` in the round begun last, if any. Pure lookup —
  /// safe to call from worker tasks.
  std::optional<ShardFaultClass> FaultFor(uint32_t shard) const;

  /// Records that the fault assigned to `shard` actually fired (stats count
  /// applied injections, not assignments — a fault assigned to a quarantined
  /// shard never fires).
  void NoteInjected(ShardFaultClass fault);

  const ShardFaultPlan& plan() const { return plan_; }
  const ShardFaultStats& stats() const { return stats_; }

 private:
  ShardFaultPlan plan_;
  ShardFaultStats stats_;
  Rng rng_;
  std::vector<std::optional<ShardFaultClass>> round_faults_;
  uint64_t current_round_ = 0;
};

}  // namespace scuba

#endif  // SCUBA_SHARD_SHARD_FAULT_INJECTOR_H_
