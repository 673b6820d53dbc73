#include "shard/shard_supervisor.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/stopwatch.h"

namespace scuba {

std::string_view ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kRecovering:
      return "recovering";
    case ShardHealth::kEvicted:
      return "evicted";
  }
  return "unknown";
}

Result<std::unique_ptr<ShardSupervisor>> ShardSupervisor::Create(
    const ShardSupervisionOptions& options, uint32_t shards) {
  std::unique_ptr<ShardSupervisor> supervisor(
      new ShardSupervisor(options, shards));
  if (options.FaultsArmed()) {
    ShardFaultPlan plan;
    if (!options.fault_spec.empty()) {
      Result<ShardFaultPlan> parsed =
          ShardFaultPlan::ParseSpec(options.fault_spec);
      if (!parsed.ok()) return parsed.status();
      plan = std::move(parsed).value();
    }
    plan.rate = options.fault_rate;
    supervisor->injector_ =
        std::make_unique<ShardFaultInjector>(plan, options.fault_seed);
  }
  return supervisor;
}

void ShardSupervisor::BeginRound(uint64_t round) {
  round_ = round;
  ++stats_.rounds_supervised;
  if (injector_ != nullptr) injector_->BeginRound(round, shard_count());
}

bool ShardSupervisor::AnyQuarantined() const {
  for (const ShardHealthRecord& rec : records_) {
    if (rec.health != ShardHealth::kHealthy) return true;
  }
  return false;
}

Status ShardSupervisor::SuperviseJoinTask(
    uint32_t shard, const std::function<Status()>& body) const {
  const std::optional<ShardFaultClass> fault = PlannedFault(shard);
  Stopwatch clock;
  Status status;
  try {
    if (fault == ShardFaultClass::kTaskFailure) {
      throw std::runtime_error("injected task failure: shard " +
                               std::to_string(shard));
    }
    status = body();
  } catch (const std::exception& e) {
    status = Status::Internal(std::string("shard task threw: ") + e.what());
  } catch (...) {
    status = Status::Internal("shard task threw a non-standard exception");
  }
  if (!status.ok()) return status;
  if (fault == ShardFaultClass::kStall) {
    return Status::Internal("injected stall: shard " + std::to_string(shard) +
                            " missed the round deadline");
  }
  const double elapsed = clock.ElapsedSeconds();
  if (options_.round_deadline_seconds > 0.0 &&
      elapsed > options_.round_deadline_seconds) {
    return Status::Internal(
        "shard " + std::to_string(shard) + " stalled: join task took " +
        std::to_string(elapsed) + "s against a " +
        std::to_string(options_.round_deadline_seconds) + "s round deadline");
  }
  return status;
}

void ShardSupervisor::NoteJoinFailure(uint32_t shard, const Status& error) {
  ShardHealthRecord& rec = records_[shard];
  ++stats_.shard_failures;
  rec.health = ShardHealth::kDegraded;
  ++rec.failures;
  rec.recovery_attempts = 0;
  rec.failed_round = round_;
  // First attempt runs at the end of the same round: no ingest interleaves,
  // so a successful rebuild converges exactly to the uninterrupted twin.
  rec.next_attempt_round = round_;
  rec.last_error = error.ToString();
}

void ShardSupervisor::NoteRecoverySuccess(uint32_t shard) {
  ShardHealthRecord& rec = records_[shard];
  ++stats_.shard_recoveries;
  rec.health = ShardHealth::kHealthy;
  rec.recovery_attempts = 0;
  rec.next_attempt_round = 0;
  rec.last_error.clear();
}

bool ShardSupervisor::NoteRecoveryFailure(uint32_t shard,
                                          const Status& error) {
  ShardHealthRecord& rec = records_[shard];
  rec.health = ShardHealth::kDegraded;
  rec.last_error = error.ToString();
  ++rec.recovery_attempts;
  if (rec.recovery_attempts >= options_.max_recovery_attempts) return true;
  // Exponential round-based backoff: base, 2*base, 4*base, ... (shift capped
  // so a huge attempt budget cannot overflow the round arithmetic).
  const uint32_t shift = std::min<uint32_t>(rec.recovery_attempts - 1, 32);
  rec.next_attempt_round =
      round_ + (static_cast<uint64_t>(options_.backoff_base_rounds) << shift);
  return false;
}

void ShardSupervisor::NoteEvicted(uint32_t shard) {
  ++stats_.shard_evictions;
  records_[shard].health = ShardHealth::kEvicted;
}

void ShardSupervisor::OnLayoutChanged(uint32_t shards) {
  records_.assign(shards, ShardHealthRecord{});
}

std::string ShardSupervisor::HealthDump() const {
  std::string out;
  for (uint32_t s = 0; s < shard_count(); ++s) {
    const ShardHealthRecord& rec = records_[s];
    out += "shard " + std::to_string(s) + ": " +
           std::string(ShardHealthName(rec.health));
    if (rec.failures > 0) {
      out += " failures=" + std::to_string(rec.failures) +
             " attempts=" + std::to_string(rec.recovery_attempts);
      if (rec.health == ShardHealth::kDegraded) {
        out += " next_attempt_round=" + std::to_string(rec.next_attempt_round);
      }
      if (!rec.last_error.empty()) out += " last_error=\"" + rec.last_error + "\"";
    }
    out += "\n";
  }
  out += "supervision: rounds=" + std::to_string(stats_.rounds_supervised) +
         " failures=" + std::to_string(stats_.shard_failures) +
         " recoveries=" + std::to_string(stats_.shard_recoveries) +
         " evictions=" + std::to_string(stats_.shard_evictions) +
         " degraded_rounds=" + std::to_string(stats_.degraded_rounds) + "\n";
  if (injector_ != nullptr) {
    out += "faults: " + injector_->stats().ToString() + "\n";
  }
  return out;
}

}  // namespace scuba
