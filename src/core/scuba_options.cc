#include "core/scuba_options.h"

#include <cmath>
#include <string>

#include "index/grid_index.h"

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

std::string_view ShardFailurePolicyName(ShardFailurePolicy policy) {
  switch (policy) {
    case ShardFailurePolicy::kFail:
      return "fail";
    case ShardFailurePolicy::kDegrade:
      return "degrade";
    case ShardFailurePolicy::kReassign:
      return "reassign";
  }
  return "unknown";
}

Result<ShardFailurePolicy> ParseShardFailurePolicy(std::string_view name) {
  if (name == "fail") return ShardFailurePolicy::kFail;
  if (name == "degrade") return ShardFailurePolicy::kDegrade;
  if (name == "reassign") return ShardFailurePolicy::kReassign;
  return Status::InvalidArgument("unknown shard-failure policy: " +
                                 std::string(name) +
                                 " (fail|degrade|reassign)");
}

Status ScubaOptions::Validate() const {
  // Every floating-point check below also rejects NaN and infinities: a NaN
  // fails no ordered comparison, so it would slip through a plain bound.
  if (!std::isfinite(theta_d) || theta_d < 0.0) {
    return Status::InvalidArgument("theta_d must be finite and non-negative");
  }
  if (!std::isfinite(theta_s) || theta_s < 0.0) {
    return Status::InvalidArgument("theta_s must be finite and non-negative");
  }
  // Cell ids are u32 and every empty cell costs a vector header, so the cap
  // turns a typo into an error instead of a multi-gigabyte allocation.
  if (grid_cells == 0 || grid_cells > GridIndex::kMaxCellsPerSide) {
    return Status::InvalidArgument(
        "grid_cells must be in [1, " +
        std::to_string(GridIndex::kMaxCellsPerSide) + "]");
  }
  if (!std::isfinite(region.min_x) || !std::isfinite(region.min_y) ||
      !std::isfinite(region.max_x) || !std::isfinite(region.max_y)) {
    return Status::InvalidArgument("region must be finite");
  }
  if (region.Empty() || region.Width() <= 0.0 || region.Height() <= 0.0) {
    return Status::InvalidArgument("region must have positive area");
  }
  if (delta <= 0) {
    return Status::InvalidArgument("delta must be positive");
  }
  if (!std::isfinite(grid_sync_padding) || grid_sync_padding < 0.0) {
    return Status::InvalidArgument(
        "grid_sync_padding must be finite and non-negative");
  }
  if (enable_cluster_splitting &&
      (!std::isfinite(split_radius_factor) || split_radius_factor <= 0.0)) {
    return Status::InvalidArgument(
        "split_radius_factor must be finite and positive");
  }
  // 0 means hardware concurrency; the cap catches garbage values (threads
  // beyond any plausible core count would only add scheduling overhead).
  if (join_threads > 1024) {
    return Status::InvalidArgument("join_threads must be in [0, 1024]");
  }
  if (ingest_threads > 1024) {
    return Status::InvalidArgument("ingest_threads must be in [0, 1024]");
  }
  // Windows beyond the row count are empty and legal (they simply own no
  // cells); the cap catches garbage values like the thread counts above.
  if (shards == 0 || shards > 1024) {
    return Status::InvalidArgument("shards must be in [1, 1024]");
  }
  if (supervision.max_recovery_attempts == 0) {
    return Status::InvalidArgument(
        "supervision.max_recovery_attempts must be >= 1");
  }
  if (supervision.backoff_base_rounds == 0) {
    return Status::InvalidArgument(
        "supervision.backoff_base_rounds must be >= 1");
  }
  if (!std::isfinite(supervision.round_deadline_seconds) ||
      supervision.round_deadline_seconds < 0.0) {
    return Status::InvalidArgument(
        "supervision.round_deadline_seconds must be finite and non-negative");
  }
  if (!(supervision.fault_rate >= 0.0 && supervision.fault_rate <= 1.0)) {
    return Status::InvalidArgument("supervision.fault_rate must be in [0, 1]");
  }
  if (checkpoint.keep_last_k == 0) {
    return Status::InvalidArgument("checkpoint.keep_last_k must be >= 1");
  }
  if (checkpoint.wal_segment_bytes < 4096) {
    return Status::InvalidArgument(
        "checkpoint.wal_segment_bytes must be >= 4096");
  }
  if (!(shedding.eta >= 0.0 && shedding.eta <= 1.0)) {
    return Status::InvalidArgument("shedding eta must be in [0, 1]");
  }
  if (shedding.mode == LoadSheddingMode::kAdaptive) {
    if (shedding.memory_budget_bytes == 0) {
      return Status::InvalidArgument(
          "adaptive shedding needs a memory budget");
    }
    if (!(shedding.eta_step > 0.0 && shedding.eta_step <= 1.0)) {
      return Status::InvalidArgument("eta_step must be in (0, 1]");
    }
    if (!(shedding.relax_fraction > 0.0 && shedding.relax_fraction < 1.0)) {
      return Status::InvalidArgument("relax_fraction must be in (0, 1)");
    }
  }
  return Status::OK();
}

}  // namespace scuba
