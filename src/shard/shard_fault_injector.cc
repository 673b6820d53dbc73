#include "shard/shard_fault_injector.h"

#include <cstdlib>

namespace scuba {

std::string_view ShardFaultClassName(ShardFaultClass fault) {
  switch (fault) {
    case ShardFaultClass::kTaskFailure:
      return "task-failure";
    case ShardFaultClass::kCorruptState:
      return "corrupt-state";
    case ShardFaultClass::kStall:
      return "stall";
    case ShardFaultClass::kRecoveryFailure:
      return "recovery-failure";
  }
  return "unknown";
}

Result<ShardFaultClass> ParseShardFaultClass(std::string_view name) {
  for (size_t i = 0; i < kShardFaultClassCount; ++i) {
    const auto fault = static_cast<ShardFaultClass>(i);
    if (name == ShardFaultClassName(fault)) return fault;
  }
  return Status::InvalidArgument(
      "unknown shard fault class: " + std::string(name) +
      " (task-failure|corrupt-state|stall|recovery-failure)");
}

Result<ShardFaultPlan> ShardFaultPlan::ParseSpec(std::string_view spec) {
  ShardFaultPlan plan;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view entry = spec.substr(pos, end - pos);
    pos = end + 1;
    const size_t c1 = entry.find(':');
    const size_t c2 = c1 == std::string_view::npos
                          ? std::string_view::npos
                          : entry.find(':', c1 + 1);
    if (c1 == std::string_view::npos || c2 == std::string_view::npos) {
      return Status::InvalidArgument(
          "shard fault spec entry is not round:shard:class: " +
          std::string(entry));
    }
    ShardFaultDirective d;
    char* parse_end = nullptr;
    const std::string round_str(entry.substr(0, c1));
    const std::string shard_str(entry.substr(c1 + 1, c2 - c1 - 1));
    d.round = std::strtoull(round_str.c_str(), &parse_end, 10);
    if (parse_end == round_str.c_str() || *parse_end != '\0' || d.round == 0) {
      return Status::InvalidArgument("bad round in shard fault spec entry: " +
                                     std::string(entry));
    }
    d.shard =
        static_cast<uint32_t>(std::strtoul(shard_str.c_str(), &parse_end, 10));
    if (parse_end == shard_str.c_str() || *parse_end != '\0') {
      return Status::InvalidArgument("bad shard in shard fault spec entry: " +
                                     std::string(entry));
    }
    Result<ShardFaultClass> fault = ParseShardFaultClass(entry.substr(c2 + 1));
    if (!fault.ok()) return fault.status();
    d.fault = *fault;
    plan.directives.push_back(d);
  }
  return plan;
}

uint64_t ShardFaultStats::TotalInjected() const {
  uint64_t total = 0;
  for (uint64_t n : injected) total += n;
  return total;
}

std::string ShardFaultStats::ToString() const {
  std::string out = "rounds=" + std::to_string(rounds_seen) +
                    " injected=" + std::to_string(TotalInjected());
  for (size_t i = 0; i < kShardFaultClassCount; ++i) {
    if (injected[i] == 0) continue;
    out += " ";
    out += ShardFaultClassName(static_cast<ShardFaultClass>(i));
    out += "=" + std::to_string(injected[i]);
  }
  return out;
}

ShardFaultInjector::ShardFaultInjector(const ShardFaultPlan& plan,
                                       uint64_t seed)
    : plan_(plan), rng_(seed) {}

void ShardFaultInjector::BeginRound(uint64_t round, uint32_t shards) {
  current_round_ = round;
  ++stats_.rounds_seen;
  round_faults_.assign(shards, std::nullopt);
  // Probability rolls first, in (shard, class) order: the rng consumes the
  // same number of draws per round regardless of outcomes only if every class
  // rolls, so roll all four classes for every shard and apply first-hit-wins
  // afterwards — the schedule is a pure function of (seed, round index).
  for (uint32_t s = 0; s < shards; ++s) {
    std::optional<ShardFaultClass> hit;
    for (size_t c = 0; c < kShardFaultClassCount; ++c) {
      const bool rolled = plan_.rate > 0.0 && rng_.NextDouble() < plan_.rate;
      if (rolled && !hit.has_value()) hit = static_cast<ShardFaultClass>(c);
    }
    round_faults_[s] = hit;
  }
  // Exact directives override the dice for their shard.
  for (const ShardFaultDirective& d : plan_.directives) {
    if (d.round == round && d.shard < shards) round_faults_[d.shard] = d.fault;
  }
}

std::optional<ShardFaultClass> ShardFaultInjector::FaultFor(
    uint32_t shard) const {
  if (shard >= round_faults_.size()) return std::nullopt;
  return round_faults_[shard];
}

void ShardFaultInjector::NoteInjected(ShardFaultClass fault) {
  ++stats_.injected[static_cast<size_t>(fault)];
}

}  // namespace scuba
