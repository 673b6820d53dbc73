// One place where ScubaOptions become a runnable engine.
//
// scuba_cli run/checkpoint/restore/recover/compare, the serve subcommand and
// benches all need the same mapping: engine name + options → a
// QueryProcessor (the production ShardedEngine at opt.shards >= 1 stripes, or
// a baseline), optionally wrapped with durability (manifest + per-shard WAL
// sink plus the supervised-stripe online-recovery hooks). The
// option-to-engine mapping lives here and callers keep only their
// command-specific I/O.

#ifndef SCUBA_SHARD_ENGINE_FACTORY_H_
#define SCUBA_SHARD_ENGINE_FACTORY_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/query_processor.h"
#include "core/scuba_engine.h"
#include "persist/crash.h"
#include "shard/shard_durability.h"
#include "shard/sharded_engine.h"
#include "stream/update_validator.h"

namespace scuba {

/// An engine plus a typed view into it. `engine` owns; `sharded` aliases it
/// (non-null for "scuba") so callers can reach engine surfaces — state
/// hashes, telemetry, shard health — without dynamic_cast.
struct EngineHandle {
  std::unique_ptr<QueryProcessor> engine;
  /// Always null: MakeEngine no longer builds the reference engine. Kept
  /// because bench_e2e still names it.
  ScubaEngine* scuba = nullptr;
  ShardedEngine* sharded = nullptr;  ///< set when engine is "scuba"

  /// State hash for determinism checks: EngineStateHash for the SCUBA
  /// engine, 0 for baselines (which define no snapshot form).
  uint64_t StateHash() const;

  /// Flushes buffered telemetry (SCUBA engine only; baselines emit none).
  Status FlushTelemetry() const;
};

/// Builds the engine `name` selects: "scuba" (a ShardedEngine over
/// opt.shards >= 1 stripes), "grid" (GridJoinEngine over opt.region /
/// opt.grid_cells), or "naive". Unknown names → kInvalidArgument.
Result<EngineHandle> MakeEngine(const ScubaOptions& opt,
                                std::string_view name = "scuba");

/// A durability sink bound to an engine, plus its typed view.
struct DurabilityHandle {
  std::unique_ptr<DurabilitySink> sink;  ///< null when no durable dir was given
  ShardedDurabilityManager* sharded = nullptr;
};

/// Opens manifest + per-shard WAL durability under `dir` for `engine` (which
/// must be the SCUBA engine — baselines have no snapshot form) and, for a
/// supervised engine, installs the online stripe-recovery hooks that rebuild
/// a failed stripe from `dir` between rounds. A directory in the retired
/// single-engine layout is kFailedPrecondition. `screen` (nullable) is
/// the validator whose state rides the snapshots; `vconfig` must describe it
/// when non-null. `crash` (nullable) arms crash injection. An empty `dir`
/// returns an empty handle, so callers can wire durability unconditionally.
Result<DurabilityHandle> OpenDurability(const std::string& dir,
                                        const ScubaOptions& opt,
                                        EngineHandle* engine,
                                        UpdateValidator* screen,
                                        const ValidatorConfig& vconfig,
                                        CrashInjector* crash = nullptr);

}  // namespace scuba

#endif  // SCUBA_SHARD_ENGINE_FACTORY_H_
