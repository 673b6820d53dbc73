#include "shard/engine_factory.h"

#include <utility>

#include "baseline/grid_join_engine.h"
#include "baseline/naive_join_engine.h"

namespace scuba {

uint64_t EngineHandle::StateHash() const {
  return sharded != nullptr ? EngineStateHash(*sharded) : 0;
}

Status EngineHandle::FlushTelemetry() const {
  return sharded != nullptr ? sharded->FlushTelemetry() : Status::OK();
}

Result<EngineHandle> MakeEngine(const ScubaOptions& opt,
                                std::string_view name) {
  EngineHandle handle;
  if (name == "scuba") {
    Result<std::unique_ptr<ShardedEngine>> e = ShardedEngine::Create(opt);
    if (!e.ok()) return e.status();
    handle.sharded = e->get();
    handle.engine = std::move(e).value();
    return handle;
  }
  if (name == "grid") {
    GridJoinOptions grid;
    grid.region = opt.region;
    grid.grid_cells = opt.grid_cells;
    Result<std::unique_ptr<GridJoinEngine>> e = GridJoinEngine::Create(grid);
    if (!e.ok()) return e.status();
    handle.engine = std::move(e).value();
    return handle;
  }
  if (name == "naive") {
    handle.engine = std::make_unique<NaiveJoinEngine>();
    return handle;
  }
  return Status::InvalidArgument("unknown engine: " + std::string(name) +
                                 " (scuba|grid|naive)");
}

Result<DurabilityHandle> OpenDurability(const std::string& dir,
                                        const ScubaOptions& opt,
                                        EngineHandle* engine,
                                        UpdateValidator* screen,
                                        const ValidatorConfig& vconfig,
                                        CrashInjector* crash) {
  DurabilityHandle handle;
  if (dir.empty()) return handle;
  if (engine->sharded == nullptr) {
    return Status::InvalidArgument(
        "--durable-dir requires --engine scuba (snapshots cover SCUBA "
        "engine state)");
  }
  Result<std::unique_ptr<ShardedDurabilityManager>> d =
      ShardedDurabilityManager::Open(dir, opt.checkpoint, engine->sharded,
                                     screen, /*rng=*/nullptr, crash);
  if (!d.ok()) return d.status();
  handle.sharded = d->get();
  handle.sink = std::move(d).value();
  // A supervised durable run can heal a failed stripe online: the recovery
  // hook rebuilds it from the durable root between rounds, and a reassign
  // eviction commits the reduced layout in a fresh checkpoint.
  if (engine->sharded->supervisor() != nullptr) {
    // The durable root carries validator state only when the run screens
    // (screen was passed to Open above); the twin must mirror that.
    const bool has_validator = screen != nullptr;
    engine->sharded->set_stripe_recovery(
        [dir, vconfig, has_validator](ShardedEngine* e, uint32_t s) {
          return RecoverShardStripe(dir, e, s,
                                    has_validator ? &vconfig : nullptr);
        });
    ShardedDurabilityManager* sharded = handle.sharded;
    engine->sharded->set_on_layout_changed(
        [sharded] { return sharded->OnLayoutChanged(); });
  }
  return handle;
}

}  // namespace scuba
