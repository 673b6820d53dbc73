#include "shard/engine_factory.h"

#include <utility>

#include "baseline/grid_join_engine.h"
#include "baseline/naive_join_engine.h"
#include "persist/snapshot.h"

namespace scuba {

uint64_t EngineHandle::StateHash() const {
  return scuba != nullptr ? EngineStateHash(*scuba) : 0;
}

Status EngineHandle::FlushTelemetry() const {
  return scuba != nullptr ? scuba->FlushTelemetry() : Status::OK();
}

Result<EngineHandle> MakeEngine(const ScubaOptions& opt,
                                std::string_view name) {
  EngineHandle handle;
  if (name == "scuba") {
    Result<std::unique_ptr<ScubaEngine>> e = ScubaEngine::Create(opt);
    if (!e.ok()) return e.status();
    handle.scuba = e->get();
    handle.sharded = handle.scuba;
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
                                        const ValidatorConfig& /*vconfig*/,
                                        CrashInjector* crash) {
  DurabilityHandle handle;
  if (dir.empty()) return handle;
  if (engine->scuba == nullptr) {
    return Status::InvalidArgument(
        "--durable-dir requires --engine scuba (snapshots cover SCUBA "
        "engine state)");
  }
  Result<std::unique_ptr<DurabilityManager>> d = DurabilityManager::Open(
      dir, opt.checkpoint, engine->scuba, screen, crash);
  if (!d.ok()) return d.status();
  handle.sink = std::move(d).value();
  // A supervised durable run can heal a failed window online: the recovery
  // hook rebuilds the engine's state from the durable root between rounds.
  if (engine->scuba->supervisor() != nullptr) {
    engine->scuba->set_stripe_recovery([dir](ScubaEngine* e, uint32_t w) {
      return RecoverWindow(dir, e, w);
    });
  }
  return handle;
}

}  // namespace scuba
