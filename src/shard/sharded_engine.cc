#include "shard/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "cluster/splitter.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "persist/snapshot.h"

namespace scuba {

namespace {

/// Absolute slack for the audit's distance comparisons (the reference
/// engine's tolerance): audits recompute derived quantities in a different
/// floating-point order.
constexpr double kAuditEps = 1e-6;

void AddViolation(InvariantAuditReport* report, std::string msg) {
  ++report->violations_total;
  if (report->violations.size() < InvariantAuditReport::kMaxViolationMessages) {
    report->violations.push_back(std::move(msg));
  }
}

void MergeAuditReports(const InvariantAuditReport& part,
                       InvariantAuditReport* total) {
  total->clusters_checked += part.clusters_checked;
  total->members_checked += part.members_checked;
  total->grid_keys_checked += part.grid_keys_checked;
  total->violations_total += part.violations_total;
  for (const std::string& v : part.violations) {
    if (total->violations.size() <
        InvariantAuditReport::kMaxViolationMessages) {
      total->violations.push_back(v);
    }
  }
}

}  // namespace

Result<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    const ScubaOptions& options) {
  SCUBA_RETURN_IF_ERROR(options.Validate());
  Result<ShardRouter> router =
      ShardRouter::Create(options.region, options.grid_cells, options.shards);
  if (!router.ok()) return router.status();
  // Not make_unique: the constructor is private.
  std::unique_ptr<ShardedEngine> engine(
      new ShardedEngine(options, std::move(router).value()));
  for (uint32_t s = 0; s < options.shards; ++s) {
    Result<GridIndex> grid =
        GridIndex::Create(options.region, options.grid_cells);
    if (!grid.ok()) return grid.status();
    engine->shards_.push_back(std::make_unique<EngineShard>(
        s, engine->router_.CellBegin(s), engine->router_.CellEnd(s),
        std::move(grid).value(), options));
  }
  if (options.supervision.Enabled()) {
    Result<std::unique_ptr<ShardSupervisor>> supervisor =
        ShardSupervisor::Create(options.supervision, engine->shard_count());
    if (!supervisor.ok()) return supervisor.status();
    engine->supervisor_ = std::move(supervisor).value();
  }
  if (options.telemetry.Enabled()) {
    Result<std::unique_ptr<EngineTelemetry>> telemetry =
        EngineTelemetry::Create(options.telemetry, engine->name());
    if (!telemetry.ok()) return telemetry.status();
    engine->InstallTelemetry(std::move(telemetry).value());
  }
  return engine;
}

ShardedEngine::ShardedEngine(const ScubaOptions& options, ShardRouter router)
    : options_(options),
      router_(std::move(router)),
      resolved_join_threads_(options.join_threads == 0
                                 ? ThreadPool::DefaultThreadCount()
                                 : options.join_threads) {
  stats_.join_threads = resolved_join_threads_;
  // Sharded ingest replays the per-update procedure serially (the shard fan
  // is a join/post-join device); the bit-identity contract does not depend
  // on it.
  stats_.ingest_threads = 1;
}

ThreadPool* ShardedEngine::JoinPool() {
  if (resolved_join_threads_ <= 1) return nullptr;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(
        std::min<uint32_t>(resolved_join_threads_, shard_count()));
  }
  return pool_.get();
}

size_t ShardedEngine::ClusterCount() const {
  size_t total = 0;
  for (const auto& sp : shards_) total += sp->store.ClusterCount();
  return total;
}

std::vector<ClusterId> ShardedEngine::GlobalSortedClusterIds() const {
  std::vector<ClusterId> cids;
  for (const auto& sp : shards_) {
    const std::vector<ClusterId> own = sp->store.SortedClusterIds();
    cids.insert(cids.end(), own.begin(), own.end());
  }
  // Shard stores partition the cluster set, so a plain sort merges them.
  std::sort(cids.begin(), cids.end());
  return cids;
}

ClusterId ShardedEngine::HomeOfAnywhere(EntityRef ref,
                                        EngineShard** owner_out) {
  for (auto& sp : shards_) {
    const ClusterId home = sp->store.HomeOf(ref);
    if (home != kInvalidClusterId) {
      *owner_out = sp.get();
      return home;
    }
  }
  *owner_out = nullptr;
  return kInvalidClusterId;
}

MovingCluster* ShardedEngine::GetClusterAnywhere(ClusterId cid,
                                                 EngineShard** owner_out) {
  for (auto& sp : shards_) {
    if (MovingCluster* cluster = sp->store.GetCluster(cid)) {
      *owner_out = sp.get();
      return cluster;
    }
  }
  *owner_out = nullptr;
  return nullptr;
}

const MovingCluster* ShardedEngine::GetClusterAnywhere(ClusterId cid) const {
  for (const auto& sp : shards_) {
    if (const MovingCluster* cluster = sp->store.GetCluster(cid)) {
      return cluster;
    }
  }
  return nullptr;
}

bool ShardedEngine::AnyGridContains(ClusterId cid) const {
  for (const auto& sp : shards_) {
    if (sp->grid.Contains(cid)) return true;
  }
  return false;
}

Status ShardedEngine::ApplyRegistration(ClusterId cid, const Circle& padded) {
  // Cell placement is pure geometry, identical on every grid; compute it once
  // to learn which stripes the circle touches, then let each touched grid
  // re-derive the same full cell list through its own Insert/Update (the
  // mirror invariant in engine_shard.h).
  scratch_cells_.clear();
  shards_[0]->grid.CellsForCircle(padded, &scratch_cells_);
  scratch_touched_.assign(shards_.size(), 0);
  for (uint32_t cell : scratch_cells_) {
    scratch_touched_[router_.ShardOfCell(cell)] = 1;
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    GridIndex& grid = shards_[s]->grid;
    const bool present = grid.Contains(cid);
    if (scratch_touched_[s]) {
      SCUBA_RETURN_IF_ERROR(present ? grid.Update(cid, padded)
                                    : grid.Insert(cid, padded));
    } else if (present) {
      SCUBA_RETURN_IF_ERROR(grid.Remove(cid));
    }
  }
  return Status::OK();
}

Status ShardedEngine::RemoveFromAllGrids(ClusterId cid) {
  bool removed = false;
  for (auto& sp : shards_) {
    if (sp->grid.Contains(cid)) {
      SCUBA_RETURN_IF_ERROR(sp->grid.Remove(cid));
      removed = true;
    }
  }
  if (!removed) {
    return Status::NotFound("cluster " + std::to_string(cid) +
                            " registered in no shard grid");
  }
  return Status::OK();
}

Status ShardedEngine::SyncAllGrids(MovingCluster* cluster) {
  // PlanClusterGridSync's exact float semantics against the union grid:
  // Contains == registered in any stripe, covered-check on the cluster's own
  // registered_bounds memo.
  const Circle needed = options_.query_reach_aware ? cluster->JoinBounds()
                                                   : cluster->Bounds();
  if (AnyGridContains(cluster->cid()) &&
      ContainsCircle(cluster->registered_bounds(), needed)) {
    return Status::OK();
  }
  const Circle padded{needed.center,
                      needed.radius + options_.grid_sync_padding};
  cluster->set_registered_bounds(padded);
  return ApplyRegistration(cluster->cid(), padded);
}

ClusterId ShardedEngine::FindCompatibleCluster(Point position, double speed,
                                               NodeId dest,
                                               EngineShard** owner_out) {
  auto check = [&](ClusterId cid, EngineShard** own) {
    const MovingCluster* c = GetClusterAnywhere(cid, own);
    return c != nullptr &&
           c->SatisfiesJoinConditions(position, speed, dest, options_.theta_d,
                                      options_.theta_s);
  };

  // The minimum compatible cid wins (the clusterer's rule), which also makes
  // the choice independent of the entry-order differences between a stripe
  // grid and the single grid — their cell entry sets are equal by the mirror
  // invariant.
  ClusterId best = kInvalidClusterId;
  EngineShard* best_owner = nullptr;
  if (!options_.probe_theta_d_disk) {
    const EngineShard& probe = *shards_[router_.ShardOfPoint(position)];
    for (uint32_t cid : probe.grid.EntriesNear(position)) {
      EngineShard* own = nullptr;
      if ((best == kInvalidClusterId || cid < best) && check(cid, &own)) {
        best = cid;
        best_owner = own;
      }
    }
    *owner_out = best_owner;
    return best;
  }

  // Ablation variant: gather candidates from every cell within theta_d, each
  // read from its stripe owner's grid.
  scratch_cells_.clear();
  const Rect probe{position.x - options_.theta_d, position.y - options_.theta_d,
                   position.x + options_.theta_d,
                   position.y + options_.theta_d};
  shards_[0]->grid.CellsForRect(probe, &scratch_cells_);
  for (uint32_t cell : scratch_cells_) {
    const EngineShard& shard = *shards_[router_.ShardOfCell(cell)];
    for (uint32_t cid : shard.grid.CellEntries(cell)) {
      EngineShard* own = nullptr;
      if ((best == kInvalidClusterId || cid < best) && check(cid, &own)) {
        best = cid;
        best_owner = own;
      }
    }
  }
  *owner_out = best_owner;
  return best;
}

Status ShardedEngine::ReplayUpdate(EntityKind kind, const LocationUpdate* obj,
                                   const QueryUpdate* qry) {
  // Line-for-line mirror of LeaderFollowerClusterer::ProcessUpdate with the
  // store/grid operations resolved across the shard set. Any drift here
  // breaks the sharded-vs-single bit-identity contract.
  const Point position =
      (kind == EntityKind::kObject) ? obj->position : qry->position;
  const double speed = (kind == EntityKind::kObject) ? obj->speed : qry->speed;
  const NodeId dest =
      (kind == EntityKind::kObject) ? obj->dest_node : qry->dest_node;
  const uint32_t id = (kind == EntityKind::kObject) ? obj->oid : qry->qid;
  const EntityRef ref{kind, id};

  if (kind == EntityKind::kObject) {
    meta_.UpsertObjectAttrs(obj->oid, obj->attrs);
  } else {
    meta_.UpsertQueryAttrs(qry->qid, qry->attrs);
  }

  EngineShard* owner = nullptr;
  const ClusterId home = HomeOfAnywhere(ref, &owner);
  if (home != kInvalidClusterId) {
    MovingCluster* cluster = owner->store.GetCluster(home);
    SCUBA_CHECK_MSG(cluster != nullptr,
                    "ClusterHome points at a missing cluster");
    if (cluster->SatisfiesJoinConditions(position, speed, dest,
                                         options_.theta_d, options_.theta_s)) {
      Status s = (kind == EntityKind::kObject)
                     ? cluster->UpdateObjectMember(*obj)
                     : cluster->UpdateQueryMember(*qry);
      SCUBA_RETURN_IF_ERROR(s);
      ++clusterer_stats_.members_refreshed;
      if (owner->nucleus_radius > 0.0 &&
          cluster->ShedMemberIfInNucleus(ref, owner->nucleus_radius)) {
        ++clusterer_stats_.members_shed;
      }
      return SyncAllGrids(cluster);
    }
    SCUBA_RETURN_IF_ERROR(cluster->RemoveMember(ref));
    SCUBA_RETURN_IF_ERROR(owner->store.ClearHome(ref));
    ++clusterer_stats_.members_departed;
    if (cluster->size() == 0) {
      SCUBA_RETURN_IF_ERROR(RemoveFromAllGrids(home));
      SCUBA_RETURN_IF_ERROR(owner->store.RemoveCluster(home));
      ++clusterer_stats_.clusters_dissolved_empty;
    } else {
      SCUBA_RETURN_IF_ERROR(SyncAllGrids(cluster));
    }
  }

  EngineShard* target_owner = nullptr;
  const ClusterId target =
      FindCompatibleCluster(position, speed, dest, &target_owner);
  if (target != kInvalidClusterId) {
    MovingCluster* cluster = target_owner->store.GetCluster(target);
    if (kind == EntityKind::kObject) {
      cluster->AbsorbObject(*obj);
    } else {
      cluster->AbsorbQuery(*qry);
    }
    SCUBA_RETURN_IF_ERROR(target_owner->store.SetHome(ref, target));
    ++clusterer_stats_.members_absorbed;
    if (target_owner->nucleus_radius > 0.0 &&
        cluster->ShedMemberIfInNucleus(ref, target_owner->nucleus_radius)) {
      ++clusterer_stats_.members_shed;
    }
    return SyncAllGrids(cluster);
  }

  const ClusterId cid = meta_.NextClusterId();
  MovingCluster fresh = (kind == EntityKind::kObject)
                            ? MovingCluster::FromObject(cid, *obj)
                            : MovingCluster::FromQuery(cid, *qry);
  SCUBA_RETURN_IF_ERROR(SyncAllGrids(&fresh));
  EngineShard* fresh_owner = OwnerShardFor(fresh);
  SCUBA_RETURN_IF_ERROR(fresh_owner->store.AddCluster(std::move(fresh)));
  ++clusterer_stats_.clusters_created;
  return Status::OK();
}

Status ShardedEngine::IngestObjectUpdate(const LocationUpdate& update) {
  if (Status v = ValidateUpdate(update); !v.ok()) {
    if (options_.on_bad_update == BadUpdatePolicy::kStrict) return v;
    ++stats_.updates_quarantined;
    return Status::OK();
  }
  TelemetryEnsureRound();
  Stopwatch sw;
  Status s = ReplayUpdate(EntityKind::kObject, &update, nullptr);
  const double elapsed = sw.ElapsedSeconds();
  pending_prejoin_seconds_ += elapsed;
  pending_prejoin_worker_seconds_ += elapsed;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    tc.Accumulate(tc.EnsureSpan(tc.root(), "ingest"), elapsed);
  }
  return s;
}

Status ShardedEngine::IngestQueryUpdate(const QueryUpdate& update) {
  if (Status v = ValidateUpdate(update); !v.ok()) {
    if (options_.on_bad_update == BadUpdatePolicy::kStrict) return v;
    ++stats_.updates_quarantined;
    return Status::OK();
  }
  TelemetryEnsureRound();
  Stopwatch sw;
  Status s = ReplayUpdate(EntityKind::kQuery, nullptr, &update);
  const double elapsed = sw.ElapsedSeconds();
  pending_prejoin_seconds_ += elapsed;
  pending_prejoin_worker_seconds_ += elapsed;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    tc.Accumulate(tc.EnsureSpan(tc.root(), "ingest"), elapsed);
  }
  return s;
}

Status ShardedEngine::IngestBatch(std::span<const LocationUpdate> objects,
                                  std::span<const QueryUpdate> queries) {
  // ScubaEngine::IngestBatch's validation contract: the whole batch screens
  // up front; strict rejects on the first offender, quarantine drops exactly
  // the tuples the per-update path would skip.
  size_t bad = 0;
  Status first_bad = Status::OK();
  for (const LocationUpdate& u : objects) {
    if (Status v = ValidateUpdate(u); !v.ok()) {
      if (first_bad.ok()) first_bad = std::move(v);
      ++bad;
    }
  }
  for (const QueryUpdate& u : queries) {
    if (Status v = ValidateUpdate(u); !v.ok()) {
      if (first_bad.ok()) first_bad = std::move(v);
      ++bad;
    }
  }
  std::vector<LocationUpdate> kept_objects;
  std::vector<QueryUpdate> kept_queries;
  if (bad > 0) {
    if (options_.on_bad_update == BadUpdatePolicy::kStrict) return first_bad;
    stats_.updates_quarantined += bad;
    kept_objects.reserve(objects.size());
    for (const LocationUpdate& u : objects) {
      if (ValidateUpdate(u).ok()) kept_objects.push_back(u);
    }
    kept_queries.reserve(queries.size());
    for (const QueryUpdate& u : queries) {
      if (ValidateUpdate(u).ok()) kept_queries.push_back(u);
    }
    objects = kept_objects;
    queries = kept_queries;
  }
  TelemetryEnsureRound();
  Stopwatch sw;
  for (const LocationUpdate& u : objects) {
    SCUBA_RETURN_IF_ERROR(ReplayUpdate(EntityKind::kObject, &u, nullptr));
  }
  for (const QueryUpdate& u : queries) {
    SCUBA_RETURN_IF_ERROR(ReplayUpdate(EntityKind::kQuery, nullptr, &u));
  }
  const double wall = sw.ElapsedSeconds();
  pending_prejoin_seconds_ += wall;
  pending_prejoin_worker_seconds_ += wall;  // serial replay: busy == wall
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    const int32_t ingest = tc.EnsureSpan(tc.root(), "ingest");
    tc.Accumulate(ingest, wall, wall);
    tc.Accumulate(tc.EnsureSpan(ingest, "apply"), wall);
  }
  return Status::OK();
}

Status ShardedEngine::RunShardJoin(EngineShard& shard) {
  Stopwatch sw;
  shard.results.Clear();
  const uint64_t comparisons_before = shard.join.counters().comparisons;
  // Border clusters registered in this stripe but owned by a neighbor are
  // read straight from the neighbor's store: stores are immutable for the
  // whole join phase and the executor only reads them, so no copy and no
  // lock is needed.
  std::vector<const ClusterStore*> neighbors;
  neighbors.reserve(shards_.size() - 1);
  for (const auto& other : shards_) {
    if (other.get() != &shard) neighbors.push_back(&other->store);
  }
  Status s = shard.join.ExecuteScoped(shard.store, neighbors, shard.grid,
                                      shard.cell_begin, shard.cell_end,
                                      &shard.results);
  shard.last_ghosts = shard.join.last_neighbor_reads();
  shard.last_comparisons =
      shard.join.counters().comparisons - comparisons_before;
  shard.last_busy_seconds = sw.ElapsedSeconds();
  return s;
}

Status ShardedEngine::Evaluate(Timestamp now, ResultSet* results) {
  if (results == nullptr) {
    return Status::InvalidArgument("results must be non-null");
  }
  TelemetryEnsureRound();

  const uint32_t n = shard_count();
  const bool supervised = supervisor_ != nullptr;
  if (supervised) {
    // Rounds count Evaluate calls from 1. The fault schedule is rolled (and
    // any corrupt-state injection applied) serially before workers start, so
    // it is a pure function of (seed, round index, shard count).
    supervisor_->BeginRound(stats_.evaluations + 1);
    ApplyInjectedCorruption();
  }

  Stopwatch join_sw;
  std::vector<Status> shard_status(n);
  // Stale slices: quarantined before the round, or failed during it under a
  // non-fail policy. Sized before the fan-out so workers never touch
  // supervisor state.
  std::vector<char> stale(n, 0);
  if (supervised) {
    for (uint32_t s = 0; s < n; ++s) {
      if (supervisor_->Quarantined(s)) stale[s] = 1;
    }
  }
  auto run = [&](uint32_t s) {
    if (stale[s]) return;  // quarantined: serves its last-published slice
    if (!supervised) {
      shard_status[s] = RunShardJoin(*shards_[s]);
      return;
    }
    shard_status[s] = supervisor_->SuperviseJoinTask(s, [this, s]() -> Status {
      // Detection half of the barrier: a stripe whose invariants fail must
      // not publish a slice computed over damaged state.
      const InvariantAuditReport audit = AuditShardStripe(s);
      if (!audit.clean()) {
        return Status::DataLoss("shard " + std::to_string(s) +
                                " failed its stripe audit: " +
                                audit.ToString());
      }
      return RunShardJoin(*shards_[s]);
    });
  };
  if (resolved_join_threads_ > 1 && n > 1) {
    SCUBA_RETURN_IF_ERROR(RunTaskSet(JoinPool(), n, run));
  } else {
    for (uint32_t s = 0; s < n; ++s) run(s);
  }
  // Serial triage: injection accounting and quarantine transitions happen
  // only at the coordinator.
  if (supervised) {
    for (uint32_t s = 0; s < n; ++s) {
      if (stale[s] || shard_status[s].ok()) continue;
      const std::optional<ShardFaultClass> fault = supervisor_->PlannedFault(s);
      if (fault == ShardFaultClass::kTaskFailure ||
          fault == ShardFaultClass::kStall) {
        supervisor_->injector()->NoteInjected(*fault);
      }
      supervisor_->NoteJoinFailure(s, shard_status[s]);
      if (options_.supervision.on_failure == ShardFailurePolicy::kFail) {
        return shard_status[s];
      }
      stale[s] = 1;
    }
  } else {
    for (uint32_t s = 0; s < n; ++s) SCUBA_RETURN_IF_ERROR(shard_status[s]);
  }
  double busy = 0.0;
  uint64_t round_ghosts = 0;
  uint32_t stale_count = 0;
  // A stale slice serves the shard's last published results; a fresh one,
  // under supervision, becomes the next round's fallback.
  std::vector<const ResultSet*> slices(n);
  for (uint32_t s = 0; s < n; ++s) {
    if (stale[s]) {
      ++stale_count;
      slices[s] = &shards_[s]->last_good_results;
      continue;
    }
    busy += shards_[s]->last_busy_seconds;
    round_ghosts += shards_[s]->last_ghosts;
    if (supervised) shards_[s]->last_good_results = shards_[s]->results;
    slices[s] = &shards_[s]->results;
  }
  ghosts_published_ += round_ghosts;
  // Every slice is normalized, and owner-cell dedup makes fresh slices
  // disjoint; a stale slice may overlap fresh ones (its pairs' owner cells
  // can have migrated since it was published). Merging the sorted slices and
  // deduplicating seals the round's set without a full re-sort.
  results->Clear();
  results->MergeNormalized(slices);
  for (uint32_t s = 0; s < n; ++s) {
    if (stale[s]) results->MarkDegraded(s);
  }
  if (stale_count > 0) supervisor_->NoteDegradedRound();

  stats_.last_join_seconds = join_sw.ElapsedSeconds();
  stats_.total_join_seconds += stats_.last_join_seconds;
  stats_.last_join_worker_seconds = busy;
  stats_.total_join_worker_seconds += busy;
  stats_.last_result_count = results->size();
  stats_.total_results += results->size();
  ++stats_.evaluations;
  ClusterJoinExecutor::Counters ctr;
  for (const auto& sp : shards_) ctr += sp->join.counters();
  stats_.comparisons = ctr.comparisons;
  stats_.bounds_checks = ctr.bounds_checks;
  stats_.cluster_pairs_tested = ctr.pairs_tested;
  stats_.cluster_pairs_overlapping = ctr.pairs_overlapping;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    const int32_t join_span = tc.EnsureSpan(tc.root(), "join");
    tc.Accumulate(join_span, stats_.last_join_seconds, busy);
    double between = 0.0;
    double within = 0.0;
    for (uint32_t s = 0; s < n; ++s) {
      if (stale[s]) continue;  // no fresh work this round
      const ClusterJoinExecutor& join = shards_[s]->join;
      within += join.last_within_seconds();
      between += std::max(0.0, join.last_worker_seconds() -
                                   join.last_within_seconds());
    }
    tc.Accumulate(tc.EnsureSpan(join_span, "between"), between);
    tc.Accumulate(tc.EnsureSpan(join_span, "within"), within);
    for (uint32_t s = 0; s < n; ++s) {
      if (stale[s]) continue;
      tc.Accumulate(
          tc.EnsureSpan(join_span, "engine_shard", static_cast<int32_t>(s)),
          shards_[s]->last_busy_seconds, shards_[s]->last_busy_seconds);
    }
  }

  Stopwatch maint_sw;
  double postjoin_worker = 0.0;
  last_handoff_seconds_ = 0.0;
  PostJoinTimings postjoin_timings;
  Status s = PostJoinMaintenance(
      now, &postjoin_worker, telemetry_ != nullptr ? &postjoin_timings : nullptr);
  stats_.last_postjoin_seconds = maint_sw.ElapsedSeconds();
  stats_.total_postjoin_seconds += stats_.last_postjoin_seconds;
  stats_.last_postjoin_worker_seconds = postjoin_worker;
  stats_.total_postjoin_worker_seconds += postjoin_worker;
  stats_.last_ingest_seconds = pending_prejoin_seconds_;
  stats_.total_ingest_seconds += pending_prejoin_seconds_;
  stats_.last_ingest_worker_seconds = pending_prejoin_worker_seconds_;
  stats_.total_ingest_worker_seconds += pending_prejoin_worker_seconds_;
  stats_.last_maintenance_seconds =
      stats_.last_ingest_seconds + stats_.last_postjoin_seconds;
  stats_.total_maintenance_seconds += stats_.last_maintenance_seconds;
  pending_prejoin_seconds_ = 0.0;
  pending_prejoin_worker_seconds_ = 0.0;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    const int32_t pj = tc.EnsureSpan(tc.root(), "postjoin");
    tc.Accumulate(pj, stats_.last_postjoin_seconds, postjoin_worker);
    postjoin_timings.AccumulateSpans(tc, pj);
    tc.Accumulate(tc.EnsureSpan(tc.root(), "handoff"), last_handoff_seconds_);
  }
  if (s.ok() && options_.rebalance == RebalanceMode::kObserve) {
    ObserveBalance();
  }
  if (s.ok() && supervised) {
    // Online recovery between rounds: a failure's first attempt runs here,
    // at the end of the SAME round — no ingest has interleaved, so a
    // successful rebuild converges exactly to the uninterrupted twin.
    SCUBA_RETURN_IF_ERROR(RunScheduledRecoveries());
  }
  if (s.ok() && options_.audit_every_n_rounds > 0 &&
      stats_.evaluations % options_.audit_every_n_rounds == 0) {
    SCUBA_RETURN_IF_ERROR(AuditAndHeal());
  }
  return s;
}

Status ShardedEngine::SplitOversizedClusters() {
  const double max_radius = options_.split_radius_factor * options_.theta_d;
  const std::vector<ClusterId> cids = GlobalSortedClusterIds();
  for (ClusterId cid : cids) {
    EngineShard* owner = nullptr;
    MovingCluster* cluster = GetClusterAnywhere(cid, &owner);
    SCUBA_CHECK(cluster != nullptr);
    cluster->RecomputeTightBounds();
    if (!ShouldSplit(*cluster, max_radius)) continue;
    // Named locals: id assignment order must match the reference engine's.
    const ClusterId left_id = meta_.NextClusterId();
    const ClusterId right_id = meta_.NextClusterId();
    Result<SplitResult> split = SplitCluster(*cluster, left_id, right_id);
    if (!split.ok()) continue;  // co-located members etc.: keep as-is
    SCUBA_RETURN_IF_ERROR(RemoveFromAllGrids(cid));
    SCUBA_RETURN_IF_ERROR(owner->store.RemoveCluster(cid));
    SCUBA_RETURN_IF_ERROR(SyncAllGrids(&split->left));
    SCUBA_RETURN_IF_ERROR(SyncAllGrids(&split->right));
    EngineShard* left_owner = OwnerShardFor(split->left);
    EngineShard* right_owner = OwnerShardFor(split->right);
    SCUBA_RETURN_IF_ERROR(left_owner->store.AddCluster(std::move(split->left)));
    SCUBA_RETURN_IF_ERROR(
        right_owner->store.AddCluster(std::move(split->right)));
    ++phase_stats_.clusters_split;
  }
  return Status::OK();
}

Status ShardedEngine::MigrateOwnership() {
  // Serial, globally cid-ordered: deterministic regardless of which shard
  // performed the round's upkeep first. Ownership is unobservable to results
  // and state hashes (the copy is exact and homes move with the cluster), so
  // migration cannot break bit-identity.
  const std::vector<ClusterId> cids = GlobalSortedClusterIds();
  for (ClusterId cid : cids) {
    EngineShard* owner = nullptr;
    MovingCluster* cluster = GetClusterAnywhere(cid, &owner);
    SCUBA_CHECK(cluster != nullptr);
    EngineShard* desired = OwnerShardFor(*cluster);
    if (desired == owner) continue;
    // Copy, not move: RemoveCluster clears the members' homes by walking the
    // stored cluster, so it must stay intact until it is removed.
    MovingCluster copy = *cluster;
    SCUBA_RETURN_IF_ERROR(owner->store.RemoveCluster(cid));
    SCUBA_RETURN_IF_ERROR(desired->store.AddCluster(std::move(copy)));
    ++handoffs_;
  }
  return Status::OK();
}

Status ShardedEngine::PostJoinMaintenance(Timestamp now,
                                          double* worker_seconds,
                                          PostJoinTimings* timings) {
  *worker_seconds = 0.0;
  if (options_.enable_cluster_splitting) {
    SCUBA_RETURN_IF_ERROR(SplitOversizedClusters());
  }
  // Per-cluster upkeep runs as one task per shard over that shard's own
  // clusters (clusters are store-disjoint; grids are only read); the
  // mutations below apply serially in globally ascending cid order.
  const std::vector<ClusterId> cids = GlobalSortedClusterIds();
  struct Outcome {
    uint64_t shed = 0;
    bool dissolve = false;
    bool resync = false;
    Circle registration;
  };
  std::vector<Outcome> outcomes(cids.size());
  std::vector<EngineShard*> owners(cids.size(), nullptr);
  std::vector<PostJoinTimings> shard_timings(
      timings != nullptr ? shard_count() : 0);
  auto upkeep = [&](uint32_t s) {
    EngineShard& shard = *shards_[s];
    PostJoinTimings* tt = timings != nullptr ? &shard_timings[s] : nullptr;
    Stopwatch lap;
    // Adds the time since the last lap to one sub-step (telemetry only).
    auto take_lap = [&](double PostJoinTimings::*into) {
      if (tt != nullptr) {
        tt->*into += lap.ElapsedSeconds();
        lap.Start();
      }
    };
    for (ClusterId cid : shard.store.SortedClusterIds()) {
      const size_t slot = static_cast<size_t>(
          std::lower_bound(cids.begin(), cids.end(), cid) - cids.begin());
      owners[slot] = &shard;
      MovingCluster* cluster = shard.store.GetCluster(cid);
      SCUBA_CHECK(cluster != nullptr);
      Outcome& out = outcomes[slot];
      if (tt != nullptr) lap.Start();
      cluster->RecomputeTightBounds();
      take_lap(&PostJoinTimings::tighten_seconds);
      if (shard.nucleus_radius > 0.0) {
        out.shed = cluster->ShedPositions(shard.nucleus_radius);
      }
      take_lap(&PostJoinTimings::shed_seconds);
      if (cluster->ComputeExpiryTime(now) <= now + options_.delta) {
        out.dissolve = true;
        take_lap(&PostJoinTimings::expire_seconds);
        continue;
      }
      take_lap(&PostJoinTimings::expire_seconds);
      cluster->Translate(cluster->Velocity() *
                         static_cast<double>(options_.delta));
      const Circle needed = options_.query_reach_aware ? cluster->JoinBounds()
                                                       : cluster->Bounds();
      if (!AnyGridContains(cid) ||
          !ContainsCircle(cluster->registered_bounds(), needed)) {
        const Circle padded{needed.center,
                            needed.radius + options_.grid_sync_padding};
        cluster->set_registered_bounds(padded);
        out.resync = true;
        out.registration = padded;
      }
      take_lap(&PostJoinTimings::translate_seconds);
    }
  };
  const uint32_t n = shard_count();
  if (resolved_join_threads_ > 1 && n > 1 && cids.size() > 1) {
    SCUBA_RETURN_IF_ERROR(RunTaskSet(JoinPool(), n, upkeep, worker_seconds));
  } else {
    Stopwatch serial;
    for (uint32_t s = 0; s < n; ++s) upkeep(s);
    *worker_seconds = serial.ElapsedSeconds();
  }
  for (const PostJoinTimings& tt : shard_timings) *timings += tt;
  // The serial apply is part of the step that planned it, as in the
  // reference engine's serial loop: dissolutions count under expire,
  // re-registrations under translate.
  Stopwatch apply_lap;
  for (size_t i = 0; i < cids.size(); ++i) {
    const Outcome& out = outcomes[i];
    phase_stats_.members_shed_maintenance += out.shed;
    if (!out.dissolve && !out.resync) continue;
    if (timings != nullptr) apply_lap.Start();
    if (out.dissolve) {
      SCUBA_RETURN_IF_ERROR(RemoveFromAllGrids(cids[i]));
      SCUBA_RETURN_IF_ERROR(owners[i]->store.RemoveCluster(cids[i]));
      ++phase_stats_.clusters_dissolved_expired;
    } else {
      SCUBA_RETURN_IF_ERROR(ApplyRegistration(cids[i], out.registration));
    }
    if (timings != nullptr) {
      (out.dissolve ? timings->expire_seconds : timings->translate_seconds) +=
          apply_lap.ElapsedSeconds();
    }
  }

  Stopwatch handoff_sw;
  SCUBA_RETURN_IF_ERROR(MigrateOwnership());
  last_handoff_seconds_ = handoff_sw.ElapsedSeconds();

  // Per-shard shedder feedback with shard-local memory estimates. kFixed /
  // kNone radii are position-independent constants (bit-identical to the
  // reference engine); kAdaptive legitimately diverges — see the class
  // comment.
  for (auto& sp : shards_) {
    sp->shedder.ObserveMemoryUsage(
        sizeof(EngineShard) + sp->store.EstimateMemoryUsage() +
        sp->grid.EstimateMemoryUsage() + sp->join.EstimateMemoryUsage());
    sp->nucleus_radius = sp->shedder.nucleus_radius();
  }
  return Status::OK();
}

void ShardedEngine::ObserveBalance() {
  const uint32_t n = shard_count();
  if (n <= 1) return;
  // Join comparisons are the deterministic load signal (same on every run of
  // a fixed workload); cluster counts stand in when a round compared nothing.
  bool use_comparisons = false;
  for (const auto& sp : shards_) {
    use_comparisons = use_comparisons || sp->last_comparisons > 0;
  }
  double total = 0.0;
  double max_load = -1.0;
  uint32_t max_shard = 0;
  for (uint32_t s = 0; s < n; ++s) {
    const double load =
        use_comparisons ? static_cast<double>(shards_[s]->last_comparisons)
                        : static_cast<double>(shards_[s]->store.ClusterCount());
    total += load;
    if (load > max_load) {
      max_load = load;
      max_shard = s;
    }
  }
  if (total <= 0.0) return;
  const double imbalance = max_load * n / total;
  constexpr double kImbalanceThreshold = 1.5;
  if (imbalance <= kImbalanceThreshold) return;
  // Only a stripe with at least two rows can be split.
  if (router_.RowEnd(max_shard) - router_.RowBegin(max_shard) < 2) return;
  const uint32_t split_row =
      (router_.RowBegin(max_shard) + router_.RowEnd(max_shard)) / 2;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "shard %u carries %.2fx the mean %s load; consider splitting "
                "rows [%u, %u) at row %u",
                max_shard, imbalance,
                use_comparisons ? "join-comparison" : "cluster",
                router_.RowBegin(max_shard), router_.RowEnd(max_shard),
                split_row);
  last_recommendation_ = buf;
  ++recommendations_;
  std::fprintf(stderr, "[rebalance] round %llu: %s\n",
               static_cast<unsigned long long>(stats_.evaluations),
               last_recommendation_.c_str());
}

InvariantAuditReport ShardedEngine::AuditInvariants() const {
  InvariantAuditReport total;
  for (uint32_t s = 0; s < shard_count(); ++s) {
    MergeAuditReports(AuditShardStripe(s), &total);
  }
  return total;
}

InvariantAuditReport ShardedEngine::AuditShardStripe(uint32_t shard) const {
  InvariantAuditReport report;
  const EngineShard& self = *shards_[shard];
  const std::string prefix = "stripe " + std::to_string(shard);

  // Store side: this stripe's own clusters, with the reference engine's
  // per-cluster rules (core/scuba_engine.cc AuditInvariants).
  if (Status s = self.store.ValidateConsistency(); !s.ok()) {
    AddViolation(&report, prefix + " store: " + s.message());
  }
  for (ClusterId cid : self.store.SortedClusterIds()) {
    const MovingCluster* cluster = self.store.GetCluster(cid);
    SCUBA_CHECK(cluster != nullptr);
    ++report.clusters_checked;
    const std::string tag = prefix + " cluster " + std::to_string(cid);
    if (Status s = cluster->ValidateMemberIndex(); !s.ok()) {
      AddViolation(&report, tag + ": " + s.message());
    }
    for (const ClusterMember& m : cluster->members()) {
      ++report.members_checked;
      const double d =
          Distance(cluster->centroid(), cluster->MemberPosition(m));
      if (d > cluster->radius() + kAuditEps) {
        AddViolation(&report, tag + ": member (" +
                                  std::to_string(static_cast<int>(m.kind)) +
                                  "," + std::to_string(m.id) + ") lies " +
                                  std::to_string(d - cluster->radius()) +
                                  " outside the radius");
        break;  // one radius violation per cluster is enough signal
      }
    }
    if (!AnyGridContains(cid)) {
      AddViolation(&report, tag + ": missing from every shard grid");
      continue;
    }
    const Circle needed =
        options_.query_reach_aware ? cluster->JoinBounds() : cluster->Bounds();
    const Circle& reg = cluster->registered_bounds();
    if (Distance(reg.center, needed.center) + needed.radius >
        reg.radius + kAuditEps) {
      AddViolation(&report,
                   tag + ": registered bounds no longer cover the cluster");
    }
  }

  // Grid side, self-blaming: this stripe's mirror must hold exactly the
  // registered clusters — whichever stripe owns them — whose circle touches
  // the stripe, each under its full global cell list (the mirror invariant
  // in engine_shard.h). Damage to stripe s's grid is always reported here,
  // by s, never attributed to the owner. Local scratch keeps this const and
  // safe from concurrent worker tasks (stores and grids are immutable for
  // the whole join phase).
  std::vector<uint32_t> expected_cells;
  for (const auto& sp : shards_) {
    for (ClusterId cid : sp->store.SortedClusterIds()) {
      const MovingCluster* cluster = sp->store.GetCluster(cid);
      SCUBA_CHECK(cluster != nullptr);
      if (!AnyGridContains(cid)) continue;  // flagged by the owner's audit
      const std::string tag = prefix + " cluster " + std::to_string(cid);
      expected_cells.clear();
      self.grid.CellsForCircle(cluster->registered_bounds(), &expected_cells);
      bool touches = false;
      for (uint32_t cell : expected_cells) {
        if (cell >= self.cell_begin && cell < self.cell_end) {
          touches = true;
          break;
        }
      }
      if (!touches) {
        if (self.grid.Contains(cid)) {
          AddViolation(&report, tag +
                                    ": registered in the stripe's grid but "
                                    "touches none of its cells");
        }
        continue;
      }
      if (!self.grid.Contains(cid)) {
        AddViolation(
            &report,
            tag + ": touches the stripe but is missing from its grid");
        continue;
      }
      const std::vector<uint32_t>* actual = self.grid.CellsOf(cid);
      SCUBA_CHECK(actual != nullptr);  // Contains(cid) held above
      std::vector<uint32_t> actual_sorted = *actual;
      std::sort(actual_sorted.begin(), actual_sorted.end());
      std::sort(expected_cells.begin(), expected_cells.end());
      if (actual_sorted != expected_cells) {
        AddViolation(&report, tag + ": grid cell placement diverges (" +
                                  std::to_string(actual_sorted.size()) +
                                  " cells occupied, " +
                                  std::to_string(expected_cells.size()) +
                                  " expected)");
      }
    }
  }
  // Reverse direction: every key in the stripe's grid must name a cluster
  // stored somewhere.
  for (uint32_t key : self.grid.Keys()) {
    ++report.grid_keys_checked;
    if (GetClusterAnywhere(key) == nullptr) {
      AddViolation(&report, prefix + " grid: orphan key " +
                                std::to_string(key) +
                                " names no stored cluster");
    }
  }
  return report;
}

Status ShardedEngine::AuditAndHeal() {
  ++stats_.invariant_audits;
  const InvariantAuditReport report = AuditInvariants();
  if (report.clean()) return Status::OK();
  stats_.invariant_violations += report.violations_total;
  SCUBA_RETURN_IF_ERROR(RebuildGridsFromStores());
  ++stats_.invariant_repairs;
  ++stats_.invariant_audits;
  const InvariantAuditReport recheck = AuditInvariants();
  if (!recheck.clean()) {
    return Status::Corruption(
        "invariant audit still failing after grid rebuild: " +
        recheck.ToString());
  }
  return Status::OK();
}

Status ShardedEngine::RebuildGridsFromStores() {
  for (auto& sp : shards_) sp->grid.Clear();
  for (ClusterId cid : GlobalSortedClusterIds()) {
    EngineShard* owner = nullptr;
    MovingCluster* cluster = GetClusterAnywhere(cid, &owner);
    SCUBA_CHECK(cluster != nullptr);
    // Reset the lazy-registration memo so the sync re-registers from scratch
    // instead of trusting stale bounds.
    cluster->set_registered_bounds(Circle{});
    SCUBA_RETURN_IF_ERROR(SyncAllGrids(cluster));
  }
  return Status::OK();
}

void ShardedEngine::ApplyInjectedCorruption() {
  ShardFaultInjector* injector = supervisor_->injector();
  if (injector == nullptr) return;
  for (uint32_t s = 0; s < shard_count(); ++s) {
    if (supervisor_->Quarantined(s)) continue;
    if (injector->FaultFor(s) != ShardFaultClass::kCorruptState) continue;
    // Damage model: drop the lowest-cid border cluster (one also registered
    // in another stripe's grid) from this stripe's mirror. The store stays
    // intact and the other stripes still serve the cluster, so the round's
    // post-join runs unmodified and state stays convergent with an
    // uninterrupted twin; the stripe's own audit catches the hole before its
    // join can publish. A stripe with no border cluster simply doesn't get
    // corrupted this round (the injection is not counted as applied).
    GridIndex& grid = shards_[s]->grid;
    uint32_t victim = 0;
    bool found = false;
    for (uint32_t key : grid.Keys()) {
      if (found && key >= victim) continue;
      bool elsewhere = false;
      for (const auto& other : shards_) {
        if (other.get() == shards_[s].get()) continue;
        if (other->grid.Contains(key)) {
          elsewhere = true;
          break;
        }
      }
      if (elsewhere) {
        victim = key;
        found = true;
      }
    }
    if (!found) continue;
    const Status removed = grid.Remove(victim);
    SCUBA_CHECK_MSG(removed.ok(),
                    "corrupt-state injection failed to remove its victim");
    injector->NoteInjected(ShardFaultClass::kCorruptState);
  }
}

Status ShardedEngine::RunScheduledRecoveries() {
  Stopwatch clock;
  bool attempted = false;
  for (uint32_t s = 0; s < shard_count(); ++s) {
    if (!supervisor_->RecoveryDue(s)) continue;
    attempted = true;
    supervisor_->BeginRecoveryAttempt(s);
    const Status attempt = AttemptStripeRecovery(s);
    if (attempt.ok()) {
      supervisor_->NoteRecoverySuccess(s);
      continue;
    }
    if (!supervisor_->NoteRecoveryFailure(s, attempt)) continue;
    // Attempt budget exhausted: evict. Under kReassign (with a neighbor to
    // take the stripe) the whole engine reshards to one fewer stripe; under
    // kDegrade the stripe stays quarantined in place forever.
    supervisor_->NoteEvicted(s);
    if (options_.supervision.on_failure == ShardFailurePolicy::kReassign &&
        shard_count() > 1) {
      SCUBA_RETURN_IF_ERROR(EvictShard(s));
      break;  // shard indices changed; this sweep is over
    }
  }
  if (attempted && telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    tc.Accumulate(tc.EnsureSpan(tc.root(), "recovery"),
                  clock.ElapsedSeconds());
  }
  return Status::OK();
}

Status ShardedEngine::AttemptStripeRecovery(uint32_t shard) {
  if (ShardFaultInjector* injector = supervisor_->injector()) {
    if (injector->FaultFor(shard) == ShardFaultClass::kRecoveryFailure) {
      injector->NoteInjected(ShardFaultClass::kRecoveryFailure);
      return Status::Internal("injected recovery failure: shard " +
                              std::to_string(shard));
    }
  }
  // Probe first: task failures and stalls leave state intact, so most
  // recoveries are a clean audit away — no durable rebuild, no hook needed.
  const InvariantAuditReport probe = AuditShardStripe(shard);
  if (probe.clean()) return Status::OK();
  if (!stripe_recovery_) {
    return Status::FailedPrecondition(
        "stripe " + std::to_string(shard) +
        " needs a durable rebuild but no recovery hook is attached: " +
        probe.ToString());
  }
  SCUBA_RETURN_IF_ERROR(stripe_recovery_(this, shard));
  const InvariantAuditReport verify = AuditShardStripe(shard);
  if (!verify.clean()) {
    return Status::Corruption(
        "stripe audit still failing after durable rebuild: " +
        verify.ToString());
  }
  return Status::OK();
}

Status ShardedEngine::EvictShard(uint32_t victim) {
  const uint32_t old_count = shard_count();
  SCUBA_CHECK_MSG(old_count >= 2, "cannot evict the last stripe");
  (void)victim;  // every stripe re-routes; the victim's identity dissolves
  // Serialize every stripe through the shard-snapshot path. The victim's
  // STORE is intact even when its grid mirror is damaged, and applying a
  // snapshot re-registers each cluster from its registered_bounds — so the
  // rebuild below also heals whatever corruption got the stripe evicted.
  std::vector<std::string> payloads;
  payloads.reserve(old_count);
  for (uint32_t s = 0; s < old_count; ++s) {
    payloads.push_back(PersistAccess::SerializeShardSnapshot(*this, s, 0, 0));
  }
  const uint32_t new_count = old_count - 1;
  Result<ShardRouter> router =
      ShardRouter::Create(options_.region, options_.grid_cells, new_count);
  if (!router.ok()) return router.status();
  router_ = std::move(router).value();
  std::vector<std::unique_ptr<EngineShard>> fresh;
  fresh.reserve(new_count);
  for (uint32_t s = 0; s < new_count; ++s) {
    Result<GridIndex> grid =
        GridIndex::Create(options_.region, options_.grid_cells);
    if (!grid.ok()) return grid.status();
    fresh.push_back(std::make_unique<EngineShard>(
        s, router_.CellBegin(s), router_.CellEnd(s), std::move(grid).value(),
        options_));
  }
  shards_ = std::move(fresh);
  options_.shards = new_count;  // excluded from the options fingerprint
  pool_.reset();                // JoinPool re-caps itself at the new count
  scratch_touched_.assign(new_count, 0);
  for (const std::string& payload : payloads) {
    SCUBA_RETURN_IF_ERROR(PersistAccess::ApplyShardSnapshot(payload, this));
  }
  if (telemetry_ != nullptr) AttachShardTelemetry();
  supervisor_->OnLayoutChanged(new_count);
  if (on_layout_changed_) {
    SCUBA_RETURN_IF_ERROR(on_layout_changed_());
  }
  return Status::OK();
}

size_t ShardedEngine::EstimateMemoryUsage() const {
  size_t total = sizeof(ShardedEngine) + meta_.EstimateMemoryUsage();
  for (const auto& sp : shards_) {
    total += sizeof(EngineShard) + sp->store.EstimateMemoryUsage() +
             sp->grid.EstimateMemoryUsage() + sp->join.EstimateMemoryUsage();
  }
  return total;
}

EngineSnapshotStats ShardedEngine::StatsSnapshot() const {
  EngineSnapshotStats snap;
  snap.eval = stats_;
  snap.phase = phase_stats_;
  snap.clusterer = clusterer_stats_;
  for (const auto& sp : shards_) snap.join += sp->join.counters();
  const LoadShedder& shedder = shards_[0]->shedder;
  snap.shedder = ShedderSnapshotStats{shedder.mode(), shedder.eta(),
                                      shedder.nucleus_radius(),
                                      shedder.adjustments()};
  snap.clusters = ClusterCount();
  return snap;
}

void ShardedEngine::InstallTelemetry(
    std::unique_ptr<EngineTelemetry> telemetry) {
  telemetry_ = std::move(telemetry);
  MetricsRegistry& reg = telemetry_->registry();
  engine_metrics_.Register(&reg);
  metrics_.handoffs = reg.RegisterCounter(
      "scuba_shard_handoffs_total",
      "Cluster ownership migrations between shards");
  metrics_.ghosts = reg.RegisterCounter(
      "scuba_shard_ghosts_total",
      "Border clusters a stripe's join read from another stripe's store");
  metrics_.recommendations = reg.RegisterCounter(
      "scuba_rebalance_recommendations_total",
      "Stripe-split recommendations issued in observe mode");
  metrics_.shard_failures = reg.RegisterCounter(
      "scuba_shard_failures_total",
      "Supervised shard join tasks that failed (thrown, stalled, or audit)");
  metrics_.shard_recoveries = reg.RegisterCounter(
      "scuba_shard_recoveries_total",
      "Online shard recoveries that verified clean");
  metrics_.shard_evictions = reg.RegisterCounter(
      "scuba_shard_evictions_total",
      "Shards evicted after exhausting their recovery attempts");
  metrics_.degraded_rounds = reg.RegisterCounter(
      "scuba_degraded_rounds_total",
      "Rounds answered with at least one stale shard slice");
  metrics_.shards =
      reg.RegisterGauge("scuba_shards", "Engine shards (row stripes)");
  metrics_.shard_health.resize(shard_count());
  for (uint32_t s = 0; s < shard_count(); ++s) {
    metrics_.shard_health[s] = reg.RegisterGauge(
        "scuba_shard_health_" + std::to_string(s),
        "Stripe health: 0 healthy, 1 degraded, 2 recovering, 3 evicted");
    metrics_.shard_health[s].Set(0.0);
  }
  metrics_.shards.Set(static_cast<double>(shard_count()));
  AttachShardTelemetry();
  telemetry_->SetRoundHook([this] { PushTelemetryDeltas(); });
}

void ShardedEngine::AttachShardTelemetry() {
  MetricsRegistry& reg = telemetry_->registry();
  for (auto& sp : shards_) sp->join.AttachTelemetry(&reg);
  // The shedder gauges name one shedder, so they follow the one
  // StatsSnapshot() reports: stripe 0's (stripes diverge under kAdaptive).
  shards_[0]->shedder.AttachMetrics(&reg);
}

void ShardedEngine::PushTelemetryDeltas() {
  engine_metrics_.Push(StatsSnapshot());
  metrics_.handoffs.Increment(handoffs_ - pushed_.handoffs);
  metrics_.ghosts.Increment(ghosts_published_ - pushed_.ghosts);
  metrics_.recommendations.Increment(recommendations_ -
                                     pushed_.recommendations);
  metrics_.shards.Set(static_cast<double>(shard_count()));
  if (supervisor_ != nullptr) {
    const SupervisionStats& sup = supervisor_->stats();
    metrics_.shard_failures.Increment(sup.shard_failures -
                                      pushed_.shard_failures);
    metrics_.shard_recoveries.Increment(sup.shard_recoveries -
                                        pushed_.shard_recoveries);
    metrics_.shard_evictions.Increment(sup.shard_evictions -
                                       pushed_.shard_evictions);
    metrics_.degraded_rounds.Increment(sup.degraded_rounds -
                                       pushed_.degraded_rounds);
    pushed_.shard_failures = sup.shard_failures;
    pushed_.shard_recoveries = sup.shard_recoveries;
    pushed_.shard_evictions = sup.shard_evictions;
    pushed_.degraded_rounds = sup.degraded_rounds;
  }
  for (size_t s = 0; s < metrics_.shard_health.size(); ++s) {
    // Indices beyond the current layout (after a reassign reshard) report
    // evicted: that stripe identity no longer exists.
    double level = 3.0;
    if (s < shard_count()) {
      level = supervisor_ == nullptr
                  ? 0.0
                  : static_cast<double>(static_cast<int>(
                        supervisor_->record(static_cast<uint32_t>(s)).health));
    }
    metrics_.shard_health[s].Set(level);
  }
  pushed_.handoffs = handoffs_;
  pushed_.ghosts = ghosts_published_;
  pushed_.recommendations = recommendations_;
}

Status ShardedEngine::FlushTelemetry() {
  if (telemetry_ == nullptr) return Status::OK();
  return telemetry_->Flush();
}

uint64_t EngineStateHash(const ShardedEngine& engine) {
  std::vector<const ClusterStore*> stores;
  std::vector<const GridIndex*> grids;
  stores.reserve(engine.shard_count());
  grids.reserve(engine.shard_count());
  for (uint32_t s = 0; s < engine.shard_count(); ++s) {
    stores.push_back(&engine.shard(s).store);
    grids.push_back(&engine.shard(s).grid);
  }
  return ShardedStateHash(engine.meta_store(), stores, grids);
}

}  // namespace scuba
