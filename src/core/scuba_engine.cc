#include "core/scuba_engine.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "cluster/splitter.h"
#include "common/check.h"
#include "common/stopwatch.h"

namespace scuba {

namespace {

/// Absolute slack for the audit's distance comparisons: it re-derives
/// quantities (radii, coverage) that the engine accumulated incrementally in
/// a different floating-point order.
constexpr double kAuditEps = 1e-6;

/// Look-ahead of the batch ingest loop: while update i is applied, the
/// slot-table bucket of update i + kBucketLookahead and the slot row of
/// update i + kRowLookahead start loading. The bucket hint runs first, so
/// the row hint's probe finds its bucket in cache.
constexpr size_t kBucketLookahead = 16;
constexpr size_t kRowLookahead = 8;

EntityRef RefOf(const LocationUpdate& u) {
  return EntityRef{EntityKind::kObject, u.oid};
}
EntityRef RefOf(const QueryUpdate& u) {
  return EntityRef{EntityKind::kQuery, u.qid};
}

/// Applies `updates` one by one, in order, prefetching ahead (above). The
/// hints read the store but never change it, so the answers are those of
/// one update per call.
template <typename Update, typename Apply>
Status ApplyInOrder(std::span<const Update> updates, const ClusterStore& store,
                    Apply apply) {
  const size_t n = updates.size();
  for (size_t i = 0; i < n; ++i) {
    if (i + kBucketLookahead < n) {
      store.PrefetchBucket(RefOf(updates[i + kBucketLookahead]));
    }
    if (i + kRowLookahead < n) {
      store.PrefetchRow(RefOf(updates[i + kRowLookahead]));
    }
    SCUBA_RETURN_IF_ERROR(apply(updates[i]));
  }
  return Status::OK();
}

void AddViolation(InvariantAuditReport* report, std::string msg) {
  ++report->violations_total;
  if (report->violations.size() < InvariantAuditReport::kMaxViolationMessages) {
    report->violations.push_back(std::move(msg));
  }
}

}  // namespace

std::string InvariantAuditReport::ToString() const {
  if (clean()) {
    return "clean (" + std::to_string(clusters_checked) + " clusters, " +
           std::to_string(members_checked) + " members, " +
           std::to_string(grid_keys_checked) + " grid keys)";
  }
  std::string out = std::to_string(violations_total) + " violation(s):";
  for (const std::string& v : violations) {
    out += "\n  ";
    out += v;
  }
  if (violations_total > violations.size()) {
    out += "\n  ... and " +
           std::to_string(violations_total - violations.size()) + " more";
  }
  return out;
}

Result<std::unique_ptr<ScubaEngine>> ScubaEngine::Create(
    const ScubaOptions& options) {
  SCUBA_RETURN_IF_ERROR(options.Validate());
  Result<GridIndex> grid = GridIndex::Create(options.region, options.grid_cells);
  if (!grid.ok()) return grid.status();
  Result<ShardRouter> router =
      ShardRouter::Create(options.grid_cells, options.shards);
  if (!router.ok()) return router.status();
  // Not make_unique: the constructor is private.
  std::unique_ptr<ScubaEngine> engine(new ScubaEngine(
      options, std::move(grid).value(), std::move(router).value()));
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

ScubaEngine::ScubaEngine(const ScubaOptions& options, GridIndex grid,
                         ShardRouter router)
    : options_(options),
      grid_(std::move(grid)),
      clusterer_(
          ClustererOptions{options.theta_d, options.theta_s,
                           options.probe_theta_d_disk,
                           options.query_reach_aware,
                           options.grid_sync_padding},
          &store_, &grid_),
      shedder_(options.shedding, options.theta_d),
      join_executor_(options.query_reach_aware, options.join_threads),
      router_(std::move(router)),
      windows_(router_.shard_count()),
      resolved_threads_(join_executor_.resolved_threads()) {
  stats_.join_threads = resolved_threads_;
  clusterer_.set_nucleus_radius(shedder_.nucleus_radius());
}

void ScubaEngine::InstallTelemetry(std::unique_ptr<EngineTelemetry> telemetry) {
  telemetry_ = std::move(telemetry);
  MetricsRegistry& reg = telemetry_->registry();
  metrics_.Register(&reg);
  join_executor_.AttachTelemetry(&reg);
  window_health_.resize(shard_count());
  for (uint32_t w = 0; w < shard_count(); ++w) {
    window_health_[w] = reg.RegisterGauge(
        "scuba_shard_health_" + std::to_string(w),
        "Window health: 0 healthy, 1 degraded, 2 recovering, 3 evicted");
  }
  telemetry_->SetRoundHook([this] { PushTelemetryDeltas(); });
}

void ScubaEngine::PushTelemetryDeltas() {
  metrics_.Push(StatsSnapshot());
  for (size_t w = 0; w < window_health_.size(); ++w) {
    double level = 3.0;  // beyond the current layout: evicted
    if (w < shard_count()) {
      level = supervisor_ == nullptr
                  ? 0.0
                  : static_cast<double>(static_cast<int>(
                        supervisor_->record(static_cast<uint32_t>(w)).health));
    }
    window_health_[w].Set(level);
  }
}

EngineSnapshotStats ScubaEngine::StatsSnapshot() const {
  EngineSnapshotStats snap;
  snap.eval = stats_;
  snap.phase = phase_stats_;
  snap.clusterer = clusterer_.stats();
  snap.join = join_executor_.counters();
  snap.shedder = ShedderSnapshotStats{shedder_.mode(), shedder_.eta(),
                                      shedder_.nucleus_radius(),
                                      shedder_.adjustments()};
  if (supervisor_ != nullptr) snap.supervision = supervisor_->stats();
  snap.clusters = store_.ClusterCount();
  snap.windows = shard_count();
  return snap;
}

Status ScubaEngine::FlushTelemetry() {
  if (telemetry_ == nullptr) return Status::OK();
  return telemetry_->Flush();
}

ThreadPool* ScubaEngine::PostJoinPool() {
  if (resolved_threads_ <= 1) return nullptr;
  if (postjoin_pool_ == nullptr) {
    postjoin_pool_ = std::make_unique<ThreadPool>(resolved_threads_);
  }
  return postjoin_pool_.get();
}

Status ScubaEngine::IngestObjectUpdate(const LocationUpdate& update) {
  return IngestBatch(std::span(&update, 1), {});
}

Status ScubaEngine::IngestQueryUpdate(const QueryUpdate& update) {
  return IngestBatch({}, std::span(&update, 1));
}

Status ScubaEngine::IngestBatch(std::span<const LocationUpdate> objects,
                                std::span<const QueryUpdate> queries) {
  for (const LocationUpdate& u : objects) {
    SCUBA_RETURN_IF_ERROR(ValidateUpdate(u));
  }
  for (const QueryUpdate& u : queries) {
    SCUBA_RETURN_IF_ERROR(ValidateUpdate(u));
  }
  TelemetryEnsureRound();
  Stopwatch sw;
  SCUBA_RETURN_IF_ERROR(
      ApplyInOrder(objects, store_, [this](const LocationUpdate& u) {
        return clusterer_.ProcessObjectUpdate(u);
      }));
  SCUBA_RETURN_IF_ERROR(
      ApplyInOrder(queries, store_, [this](const QueryUpdate& u) {
        return clusterer_.ProcessQueryUpdate(u);
      }));
  const double wall = sw.ElapsedSeconds();
  pending_prejoin_seconds_ += wall;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    tc.Accumulate(tc.EnsureSpan(tc.root(), "ingest"), wall);
  }
  return Status::OK();
}

Status ScubaEngine::JoinWindows(ResultSet* results) {
  Stopwatch prepare;
  SCUBA_RETURN_IF_ERROR(join_executor_.Prepare(store_, grid_));
  const double prepare_seconds = prepare.ElapsedSeconds();
  const double prepare_worker = join_executor_.last_worker_seconds();
  const uint32_t n = shard_count();
  const bool supervised = supervisor_ != nullptr;
  // Stale windows: quarantined before the round, or failed during it under
  // a non-fail policy. They serve their last published slice.
  std::vector<char> stale(n, 0);
  std::vector<double> busy(n, 0.0);  // telemetry: each window's scan time
  for (uint32_t w = 0; w < n; ++w) {
    if (supervised && supervisor_->Quarantined(w)) {
      stale[w] = 1;
      continue;
    }
    Window& window = windows_[w];
    const uint32_t begin = router_.CellBegin(w);
    const uint32_t end = router_.CellEnd(w);
    Stopwatch scan;
    Status s;
    if (!supervised) {
      s = join_executor_.ScanWindow(begin, end, &window.results);
    } else {
      s = supervisor_->SuperviseJoinTask(w, [&]() -> Status {
        // Detection half of the barrier: a window whose invariants fail
        // must not publish a slice computed over damaged state.
        const InvariantAuditReport audit = AuditShardStripe(w);
        if (!audit.clean()) {
          return Status::DataLoss("shard " + std::to_string(w) +
                                  " failed its window audit: " +
                                  audit.ToString());
        }
        return join_executor_.ScanWindow(begin, end, &window.results);
      });
    }
    busy[w] = scan.ElapsedSeconds();
    if (s.ok()) {
      if (supervised) window.last_good_results = window.results;
      continue;
    }
    if (!supervised) return s;
    const std::optional<ShardFaultClass> fault = supervisor_->PlannedFault(w);
    if (fault == ShardFaultClass::kTaskFailure ||
        fault == ShardFaultClass::kStall) {
      supervisor_->injector()->NoteInjected(*fault);
    }
    supervisor_->NoteJoinFailure(w, s);
    if (options_.supervision.on_failure == ShardFailurePolicy::kFail) return s;
    stale[w] = 1;
  }
  // Every slice is normalized, and owner-cell dedup makes fresh slices
  // disjoint; a stale slice may overlap fresh ones (its pairs' owner cells
  // can have moved since it was published). Merging the sorted slices and
  // deduplicating seals the round's set without a full re-sort. One fresh
  // window is the whole answer already: it is handed over by swap.
  Stopwatch merge;
  results->Clear();
  bool degraded = false;
  if (n == 1 && !stale[0]) {
    std::swap(*results, windows_[0].results);
  } else {
    std::vector<const ResultSet*> slices(n);
    for (uint32_t w = 0; w < n; ++w) {
      const Window& window = windows_[w];
      slices[w] = stale[w] ? &window.last_good_results : &window.results;
      degraded = degraded || stale[w];
    }
    results->MergeNormalized(slices);
    for (uint32_t w = 0; w < n; ++w) {
      if (stale[w]) results->MarkDegraded(w);
    }
  }
  const double merge_seconds = merge.ElapsedSeconds();
  if (degraded) supervisor_->NoteDegradedRound();
  if (telemetry_ != nullptr) {
    // join.prepare: the view build; join.between/within: the window scans'
    // worker time, split at the member-level join-within; join.merge: each
    // window's sort plus the cross-window merge.
    TraceCollector& tc = telemetry_->trace();
    const int32_t join_span = tc.EnsureSpan(tc.root(), "join");
    const double scan_worker =
        join_executor_.last_worker_seconds() - prepare_worker;
    const double within = join_executor_.last_within_seconds();
    tc.Accumulate(tc.EnsureSpan(join_span, "prepare"), prepare_seconds,
                  prepare_worker);
    tc.Accumulate(tc.EnsureSpan(join_span, "between"),
                  std::max(0.0, scan_worker - within));
    tc.Accumulate(tc.EnsureSpan(join_span, "within"), within);
    tc.Accumulate(tc.EnsureSpan(join_span, "merge"),
                  join_executor_.last_sort_seconds() + merge_seconds);
    for (uint32_t w = 0; w < n; ++w) {
      if (stale[w]) continue;  // no fresh work this round
      tc.Accumulate(
          tc.EnsureSpan(join_span, "engine_shard", static_cast<int32_t>(w)),
          busy[w], busy[w]);
    }
  }
  return Status::OK();
}

void ScubaEngine::SyncJoinStats() {
  const ClusterJoinExecutor::Counters& ctr = join_executor_.counters();
  stats_.comparisons = ctr.comparisons;
  stats_.bounds_checks = ctr.bounds_checks;
  stats_.cluster_pairs_tested = ctr.pairs_tested;
  stats_.cluster_pairs_overlapping = ctr.pairs_overlapping;
}

Status ScubaEngine::Evaluate(Timestamp now, ResultSet* results) {
  if (results == nullptr) {
    return Status::InvalidArgument("results must be non-null");
  }
  TelemetryEnsureRound();
  if (supervisor_ != nullptr) {
    // Rounds count Evaluate calls from 1. The fault schedule is rolled (and
    // any corrupt-state injection applied) before the join starts, so it is
    // a pure function of (seed, round index, window count).
    supervisor_->BeginRound(stats_.evaluations + 1);
    ApplyInjectedCorruption();
  }

  // *** Phase 2: cluster-based joining (Algorithm 1, lines 8-21). ***
  Stopwatch join_sw;
  SCUBA_RETURN_IF_ERROR(JoinWindows(results));
  stats_.last_join_seconds = join_sw.ElapsedSeconds();
  stats_.total_join_seconds += stats_.last_join_seconds;
  stats_.last_join_worker_seconds = join_executor_.last_worker_seconds();
  stats_.total_join_worker_seconds += stats_.last_join_worker_seconds;
  stats_.total_results += results->size();
  ++stats_.evaluations;
  SyncJoinStats();
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    const int32_t join_span = tc.EnsureSpan(tc.root(), "join");
    tc.Accumulate(join_span, stats_.last_join_seconds,
                  stats_.last_join_worker_seconds);
  }

  // *** Phase 3: cluster post-join maintenance. ***
  Stopwatch maint_sw;
  double postjoin_worker = 0.0;
  PostJoinTimings postjoin_timings;
  Status s = PostJoinMaintenance(
      now, &postjoin_worker, telemetry_ != nullptr ? &postjoin_timings : nullptr);
  stats_.last_postjoin_seconds = maint_sw.ElapsedSeconds();
  stats_.total_postjoin_seconds += stats_.last_postjoin_seconds;
  stats_.total_postjoin_worker_seconds += postjoin_worker;
  stats_.last_ingest_seconds = pending_prejoin_seconds_;
  stats_.total_ingest_seconds += pending_prejoin_seconds_;
  stats_.last_maintenance_seconds =
      stats_.last_ingest_seconds + stats_.last_postjoin_seconds;
  stats_.total_maintenance_seconds += stats_.last_maintenance_seconds;
  pending_prejoin_seconds_ = 0.0;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    const int32_t pj = tc.EnsureSpan(tc.root(), "postjoin");
    tc.Accumulate(pj, stats_.last_postjoin_seconds, postjoin_worker);
    postjoin_timings.AccumulateSpans(tc, pj);
  }
  if (s.ok() && supervisor_ != nullptr) {
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

InvariantAuditReport ScubaEngine::AuditInvariants() const {
  return AuditCells(0, static_cast<uint32_t>(grid_.CellCount()), "");
}

InvariantAuditReport ScubaEngine::AuditShardStripe(uint32_t window) const {
  return AuditCells(router_.CellBegin(window), router_.CellEnd(window),
                    "window " + std::to_string(window) + " ");
}

InvariantAuditReport ScubaEngine::AuditCells(uint32_t cell_begin,
                                             uint32_t cell_end,
                                             const std::string& prefix) const {
  InvariantAuditReport report;
  auto in_window = [&](uint32_t cell) {
    return cell >= cell_begin && cell < cell_end;
  };
  if (in_window(0)) {
    if (Status s = store_.ValidateTables(); !s.ok()) {
      AddViolation(&report, prefix + "store: " + s.message());
    }
  }
  // Local scratch keeps this const and safe during the join phase. Clusters
  // are reached through their slots, not the cid table, so a damaged table
  // entry is reported once, by window 0, above.
  std::vector<uint32_t> expected;
  std::vector<uint32_t> actual;
  for (ClusterStore::ClusterSlot slot : store_.SortedClusterSlots()) {
    const MovingCluster* cluster = store_.ClusterAt(slot);
    const ClusterId cid = cluster->cid();
    const std::string tag = prefix + "cluster " + std::to_string(cid);
    const Circle& reg = cluster->registered_bounds();
    expected.clear();
    grid_.CellsForCircle(reg, &expected);
    // Store side: checked by the window holding the cluster's lowest
    // registered cell, so every cluster is checked by exactly one window.
    if (in_window(expected.front())) {
      ++report.clusters_checked;
      // Member bookkeeping: each member's entity slot names this cluster
      // and the member's index, and the kind counts match the members.
      if (Status s = store_.ValidateMemberSlots(*cluster); !s.ok()) {
        AddViolation(&report, tag + ": " + s.message());
      }
      if (Status s = cluster->ValidateMemberCounts(); !s.ok()) {
        AddViolation(&report, tag + ": " + s.message());
      }
      // Radius invariant: the bounding circle covers every reconstructed
      // member position (shed members reconstruct at the nucleus center).
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
      if (!grid_.Contains(cid)) {
        AddViolation(&report, tag + ": missing from the cluster grid");
        continue;
      }
      const Circle needed = options_.query_reach_aware ? cluster->JoinBounds()
                                                       : cluster->Bounds();
      if (Distance(reg.center, needed.center) + needed.radius >
          reg.radius + kAuditEps) {
        AddViolation(&report,
                     tag + ": registered bounds no longer cover the cluster");
      }
    }
    // Grid side: inside the window, the cluster occupies exactly the cells
    // its registered circle covers there.
    const std::vector<uint32_t>* placed = grid_.CellsOf(cid);
    if (placed == nullptr) continue;
    std::erase_if(expected, [&](uint32_t cell) { return !in_window(cell); });
    actual.clear();
    for (uint32_t cell : *placed) {
      if (in_window(cell)) actual.push_back(cell);
    }
    // Both lists ascend by the grid's contract, so a placement out of order
    // diverges too.
    if (actual != expected) {
      AddViolation(&report, tag + ": grid cell placement diverges (" +
                                std::to_string(actual.size()) +
                                " cells occupied, " +
                                std::to_string(expected.size()) +
                                " expected)");
    }
  }
  // Every key placed in the window names a stored cluster and is listed
  // once by each of its cells there.
  for (uint32_t key : grid_.Keys()) {
    bool touches = false;
    for (uint32_t cell : *grid_.CellsOf(key)) {
      if (!in_window(cell)) continue;
      touches = true;
      const std::vector<uint32_t>& entries = grid_.CellEntries(cell);
      if (std::count(entries.begin(), entries.end(), key) != 1) {
        AddViolation(&report, prefix + "grid: cell " + std::to_string(cell) +
                                  " does not list key " +
                                  std::to_string(key) +
                                  " exactly once though it is placed there");
      }
    }
    if (!touches) continue;
    ++report.grid_keys_checked;
    if (store_.GetCluster(key) == nullptr) {
      AddViolation(&report, prefix + "grid: orphan key " +
                                std::to_string(key) +
                                " names no stored cluster");
    }
  }
  // And no cell of the window lists a key outside that key's placement.
  const uint32_t limit =
      std::min(cell_end, static_cast<uint32_t>(grid_.CellCount()));
  for (uint32_t cell = cell_begin; cell < limit; ++cell) {
    for (uint32_t key : grid_.CellEntries(cell)) {
      const std::vector<uint32_t>* placed = grid_.CellsOf(key);
      if (placed == nullptr ||
          std::find(placed->begin(), placed->end(), cell) == placed->end()) {
        AddViolation(&report, prefix + "grid: cell " + std::to_string(cell) +
                                  " lists key " + std::to_string(key) +
                                  " outside its placement");
      }
    }
  }
  return report;
}

Status ScubaEngine::RebuildGridFromStore() {
  grid_.Clear();
  for (ClusterStore::ClusterSlot slot : store_.SortedClusterSlots()) {
    MovingCluster* cluster = store_.ClusterAt(slot);
    // Reset the lazy-registration memo so the sync below re-registers from
    // scratch instead of trusting stale bounds.
    cluster->set_registered_bounds(Circle{});
    SCUBA_RETURN_IF_ERROR(SyncClusterGrid(&grid_, cluster,
                                          options_.query_reach_aware,
                                          options_.grid_sync_padding));
  }
  return Status::OK();
}

Status ScubaEngine::AuditAndHeal() {
  ++stats_.invariant_audits;
  const InvariantAuditReport report = AuditInvariants();
  if (report.clean()) return Status::OK();
  stats_.invariant_violations += report.violations_total;
  SCUBA_RETURN_IF_ERROR(RebuildGridFromStore());
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

void ScubaEngine::ApplyInjectedCorruption() {
  ShardFaultInjector* injector = supervisor_->injector();
  if (injector == nullptr) return;
  for (uint32_t w = 0; w < shard_count(); ++w) {
    if (supervisor_->Quarantined(w)) continue;
    if (injector->FaultFor(w) != ShardFaultClass::kCorruptState) continue;
    // Damage model: the lowest-cid border cluster (placed both inside and
    // outside the window) loses the window's cells, from the cell lists and
    // its placement alike. The store and every other window are intact and
    // post-join decisions (Contains, covered bounds) are unchanged, so state
    // stays convergent with an uninterrupted twin; only this window's audit
    // sees the hole. A window with no border cluster simply doesn't get
    // corrupted this round (the injection is not counted as applied).
    const uint32_t begin = router_.CellBegin(w);
    const uint32_t end = router_.CellEnd(w);
    for (uint32_t key : grid_.Keys()) {
      bool inside = false;
      bool outside = false;
      for (uint32_t cell : *grid_.CellsOf(key)) {
        (cell >= begin && cell < end ? inside : outside) = true;
      }
      if (!inside || !outside) continue;
      grid_.InjectDropFromCells(key, begin, end);
      injector->NoteInjected(ShardFaultClass::kCorruptState);
      break;
    }
  }
}

Status ScubaEngine::RunScheduledRecoveries() {
  Stopwatch clock;
  bool attempted = false;
  for (uint32_t w = 0; w < shard_count(); ++w) {
    if (!supervisor_->RecoveryDue(w)) continue;
    attempted = true;
    supervisor_->BeginRecoveryAttempt(w);
    const Status attempt = AttemptWindowRecovery(w);
    if (attempt.ok()) {
      supervisor_->NoteRecoverySuccess(w);
      continue;
    }
    if (!supervisor_->NoteRecoveryFailure(w, attempt)) continue;
    // Attempt budget exhausted: evict. Under kReassign (with a window left
    // to take the rows) the engine recomputes one fewer window; under
    // kDegrade the window stays quarantined in place forever.
    supervisor_->NoteEvicted(w);
    if (options_.supervision.on_failure == ShardFailurePolicy::kReassign &&
        shard_count() > 1) {
      SCUBA_RETURN_IF_ERROR(EvictWindow());
      break;  // window indices changed; this sweep is over
    }
  }
  if (attempted && telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    tc.Accumulate(tc.EnsureSpan(tc.root(), "recovery"),
                  clock.ElapsedSeconds());
  }
  return Status::OK();
}

Status ScubaEngine::AttemptWindowRecovery(uint32_t window) {
  if (ShardFaultInjector* injector = supervisor_->injector()) {
    if (injector->FaultFor(window) == ShardFaultClass::kRecoveryFailure) {
      injector->NoteInjected(ShardFaultClass::kRecoveryFailure);
      return Status::Internal("injected recovery failure: shard " +
                              std::to_string(window));
    }
  }
  // Probe first: task failures and stalls leave state intact, so most
  // recoveries are a clean audit away — no durable rebuild, no hook needed.
  const InvariantAuditReport probe = AuditShardStripe(window);
  if (probe.clean()) return Status::OK();
  if (!stripe_recovery_) {
    return Status::FailedPrecondition(
        "window " + std::to_string(window) +
        " needs a durable rebuild but no recovery hook is attached: " +
        probe.ToString());
  }
  SCUBA_RETURN_IF_ERROR(stripe_recovery_(this, window));
  const InvariantAuditReport verify = AuditShardStripe(window);
  if (!verify.clean()) {
    return Status::Corruption(
        "window audit still failing after durable rebuild: " +
        verify.ToString());
  }
  return Status::OK();
}

Status ScubaEngine::EvictWindow() {
  const uint32_t count = shard_count() - 1;
  Result<ShardRouter> router = ShardRouter::Create(options_.grid_cells, count);
  if (!router.ok()) return router.status();
  router_ = std::move(router).value();
  windows_.assign(count, Window{});
  options_.shards = count;  // excluded from the options fingerprint
  // Re-register every cluster under its registered bounds: placement is a
  // pure function of them, so this heals whatever grid damage got the window
  // evicted without changing any state the hash covers.
  std::vector<ClusterId> registered;
  for (ClusterId cid : store_.SortedClusterIds()) {
    if (grid_.Contains(cid)) registered.push_back(cid);
  }
  grid_.Clear();
  for (ClusterId cid : registered) {
    SCUBA_RETURN_IF_ERROR(
        grid_.Insert(cid, store_.GetCluster(cid)->registered_bounds()));
  }
  supervisor_->OnLayoutChanged(count);
  return Status::OK();
}

Status ScubaEngine::SplitOversizedClusters() {
  const double max_radius = options_.split_radius_factor * options_.theta_d;
  const std::vector<ClusterId> cids = store_.SortedClusterIds();
  for (ClusterId cid : cids) {
    MovingCluster* cluster = store_.GetCluster(cid);
    SCUBA_CHECK(cluster != nullptr);
    cluster->RecomputeTightBounds();
    if (!ShouldSplit(*cluster, max_radius)) continue;
    // Allocated in named locals: as function arguments the two calls could
    // run in either order, leaving left/right id assignment unspecified.
    const ClusterId left_id = store_.NextClusterId();
    const ClusterId right_id = store_.NextClusterId();
    Result<SplitResult> split = SplitCluster(*cluster, left_id, right_id);
    if (!split.ok()) continue;  // co-located members etc.: keep as-is
    SCUBA_RETURN_IF_ERROR(grid_.Remove(cid));
    SCUBA_RETURN_IF_ERROR(store_.RemoveCluster(cid));
    SCUBA_RETURN_IF_ERROR(SyncClusterGrid(&grid_, &split->left,
                                          options_.query_reach_aware,
                                          options_.grid_sync_padding));
    SCUBA_RETURN_IF_ERROR(SyncClusterGrid(&grid_, &split->right,
                                          options_.query_reach_aware,
                                          options_.grid_sync_padding));
    SCUBA_RETURN_IF_ERROR(store_.AddCluster(std::move(split->left)));
    SCUBA_RETURN_IF_ERROR(store_.AddCluster(std::move(split->right)));
    ++phase_stats_.clusters_split;
  }
  return Status::OK();
}

Status ScubaEngine::PostJoinMaintenance(Timestamp now, double* worker_seconds,
                                        PostJoinTimings* timings) {
  *worker_seconds = 0.0;
  if (options_.enable_cluster_splitting) {
    SCUBA_RETURN_IF_ERROR(SplitOversizedClusters());
  }
  // Collect ids first; dissolution mutates the store.
  const std::vector<ClusterId> cids = store_.SortedClusterIds();
  const double nucleus = shedder_.nucleus_radius();
  const bool timed = timings != nullptr;

  // Each task pulls cluster chunks and runs the purely per-cluster work
  // (tighten, shed, expiry check, translate, grid-sync planning) on the live
  // cluster — clusters are disjoint, the store and grid are only read. At
  // one task it runs inline. Dissolutions and re-registrations are recorded
  // per cluster and applied below in ascending cid order, so the outcome
  // does not depend on the task count.
  struct Outcome {
    uint64_t shed = 0;
    bool dissolve = false;
    bool resync = false;
    Circle registration;
  };
  std::vector<Outcome> outcomes(cids.size());
  const uint32_t tasks =
      static_cast<uint32_t>(std::min<size_t>(resolved_threads_, cids.size()));
  std::vector<PostJoinTimings> task_timings(timed ? tasks : 0);
  std::atomic<size_t> cursor{0};
  constexpr size_t kChunk = 16;
  SCUBA_RETURN_IF_ERROR(RunTaskSet(
      tasks > 1 ? PostJoinPool() : nullptr, tasks, [&](uint32_t task) {
        PostJoinTimings* tt = timed ? &task_timings[task] : nullptr;
        Stopwatch lap;
        // Adds the time since the last lap to one sub-step, then restarts.
        auto take_lap = [&](double PostJoinTimings::*into) {
          if (tt != nullptr) {
            tt->*into += lap.ElapsedSeconds();
            lap.Start();
          }
        };
        for (;;) {
          size_t begin = cursor.fetch_add(kChunk, std::memory_order_relaxed);
          if (begin >= cids.size()) break;
          size_t end = std::min(cids.size(), begin + kChunk);
          for (size_t i = begin; i < end; ++i) {
            MovingCluster* cluster = store_.GetCluster(cids[i]);
            SCUBA_CHECK(cluster != nullptr);
            Outcome& out = outcomes[i];
            if (tt != nullptr) lap.Start();
            cluster->RecomputeTightBounds();
            take_lap(&PostJoinTimings::tighten_seconds);
            if (nucleus > 0.0) out.shed = cluster->ShedPositions(nucleus);
            take_lap(&PostJoinTimings::shed_seconds);
            // Dissolve clusters that pass their destination before the next
            // round (paper: "If at time T + Delta the cluster passes its
            // destination node, the cluster gets dissolved."). Members
            // re-cluster with their next updates.
            out.dissolve =
                cluster->ComputeExpiryTime(now) <= now + options_.delta;
            take_lap(&PostJoinTimings::expire_seconds);
            if (out.dissolve) continue;
            // Relocate to the expected position at the next evaluation time.
            cluster->Translate(cluster->Velocity() *
                               static_cast<double>(options_.delta));
            out.resync = PlanClusterGridSync(
                grid_, cluster, options_.query_reach_aware,
                options_.grid_sync_padding, &out.registration);
            take_lap(&PostJoinTimings::translate_seconds);
          }
        }
      }, worker_seconds));
  for (const PostJoinTimings& tt : task_timings) *timings += tt;
  for (size_t i = 0; i < cids.size(); ++i) {
    phase_stats_.members_shed_maintenance += outcomes[i].shed;
    if (outcomes[i].dissolve) {
      SCUBA_RETURN_IF_ERROR(grid_.Remove(cids[i]));
      SCUBA_RETURN_IF_ERROR(store_.RemoveCluster(cids[i]));
      ++phase_stats_.clusters_dissolved_expired;
    } else if (outcomes[i].resync) {
      SCUBA_RETURN_IF_ERROR(
          grid_.Contains(cids[i])
              ? grid_.Update(cids[i], outcomes[i].registration)
              : grid_.Insert(cids[i], outcomes[i].registration));
    }
  }

  // Feed the shedder and propagate the (possibly new) nucleus radius to the
  // ingest path for the next interval. The estimate covers the store, grid
  // and join scratch — none depends on the window count, so adaptive eta
  // trajectories are identical at every shards value.
  shedder_.ObserveMemoryUsage(EstimateMemoryUsage());
  clusterer_.set_nucleus_radius(shedder_.nucleus_radius());
  return Status::OK();
}

size_t ScubaEngine::EstimateMemoryUsage() const {
  return sizeof(ScubaEngine) + store_.EstimateMemoryUsage() +
         grid_.EstimateMemoryUsage() + join_executor_.EstimateMemoryUsage();
}

}  // namespace scuba
