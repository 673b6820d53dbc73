#include "core/scuba_engine.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <optional>
#include <string>
#include <type_traits>
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
  stats_.ingest_threads = 1;  // ingest is serial at every setting
  clusterer_.set_nucleus_radius(shedder_.nucleus_radius());
}

void ScubaEngine::InstallTelemetry(std::unique_ptr<EngineTelemetry> telemetry) {
  telemetry_ = std::move(telemetry);
  MetricsRegistry& reg = telemetry_->registry();
  metrics_.Register(&reg);
  join_executor_.AttachTelemetry(&reg);
  shedder_.AttachMetrics(&reg);
  WindowMetrics& m = window_metrics_;
  m.failures = reg.RegisterCounter(
      "scuba_shard_failures_total",
      "Supervised join windows that failed (thrown, stalled, or audit)");
  m.recoveries = reg.RegisterCounter(
      "scuba_shard_recoveries_total",
      "Online window recoveries that verified clean");
  m.evictions = reg.RegisterCounter(
      "scuba_shard_evictions_total",
      "Join windows evicted after exhausting their recovery attempts");
  m.degraded_rounds = reg.RegisterCounter(
      "scuba_degraded_rounds_total",
      "Rounds answered with at least one stale window slice");
  m.windows = reg.RegisterGauge("scuba_shards", "Join windows (row ranges)");
  m.health.resize(shard_count());
  for (uint32_t w = 0; w < shard_count(); ++w) {
    m.health[w] = reg.RegisterGauge(
        "scuba_shard_health_" + std::to_string(w),
        "Window health: 0 healthy, 1 degraded, 2 recovering, 3 evicted");
    m.health[w].Set(0.0);
  }
  m.windows.Set(static_cast<double>(shard_count()));
  telemetry_->SetRoundHook([this] { PushTelemetryDeltas(); });
}

void ScubaEngine::PushTelemetryDeltas() {
  metrics_.Push(StatsSnapshot());
  WindowMetrics& m = window_metrics_;
  m.windows.Set(static_cast<double>(shard_count()));
  if (supervisor_ != nullptr) {
    const SupervisionStats& sup = supervisor_->stats();
    SupervisionStats& pushed = pushed_supervision_;
    m.failures.Increment(sup.shard_failures - pushed.shard_failures);
    m.recoveries.Increment(sup.shard_recoveries - pushed.shard_recoveries);
    m.evictions.Increment(sup.shard_evictions - pushed.shard_evictions);
    m.degraded_rounds.Increment(sup.degraded_rounds - pushed.degraded_rounds);
    pushed = sup;
  }
  for (size_t w = 0; w < m.health.size(); ++w) {
    double level = 3.0;  // beyond the current layout: evicted
    if (w < shard_count()) {
      level = supervisor_ == nullptr
                  ? 0.0
                  : static_cast<double>(static_cast<int>(
                        supervisor_->record(static_cast<uint32_t>(w)).health));
    }
    m.health[w].Set(level);
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
  snap.clusters = store_.ClusterCount();
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

template <typename Update>
Status ScubaEngine::IngestOne(const Update& update) {
  if (Status v = ValidateUpdate(update); !v.ok()) {
    if (options_.on_bad_update == BadUpdatePolicy::kStrict) return v;
    ++stats_.updates_quarantined;
    return Status::OK();
  }
  TelemetryEnsureRound();
  Stopwatch sw;
  Status s;
  if constexpr (std::is_same_v<Update, LocationUpdate>) {
    s = clusterer_.ProcessObjectUpdate(update);
  } else {
    s = clusterer_.ProcessQueryUpdate(update);
  }
  const double elapsed = sw.ElapsedSeconds();
  pending_prejoin_seconds_ += elapsed;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    tc.Accumulate(tc.EnsureSpan(tc.root(), "ingest"), elapsed);
  }
  return s;
}

Status ScubaEngine::IngestObjectUpdate(const LocationUpdate& update) {
  return IngestOne(update);
}

Status ScubaEngine::IngestQueryUpdate(const QueryUpdate& update) {
  return IngestOne(update);
}

Status ScubaEngine::IngestBatch(std::span<const LocationUpdate> objects,
                                std::span<const QueryUpdate> queries) {
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
  if (bad > 0 && options_.on_bad_update == BadUpdatePolicy::kStrict) {
    return first_bad;
  }
  stats_.updates_quarantined += bad;
  TelemetryEnsureRound();
  Stopwatch sw;
  // Invalid tuples (non-strict policies only) are skipped exactly where the
  // per-update path would skip them, so both ingest paths stay bit-identical
  // on dirty streams too.
  for (const LocationUpdate& u : objects) {
    if (bad > 0 && !ValidateUpdate(u).ok()) continue;
    SCUBA_RETURN_IF_ERROR(clusterer_.ProcessObjectUpdate(u));
  }
  for (const QueryUpdate& u : queries) {
    if (bad > 0 && !ValidateUpdate(u).ok()) continue;
    SCUBA_RETURN_IF_ERROR(clusterer_.ProcessQueryUpdate(u));
  }
  const double wall = sw.ElapsedSeconds();
  pending_prejoin_seconds_ += wall;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    tc.Accumulate(tc.EnsureSpan(tc.root(), "ingest"), wall);
  }
  return Status::OK();
}

Status ScubaEngine::JoinWindows(ResultSet* results) {
  SCUBA_RETURN_IF_ERROR(join_executor_.Prepare(store_, grid_));
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
  // deduplicating seals the round's set without a full re-sort.
  std::vector<const ResultSet*> slices(n);
  bool degraded = false;
  for (uint32_t w = 0; w < n; ++w) {
    const Window& window = windows_[w];
    slices[w] = stale[w] ? &window.last_good_results : &window.results;
    degraded = degraded || stale[w];
  }
  results->Clear();
  results->MergeNormalized(slices);
  for (uint32_t w = 0; w < n; ++w) {
    if (stale[w]) results->MarkDegraded(w);
  }
  if (degraded) supervisor_->NoteDegradedRound();
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    const int32_t join_span = tc.EnsureSpan(tc.root(), "join");
    for (uint32_t w = 0; w < n; ++w) {
      if (stale[w]) continue;  // no fresh work this round
      tc.Accumulate(
          tc.EnsureSpan(join_span, "engine_shard", static_cast<int32_t>(w)),
          busy[w], busy[w]);
    }
  }
  return Status::OK();
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
  stats_.last_result_count = results->size();
  stats_.total_results += results->size();
  ++stats_.evaluations;
  const ClusterJoinExecutor::Counters& ctr = join_executor_.counters();
  stats_.comparisons = ctr.comparisons;
  stats_.bounds_checks = ctr.bounds_checks;
  stats_.cluster_pairs_tested = ctr.pairs_tested;
  stats_.cluster_pairs_overlapping = ctr.pairs_overlapping;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    const int32_t join_span = tc.EnsureSpan(tc.root(), "join");
    tc.Accumulate(join_span, stats_.last_join_seconds,
                  stats_.last_join_worker_seconds);
    const double within = join_executor_.last_within_seconds();
    tc.Accumulate(
        tc.EnsureSpan(join_span, "between"),
        std::max(0.0, stats_.last_join_worker_seconds - within));
    tc.Accumulate(tc.EnsureSpan(join_span, "within"), within);
  }

  // *** Phase 3: cluster post-join maintenance. ***
  Stopwatch maint_sw;
  double postjoin_worker = 0.0;
  PostJoinTimings postjoin_timings;
  Status s = PostJoinMaintenance(
      now, &postjoin_worker, telemetry_ != nullptr ? &postjoin_timings : nullptr);
  stats_.last_postjoin_seconds = maint_sw.ElapsedSeconds();
  stats_.total_postjoin_seconds += stats_.last_postjoin_seconds;
  stats_.last_postjoin_worker_seconds = postjoin_worker;
  stats_.total_postjoin_worker_seconds += postjoin_worker;
  // Serial ingest: its busy time is its wall time.
  stats_.last_ingest_seconds = pending_prejoin_seconds_;
  stats_.total_ingest_seconds += pending_prejoin_seconds_;
  stats_.last_ingest_worker_seconds = pending_prejoin_seconds_;
  stats_.total_ingest_worker_seconds += pending_prejoin_seconds_;
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
    if (Status s = store_.ValidateConsistency(); !s.ok()) {
      AddViolation(&report, prefix + "store: " + s.message());
    }
  }
  // Local scratch keeps this const and safe during the join phase.
  std::vector<uint32_t> expected;
  std::vector<uint32_t> actual;
  for (ClusterId cid : store_.SortedClusterIds()) {
    const MovingCluster* cluster = store_.GetCluster(cid);
    SCUBA_CHECK(cluster != nullptr);
    const std::string tag = prefix + "cluster " + std::to_string(cid);
    const Circle& reg = cluster->registered_bounds();
    expected.clear();
    grid_.CellsForCircle(reg, &expected);
    std::sort(expected.begin(), expected.end());
    // Store side: checked by the window holding the cluster's lowest
    // registered cell, so every cluster is checked by exactly one window.
    if (in_window(expected.front())) {
      ++report.clusters_checked;
      if (Status s = cluster->ValidateMemberIndex(); !s.ok()) {
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
    std::sort(actual.begin(), actual.end());
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
  for (ClusterId cid : store_.SortedClusterIds()) {
    MovingCluster* cluster = store_.GetCluster(cid);
    SCUBA_CHECK(cluster != nullptr);
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
  // Collect ids first; dissolution mutates the store. Sorted so the serial
  // and parallel paths walk the exact same sequence.
  const std::vector<ClusterId> cids = store_.SortedClusterIds();
  const double nucleus = shedder_.nucleus_radius();
  const bool timed = timings != nullptr;

  if (resolved_threads_ <= 1 || cids.size() <= 1) {
    Stopwatch serial;
    Stopwatch lap;
    // A member pointer, not `&timings->field`: untraced rounds pass a null
    // `timings`, and forming a member address through it is undefined.
    auto take_lap = [&](double PostJoinTimings::*into) {
      if (timed) {
        timings->*into += lap.ElapsedSeconds();
        lap.Start();
      }
    };
    for (ClusterId cid : cids) {
      MovingCluster* cluster = store_.GetCluster(cid);
      SCUBA_CHECK(cluster != nullptr);
      if (timed) lap.Start();
      cluster->RecomputeTightBounds();
      take_lap(&PostJoinTimings::tighten_seconds);
      if (nucleus > 0.0) {
        phase_stats_.members_shed_maintenance +=
            cluster->ShedPositions(nucleus);
      }
      take_lap(&PostJoinTimings::shed_seconds);
      // Dissolve clusters that pass their destination before the next round
      // (paper: "If at time T + Delta the cluster passes its destination
      // node, the cluster gets dissolved."). Members re-cluster with their
      // next updates.
      Timestamp expiry = cluster->ComputeExpiryTime(now);
      if (expiry <= now + options_.delta) {
        SCUBA_RETURN_IF_ERROR(grid_.Remove(cid));
        SCUBA_RETURN_IF_ERROR(store_.RemoveCluster(cid));
        ++phase_stats_.clusters_dissolved_expired;
        take_lap(&PostJoinTimings::expire_seconds);
        continue;
      }
      take_lap(&PostJoinTimings::expire_seconds);
      // Relocate to the expected position at the next evaluation time.
      cluster->Translate(cluster->Velocity() *
                         static_cast<double>(options_.delta));
      SCUBA_RETURN_IF_ERROR(SyncClusterGrid(&grid_, cluster,
                                            options_.query_reach_aware,
                                            options_.grid_sync_padding));
      take_lap(&PostJoinTimings::translate_seconds);
    }
    *worker_seconds = serial.ElapsedSeconds();
  } else {
    // Parallel upkeep: each task pulls cluster chunks and runs the purely
    // per-cluster work (tighten, shed, expiry check, translate, grid-sync
    // planning) on the live cluster — clusters are disjoint, the store and
    // grid are only read. Dissolutions and re-registrations are recorded per
    // cluster and applied below in ascending cid order, which is exactly the
    // serial loop's mutation sequence.
    struct Outcome {
      uint64_t shed = 0;
      bool dissolve = false;
      bool resync = false;
      Circle registration;
    };
    std::vector<Outcome> outcomes(cids.size());
    std::vector<PostJoinTimings> task_timings(timed ? resolved_threads_ : 0);
    std::atomic<size_t> cursor{0};
    constexpr size_t kChunk = 16;
    SCUBA_RETURN_IF_ERROR(RunTaskSet(
        PostJoinPool(), resolved_threads_, [&](uint32_t task) {
          PostJoinTimings* tt = timed ? &task_timings[task] : nullptr;
          Stopwatch lap;
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
              if (tt != nullptr) {
                tt->tighten_seconds += lap.ElapsedSeconds();
                lap.Start();
              }
              if (nucleus > 0.0) out.shed = cluster->ShedPositions(nucleus);
              if (tt != nullptr) {
                tt->shed_seconds += lap.ElapsedSeconds();
                lap.Start();
              }
              if (cluster->ComputeExpiryTime(now) <= now + options_.delta) {
                out.dissolve = true;
                if (tt != nullptr) tt->expire_seconds += lap.ElapsedSeconds();
                continue;
              }
              if (tt != nullptr) {
                tt->expire_seconds += lap.ElapsedSeconds();
                lap.Start();
              }
              cluster->Translate(cluster->Velocity() *
                                 static_cast<double>(options_.delta));
              out.resync = PlanClusterGridSync(
                  grid_, cluster, options_.query_reach_aware,
                  options_.grid_sync_padding, &out.registration);
              if (tt != nullptr) tt->translate_seconds += lap.ElapsedSeconds();
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
