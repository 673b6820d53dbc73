#include "core/scuba_engine.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
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
  // Not make_unique: the constructor is private.
  std::unique_ptr<ScubaEngine> engine(
      new ScubaEngine(options, std::move(grid).value()));
  if (options.telemetry.Enabled()) {
    Result<std::unique_ptr<EngineTelemetry>> telemetry =
        EngineTelemetry::Create(options.telemetry, engine->name());
    if (!telemetry.ok()) return telemetry.status();
    engine->InstallTelemetry(std::move(telemetry).value());
  }
  return engine;
}

void ScubaEngine::InstallTelemetry(std::unique_ptr<EngineTelemetry> telemetry) {
  telemetry_ = std::move(telemetry);
  MetricsRegistry& reg = telemetry_->registry();
  metrics_.Register(&reg);
  join_executor_.AttachTelemetry(&reg);
  shedder_.AttachMetrics(&reg);
  telemetry_->SetRoundHook([this] { metrics_.Push(StatsSnapshot()); });
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

ScubaEngine::ScubaEngine(const ScubaOptions& options, GridIndex grid)
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
      resolved_ingest_threads_(options.ingest_threads == 0
                                   ? ThreadPool::DefaultThreadCount()
                                   : options.ingest_threads) {
  stats_.join_threads = join_executor_.resolved_threads();
  stats_.ingest_threads = resolved_ingest_threads_;
  clusterer_.set_nucleus_radius(shedder_.nucleus_radius());
}

ThreadPool* ScubaEngine::IngestPool() {
  if (resolved_ingest_threads_ <= 1) return nullptr;
  if (ingest_pool_ == nullptr) {
    ingest_pool_ = std::make_unique<ThreadPool>(resolved_ingest_threads_);
  }
  return ingest_pool_.get();
}

Status ScubaEngine::IngestObjectUpdate(const LocationUpdate& update) {
  if (Status v = ValidateUpdate(update); !v.ok()) {
    if (options_.on_bad_update == BadUpdatePolicy::kStrict) return v;
    ++stats_.updates_quarantined;
    return Status::OK();
  }
  TelemetryEnsureRound();
  Stopwatch sw;
  Status s = clusterer_.ProcessObjectUpdate(update);
  const double elapsed = sw.ElapsedSeconds();
  pending_prejoin_seconds_ += elapsed;
  pending_prejoin_worker_seconds_ += elapsed;  // serial: busy == wall
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    tc.Accumulate(tc.EnsureSpan(tc.root(), "ingest"), elapsed);
  }
  return s;
}

Status ScubaEngine::IngestQueryUpdate(const QueryUpdate& update) {
  if (Status v = ValidateUpdate(update); !v.ok()) {
    if (options_.on_bad_update == BadUpdatePolicy::kStrict) return v;
    ++stats_.updates_quarantined;
    return Status::OK();
  }
  TelemetryEnsureRound();
  Stopwatch sw;
  Status s = clusterer_.ProcessQueryUpdate(update);
  const double elapsed = sw.ElapsedSeconds();
  pending_prejoin_seconds_ += elapsed;
  pending_prejoin_worker_seconds_ += elapsed;  // serial: busy == wall
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    tc.Accumulate(tc.EnsureSpan(tc.root(), "ingest"), elapsed);
  }
  return s;
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
  // Under non-strict policies the invalid tuples are dropped before the
  // parallel classification, so the batch quarantines exactly the tuples the
  // per-update path would skip — the bit-identity contract between the two
  // ingest paths extends to dirty streams. The clean-batch fast path keeps
  // working off the caller's spans with no copy.
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
  double worker = 0.0;
  IngestPhaseTimings phases;
  Status s = clusterer_.ProcessBatch(objects, queries, IngestPool(),
                                     resolved_ingest_threads_, &worker,
                                     telemetry_ != nullptr ? &phases : nullptr);
  const double wall = sw.ElapsedSeconds();
  pending_prejoin_seconds_ += wall;
  pending_prejoin_worker_seconds_ += worker;
  if (telemetry_ != nullptr) {
    TraceCollector& tc = telemetry_->trace();
    const int32_t ingest = tc.EnsureSpan(tc.root(), "ingest");
    tc.Accumulate(ingest, wall, worker);
    tc.Accumulate(tc.EnsureSpan(ingest, "classify"), phases.classify_seconds);
    tc.Accumulate(tc.EnsureSpan(ingest, "apply"), phases.apply_seconds);
  }
  return s;
}

Status ScubaEngine::Evaluate(Timestamp now, ResultSet* results) {
  if (results == nullptr) {
    return Status::InvalidArgument("results must be non-null");
  }
  TelemetryEnsureRound();

  // *** Phase 2: cluster-based joining (Algorithm 1, lines 8-21). ***
  // Continuous queries change answers incrementally round to round, so the
  // previous match count pre-sizes this round's merge buffer well.
  results->Reserve(stats_.last_result_count);
  Stopwatch join_sw;
  SCUBA_RETURN_IF_ERROR(join_executor_.Execute(store_, grid_, results));
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
    const std::vector<double>& busy = join_executor_.last_task_busy_seconds();
    for (size_t t = 0; t < busy.size(); ++t) {
      tc.Accumulate(tc.EnsureSpan(join_span, "shard", static_cast<int32_t>(t)),
                    busy[t], busy[t]);
    }
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
  }
  if (s.ok() && options_.audit_every_n_rounds > 0 &&
      stats_.evaluations % options_.audit_every_n_rounds == 0) {
    SCUBA_RETURN_IF_ERROR(AuditAndHeal());
  }
  return s;
}

InvariantAuditReport ScubaEngine::AuditInvariants() const {
  InvariantAuditReport report;
  if (Status s = store_.ValidateConsistency(); !s.ok()) {
    AddViolation(&report, "store: " + s.message());
  }
  std::vector<uint32_t> expected_cells;
  for (ClusterId cid : store_.SortedClusterIds()) {
    const MovingCluster* cluster = store_.GetCluster(cid);
    SCUBA_CHECK(cluster != nullptr);
    ++report.clusters_checked;
    const std::string tag = "cluster " + std::to_string(cid);
    if (Status s = cluster->ValidateMemberIndex(); !s.ok()) {
      AddViolation(&report, tag + ": " + s.message());
    }
    // Radius invariant: the bounding circle covers every reconstructed
    // member position (shed members reconstruct at the nucleus center).
    for (const ClusterMember& m : cluster->members()) {
      ++report.members_checked;
      const double d = Distance(cluster->centroid(), cluster->MemberPosition(m));
      if (d > cluster->radius() + kAuditEps) {
        AddViolation(&report, tag + ": member (" +
                                 std::to_string(static_cast<int>(m.kind)) +
                                 "," + std::to_string(m.id) + ") lies " +
                                 std::to_string(d - cluster->radius()) +
                                 " outside the radius");
        break;  // one radius violation per cluster is enough signal
      }
    }
    // Grid side: the cluster must be registered, under bounds that cover its
    // (join) bounds, in exactly the cells its registered circle overlaps.
    if (!grid_.Contains(cid)) {
      AddViolation(&report, tag + ": missing from the cluster grid");
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
    expected_cells.clear();
    grid_.CellsForCircle(reg, &expected_cells);
    std::sort(expected_cells.begin(), expected_cells.end());
    const std::vector<uint32_t>* actual = grid_.CellsOf(cid);
    SCUBA_CHECK(actual != nullptr);  // grid_.Contains(cid) held above
    std::vector<uint32_t> actual_sorted = *actual;
    std::sort(actual_sorted.begin(), actual_sorted.end());
    if (actual_sorted != expected_cells) {
      AddViolation(&report, tag + ": grid cell placement diverges (" +
                               std::to_string(actual_sorted.size()) +
                               " cells occupied, " +
                               std::to_string(expected_cells.size()) +
                               " expected)");
    }
  }
  // Reverse direction: every grid key must name a live cluster.
  for (uint32_t key : grid_.Keys()) {
    ++report.grid_keys_checked;
    if (store_.GetCluster(key) == nullptr) {
      AddViolation(&report, "grid: orphan key " + std::to_string(key) +
                                " names no stored cluster");
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
  // and sharded paths walk the exact same sequence.
  const std::vector<ClusterId> cids = store_.SortedClusterIds();
  const double nucleus = shedder_.nucleus_radius();
  const bool timed = timings != nullptr;

  if (resolved_ingest_threads_ <= 1 || cids.size() <= 1) {
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
    // Sharded upkeep: each task pulls cluster chunks and runs the purely
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
    std::vector<PostJoinTimings> task_timings(
        timed ? resolved_ingest_threads_ : 0);
    std::atomic<size_t> cursor{0};
    constexpr size_t kChunk = 16;
    *worker_seconds = 0.0;
    SCUBA_RETURN_IF_ERROR(RunTaskSet(
        IngestPool(), resolved_ingest_threads_, [&](uint32_t task) {
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
  // ingest path for the next interval.
  shedder_.ObserveMemoryUsage(EstimateMemoryUsage());
  clusterer_.set_nucleus_radius(shedder_.nucleus_radius());
  return Status::OK();
}

size_t ScubaEngine::EstimateMemoryUsage() const {
  return sizeof(ScubaEngine) + store_.EstimateMemoryUsage() +
         grid_.EstimateMemoryUsage() + join_executor_.EstimateMemoryUsage();
}

}  // namespace scuba
