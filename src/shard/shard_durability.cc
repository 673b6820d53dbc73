#include "shard/shard_durability.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/telemetry.h"
#include "persist/fsio.h"
#include "persist/snapshot.h"

namespace scuba {

namespace {

namespace fs = std::filesystem;

template <typename Id>
void PutSortedAttrTable(ByteWriter* w,
                        const std::unordered_map<Id, uint64_t>& table) {
  std::vector<std::pair<Id, uint64_t>> rows(table.begin(), table.end());
  std::sort(rows.begin(), rows.end());
  w->PutU64(rows.size());
  for (const auto& [id, attrs] : rows) {
    w->PutU32(id);
    w->PutU64(attrs);
  }
}

std::string ShardDir(const std::string& root, uint32_t shard_index) {
  return (fs::path(root) / ShardDirName(shard_index)).string();
}

/// Serializes coordinator + per-shard snapshots and publishes the manifest —
/// the shared write path behind ForceCheckpoint and ShardedEngine::Checkpoint.
Status WriteShardedCheckpoint(const std::string& dir, const ShardedEngine& engine,
                              const UpdateValidator* validator, const Rng* rng,
                              uint64_t generation, uint64_t wal_next_seq,
                              uint64_t rounds, CrashInjector* crash,
                              uint64_t* total_bytes) {
  ManifestInfo info;
  info.fingerprint = OptionsFingerprint(engine.options());
  info.generation = generation;
  info.wal_next_seq = wal_next_seq;
  info.rounds = rounds;
  uint64_t bytes_sum = 0;
  for (uint32_t s = 0; s < engine.shard_count(); ++s) {
    if (s > 0 && crash != nullptr &&
        crash->ShouldCrash(CrashPoint::kBetweenShardSnapshots)) {
      // Earlier shards hold the new generation's snapshot, later ones do not;
      // no manifest references them, so they are orphans.
      return crash->CrashStatus();
    }
    const std::string payload = PersistAccess::SerializeShardSnapshot(
        engine, s, wal_next_seq, rounds);
    const std::string shard_dir = ShardDir(dir, s);
    if (crash != nullptr &&
        crash->ShouldCrash(CrashPoint::kMidShardSnapshotWrite)) {
      std::error_code ec;
      fs::create_directories(shard_dir, ec);
      if (ec) {
        return Status::IoError("cannot create " + shard_dir + ": " +
                               ec.message());
      }
      const std::string tmp_path =
          (fs::path(shard_dir) / (SnapshotFileName(generation) + ".tmp"))
              .string();
      SCUBA_RETURN_IF_ERROR(
          WriteFileDurably(tmp_path, payload, payload.size() / 2));
      return crash->CrashStatus();
    }
    uint64_t bytes = 0;
    SCUBA_RETURN_IF_ERROR(
        WriteSnapshotFile(shard_dir, generation, payload, &bytes));
    bytes_sum += bytes;
    info.shards.push_back(ManifestShardEntry{generation, Fnv1a64(payload)});
  }
  ByteWriter coord;
  PersistAccess::SaveShardedCoordinatorState(engine, validator, rng, &coord);
  info.coordinator_state = coord.Release();
  bytes_sum += info.coordinator_state.size();
  // The commit point: shards are durable, now the manifest names them.
  SCUBA_RETURN_IF_ERROR(WriteManifestFile(dir, info, crash));
  if (crash != nullptr &&
      crash->ShouldCrash(CrashPoint::kAfterManifestRename)) {
    // Committed, but the prune step never runs.
    return crash->CrashStatus();
  }
  if (total_bytes != nullptr) *total_bytes = bytes_sum;
  return Status::OK();
}

/// Validates one manifest generation's artifacts and returns the per-shard
/// payloads, or kDataLoss naming the first damaged artifact.
Result<std::vector<std::string>> ReadGenerationPayloads(
    const std::string& dir, const ManifestInfo& info) {
  std::vector<std::string> payloads;
  payloads.reserve(info.shards.size());
  for (uint32_t s = 0; s < info.shards.size(); ++s) {
    const std::string path =
        (fs::path(ShardDir(dir, s)) / SnapshotFileName(info.shards[s].snapshot_seq))
            .string();
    Result<std::string> payload = ReadSnapshotPayload(path);
    if (!payload.ok()) {
      // A missing or torn artifact invalidates the generation either way.
      return Status::DataLoss("generation " + std::to_string(info.generation) +
                              ": " + payload.status().message());
    }
    if (Fnv1a64(*payload) != info.shards[s].state_hash) {
      return Status::DataLoss(
          path + " does not hash to the value its manifest recorded");
    }
    Result<SnapshotMeta> meta = PeekSnapshotMeta(*payload);
    if (!meta.ok()) return meta.status();
    if (meta->wal_next_seq != info.wal_next_seq ||
        meta->options_fingerprint != info.fingerprint) {
      return Status::DataLoss(
          path + " belongs to a different checkpoint than its manifest");
    }
    payloads.push_back(std::move(*payload));
  }
  return payloads;
}

}  // namespace

// --- PersistAccess sharded statics -----------------------------------------

std::string PersistAccess::SerializeShardSnapshot(const ShardedEngine& e,
                                                  uint32_t shard_index,
                                                  uint64_t wal_next_seq,
                                                  uint64_t rounds) {
  const EngineShard& shard = *e.shards_[shard_index];
  ByteWriter w;
  w.PutU64(OptionsFingerprint(e.options()));
  w.PutU64(wal_next_seq);
  w.PutU64(rounds);
  w.PutU32(shard_index);
  w.PutU32(e.shard_count());
  const std::vector<ClusterId> cids = shard.store.SortedClusterIds();
  w.PutU64(cids.size());
  for (ClusterId cid : cids) {
    const MovingCluster* cluster = shard.store.GetCluster(cid);
    SCUBA_CHECK(cluster != nullptr);
    SaveCluster(*cluster, &w);
    w.PutBool(e.AnyGridContains(cid));
  }
  const ClusterJoinExecutor::Counters& jc = shard.join.counters_;
  w.PutU64(jc.comparisons);
  w.PutU64(jc.bounds_checks);
  w.PutU64(jc.pairs_tested);
  w.PutU64(jc.pairs_overlapping);
  w.PutU64(jc.within_joins_single);
  w.PutU64(jc.within_joins_pair);
  w.PutDouble(shard.shedder.eta_);
  w.PutU64(shard.shedder.adjustments_);
  w.PutDouble(shard.nucleus_radius);
  return w.Release();
}

Status PersistAccess::ApplyShardSnapshot(const std::string& payload,
                                         ShardedEngine* e) {
  ByteReader r(payload);
  SnapshotMeta meta;
  SCUBA_RETURN_IF_ERROR(r.GetU64(&meta.options_fingerprint));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&meta.wal_next_seq));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&meta.rounds));
  if (meta.options_fingerprint != OptionsFingerprint(e->options())) {
    return Status::FailedPrecondition(
        "shard snapshot was taken under different engine options; restore "
        "requires semantically identical ScubaOptions");
  }
  uint32_t saved_index = 0, saved_shards = 0;
  SCUBA_RETURN_IF_ERROR(r.GetU32(&saved_index));
  SCUBA_RETURN_IF_ERROR(r.GetU32(&saved_shards));
  if (saved_shards == 0 || saved_index >= saved_shards) {
    return Status::DataLoss("shard snapshot names shard " +
                            std::to_string(saved_index) + " of " +
                            std::to_string(saved_shards));
  }
  uint64_t cluster_count = 0;
  SCUBA_RETURN_IF_ERROR(r.GetU64(&cluster_count));
  for (uint64_t i = 0; i < cluster_count; ++i) {
    Result<MovingCluster> cluster = LoadCluster(&r);
    if (!cluster.ok()) return cluster.status();
    bool registered = false;
    SCUBA_RETURN_IF_ERROR(r.GetBool(&registered));
    const ClusterId cid = cluster->cid();
    const Circle bounds = cluster->registered_bounds();
    // Re-partition on restore: ownership is a pure function of the saved
    // registered center under the CURRENT router, so an N-shard checkpoint
    // lands cleanly in an M-shard engine.
    EngineShard* owner = e->OwnerShardFor(*cluster);
    if (Status s = owner->store.AddCluster(std::move(cluster).value());
        !s.ok()) {
      return Status::DataLoss("shard snapshot cluster " + std::to_string(cid) +
                              " rejected by the store: " + s.message());
    }
    if (registered) {
      if (Status s = e->ApplyRegistration(cid, bounds); !s.ok()) {
        return Status::DataLoss("shard snapshot cluster " +
                                std::to_string(cid) +
                                " rejected by the grid: " + s.message());
      }
    }
  }
  ClusterJoinExecutor::Counters jc;
  SCUBA_RETURN_IF_ERROR(r.GetU64(&jc.comparisons));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&jc.bounds_checks));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&jc.pairs_tested));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&jc.pairs_overlapping));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&jc.within_joins_single));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&jc.within_joins_pair));
  double eta = 0.0, nucleus_radius = 0.0;
  uint64_t adjustments = 0;
  SCUBA_RETURN_IF_ERROR(r.GetDouble(&eta));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&adjustments));
  SCUBA_RETURN_IF_ERROR(r.GetDouble(&nucleus_radius));
  if (saved_shards == e->shard_count()) {
    EngineShard& shard = *e->shards_[saved_index];
    shard.join.counters_ = jc;
    shard.shedder.eta_ = eta;
    shard.shedder.adjustments_ = adjustments;
    shard.nucleus_radius = nucleus_radius;
  } else {
    // Layouts differ: per-stripe attribution is meaningless, but the summed
    // counters (the observable aggregate) must survive — accumulate onto
    // shard 0. Shard 0's saved shedder state seeds every stripe.
    ClusterJoinExecutor::Counters& agg = e->shards_[0]->join.counters_;
    agg.comparisons += jc.comparisons;
    agg.bounds_checks += jc.bounds_checks;
    agg.pairs_tested += jc.pairs_tested;
    agg.pairs_overlapping += jc.pairs_overlapping;
    agg.within_joins_single += jc.within_joins_single;
    agg.within_joins_pair += jc.within_joins_pair;
    if (saved_index == 0) {
      for (auto& sp : e->shards_) {
        sp->shedder.eta_ = eta;
        sp->shedder.adjustments_ = adjustments;
        sp->nucleus_radius = nucleus_radius;
      }
    }
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("shard snapshot payload carries trailing bytes");
  }
  return Status::OK();
}

Status PersistAccess::ReplaceShardStripe(ShardedEngine* e, uint32_t shard,
                                         const std::string& payload) {
  if (e == nullptr) {
    return Status::InvalidArgument("engine must be non-null");
  }
  if (shard >= e->shard_count()) {
    return Status::InvalidArgument("shard index out of range");
  }
  EngineShard& victim = *e->shards_[shard];
  // 1. Drop the stripe's own clusters: from every grid they touch, then from
  // the stripe's store.
  for (ClusterId cid : victim.store.SortedClusterIds()) {
    for (auto& sp : e->shards_) {
      if (!sp->grid.Contains(cid)) continue;
      SCUBA_RETURN_IF_ERROR(sp->grid.Remove(cid));
    }
    SCUBA_RETURN_IF_ERROR(victim.store.RemoveCluster(cid));
  }
  // 2. Wipe the stripe's mirror outright: neighbor-owned border entries come
  // back in step 4; corrupt residue never does.
  victim.grid.Clear();
  // 3. Re-add the stripe's clusters from the twin payload. Same layout, so
  // every cluster routes back to this stripe; each registration fans out to
  // every stripe its circle touches, this one included. The same-layout
  // branch also restores the stripe's join counters and shedder state.
  SCUBA_RETURN_IF_ERROR(ApplyShardSnapshot(payload, e));
  // 4. Restore this stripe's mirror entries for the OTHER stripes' clusters:
  // re-apply every registered cluster's placement (cell placement is pure
  // geometry, so stripes already holding the cluster just recompute the same
  // cells).
  for (auto& sp : e->shards_) {
    if (sp.get() == &victim) continue;
    for (ClusterId cid : sp->store.SortedClusterIds()) {
      const MovingCluster* cluster = sp->store.GetCluster(cid);
      SCUBA_CHECK(cluster != nullptr);
      if (!e->AnyGridContains(cid)) continue;  // unregistered cluster
      SCUBA_RETURN_IF_ERROR(
          e->ApplyRegistration(cid, cluster->registered_bounds()));
    }
  }
  return Status::OK();
}

void PersistAccess::SaveShardedCoordinatorState(const ShardedEngine& e,
                                                const UpdateValidator* validator,
                                                const Rng* rng, ByteWriter* w) {
  w->PutU32(e.meta_.next_cid_);
  PutSortedAttrTable(w, e.meta_.objects_);
  PutSortedAttrTable(w, e.meta_.queries_);
  SaveEvalStats(e.stats_, w);
  w->PutU64(e.phase_stats_.clusters_dissolved_expired);
  w->PutU64(e.phase_stats_.members_shed_maintenance);
  w->PutU64(e.phase_stats_.clusters_split);
  w->PutU64(e.clusterer_stats_.clusters_created);
  w->PutU64(e.clusterer_stats_.members_absorbed);
  w->PutU64(e.clusterer_stats_.members_refreshed);
  w->PutU64(e.clusterer_stats_.members_departed);
  w->PutU64(e.clusterer_stats_.clusters_dissolved_empty);
  w->PutU64(e.clusterer_stats_.members_shed);
  w->PutDouble(e.pending_prejoin_seconds_);
  w->PutDouble(e.pending_prejoin_worker_seconds_);
  w->PutU64(e.handoffs_);
  w->PutU64(e.ghosts_published_);
  w->PutU64(e.recommendations_);
  w->PutString(e.last_recommendation_);
  w->PutBool(validator != nullptr);
  if (validator != nullptr) SaveValidatorState(*validator, w);
  w->PutBool(rng != nullptr);
  if (rng != nullptr) {
    const RngState state = rng->SaveState();
    for (uint64_t word : state.s) w->PutU64(word);
    w->PutBool(state.has_cached_gaussian);
    w->PutDouble(state.cached_gaussian);
  }
}

Status PersistAccess::LoadShardedCoordinatorState(ByteReader* r,
                                                  ShardedEngine* e,
                                                  UpdateValidator* validator,
                                                  Rng* rng) {
  // Wipe the whole engine: the coordinator blob + shard payloads together
  // replace every piece of durable state.
  e->meta_.Clear();
  for (auto& sp : e->shards_) {
    sp->store.Clear();
    sp->grid.Clear();
    sp->results.Clear();
    sp->join.counters_ = ClusterJoinExecutor::Counters{};
    sp->shedder.eta_ = e->options_.shedding.eta;
    sp->shedder.adjustments_ = 0;
    sp->nucleus_radius = sp->shedder.nucleus_radius();
  }
  uint32_t next_cid = 0;
  SCUBA_RETURN_IF_ERROR(r->GetU32(&next_cid));
  for (int table = 0; table < 2; ++table) {
    uint64_t rows = 0;
    SCUBA_RETURN_IF_ERROR(r->GetU64(&rows));
    for (uint64_t i = 0; i < rows; ++i) {
      uint32_t id = 0;
      uint64_t attrs = 0;
      SCUBA_RETURN_IF_ERROR(r->GetU32(&id));
      SCUBA_RETURN_IF_ERROR(r->GetU64(&attrs));
      if (table == 0) {
        e->meta_.UpsertObjectAttrs(id, attrs);
      } else {
        e->meta_.UpsertQueryAttrs(id, attrs);
      }
    }
  }
  e->meta_.next_cid_ = next_cid;
  SCUBA_RETURN_IF_ERROR(LoadEvalStats(r, &e->stats_));
  // The restored engine reports its own parallelism (results are identical
  // across thread counts by contract; ingest is the serial coordinator).
  e->stats_.join_threads = e->resolved_join_threads_;
  e->stats_.ingest_threads = 1;
  SCUBA_RETURN_IF_ERROR(
      r->GetU64(&e->phase_stats_.clusters_dissolved_expired));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&e->phase_stats_.members_shed_maintenance));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&e->phase_stats_.clusters_split));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&e->clusterer_stats_.clusters_created));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&e->clusterer_stats_.members_absorbed));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&e->clusterer_stats_.members_refreshed));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&e->clusterer_stats_.members_departed));
  SCUBA_RETURN_IF_ERROR(
      r->GetU64(&e->clusterer_stats_.clusters_dissolved_empty));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&e->clusterer_stats_.members_shed));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&e->pending_prejoin_seconds_));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&e->pending_prejoin_worker_seconds_));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&e->handoffs_));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&e->ghosts_published_));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&e->recommendations_));
  SCUBA_RETURN_IF_ERROR(r->GetString(&e->last_recommendation_));
  bool has_validator = false;
  SCUBA_RETURN_IF_ERROR(r->GetBool(&has_validator));
  if (has_validator) {
    if (validator != nullptr) {
      SCUBA_RETURN_IF_ERROR(LoadValidatorState(r, validator));
    } else {
      UpdateValidator scratch((ValidatorConfig()));
      Status s = LoadValidatorState(r, &scratch);
      if (!s.ok() && !s.IsFailedPrecondition()) return s;
      if (s.IsFailedPrecondition()) {
        return Status::DataLoss(
            "checkpoint carries validator state; pass a validator configured "
            "with the original quarantine capacity to restore it");
      }
    }
  }
  bool has_rng = false;
  SCUBA_RETURN_IF_ERROR(r->GetBool(&has_rng));
  if (has_rng) {
    RngState state;
    for (uint64_t& word : state.s) SCUBA_RETURN_IF_ERROR(r->GetU64(&word));
    SCUBA_RETURN_IF_ERROR(r->GetBool(&state.has_cached_gaussian));
    SCUBA_RETURN_IF_ERROR(r->GetDouble(&state.cached_gaussian));
    if (rng != nullptr) rng->RestoreState(state);
  }
  if (!r->AtEnd()) {
    return Status::DataLoss(
        "coordinator state carries unexpected trailing bytes");
  }
  return Status::OK();
}

EvalStats* PersistAccess::MutableShardedStats(ShardedEngine* e) {
  return &e->stats_;
}

// --- ShardedEngine checkpoint/restore convenience --------------------------

Status ShardedEngine::Checkpoint(const std::string& dir) {
  Stopwatch sw;
  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir);
  if (!manifests.ok()) return manifests.status();
  const uint64_t generation =
      manifests->empty() ? 1 : manifests->back().first + 1;
  uint64_t bytes = 0;
  SCUBA_RETURN_IF_ERROR(WriteShardedCheckpoint(
      dir, *this, /*validator=*/nullptr, /*rng=*/nullptr, generation,
      /*wal_next_seq=*/0, stats_.evaluations, /*crash=*/nullptr, &bytes));
  ++stats_.checkpoints_written;
  stats_.last_checkpoint_bytes = bytes;
  stats_.last_checkpoint_seconds = sw.ElapsedSeconds();
  stats_.total_checkpoint_seconds += stats_.last_checkpoint_seconds;
  return Status::OK();
}

Status ShardedEngine::Restore(const std::string& dir) {
  SCUBA_RETURN_IF_ERROR(RejectRetiredLayout(dir));
  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir);
  if (!manifests.ok()) return manifests.status();
  if (manifests->empty()) {
    return Status::NotFound("no manifest in " + dir);
  }
  // Newest only — no silent fallback to older generations.
  Result<ManifestInfo> info = ReadManifest(manifests->back().second);
  if (!info.ok()) return info.status();
  if (info->fingerprint != OptionsFingerprint(options_)) {
    return Status::FailedPrecondition(
        "checkpoint was taken under different engine options; restore "
        "requires semantically identical ScubaOptions");
  }
  Result<std::vector<std::string>> payloads =
      ReadGenerationPayloads(dir, *info);
  if (!payloads.ok()) return payloads.status();
  ByteReader coord(info->coordinator_state);
  SCUBA_RETURN_IF_ERROR(PersistAccess::LoadShardedCoordinatorState(
      &coord, this, /*validator=*/nullptr, /*rng=*/nullptr));
  for (const std::string& payload : *payloads) {
    SCUBA_RETURN_IF_ERROR(PersistAccess::ApplyShardSnapshot(payload, this));
  }
  return Status::OK();
}

// --- ShardedDurabilityManager ----------------------------------------------

Result<std::unique_ptr<ShardedDurabilityManager>> ShardedDurabilityManager::Open(
    const std::string& dir, const CheckpointPolicy& policy,
    ShardedEngine* engine, UpdateValidator* validator, Rng* rng,
    CrashInjector* crash) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must be non-null");
  }
  if (policy.keep_last_k == 0) {
    return Status::InvalidArgument("keep_last_k must be at least 1");
  }
  SCUBA_RETURN_IF_ERROR(RejectRetiredLayout(dir));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + dir + ": " + ec.message());
  }
  std::unique_ptr<ShardedDurabilityManager> manager(
      new ShardedDurabilityManager(dir, policy, engine, validator, rng,
                                   crash));
  // The newest COMMITTED generation supplies the base sequence; the newest
  // file name (readable or not) keeps generation numbers monotonic.
  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir);
  if (!manifests.ok()) return manifests.status();
  manager->next_generation_ =
      manifests->empty() ? 1 : manifests->back().first + 1;
  uint64_t base_seq = 0;
  uint64_t committed_shards = 0;
  for (size_t i = manifests->size(); i-- > 0;) {
    Result<ManifestInfo> info = ReadManifest((*manifests)[i].second);
    if (!info.ok()) {
      if (info.status().IsDataLoss()) continue;  // torn publish residue
      return info.status();
    }
    if (info->fingerprint != OptionsFingerprint(engine->options())) {
      return Status::FailedPrecondition(
          "durable directory belongs to a run with different engine options");
    }
    base_seq = info->wal_next_seq;
    committed_shards = info->shards.size();
    break;
  }
  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Open(WalDirOf(dir), policy.wal_segment_bytes, base_seq, crash);
  if (!wal.ok()) return wal.status();
  manager->wal_ = std::move(wal).value();
  const EvalStats& stats = *PersistAccess::MutableShardedStats(engine);
  manager->base_wal_records_ = stats.wal_records_appended;
  manager->base_wal_fsyncs_ = stats.wal_fsyncs;
  manager->base_wal_bytes_ = stats.wal_bytes_appended;
  if (committed_shards != 0 && committed_shards != engine->shard_count()) {
    // The on-disk layout differs from the engine's (re-partition on
    // recovery): commit the new layout before accepting any append, so every
    // batch logged from here on sits on a manifest of the live layout.
    SCUBA_RETURN_IF_ERROR(manager->ForceCheckpoint());
  }
  return manager;
}

Status ShardedDurabilityManager::LogBatch(
    Timestamp batch_time, bool evaluate_after,
    std::span<const LocationUpdate> objects,
    std::span<const QueryUpdate> queries) {
  EngineTelemetry* telemetry = engine_->telemetry();
  Stopwatch sw;
  if (telemetry != nullptr) {
    // The append is activity for the upcoming round (the batch it logs).
    telemetry->EnsureRound(
        PersistAccess::MutableShardedStats(engine_)->evaluations + 1);
    sw.Start();
  }
  const Status status =
      wal_->Append(batch_time, evaluate_after, objects, queries);
  EvalStats* stats = PersistAccess::MutableShardedStats(engine_);
  stats->wal_records_appended =
      base_wal_records_ + wal_->stats().records_appended;
  stats->wal_fsyncs = base_wal_fsyncs_ + wal_->stats().fsyncs;
  stats->wal_bytes_appended = base_wal_bytes_ + wal_->stats().bytes_appended;
  if (telemetry != nullptr) {
    const double elapsed = sw.ElapsedSeconds();
    TraceCollector& tc = telemetry->trace();
    const int32_t checkpoint = tc.EnsureSpan(tc.root(), "checkpoint");
    tc.Accumulate(checkpoint, elapsed);
    tc.Accumulate(tc.EnsureSpan(checkpoint, "wal"), elapsed);
  }
  return status;
}

Status ShardedDurabilityManager::OnRoundComplete() {
  if (policy_.every_n_rounds == 0) return Status::OK();
  if (++rounds_since_checkpoint_ < policy_.every_n_rounds) return Status::OK();
  return ForceCheckpoint();
}

Status ShardedDurabilityManager::ForceCheckpoint() {
  if (crash_ != nullptr &&
      crash_->ShouldCrash(CrashPoint::kBeforeSnapshotWrite)) {
    return crash_->CrashStatus();
  }
  Stopwatch sw;
  EvalStats* stats = PersistAccess::MutableShardedStats(engine_);
  uint64_t bytes = 0;
  SCUBA_RETURN_IF_ERROR(WriteShardedCheckpoint(
      dir_, *engine_, validator_, rng_, next_generation_, wal_->next_seq(),
      stats->evaluations, crash_, &bytes));
  ++next_generation_;
  ++stats->checkpoints_written;
  stats->last_checkpoint_bytes = bytes;
  stats->last_checkpoint_seconds = sw.ElapsedSeconds();
  stats->total_checkpoint_seconds += stats->last_checkpoint_seconds;
  if (EngineTelemetry* telemetry = engine_->telemetry();
      telemetry != nullptr) {
    // Post-Evaluate checkpoints belong to the round that just completed.
    telemetry->EnsureRound(std::max<uint64_t>(1, stats->evaluations));
    TraceCollector& tc = telemetry->trace();
    const int32_t checkpoint = tc.EnsureSpan(tc.root(), "checkpoint");
    tc.Accumulate(checkpoint, stats->last_checkpoint_seconds);
    tc.Accumulate(tc.EnsureSpan(checkpoint, "snapshot"),
                  stats->last_checkpoint_seconds);
  }
  SCUBA_RETURN_IF_ERROR(Prune());
  rounds_since_checkpoint_ = 0;
  return Status::OK();
}

Status ShardedDurabilityManager::OnLayoutChanged() {
  // Mirrors Open's layout-change handling: commit the new layout before any
  // further append, so every logged batch sits on a manifest of the live
  // layout.
  return ForceCheckpoint();
}

Status ShardedDurabilityManager::Prune() {
  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir_);
  if (!manifests.ok()) return manifests.status();
  // Retention counts manifest GENERATIONS, not raw snapshots: a shard
  // snapshot or WAL segment stays on disk as long as ANY retained manifest
  // references it, so falling back a generation always finds its artifacts.
  const size_t keep = policy_.keep_last_k;
  std::error_code ec;
  if (manifests->size() > keep) {
    for (size_t i = 0; i + keep < manifests->size(); ++i) {
      fs::remove((*manifests)[i].second, ec);
      if (ec) {
        return Status::IoError("remove " + (*manifests)[i].second + ": " +
                               ec.message());
      }
    }
    manifests->erase(manifests->begin(),
                     manifests->end() - static_cast<ptrdiff_t>(keep));
  }
  if (crash_ != nullptr &&
      crash_->ShouldCrash(CrashPoint::kMidManifestPrune)) {
    // Obsolete manifests are gone, their artifacts linger as orphans.
    return crash_->CrashStatus();
  }
  std::set<uint64_t> retained_generations;
  uint64_t min_wal_seq = wal_->next_seq();
  for (const auto& [generation, path] : *manifests) {
    retained_generations.insert(generation);
    Result<ManifestInfo> info = ReadManifest(path);
    if (!info.ok()) {
      if (info.status().IsDataLoss()) continue;  // torn residue; keep going
      return info.status();
    }
    min_wal_seq = std::min(min_wal_seq, info->wal_next_seq);
  }
  // Every shard directory, extinct layouts' included: the WAL lives under
  // wal/, so a shard directory holds only snapshots, and one no retained
  // generation names is garbage whatever layout wrote it.
  Result<std::vector<std::pair<uint32_t, std::string>>> shard_dirs =
      ListShardDirs(dir_);
  if (!shard_dirs.ok()) return shard_dirs.status();
  for (const auto& [index, shard_dir] : *shard_dirs) {
    Result<std::vector<std::pair<uint64_t, std::string>>> snapshots =
        ListSnapshots(shard_dir);
    if (!snapshots.ok()) return snapshots.status();
    for (const auto& [seq, path] : *snapshots) {
      // Shard snapshot file names carry their generation.
      if (retained_generations.count(seq) == 0) {
        fs::remove(path, ec);
        if (ec) {
          return Status::IoError("remove " + path + ": " + ec.message());
        }
      }
    }
    for (const fs::directory_entry& entry :
         fs::directory_iterator(shard_dir, ec)) {
      if (entry.path().extension() == ".tmp") fs::remove(entry.path(), ec);
    }
  }
  Result<size_t> removed = wal_->PruneSegmentsBelow(min_wal_seq);
  if (!removed.ok()) return removed.status();
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".tmp") fs::remove(entry.path(), ec);
  }
  return Status::OK();
}

// --- Recovery ---------------------------------------------------------------

std::string ShardedRecoveryReport::ToString() const {
  std::ostringstream out;
  if (manifest_path.empty()) {
    out << "recovered from an empty base (no committed manifest)";
  } else {
    out << "recovered from " << manifest_path << " (generation " << generation
        << ", " << manifest_shards << " shards, seq " << base_seq << ", "
        << snapshot_rounds << " rounds)";
  }
  if (manifest_shards != 0 && manifest_shards != engine_shards) {
    out << ", re-partitioned into " << engine_shards << " shards";
  }
  out << ", replayed " << batches_replayed << " batches (" << rounds_replayed
      << " rounds), next seq " << next_seq;
  if (generations_skipped > 0) {
    out << ", " << generations_skipped << " generation(s) skipped";
  }
  if (any_torn_tail) out << ", torn WAL tail discarded";
  for (const std::string& loss : data_loss) out << "\n  data loss: " << loss;
  return out.str();
}

std::string ShardedRecoveryReport::ToJson() const {
  std::ostringstream out;
  out << "{\"manifest_path\":\"" << JsonEscape(manifest_path) << "\""
      << ",\"generation\":" << generation
      << ",\"manifest_shards\":" << manifest_shards
      << ",\"engine_shards\":" << engine_shards << ",\"base_seq\":" << base_seq
      << ",\"snapshot_rounds\":" << snapshot_rounds
      << ",\"batches_replayed\":" << batches_replayed
      << ",\"rounds_replayed\":" << rounds_replayed
      << ",\"next_seq\":" << next_seq
      << ",\"generations_skipped\":" << generations_skipped
      << ",\"any_torn_tail\":" << (any_torn_tail ? "true" : "false")
      << ",\"data_loss\":[";
  for (size_t i = 0; i < data_loss.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << JsonEscape(data_loss[i]) << "\"";
  }
  out << "]}";
  return out.str();
}

Result<ShardedRecoveryReport> RecoverShardedEngine(
    const std::string& dir, ShardedEngine* engine, UpdateValidator* validator,
    Rng* rng, const ResultSink& sink) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must be non-null");
  }
  SCUBA_RETURN_IF_ERROR(RejectRetiredLayout(dir));
  ShardedRecoveryReport report;
  report.engine_shards = engine->shard_count();
  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir);
  if (!manifests.ok()) return manifests.status();
  // Newest committed generation whose every artifact verifies; torn or
  // hash-mismatched generations fall back to the previous one — that is why
  // retention keeps keep_last_k generations.
  uint64_t base_seq = 0;
  for (size_t i = manifests->size(); i-- > 0;) {
    const auto& [generation, path] = (*manifests)[i];
    Result<ManifestInfo> info = ReadManifest(path);
    if (!info.ok()) {
      if (info.status().IsDataLoss()) {
        report.data_loss.push_back(info.status().message());
        ++report.generations_skipped;
        continue;
      }
      return info.status();
    }
    if (info->fingerprint != OptionsFingerprint(engine->options())) {
      return Status::FailedPrecondition(
          "checkpoint was taken under different engine options (manifest " +
          path + "); recovery requires semantically identical ScubaOptions");
    }
    Result<std::vector<std::string>> payloads =
        ReadGenerationPayloads(dir, *info);
    if (!payloads.ok()) {
      if (payloads.status().IsDataLoss()) {
        report.data_loss.push_back(payloads.status().message());
        ++report.generations_skipped;
        continue;
      }
      return payloads.status();
    }
    ByteReader coord(info->coordinator_state);
    SCUBA_RETURN_IF_ERROR(PersistAccess::LoadShardedCoordinatorState(
        &coord, engine, validator, rng));
    for (const std::string& payload : *payloads) {
      SCUBA_RETURN_IF_ERROR(PersistAccess::ApplyShardSnapshot(payload, engine));
    }
    report.manifest_path = path;
    report.generation = generation;
    report.manifest_shards = info->shards.size();
    report.base_seq = info->wal_next_seq;
    report.snapshot_rounds = info->rounds;
    base_seq = info->wal_next_seq;
    break;
  }
  Result<WalContents> wal = ReadWal(WalDirOf(dir));
  if (!wal.ok()) return wal.status();
  if (wal->torn_tail) {
    report.any_torn_tail = true;
    report.data_loss.push_back(wal->torn_detail);
  }
  report.next_seq = base_seq;
  ResultSet results;
  for (const WalRecord& record : wal->records) {
    if (record.seq < base_seq) continue;  // covered by the checkpoint
    if (record.seq != report.next_seq) {
      // ReadWal guarantees contiguity, so only the first replayed record can
      // skip past the checkpoint.
      return Status::DataLoss(
          "WAL replay gap: checkpoint is consistent as of seq " +
          std::to_string(report.next_seq) +
          " but the next durable sequence is " + std::to_string(record.seq));
    }
    if (validator != nullptr) {
      // The WAL holds post-screen tuples; replay advances the validator's
      // per-entity timestamp floors exactly as the original admission did.
      for (const LocationUpdate& u : record.objects) {
        PersistAccess::NoteAdmitted(validator, EntityKind::kObject, u.oid,
                                    u.time);
      }
      for (const QueryUpdate& u : record.queries) {
        PersistAccess::NoteAdmitted(validator, EntityKind::kQuery, u.qid,
                                    u.time);
      }
    }
    SCUBA_RETURN_IF_ERROR(engine->IngestBatch(record.objects, record.queries));
    if (record.evaluate_after) {
      SCUBA_RETURN_IF_ERROR(engine->Evaluate(record.batch_time, &results));
      if (sink) sink(record.batch_time, results);
      ++report.rounds_replayed;
    }
    ++report.batches_replayed;
    ++report.next_seq;
  }
  PersistAccess::MutableShardedStats(engine)->recovery_replay_rounds +=
      report.rounds_replayed;
  return report;
}

Status RecoverShardStripe(const std::string& dir, ShardedEngine* engine,
                          uint32_t shard,
                          const ValidatorConfig* validator_config) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must be non-null");
  }
  if (shard >= engine->shard_count()) {
    return Status::InvalidArgument("shard index out of range");
  }
  // Recover a pristine twin at the live engine's layout. Supervision and
  // telemetry are stripped (both are fingerprint-excluded, so the twin still
  // passes the recovery fingerprint check) — the twin must replay clean, not
  // re-inject faults or emit telemetry.
  ScubaOptions twin_options = engine->options();
  twin_options.supervision = ShardSupervisionOptions{};
  twin_options.telemetry = TelemetryOptions{};
  Result<std::unique_ptr<ShardedEngine>> twin =
      ShardedEngine::Create(twin_options);
  if (!twin.ok()) return twin.status();
  std::optional<UpdateValidator> scratch_validator;
  UpdateValidator* validator = nullptr;
  if (validator_config != nullptr) {
    scratch_validator.emplace(*validator_config);
    validator = &*scratch_validator;
  }
  Result<ShardedRecoveryReport> replay =
      RecoverShardedEngine(dir, twin->get(), validator, nullptr);
  if (!replay.ok()) return replay.status();
  if (replay->manifest_path.empty() && replay->batches_replayed == 0) {
    // An empty root would "recover" the stripe to empty — data loss, not
    // recovery. Refuse instead.
    return Status::NotFound("durable root " + dir +
                            " holds no recoverable state");
  }
  const uint64_t live_rounds = engine->StatsSnapshot().eval.evaluations;
  const uint64_t twin_rounds = (*twin)->StatsSnapshot().eval.evaluations;
  if (twin_rounds != live_rounds) {
    return Status::FailedPrecondition(
        "durable root replays to round " + std::to_string(twin_rounds) +
        " but the live engine is at round " + std::to_string(live_rounds) +
        "; online stripe recovery needs every round logged");
  }
  const std::string payload =
      PersistAccess::SerializeShardSnapshot(**twin, shard, 0, 0);
  return PersistAccess::ReplaceShardStripe(engine, shard, payload);
}

}  // namespace scuba
