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

/// Serializes the coordinator state and the snapshot and publishes the
/// manifest — the shared write path behind ForceCheckpoint and
/// ScubaEngine::Checkpoint.
Status WriteCheckpoint(const std::string& dir, const ScubaEngine& engine,
                       const UpdateValidator* validator, const Rng* rng,
                       uint64_t generation, uint64_t wal_next_seq,
                       uint64_t rounds, CrashInjector* crash,
                       uint64_t* total_bytes) {
  ManifestInfo info;
  info.fingerprint = OptionsFingerprint(engine.options());
  info.generation = generation;
  info.wal_next_seq = wal_next_seq;
  info.rounds = rounds;
  const std::string payload =
      PersistAccess::SerializeEngineSnapshot(engine, wal_next_seq, rounds);
  const std::string snapshot_dir = ShardDir(dir, 0);
  if (crash != nullptr &&
      crash->ShouldCrash(CrashPoint::kMidShardSnapshotWrite)) {
    std::error_code ec;
    fs::create_directories(snapshot_dir, ec);
    if (ec) {
      return Status::IoError("cannot create " + snapshot_dir + ": " +
                             ec.message());
    }
    const std::string tmp_path =
        (fs::path(snapshot_dir) / (SnapshotFileName(generation) + ".tmp"))
            .string();
    SCUBA_RETURN_IF_ERROR(
        WriteFileDurably(tmp_path, payload, payload.size() / 2));
    return crash->CrashStatus();
  }
  uint64_t bytes = 0;
  SCUBA_RETURN_IF_ERROR(
      WriteSnapshotFile(snapshot_dir, generation, payload, &bytes));
  info.shards.push_back(ManifestShardEntry{generation, Fnv1a64(payload)});
  ByteWriter coord;
  PersistAccess::SaveCoordinatorState(engine, validator, rng, &coord);
  info.coordinator_state = coord.Release();
  bytes += info.coordinator_state.size();
  // The commit point: the snapshot is durable, now the manifest names it.
  SCUBA_RETURN_IF_ERROR(WriteManifestFile(dir, info, crash));
  if (crash != nullptr &&
      crash->ShouldCrash(CrashPoint::kAfterManifestRename)) {
    // Committed, but the prune step never runs.
    return crash->CrashStatus();
  }
  if (total_bytes != nullptr) *total_bytes = bytes;
  return Status::OK();
}

/// Validates one manifest generation's artifacts and returns its snapshot
/// payloads (one per entry), or kDataLoss naming the first damaged artifact.
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

/// Loads a verified generation into `engine`: the coordinator state wipes
/// and re-seeds it, then every snapshot entry adds its clusters.
Status LoadGeneration(const ManifestInfo& info,
                      const std::vector<std::string>& payloads,
                      ScubaEngine* engine, UpdateValidator* validator,
                      Rng* rng) {
  ByteReader coord(info.coordinator_state);
  SCUBA_RETURN_IF_ERROR(
      PersistAccess::LoadCoordinatorState(&coord, engine, validator, rng));
  for (const std::string& payload : payloads) {
    SCUBA_RETURN_IF_ERROR(PersistAccess::ApplyEngineSnapshot(payload, engine));
  }
  // CRC and payload hash vouch for the bytes, not for what they decode to:
  // a generation must also restore a state that audits clean.
  const InvariantAuditReport audit = engine->AuditInvariants();
  if (!audit.clean()) {
    return Status::DataLoss("generation " + std::to_string(info.generation) +
                            " restores a state that fails its audit: " +
                            audit.ToString());
  }
  return Status::OK();
}

}  // namespace

// --- PersistAccess engine statics -----------------------------------------

std::string PersistAccess::SerializeEngineSnapshot(const ScubaEngine& e,
                                                   uint64_t wal_next_seq,
                                                   uint64_t rounds) {
  ByteWriter w;
  w.PutU64(OptionsFingerprint(e.options()));
  w.PutU64(wal_next_seq);
  w.PutU64(rounds);
  w.PutU32(0);  // entry index
  w.PutU32(1);  // entry count
  const std::vector<ClusterId> cids = e.store_.SortedClusterIds();
  w.PutU64(cids.size());
  for (ClusterId cid : cids) {
    SaveCluster(*e.store_.GetCluster(cid), &w);
    w.PutBool(e.grid_.Contains(cid));
  }
  const ClusterJoinExecutor::Counters& jc = e.join_executor_.counters_;
  w.PutU64(jc.comparisons);
  w.PutU64(jc.bounds_checks);
  w.PutU64(jc.pairs_tested);
  w.PutU64(jc.pairs_overlapping);
  w.PutU64(jc.within_joins_single);
  w.PutU64(jc.within_joins_pair);
  w.PutDouble(e.shedder_.eta_);
  w.PutU64(e.shedder_.adjustments_);
  w.PutDouble(e.clusterer_.nucleus_radius());
  return w.Release();
}

Status PersistAccess::ApplyEngineSnapshot(const std::string& payload,
                                          ScubaEngine* e) {
  ByteReader r(payload);
  SnapshotMeta meta;
  SCUBA_RETURN_IF_ERROR(r.GetU64(&meta.options_fingerprint));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&meta.wal_next_seq));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&meta.rounds));
  if (meta.options_fingerprint != OptionsFingerprint(e->options())) {
    return Status::FailedPrecondition(
        "snapshot was taken under different engine options; restore "
        "requires semantically identical ScubaOptions");
  }
  uint32_t entry = 0, entries = 0;
  SCUBA_RETURN_IF_ERROR(r.GetU32(&entry));
  SCUBA_RETURN_IF_ERROR(r.GetU32(&entries));
  if (entries == 0 || entry >= entries) {
    return Status::DataLoss("snapshot names entry " + std::to_string(entry) +
                            " of " + std::to_string(entries));
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
    if (Status s = e->store_.AddCluster(std::move(cluster).value()); !s.ok()) {
      return Status::DataLoss("snapshot cluster " + std::to_string(cid) +
                              " rejected by the store: " + s.message());
    }
    if (!registered) continue;
    if (Status s = e->grid_.Insert(cid, bounds); !s.ok()) {
      return Status::DataLoss("snapshot cluster " + std::to_string(cid) +
                              " rejected by the grid: " + s.message());
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
  if (!r.AtEnd()) {
    return Status::DataLoss("snapshot payload carries trailing bytes");
  }
  // Per-shard entries of older generations each carry their own share of
  // the join counters; the sums are the engine's.
  e->join_executor_.counters_ += jc;
  if (entry == 0) {
    e->shedder_.eta_ = eta;
    e->shedder_.adjustments_ = adjustments;
    e->clusterer_.set_nucleus_radius(nucleus_radius);
  }
  return Status::OK();
}

void PersistAccess::AdoptEngineState(const ScubaEngine& twin,
                                     ScubaEngine* live) {
  live->store_ = twin.store_;
  live->grid_ = twin.grid_;
  // The copied grid carries the twin's generation counter, which may equal
  // one the executor cached for the live grid: force a fresh CSR snapshot.
  live->join_executor_.cached_grid_ = nullptr;
  live->join_executor_.counters_ = twin.join_executor_.counters_;
  live->shedder_.eta_ = twin.shedder_.eta_;
  live->shedder_.adjustments_ = twin.shedder_.adjustments_;
  live->clusterer_.set_nucleus_radius(twin.clusterer_.nucleus_radius());
}

void PersistAccess::SaveCoordinatorState(const ScubaEngine& e,
                                         const UpdateValidator* validator,
                                         const Rng* rng, ByteWriter* w) {
  w->PutU32(e.store_.next_cid_);
  PutSortedAttrTable(w, e.store_.objects_);
  PutSortedAttrTable(w, e.store_.queries_);
  SaveEvalStats(e.stats_, w);
  w->PutU64(e.phase_stats_.clusters_dissolved_expired);
  w->PutU64(e.phase_stats_.members_shed_maintenance);
  w->PutU64(e.phase_stats_.clusters_split);
  const ClustererStats& cs = e.clusterer_.stats_;
  w->PutU64(cs.clusters_created);
  w->PutU64(cs.members_absorbed);
  w->PutU64(cs.members_refreshed);
  w->PutU64(cs.members_departed);
  w->PutU64(cs.clusters_dissolved_empty);
  w->PutU64(cs.members_shed);
  // Pending ingest wall and worker seconds: equal, ingest being serial.
  w->PutDouble(e.pending_prejoin_seconds_);
  w->PutDouble(e.pending_prejoin_seconds_);
  // Retired shard counters (handoffs, border reads, rebalance
  // recommendations and the last recommendation), kept in the layout.
  w->PutU64(0);
  w->PutU64(0);
  w->PutU64(0);
  w->PutString("");
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

Status PersistAccess::LoadCoordinatorState(ByteReader* r, ScubaEngine* e,
                                           UpdateValidator* validator,
                                           Rng* rng) {
  // Wipe the whole engine: the coordinator blob + snapshot entries together
  // replace every piece of durable state.
  e->store_.Clear();
  e->grid_.Clear();
  e->join_executor_.counters_ = ClusterJoinExecutor::Counters{};
  e->shedder_.eta_ = e->options_.shedding.eta;
  e->shedder_.adjustments_ = 0;
  e->clusterer_.set_nucleus_radius(e->shedder_.nucleus_radius());
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
        e->store_.UpsertObjectAttrs(id, attrs);
      } else {
        e->store_.UpsertQueryAttrs(id, attrs);
      }
    }
  }
  e->store_.next_cid_ = next_cid;
  SCUBA_RETURN_IF_ERROR(LoadEvalStats(r, &e->stats_));
  // The restored engine reports its own parallelism (results are identical
  // across thread counts by contract; ingest is serial).
  e->stats_.join_threads = e->resolved_threads_;
  e->stats_.ingest_threads = 1;
  SCUBA_RETURN_IF_ERROR(
      r->GetU64(&e->phase_stats_.clusters_dissolved_expired));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&e->phase_stats_.members_shed_maintenance));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&e->phase_stats_.clusters_split));
  ClustererStats& cs = e->clusterer_.stats_;
  SCUBA_RETURN_IF_ERROR(r->GetU64(&cs.clusters_created));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&cs.members_absorbed));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&cs.members_refreshed));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&cs.members_departed));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&cs.clusters_dissolved_empty));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&cs.members_shed));
  double pending_worker_seconds = 0.0;
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&e->pending_prejoin_seconds_));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&pending_worker_seconds));
  // Retired shard counters: read past.
  uint64_t retired = 0;
  for (int counter = 0; counter < 3; ++counter) {
    SCUBA_RETURN_IF_ERROR(r->GetU64(&retired));
  }
  std::string retired_recommendation;
  SCUBA_RETURN_IF_ERROR(r->GetString(&retired_recommendation));
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

EvalStats* PersistAccess::MutableStats(ScubaEngine* e) { return &e->stats_; }

// --- ScubaEngine checkpoint/restore convenience -----------------------------

Status ScubaEngine::Checkpoint(const std::string& dir) {
  Stopwatch sw;
  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir);
  if (!manifests.ok()) return manifests.status();
  const uint64_t generation =
      manifests->empty() ? 1 : manifests->back().first + 1;
  uint64_t bytes = 0;
  SCUBA_RETURN_IF_ERROR(WriteCheckpoint(
      dir, *this, /*validator=*/nullptr, /*rng=*/nullptr, generation,
      /*wal_next_seq=*/0, stats_.evaluations, /*crash=*/nullptr, &bytes));
  ++stats_.checkpoints_written;
  stats_.last_checkpoint_bytes = bytes;
  stats_.last_checkpoint_seconds = sw.ElapsedSeconds();
  stats_.total_checkpoint_seconds += stats_.last_checkpoint_seconds;
  return Status::OK();
}

Status ScubaEngine::Restore(const std::string& dir) {
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
  return LoadGeneration(*info, *payloads, this, /*validator=*/nullptr,
                        /*rng=*/nullptr);
}

// --- ShardedDurabilityManager ----------------------------------------------

Result<std::unique_ptr<ShardedDurabilityManager>> ShardedDurabilityManager::Open(
    const std::string& dir, const CheckpointPolicy& policy,
    ScubaEngine* engine, UpdateValidator* validator, Rng* rng,
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
    break;
  }
  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Open(WalDirOf(dir), policy.wal_segment_bytes, base_seq, crash);
  if (!wal.ok()) return wal.status();
  manager->wal_ = std::move(wal).value();
  const EvalStats& stats = *PersistAccess::MutableStats(engine);
  manager->base_wal_records_ = stats.wal_records_appended;
  manager->base_wal_fsyncs_ = stats.wal_fsyncs;
  manager->base_wal_bytes_ = stats.wal_bytes_appended;
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
        PersistAccess::MutableStats(engine_)->evaluations + 1);
    sw.Start();
  }
  const Status status =
      wal_->Append(batch_time, evaluate_after, objects, queries);
  EvalStats* stats = PersistAccess::MutableStats(engine_);
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
  EvalStats* stats = PersistAccess::MutableStats(engine_);
  uint64_t bytes = 0;
  SCUBA_RETURN_IF_ERROR(WriteCheckpoint(
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
        << ", " << manifest_shards << " snapshot entries, seq " << base_seq
        << ", " << snapshot_rounds << " rounds) into " << engine_shards
        << " join windows";
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
    const std::string& dir, ScubaEngine* engine, UpdateValidator* validator,
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
    SCUBA_RETURN_IF_ERROR(
        LoadGeneration(*info, *payloads, engine, validator, rng));
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
  PersistAccess::MutableStats(engine)->recovery_replay_rounds +=
      report.rounds_replayed;
  return report;
}

Status RecoverShardStripe(const std::string& dir, ScubaEngine* engine,
                          uint32_t window,
                          const ValidatorConfig* validator_config) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must be non-null");
  }
  // Recover a pristine twin. Supervision and telemetry are stripped (both
  // are fingerprint-excluded, so the twin still passes the recovery
  // fingerprint check) — the twin must replay clean, not re-inject faults or
  // emit telemetry.
  ScubaOptions twin_options = engine->options();
  twin_options.supervision = ShardSupervisionOptions{};
  twin_options.telemetry = TelemetryOptions{};
  Result<std::unique_ptr<ScubaEngine>> twin = ScubaEngine::Create(twin_options);
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
    // An empty root would "recover" the engine to empty — data loss, not
    // recovery. Refuse instead.
    return Status::NotFound("durable root " + dir +
                            " holds no recoverable state for window " +
                            std::to_string(window));
  }
  const uint64_t live_rounds = engine->StatsSnapshot().eval.evaluations;
  const uint64_t twin_rounds = (*twin)->StatsSnapshot().eval.evaluations;
  if (twin_rounds != live_rounds) {
    return Status::FailedPrecondition(
        "durable root replays to round " + std::to_string(twin_rounds) +
        " but the live engine is at round " + std::to_string(live_rounds) +
        "; online window recovery needs every round logged");
  }
  PersistAccess::AdoptEngineState(**twin, engine);
  return Status::OK();
}

}  // namespace scuba
