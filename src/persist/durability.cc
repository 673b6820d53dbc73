#include "persist/durability.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
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

/// Writes the generation's snapshot and publishes the manifest naming it —
/// the shared write path behind ForceCheckpoint and ScubaEngine::Checkpoint.
Status WriteCheckpoint(const std::string& dir, const ScubaEngine& engine,
                       const UpdateValidator* validator, uint64_t generation,
                       uint64_t wal_next_seq, uint64_t rounds,
                       CrashInjector* crash, uint64_t* total_bytes) {
  const std::string payload = PersistAccess::SaveEngineSnapshot(
      engine, validator, wal_next_seq, rounds);
  const std::string snapshot_dir = SnapshotDirOf(dir);
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
  ManifestInfo info;
  info.fingerprint = OptionsFingerprint(engine.options());
  info.generation = generation;
  info.wal_next_seq = wal_next_seq;
  info.rounds = rounds;
  info.snapshot_hash = Fnv1a64(payload);
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

/// Reads and verifies the snapshot `info` names. kDataLoss for a missing,
/// torn or substituted file (the caller may fall back a generation);
/// kFailedPrecondition for another format version.
Result<std::string> ReadGenerationSnapshot(const std::string& dir,
                                           const ManifestInfo& info) {
  const std::string path =
      (fs::path(SnapshotDirOf(dir)) / SnapshotFileName(info.generation))
          .string();
  Result<std::string> payload = ReadSnapshotPayload(path);
  if (!payload.ok()) {
    if (payload.status().IsFailedPrecondition()) return payload.status();
    // A missing or torn snapshot invalidates the generation either way.
    return Status::DataLoss("generation " + std::to_string(info.generation) +
                            ": " + payload.status().message());
  }
  if (Fnv1a64(*payload) != info.snapshot_hash) {
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
  return payload;
}

/// The refusal of a generation whose manifest fingerprint differs from the
/// engine's options. The fingerprint's layout is part of the snapshot
/// format, so a root written under another snapshot version differs too:
/// that version refusal wins, naming the real cause.
Status OptionsMismatch(const std::string& dir, const ManifestInfo& info,
                       std::string message) {
  Result<std::string> payload = ReadGenerationSnapshot(dir, info);
  if (payload.status().IsFailedPrecondition()) return payload.status();
  return Status::FailedPrecondition(std::move(message));
}

/// Loads a verified snapshot into `engine`, which must then audit clean.
Status LoadGeneration(uint64_t generation, const std::string& payload,
                      ScubaEngine* engine, UpdateValidator* validator) {
  SCUBA_RETURN_IF_ERROR(
      PersistAccess::LoadEngineSnapshot(payload, engine, validator));
  // CRC and payload hash vouch for the bytes, not for what they decode to:
  // a generation must also restore a state that audits clean.
  const InvariantAuditReport audit = engine->AuditInvariants();
  if (!audit.clean()) {
    return Status::DataLoss("generation " + std::to_string(generation) +
                            " restores a state that fails its audit: " +
                            audit.ToString());
  }
  return Status::OK();
}

}  // namespace

// --- PersistAccess engine statics -----------------------------------------

void PersistAccess::AdoptEngineState(ScubaEngine* twin, ScubaEngine* live) {
  live->store_ = std::move(twin->store_);
  live->grid_ = std::move(twin->grid_);
  live->join_executor_.counters_ = twin->join_executor_.counters_;
  live->SyncJoinStats();
  live->shedder_.eta_ = twin->shedder_.eta_;
  live->shedder_.adjustments_ = twin->shedder_.adjustments_;
  live->clusterer_.set_nucleus_radius(twin->clusterer_.nucleus_radius());
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
      dir, *this, /*validator=*/nullptr, generation, /*wal_next_seq=*/0,
      stats_.evaluations, /*crash=*/nullptr, &bytes));
  ++stats_.checkpoints_written;
  stats_.last_checkpoint_bytes = bytes;
  stats_.last_checkpoint_seconds = sw.ElapsedSeconds();
  stats_.total_checkpoint_seconds += stats_.last_checkpoint_seconds;
  return Status::OK();
}

Status ScubaEngine::Restore(const std::string& dir) {
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
    return OptionsMismatch(
        dir, *info,
        "checkpoint was taken under different engine options; restore "
        "requires semantically identical ScubaOptions");
  }
  Result<std::string> payload = ReadGenerationSnapshot(dir, *info);
  if (!payload.ok()) return payload.status();
  return LoadGeneration(info->generation, *payload, this,
                        /*validator=*/nullptr);
}

// --- DurabilityManager -----------------------------------------------------

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const std::string& dir, const CheckpointPolicy& policy,
    ScubaEngine* engine, UpdateValidator* validator, CrashInjector* crash) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must be non-null");
  }
  if (policy.keep_last_k == 0) {
    return Status::InvalidArgument("keep_last_k must be at least 1");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + dir + ": " + ec.message());
  }
  std::unique_ptr<DurabilityManager> manager(
      new DurabilityManager(dir, policy, engine, validator, crash));
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
      return OptionsMismatch(
          dir, *info,
          "durable directory belongs to a run with different engine options");
    }
    base_seq = info->wal_next_seq;
    break;
  }
  Result<std::unique_ptr<WalWriter>> wal =
      WalWriter::Open(WalDirOf(dir), policy.wal_segment_bytes, base_seq, crash);
  if (!wal.ok()) return wal.status();
  manager->wal_ = std::move(wal).value();
  return manager;
}

Status DurabilityManager::LogBatch(
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
  uint64_t durable_bytes = 0;
  const Status status = wal_->Append(batch_time, evaluate_after, objects,
                                     queries, &durable_bytes);
  if (durable_bytes > 0) {
    EvalStats* stats = PersistAccess::MutableStats(engine_);
    ++stats->wal_records_appended;
    ++stats->wal_fsyncs;
    stats->wal_bytes_appended += durable_bytes;
  }
  if (telemetry != nullptr) {
    const double elapsed = sw.ElapsedSeconds();
    TraceCollector& tc = telemetry->trace();
    const int32_t checkpoint = tc.EnsureSpan(tc.root(), "checkpoint");
    tc.Accumulate(checkpoint, elapsed);
    tc.Accumulate(tc.EnsureSpan(checkpoint, "wal"), elapsed);
  }
  return status;
}

Status DurabilityManager::OnRoundComplete() {
  if (policy_.every_n_rounds == 0) return Status::OK();
  if (++rounds_since_checkpoint_ < policy_.every_n_rounds) return Status::OK();
  return ForceCheckpoint();
}

Status DurabilityManager::ForceCheckpoint() {
  if (crash_ != nullptr &&
      crash_->ShouldCrash(CrashPoint::kBeforeSnapshotWrite)) {
    return crash_->CrashStatus();
  }
  Stopwatch sw;
  EvalStats* stats = PersistAccess::MutableStats(engine_);
  uint64_t bytes = 0;
  SCUBA_RETURN_IF_ERROR(WriteCheckpoint(dir_, *engine_, validator_,
                                        next_generation_, wal_->next_seq(),
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

Status DurabilityManager::Prune() {
  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir_);
  if (!manifests.ok()) return manifests.status();
  // Retention counts manifest GENERATIONS, not raw snapshots: a snapshot
  // or WAL segment stays on disk as long as ANY retained manifest
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
  const std::string snapshot_dir = SnapshotDirOf(dir_);
  Result<std::vector<std::pair<uint64_t, std::string>>> snapshots =
      ListSnapshots(snapshot_dir);
  if (!snapshots.ok()) return snapshots.status();
  for (const auto& [generation, path] : *snapshots) {
    if (retained_generations.count(generation) == 0) {
      fs::remove(path, ec);
      if (ec) {
        return Status::IoError("remove " + path + ": " + ec.message());
      }
    }
  }
  for (const fs::directory_entry& entry :
       fs::directory_iterator(snapshot_dir, ec)) {
    if (entry.path().extension() == ".tmp") fs::remove(entry.path(), ec);
  }
  Result<size_t> removed = wal_->PruneSegmentsBelow(min_wal_seq);
  if (!removed.ok()) return removed.status();
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".tmp") fs::remove(entry.path(), ec);
  }
  return Status::OK();
}

// --- Recovery ---------------------------------------------------------------

std::string RecoveryReport::ToString() const {
  std::ostringstream out;
  if (manifest_path.empty()) {
    out << "recovered from an empty base (no committed manifest)";
  } else {
    out << "recovered from " << manifest_path << " (generation " << generation
        << ", seq " << base_seq << ", " << snapshot_rounds << " rounds) into "
        << engine_shards << " join windows";
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

std::string RecoveryReport::ToJson() const {
  std::ostringstream out;
  out << "{\"manifest_path\":\"" << JsonEscape(manifest_path) << "\""
      << ",\"generation\":" << generation
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

Result<RecoveryReport> RecoverEngine(const std::string& dir,
                                     ScubaEngine* engine,
                                     UpdateValidator* validator,
                                     const ResultSink& sink) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must be non-null");
  }
  RecoveryReport report;
  report.engine_shards = engine->shard_count();
  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir);
  if (!manifests.ok()) return manifests.status();
  // Newest committed generation whose snapshot verifies; torn or
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
      return OptionsMismatch(
          dir, *info,
          "checkpoint was taken under different engine options (manifest " +
          path + "); recovery requires semantically identical ScubaOptions");
    }
    Result<std::string> payload = ReadGenerationSnapshot(dir, *info);
    if (!payload.ok()) {
      if (payload.status().IsDataLoss()) {
        report.data_loss.push_back(payload.status().message());
        ++report.generations_skipped;
        continue;
      }
      return payload.status();
    }
    SCUBA_RETURN_IF_ERROR(
        LoadGeneration(generation, *payload, engine, validator));
    report.manifest_path = path;
    report.generation = generation;
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
  // The WAL holds admitted batches: replay commits them without logging or
  // checkpointing again.
  RoundStep step(engine, /*validator=*/nullptr, /*durability=*/nullptr);
  const RoundHandoff handoff = sink;
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
    SCUBA_RETURN_IF_ERROR(step.Commit(record.batch_time, record.evaluate_after,
                                      record.objects, record.queries, handoff));
    ++report.batches_replayed;
    ++report.next_seq;
  }
  report.rounds_replayed = step.rounds();
  PersistAccess::MutableStats(engine)->recovery_replay_rounds +=
      report.rounds_replayed;
  return report;
}

Status RecoverWindow(const std::string& dir, ScubaEngine* engine,
                     uint32_t window) {
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
  Result<RecoveryReport> replay =
      RecoverEngine(dir, twin->get(), /*validator=*/nullptr);
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
  PersistAccess::AdoptEngineState(twin->get(), engine);
  return Status::OK();
}

}  // namespace scuba
