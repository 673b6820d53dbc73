#include "persist/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "persist/fsio.h"

namespace scuba {

namespace {

namespace fs = std::filesystem;

constexpr char kMagic[8] = {'S', 'C', 'U', 'B', 'S', 'N', 'P', '1'};
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".scuba";
/// The SnapshotMeta header at the front of every payload: three u64s.
constexpr size_t kSnapshotMetaBytes = 3 * sizeof(uint64_t);

void PutPoint(ByteWriter* w, Point p) {
  w->PutDouble(p.x);
  w->PutDouble(p.y);
}

Status GetPoint(ByteReader* r, Point* p) {
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&p->x));
  return r->GetDouble(&p->y);
}

void PutCircle(ByteWriter* w, const Circle& c) {
  PutPoint(w, c.center);
  w->PutDouble(c.radius);
}

Status GetCircle(ByteReader* r, Circle* c) {
  SCUBA_RETURN_IF_ERROR(GetPoint(r, &c->center));
  return r->GetDouble(&c->radius);
}

/// The EvalStats counts a snapshot keeps, in payload order. Wall-clock
/// seconds and join_threads describe the process, not the state, so they
/// stay out and two checkpoints of one input are byte-identical at any
/// thread count. The four join counts EvalStats mirrors (comparisons,
/// bounds_checks, cluster_pairs_*) are written once, in kJoinCounts, and
/// copied back on load.
constexpr uint64_t EvalStats::*kDurableEvalCounts[] = {
    &EvalStats::evaluations,
    &EvalStats::total_results,
    &EvalStats::invariant_audits,
    &EvalStats::invariant_violations,
    &EvalStats::invariant_repairs,
    &EvalStats::checkpoints_written,
    &EvalStats::last_checkpoint_bytes,
    &EvalStats::wal_records_appended,
    &EvalStats::wal_fsyncs,
    &EvalStats::wal_bytes_appended,
    &EvalStats::recovery_replay_rounds,
};

constexpr uint64_t ClusterJoinExecutor::Counters::*kJoinCounts[] = {
    &ClusterJoinExecutor::Counters::comparisons,
    &ClusterJoinExecutor::Counters::bounds_checks,
    &ClusterJoinExecutor::Counters::pairs_tested,
    &ClusterJoinExecutor::Counters::pairs_overlapping,
    &ClusterJoinExecutor::Counters::within_joins_single,
    &ClusterJoinExecutor::Counters::within_joins_pair,
};

constexpr uint64_t ScubaPhaseStats::*kPhaseCounts[] = {
    &ScubaPhaseStats::clusters_dissolved_expired,
    &ScubaPhaseStats::members_shed_maintenance,
    &ScubaPhaseStats::clusters_split,
};

constexpr uint64_t ClustererStats::*kClustererCounts[] = {
    &ClustererStats::clusters_created,
    &ClustererStats::members_absorbed,
    &ClustererStats::members_refreshed,
    &ClustererStats::members_departed,
    &ClustererStats::clusters_dissolved_empty,
    &ClustererStats::members_shed,
};

template <typename T, size_t N>
void PutCounts(ByteWriter* w, const T& stats,
               uint64_t T::* const (&fields)[N]) {
  for (uint64_t T::*field : fields) w->PutU64(stats.*field);
}

template <typename T, size_t N>
Status GetCounts(ByteReader* r, T* stats, uint64_t T::* const (&fields)[N]) {
  for (uint64_t T::*field : fields) {
    SCUBA_RETURN_IF_ERROR(r->GetU64(&(stats->*field)));
  }
  return Status::OK();
}

}  // namespace

uint64_t OptionsFingerprint(const ScubaOptions& options) {
  ByteWriter w;
  w.PutDouble(options.theta_d);
  w.PutDouble(options.theta_s);
  w.PutU32(options.grid_cells);
  w.PutDouble(options.region.min_x);
  w.PutDouble(options.region.min_y);
  w.PutDouble(options.region.max_x);
  w.PutDouble(options.region.max_y);
  w.PutI64(options.delta);
  w.PutBool(options.probe_theta_d_disk);
  w.PutBool(options.query_reach_aware);
  w.PutDouble(options.grid_sync_padding);
  w.PutBool(options.enable_cluster_splitting);
  w.PutDouble(options.split_radius_factor);
  w.PutU32(options.audit_every_n_rounds);
  w.PutU8(static_cast<uint8_t>(options.shedding.mode));
  w.PutDouble(options.shedding.eta);
  w.PutU64(options.shedding.memory_budget_bytes);
  w.PutDouble(options.shedding.eta_step);
  // join_threads / ingest_threads / shards / supervision / checkpoint policy
  // deliberately excluded: results are bit-identical across them, so
  // snapshots stay portable across thread counts, window counts, supervision
  // settings and retention settings.
  w.PutU32(kSnapshotVersion);
  return Fnv1a64(w.bytes());
}

std::string SnapshotFileName(uint64_t generation) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", kSnapshotPrefix,
                static_cast<unsigned long long>(generation), kSnapshotSuffix);
  return buf;
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListSnapshots(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return out;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot list " + dir + ": " + ec.message());
  }
  for (const fs::directory_entry& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSnapshotPrefix, 0) != 0) continue;
    if (name.size() <= sizeof(kSnapshotPrefix) - 1 + sizeof(kSnapshotSuffix) - 1)
      continue;
    if (name.substr(name.size() - (sizeof(kSnapshotSuffix) - 1)) !=
        kSnapshotSuffix)
      continue;
    const std::string digits =
        name.substr(sizeof(kSnapshotPrefix) - 1,
                    name.size() - (sizeof(kSnapshotPrefix) - 1) -
                        (sizeof(kSnapshotSuffix) - 1));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    out.emplace_back(std::strtoull(digits.c_str(), nullptr, 10),
                     entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void PersistAccess::SaveCluster(const MovingCluster& c, ByteWriter* w) {
  w->PutU32(c.cid_);
  PutPoint(w, c.centroid_);
  w->PutDouble(c.radius_);
  w->PutDouble(c.query_reach_);
  PutPoint(w, Point{c.translation_.x, c.translation_.y});
  PutPoint(w, c.position_sum_);
  w->PutDouble(c.speed_sum_);
  w->PutU32(c.dest_node_);
  PutPoint(w, c.dest_position_);
  w->PutU64(c.object_count_);
  w->PutU64(c.query_count_);
  w->PutBool(c.has_nucleus_);
  PutPoint(w, c.nucleus_anchor_);
  w->PutDouble(c.nucleus_radius_);
  PutCircle(w, c.registered_bounds_);
  w->PutU64(c.members_.size());
  for (const ClusterMember& m : c.members_) {  // order is state: keep it
    w->PutU8(static_cast<uint8_t>(m.kind));
    w->PutU32(m.id);
    w->PutDouble(m.offset.x);
    w->PutDouble(m.offset.y);
    PutPoint(w, m.anchor);
    w->PutDouble(m.speed);
    w->PutU64(m.attrs);
    w->PutDouble(m.range_width);
    w->PutDouble(m.range_height);
    w->PutU64(m.required_attrs);
    w->PutI64(m.update_time);
    w->PutBool(m.shed);
    w->PutDouble(m.approx_radius);
  }
}

Result<MovingCluster> PersistAccess::LoadCluster(ByteReader* r) {
  uint32_t cid = 0;
  Point centroid;
  SCUBA_RETURN_IF_ERROR(r->GetU32(&cid));
  SCUBA_RETURN_IF_ERROR(GetPoint(r, &centroid));
  MovingCluster c(cid, centroid, 0.0, kInvalidNodeId, Point{});
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&c.radius_));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&c.query_reach_));
  Point translation;
  SCUBA_RETURN_IF_ERROR(GetPoint(r, &translation));
  c.translation_ = Vec2{translation.x, translation.y};
  SCUBA_RETURN_IF_ERROR(GetPoint(r, &c.position_sum_));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&c.speed_sum_));
  SCUBA_RETURN_IF_ERROR(r->GetU32(&c.dest_node_));
  SCUBA_RETURN_IF_ERROR(GetPoint(r, &c.dest_position_));
  uint64_t object_count = 0, query_count = 0;
  SCUBA_RETURN_IF_ERROR(r->GetU64(&object_count));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&query_count));
  c.object_count_ = static_cast<size_t>(object_count);
  c.query_count_ = static_cast<size_t>(query_count);
  SCUBA_RETURN_IF_ERROR(r->GetBool(&c.has_nucleus_));
  SCUBA_RETURN_IF_ERROR(GetPoint(r, &c.nucleus_anchor_));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&c.nucleus_radius_));
  SCUBA_RETURN_IF_ERROR(GetCircle(r, &c.registered_bounds_));
  uint64_t member_count = 0;
  SCUBA_RETURN_IF_ERROR(r->GetU64(&member_count));
  if (member_count > r->Remaining()) {  // each member needs > 1 byte
    return Status::DataLoss("cluster member count " +
                            std::to_string(member_count) +
                            " exceeds the remaining payload");
  }
  c.members_.reserve(static_cast<size_t>(member_count));
  for (uint64_t i = 0; i < member_count; ++i) {
    ClusterMember m;
    uint8_t kind = 0;
    SCUBA_RETURN_IF_ERROR(r->GetU8(&kind));
    if (kind > 1) {
      return Status::DataLoss("cluster member kind byte " +
                              std::to_string(kind) + " is not a valid kind");
    }
    m.kind = static_cast<EntityKind>(kind);
    SCUBA_RETURN_IF_ERROR(r->GetU32(&m.id));
    SCUBA_RETURN_IF_ERROR(r->GetDouble(&m.offset.x));
    SCUBA_RETURN_IF_ERROR(r->GetDouble(&m.offset.y));
    SCUBA_RETURN_IF_ERROR(GetPoint(r, &m.anchor));
    SCUBA_RETURN_IF_ERROR(r->GetDouble(&m.speed));
    SCUBA_RETURN_IF_ERROR(r->GetU64(&m.attrs));
    SCUBA_RETURN_IF_ERROR(r->GetDouble(&m.range_width));
    SCUBA_RETURN_IF_ERROR(r->GetDouble(&m.range_height));
    SCUBA_RETURN_IF_ERROR(r->GetU64(&m.required_attrs));
    SCUBA_RETURN_IF_ERROR(r->GetI64(&m.update_time));
    SCUBA_RETURN_IF_ERROR(r->GetBool(&m.shed));
    SCUBA_RETURN_IF_ERROR(r->GetDouble(&m.approx_radius));
    c.members_.push_back(std::move(m));
  }
  std::vector<uint64_t> refs;
  refs.reserve(c.members_.size());
  for (const ClusterMember& m : c.members_) {
    refs.push_back((static_cast<uint64_t>(m.kind) << 32) | m.id);
  }
  std::sort(refs.begin(), refs.end());
  if (std::adjacent_find(refs.begin(), refs.end()) != refs.end()) {
    return Status::DataLoss("cluster " + std::to_string(cid) +
                            " carries duplicate member references");
  }
  return c;
}

void PersistAccess::SaveStoreState(const ClusterStore& store,
                                   const GridIndex& grid, ByteWriter* w) {
  w->PutU32(store.next_cid_);
  SaveAttrTables(store, w);
  const std::vector<ClusterId> cids = store.SortedClusterIds();
  w->PutU64(cids.size());
  for (ClusterId cid : cids) {
    SaveCluster(*store.GetCluster(cid), w);
    w->PutBool(grid.Contains(cid));
  }
}

std::string PersistAccess::SaveEngineSnapshot(const ScubaEngine& e,
                                              const UpdateValidator* validator,
                                              uint64_t wal_next_seq,
                                              uint64_t rounds) {
  ByteWriter w;
  w.PutU64(OptionsFingerprint(e.options()));
  w.PutU64(wal_next_seq);
  w.PutU64(rounds);
  SaveStoreState(e.store_, e.grid_, &w);
  PutCounts(&w, e.join_executor_.counters_, kJoinCounts);
  w.PutDouble(e.shedder_.eta_);
  w.PutU64(e.shedder_.adjustments_);
  w.PutDouble(e.clusterer_.nucleus_radius());
  PutCounts(&w, e.stats_, kDurableEvalCounts);
  PutCounts(&w, e.phase_stats_, kPhaseCounts);
  PutCounts(&w, e.clusterer_.stats_, kClustererCounts);
  w.PutBool(validator != nullptr);
  if (validator != nullptr) SaveValidatorState(*validator, &w);
  return w.Release();
}

Status PersistAccess::LoadEngineSnapshot(const std::string& payload,
                                         ScubaEngine* e,
                                         UpdateValidator* validator) {
  Result<SnapshotMeta> meta = PeekSnapshotMeta(payload);
  if (!meta.ok()) return meta.status();
  if (meta->options_fingerprint != OptionsFingerprint(e->options())) {
    return Status::FailedPrecondition(
        "snapshot was taken under different engine options; restore "
        "requires semantically identical ScubaOptions");
  }
  ByteReader r(std::string_view(payload).substr(kSnapshotMetaBytes));
  e->store_.Clear();
  e->grid_.Clear();
  uint32_t next_cid = 0;
  SCUBA_RETURN_IF_ERROR(r.GetU32(&next_cid));
  for (EntityKind kind : {EntityKind::kObject, EntityKind::kQuery}) {
    uint64_t rows = 0;
    SCUBA_RETURN_IF_ERROR(r.GetU64(&rows));
    for (uint64_t i = 0; i < rows; ++i) {
      uint32_t id = 0;
      uint64_t attrs = 0;
      SCUBA_RETURN_IF_ERROR(r.GetU32(&id));
      SCUBA_RETURN_IF_ERROR(r.GetU64(&attrs));
      e->store_.UpsertAttrs(EntityRef{kind, id}, attrs);
    }
  }
  e->store_.next_cid_ = next_cid;
  uint64_t cluster_count = 0;
  SCUBA_RETURN_IF_ERROR(r.GetU64(&cluster_count));
  ClusterId previous = 0;
  for (uint64_t i = 0; i < cluster_count; ++i) {
    Result<MovingCluster> cluster = LoadCluster(&r);
    if (!cluster.ok()) return cluster.status();
    bool registered = false;
    SCUBA_RETURN_IF_ERROR(r.GetBool(&registered));
    const ClusterId cid = cluster->cid();
    // The writer lists cids ascending, each below the next one to allocate;
    // a stale next_cid would hand a stored cid out again.
    if (cid >= next_cid || (i > 0 && cid <= previous)) {
      return Status::DataLoss("snapshot cluster " + std::to_string(cid) +
                              " is out of cid order or not below next_cid " +
                              std::to_string(next_cid));
    }
    previous = cid;
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
  SCUBA_RETURN_IF_ERROR(GetCounts(&r, &e->join_executor_.counters_,
                                  kJoinCounts));
  double nucleus_radius = 0.0;
  SCUBA_RETURN_IF_ERROR(r.GetDouble(&e->shedder_.eta_));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&e->shedder_.adjustments_));
  SCUBA_RETURN_IF_ERROR(r.GetDouble(&nucleus_radius));
  e->clusterer_.set_nucleus_radius(nucleus_radius);
  // Timings restart at zero; the engine reports its own parallelism.
  EvalStats stats;
  stats.join_threads = e->resolved_threads_;
  SCUBA_RETURN_IF_ERROR(GetCounts(&r, &stats, kDurableEvalCounts));
  e->stats_ = stats;
  e->SyncJoinStats();
  e->pending_prejoin_seconds_ = 0.0;
  SCUBA_RETURN_IF_ERROR(GetCounts(&r, &e->phase_stats_, kPhaseCounts));
  SCUBA_RETURN_IF_ERROR(
      GetCounts(&r, &e->clusterer_.stats_, kClustererCounts));
  bool has_validator = false;
  SCUBA_RETURN_IF_ERROR(r.GetBool(&has_validator));
  if (has_validator) {
    UpdateValidator scratch((ValidatorConfig()));
    SCUBA_RETURN_IF_ERROR(
        LoadValidatorState(&r, validator != nullptr ? validator : &scratch));
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("snapshot payload carries trailing bytes");
  }
  return Status::OK();
}

void PersistAccess::SaveAttrTables(const ClusterStore& store, ByteWriter* w) {
  for (EntityKind kind : {EntityKind::kObject, EntityKind::kQuery}) {
    const std::vector<std::pair<uint32_t, uint64_t>> rows =
        store.SortedAttrRows(kind);
    w->PutU64(rows.size());
    for (const auto& [id, attrs] : rows) {
      w->PutU32(id);
      w->PutU64(attrs);
    }
  }
}

void PersistAccess::SaveValidatorState(const UpdateValidator& v,
                                       ByteWriter* w) {
  w->PutU64(v.stats_.screened);
  w->PutU64(v.stats_.admitted);
  w->PutU64(v.stats_.repaired);
  for (uint64_t count : v.stats_.rejected) w->PutU64(count);
  std::vector<std::pair<EntityRef, Timestamp>> rows(v.last_time_.begin(),
                                                    v.last_time_.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return std::make_pair(static_cast<uint8_t>(a.first.kind), a.first.id) <
           std::make_pair(static_cast<uint8_t>(b.first.kind), b.first.id);
  });
  w->PutU64(rows.size());
  for (const auto& [ref, time] : rows) {
    w->PutU8(static_cast<uint8_t>(ref.kind));
    w->PutU32(ref.id);
    w->PutI64(time);
  }
  const QuarantineLog& log = v.log_;
  w->PutU64(log.total_);
  w->PutU64(log.next_);
  w->PutU64(log.ring_.size());
  for (const QuarantinedUpdate& q : log.ring_) {
    w->PutU8(static_cast<uint8_t>(q.kind));
    w->PutU32(q.id);
    w->PutI64(q.time);
    w->PutU8(static_cast<uint8_t>(q.reason));
    w->PutString(q.detail);
  }
}

Status PersistAccess::LoadValidatorState(ByteReader* r, UpdateValidator* v) {
  v->Reset();
  SCUBA_RETURN_IF_ERROR(r->GetU64(&v->stats_.screened));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&v->stats_.admitted));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&v->stats_.repaired));
  for (uint64_t& count : v->stats_.rejected) {
    SCUBA_RETURN_IF_ERROR(r->GetU64(&count));
  }
  uint64_t rows = 0;
  SCUBA_RETURN_IF_ERROR(r->GetU64(&rows));
  for (uint64_t i = 0; i < rows; ++i) {
    uint8_t kind = 0;
    uint32_t id = 0;
    int64_t time = 0;
    SCUBA_RETURN_IF_ERROR(r->GetU8(&kind));
    SCUBA_RETURN_IF_ERROR(r->GetU32(&id));
    SCUBA_RETURN_IF_ERROR(r->GetI64(&time));
    if (kind > 1) {
      return Status::DataLoss("validator entity kind byte " +
                              std::to_string(kind) + " is invalid");
    }
    v->last_time_[EntityRef{static_cast<EntityKind>(kind), id}] = time;
  }
  uint64_t total = 0, next = 0, ring = 0;
  SCUBA_RETURN_IF_ERROR(r->GetU64(&total));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&next));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&ring));
  if (ring > kQuarantineCapacity || next >= kQuarantineCapacity) {
    return Status::DataLoss("validator quarantine ring state is inconsistent");
  }
  v->log_.total_ = total;
  v->log_.next_ = static_cast<size_t>(next);
  v->log_.ring_.clear();
  v->log_.ring_.reserve(static_cast<size_t>(ring));
  for (uint64_t i = 0; i < ring; ++i) {
    QuarantinedUpdate q;
    uint8_t kind = 0, reason = 0;
    SCUBA_RETURN_IF_ERROR(r->GetU8(&kind));
    SCUBA_RETURN_IF_ERROR(r->GetU32(&q.id));
    SCUBA_RETURN_IF_ERROR(r->GetI64(&q.time));
    SCUBA_RETURN_IF_ERROR(r->GetU8(&reason));
    SCUBA_RETURN_IF_ERROR(r->GetString(&q.detail));
    if (kind > 1 || reason >= kRejectReasonCount) {
      return Status::DataLoss("quarantine entry carries invalid enum bytes");
    }
    q.kind = static_cast<EntityKind>(kind);
    q.reason = static_cast<RejectReason>(reason);
    v->log_.ring_.push_back(std::move(q));
  }
  return Status::OK();
}

void PersistAccess::NoteAdmitted(UpdateValidator* v, EntityKind kind,
                                 uint32_t id, Timestamp time) {
  // Mirrors the screening path's admit bookkeeping exactly.
  auto [it, inserted] = v->last_time_.try_emplace(EntityRef{kind, id}, time);
  if (!inserted && time > it->second) it->second = time;
}

Status WriteSnapshotFile(const std::string& dir, uint64_t generation,
                         const std::string& payload, uint64_t* bytes_written) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + dir + ": " + ec.message());
  }
  ByteWriter file;
  file.PutRawBytes(std::string_view(kMagic, sizeof(kMagic)));
  file.PutU32(kSnapshotVersion);
  file.PutU64(payload.size());
  file.PutRawBytes(payload);
  file.PutU32(Crc32(payload));
  const std::string& bytes = file.bytes();
  const std::string final_path =
      (fs::path(dir) / SnapshotFileName(generation)).string();
  const std::string tmp_path = final_path + ".tmp";
  SCUBA_RETURN_IF_ERROR(WriteFileDurably(tmp_path, bytes));
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::IoError("rename " + tmp_path + ": " + ec.message());
  }
  SCUBA_RETURN_IF_ERROR(SyncDirectory(dir));
  if (bytes_written != nullptr) *bytes_written = bytes.size();
  return Status::OK();
}

Result<std::string> ReadSnapshotPayload(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open snapshot: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string file = std::move(buf).str();
  constexpr size_t kHeader = sizeof(kMagic) + sizeof(uint32_t) + sizeof(uint64_t);
  if (file.size() < kHeader + sizeof(uint32_t)) {
    return Status::DataLoss("snapshot " + path + " is truncated (" +
                            std::to_string(file.size()) + " bytes)");
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("snapshot " + path + " has a bad magic header");
  }
  ByteReader header(std::string_view(file).substr(sizeof(kMagic)));
  uint32_t version = 0;
  uint64_t payload_len = 0;
  SCUBA_RETURN_IF_ERROR(header.GetU32(&version));
  SCUBA_RETURN_IF_ERROR(header.GetU64(&payload_len));
  if (version != kSnapshotVersion) {
    return Status::FailedPrecondition(
        "snapshot " + path + " has format version " + std::to_string(version) +
        "; this build reads only version " + std::to_string(kSnapshotVersion));
  }
  if (file.size() != kHeader + payload_len + sizeof(uint32_t)) {
    return Status::DataLoss("snapshot " + path + " is torn: header declares " +
                            std::to_string(payload_len) + " payload bytes, " +
                            std::to_string(file.size()) + " total on disk");
  }
  const std::string_view payload =
      std::string_view(file).substr(kHeader, payload_len);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, file.data() + kHeader + payload_len,
              sizeof(stored_crc));
  if (Crc32(payload) != stored_crc) {
    return Status::DataLoss("snapshot " + path + " failed its checksum");
  }
  return std::string(payload);
}

uint64_t EngineStateHash(const ScubaEngine& engine) {
  ByteWriter w;
  PersistAccess::SaveStoreState(engine.store(), engine.cluster_grid(), &w);
  return Fnv1a64(w.bytes());
}

Result<SnapshotMeta> PeekSnapshotMeta(const std::string& payload) {
  ByteReader r(payload);
  SnapshotMeta meta;
  SCUBA_RETURN_IF_ERROR(r.GetU64(&meta.options_fingerprint));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&meta.wal_next_seq));
  SCUBA_RETURN_IF_ERROR(r.GetU64(&meta.rounds));
  return meta;
}

}  // namespace scuba
