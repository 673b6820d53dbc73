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
constexpr uint32_t kSnapshotVersion = 1;
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".scuba";

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

template <typename Id>
void PutAttrTable(ByteWriter* w, const std::unordered_map<Id, uint64_t>& t) {
  std::vector<std::pair<Id, uint64_t>> rows(t.begin(), t.end());
  std::sort(rows.begin(), rows.end());
  w->PutU64(rows.size());
  for (const auto& [id, attrs] : rows) {
    w->PutU32(id);
    w->PutU64(attrs);
  }
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
  w.PutU8(static_cast<uint8_t>(options.on_bad_update));
  w.PutU32(options.audit_every_n_rounds);
  w.PutU8(static_cast<uint8_t>(options.shedding.mode));
  w.PutDouble(options.shedding.eta);
  w.PutU64(options.shedding.memory_budget_bytes);
  w.PutDouble(options.shedding.eta_step);
  w.PutDouble(options.shedding.relax_fraction);
  // join_threads / ingest_threads / shards / supervision / checkpoint policy
  // deliberately excluded: results are bit-identical across them, so
  // snapshots stay portable across thread counts, window counts, supervision
  // settings and retention settings.
  return Fnv1a64(w.bytes());
}

std::string SnapshotFileName(uint64_t wal_next_seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", kSnapshotPrefix,
                static_cast<unsigned long long>(wal_next_seq), kSnapshotSuffix);
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
    w->PutDouble(m.rel.r);
    w->PutDouble(m.rel.theta);
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
    SCUBA_RETURN_IF_ERROR(r->GetDouble(&m.rel.r));
    SCUBA_RETURN_IF_ERROR(r->GetDouble(&m.rel.theta));
    SCUBA_RETURN_IF_ERROR(GetPoint(r, &m.anchor));
    SCUBA_RETURN_IF_ERROR(r->GetDouble(&m.speed));
    SCUBA_RETURN_IF_ERROR(r->GetU64(&m.attrs));
    SCUBA_RETURN_IF_ERROR(r->GetDouble(&m.range_width));
    SCUBA_RETURN_IF_ERROR(r->GetDouble(&m.range_height));
    SCUBA_RETURN_IF_ERROR(r->GetU64(&m.required_attrs));
    SCUBA_RETURN_IF_ERROR(r->GetI64(&m.update_time));
    SCUBA_RETURN_IF_ERROR(r->GetBool(&m.shed));
    SCUBA_RETURN_IF_ERROR(r->GetDouble(&m.approx_radius));
    c.member_index_.emplace(m.Ref(), c.members_.size());
    c.members_.push_back(std::move(m));
  }
  if (c.member_index_.size() != c.members_.size()) {
    return Status::DataLoss("cluster " + std::to_string(cid) +
                            " carries duplicate member references");
  }
  return c;
}

void PersistAccess::SaveStoreState(const ClusterStore& store,
                                   const GridIndex& grid, ByteWriter* w) {
  w->PutU32(store.next_cid_);
  PutAttrTable(w, store.objects_);
  PutAttrTable(w, store.queries_);
  const std::vector<ClusterId> cids = store.SortedClusterIds();
  w->PutU64(cids.size());
  for (ClusterId cid : cids) {
    SaveCluster(*store.GetCluster(cid), w);
    w->PutBool(grid.Contains(cid));
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
  w->PutU64(log.capacity_);
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
  uint64_t capacity = 0, total = 0, next = 0, ring = 0;
  SCUBA_RETURN_IF_ERROR(r->GetU64(&capacity));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&total));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&next));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&ring));
  if (capacity != v->log_.capacity_) {
    return Status::FailedPrecondition(
        "validator quarantine capacity mismatch: snapshot has " +
        std::to_string(capacity) + ", this validator has " +
        std::to_string(v->log_.capacity_));
  }
  if (ring > capacity || next >= std::max<uint64_t>(capacity, 1)) {
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
  if (!v->config_.check_time_regression) return;
  // Mirrors the screening path's admit bookkeeping exactly.
  auto [it, inserted] = v->last_time_.try_emplace(EntityRef{kind, id}, time);
  if (!inserted && time > it->second) it->second = time;
}

void PersistAccess::SaveEvalStats(const EvalStats& s, ByteWriter* w) {
  // Fixed field order — extend only by appending (bump the manifest version
  // when the layout changes incompatibly).
  w->PutU64(s.evaluations);
  w->PutDouble(s.total_join_seconds);
  w->PutDouble(s.total_maintenance_seconds);
  w->PutDouble(s.last_join_seconds);
  w->PutDouble(s.last_maintenance_seconds);
  w->PutU64(s.total_results);
  w->PutU64(s.last_result_count);
  w->PutU64(s.comparisons);
  w->PutU64(s.bounds_checks);
  w->PutU64(s.cluster_pairs_tested);
  w->PutU64(s.cluster_pairs_overlapping);
  w->PutU32(s.join_threads);
  w->PutDouble(s.last_join_worker_seconds);
  w->PutDouble(s.total_join_worker_seconds);
  // Retired slot: the ingest thread count, always 1 (ingest is serial).
  w->PutU32(1);
  w->PutDouble(s.last_ingest_seconds);
  w->PutDouble(s.total_ingest_seconds);
  w->PutDouble(s.last_postjoin_seconds);
  w->PutDouble(s.total_postjoin_seconds);
  // Retired slots: the ingest worker seconds, which always equalled the
  // serial ingest wall seconds.
  w->PutDouble(s.last_ingest_seconds);
  w->PutDouble(s.total_ingest_seconds);
  w->PutDouble(s.last_postjoin_worker_seconds);
  w->PutDouble(s.total_postjoin_worker_seconds);
  w->PutU64(s.updates_quarantined);
  w->PutU64(s.invariant_audits);
  w->PutU64(s.invariant_violations);
  w->PutU64(s.invariant_repairs);
  w->PutU64(s.checkpoints_written);
  w->PutU64(s.last_checkpoint_bytes);
  w->PutDouble(s.last_checkpoint_seconds);
  w->PutDouble(s.total_checkpoint_seconds);
  w->PutU64(s.wal_records_appended);
  w->PutU64(s.wal_fsyncs);
  w->PutU64(s.wal_bytes_appended);
  w->PutU64(s.recovery_replay_rounds);
}

Status PersistAccess::LoadEvalStats(ByteReader* r, EvalStats* s) {
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->evaluations));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->total_join_seconds));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->total_maintenance_seconds));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->last_join_seconds));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->last_maintenance_seconds));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->total_results));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->last_result_count));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->comparisons));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->bounds_checks));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->cluster_pairs_tested));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->cluster_pairs_overlapping));
  SCUBA_RETURN_IF_ERROR(r->GetU32(&s->join_threads));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->last_join_worker_seconds));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->total_join_worker_seconds));
  uint32_t retired_u32 = 0;
  double retired_double = 0.0;
  SCUBA_RETURN_IF_ERROR(r->GetU32(&retired_u32));  // ingest thread count
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->last_ingest_seconds));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->total_ingest_seconds));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->last_postjoin_seconds));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->total_postjoin_seconds));
  // The two ingest worker-seconds slots.
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&retired_double));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&retired_double));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->last_postjoin_worker_seconds));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->total_postjoin_worker_seconds));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->updates_quarantined));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->invariant_audits));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->invariant_violations));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->invariant_repairs));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->checkpoints_written));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->last_checkpoint_bytes));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->last_checkpoint_seconds));
  SCUBA_RETURN_IF_ERROR(r->GetDouble(&s->total_checkpoint_seconds));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->wal_records_appended));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->wal_fsyncs));
  SCUBA_RETURN_IF_ERROR(r->GetU64(&s->wal_bytes_appended));
  return r->GetU64(&s->recovery_replay_rounds);
}

Status WriteSnapshotFile(const std::string& dir, uint64_t wal_next_seq,
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
      (fs::path(dir) / SnapshotFileName(wal_next_seq)).string();
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
    return Status::DataLoss("snapshot " + path + " has version " +
                            std::to_string(version) + "; this build reads " +
                            std::to_string(kSnapshotVersion));
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
