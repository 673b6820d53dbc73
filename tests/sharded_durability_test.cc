// Unit coverage for the durability artifacts (docs/ARCHITECTURE.md §12):
// manifest framing and corruption detection, fsck verdicts (one exit code per
// damage class, read-only), generation-based prune retention, the
// ScubaEngine::Checkpoint/Restore convenience pair across window counts, one
// WAL record and one fsync per batch at any window count, one snapshot entry
// per generation, recovery of older per-shard generations, and refusal of
// the retired durable layouts.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/scuba_engine.h"
#include "persist/fsck.h"
#include "persist/manifest.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "shard/shard_durability.h"
#include "state_digest.h"

namespace scuba {
namespace {

namespace fs = std::filesystem;

class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name)
      : path_((fs::current_path() / name).string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Round {
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
};

/// Deterministic little stream: 60 entities in 4 drifting groups spread over
/// the whole region, so every row window of a 4-window layout owns tuples.
std::vector<Round> MakeRounds(int rounds, double y_span = 9000.0) {
  std::vector<Round> out(rounds);
  for (int r = 0; r < rounds; ++r) {
    for (uint32_t i = 0; i < 60; ++i) {
      const int group = i % 4;
      const Point pos{500.0 + 2200.0 * group + 13.0 * r + 7.0 * (i / 4),
                      400.0 + (y_span / 4.0) * group + 11.0 * r};
      if (i % 5 == 2) {
        QueryUpdate u;
        u.qid = i;
        u.position = pos;
        u.speed = 5.0 + group;
        u.dest_node = static_cast<NodeId>(group);
        u.dest_position = Point{9000, 9000};
        u.range_width = 150.0;
        u.range_height = 150.0;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].queries.push_back(u);
      } else {
        LocationUpdate u;
        u.oid = i;
        u.position = pos;
        u.speed = 5.0 + group;
        u.dest_node = static_cast<NodeId>(group);
        u.dest_position = Point{9000, 9000};
        u.attrs = 0x1u;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].objects.push_back(u);
      }
    }
  }
  return out;
}

ScubaOptions MakeOptions(uint32_t shards) {
  ScubaOptions opt;
  opt.shards = shards;
  opt.checkpoint.every_n_rounds = 2;
  opt.checkpoint.keep_last_k = 2;
  opt.checkpoint.wal_segment_bytes = 4096;
  return opt;
}

std::unique_ptr<ScubaEngine> MakeSharded(const ScubaOptions& opt) {
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Runs `rounds` through a durable sharded stream and returns the engine's
/// final digest. The manager is closed before returning.
std::string RunDurably(const std::vector<Round>& rounds,
                       const ScubaOptions& opt, const std::string& dir) {
  std::unique_ptr<ScubaEngine> engine = MakeSharded(opt);
  Result<std::unique_ptr<ShardedDurabilityManager>> manager =
      ShardedDurabilityManager::Open(dir, opt.checkpoint, engine.get(),
                                     /*validator=*/nullptr, /*rng=*/nullptr,
                                     /*crash=*/nullptr);
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  for (size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_TRUE((*manager)
                    ->LogBatch(static_cast<Timestamp>(r + 1), true,
                               rounds[r].objects, rounds[r].queries)
                    .ok());
    EXPECT_TRUE(engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    ResultSet results;
    EXPECT_TRUE(
        engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
    EXPECT_TRUE((*manager)->OnRoundComplete().ok());
  }
  return StateDigest(*engine);
}

/// Every regular file under `dir`, path -> contents.
std::map<std::string, std::string> DirContents(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    out[entry.path().string()] = std::move(bytes);
  }
  return out;
}

void CorruptByteAt(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

TEST(ShardedDurabilityTest, ManifestRoundTrips) {
  ScopedTempDir dir("manifest_roundtrip");
  ManifestInfo info;
  info.fingerprint = 0xFEEDFACECAFEBEEFull;
  info.generation = 7;
  info.wal_next_seq = 42;
  info.rounds = 40;
  info.shards = {{7, 111}, {7, 222}, {7, 333}};
  info.coordinator_state = std::string("opaque\0blob", 11);
  ASSERT_TRUE(WriteManifestFile(dir.path(), info, nullptr).ok());

  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir.path());
  ASSERT_TRUE(manifests.ok());
  ASSERT_EQ(manifests->size(), 1u);
  EXPECT_EQ(manifests->front().first, 7u);
  EXPECT_EQ(fs::path(manifests->front().second).filename().string(),
            ManifestFileName(7));

  Result<ManifestInfo> read = ReadManifest(manifests->front().second);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->fingerprint, info.fingerprint);
  EXPECT_EQ(read->generation, info.generation);
  EXPECT_EQ(read->wal_next_seq, info.wal_next_seq);
  EXPECT_EQ(read->rounds, info.rounds);
  ASSERT_EQ(read->shards.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(read->shards[s].snapshot_seq, info.shards[s].snapshot_seq);
    EXPECT_EQ(read->shards[s].state_hash, info.shards[s].state_hash);
  }
  EXPECT_EQ(read->coordinator_state, info.coordinator_state);
}

TEST(ShardedDurabilityTest, ManifestCorruptionIsDataLoss) {
  ScopedTempDir dir("manifest_corruption");
  ManifestInfo info;
  info.fingerprint = 1;
  info.generation = 1;
  info.shards = {{1, 9}};
  info.coordinator_state = "state";
  ASSERT_TRUE(WriteManifestFile(dir.path(), info, nullptr).ok());
  const std::string path =
      (fs::path(dir.path()) / ManifestFileName(1)).string();

  // Flip one payload byte: the CRC check must refuse the file.
  CorruptByteAt(path, fs::file_size(path) / 2);
  Result<ManifestInfo> read = ReadManifest(path);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();

  // Rewrite, then truncate (a torn rename): also kDataLoss.
  ASSERT_TRUE(WriteManifestFile(dir.path(), info, nullptr).ok());
  fs::resize_file(path, fs::file_size(path) / 3);
  read = ReadManifest(path);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
}

TEST(ShardedDurabilityTest, FsckVerdictsPerDamageClass) {
  // 6 rounds, checkpoint every 2: committed base 6 after the final round's
  // checkpoint; re-log two more batches without a checkpoint so WAL tails
  // exist past the base.
  std::vector<Round> rounds = MakeRounds(8);
  ScopedTempDir dir("fsck_verdicts");
  const ScubaOptions opt = MakeOptions(4);
  {
    std::unique_ptr<ScubaEngine> engine = MakeSharded(opt);
    Result<std::unique_ptr<ShardedDurabilityManager>> manager =
        ShardedDurabilityManager::Open(dir.path(), opt.checkpoint,
                                       engine.get(), nullptr, nullptr,
                                       nullptr);
    ASSERT_TRUE(manager.ok());
    for (size_t r = 0; r < rounds.size(); ++r) {
      ASSERT_TRUE((*manager)
                      ->LogBatch(static_cast<Timestamp>(r + 1), true,
                                 rounds[r].objects, rounds[r].queries)
                      .ok());
      ASSERT_TRUE(
          engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
      ResultSet results;
      ASSERT_TRUE(
          engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
      // Checkpoint only through round 6: seqs 6..7 stay WAL-only.
      if (r < 6) ASSERT_TRUE((*manager)->OnRoundComplete().ok());
    }
  }

  // Clean directory: exit 0, and fsck must not change a single byte.
  const std::map<std::string, std::string> before = DirContents(dir.path());
  Result<FsckReport> report = FsckDurableDir(dir.path());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->exit_code, kFsckOk) << report->ToString();
  EXPECT_GT(report->manifests_valid, 0u);
  EXPECT_GT(report->snapshots_valid, 0u);
  EXPECT_EQ(DirContents(dir.path()), before);

  // Orphaned temp file -> kFsckOrphan.
  const std::string tmp =
      (fs::path(dir.path()) / ShardDirName(0) / "snapshot-junk.tmp").string();
  { std::ofstream(tmp, std::ios::binary) << "partial"; }
  report = FsckDurableDir(dir.path());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->exit_code, kFsckOrphan) << report->ToString();
  fs::remove(tmp);

  // Each damage below is undone by rewriting the clean files, `before`.
  auto restore = [&before] {
    for (const auto& [path, bytes] : before) {
      std::ofstream(path, std::ios::binary) << bytes;
    }
  };

  // A torn WAL tail -> kFsckTornTail. Truncate the final segment
  // mid-frame: seq 7 loses its record.
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(WalDirOf(dir.path()));
  ASSERT_TRUE(segments.ok());
  ASSERT_GE(segments->size(), 3u);
  const std::string last_segment = segments->back().second;
  fs::resize_file(last_segment, fs::file_size(last_segment) - 5);
  report = FsckDurableDir(dir.path());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->exit_code, kFsckTornTail) << report->ToString();
  restore();

  // A WAL segment missing mid-log -> a sequence gap -> kFsckWalGap.
  fs::remove((*segments)[1].second);
  report = FsckDurableDir(dir.path());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->exit_code, kFsckWalGap) << report->ToString();
  restore();

  // A WAL that resumes past the newest manifest's seq 6 (only seq 7's
  // segment left) reads clean on its own, but replay would skip seq 6:
  // fsck says kFsckWalGap and recovery refuses with kDataLoss.
  for (size_t i = 0; i + 1 < segments->size(); ++i) {
    fs::remove((*segments)[i].second);
  }
  report = FsckDurableDir(dir.path());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->exit_code, kFsckWalGap) << report->ToString();
  {
    std::unique_ptr<ScubaEngine> engine = MakeSharded(opt);
    Result<ShardedRecoveryReport> gap = RecoverShardedEngine(
        dir.path(), engine.get(), /*validator=*/nullptr, /*rng=*/nullptr);
    EXPECT_TRUE(gap.status().IsDataLoss()) << gap.status().ToString();
  }
  restore();

  // The referenced snapshot corrupted -> kFsckBadSnapshot.
  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir.path());
  ASSERT_TRUE(manifests.ok());
  Result<ManifestInfo> newest = ReadManifest(manifests->back().second);
  ASSERT_TRUE(newest.ok());
  ASSERT_EQ(newest->shards.size(), 1u) << "one snapshot entry per generation";
  const std::string snap =
      (fs::path(dir.path()) / ShardDirName(0) /
       SnapshotFileName(newest->shards[0].snapshot_seq))
          .string();
  CorruptByteAt(snap, fs::file_size(snap) / 2);
  report = FsckDurableDir(dir.path());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->exit_code, kFsckBadSnapshot) << report->ToString();

  // The same snapshot deleted -> kFsckMissingArtifact (worse than orphan).
  fs::remove(snap);
  report = FsckDurableDir(dir.path());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->exit_code, kFsckMissingArtifact) << report->ToString();
  restore();

  // A corrupted manifest -> kFsckBadManifest, plus the orphan verdict for
  // the snapshots only that manifest referenced; the exit code is the max.
  CorruptByteAt(manifests->back().second,
                fs::file_size(manifests->back().second) - 2);
  report = FsckDurableDir(dir.path());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->exit_code, kFsckBadManifest) << report->ToString();
}

TEST(ShardedDurabilityTest, FsckReportToJsonMirrorsTheReport) {
  std::vector<Round> rounds = MakeRounds(4);
  ScopedTempDir dir("fsck_json");
  const ScubaOptions opt = MakeOptions(2);
  RunDurably(rounds, opt, dir.path());

  // Clean directory: the JSON mirrors the counters and carries empty lists.
  Result<FsckReport> report = FsckDurableDir(dir.path());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->exit_code, kFsckOk) << report->ToString();
  std::string json = report->ToJson();
  EXPECT_NE(json.find("\"clean\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"exit_code\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"problems\":[]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"manifests_valid\":" +
                      std::to_string(report->manifests_valid)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"wal_records_scanned\":" +
                      std::to_string(report->wal_records_scanned)),
            std::string::npos)
      << json;

  // Damage the directory: the verdict and the problem text (JSON-escaped,
  // quoted) must appear.
  const std::string tmp =
      (fs::path(dir.path()) / ShardDirName(0) / "snapshot-junk.tmp").string();
  { std::ofstream(tmp, std::ios::binary) << "partial"; }
  report = FsckDurableDir(dir.path());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->exit_code, kFsckOrphan);
  json = report->ToJson();
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"exit_code\":" + std::to_string(kFsckOrphan)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("snapshot-junk.tmp"), std::string::npos) << json;
  ASSERT_FALSE(report->problems.empty());
  EXPECT_NE(json.find("\"problems\":[\""), std::string::npos) << json;
}

TEST(ShardedDurabilityTest, PruneRetainsOnlyManifestReferencedGenerations) {
  // 10 rounds, checkpoint every 2, keep 2 -> generations 1..5 written,
  // {4, 5} retained.
  std::vector<Round> rounds = MakeRounds(10);
  ScopedTempDir dir("prune_generations");
  const ScubaOptions opt = MakeOptions(2);
  const std::string final_digest = RunDurably(rounds, opt, dir.path());

  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir.path());
  ASSERT_TRUE(manifests.ok());
  ASSERT_EQ(manifests->size(), 2u) << "keep_last_k=2 retains 2 generations";
  EXPECT_EQ((*manifests)[0].first, 4u);
  EXPECT_EQ((*manifests)[1].first, 5u);
  Result<std::vector<std::pair<uint32_t, std::string>>> snapshot_dirs =
      ListShardDirs(dir.path());
  ASSERT_TRUE(snapshot_dirs.ok());
  ASSERT_EQ(snapshot_dirs->size(), 1u) << "one snapshot entry at 2 windows";
  Result<std::vector<std::pair<uint64_t, std::string>>> snapshots =
      ListSnapshots((fs::path(dir.path()) / ShardDirName(0)).string());
  ASSERT_TRUE(snapshots.ok());
  ASSERT_EQ(snapshots->size(), 2u);
  EXPECT_EQ((*snapshots)[0].first, 4u);
  EXPECT_EQ((*snapshots)[1].first, 5u);

  // The regression: generation 4's artifacts must remain recoverable after
  // the prune. Delete generation 5's manifest (as a torn rename would leave
  // it unreadable) and recover — the fallback generation still has its
  // snapshots AND every WAL record from ITS base onward.
  fs::remove((*manifests)[1].second);
  std::unique_ptr<ScubaEngine> engine = MakeSharded(opt);
  Result<ShardedRecoveryReport> report = RecoverShardedEngine(
      dir.path(), engine.get(), /*validator=*/nullptr, /*rng=*/nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->generation, 4u);
  EXPECT_EQ(report->base_seq, 8u);
  EXPECT_EQ(report->rounds_replayed, 2u);
  EXPECT_EQ(report->next_seq, 10u);
  EXPECT_EQ(StateDigest(*engine), final_digest);
}

TEST(ShardedDurabilityTest, CheckpointRestoresAcrossShardCounts) {
  std::vector<Round> rounds = MakeRounds(5);
  ScopedTempDir dir("checkpoint_restore");
  std::unique_ptr<ScubaEngine> engine = MakeSharded(MakeOptions(4));
  for (size_t r = 0; r < rounds.size(); ++r) {
    ASSERT_TRUE(engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    ResultSet results;
    ASSERT_TRUE(
        engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
  }
  const std::string digest = StateDigest(*engine);
  ASSERT_TRUE(engine->Checkpoint(dir.path()).ok());

  for (uint32_t shards : {3u, 1u, 4u}) {
    std::unique_ptr<ScubaEngine> restored = MakeSharded(MakeOptions(shards));
    ASSERT_TRUE(restored->Restore(dir.path()).ok()) << shards << " shards";
    EXPECT_EQ(StateDigest(*restored), digest) << shards << " shards";
    EXPECT_EQ(restored->StatsSnapshot().eval.evaluations, rounds.size());
  }

  // Semantically different options carry a different fingerprint: Restore
  // must refuse rather than mix incompatible states.
  ScubaOptions other = MakeOptions(2);
  other.theta_d = other.theta_d + 3.0;
  std::unique_ptr<ScubaEngine> mismatched = MakeSharded(other);
  Status s = mismatched->Restore(dir.path());
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
}

TEST(ShardedDurabilityTest, OneWalRecordAndOneFsyncPerBatch) {
  // Windows partition the engine's work, not its history: at 4 shards every
  // batch is still one record and one fsync in the root's one WAL, and no
  // shard directory holds a log.
  std::vector<Round> rounds = MakeRounds(5);
  ScopedTempDir dir("one_wal_per_batch");
  const ScubaOptions opt = MakeOptions(4);
  std::unique_ptr<ScubaEngine> engine = MakeSharded(opt);
  {
    Result<std::unique_ptr<ShardedDurabilityManager>> manager =
        ShardedDurabilityManager::Open(dir.path(), opt.checkpoint,
                                       engine.get(), /*validator=*/nullptr,
                                       /*rng=*/nullptr, /*crash=*/nullptr);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    for (size_t r = 0; r < rounds.size(); ++r) {
      ASSERT_TRUE((*manager)
                      ->LogBatch(static_cast<Timestamp>(r + 1), true,
                                 rounds[r].objects, rounds[r].queries)
                      .ok());
      ASSERT_TRUE(
          engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
      ResultSet results;
      ASSERT_TRUE(
          engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
      ASSERT_TRUE((*manager)->OnRoundComplete().ok());
    }
  }
  const EvalStats stats = engine->StatsSnapshot().eval;
  EXPECT_EQ(stats.wal_records_appended, rounds.size());
  EXPECT_EQ(stats.wal_fsyncs, rounds.size());

  // The log holds every batch whole, in delivery order.
  Result<WalContents> wal = ReadWal(WalDirOf(dir.path()));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_FALSE(wal->records.empty());
  for (const WalRecord& record : wal->records) {
    ASSERT_LT(record.seq, rounds.size());
    EXPECT_EQ(record.objects.size(), rounds[record.seq].objects.size());
    EXPECT_EQ(record.queries.size(), rounds[record.seq].queries.size());
  }
  EXPECT_EQ(wal->records.back().seq, rounds.size() - 1);
  for (uint32_t s = 0; s < 4; ++s) {
    Result<std::vector<std::pair<uint64_t, std::string>>> chain =
        ListWalSegments((fs::path(dir.path()) / ShardDirName(s)).string());
    ASSERT_TRUE(chain.ok());
    EXPECT_TRUE(chain->empty()) << "shard " << s << " holds a WAL";
  }

  // 5 rounds with checkpoints every 2: the final batch (seq 4) replays from
  // the WAL on top of the seq-4 checkpoint.
  std::unique_ptr<ScubaEngine> recovered = MakeSharded(opt);
  Result<ShardedRecoveryReport> report = RecoverShardedEngine(
      dir.path(), recovered.get(), /*validator=*/nullptr, /*rng=*/nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->base_seq, 4u);
  EXPECT_EQ(report->batches_replayed, 1u);
  EXPECT_EQ(report->next_seq, 5u);
  EXPECT_EQ(StateDigest(*recovered), StateDigest(*engine));
}

/// Every path that opens a durable root refuses `dir` with
/// kFailedPrecondition naming `layout`; fsck gives it verdict 26; and none
/// of them changes a byte.
void ExpectLayoutRefused(const std::string& dir, const std::string& layout) {
  const std::map<std::string, std::string> before = DirContents(dir);
  auto names_layout = [&layout](const Status& s) {
    return s.IsFailedPrecondition() &&
           s.message().find(layout) != std::string::npos;
  };
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const ScubaOptions opt = MakeOptions(shards);
    std::unique_ptr<ScubaEngine> engine = MakeSharded(opt);
    // run --durable-dir / serve --durable-dir open the manager.
    Result<std::unique_ptr<ShardedDurabilityManager>> manager =
        ShardedDurabilityManager::Open(dir, opt.checkpoint, engine.get(),
                                       /*validator=*/nullptr,
                                       /*rng=*/nullptr, /*crash=*/nullptr);
    EXPECT_TRUE(names_layout(manager.status())) << manager.status().ToString();
    // restore
    Status restored = engine->Restore(dir);
    EXPECT_TRUE(names_layout(restored)) << restored.ToString();
    // recover
    Result<ShardedRecoveryReport> recovered = RecoverShardedEngine(
        dir, engine.get(), /*validator=*/nullptr, /*rng=*/nullptr);
    EXPECT_TRUE(names_layout(recovered.status()))
        << recovered.status().ToString();
  }
  // fsck reports it with its own verdict.
  Result<FsckReport> report = FsckDurableDir(dir);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->exit_code, kFsckRetiredLayout) << report->ToString();
  // Nothing was written or repaired along the way.
  EXPECT_EQ(DirContents(dir), before);
}

TEST(ShardedDurabilityTest, RetiredSingleEngineLayoutIsRefused) {
  // A root in the retired single-engine layout: a bare snapshot and a WAL
  // segment at the top level, no manifest, no shard directories.
  ScopedTempDir dir("retired_layout");
  ASSERT_TRUE(WriteSnapshotFile(dir.path(), 4, "payload", nullptr).ok());
  {
    std::ofstream(dir.path() + "/wal-00000000000000000000.log",
                  std::ios::binary)
        << "frame";
  }
  ExpectLayoutRefused(dir.path(), "retired single-engine");
}

TEST(ShardedDurabilityTest, RetiredPerShardWalChainLayoutIsRefused) {
  // A root in the retired per-shard WAL-chain layout: a committed manifest
  // and its shard snapshots, with the log kept as one chain per shard
  // directory instead of one WAL under wal/.
  std::vector<Round> rounds = MakeRounds(4);
  ScopedTempDir dir("retired_chain_layout");
  RunDurably(rounds, MakeOptions(2), dir.path());
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(WalDirOf(dir.path()));
  ASSERT_TRUE(segments.ok());
  ASSERT_FALSE(segments->empty());
  for (const auto& [seq, path] : *segments) {
    fs::rename(path, fs::path(dir.path()) / ShardDirName(0) /
                         fs::path(path).filename());
  }
  fs::remove(WalDirOf(dir.path()));
  ExpectLayoutRefused(dir.path(), "retired per-shard WAL-chain");
}

}  // namespace
}  // namespace scuba
