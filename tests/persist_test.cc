// Durability unit coverage (docs/ARCHITECTURE.md §8): serializer primitives,
// checkpoint round-trips of the engine at one window
// (digest-identical restore, clean audit, fingerprint gating, corruption
// detection), the WAL (append/read round-trip, segment rotation, torn-tail
// tolerance, mid-log corruption, reopen, pruning) and seeded mutation fuzzing
// of the WAL, manifest and snapshot decoders. The end-to-end crash matrix
// lives in crash_recovery_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serializer.h"
#include "core/result_delta.h"
#include "gen/trace.h"
#include "network/network_builder.h"
#include "network/network_io.h"
#include "core/scuba_engine.h"
#include "persist/durability.h"
#include "persist/manifest.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "state_digest.h"
#include "stream/update_validator.h"

namespace scuba {
namespace {

namespace fs = std::filesystem;

constexpr Rect kRegion{0.0, 0.0, 10000.0, 10000.0};

/// A self-cleaning directory under the test's working directory (never /tmp:
/// the build tree is the only place tests may write).
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

/// Clean, validator-admissible multi-round workload (same shape as the fault
/// injection harness uses): clustered entities drifting across the region.
std::vector<Round> MakeRounds(uint64_t seed, int rounds) {
  Rng rng(seed);
  struct Entity {
    uint32_t id;
    bool is_query;
    Point pos;
    double range;
  };
  std::vector<Entity> entities;
  for (uint32_t i = 0; i < 120; ++i) {
    int group = static_cast<int>(rng.NextDouble(0, 8));
    Point base{700.0 + 900.0 * group, 800.0 + 600.0 * (group % 3)};
    entities.push_back(Entity{i, (i % 4 == 3),
                              {base.x + rng.NextDouble(-60, 60),
                               base.y + rng.NextDouble(-60, 60)},
                              rng.NextDouble(50, 200)});
  }
  std::vector<Round> out(rounds);
  for (int r = 0; r < rounds; ++r) {
    for (Entity& e : entities) {
      if (rng.NextDouble(0, 1) < 0.15) continue;
      e.pos = {e.pos.x + rng.NextDouble(-25, 25),
               e.pos.y + rng.NextDouble(-25, 25)};
      if (e.is_query) {
        QueryUpdate u;
        u.qid = e.id;
        u.position = e.pos;
        u.speed = 6.0 + (e.id % 7);
        u.dest_node = static_cast<NodeId>(e.id % 5);
        u.dest_position = Point{9500, 9500};
        u.range_width = e.range;
        u.range_height = e.range;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].queries.push_back(u);
      } else {
        LocationUpdate u;
        u.oid = e.id;
        u.position = e.pos;
        u.speed = 6.0 + (e.id % 7);
        u.dest_node = static_cast<NodeId>(e.id % 5);
        u.dest_position = Point{9500, 9500};
        u.attrs = (e.id % 3 == 0) ? 0x5u : 0x1u;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].objects.push_back(u);
      }
    }
  }
  return out;
}

std::unique_ptr<ScubaEngine> MakeEngine(const ScubaOptions& opt) {
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Ingests rounds [from, to) and evaluates after each, collecting results.
void Drive(ScubaEngine* engine, const std::vector<Round>& rounds, int from,
           int to, std::vector<ResultSet>* results_out = nullptr) {
  for (int r = from; r < to; ++r) {
    ASSERT_TRUE(
        engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    ResultSet results;
    ASSERT_TRUE(
        engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
    if (results_out != nullptr) results_out->push_back(std::move(results));
  }
}

// ---------------------------------------------------------------------------
// Serializer primitives.

TEST(SerializerTest, Crc32MatchesKnownVectors) {
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);  // IEEE 802.3 check value
  EXPECT_NE(Crc32("123456789"), Crc32("123456788"));
}

/// The bytewise definition Crc32's slicing-by-8 must equal: one table lookup
/// per byte over the reflected polynomial 0xEDB88320.
uint32_t BytewiseCrc32(std::string_view data) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : data) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(SerializerTest, Crc32EqualsBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(20);
  std::string buf(300 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.NextU64());
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 300; ++len) {
      const std::string_view data(buf.data() + align, len);
      ASSERT_EQ(Crc32(data), BytewiseCrc32(data))
          << "length " << len << " at alignment " << align;
    }
  }
  std::string big(1u << 20, '\0');
  for (char& c : big) c = static_cast<char>(rng.NextU64());
  EXPECT_EQ(Crc32(big), BytewiseCrc32(big));
}

TEST(SerializerTest, Fnv1a64MatchesKnownVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);  // offset basis
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(Fnv1a64("ab"), Fnv1a64("ba"));
}

TEST(SerializerTest, WriterReaderRoundTripAllTypes) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutDouble(-0.1);  // not exactly representable: bit pattern must survive
  w.PutString("hello\0world");
  ByteReader r(w.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  bool b = false;
  double d = 0;
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetBool(&b).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(b);
  EXPECT_EQ(d, -0.1);
  EXPECT_EQ(s, "hello");  // string_view literal stops at the NUL
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializerTest, ReaderUnderrunIsDataLoss) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(w.bytes());
  uint64_t v = 0;
  Status s = r.GetU64(&v);
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
}

TEST(SerializerTest, OverlongStringLengthIsDataLoss) {
  ByteWriter w;
  w.PutU64(1000);  // declares 1000 bytes, none follow
  ByteReader r(w.bytes());
  std::string s;
  EXPECT_TRUE(r.GetString(&s).IsDataLoss());
}

// ---------------------------------------------------------------------------
// Snapshot round-trips.

TEST(SnapshotTest, RestoreReproducesDigestAndFutureRounds) {
  ScopedTempDir dir("persist_test_roundtrip");
  std::vector<Round> rounds = MakeRounds(91, 10);
  ScubaOptions opt;
  std::unique_ptr<ScubaEngine> original = MakeEngine(opt);
  Drive(original.get(), rounds, 0, 6);
  ASSERT_TRUE(original->Checkpoint(dir.path()).ok());
  EXPECT_EQ(original->StatsSnapshot().eval.checkpoints_written, 1u);
  EXPECT_GT(original->StatsSnapshot().eval.last_checkpoint_bytes, 0u);

  std::unique_ptr<ScubaEngine> restored = MakeEngine(opt);
  ASSERT_TRUE(restored->Restore(dir.path()).ok());
  EXPECT_EQ(StateDigest(*restored), StateDigest(*original));
  EXPECT_EQ(EngineStateHash(*restored), EngineStateHash(*original));
  EXPECT_EQ(restored->StatsSnapshot().eval.evaluations, original->StatsSnapshot().eval.evaluations);
  // The join counts are persisted once, as join counters; the EvalStats
  // copies are assigned from them on load.
  const EngineSnapshotStats snap = restored->StatsSnapshot();
  EXPECT_GT(snap.join.comparisons, 0u);
  EXPECT_EQ(snap.eval.comparisons, snap.join.comparisons);
  EXPECT_EQ(snap.eval.bounds_checks, snap.join.bounds_checks);
  EXPECT_EQ(snap.eval.cluster_pairs_tested, snap.join.pairs_tested);
  EXPECT_EQ(snap.eval.cluster_pairs_overlapping, snap.join.pairs_overlapping);
  EXPECT_EQ(snap.eval.comparisons, original->StatsSnapshot().eval.comparisons);
  InvariantAuditReport audit = restored->AuditInvariants();
  EXPECT_TRUE(audit.clean()) << audit.ToString();

  // The restored engine is indistinguishable going forward, too.
  std::vector<ResultSet> original_results;
  std::vector<ResultSet> restored_results;
  Drive(original.get(), rounds, 6, 10, &original_results);
  Drive(restored.get(), rounds, 6, 10, &restored_results);
  ASSERT_EQ(original_results.size(), restored_results.size());
  for (size_t i = 0; i < original_results.size(); ++i) {
    EXPECT_EQ(original_results[i], restored_results[i]) << "round " << i;
  }
  EXPECT_EQ(StateDigest(*restored), StateDigest(*original));
}

TEST(SnapshotTest, SnapshotIsPortableAcrossThreadCounts) {
  ScopedTempDir dir("persist_test_threads");
  std::vector<Round> rounds = MakeRounds(17, 6);
  ScubaOptions serial_opt;
  serial_opt.join_threads = 1;
  std::unique_ptr<ScubaEngine> serial = MakeEngine(serial_opt);
  Drive(serial.get(), rounds, 0, 6);
  ASSERT_TRUE(serial->Checkpoint(dir.path()).ok());

  // Thread counts are excluded from the options fingerprint by contract.
  ScubaOptions parallel_opt;
  parallel_opt.join_threads = 4;
  std::unique_ptr<ScubaEngine> parallel = MakeEngine(parallel_opt);
  ASSERT_TRUE(parallel->Restore(dir.path()).ok());
  EXPECT_EQ(StateDigest(*parallel), StateDigest(*serial));
  // The live engine's thread configuration survives the restore.
  EXPECT_EQ(parallel->StatsSnapshot().eval.join_threads, 4u);
}

TEST(SnapshotTest, RestoreFromEmptyDirIsNotFound) {
  ScopedTempDir dir("persist_test_empty");
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  Status s = engine->Restore(dir.path());
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

TEST(SnapshotTest, FingerprintMismatchIsFailedPrecondition) {
  ScopedTempDir dir("persist_test_fingerprint");
  std::vector<Round> rounds = MakeRounds(5, 2);
  ScubaOptions opt;
  std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
  Drive(engine.get(), rounds, 0, 2);
  ASSERT_TRUE(engine->Checkpoint(dir.path()).ok());

  ScubaOptions other = opt;
  other.theta_d *= 2.0;  // semantic option: different fingerprint
  EXPECT_NE(OptionsFingerprint(other), OptionsFingerprint(opt));
  std::unique_ptr<ScubaEngine> wrong = MakeEngine(other);
  Status s = wrong->Restore(dir.path());
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
}

TEST(SnapshotTest, ThreadCountsDoNotChangeFingerprint) {
  ScubaOptions a;
  ScubaOptions b = a;
  b.join_threads = 8;
  b.ingest_threads = 8;
  b.checkpoint.every_n_rounds = 3;
  b.checkpoint.keep_last_k = 7;
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
}

TEST(SnapshotTest, CorruptedPayloadByteIsDataLoss) {
  ScopedTempDir dir("persist_test_corrupt");
  std::vector<Round> rounds = MakeRounds(29, 3);
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  Drive(engine.get(), rounds, 0, 3);
  ASSERT_TRUE(engine->Checkpoint(dir.path()).ok());
  Result<std::vector<std::pair<uint64_t, std::string>>> snapshots =
      ListSnapshots(SnapshotDirOf(dir.path()));
  ASSERT_TRUE(snapshots.ok());
  ASSERT_EQ(snapshots->size(), 1u);
  const std::string& path = snapshots->front().second;

  // Flip one byte in the middle of the payload: the CRC must catch it.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(-1, std::ios::cur);
  byte = static_cast<char>(byte ^ 0x40);
  f.write(&byte, 1);
  f.close();
  EXPECT_TRUE(ReadSnapshotPayload(path).status().IsDataLoss());
  std::unique_ptr<ScubaEngine> fresh = MakeEngine(ScubaOptions{});
  Status s = fresh->Restore(dir.path());
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
}

TEST(SnapshotTest, TruncatedFileIsDataLoss) {
  ScopedTempDir dir("persist_test_truncate");
  std::vector<Round> rounds = MakeRounds(37, 3);
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  Drive(engine.get(), rounds, 0, 3);
  ASSERT_TRUE(engine->Checkpoint(dir.path()).ok());
  Result<std::vector<std::pair<uint64_t, std::string>>> snapshots =
      ListSnapshots(SnapshotDirOf(dir.path()));
  ASSERT_TRUE(snapshots.ok());
  const std::string& path = snapshots->front().second;
  fs::resize_file(path, fs::file_size(path) * 2 / 3);
  EXPECT_TRUE(ReadSnapshotPayload(path).status().IsDataLoss());
}

TEST(SnapshotTest, ValidatorStateSurvivesRoundTrip) {
  std::vector<Round> rounds = MakeRounds(53, 4);
  ValidatorConfig config;
  config.policy = BadUpdatePolicy::kQuarantine;
  config.bounds = kRegion;
  config.check_bounds = true;
  UpdateValidator validator(config);
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  for (int r = 0; r < 4; ++r) {
    Round dirty = rounds[r];
    if (r > 0 && !dirty.objects.empty()) {
      dirty.objects.front().time = 1;  // stale: rejected as time regression
    }
    ASSERT_TRUE(validator
                    .ScreenBatch(static_cast<Timestamp>(r + 1), &dirty.objects,
                                 &dirty.queries)
                    .ok());
    ASSERT_TRUE(engine->IngestBatch(dirty.objects, dirty.queries).ok());
    ResultSet results;
    ASSERT_TRUE(
        engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
  }
  ASSERT_GT(validator.stats().TotalRejected(), 0u);

  const std::string payload = PersistAccess::SaveEngineSnapshot(
      *engine, &validator, /*wal_next_seq=*/0, 4);
  std::unique_ptr<ScubaEngine> engine2 = MakeEngine(ScubaOptions{});
  UpdateValidator validator2(config);
  Status loaded = PersistAccess::LoadEngineSnapshot(
      payload, engine2.get(), &validator2);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(validator2.stats().screened, validator.stats().screened);
  EXPECT_EQ(validator2.stats().admitted, validator.stats().admitted);
  EXPECT_EQ(validator2.stats().TotalRejected(),
            validator.stats().TotalRejected());
  EXPECT_EQ(validator2.FormatStats(), validator.FormatStats());

  // The restored per-entity timestamp floors reject the same regressions.
  Round stale = rounds[0];
  stale.objects.resize(1);
  stale.queries.clear();
  stale.objects[0].time = 1;  // regression: entity already admitted at time 4
  Round stale2 = stale;
  ASSERT_TRUE(validator.ScreenBatch(5, &stale.objects, &stale.queries).ok());
  ASSERT_TRUE(
      validator2.ScreenBatch(5, &stale2.objects, &stale2.queries).ok());
  EXPECT_EQ(stale.objects.size(), stale2.objects.size());
  EXPECT_EQ(validator.stats().Rejected(RejectReason::kTimeRegression),
            validator2.stats().Rejected(RejectReason::kTimeRegression));
}

/// A lone object heading for its own destination node, so it starts a new
/// cluster.
LocationUpdate LoneObject(ObjectId oid, Point position) {
  LocationUpdate u;
  u.oid = oid;
  u.position = position;
  u.speed = 5.0;
  u.dest_node = 1000 + oid;
  u.dest_position = Point{9500, 9500};
  u.time = 1;
  return u;
}

TEST(SnapshotTest, StaleNextCidIsDataLoss) {
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  const std::vector<LocationUpdate> objects = {LoneObject(1, {1000, 1000}),
                                               LoneObject(2, {5000, 5000})};
  ASSERT_TRUE(engine->IngestBatch(objects, {}).ok());
  ASSERT_EQ(engine->store().SortedClusterIds(),
            (std::vector<ClusterId>{0, 1}));
  std::string payload =
      PersistAccess::SaveEngineSnapshot(*engine, nullptr, 0, 0);
  // next_cid is the u32 right after the 24-byte meta header; 0 would hand
  // cluster 0 out again, AlreadyExists on the restored engine's first new
  // cluster.
  const uint32_t stale = 0;
  std::memcpy(payload.data() + 24, &stale, sizeof(stale));
  std::unique_ptr<ScubaEngine> restored = MakeEngine(ScubaOptions{});
  const Status s =
      PersistAccess::LoadEngineSnapshot(payload, restored.get(), nullptr);
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_NE(s.message().find("cluster 0"), std::string::npos) << s.ToString();
}

TEST(SnapshotTest, RepeatedCheckpointsRestoreTheNewest) {
  // Every bare Checkpoint() commits a new manifest generation; Restore reads
  // the newest one, never a stale generation.
  ScopedTempDir dir("persist_test_overwrite");
  std::vector<Round> rounds = MakeRounds(71, 6);
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  for (int r = 0; r < 6; r += 2) {
    Drive(engine.get(), rounds, r, r + 2);
    ASSERT_TRUE(engine->Checkpoint(dir.path()).ok());
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir.path());
  ASSERT_TRUE(manifests.ok());
  EXPECT_EQ(manifests->size(), 3u);
  EXPECT_EQ(engine->StatsSnapshot().eval.checkpoints_written, 3u);
  std::unique_ptr<ScubaEngine> restored = MakeEngine(ScubaOptions{});
  ASSERT_TRUE(restored->Restore(dir.path()).ok());
  EXPECT_EQ(StateDigest(*restored), StateDigest(*engine));
}

TEST(SnapshotTest, ManagerPrunesGenerationsToKeepLastK) {
  ScopedTempDir dir("persist_test_prune");
  std::vector<Round> rounds = MakeRounds(73, 8);
  ScubaOptions opt;
  opt.checkpoint.every_n_rounds = 2;
  opt.checkpoint.keep_last_k = 2;
  std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
  Result<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(dir.path(), opt.checkpoint, engine.get(),
                              /*validator=*/nullptr,
                              /*crash=*/nullptr);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  for (int r = 0; r < 8; ++r) {
    ASSERT_TRUE((*manager)
                    ->LogBatch(static_cast<Timestamp>(r + 1), true,
                               rounds[r].objects, rounds[r].queries)
                    .ok());
    ASSERT_TRUE(engine->IngestBatch(rounds[r].objects, rounds[r].queries).ok());
    ResultSet results;
    ASSERT_TRUE(
        engine->Evaluate(static_cast<Timestamp>(r + 1), &results).ok());
    ASSERT_TRUE((*manager)->OnRoundComplete().ok());
  }
  // 4 checkpoints written (every 2 rounds), only the newest 2 retained.
  EXPECT_EQ(engine->StatsSnapshot().eval.checkpoints_written, 4u);
  Result<std::vector<std::pair<uint64_t, std::string>>> manifests =
      ListManifests(dir.path());
  ASSERT_TRUE(manifests.ok());
  ASSERT_EQ(manifests->size(), 2u);
  EXPECT_EQ(manifests->front().first, 3u);
  EXPECT_EQ(manifests->back().first, 4u);
  Result<std::vector<std::pair<uint64_t, std::string>>> snapshots =
      ListSnapshots(SnapshotDirOf(dir.path()));
  ASSERT_TRUE(snapshots.ok());
  EXPECT_EQ(snapshots->size(), 2u);
  EXPECT_GT(engine->StatsSnapshot().eval.wal_records_appended, 0u);
}

/// Every regular file under `root`, keyed by its path relative to `root`.
std::map<std::string, std::string> ReadTree(const std::string& root) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files[fs::relative(entry.path(), root).string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

TEST(SnapshotTest, CheckpointsOfOneRunAreByteIdentical) {
  // Checkpoints carry no wall-clock seconds and no thread count, and the
  // window count never reaches the durable root, so the whole directory is
  // a pure function of the input: runs at windows {1,4} x threads {1,4}
  // write the same bytes, manifests included, though their measured
  // seconds differ.
  std::vector<Round> rounds = MakeRounds(29, 8);
  std::vector<std::map<std::string, std::string>> trees;
  for (uint32_t shards : {1u, 4u}) {
    for (uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ScopedTempDir dir("persist_test_reproducible_s" +
                        std::to_string(shards) + "_t" +
                        std::to_string(threads));
      ScubaOptions opt;
      opt.shards = shards;
      opt.join_threads = threads;
      opt.checkpoint.every_n_rounds = 3;
      std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
      Result<std::unique_ptr<DurabilityManager>> manager =
          DurabilityManager::Open(dir.path(), opt.checkpoint, engine.get(),
                                  /*validator=*/nullptr,
                                  /*crash=*/nullptr);
      ASSERT_TRUE(manager.ok()) << manager.status().ToString();
      for (int r = 0; r < 8; ++r) {
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
      ASSERT_TRUE((*manager)->ForceCheckpoint().ok());
      ASSERT_GT(engine->StatsSnapshot().eval.total_join_seconds, 0.0);
      trees.push_back(ReadTree(dir.path()));
    }
  }
  ASSERT_GE(trees[0].size(), 3u);  // manifests, snapshots and the WAL
  for (size_t run = 1; run < trees.size(); ++run) {
    SCOPED_TRACE("run " + std::to_string(run) + " vs run 0");
    ASSERT_EQ(trees[0].size(), trees[run].size());
    for (const auto& [path, bytes] : trees[0]) {
      auto other = trees[run].find(path);
      ASSERT_NE(other, trees[run].end()) << path;
      EXPECT_TRUE(bytes == other->second) << path << " differs between runs";
    }
  }
}

TEST(SnapshotTest, RestoredTimingTotalsStartAtZero) {
  ScopedTempDir dir("persist_test_timing_reset");
  std::vector<Round> rounds = MakeRounds(31, 4);
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  Drive(engine.get(), rounds, 0, 4);
  ASSERT_TRUE(engine->Checkpoint(dir.path()).ok());
  std::unique_ptr<ScubaEngine> restored = MakeEngine(ScubaOptions{});
  ASSERT_TRUE(restored->Restore(dir.path()).ok());
  const EvalStats stats = restored->StatsSnapshot().eval;
  EXPECT_EQ(stats.evaluations, 4u);  // counts survive
  EXPECT_EQ(stats.total_join_seconds, 0.0);
  EXPECT_EQ(stats.total_ingest_seconds, 0.0);
  EXPECT_EQ(stats.total_postjoin_seconds, 0.0);
  EXPECT_EQ(stats.total_join_worker_seconds, 0.0);
  EXPECT_EQ(stats.last_maintenance_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Write-ahead log.

/// Appends one round as one batch record.
Status AppendRound(WalWriter* writer, Timestamp batch_time, bool evaluate_after,
                   const Round& round) {
  uint64_t durable_bytes = 0;
  return writer->Append(batch_time, evaluate_after, round.objects,
                        round.queries, &durable_bytes);
}

TEST(WalTest, AppendReadRoundTrip) {
  ScopedTempDir dir("persist_test_wal_roundtrip");
  std::vector<Round> rounds = MakeRounds(3, 4);
  {
    Result<std::unique_ptr<WalWriter>> writer =
        WalWriter::Open(dir.path(), /*segment_bytes=*/1 << 20,
                        /*initial_seq=*/0, /*crash=*/nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (int r = 0; r < 4; ++r) {
      ASSERT_TRUE(AppendRound(writer->get(), static_cast<Timestamp>(r + 1),
                                (r + 1) % 2 == 0, rounds[r])
                      .ok());
    }
    EXPECT_EQ((*writer)->next_seq(), 4u);
  }
  Result<WalContents> wal = ReadWal(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_FALSE(wal->torn_tail);
  ASSERT_EQ(wal->records.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    const WalRecord& record = wal->records[r];
    EXPECT_EQ(record.seq, static_cast<uint64_t>(r));
    EXPECT_EQ(record.batch_time, static_cast<Timestamp>(r + 1));
    EXPECT_EQ(record.evaluate_after, (r + 1) % 2 == 0);
    ASSERT_EQ(record.objects.size(), rounds[r].objects.size());
    ASSERT_EQ(record.queries.size(), rounds[r].queries.size());
    for (size_t i = 0; i < record.objects.size(); ++i) {
      EXPECT_EQ(record.objects[i].ToString(), rounds[r].objects[i].ToString());
    }
    for (size_t i = 0; i < record.queries.size(); ++i) {
      EXPECT_EQ(record.queries[i].ToString(), rounds[r].queries[i].ToString());
    }
  }
}

TEST(WalTest, EngineCountsOnlyDurableAppends) {
  // The durability sink adds each append's record, fsync and framed bytes to
  // the engine's own counters — and only once the record is durable: an I/O
  // error and a crash mid-append leave them untouched, a crash after the
  // append does not.
  ScopedTempDir dir("persist_test_wal_counts");
  std::vector<Round> rounds = MakeRounds(29, 4);
  std::unique_ptr<ScubaEngine> engine = MakeEngine(ScubaOptions{});
  CheckpointPolicy policy;
  policy.wal_segment_bytes = 1;  // every record opens a new segment
  CrashInjector crash(CrashPoint::kMidWalAppend, 2);
  Result<std::unique_ptr<DurabilityManager>> manager =
      DurabilityManager::Open(dir.path(), policy, engine.get(),
                              /*validator=*/nullptr,
                              &crash);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  auto log = [&](int r) {
    return (*manager)->LogBatch(static_cast<Timestamp>(r + 1), true,
                                rounds[r].objects, rounds[r].queries);
  };
  auto wal_counts = [&] {
    const EvalStats s = engine->StatsSnapshot().eval;
    return std::vector<uint64_t>{s.wal_records_appended, s.wal_fsyncs,
                                 s.wal_bytes_appended};
  };
  const std::string wal_dir = dir.path() + "/wal";

  ASSERT_TRUE(log(0).ok());
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(wal_dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  const uint64_t first_bytes =
      std::filesystem::file_size(segments->front().second);
  const std::vector<uint64_t> after_one = {1, 1, first_bytes};
  EXPECT_EQ(wal_counts(), after_one);

  // The next record needs a new segment in a directory that is gone.
  std::filesystem::remove_all(wal_dir);
  const Status io = log(1);
  EXPECT_TRUE(io.IsIoError()) << io.ToString();
  EXPECT_EQ(wal_counts(), after_one);

  // With the directory back, the second frame to reach the crash point is
  // torn: half of it lands on disk.
  std::filesystem::create_directories(wal_dir);
  const Status torn = log(2);
  EXPECT_TRUE(CrashInjector::IsCrash(torn)) << torn.ToString();
  EXPECT_EQ(wal_counts(), after_one);
}

TEST(WalTest, RetiredRecordTypesAreDataLoss) {
  // Well-formed records of the retired types — 1 (a whole batch in the
  // single-engine log) and 2 (one shard's routed sub-batch): their CRC
  // holds, so they are not a torn tail — they are data this build cannot
  // read.
  for (uint8_t type : {uint8_t{1}, uint8_t{2}}) {
    SCOPED_TRACE("type " + std::to_string(type));
    ScopedTempDir dir("persist_test_wal_retired_type");
    ByteWriter payload;
    payload.PutU8(type);
    payload.PutU64(0);      // seq
    payload.PutI64(1);      // batch_time
    payload.PutBool(true);  // evaluate_after
    if (type == 2) {
      payload.PutU32(0);  // shard_index
      payload.PutU32(1);  // shard_count
      payload.PutU64(0);  // total_objects
      payload.PutU64(0);  // total_queries
    }
    payload.PutU64(0);  // objects
    payload.PutU64(0);  // queries
    ByteWriter frame;
    frame.PutU32(static_cast<uint32_t>(payload.bytes().size()));
    frame.PutU32(Crc32(payload.bytes()));
    frame.PutRawBytes(payload.bytes());
    std::ofstream(dir.path() + "/wal-00000000000000000000.log",
                  std::ios::binary)
        << frame.bytes();
    Status s = ReadWal(dir.path()).status();
    EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
  }
}

TEST(WalTest, EmptyDirectoryReadsAsEmptyLog) {
  ScopedTempDir dir("persist_test_wal_empty");
  Result<WalContents> wal = ReadWal(dir.path());
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->records.empty());
  EXPECT_FALSE(wal->torn_tail);
  // A missing directory is also an empty log, not an error.
  Result<WalContents> missing = ReadWal(dir.path() + "/does-not-exist");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->records.empty());
}

TEST(WalTest, SegmentsRotateAndReadInOrder) {
  ScopedTempDir dir("persist_test_wal_rotate");
  std::vector<Round> rounds = MakeRounds(7, 10);
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir.path(), /*segment_bytes=*/4096, /*initial_seq=*/0,
                      /*crash=*/nullptr);
  ASSERT_TRUE(writer.ok());
  for (int r = 0; r < 10; ++r) {
    ASSERT_TRUE(AppendRound(writer->get(), static_cast<Timestamp>(r + 1), true,
                                rounds[r])
                    .ok());
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  EXPECT_GT(segments->size(), 1u) << "workload must force rotation";
  Result<WalContents> wal = ReadWal(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_EQ(wal->records.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(wal->records[i].seq, i);
}

TEST(WalTest, TornTailIsToleratedAndTruncatedOnReopen) {
  ScopedTempDir dir("persist_test_wal_torn");
  std::vector<Round> rounds = MakeRounds(13, 3);
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
        dir.path(), 1 << 20, /*initial_seq=*/0, /*crash=*/nullptr);
    ASSERT_TRUE(writer.ok());
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(AppendRound(writer->get(), static_cast<Timestamp>(r + 1), true,
                                rounds[r])
                      .ok());
    }
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  const std::string& segment = segments->front().second;
  fs::resize_file(segment, fs::file_size(segment) - 7);  // tear the last frame

  Result<WalContents> wal = ReadWal(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_TRUE(wal->torn_tail);
  EXPECT_FALSE(wal->torn_detail.empty());
  ASSERT_EQ(wal->records.size(), 2u) << "torn record must not be parsed";

  // Reopening truncates the torn bytes and continues after the last intact
  // record; the log then reads clean.
  Result<std::unique_ptr<WalWriter>> reopened = WalWriter::Open(
      dir.path(), 1 << 20, /*initial_seq=*/0, /*crash=*/nullptr);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->next_seq(), 2u);
  ASSERT_TRUE(
      AppendRound(reopened->get(), 3, true, rounds[2]).ok());
  Result<WalContents> repaired = ReadWal(dir.path());
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired->torn_tail);
  ASSERT_EQ(repaired->records.size(), 3u);
  EXPECT_EQ(repaired->records.back().seq, 2u);
}

TEST(WalTest, MidLogCorruptionIsDataLoss) {
  ScopedTempDir dir("persist_test_wal_midlog");
  std::vector<Round> rounds = MakeRounds(19, 8);
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir.path(), /*segment_bytes=*/4096, /*initial_seq=*/0,
                      /*crash=*/nullptr);
  ASSERT_TRUE(writer.ok());
  for (int r = 0; r < 8; ++r) {
    ASSERT_TRUE(AppendRound(writer->get(), static_cast<Timestamp>(r + 1), true,
                                rounds[r])
                    .ok());
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir.path());
  ASSERT_TRUE(segments.ok());
  ASSERT_GT(segments->size(), 1u);
  // Damage in a NON-final segment is never crash residue: hard kDataLoss.
  const std::string& first = segments->front().second;
  std::fstream f(first, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(fs::file_size(first) / 2));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(-1, std::ios::cur);
  byte = static_cast<char>(byte ^ 0x01);
  f.write(&byte, 1);
  f.close();
  Status s = ReadWal(dir.path()).status();
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
}

TEST(WalTest, ReopenContinuesSequence) {
  ScopedTempDir dir("persist_test_wal_reopen");
  std::vector<Round> rounds = MakeRounds(23, 5);
  for (int r = 0; r < 5; ++r) {
    // A fresh writer per record: the seq must continue across reopens.
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
        dir.path(), 1 << 20, /*initial_seq=*/0, /*crash=*/nullptr);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ((*writer)->next_seq(), static_cast<uint64_t>(r));
    ASSERT_TRUE(AppendRound(writer->get(), static_cast<Timestamp>(r + 1), true,
                                rounds[r])
                    .ok());
  }
  Result<WalContents> wal = ReadWal(dir.path());
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(wal->records.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(wal->records[i].seq, i);
}

TEST(WalTest, LogEndingBeforeTheCheckpointIsDataLoss) {
  // A checkpoint that covers seq 5 over a log that ends at seq 2: batches
  // 3 and 4 are durable nowhere, so the writer refuses to resume.
  ScopedTempDir dir("persist_test_wal_behind");
  std::vector<Round> rounds = MakeRounds(29, 3);
  {
    Result<std::unique_ptr<WalWriter>> writer = WalWriter::Open(
        dir.path(), 1 << 20, /*initial_seq=*/0, /*crash=*/nullptr);
    ASSERT_TRUE(writer.ok());
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(AppendRound(writer->get(), static_cast<Timestamp>(r + 1),
                              true, rounds[r])
                      .ok());
    }
  }
  Result<std::unique_ptr<WalWriter>> behind = WalWriter::Open(
      dir.path(), 1 << 20, /*initial_seq=*/5, /*crash=*/nullptr);
  EXPECT_TRUE(behind.status().IsDataLoss()) << behind.status().ToString();
  Result<std::unique_ptr<WalWriter>> caught_up = WalWriter::Open(
      dir.path(), 1 << 20, /*initial_seq=*/3, /*crash=*/nullptr);
  ASSERT_TRUE(caught_up.ok()) << caught_up.status().ToString();
  EXPECT_EQ((*caught_up)->next_seq(), 3u);
}

TEST(WalTest, PruneRemovesOnlyFullyCoveredSegments) {
  ScopedTempDir dir("persist_test_wal_prune");
  std::vector<Round> rounds = MakeRounds(31, 12);
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir.path(), /*segment_bytes=*/4096, /*initial_seq=*/0,
                      /*crash=*/nullptr);
  ASSERT_TRUE(writer.ok());
  for (int r = 0; r < 12; ++r) {
    ASSERT_TRUE(AppendRound(writer->get(), static_cast<Timestamp>(r + 1), true,
                                rounds[r])
                    .ok());
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> before =
      ListWalSegments(dir.path());
  ASSERT_TRUE(before.ok());
  ASSERT_GT(before->size(), 2u);
  const uint64_t min_seq = (*before)[before->size() - 1].first;
  Result<size_t> removed = (*writer)->PruneSegmentsBelow(min_seq);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_GT(*removed, 0u);
  // Every record >= min_seq must still be readable; no record below the
  // oldest surviving segment's start may remain.
  Result<WalContents> wal = ReadWal(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_FALSE(wal->records.empty());
  EXPECT_LE(wal->records.front().seq, min_seq);
  EXPECT_EQ(wal->records.back().seq, 11u);
  // Sequence numbers remain contiguous after pruning.
  for (size_t i = 1; i < wal->records.size(); ++i) {
    EXPECT_EQ(wal->records[i].seq, wal->records[i - 1].seq + 1);
  }
}

// ---------------------------------------------------------------------------
// Decoder fuzzing: seeded truncations and byte flips of a valid WAL and of a
// manifest. Raw damage must read back as an exact prefix of what was written
// (a torn tail only ever in the last segment) or as kDataLoss — never as a
// crash or an altered record. Mutations re-framed under a valid CRC reach the
// payload decoders themselves and must still come back as a typed Status.

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool SameUpdate(const LocationUpdate& a, const LocationUpdate& b) {
  return a.oid == b.oid && a.position.x == b.position.x &&
         a.position.y == b.position.y && a.time == b.time &&
         a.speed == b.speed && a.dest_node == b.dest_node &&
         a.dest_position.x == b.dest_position.x &&
         a.dest_position.y == b.dest_position.y && a.attrs == b.attrs;
}

bool SameUpdate(const QueryUpdate& a, const QueryUpdate& b) {
  return a.qid == b.qid && a.position.x == b.position.x &&
         a.position.y == b.position.y && a.time == b.time &&
         a.speed == b.speed && a.dest_node == b.dest_node &&
         a.dest_position.x == b.dest_position.x &&
         a.dest_position.y == b.dest_position.y &&
         a.range_width == b.range_width && a.range_height == b.range_height &&
         a.attrs == b.attrs && a.required_attrs == b.required_attrs;
}

bool SameRecord(const WalRecord& a, const WalRecord& b) {
  if (a.seq != b.seq || a.batch_time != b.batch_time ||
      a.evaluate_after != b.evaluate_after ||
      a.objects.size() != b.objects.size() ||
      a.queries.size() != b.queries.size()) {
    return false;
  }
  for (size_t i = 0; i < a.objects.size(); ++i) {
    if (!SameUpdate(a.objects[i], b.objects[i])) return false;
  }
  for (size_t i = 0; i < a.queries.size(); ++i) {
    if (!SameUpdate(a.queries[i], b.queries[i])) return false;
  }
  return true;
}

/// A valid six-record WAL in two segments of three records each, plus the
/// records as written and the byte offsets where its frames end.
struct FuzzWal {
  std::vector<WalRecord> written;
  std::string paths[2];
  std::string bytes[2];
  /// Frame-end offsets in the concatenation of both segments (0 included).
  std::set<size_t> boundaries;
};

FuzzWal WriteFuzzWal(const std::string& dir) {
  FuzzWal wal;
  std::vector<Round> rounds = MakeRounds(0xF022, 6);
  for (Round& round : rounds) {
    round.objects.resize(std::min<size_t>(round.objects.size(), 3));
    round.queries.resize(std::min<size_t>(round.queries.size(), 2));
  }
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(dir, /*segment_bytes=*/1300, /*initial_seq=*/0,
                      /*crash=*/nullptr);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (size_t r = 0; r < rounds.size(); ++r) {
    const Timestamp t = static_cast<Timestamp>(r + 1);
    EXPECT_TRUE(AppendRound(writer->get(), t, r % 2 == 1, rounds[r]).ok());
    wal.written.push_back(
        WalRecord{r, t, r % 2 == 1, rounds[r].objects, rounds[r].queries});
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> segments =
      ListWalSegments(dir);
  EXPECT_TRUE(segments.ok());
  EXPECT_EQ(segments->size(), 2u) << "the fuzz WAL must span two segments";
  size_t base = 0;
  wal.boundaries.insert(0);
  for (size_t i = 0; i < 2 && i < segments->size(); ++i) {
    wal.paths[i] = (*segments)[i].second;
    wal.bytes[i] = ReadFileBytes(wal.paths[i]);
    for (size_t pos = 0; pos + 8 <= wal.bytes[i].size();) {
      uint32_t len = 0;
      std::memcpy(&len, wal.bytes[i].data() + pos, sizeof(len));
      pos += 8 + len;
      wal.boundaries.insert(base + pos);
    }
    base += wal.bytes[i].size();
  }
  return wal;
}

/// kDataLoss, or an exact prefix of `written` whose torn tail (if any) lies
/// in `last_segment`. Returns the number of records read (0 on kDataLoss).
size_t ExpectPrefixOrDataLoss(const Result<WalContents>& read,
                              const std::vector<WalRecord>& written,
                              const std::string& last_segment) {
  if (!read.ok()) {
    EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
    return 0;
  }
  EXPECT_LE(read->records.size(), written.size());
  for (size_t i = 0; i < read->records.size() && i < written.size(); ++i) {
    EXPECT_TRUE(SameRecord(read->records[i], written[i]))
        << "record " << i << " differs from the one written";
  }
  if (read->torn_tail) {
    EXPECT_EQ(read->torn_detail.rfind(last_segment, 0), 0u)
        << read->torn_detail;
  }
  return read->records.size();
}

TEST(DecoderFuzzTest, WalTruncatedAtEveryOffsetReadsAsAPrefix) {
  ScopedTempDir dir("persist_test_fuzz_wal_truncate");
  const FuzzWal wal = WriteFuzzWal(dir.path());
  ASSERT_FALSE(wal.bytes[1].empty());
  const size_t first = wal.bytes[0].size();
  const size_t total = first + wal.bytes[1].size();
  for (size_t cut = 0; cut <= total; ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    // The log keeps its first `cut` bytes: the second segment is gone until
    // the cut reaches past the first.
    if (cut <= first) {
      fs::remove(wal.paths[1]);
      WriteFileBytes(wal.paths[0], std::string_view(wal.bytes[0]).substr(0, cut));
    } else {
      WriteFileBytes(wal.paths[0], wal.bytes[0]);
      WriteFileBytes(wal.paths[1],
                     std::string_view(wal.bytes[1]).substr(0, cut - first));
    }
    Result<WalContents> read = ReadWal(dir.path());
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    const size_t complete = static_cast<size_t>(std::distance(
        wal.boundaries.begin(), wal.boundaries.upper_bound(cut))) - 1;
    EXPECT_EQ(ExpectPrefixOrDataLoss(read, wal.written,
                                     wal.paths[cut <= first ? 0 : 1]),
              complete);
    EXPECT_EQ(read->torn_tail, wal.boundaries.count(cut) == 0);
  }
}

TEST(DecoderFuzzTest, WalByteFlipsReadAsAPrefixOrDataLoss) {
  ScopedTempDir dir("persist_test_fuzz_wal_flip");
  const FuzzWal wal = WriteFuzzWal(dir.path());
  const size_t first = wal.bytes[0].size();
  const size_t total = first + wal.bytes[1].size();
  Rng rng(0xF11B);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t at = static_cast<size_t>(rng.NextBounded(total));
    const char mask = static_cast<char>(rng.NextInt(1, 255));
    SCOPED_TRACE("flip at " + std::to_string(at));
    const int seg = at < first ? 0 : 1;
    std::string damaged = wal.bytes[seg];
    damaged[at - (seg == 0 ? 0 : first)] ^= mask;
    WriteFileBytes(wal.paths[seg], damaged);
    // Every byte belongs to some frame, so a flip always costs at least one
    // record: a torn tail in the second segment, kDataLoss in the first.
    const size_t read = ExpectPrefixOrDataLoss(ReadWal(dir.path()),
                                               wal.written, wal.paths[1]);
    EXPECT_LT(read, wal.written.size());
    WriteFileBytes(wal.paths[seg], wal.bytes[seg]);
  }
}

/// Trial `trial`'s seeded mutation of `payload`: every fourth trial cuts it
/// short, the others flip one to three bytes.
std::string MutatePayload(const std::string& payload, int trial, Rng* rng) {
  std::string mutated = payload;
  if (trial % 4 == 3) {
    mutated.resize(static_cast<size_t>(rng->NextBounded(payload.size())));
    return mutated;
  }
  for (int flips = 0; flips <= trial % 3; ++flips) {
    mutated[static_cast<size_t>(rng->NextBounded(mutated.size()))] ^=
        static_cast<char>(rng->NextInt(1, 255));
  }
  return mutated;
}

TEST(DecoderFuzzTest, ReframedWalPayloadMutationsFailTyped) {
  ScopedTempDir dir("persist_test_fuzz_wal_payload");
  const FuzzWal wal = WriteFuzzWal(dir.path());
  uint32_t len = 0;
  std::memcpy(&len, wal.bytes[0].data(), sizeof(len));
  const std::string payload = wal.bytes[0].substr(8, len);
  fs::remove(wal.paths[1]);
  Rng rng(0xDEC0);
  for (int trial = 0; trial < 400; ++trial) {
    const std::string mutated = MutatePayload(payload, trial, &rng);
    ByteWriter frame;
    frame.PutU32(static_cast<uint32_t>(mutated.size()));
    frame.PutU32(Crc32(mutated));
    frame.PutRawBytes(mutated);
    WriteFileBytes(wal.paths[0], frame.bytes());
    // The frame is intact, so the decoder alone decides: a typed kDataLoss,
    // or one record that parsed in full.
    Result<WalContents> read = ReadWal(dir.path());
    if (read.ok()) {
      EXPECT_LE(read->records.size(), 1u);
      EXPECT_FALSE(read->torn_tail);
    } else {
      EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
    }
  }
}

bool SameManifest(const ManifestInfo& a, const ManifestInfo& b) {
  return a.fingerprint == b.fingerprint && a.generation == b.generation &&
         a.wal_next_seq == b.wal_next_seq && a.rounds == b.rounds &&
         a.snapshot_hash == b.snapshot_hash;
}

TEST(DecoderFuzzTest, ManifestMutationsReadIdenticalOrDataLoss) {
  ScopedTempDir dir("persist_test_fuzz_manifest");
  ManifestInfo info;
  info.fingerprint = 0x0DDBA11CAFEF00Dull;
  info.generation = 3;
  info.wal_next_seq = 17;
  info.rounds = 9;
  info.snapshot_hash = 0xAAAABBBBCCCCull;
  ASSERT_TRUE(WriteManifestFile(dir.path(), info, nullptr).ok());
  const std::string path =
      (fs::path(dir.path()) / ManifestFileName(info.generation)).string();
  const std::string bytes = ReadFileBytes(path);
  // Damage to the version field (bytes 8-11, outside the CRC) is the one
  // kFailedPrecondition; everything else reads identical or as kDataLoss.
  auto expect_identical_or_data_loss = [&](bool must_fail,
                                           bool version_damaged = false) {
    Result<ManifestInfo> read = ReadManifest(path);
    if (read.ok()) {
      EXPECT_FALSE(must_fail);
      EXPECT_TRUE(SameManifest(*read, info));
    } else if (version_damaged) {
      EXPECT_TRUE(read.status().IsFailedPrecondition())
          << read.status().ToString();
    } else {
      EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
    }
  };
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    WriteFileBytes(path, std::string_view(bytes).substr(0, cut));
    expect_identical_or_data_loss(/*must_fail=*/true);
  }
  Rng rng(0x3A41);
  for (int trial = 0; trial < 400; ++trial) {
    std::string damaged = bytes;
    const size_t at = static_cast<size_t>(rng.NextBounded(bytes.size()));
    damaged[at] ^= static_cast<char>(rng.NextInt(1, 255));
    WriteFileBytes(path, damaged);
    expect_identical_or_data_loss(/*must_fail=*/true,
                                  /*version_damaged=*/at >= 8 && at < 12);
  }
  // Payload mutations re-framed under a valid length and CRC reach the
  // payload decoder itself.
  constexpr size_t kHeader = 8 + 4 + 8;
  const std::string payload =
      bytes.substr(kHeader, bytes.size() - kHeader - sizeof(uint32_t));
  for (int trial = 0; trial < 400; ++trial) {
    const std::string mutated = MutatePayload(payload, trial, &rng);
    ByteWriter w;
    w.PutRawBytes(std::string_view(bytes).substr(0, 12));  // magic + version
    w.PutU64(mutated.size());
    w.PutRawBytes(mutated);
    w.PutU32(Crc32(mutated));
    WriteFileBytes(path, w.bytes());
    Result<ManifestInfo> read = ReadManifest(path);
    if (!read.ok()) {
      EXPECT_TRUE(read.status().IsDataLoss()) << read.status().ToString();
    }
  }
  WriteFileBytes(path, bytes);
  expect_identical_or_data_loss(/*must_fail=*/false);
}

// ---------------------------------------------------------------------------
// Snapshot payloads: seeded mutations re-framed under a valid CRC and
// manifest hash.

/// Commits generation `generation` by hand: `payload` as its snapshot under
/// snapshots/, and the manifest naming it by payload hash.
void WriteGeneration(const std::string& dir, const ScubaOptions& opt,
                     uint64_t generation, uint64_t rounds,
                     const std::string& payload) {
  ASSERT_TRUE(
      WriteSnapshotFile(SnapshotDirOf(dir), generation, payload, nullptr).ok());
  ManifestInfo info;
  info.fingerprint = OptionsFingerprint(opt);
  info.generation = generation;
  info.wal_next_seq = 0;
  info.rounds = rounds;
  info.snapshot_hash = Fnv1a64(payload);
  ASSERT_TRUE(WriteManifestFile(dir, info, nullptr).ok());
}

TEST(DecoderFuzzTest, ReframedSnapshotPayloadMutationsFailTypedOrAuditClean) {
  ScopedTempDir dir("persist_test_fuzz_snapshot");
  std::vector<Round> rounds = MakeRounds(91, 3);
  ScubaOptions opt;
  opt.region = kRegion;
  std::unique_ptr<ScubaEngine> engine = MakeEngine(opt);
  Drive(engine.get(), rounds, 0, 3);
  ASSERT_TRUE(engine->Checkpoint(dir.path()).ok());
  Result<std::string> current = ReadSnapshotPayload(
      (fs::path(SnapshotDirOf(dir.path())) / SnapshotFileName(1)).string());
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  Rng rng(0x5A17);
  uint64_t restored_clean = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::string mutated = MutatePayload(*current, trial, &rng);
    fs::remove_all(dir.path());
    WriteGeneration(dir.path(), opt, 1, 3, mutated);
    std::unique_ptr<ScubaEngine> restored = MakeEngine(opt);
    const Status s = restored->Restore(dir.path());
    if (s.ok()) {
      const InvariantAuditReport audit = restored->AuditInvariants();
      EXPECT_TRUE(audit.clean()) << "trial " << trial << ": "
                                 << audit.ToString();
      // A clean state can also start a cluster: its next cid is free.
      std::vector<LocationUpdate> lone = {LoneObject(100000, {5000, 5000})};
      lone[0].time = 10;
      const Status ingest = restored->IngestBatch(lone, {});
      EXPECT_TRUE(ingest.ok()) << "trial " << trial << ": "
                               << ingest.ToString();
      ++restored_clean;
    } else {
      EXPECT_TRUE(s.IsDataLoss() || s.IsFailedPrecondition())
          << "trial " << trial << ": " << s.ToString();
    }
  }
  // Flips that land in padding-free doubles restore a different but
  // consistent state; the case must exercise both outcomes.
  EXPECT_GT(restored_clean, 0u);
}

// ---------------------------------------------------------------------------
// Mutation fuzzing of the remaining untrusted decoders: the wire delta, the
// trace text and the road-network text. Each starts from a valid encoding.

/// Trial `trial`'s seeded mutation of `encoding`, cycling through four kinds:
/// flip one to three bits, truncate, splice a slice of the encoding over or
/// into another offset, and overwrite a length field. `length_offsets` names
/// the u64 count fields of a binary encoding; a text encoding passes none and
/// gets one whitespace-delimited token replaced by a hostile one instead.
std::string MutateEncoding(const std::string& encoding, int trial,
                           const std::vector<size_t>& length_offsets,
                           Rng* rng) {
  std::string out = encoding;
  auto pick = [&](size_t n) { return static_cast<size_t>(rng->NextBounded(n)); };
  switch (trial % 4) {
    case 0:
      for (int flips = 0; flips <= trial % 3; ++flips) {
        out[pick(out.size())] ^= static_cast<char>(1 << rng->NextInt(0, 7));
      }
      break;
    case 1:
      out.resize(pick(out.size()));
      break;
    case 2: {
      const size_t from = pick(encoding.size());
      const std::string slice =
          encoding.substr(from, 1 + pick(encoding.size() - from));
      const size_t at = pick(out.size());
      if (trial % 8 == 2) {
        out.insert(at, slice);
      } else {
        out.replace(at, slice.size(), slice);
      }
      break;
    }
    default: {
      if (!length_offsets.empty()) {
        const uint64_t hostile[] = {0, 1, 2, 255, uint64_t{1} << 32,
                                    uint64_t{1} << 61, ~uint64_t{0},
                                    rng->NextU64()};
        const uint64_t value = hostile[pick(std::size(hostile))];
        std::memcpy(out.data() + length_offsets[pick(length_offsets.size())],
                    &value, sizeof(value));
        break;
      }
      const char* hostile[] = {"18446744073709551616", "-1", "nan", "inf",
                               "1e999", "-0", "tick", "node", "", "0x10"};
      std::vector<std::pair<size_t, size_t>> tokens;  // [begin, end)
      for (size_t i = 0; i < out.size();) {
        const size_t begin = out.find_first_not_of(" \n", i);
        if (begin == std::string::npos) break;
        const size_t end = std::min(out.size(), out.find_first_of(" \n", begin));
        tokens.emplace_back(begin, end);
        i = end;
      }
      const auto [begin, end] = tokens[pick(tokens.size())];
      out.replace(begin, end - begin, hostile[pick(std::size(hostile))]);
      break;
    }
  }
  return out;
}

TEST(DecoderFuzzTest, ResultDeltaMutationsLoadOrFailTyped) {
  ResultDelta delta;
  delta.round = 7;
  delta.time = 14;
  delta.degraded_shards = {1, 3};
  delta.added = {{1, 2}, {1, 5}, {4, 9}};
  delta.removed = {{2, 2}, {3, 8}};
  ByteWriter writer;
  delta.Save(&writer);
  const std::string encoding = writer.bytes();
  // The degraded-shard, added and removed counts.
  const size_t added_at = 24 + 4 * delta.degraded_shards.size();
  const std::vector<size_t> counts = {16, added_at,
                                      added_at + 8 + 8 * delta.added.size()};
  Rng rng(0xDE17A);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string mutated = MutateEncoding(encoding, trial, counts, &rng);
    ByteReader reader(mutated);
    ResultDelta decoded;
    const Status s = ResultDelta::Load(&reader, &decoded);
    EXPECT_TRUE(s.ok() || s.IsDataLoss() || s.IsCorruption()) << s.ToString();
  }
}

TEST(DecoderFuzzTest, TraceTextMutationsParseOrFailTyped) {
  Trace trace;
  for (Timestamp t = 1; t <= 3; ++t) {
    TickBatch batch;
    batch.time = t;
    for (uint32_t i = 0; i < 3; ++i) {
      LocationUpdate o;
      o.oid = i;
      o.position = Point{100.0 * i + t, 50.0 * t};
      o.time = t;
      o.speed = 12.5;
      o.dest_node = i;
      o.dest_position = Point{900, 900};
      o.attrs = i;
      batch.object_updates.push_back(o);
    }
    QueryUpdate q;
    q.qid = 9;
    q.position = Point{300, 40.0 * t};
    q.time = t;
    q.speed = 8;
    q.dest_position = Point{900, 900};
    q.range_width = 120;
    q.range_height = 80;
    q.required_attrs = 1;
    batch.query_updates.push_back(q);
    trace.Append(std::move(batch));
  }
  const std::string text = trace.Serialize();
  Rng rng(0x7EACE);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Result<Trace> parsed =
        Trace::Parse(MutateEncoding(text, trial, {}, &rng));
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsCorruption())
          << parsed.status().ToString();
      continue;
    }
    // Whatever parsed is a trace in its own right: it round-trips.
    const std::string again = parsed->Serialize();
    const Result<Trace> reparsed = Trace::Parse(again);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(reparsed->Serialize(), again);
  }
}

TEST(DecoderFuzzTest, NetworkTextMutationsParseOrFailTyped) {
  NetworkBuilder builder;
  for (int i = 0; i < 4; ++i) {
    builder.AddNode(Point{500.0 * (i % 2), 500.0 * (i / 2)});
  }
  for (auto [a, b] : {std::pair{0u, 1u}, {1u, 3u}, {3u, 2u}, {2u, 0u}}) {
    ASSERT_TRUE(builder.AddBidirectionalEdge(a, b, RoadClass::kArterial).ok());
  }
  Result<RoadNetwork> network = builder.Build();
  ASSERT_TRUE(network.ok()) << network.status().ToString();
  const std::string text = SerializeNetwork(*network);
  Rng rng(0x4E7);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Result<RoadNetwork> parsed =
        ParseNetwork(MutateEncoding(text, trial, {}, &rng));
    if (parsed.ok()) continue;
    const Status& s = parsed.status();
    EXPECT_TRUE(s.IsCorruption() || s.IsInvalidArgument() ||
                s.IsAlreadyExists() || s.IsFailedPrecondition())
        << s.ToString();
  }
}

}  // namespace
}  // namespace scuba
