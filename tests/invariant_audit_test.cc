// Invariant auditor + self-healing coverage. ScubaEngineAuditPeer (a
// declared friend of ScubaEngine) deliberately desynchronizes the cluster
// grid from the cluster store; the tests then require AuditInvariants() to
// pinpoint the exact divergence, RebuildGridFromStore() to restore a clean
// audit with unchanged join results, and the periodic Evaluate hook to
// self-heal grid damage (or surface unrepairable store damage as
// kCorruption). The periodic-hook cases run at one and four join windows,
// and the window-scoped audit must blame exactly the window whose cells were
// damaged.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/scuba_engine.h"
#include "persist/snapshot.h"
#include "state_digest.h"

namespace scuba {

/// Test back door matching the `friend class ScubaEngineAuditPeer`
/// declaration: hands tests mutable access to the engine's internal grid and
/// store so they can inject precisely the divergences the auditor claims to
/// detect.
class ScubaEngineAuditPeer {
 public:
  explicit ScubaEngineAuditPeer(ScubaEngine* engine) : engine_(engine) {}

  GridIndex& grid() { return engine_->grid_; }
  ClusterStore& store() { return engine_->store_; }

 private:
  ScubaEngine* engine_;
};

namespace {

/// Deterministic clustered workload: `kGroups` co-travelling groups of
/// objects and queries, one update round per call.
template <typename Engine>
void IngestRound(Engine* engine, int round) {
  const int kGroups = 4;
  for (uint32_t i = 0; i < 48; ++i) {
    // Blocks of four consecutive ids (three objects + one query) share a
    // group, so every cluster mixes kinds and join-within produces matches.
    const int group = static_cast<int>(i / 4) % kGroups;
    const Point pos{800.0 + 1500.0 * group + 8.0 * (i % 4) +
                        2.0 * static_cast<int>(i / 16) + 3.0 * round,
                    900.0 + 1100.0 * (group % 2) + 6.0 * (i % 4) +
                        5.0 * static_cast<int>(i / 16)};
    if (i % 4 == 3) {
      QueryUpdate u;
      u.qid = i;
      u.position = pos;
      u.speed = 6.0 + group;
      u.dest_node = static_cast<NodeId>(group);
      u.dest_position = Point{9000, 9000};
      u.range_width = 120.0;
      u.range_height = 120.0;
      u.time = static_cast<Timestamp>(round);
      ASSERT_TRUE(engine->IngestQueryUpdate(u).ok());
    } else {
      LocationUpdate u;
      u.oid = i;
      u.position = pos;
      u.speed = 6.0 + group;
      u.dest_node = static_cast<NodeId>(group);
      u.dest_position = Point{9000, 9000};
      u.time = static_cast<Timestamp>(round);
      ASSERT_TRUE(engine->IngestObjectUpdate(u).ok());
    }
  }
}

std::unique_ptr<ScubaEngine> MakeEngine(const ScubaOptions& options = {}) {
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(options);
  EXPECT_TRUE(engine.ok());
  return std::move(engine).value();
}

/// True iff any retained violation message contains `needle`.
bool MentionedIn(const InvariantAuditReport& report, const std::string& needle) {
  for (const std::string& v : report.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(InvariantAuditTest, CleanEngineAuditsClean) {
  std::unique_ptr<ScubaEngine> engine = MakeEngine();
  IngestRound(engine.get(), 1);
  ResultSet results;
  ASSERT_TRUE(engine->Evaluate(2, &results).ok());

  const InvariantAuditReport report = engine->AuditInvariants();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_GT(report.clusters_checked, 0u);
  EXPECT_GT(report.members_checked, 0u);
  EXPECT_GT(report.grid_keys_checked, 0u);
  EXPECT_NE(report.ToString().find("clean"), std::string::npos);
}

TEST(InvariantAuditTest, MissingGridRegistrationIsPinpointed) {
  std::unique_ptr<ScubaEngine> engine = MakeEngine();
  IngestRound(engine.get(), 1);
  ScubaEngineAuditPeer peer(engine.get());
  const ClusterId victim = engine->store().SortedClusterIds().front();
  ASSERT_TRUE(peer.grid().Remove(victim).ok());

  const InvariantAuditReport report = engine->AuditInvariants();
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(MentionedIn(report, "cluster " + std::to_string(victim)))
      << report.ToString();
  EXPECT_TRUE(MentionedIn(report, "missing from the cluster grid"))
      << report.ToString();
}

TEST(InvariantAuditTest, OrphanGridKeyIsPinpointed) {
  std::unique_ptr<ScubaEngine> engine = MakeEngine();
  IngestRound(engine.get(), 1);
  ScubaEngineAuditPeer peer(engine.get());
  ASSERT_TRUE(peer.grid().Insert(999983u, Point{50.0, 50.0}).ok());

  const InvariantAuditReport report = engine->AuditInvariants();
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(MentionedIn(report, "orphan key 999983")) << report.ToString();
}

TEST(InvariantAuditTest, ShrunkenRegisteredBoundsArePinpointed) {
  std::unique_ptr<ScubaEngine> engine = MakeEngine();
  IngestRound(engine.get(), 1);
  ScubaEngineAuditPeer peer(engine.get());
  const ClusterId victim = engine->store().SortedClusterIds().front();
  MovingCluster* cluster = peer.store().GetCluster(victim);
  ASSERT_NE(cluster, nullptr);
  cluster->set_registered_bounds(Circle{cluster->centroid(), 1e-3});

  const InvariantAuditReport report = engine->AuditInvariants();
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(MentionedIn(report, "registered bounds no longer cover"))
      << report.ToString();
}

TEST(InvariantAuditTest, ViolationMessagesCapButCountingContinues) {
  std::unique_ptr<ScubaEngine> engine = MakeEngine();
  IngestRound(engine.get(), 1);
  ScubaEngineAuditPeer peer(engine.get());
  // More orphans than the message cap: every one is counted, only the first
  // kMaxViolationMessages are retained verbatim.
  const size_t orphans = InvariantAuditReport::kMaxViolationMessages + 8;
  for (size_t i = 0; i < orphans; ++i) {
    ASSERT_TRUE(
        peer.grid().Insert(900000u + static_cast<uint32_t>(i), Point{1, 1}).ok());
  }
  const InvariantAuditReport report = engine->AuditInvariants();
  EXPECT_EQ(report.violations_total, orphans);
  EXPECT_EQ(report.violations.size(),
            InvariantAuditReport::kMaxViolationMessages);
  EXPECT_NE(report.ToString().find("more"), std::string::npos)
      << report.ToString();
}

TEST(InvariantAuditTest, RebuildRestoresCleanAuditAndJoinResults) {
  // Twin engines over the same workload; one gets its grid vandalized three
  // ways, rebuilt, and must then join identically to the untouched twin.
  std::unique_ptr<ScubaEngine> damaged = MakeEngine();
  std::unique_ptr<ScubaEngine> control = MakeEngine();
  IngestRound(damaged.get(), 1);
  IngestRound(control.get(), 1);

  ScubaEngineAuditPeer peer(damaged.get());
  std::vector<ClusterId> cids = damaged->store().SortedClusterIds();
  ASSERT_GE(cids.size(), 2u);
  ASSERT_TRUE(peer.grid().Remove(cids[0]).ok());
  ASSERT_TRUE(peer.grid().Insert(999983u, Point{50.0, 50.0}).ok());
  MovingCluster* shrunk = peer.store().GetCluster(cids[1]);
  ASSERT_NE(shrunk, nullptr);
  shrunk->set_registered_bounds(Circle{shrunk->centroid(), 1e-3});
  ASSERT_FALSE(damaged->AuditInvariants().clean());

  ASSERT_TRUE(damaged->RebuildGridFromStore().ok());
  const InvariantAuditReport report = damaged->AuditInvariants();
  EXPECT_TRUE(report.clean()) << report.ToString();

  ResultSet damaged_results;
  ResultSet control_results;
  ASSERT_TRUE(damaged->Evaluate(2, &damaged_results).ok());
  ASSERT_TRUE(control->Evaluate(2, &control_results).ok());
  EXPECT_GT(control_results.size(), 0u) << "workload must produce matches";
  EXPECT_EQ(damaged_results, control_results);

  // And the healed engine keeps working on later rounds.
  IngestRound(damaged.get(), 3);
  IngestRound(control.get(), 3);
  ASSERT_TRUE(damaged->Evaluate(4, &damaged_results).ok());
  ASSERT_TRUE(control->Evaluate(4, &control_results).ok());
  EXPECT_EQ(damaged_results, control_results);
}

TEST(InvariantAuditTest, PostJoinHealsMissingRegistrationBeforeAudit) {
  // A cluster dropped from the grid is lazily re-registered by post-join
  // maintenance (PlanClusterGridSync treats an unregistered cluster as
  // needing registration), so the periodic audit already sees a clean grid:
  // no repair is charged for this divergence class.
  ScubaOptions options;
  options.audit_every_n_rounds = 1;
  std::unique_ptr<ScubaEngine> engine = MakeEngine(options);
  IngestRound(engine.get(), 1);
  ResultSet results;
  ASSERT_TRUE(engine->Evaluate(2, &results).ok());

  ScubaEngineAuditPeer peer(engine.get());
  const ClusterId victim = engine->store().SortedClusterIds().front();
  ASSERT_TRUE(peer.grid().Remove(victim).ok());

  ASSERT_TRUE(engine->Evaluate(4, &results).ok());
  EXPECT_TRUE(peer.grid().Contains(victim));
  EXPECT_EQ(engine->StatsSnapshot().eval.invariant_violations, 0u);
  EXPECT_EQ(engine->StatsSnapshot().eval.invariant_repairs, 0u);
}

TEST(InvariantAuditTest, EmptyEngineAuditsClean) {
  // No clusters, no grid keys: the audit must report clean (not trip over
  // empty tables) — this is also the state right after a fresh Restore of an
  // empty checkpoint.
  std::unique_ptr<ScubaEngine> engine = MakeEngine();
  const InvariantAuditReport report = engine->AuditInvariants();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.clusters_checked, 0u);
  EXPECT_EQ(report.grid_keys_checked, 0u);
  // Rebuilding an empty grid is a harmless no-op, too.
  EXPECT_TRUE(engine->RebuildGridFromStore().ok());
  EXPECT_TRUE(engine->AuditInvariants().clean());
}

TEST(InvariantAuditTest, RebuildIsIdempotent) {
  // A rebuild discards the lazy registration memo and re-registers every
  // cluster from scratch, so it may legitimately tighten bounds relative to
  // incremental maintenance — but it must be a fixed point: a SECOND rebuild
  // on the rebuilt state is a digest-exact no-op, and the audit stays clean.
  std::unique_ptr<ScubaEngine> engine = MakeEngine();
  IngestRound(engine.get(), 1);
  ResultSet results;
  ASSERT_TRUE(engine->Evaluate(2, &results).ok());

  ASSERT_TRUE(engine->RebuildGridFromStore().ok());
  EXPECT_TRUE(engine->AuditInvariants().clean());
  const std::string rebuilt = StateDigest(*engine);
  ASSERT_TRUE(engine->RebuildGridFromStore().ok());
  EXPECT_EQ(StateDigest(*engine), rebuilt) << "second rebuild must be a no-op";
  EXPECT_TRUE(engine->AuditInvariants().clean());

  // And the rebuilt engine still evaluates identically to an untouched twin.
  std::unique_ptr<ScubaEngine> control = MakeEngine();
  IngestRound(control.get(), 1);
  ResultSet control_results;
  ASSERT_TRUE(control->Evaluate(2, &control_results).ok());
  IngestRound(engine.get(), 2);
  IngestRound(control.get(), 2);
  ResultSet after;
  ResultSet control_after;
  ASSERT_TRUE(engine->Evaluate(4, &after).ok());
  ASSERT_TRUE(control->Evaluate(4, &control_after).ok());
  EXPECT_EQ(after, control_after);
}

// --- The window-scoped audit. ---

TEST(InvariantAuditTest, WindowAuditBlamesOnlyTheDamagedWindow) {
  // Ten windows of ten rows each put a border at y = 1000, which the
  // workload's y ~ 900 groups straddle once registered with padding.
  ScubaOptions options;
  options.shards = 10;
  std::unique_ptr<ScubaEngine> engine = MakeEngine(options);
  IngestRound(engine.get(), 1);
  ResultSet results;
  ASSERT_TRUE(engine->Evaluate(2, &results).ok());
  for (uint32_t w = 0; w < engine->shard_count(); ++w) {
    EXPECT_TRUE(engine->AuditShardStripe(w).clean()) << "window " << w;
  }

  // Drop one cluster from the cells of its lowest window, the way the
  // corrupt-state injection does, leaving its other cells in place.
  ScubaEngineAuditPeer peer(engine.get());
  const ShardRouter& windows = engine->router();
  uint32_t damaged = windows.shard_count();
  for (ClusterId cid : engine->store().SortedClusterIds()) {
    std::vector<uint32_t> cells = *engine->cluster_grid().CellsOf(cid);
    std::sort(cells.begin(), cells.end());
    const uint32_t w = windows.ShardOfCell(cells.front());
    if (cells.back() < windows.CellEnd(w)) continue;  // not a border cluster
    ASSERT_GT(peer.grid().InjectDropFromCells(cid, windows.CellBegin(w),
                                              windows.CellEnd(w)),
              0u);
    damaged = w;
    break;
  }
  ASSERT_LT(damaged, windows.shard_count())
      << "the workload must have a cluster crossing a window border";
  for (uint32_t w = 0; w < engine->shard_count(); ++w) {
    const InvariantAuditReport report = engine->AuditShardStripe(w);
    EXPECT_EQ(report.clean(), w != damaged) << "window " << w << ": "
                                            << report.ToString();
  }
  const InvariantAuditReport whole = engine->AuditInvariants();
  EXPECT_FALSE(whole.clean());
  EXPECT_TRUE(MentionedIn(whole, "grid cell placement diverges"))
      << whole.ToString();
}

TEST(InvariantAuditTest, WindowAuditsSumToTheWholeAudit) {
  ScubaOptions options;
  options.shards = 3;
  std::unique_ptr<ScubaEngine> engine = MakeEngine(options);
  IngestRound(engine.get(), 1);
  const InvariantAuditReport whole = engine->AuditInvariants();
  ASSERT_TRUE(whole.clean()) << whole.ToString();
  size_t clusters = 0, members = 0;
  for (uint32_t w = 0; w < engine->shard_count(); ++w) {
    const InvariantAuditReport part = engine->AuditShardStripe(w);
    EXPECT_TRUE(part.clean()) << part.ToString();
    clusters += part.clusters_checked;
    members += part.members_checked;
  }
  // Every cluster is checked by exactly one window: its lowest cell's.
  EXPECT_EQ(clusters, whole.clusters_checked);
  EXPECT_EQ(members, whole.members_checked);
}

// --- The periodic audit hook, at one and four join windows. ---

class PeriodicAuditTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  /// Builds the engine under test with the given audit cadence.
  void Make(uint32_t audit_every) {
    ScubaOptions options;
    options.audit_every_n_rounds = audit_every;
    options.shards = GetParam();
    engine_ = MakeEngine(options);
  }

  /// The store and its lowest cluster id.
  std::pair<ClusterStore*, ClusterId> FirstCluster() {
    ClusterStore& store = ScubaEngineAuditPeer(engine_.get()).store();
    return {&store, store.SortedClusterIds().front()};
  }

  bool AuditsClean() const { return engine_->AuditInvariants().clean(); }

  std::unique_ptr<ScubaEngine> engine_;
};

TEST_P(PeriodicAuditTest, EvaluateSelfHealsGridDivergence) {
  Make(/*audit_every=*/1);
  IngestRound(engine_.get(), 1);
  ResultSet results;
  ASSERT_TRUE(engine_->Evaluate(2, &results).ok());
  EXPECT_EQ(engine_->StatsSnapshot().eval.invariant_audits, 1u);
  EXPECT_EQ(engine_->StatsSnapshot().eval.invariant_violations, 0u);

  // Inflate one cluster's registered-bounds memo without touching its actual
  // cell placement. Post-join cannot notice (the memo claims the cluster is
  // generously covered, so no resync is planned), but the audit's cell
  // placement cross-check catches the divergence — only the hook heals this.
  const auto [store, victim] = FirstCluster();
  ASSERT_NE(store, nullptr);
  MovingCluster* cluster = store->GetCluster(victim);
  ASSERT_NE(cluster, nullptr);
  cluster->set_registered_bounds(
      Circle{cluster->centroid(), cluster->radius() + 5000.0});

  // The round's audit hook finds the divergence, rebuilds the grid and
  // re-audits clean — Evaluate itself succeeds.
  ASSERT_TRUE(engine_->Evaluate(4, &results).ok());
  EXPECT_EQ(engine_->StatsSnapshot().eval.invariant_repairs, 1u);
  EXPECT_GE(engine_->StatsSnapshot().eval.invariant_violations, 1u);
  EXPECT_EQ(engine_->StatsSnapshot().eval.invariant_audits, 3u);  // 1 clean + audit/re-audit
  EXPECT_TRUE(AuditsClean());

  // Subsequent rounds audit clean without further repairs.
  ASSERT_TRUE(engine_->Evaluate(6, &results).ok());
  EXPECT_EQ(engine_->StatsSnapshot().eval.invariant_repairs, 1u);
  EXPECT_EQ(engine_->StatsSnapshot().eval.invariant_audits, 4u);
}

TEST_P(PeriodicAuditTest, AuditCadenceFollowsOption) {
  Make(/*audit_every=*/2);
  ResultSet results;
  for (int round = 1; round <= 4; ++round) {
    IngestRound(engine_.get(), round);
    ASSERT_TRUE(engine_->Evaluate(2 * round, &results).ok());
  }
  EXPECT_EQ(engine_->StatsSnapshot().eval.invariant_audits, 2u);  // rounds 2 and 4 only
}

TEST_P(PeriodicAuditTest, StoreCorruptionSurfacesAsCorruption) {
  Make(/*audit_every=*/1);
  IngestRound(engine_.get(), 1);

  // Damage the store itself: erase one member's home-table entry. A grid
  // rebuild cannot recover that, so the self-heal path must give up loudly.
  const auto [store, victim] = FirstCluster();
  ASSERT_NE(store, nullptr);
  const MovingCluster* cluster = store->GetCluster(victim);
  ASSERT_NE(cluster, nullptr);
  ASSERT_FALSE(cluster->members().empty());
  const ClusterMember& member = cluster->members().front();
  ASSERT_TRUE(store->ClearHome(EntityRef{member.kind, member.id}).ok());

  ResultSet results;
  Status s = engine_->Evaluate(2, &results);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(engine_->StatsSnapshot().eval.invariant_repairs, 1u);  // the rebuild was tried
}

INSTANTIATE_TEST_SUITE_P(
    Engines, PeriodicAuditTest, ::testing::Values(1u, 4u),
    [](const ::testing::TestParamInfo<uint32_t>& info) {
      return "shards" + std::to_string(info.param);
    });

}  // namespace
}  // namespace scuba
