#include "core/engine_snapshot.h"

#include <gtest/gtest.h>

namespace scuba {
namespace {

// EngineSnapshotStats' reporting methods only read the eval section.
EngineSnapshotStats Wrap(const EvalStats& stats) {
  EngineSnapshotStats snapshot;
  snapshot.eval = stats;
  return snapshot;
}

EvalStats SampleStats() {
  EvalStats s;
  s.evaluations = 4;
  s.total_join_seconds = 2.0;
  s.total_maintenance_seconds = 1.0;
  s.total_results = 100;
  s.comparisons = 5000;
  s.cluster_pairs_tested = 80;
  s.cluster_pairs_overlapping = 20;
  return s;
}

TEST(EngineStatsTest, Averages) {
  EvalStats s = SampleStats();
  EXPECT_DOUBLE_EQ(Wrap(s).AvgJoinSeconds(), 0.5);
  EXPECT_DOUBLE_EQ(Wrap(s).AvgMaintenanceSeconds(), 0.25);
}

TEST(EngineStatsTest, AveragesWithNoRounds) {
  EvalStats s;
  EXPECT_EQ(Wrap(s).AvgJoinSeconds(), 0.0);
  EXPECT_EQ(Wrap(s).AvgMaintenanceSeconds(), 0.0);
}

TEST(EngineStatsTest, Selectivity) {
  EvalStats s = SampleStats();
  EXPECT_DOUBLE_EQ(Wrap(s).JoinBetweenSelectivity(), 0.25);
  EvalStats none;
  EXPECT_EQ(Wrap(none).JoinBetweenSelectivity(), 0.0);
}

TEST(EngineStatsTest, FormatMentionsFields) {
  std::string out = Wrap(SampleStats()).Format("scuba");
  EXPECT_NE(out.find("scuba"), std::string::npos);
  EXPECT_NE(out.find("evals=4"), std::string::npos);
  EXPECT_NE(out.find("results=100"), std::string::npos);
  EXPECT_NE(out.find("pairs=20/80"), std::string::npos);
}

TEST(EngineStatsTest, ParallelSpeedups) {
  EvalStats s = SampleStats();
  s.join_threads = 4;
  s.total_join_worker_seconds = 6.0;
  s.total_postjoin_seconds = 0.25;
  s.total_postjoin_worker_seconds = 0.5;
  EXPECT_DOUBLE_EQ(Wrap(s).JoinParallelSpeedup(), 3.0);
  EXPECT_DOUBLE_EQ(Wrap(s).JoinParallelEfficiency(), 0.75);
  EXPECT_DOUBLE_EQ(Wrap(s).PostJoinParallelSpeedup(), 2.0);
  EXPECT_EQ(Wrap(EvalStats{}).JoinParallelSpeedup(), 0.0);
}

TEST(EngineStatsTest, FormatAddsDurabilityOnlyWhenPresent) {
  // Non-durable runs keep the historical line byte for byte.
  std::string clean = Wrap(SampleStats()).Format("scuba");
  EXPECT_EQ(clean.find("wal-records="), std::string::npos);
  EXPECT_EQ(clean.find("replayed-rounds="), std::string::npos);

  EvalStats s = SampleStats();
  s.wal_records_appended = 8;
  s.wal_bytes_appended = 4096;
  s.checkpoints_written = 2;
  s.recovery_replay_rounds = 3;
  std::string durable = Wrap(s).Format("scuba");
  EXPECT_NE(durable.find("wal-records=8"), std::string::npos);
  EXPECT_NE(durable.find("wal-bytes=4096"), std::string::npos);
  EXPECT_NE(durable.find("checkpoints=2"), std::string::npos);
  EXPECT_NE(durable.find("replayed-rounds=3"), std::string::npos);
  EXPECT_EQ(durable.find(clean), 0u) << "historical prefix must be intact";
}

}  // namespace
}  // namespace scuba
