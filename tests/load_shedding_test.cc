// Load shedding (paper §5, §6.6): fixed-eta and adaptive shedding semantics.

#include <gtest/gtest.h>

#include "baseline/naive_join_engine.h"
#include "core/load_shedder.h"
#include "core/scuba_engine.h"
#include "eval/accuracy.h"
#include "eval/experiment.h"
#include "stream/pipeline.h"

namespace scuba {
namespace {

// ---------- LoadShedder unit tests ----------

TEST(LoadShedderTest, NoneModeNeverSheds) {
  LoadShedder s(LoadSheddingOptions{}, 100.0);
  EXPECT_EQ(s.nucleus_radius(), 0.0);
  s.ObserveMemoryUsage(1ull << 40);
  EXPECT_EQ(s.nucleus_radius(), 0.0);
  EXPECT_EQ(s.adjustments(), 0u);
}

TEST(LoadShedderTest, FixedModePinsEta) {
  LoadSheddingOptions opt;
  opt.mode = LoadSheddingMode::kFixed;
  opt.eta = 0.5;
  LoadShedder s(opt, 100.0);
  EXPECT_DOUBLE_EQ(s.nucleus_radius(), 50.0);
  EXPECT_DOUBLE_EQ(s.eta(), 0.5);
  s.ObserveMemoryUsage(1ull << 40);  // ignored in fixed mode
  EXPECT_DOUBLE_EQ(s.nucleus_radius(), 50.0);
}

TEST(LoadShedderTest, AdaptiveTightensUnderPressure) {
  LoadSheddingOptions opt;
  opt.mode = LoadSheddingMode::kAdaptive;
  opt.memory_budget_bytes = 1000;
  opt.eta_step = 0.25;
  LoadShedder s(opt, 100.0);
  EXPECT_EQ(s.eta(), 0.0);
  s.ObserveMemoryUsage(2000);
  EXPECT_DOUBLE_EQ(s.eta(), 0.25);
  s.ObserveMemoryUsage(2000);
  s.ObserveMemoryUsage(2000);
  s.ObserveMemoryUsage(2000);
  EXPECT_DOUBLE_EQ(s.eta(), 1.0);  // capped
  s.ObserveMemoryUsage(2000);
  EXPECT_DOUBLE_EQ(s.eta(), 1.0);
  EXPECT_EQ(s.adjustments(), 4u);
}

TEST(LoadShedderTest, AdaptiveRelaxesWhenMemoryFalls) {
  LoadSheddingOptions opt;
  opt.mode = LoadSheddingMode::kAdaptive;
  opt.memory_budget_bytes = 1000;
  opt.eta_step = 0.5;
  LoadShedder s(opt, 100.0);
  s.ObserveMemoryUsage(2000);
  EXPECT_DOUBLE_EQ(s.eta(), 0.5);
  s.ObserveMemoryUsage(900);  // within budget but above relax threshold
  EXPECT_DOUBLE_EQ(s.eta(), 0.5);
  s.ObserveMemoryUsage(600);  // below 0.7 * budget
  EXPECT_DOUBLE_EQ(s.eta(), 0.0);
}

// ---------- Engine-level shedding behaviour ----------

struct SheddingOutcome {
  AccuracyReport accuracy;
  uint64_t comparisons = 0;
  size_t peak_memory = 0;
};

SheddingOutcome RunWithEta(const ExperimentData& data, Timestamp delta,
                           double eta) {
  ScubaOptions opt;
  opt.region = data.region;
  if (eta > 0.0) {
    opt.shedding.mode = LoadSheddingMode::kFixed;
    opt.shedding.eta = eta;
  }
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  EXPECT_TRUE(engine.ok());
  NaiveJoinEngine naive;

  std::vector<ResultSet> scuba_rounds;
  std::vector<ResultSet> naive_rounds;
  EXPECT_TRUE(ReplayTrace(data.trace, engine->get(), delta,
                          [&](Timestamp, const ResultSet& r) {
                            scuba_rounds.push_back(r);
                          })
                  .ok());
  EXPECT_TRUE(ReplayTrace(data.trace, &naive, delta,
                          [&](Timestamp, const ResultSet& r) {
                            naive_rounds.push_back(r);
                          })
                  .ok());
  SheddingOutcome out;
  AccuracyAccumulator acc;
  for (size_t i = 0; i < naive_rounds.size(); ++i) {
    acc.Add(CompareResults(naive_rounds[i], scuba_rounds[i]));
  }
  out.accuracy = acc.total();
  out.comparisons = (*engine)->StatsSnapshot().eval.comparisons;
  // Shedding's memory claim is about discarded member position state, so
  // measure the cluster tables, not the grid (whose registrations grow with
  // the nucleus-inflated radii).
  out.peak_memory = (*engine)->store().EstimateMemoryUsage();
  return out;
}

class SheddingSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentConfig config;
    config.city.rows = 11;
    config.city.cols = 11;
    config.city.seed = 61;
    config.workload.num_objects = 200;
    config.workload.num_queries = 200;
    config.workload.skew = 25;
    config.workload.seed = 61;
    config.ticks = 8;
    Result<ExperimentData> data = BuildExperimentData(config);
    ASSERT_TRUE(data.ok());
    data_ = new ExperimentData(std::move(data).value());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static ExperimentData* data_;
};

ExperimentData* SheddingSweepTest::data_ = nullptr;

TEST_F(SheddingSweepTest, NoSheddingIsExact) {
  SheddingOutcome out = RunWithEta(*data_, 2, 0.0);
  EXPECT_EQ(out.accuracy.false_positives, 0u);
  EXPECT_EQ(out.accuracy.false_negatives, 0u);
  EXPECT_GT(out.accuracy.truth_size, 0u);
}

TEST_F(SheddingSweepTest, ModerateSheddingKeepsReasonableAccuracy) {
  // Paper §6.6: "relatively good results can be produced with cluster-based
  // load shedding even if 50% of a cluster region is shed" (~79% there).
  SheddingOutcome out = RunWithEta(*data_, 2, 0.5);
  EXPECT_GE(out.accuracy.Accuracy(), 0.5);
  EXPECT_GE(out.accuracy.Recall(), 0.6);
  EXPECT_GE(out.accuracy.Precision(), 0.6);
}

TEST_F(SheddingSweepTest, AccuracyDegradesWithEta) {
  SheddingOutcome low = RunWithEta(*data_, 2, 0.25);
  SheddingOutcome high = RunWithEta(*data_, 2, 1.0);
  EXPECT_GE(low.accuracy.Accuracy(), high.accuracy.Accuracy());
  // Full shedding must actually cost accuracy on this workload, in both
  // error directions (the nucleus approximation trades FPs and FNs).
  EXPECT_LT(high.accuracy.Accuracy(), 1.0);
  EXPECT_GT(high.accuracy.false_positives + high.accuracy.false_negatives, 0u);
}

TEST_F(SheddingSweepTest, SheddingCutsComparisonsAndMemory) {
  SheddingOutcome none = RunWithEta(*data_, 2, 0.0);
  SheddingOutcome full = RunWithEta(*data_, 2, 1.0);
  EXPECT_LT(full.comparisons, none.comparisons)
      << "nucleus grouping must reduce join-within predicate evaluations";
  EXPECT_LT(full.peak_memory, none.peak_memory);
}

TEST_F(SheddingSweepTest, AdaptiveModeEngagesUnderTightBudget) {
  ScubaOptions opt;
  opt.region = data_->region;
  opt.shedding.mode = LoadSheddingMode::kAdaptive;
  opt.shedding.memory_budget_bytes = 64 * 1024;  // deliberately tiny
  opt.shedding.eta_step = 0.5;
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(RunOnTrace(engine->get(), data_->trace, 2).ok());
  EXPECT_GT((*engine)->shedder().eta(), 0.0);
  EXPECT_GT((*engine)->shedder().adjustments(), 0u);
  EXPECT_GT((*engine)->StatsSnapshot().phase.members_shed_maintenance +
                (*engine)->StatsSnapshot().clusterer.members_shed,
            0u);
}

TEST_F(SheddingSweepTest, AdaptiveModeIdlesUnderLooseBudget) {
  ScubaOptions opt;
  opt.region = data_->region;
  opt.shedding.mode = LoadSheddingMode::kAdaptive;
  opt.shedding.memory_budget_bytes = 1ull << 32;  // effectively infinite
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(RunOnTrace(engine->get(), data_->trace, 2).ok());
  EXPECT_EQ((*engine)->shedder().eta(), 0.0);
}

}  // namespace
}  // namespace scuba
