// Exhaustive validation-branch coverage for every options struct.

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "baseline/grid_join_engine.h"
#include "baseline/query_index_engine.h"
#include "core/scuba_options.h"
#include "index/grid_index.h"

namespace scuba {
namespace {

TEST(ScubaOptionsTest, DefaultsAreValid) {
  EXPECT_TRUE(ScubaOptions{}.Validate().ok());
}

TEST(ScubaOptionsTest, ThetaBounds) {
  ScubaOptions opt;
  opt.theta_d = -0.1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = ScubaOptions{};
  opt.theta_s = -0.1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  // Zero thresholds are legal (degenerate clustering: all singletons).
  opt = ScubaOptions{};
  opt.theta_d = 0.0;
  opt.theta_s = 0.0;
  EXPECT_TRUE(opt.Validate().ok());
}

TEST(ScubaOptionsTest, GridAndRegion) {
  ScubaOptions opt;
  opt.grid_cells = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = ScubaOptions{};
  opt.grid_cells = GridIndex::kMaxCellsPerSide;
  EXPECT_TRUE(opt.Validate().ok());
  // Cell ids are u32 and every empty cell costs 24 B: past 4096 per side is
  // a typo, not a grid.
  opt.grid_cells = GridIndex::kMaxCellsPerSide + 1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.grid_cells = 100000;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = ScubaOptions{};
  opt.region = Rect{100, 0, 0, 100};
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = ScubaOptions{};
  opt.region = Rect{0, 0, 0, 100};  // zero width
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

TEST(ScubaOptionsTest, DeltaAndPadding) {
  ScubaOptions opt;
  opt.delta = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = ScubaOptions{};
  opt.delta = -3;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = ScubaOptions{};
  opt.grid_sync_padding = -1.0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = ScubaOptions{};
  opt.grid_sync_padding = 0.0;  // paper-literal mode is legal
  EXPECT_TRUE(opt.Validate().ok());
}

TEST(ScubaOptionsTest, SplittingFactor) {
  ScubaOptions opt;
  opt.enable_cluster_splitting = true;
  opt.split_radius_factor = 0.0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  // Factor is irrelevant while splitting is off.
  opt.enable_cluster_splitting = false;
  EXPECT_TRUE(opt.Validate().ok());
}

TEST(ScubaOptionsTest, JoinThreads) {
  ScubaOptions opt;
  opt.join_threads = 0;  // hardware concurrency
  EXPECT_TRUE(opt.Validate().ok());
  opt.join_threads = 8;
  EXPECT_TRUE(opt.Validate().ok());
  opt.join_threads = 1024;
  EXPECT_TRUE(opt.Validate().ok());
  opt.join_threads = 1025;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

TEST(ScubaOptionsTest, SheddingBranches) {
  ScubaOptions opt;
  opt.shedding.eta = -0.1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = ScubaOptions{};
  opt.shedding.eta = 1.1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());

  opt = ScubaOptions{};
  opt.shedding.mode = LoadSheddingMode::kAdaptive;
  opt.shedding.memory_budget_bytes = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());

  opt.shedding.memory_budget_bytes = 1024;
  opt.shedding.eta_step = 0.0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.shedding.eta_step = 1.5;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.shedding.eta_step = 0.25;
  opt.shedding.relax_fraction = 0.0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.shedding.relax_fraction = 1.0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.shedding.relax_fraction = 0.7;
  EXPECT_TRUE(opt.Validate().ok());

  // Fixed mode ignores adaptive-only fields.
  opt = ScubaOptions{};
  opt.shedding.mode = LoadSheddingMode::kFixed;
  opt.shedding.eta = 0.5;
  EXPECT_TRUE(opt.Validate().ok());
}

TEST(ScubaOptionsTest, NonFiniteFloatsAreRejected) {
  // A NaN fails every ordered comparison, so each float check must reject it
  // (and the infinities) explicitly instead of letting it through.
  using Setter = void (*)(ScubaOptions*, double);
  const std::vector<std::pair<const char*, Setter>> fields = {
      {"theta_d", [](ScubaOptions* o, double v) { o->theta_d = v; }},
      {"theta_s", [](ScubaOptions* o, double v) { o->theta_s = v; }},
      {"region.min_x", [](ScubaOptions* o, double v) { o->region.min_x = v; }},
      {"region.max_y", [](ScubaOptions* o, double v) { o->region.max_y = v; }},
      {"grid_sync_padding",
       [](ScubaOptions* o, double v) { o->grid_sync_padding = v; }},
      {"split_radius_factor",
       [](ScubaOptions* o, double v) {
         o->enable_cluster_splitting = true;
         o->split_radius_factor = v;
       }},
      {"eta",
       [](ScubaOptions* o, double v) {
         o->shedding.mode = LoadSheddingMode::kFixed;
         o->shedding.eta = v;
       }},
      {"eta_step",
       [](ScubaOptions* o, double v) {
         o->shedding.mode = LoadSheddingMode::kAdaptive;
         o->shedding.memory_budget_bytes = 1024;
         o->shedding.eta_step = v;
       }},
      {"relax_fraction",
       [](ScubaOptions* o, double v) {
         o->shedding.mode = LoadSheddingMode::kAdaptive;
         o->shedding.memory_budget_bytes = 1024;
         o->shedding.relax_fraction = v;
       }},
      {"round_deadline_seconds",
       [](ScubaOptions* o, double v) {
         o->supervision.round_deadline_seconds = v;
       }},
      {"fault_rate",
       [](ScubaOptions* o, double v) { o->supervision.fault_rate = v; }},
  };
  for (const auto& [name, set] : fields) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
      ScubaOptions opt;
      set(&opt, bad);
      EXPECT_TRUE(opt.Validate().IsInvalidArgument())
          << name << " = " << bad << " passed validation";
    }
  }
}

TEST(ScubaOptionsTest, BadUpdatePolicyNamesRoundTrip) {
  for (BadUpdatePolicy policy :
       {BadUpdatePolicy::kStrict, BadUpdatePolicy::kQuarantine,
        BadUpdatePolicy::kRepair}) {
    Result<BadUpdatePolicy> parsed =
        ParseBadUpdatePolicy(BadUpdatePolicyName(policy));
    ASSERT_TRUE(parsed.ok()) << BadUpdatePolicyName(policy);
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_TRUE(ParseBadUpdatePolicy("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseBadUpdatePolicy("drop").status().IsInvalidArgument());
  EXPECT_TRUE(ParseBadUpdatePolicy("Strict").status().IsInvalidArgument());
}

TEST(ScubaOptionsTest, HardeningFieldsAreValid) {
  ScubaOptions opt;
  opt.on_bad_update = BadUpdatePolicy::kQuarantine;
  opt.audit_every_n_rounds = 1;
  EXPECT_TRUE(opt.Validate().ok());
  opt.on_bad_update = BadUpdatePolicy::kRepair;
  opt.audit_every_n_rounds = 1000;
  EXPECT_TRUE(opt.Validate().ok());
}

TEST(GridJoinOptionsTest, Branches) {
  EXPECT_TRUE(GridJoinOptions{}.Validate().ok());
  GridJoinOptions opt;
  opt.grid_cells = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = GridJoinOptions{};
  opt.region = Rect{5, 5, 4, 4};
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

TEST(QueryIndexOptionsTest, Branches) {
  EXPECT_TRUE(QueryIndexOptions{}.Validate().ok());
  QueryIndexOptions opt;
  opt.max_node_entries = 1;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt.max_node_entries = 2;
  EXPECT_TRUE(opt.Validate().ok());
}

}  // namespace
}  // namespace scuba
