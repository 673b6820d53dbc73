// UpdateValidator coverage: every RejectReason fires with its counter,
// StatusCode tag and dead-letter entry; the three policies (strict /
// quarantine / repair) behave per contract; batch screening preserves the
// relative order of admitted tuples; and whatever a non-strict screen admits
// passes the engine's ValidateUpdate, so a screened stream never trips the
// engine's always-strict ingest.

#include "stream/update_validator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "stream/fault_injector.h"

namespace scuba {
namespace {

LocationUpdate Obj(uint32_t oid, Timestamp time = 5) {
  LocationUpdate u;
  u.oid = oid;
  u.position = Point{100.0, 100.0};
  u.time = time;
  u.speed = 10.0;
  u.dest_node = 3;
  u.dest_position = Point{900.0, 900.0};
  return u;
}

QueryUpdate Qry(uint32_t qid, Timestamp time = 5) {
  QueryUpdate u;
  u.qid = qid;
  u.position = Point{200.0, 200.0};
  u.time = time;
  u.speed = 10.0;
  u.dest_node = 3;
  u.dest_position = Point{900.0, 900.0};
  u.range_width = 50.0;
  u.range_height = 50.0;
  return u;
}

ValidatorConfig Config(BadUpdatePolicy policy) {
  ValidatorConfig config;
  config.policy = policy;
  config.bounds = Rect{0.0, 0.0, 1000.0, 1000.0};
  config.check_bounds = true;
  config.node_count = 10;
  return config;
}

Status ScreenOne(UpdateValidator* v, LocationUpdate u,
                 Timestamp batch_time = 5) {
  std::vector<LocationUpdate> objects{u};
  std::vector<QueryUpdate> queries;
  return v->ScreenBatch(batch_time, &objects, &queries);
}

TEST(RejectReasonTest, NamesAndCodesAreDistinctive) {
  for (size_t i = 0; i < kRejectReasonCount; ++i) {
    const RejectReason r = static_cast<RejectReason>(i);
    EXPECT_NE(RejectReasonName(r), "unknown");
  }
  EXPECT_EQ(RejectReasonStatusCode(RejectReason::kOffMap),
            StatusCode::kOutOfRange);
  EXPECT_EQ(RejectReasonStatusCode(RejectReason::kDuplicateInBatch),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(RejectReasonStatusCode(RejectReason::kTimeRegression),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(RejectReasonStatusCode(RejectReason::kUnknownDestNode),
            StatusCode::kNotFound);
  EXPECT_EQ(RejectReasonStatusCode(RejectReason::kNonFinite),
            StatusCode::kInvalidArgument);
}

struct FaultCase {
  const char* name;
  RejectReason reason;
  StatusCode code;
  LocationUpdate tuple;
};

std::vector<FaultCase> ObjectFaultCases() {
  std::vector<FaultCase> cases;
  LocationUpdate u = Obj(1);
  u.position.x = std::numeric_limits<double>::quiet_NaN();
  cases.push_back({"nan-position", RejectReason::kNonFinite,
                   StatusCode::kInvalidArgument, u});
  u = Obj(1);
  u.speed = -4.0;
  cases.push_back(
      {"negative-speed", RejectReason::kBadSpeed, StatusCode::kInvalidArgument, u});
  u = Obj(1);
  u.time = -7;
  cases.push_back({"negative-time", RejectReason::kNegativeTime,
                   StatusCode::kInvalidArgument, u});
  u = Obj(1, /*time=*/2);  // behind the batch-time floor of 5
  cases.push_back({"stale-time", RejectReason::kTimeRegression,
                   StatusCode::kFailedPrecondition, u});
  u = Obj(1);
  u.dest_node = kInvalidNodeId;
  cases.push_back({"missing-dest", RejectReason::kUnknownDestNode,
                   StatusCode::kNotFound, u});
  u = Obj(1);
  u.dest_node = 99;  // >= node_count of 10
  cases.push_back({"out-of-network-dest", RejectReason::kUnknownDestNode,
                   StatusCode::kNotFound, u});
  u = Obj(1);
  u.position = Point{5000.0, 5000.0};
  cases.push_back(
      {"off-map", RejectReason::kOffMap, StatusCode::kOutOfRange, u});
  return cases;
}

TEST(UpdateValidatorTest, StrictFailsWithTaggedCodePerFaultClass) {
  for (const FaultCase& c : ObjectFaultCases()) {
    UpdateValidator v(Config(BadUpdatePolicy::kStrict));
    Status s = ScreenOne(&v, c.tuple);
    EXPECT_FALSE(s.ok()) << c.name;
    EXPECT_EQ(s.code(), c.code) << c.name;
    EXPECT_EQ(v.stats().Rejected(c.reason), 1u) << c.name;
    EXPECT_EQ(v.stats().TotalRejected(), 1u) << c.name;
    EXPECT_EQ(v.quarantine().total(), 1u) << c.name;
    ASSERT_EQ(v.quarantine().Snapshot().size(), 1u) << c.name;
    EXPECT_EQ(v.quarantine().Snapshot()[0].reason, c.reason) << c.name;
  }
}

TEST(UpdateValidatorTest, QuarantineDropsCountsAndSucceeds) {
  for (const FaultCase& c : ObjectFaultCases()) {
    UpdateValidator v(Config(BadUpdatePolicy::kQuarantine));
    std::vector<LocationUpdate> objects{Obj(7), c.tuple, Obj(8)};
    std::vector<QueryUpdate> queries;
    ASSERT_TRUE(v.ScreenBatch(5, &objects, &queries).ok()) << c.name;
    ASSERT_EQ(objects.size(), 2u) << c.name;
    EXPECT_EQ(objects[0].oid, 7u) << c.name;
    EXPECT_EQ(objects[1].oid, 8u) << c.name;
    EXPECT_EQ(v.stats().Rejected(c.reason), 1u) << c.name;
    EXPECT_EQ(v.stats().admitted, 2u) << c.name;
    EXPECT_EQ(v.stats().screened, 3u) << c.name;
  }
}

TEST(UpdateValidatorTest, DuplicateInBatchRejectsSecondOccurrence) {
  UpdateValidator v(Config(BadUpdatePolicy::kQuarantine));
  std::vector<LocationUpdate> objects{Obj(1), Obj(2), Obj(1)};
  std::vector<QueryUpdate> queries{Qry(1)};  // same id, different kind: fine
  ASSERT_TRUE(v.ScreenBatch(5, &objects, &queries).ok());
  EXPECT_EQ(objects.size(), 2u);
  EXPECT_EQ(queries.size(), 1u);
  EXPECT_EQ(v.stats().Rejected(RejectReason::kDuplicateInBatch), 1u);

  // A new batch resets the duplicate window; the same entity is admitted.
  std::vector<LocationUpdate> next{Obj(1, /*time=*/6)};
  std::vector<QueryUpdate> none;
  ASSERT_TRUE(v.ScreenBatch(6, &next, &none).ok());
  EXPECT_EQ(next.size(), 1u);
}

TEST(UpdateValidatorTest, PerEntityRegressionPersistsAcrossBatches) {
  ValidatorConfig config = Config(BadUpdatePolicy::kQuarantine);
  UpdateValidator v(config);
  ASSERT_TRUE(ScreenOne(&v, Obj(1, 9), /*batch_time=*/kNoBatchTime).ok());
  EXPECT_EQ(v.stats().admitted, 1u);
  // Later batch, earlier per-entity stamp: rejected even with no floor.
  Status s = ScreenOne(&v, Obj(1, 4), /*batch_time=*/kNoBatchTime);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(v.stats().Rejected(RejectReason::kTimeRegression), 1u);
  // A first-seen entity with an old stamp needs the batch floor to be caught.
  ASSERT_TRUE(ScreenOne(&v, Obj(2, 1), /*batch_time=*/kNoBatchTime).ok());
  EXPECT_EQ(v.stats().admitted, 2u);
  ASSERT_TRUE(ScreenOne(&v, Obj(3, 1), /*batch_time=*/8).ok());
  EXPECT_EQ(v.stats().Rejected(RejectReason::kTimeRegression), 2u);
}

TEST(UpdateValidatorTest, RepairClampsAndAdmits) {
  UpdateValidator v(Config(BadUpdatePolicy::kRepair));
  LocationUpdate bad_speed = Obj(1);
  bad_speed.speed = -3.0;
  LocationUpdate off_map = Obj(2);
  off_map.position = Point{5000.0, -20.0};
  LocationUpdate stale = Obj(3, /*time=*/1);
  LocationUpdate negative_time = Obj(4);
  negative_time.time = -9;
  std::vector<LocationUpdate> objects{bad_speed, off_map, stale, negative_time};
  std::vector<QueryUpdate> queries;
  ASSERT_TRUE(v.ScreenBatch(5, &objects, &queries).ok());
  ASSERT_EQ(objects.size(), 4u);
  EXPECT_EQ(objects[0].speed, 0.0);
  EXPECT_EQ(objects[1].position.x, 1000.0);
  EXPECT_EQ(objects[1].position.y, 0.0);
  EXPECT_EQ(objects[2].time, 5);
  EXPECT_EQ(objects[3].time, 5);
  EXPECT_EQ(v.stats().repaired, 4u);
  EXPECT_EQ(v.stats().admitted, 4u);
  EXPECT_EQ(v.stats().TotalRejected(), 0u);
}

TEST(UpdateValidatorTest, RepairNeverFabricatesRangesOrCoordinates) {
  UpdateValidator v(Config(BadUpdatePolicy::kRepair));
  QueryUpdate zero_range = Qry(1);
  zero_range.range_width = 0.0;
  QueryUpdate nan_pos = Qry(2);
  nan_pos.position.y = std::numeric_limits<double>::quiet_NaN();
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries{zero_range, nan_pos};
  ASSERT_TRUE(v.ScreenBatch(5, &objects, &queries).ok());
  EXPECT_TRUE(queries.empty());
  EXPECT_EQ(v.stats().Rejected(RejectReason::kBadRange), 1u);
  EXPECT_EQ(v.stats().Rejected(RejectReason::kNonFinite), 1u);
  EXPECT_EQ(v.stats().repaired, 0u);
}

TEST(UpdateValidatorTest, ZeroIdIsAdmitted) {
  // The workload generator numbers entities from 0.
  UpdateValidator v(Config(BadUpdatePolicy::kQuarantine));
  ASSERT_TRUE(ScreenOne(&v, Obj(0)).ok());
  EXPECT_EQ(v.stats().admitted, 1u);
}

TEST(UpdateValidatorTest, BoundsAndNodeChecksAreOptIn) {
  ValidatorConfig config;  // defaults: no bounds, node_count 0
  config.policy = BadUpdatePolicy::kQuarantine;
  UpdateValidator v(config);
  LocationUpdate far = Obj(1);
  far.position = Point{1e9, -1e9};
  LocationUpdate big_dest = Obj(2);
  big_dest.dest_node = 123456;
  std::vector<LocationUpdate> objects{far, big_dest};
  std::vector<QueryUpdate> queries;
  ASSERT_TRUE(v.ScreenBatch(5, &objects, &queries).ok());
  EXPECT_EQ(objects.size(), 2u);  // both admitted: checks disarmed
  // The kInvalidNodeId sentinel is rejected regardless.
  LocationUpdate no_dest = Obj(3);
  no_dest.dest_node = kInvalidNodeId;
  ASSERT_TRUE(ScreenOne(&v, no_dest).ok());
  EXPECT_EQ(v.stats().Rejected(RejectReason::kUnknownDestNode), 1u);
}

TEST(QuarantineLogTest, RingOverwritesOldestAndKeepsTotal) {
  QuarantineLog log(3);
  for (uint32_t i = 0; i < 5; ++i) {
    log.Push(QuarantinedUpdate{EntityKind::kObject, i, 0,
                               RejectReason::kNonFinite, ""});
  }
  EXPECT_EQ(log.total(), 5u);
  EXPECT_EQ(log.size(), 3u);
  std::vector<QuarantinedUpdate> entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].id, 2u);  // oldest retained
  EXPECT_EQ(entries[1].id, 3u);
  EXPECT_EQ(entries[2].id, 4u);
  log.Clear();
  EXPECT_EQ(log.total(), 0u);
  EXPECT_EQ(log.size(), 0u);
}

TEST(UpdateValidatorTest, FormatStatsNamesNonzeroReasons) {
  UpdateValidator v(Config(BadUpdatePolicy::kQuarantine));
  LocationUpdate bad = Obj(1);
  bad.speed = -1.0;
  ASSERT_TRUE(ScreenOne(&v, bad).ok());
  const std::string text = v.FormatStats();
  EXPECT_NE(text.find("bad-speed=1"), std::string::npos) << text;
  EXPECT_EQ(text.find("off-map"), std::string::npos) << text;
}

TEST(UpdateValidatorTest, ResetForgetsHistory) {
  UpdateValidator v(Config(BadUpdatePolicy::kQuarantine));
  ASSERT_TRUE(ScreenOne(&v, Obj(1, 9)).ok());
  v.Reset();
  EXPECT_EQ(v.stats().screened, 0u);
  EXPECT_EQ(v.quarantine().total(), 0u);
  // Per-entity history gone: an older stamp no longer regresses.
  ASSERT_TRUE(ScreenOne(&v, Obj(1, 4), /*batch_time=*/kNoBatchTime).ok());
  EXPECT_EQ(v.stats().admitted, 1u);
}

TEST(UpdateValidatorTest, AdmittedTuplesPassEngineValidation) {
  // The engine knows no drop policy: it fails any batch holding a tuple
  // that fails ValidateUpdate. A non-strict screen must therefore admit only
  // tuples ValidateUpdate accepts, whatever fault class hit them. Each tuple
  // carries at most one fault, so one all-faults stream covers every class
  // on its own.
  const Rect region = Config(BadUpdatePolicy::kQuarantine).bounds;
  const FaultPlan plan = FaultPlan::AllFaults(0.15, region, /*node_count=*/10);
  for (BadUpdatePolicy policy :
       {BadUpdatePolicy::kQuarantine, BadUpdatePolicy::kRepair}) {
    SCOPED_TRACE(std::string(BadUpdatePolicyName(policy)));
    UpdateValidator v(Config(policy));
    FaultInjector injector(plan, /*seed=*/0xADD);
    Rng rng(17);
    for (Timestamp tick = 1; tick <= 24; ++tick) {
      std::vector<LocationUpdate> objects;
      std::vector<QueryUpdate> queries;
      for (uint32_t id = 1; id <= 40; ++id) {
        LocationUpdate o = Obj(id, tick);
        o.position = Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)};
        objects.push_back(o);
        QueryUpdate q = Qry(id, tick);
        q.position = Point{rng.NextDouble(0, 1000), rng.NextDouble(0, 1000)};
        queries.push_back(q);
      }
      injector.CorruptBatch(tick, &objects, &queries, nullptr, nullptr);
      ASSERT_TRUE(v.ScreenBatch(tick, &objects, &queries).ok());
      for (const LocationUpdate& u : objects) {
        EXPECT_TRUE(ValidateUpdate(u).ok()) << u.ToString();
      }
      for (const QueryUpdate& u : queries) {
        EXPECT_TRUE(ValidateUpdate(u).ok()) << u.ToString();
      }
    }
    for (size_t f = 0; f < kFaultClassCount; ++f) {
      EXPECT_GT(injector.stats().injected[f], 0u)
          << FaultClassName(static_cast<FaultClass>(f)) << " never injected";
    }
  }
}

TEST(UpdateValidatorTest, PolicyNamesRoundTrip) {
  for (BadUpdatePolicy p :
       {BadUpdatePolicy::kStrict, BadUpdatePolicy::kQuarantine,
        BadUpdatePolicy::kRepair}) {
    Result<BadUpdatePolicy> parsed =
        ParseBadUpdatePolicy(BadUpdatePolicyName(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, p);
  }
  for (const char* name : {"", "drop", "Strict", "lenient"}) {
    EXPECT_TRUE(ParseBadUpdatePolicy(name).status().IsInvalidArgument())
        << name;
  }
}

}  // namespace
}  // namespace scuba
