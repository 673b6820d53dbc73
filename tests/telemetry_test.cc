// End-to-end telemetry coverage (docs/ARCHITECTURE.md §9): the JSONL round
// stream is schema-valid, counter/gauge content is bit-identical across
// thread counts, and telemetry never perturbs engine results or state. The
// metric content is also identical across join-window counts, and every
// round carries the phase and per-window spans bench_e2e reads.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/scuba_engine.h"
#include "persist/snapshot.h"
#include "shard/shard_durability.h"

namespace scuba {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON checker: validates syntax and extracts the
// top-level object keys. Enough to golden-test the emitter without a JSON
// dependency.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Validate(std::vector<std::string>* top_keys) {
    pos_ = 0;
    SkipWs();
    if (Peek() != '{') return false;
    if (!ParseObject(top_keys)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char Next() { return pos_ < text_.size() ? text_[pos_++] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool ParseValue() {
    SkipWs();
    switch (Peek()) {
      case '{':
        return ParseObject(nullptr);
      case '[':
        return ParseArray();
      case '"':
        return ParseString(nullptr);
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return ParseNumber();
    }
  }

  bool ParseObject(std::vector<std::string>* keys) {
    if (Next() != '{') return false;
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      if (keys != nullptr) keys->push_back(key);
      SkipWs();
      if (Next() != ':') return false;
      if (!ParseValue()) return false;
      SkipWs();
      const char c = Next();
      if (c == '}') return true;
      if (c != ',') return false;
    }
  }

  bool ParseArray() {
    if (Next() != '[') return false;
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!ParseValue()) return false;
      SkipWs();
      const char c = Next();
      if (c == ']') return true;
      if (c != ',') return false;
    }
  }

  bool ParseString(std::string* out) {
    if (Next() != '"') return false;
    while (pos_ < text_.size()) {
      const char c = Next();
      if (c == '"') return true;
      if (c == '\\') {
        const char e = Next();
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(Next()))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
        if (out != nullptr) *out += '?';  // escapes don't matter for keys
      } else if (out != nullptr) {
        *out += c;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) lines.push_back(line);
  return lines;
}

/// Extracts the value of a `"key":<number-or-string>` field from a JSON
/// fragment, or "" if absent. The emitter writes fixed-order objects, so a
/// string scan is exact here.
std::string FieldValue(const std::string& json, const std::string& key,
                       size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) return "";
  size_t start = at + needle.size();
  size_t end = start;
  if (json[start] == '"') {
    end = json.find('"', start + 1);
    return json.substr(start + 1, end - start - 1);
  }
  while (end < json.size() && json[end] != ',' && json[end] != '}' &&
         json[end] != ']') {
    ++end;
  }
  return json.substr(start, end - start);
}

/// All metric entries of one kind from a round line, as "name=..." strings
/// carrying the deterministic fields only.
std::vector<std::string> MetricEntries(const std::string& line,
                                       const std::string& kind) {
  std::vector<std::string> out;
  size_t at = 0;
  while ((at = line.find("{\"name\":\"", at)) != std::string::npos) {
    const size_t end = line.find('}', at);
    const std::string entry = line.substr(at, end - at + 1);
    at = end;
    if (FieldValue(entry, "kind") != kind) continue;
    if (kind == "counter") {
      out.push_back(FieldValue(entry, "name") + " delta=" +
                    FieldValue(entry, "delta") + " total=" +
                    FieldValue(entry, "total"));
    } else if (kind == "gauge") {
      out.push_back(FieldValue(entry, "name") + " value=" +
                    FieldValue(entry, "value"));
    } else {
      out.push_back(FieldValue(entry, "name"));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Deterministic multi-round workload (smaller cousin of the one in
// parallel_ingest_test.cc).
// ---------------------------------------------------------------------------

struct Round {
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
};

std::vector<Round> MakeRounds(uint64_t seed, int rounds) {
  Rng rng(seed);
  const int kGroups = 6;
  struct Entity {
    uint32_t id;
    bool is_query;
    int group;
    Point pos;
  };
  std::vector<Entity> entities;
  for (uint32_t i = 0; i < 90; ++i) {
    const int group = static_cast<int>(rng.NextDouble(0, kGroups));
    Point base{600.0 + 900.0 * group, 600.0 + 700.0 * (group % 3)};
    entities.push_back(Entity{i, (i % 3 == 2), group,
                              {base.x + rng.NextDouble(-50, 50),
                               base.y + rng.NextDouble(-50, 50)}});
  }
  std::vector<Round> out(rounds);
  for (int r = 0; r < rounds; ++r) {
    for (Entity& e : entities) {
      if (rng.NextDouble(0, 1) < 0.2) continue;  // stale this tick
      e.pos = {e.pos.x + rng.NextDouble(-20, 20),
               e.pos.y + rng.NextDouble(-20, 20)};
      if (e.is_query) {
        QueryUpdate u;
        u.qid = e.id;
        u.position = e.pos;
        u.speed = 10.0 + (e.id % 5);
        u.dest_node = static_cast<NodeId>(e.group);
        u.dest_position = Point{9500, 9500};
        u.range_width = 120;
        u.range_height = 120;
        u.time = static_cast<Timestamp>(r + 1);
        out[r].queries.push_back(u);
      } else {
        LocationUpdate u;
        u.oid = e.id;
        u.position = e.pos;
        u.speed = 10.0 + (e.id % 5);
        u.dest_node = static_cast<NodeId>(e.group);
        u.dest_position = Point{9500, 9500};
        u.time = static_cast<Timestamp>(r + 1);
        out[r].objects.push_back(u);
      }
    }
  }
  return out;
}

struct RunResult {
  std::vector<ResultSet> results;
  std::vector<uint64_t> hashes;
};

template <typename Engine = ScubaEngine>
RunResult RunWorkload(const std::vector<Round>& rounds, ScubaOptions opt) {
  std::unique_ptr<Engine> engine = std::move(Engine::Create(opt).value());
  RunResult out;
  Timestamp now = 0;
  for (const Round& round : rounds) {
    now += 2;
    EXPECT_TRUE(engine->IngestBatch(round.objects, round.queries).ok());
    ResultSet results;
    EXPECT_TRUE(engine->Evaluate(now, &results).ok());
    out.results.push_back(std::move(results));
    out.hashes.push_back(EngineStateHash(*engine));
  }
  EXPECT_TRUE(engine->FlushTelemetry().ok());
  return out;
}

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

TEST(TelemetryTest, MetricsAndTraceFilesValidateAgainstSchema) {
  const std::string metrics_path = TmpPath("schema_metrics.jsonl");
  const std::string trace_path = TmpPath("schema_trace.jsonl");
  ScubaOptions opt;
  opt.telemetry.metrics_out = metrics_path;
  opt.telemetry.trace_out = trace_path;
  const int kRounds = 4;
  RunWorkload(MakeRounds(11, kRounds), opt);

  const std::set<std::string> kMetricsKeys = {
      "schema_version", "kind", "round",  "metrics",
      "engine",         "stream", "prometheus"};
  const std::set<std::string> kTraceKeys = {"schema_version", "kind", "round",
                                            "engine", "stream", "spans",
                                            "join"};

  // --- metrics file: meta, one line per round, final exposition ---
  std::vector<std::string> lines = ReadLines(metrics_path);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kRounds) + 2);
  uint64_t expect_round = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> keys;
    ASSERT_TRUE(JsonChecker(lines[i]).Validate(&keys))
        << "metrics line " << i << " is not valid JSON: " << lines[i];
    for (const std::string& k : keys) {
      EXPECT_TRUE(kMetricsKeys.count(k)) << "unknown metrics key: " << k;
    }
    const std::string kind = FieldValue(lines[i], "kind");
    if (i == 0) {
      EXPECT_EQ(kind, "meta");
      EXPECT_EQ(FieldValue(lines[i], "schema_version"), "4");
      EXPECT_EQ(FieldValue(lines[i], "stream"), "metrics");
    } else if (i + 1 == lines.size()) {
      EXPECT_EQ(kind, "exposition");
      EXPECT_NE(FieldValue(lines[i], "prometheus").find("scuba_rounds_total"),
                std::string::npos);
    } else {
      EXPECT_EQ(kind, "round");
      EXPECT_EQ(FieldValue(lines[i], "round"), std::to_string(++expect_round));
      // Every round advances the round counter by exactly one.
      const std::vector<std::string> counters =
          MetricEntries(lines[i], "counter");
      bool saw_rounds = false;
      for (const std::string& c : counters) {
        if (c == "scuba_rounds_total delta=1 total=" +
                     std::to_string(expect_round)) {
          saw_rounds = true;
        }
      }
      EXPECT_TRUE(saw_rounds) << lines[i];
    }
  }

  // --- trace file: meta then one span tree per round ---
  lines = ReadLines(trace_path);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kRounds) + 1);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::vector<std::string> keys;
    ASSERT_TRUE(JsonChecker(lines[i]).Validate(&keys))
        << "trace line " << i << " is not valid JSON: " << lines[i];
    for (const std::string& k : keys) {
      EXPECT_TRUE(kTraceKeys.count(k)) << "unknown trace key: " << k;
    }
    if (i == 0) {
      EXPECT_EQ(FieldValue(lines[i], "stream"), "trace");
      continue;
    }
    EXPECT_EQ(FieldValue(lines[i], "kind"), "round");
    // The root span is first and named "round"; the engine phases hang off it.
    EXPECT_EQ(FieldValue(lines[i], "name"), "round");
    for (const char* phase : {"ingest", "join", "postjoin"}) {
      EXPECT_NE(lines[i].find("\"name\":\"" + std::string(phase) + "\""),
                std::string::npos)
          << "round " << i << " missing phase " << phase << ": " << lines[i];
    }
    // Wall times are finite, non-negative numbers (JsonDouble already clamps
    // non-finite, so presence of a parseable value is the check; negativity
    // would print a leading '-').
    size_t at = 0;
    while ((at = lines[i].find("\"wall_seconds\":", at)) != std::string::npos) {
      at += 15;
      EXPECT_NE(lines[i][at], '-') << lines[i];
    }
  }
}

/// The SCUBA engine (a typed suite, so a second engine type can join it).
template <typename Engine>
class EngineTelemetryTest : public ::testing::Test {};
using Engines = ::testing::Types<ScubaEngine>;
TYPED_TEST_SUITE(EngineTelemetryTest, Engines);

TYPED_TEST(EngineTelemetryTest, CountersAndGaugesBitIdenticalAcrossThreads) {
  const std::vector<Round> rounds = MakeRounds(23, 5);
  const std::string tag =
      ::testing::UnitTest::GetInstance()->current_test_info()->type_param();
  std::vector<std::vector<std::string>> per_thread_rounds;
  for (uint32_t threads : {1u, 4u}) {
    const std::string path = TmpPath("determinism_" + tag + "_" +
                                     std::to_string(threads) + ".jsonl");
    ScubaOptions opt;
    opt.ingest_threads = threads;
    opt.join_threads = threads;
    opt.telemetry.metrics_out = path;
    RunWorkload<TypeParam>(rounds, opt);

    std::vector<std::string> round_payloads;
    for (const std::string& line : ReadLines(path)) {
      if (FieldValue(line, "kind") != "round") continue;
      // Deterministic content only: counters (name, delta, total) and gauges
      // (name, value). Histogram deltas are timings — scheduling-dependent by
      // design — and are excluded.
      std::string payload = "round=" + FieldValue(line, "round");
      for (const std::string& c : MetricEntries(line, "counter")) {
        payload += "\n  " + c;
      }
      for (const std::string& g : MetricEntries(line, "gauge")) {
        payload += "\n  " + g;
      }
      round_payloads.push_back(payload);
    }
    EXPECT_EQ(round_payloads.size(), rounds.size());
    per_thread_rounds.push_back(std::move(round_payloads));
  }
  ASSERT_EQ(per_thread_rounds.size(), 2u);
  for (size_t r = 0; r < per_thread_rounds[0].size(); ++r) {
    EXPECT_EQ(per_thread_rounds[0][r], per_thread_rounds[1][r])
        << "metric content diverged between 1 and 4 threads at round " << r;
  }
}

TYPED_TEST(EngineTelemetryTest, TelemetryDoesNotPerturbResultsOrState) {
  const std::vector<Round> rounds = MakeRounds(31, 4);
  const std::string tag =
      ::testing::UnitTest::GetInstance()->current_test_info()->type_param();
  ScubaOptions off;
  off.join_threads = 2;
  off.ingest_threads = 2;
  ScubaOptions on = off;
  on.telemetry.enabled = true;  // collect-only: no files
  ScubaOptions files = off;
  files.telemetry.metrics_out = TmpPath("perturb_metrics_" + tag + ".jsonl");
  files.telemetry.trace_out = TmpPath("perturb_trace_" + tag + ".jsonl");

  const RunResult base = RunWorkload<TypeParam>(rounds, off);
  for (const ScubaOptions& opt : {on, files}) {
    const RunResult instrumented = RunWorkload<TypeParam>(rounds, opt);
    ASSERT_EQ(instrumented.results.size(), base.results.size());
    for (size_t r = 0; r < base.results.size(); ++r) {
      EXPECT_EQ(instrumented.results[r], base.results[r]) << "round " << r;
      EXPECT_EQ(instrumented.hashes[r], base.hashes[r]) << "round " << r;
    }
  }
}

/// name -> "kind total" for every counter and histogram a metrics file
/// reports, as of the last round line naming it.
std::map<std::string, std::string> FinalCounters(const std::string& path) {
  std::map<std::string, std::string> out;
  for (const std::string& line : ReadLines(path)) {
    if (FieldValue(line, "kind") != "round") continue;
    for (const char* kind : {"counter", "histogram"}) {
      size_t at = 0;
      while ((at = line.find("{\"name\":\"", at)) != std::string::npos) {
        const size_t end = line.find('}', at);
        const std::string entry = line.substr(at, end - at + 1);
        at = end;
        if (FieldValue(entry, "kind") != kind) continue;
        out[FieldValue(entry, "name")] =
            std::string(kind) + " " + FieldValue(entry, "total");
      }
    }
  }
  return out;
}

TEST(TelemetryTest, MetricsMatchAcrossWindowCountsAndSpansArePresent) {
  const std::vector<Round> rounds = MakeRounds(59, 4);
  ScubaOptions one;
  one.telemetry.metrics_out = TmpPath("windows_one_metrics.jsonl");
  one.telemetry.trace_out = TmpPath("windows_one_trace.jsonl");
  ScubaOptions four = one;
  four.shards = 4;
  four.shedding.mode = LoadSheddingMode::kAdaptive;
  four.shedding.memory_budget_bytes = 1;  // over budget from round one
  one.shedding = four.shedding;
  four.telemetry.metrics_out = TmpPath("windows_four_metrics.jsonl");
  four.telemetry.trace_out = TmpPath("windows_four_trace.jsonl");
  RunWorkload(rounds, one);
  RunWorkload(rounds, four);

  // Every counter carries the same total at one and four windows, and the
  // one shedder's metrics with it.
  const std::map<std::string, std::string> want =
      FinalCounters(one.telemetry.metrics_out);
  const std::map<std::string, std::string> got =
      FinalCounters(four.telemetry.metrics_out);
  ASSERT_FALSE(want.empty());
  ASSERT_TRUE(want.count("scuba_shed_adjustments_total"));
  for (const auto& [name, value] : want) {
    auto it = got.find(name);
    ASSERT_NE(it, got.end()) << "four windows lack " << name;
    if (value.rfind("counter", 0) == 0) {
      EXPECT_EQ(it->second, value) << name;
    }
  }

  // The phase sub-spans and one engine_shard span per window, every round.
  const std::vector<std::string> lines = ReadLines(four.telemetry.trace_out);
  ASSERT_EQ(lines.size(), rounds.size() + 1);
  for (size_t i = 1; i < lines.size(); ++i) {
    for (const char* span : {"ingest", "between", "within", "tighten", "shed",
                             "expire", "translate"}) {
      EXPECT_NE(lines[i].find("\"name\":\"" + std::string(span) + "\""),
                std::string::npos)
          << "round " << i << " missing span " << span << ": " << lines[i];
    }
    for (int w = 0; w < 4; ++w) {
      EXPECT_NE(lines[i].find("\"name\":\"engine_shard\",\"parent\""),
                std::string::npos)
          << lines[i];
      EXPECT_NE(lines[i].find("\"index\":" + std::to_string(w)),
                std::string::npos)
          << "round " << i << " missing window " << w << ": " << lines[i];
    }
  }
}

TEST(TelemetryTest, ShedderMetricsFollowTheSnapshotShedderAtFourWindows) {
  // One shedder at any window count: the scuba_shed_* metrics report the
  // one StatsSnapshot() does.
  ScubaOptions opt;
  opt.shards = 4;
  opt.shedding.mode = LoadSheddingMode::kAdaptive;
  opt.shedding.memory_budget_bytes = 1;  // always over budget
  opt.telemetry.metrics_out = TmpPath("shed_four_windows_metrics.jsonl");
  std::unique_ptr<ScubaEngine> engine =
      std::move(ScubaEngine::Create(opt).value());
  Timestamp now = 0;
  for (const Round& round : MakeRounds(67, 6)) {
    now += 2;
    ASSERT_TRUE(engine->IngestBatch(round.objects, round.queries).ok());
    ResultSet results;
    ASSERT_TRUE(engine->Evaluate(now, &results).ok());
  }
  ASSERT_TRUE(engine->FlushTelemetry().ok());
  const ShedderSnapshotStats shed = engine->StatsSnapshot().shedder;
  ASSERT_GT(shed.adjustments, 0u);

  std::string adjustments;
  std::string eta;
  for (const std::string& line : ReadLines(opt.telemetry.metrics_out)) {
    if (FieldValue(line, "kind") != "round") continue;
    for (const std::string& c : MetricEntries(line, "counter")) {
      if (c.rfind("scuba_shed_adjustments_total ", 0) == 0) {
        adjustments = c.substr(c.find(" total=") + 7);
      }
    }
    for (const std::string& g : MetricEntries(line, "gauge")) {
      if (g.rfind("scuba_shed_eta ", 0) == 0) {
        eta = g.substr(g.find(" value=") + 7);
      }
    }
  }
  EXPECT_EQ(adjustments, std::to_string(shed.adjustments));
  ASSERT_FALSE(eta.empty());
  EXPECT_DOUBLE_EQ(std::stod(eta), shed.eta);
}

TEST(TelemetryTest, DurabilitySinkEmitsCheckpointSpans) {
  // The engine's durability sink times every WAL append and
  // checkpoint into the round's checkpoint.{wal,snapshot} spans.
  const std::string dir = TmpPath("checkpoint_spans.d");
  std::filesystem::remove_all(dir);
  ScubaOptions opt;
  opt.telemetry.trace_out = TmpPath("checkpoint_spans_trace.jsonl");
  opt.checkpoint.every_n_rounds = 1;
  std::unique_ptr<ScubaEngine> engine =
      std::move(ScubaEngine::Create(opt).value());
  Result<std::unique_ptr<ShardedDurabilityManager>> manager =
      ShardedDurabilityManager::Open(dir, opt.checkpoint, engine.get(),
                                     /*validator=*/nullptr, /*rng=*/nullptr,
                                     /*crash=*/nullptr);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  const std::vector<Round> rounds = MakeRounds(61, 3);
  Timestamp now = 0;
  for (const Round& round : rounds) {
    now += 2;
    ASSERT_TRUE(
        (*manager)->LogBatch(now, true, round.objects, round.queries).ok());
    ASSERT_TRUE(engine->IngestBatch(round.objects, round.queries).ok());
    ResultSet results;
    ASSERT_TRUE(engine->Evaluate(now, &results).ok());
    ASSERT_TRUE((*manager)->OnRoundComplete().ok());
  }
  ASSERT_TRUE(engine->FlushTelemetry().ok());

  const std::vector<std::string> lines = ReadLines(opt.telemetry.trace_out);
  ASSERT_EQ(lines.size(), rounds.size() + 1);
  for (size_t i = 1; i < lines.size(); ++i) {
    for (const char* span : {"checkpoint", "wal", "snapshot"}) {
      EXPECT_NE(lines[i].find("\"name\":\"" + std::string(span) + "\""),
                std::string::npos)
          << "round " << i << " missing span " << span << ": " << lines[i];
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(TelemetryTest, ProgrammaticAccessAndCheckpointSpansExist) {
  // Collect-only mode: metrics available through ScubaEngine::telemetry()
  // without any output file.
  ScubaOptions opt;
  opt.telemetry.enabled = true;
  std::unique_ptr<ScubaEngine> engine =
      std::move(ScubaEngine::Create(opt).value());
  ASSERT_NE(engine->telemetry(), nullptr);
  const std::vector<Round> rounds = MakeRounds(47, 2);
  Timestamp now = 0;
  for (const Round& round : rounds) {
    now += 2;
    ASSERT_TRUE(engine->IngestBatch(round.objects, round.queries).ok());
    ResultSet results;
    ASSERT_TRUE(engine->Evaluate(now, &results).ok());
  }
  uint64_t rounds_total = 0;
  uint64_t results_total = 0;
  // The current (second) round has not flushed yet; force it.
  ASSERT_TRUE(engine->FlushTelemetry().ok());
  for (const MetricSnapshot& m : engine->telemetry()->registry().Snapshot()) {
    if (m.name == "scuba_rounds_total") rounds_total = m.counter;
    if (m.name == "scuba_results_total") results_total = m.counter;
  }
  EXPECT_EQ(rounds_total, rounds.size());
  EXPECT_GT(results_total, 0u);
}

TEST(TelemetryTest, OpenFailureSurfacesAtCreate) {
  ScubaOptions opt;
  opt.telemetry.metrics_out = "/nonexistent-dir/metrics.jsonl";
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  EXPECT_FALSE(engine.ok());
}

}  // namespace
}  // namespace scuba
