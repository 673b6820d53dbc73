// bench_e2e: end-to-end and per-layer measurement of the served SCUBA round.
//
// One process runs one or all of four named workloads (--list, README.md).
// Each workload is a closed loop in this thread: a driver session sends a
// round's two tick batches (Delta = 2) through serve::ScubaClient to an
// in-process loopback serve::ScubaServer, and up to three subscriber sessions
// fold the pushed deltas. The offline workload calls the QueryProcessor
// directly instead. A round is timed from handing its first batch to the
// client until the last subscriber has folded it; both ticks are generated
// from the seeded simulator before that clock starts.
//
// Per-layer numbers come from a separate traced run (--trace OUT.jsonl). The
// bench wraps the engine (QueryProcessor) and the durability sink
// (DurabilitySink) in forwarding decorators that time every call, turns on the
// engine's own telemetry span tree, and reads the server's metrics registry
// and the validator's counters. Nothing inside the library is instrumented
// for the bench.
//
// Correctness gate (exit status 1 on any failure): every round, each
// subscriber's folded answer must equal the engine's Evaluate output filtered
// to its query slice; once per workload an offline twin replays the first rep
// and must reproduce every round's digest and the final EngineStateHash; on
// the 100%-update-rate workloads the naive nested-loop oracle must agree at
// three sampled rounds.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/naive_join_engine.h"
#include "common/check.h"
#include "common/histogram.h"
#include "common/serializer.h"
#include "common/stopwatch.h"
#include "core/scuba_options.h"
#include "eval/experiment.h"
#include "gen/workload_generator.h"
#include "network/grid_city.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/engine_factory.h"
#include "stream/update_validator.h"

namespace scuba::bench {
namespace {

using Clock = std::chrono::steady_clock;
using serve::ScubaClient;
using serve::ScubaServer;
using serve::UpdateBatchMsg;

constexpr int kTicksPerRound = 2;  // Delta
constexpr uint64_t kWarmupRounds = 5;
/// The deterministic counters are taken over exactly this many first
/// measured rounds.
constexpr uint64_t kCounterRounds = 20;
/// Every rep measures at least this many rounds, so round_latency_p80_ms has
/// at least ten samples beyond it.
constexpr uint64_t kMinRounds = 50;
constexpr int kNaiveSamples = 3;
constexpr double kMiB = 1024.0 * 1024.0;

const Clock::time_point kEpoch = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

// ---------------------------------------------------------------------------
// Workloads

/// A subscriber's query slice: qid % mod == rem (mod 1 = SubscribeAll).
struct Slice {
  uint32_t mod = 1;
  uint32_t rem = 0;
  bool Contains(QueryId qid) const { return qid % mod == rem; }
};

struct Workload {
  std::string name;
  std::string why;
  uint32_t objects = 0;
  uint32_t queries = 0;
  uint32_t skew = 100;
  double update_fraction = 1.0;
  uint32_t shards = 1;
  uint32_t threads = 1;  ///< join_threads and ingest_threads.
  /// Measured rounds per second of --seconds, over all untraced reps. Each
  /// rep times the same fixed number of rounds, because per-round cost keeps
  /// climbing as the engine ages; the rates make a run's untraced reps last
  /// about --seconds on a 4-core x86 VM.
  double rounds_per_second = 10.0;
  /// WAL fsync per batch, checkpoint every 5 rounds (keep 2), and a
  /// kQuarantine validator screening every batch.
  bool durable = false;
  /// Empty: the offline workload, which calls the engine without a server.
  std::vector<Slice> subscribers;

  bool served() const { return !subscribers.empty(); }
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper-offline",
       "paper 6.1 setting (10k objects + 10k queries, skew 100) with no "
       "server or WAL: only cluster/index/core work, so a "
       "serve/persist/shard change must not move it",
       10000, 10000, 100, 1.0, 1, 1, 16.5, false, {}},
      {"paper-serve",
       "same inputs through the loopback server with 3 subscribers (all, "
       "even, odd qids): serving about doubles the round, so serve is the "
       "largest layer after core",
       10000, 10000, 100, 1.0, 1, 1, 7.5, false,
       {{1, 0}, {2, 0}, {2, 1}}},
      {"durable-partial",
       "5k + 5k at a 25% update rate with WAL fsync per batch, checkpoints "
       "every 5 rounds and a quarantine screen: persist and stream sit on "
       "the round's path",
       5000, 5000, 100, 0.25, 1, 1, 42.0, true, {{1, 0}}},
      {"sharded-skew10",
       "5k + 5k at skew 10 on 4 shards with 2 threads: many small clusters "
       "load shard coordination (serial ingest, ghosts, handoffs) and "
       "join-between",
       5000, 5000, 10, 1.0, 4, 2, 10.5, false, {{16, 0}}},
  };
  return kWorkloads;
}

// ---------------------------------------------------------------------------
// Flags

struct Args {
  std::string workload = "all";
  uint64_t seed = 1;
  int reps = 3;
  double seconds = 10.0;  ///< Sizes the measured rounds per workload.
  double scale = 1.0;     ///< Multiplies object and query counts.
  std::string trace_out;  ///< Non-empty: traced run, spans written here.
  std::string json_out;
  std::string work_dir = "bench_e2e.work";  ///< Durable directories.
  bool list = false;
};

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e [--workload NAME|all] [--seed N] [--reps N]\n"
               "                 [--seconds S] [--scale F] [--trace OUT.jsonl]\n"
               "                 [--json OUT] [--work-dir DIR] [--list]\n",
               error);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      args.list = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--reps") {
      args.reps = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--scale") {
      args.scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace_out = value;
    } else if (flag == "--json") {
      args.json_out = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      Usage(("bad number for " + flag + ": " + value).c_str());
    }
  }
  if (args.reps < 1 || args.reps > 100) Usage("--reps must be in [1, 100]");
  if (!(args.seconds > 0.0) || args.seconds > 3600.0) {
    Usage("--seconds must be in (0, 3600]");
  }
  if (!(args.scale > 0.0) || args.scale > 10.0) {
    Usage("--scale must be in (0, 10]");
  }
  return args;
}

// ---------------------------------------------------------------------------
// Inputs: the seeded city and simulator. Only these generated batches reach
// the program.

struct Inputs {
  std::unique_ptr<RoadNetwork> network;
  Rect region;
  uint32_t objects = 0;
  uint32_t queries = 0;
  /// Every pass over a workload (each rep and the twin) copies this.
  std::unique_ptr<ObjectSimulator> pristine;
};

uint32_t Scaled(uint32_t n, double scale) {
  return std::max<uint32_t>(1, static_cast<uint32_t>(n * scale + 0.5));
}

Inputs BuildInputs(const Workload& w, uint64_t seed, double scale) {
  GridCityOptions city;  // 21 x 21 nodes, 500-unit blocks
  city.seed = seed;
  Result<RoadNetwork> network = GenerateGridCity(city);
  SCUBA_CHECK_MSG(network.ok(), network.status().ToString().c_str());
  Inputs in;
  in.network = std::make_unique<RoadNetwork>(std::move(network).value());
  in.region = DataRegion(*in.network);
  in.objects = Scaled(w.objects, scale);
  in.queries = Scaled(w.queries, scale);
  WorkloadOptions options;
  options.num_objects = in.objects;
  options.num_queries = in.queries;
  options.skew = w.skew;
  options.seed = seed;
  Result<ObjectSimulator> sim = GenerateWorkload(in.network.get(), options);
  SCUBA_CHECK_MSG(sim.ok(), sim.status().ToString().c_str());
  in.pristine = std::make_unique<ObjectSimulator>(std::move(sim).value());
  return in;
}

/// Steps a copy of the pristine simulator one tick per batch.
class TickSource {
 public:
  TickSource(const ObjectSimulator& pristine, double update_fraction)
      : sim_(pristine), update_fraction_(update_fraction) {}

  /// Fills one round: kTicksPerRound batches, the last one evaluating.
  void NextRound(std::vector<UpdateBatchMsg>* batches) {
    batches->resize(kTicksPerRound);
    for (int i = 0; i < kTicksPerRound; ++i) {
      UpdateBatchMsg& batch = (*batches)[static_cast<size_t>(i)];
      sim_.Step();
      batch.time = sim_.now();
      batch.evaluate = i + 1 == kTicksPerRound;
      batch.objects.clear();
      batch.queries.clear();
      sim_.EmitUpdates(update_fraction_, &batch.objects, &batch.queries);
    }
  }

 private:
  ObjectSimulator sim_;
  double update_fraction_;
};

ScubaOptions EngineOptions(const Workload& w, const Inputs& in, bool traced) {
  ScubaOptions opt;
  opt.region = in.region;
  opt.delta = kTicksPerRound;
  opt.shards = w.shards;
  opt.join_threads = w.threads;
  opt.ingest_threads = w.threads;
  if (w.durable) {
    opt.checkpoint.every_n_rounds = 5;
    opt.checkpoint.keep_last_k = 2;
  }
  opt.telemetry.enabled = traced;
  return opt;
}

ValidatorConfig ScreenConfig(const Inputs& in) {
  ValidatorConfig config;
  config.policy = BadUpdatePolicy::kQuarantine;
  config.node_count = in.network->NodeCount();
  return config;
}

uint64_t Digest(const ResultSet& results) {
  const std::vector<Match>& m = results.matches();
  return Fnv1a64(std::string_view(reinterpret_cast<const char*>(m.data()),
                                  m.size() * sizeof(Match)));
}

ResultSet Filter(const ResultSet& global, const Slice& slice) {
  if (slice.mod == 1) return global;
  ResultSet out;
  for (const Match& m : global.matches()) {
    if (slice.Contains(m.qid)) out.Add(m.qid, m.oid);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Decorators: time each call into the engine and the durability sink from
// outside, through the public interfaces the server already takes.

/// One bench-side span: a timed call into a layer, keyed by round.
struct BenchSpan {
  const char* name;
  int32_t index;
  uint64_t round;
  int64_t start_ns;
  int64_t end_ns;
};

/// What the decorators record for one round besides their spans.
struct RoundRecord {
  /// Batches ingested and logged so far: the index of the next such span.
  int32_t ingested = 0;
  int32_t logged = 0;
  /// Engine counters after the round (durability counters included).
  EngineSnapshotStats stats;
  uint64_t handoffs = 0;
  uint64_t ghosts = 0;
  /// The engine's telemetry span tree for the round; traced runs only.
  std::vector<SpanRecord> engine_tree;
};

/// State shared by the decorators (server thread) and the bench thread.
/// Every mutable member is guarded by `mu`.
class Probe {
 public:
  Probe(EngineHandle* engine, bool traced, bool capture_results)
      : engine_(engine), traced_(traced), capture_results_(capture_results) {}

  bool traced() const { return traced_; }
  bool capture_results() const { return capture_results_; }

  /// The record of `round` (1-based), created on first use.
  RoundRecord& At(uint64_t round) {
    if (rounds.size() < round) rounds.resize(round);
    return rounds[round - 1];
  }

  /// Copies the engine's counters (and, traced, its span tree) into `r`.
  void CaptureEngine(RoundRecord* r) {
    EngineTelemetry* telemetry = nullptr;
    if (engine_->sharded != nullptr) {
      r->stats = engine_->sharded->StatsSnapshot();
      r->handoffs = engine_->sharded->handoffs();
      r->ghosts = engine_->sharded->ghosts_published();
      telemetry = engine_->sharded->telemetry();
    } else {
      r->stats = engine_->scuba->StatsSnapshot();
      telemetry = engine_->scuba->telemetry();
    }
    if (traced_ && telemetry != nullptr) {
      r->engine_tree = telemetry->trace().spans();
    }
  }

  std::mutex mu;
  uint64_t evaluations = 0;
  std::vector<RoundRecord> rounds;
  std::vector<BenchSpan> spans;
  ResultSet last_results;
  size_t mem_peak = 0;

 private:
  EngineHandle* engine_;
  const bool traced_;
  const bool capture_results_;
};

/// Forwards every QueryProcessor call to the real engine and records into the
/// probe: call spans (traced runs), the engine's counters and span tree after
/// each round, the memory peak, and (serve workloads) a copy of each round's
/// answer for the subscriber check.
class TimedEngine final : public QueryProcessor {
 public:
  TimedEngine(QueryProcessor* inner, Probe* probe)
      : inner_(inner), probe_(probe) {}

  std::string_view name() const override { return inner_->name(); }
  Status IngestObjectUpdate(const LocationUpdate& update) override {
    return inner_->IngestObjectUpdate(update);
  }
  Status IngestQueryUpdate(const QueryUpdate& update) override {
    return inner_->IngestQueryUpdate(update);
  }

  Status IngestBatch(std::span<const LocationUpdate> objects,
                     std::span<const QueryUpdate> queries) override {
    const int64_t start = probe_->traced() ? NowNs() : 0;
    Status s = inner_->IngestBatch(objects, queries);
    if (probe_->traced()) {
      const int64_t end = NowNs();
      std::lock_guard<std::mutex> lock(probe_->mu);
      const uint64_t round = probe_->evaluations + 1;
      probe_->spans.push_back(BenchSpan{
          "engine.ingest", probe_->At(round).ingested++, round, start, end});
    }
    return s;
  }

  Status Evaluate(Timestamp now, ResultSet* results) override {
    const int64_t start = probe_->traced() ? NowNs() : 0;
    Status s = inner_->Evaluate(now, results);
    const int64_t end = probe_->traced() ? NowNs() : 0;
    std::lock_guard<std::mutex> lock(probe_->mu);
    const uint64_t round = ++probe_->evaluations;
    RoundRecord& r = probe_->At(round);
    if (probe_->traced()) {
      probe_->spans.push_back(
          BenchSpan{"engine.evaluate", -1, round, start, end});
    }
    probe_->CaptureEngine(&r);
    if (probe_->capture_results()) probe_->last_results = *results;
    return s;
  }

  size_t EstimateMemoryUsage() const override {
    const size_t bytes = inner_->EstimateMemoryUsage();
    std::lock_guard<std::mutex> lock(probe_->mu);
    probe_->mem_peak = std::max(probe_->mem_peak, bytes);
    return bytes;
  }

  const EvalStats& stats() const override { return inner_->stats(); }

 private:
  QueryProcessor* inner_;
  Probe* probe_;
};

/// Forwards the DurabilitySink calls and times them; after each completed
/// round it re-captures the engine's counters so checkpoint counts and
/// snapshot spans land in that round's record.
class TimedSink final : public DurabilitySink {
 public:
  TimedSink(DurabilitySink* inner, Probe* probe)
      : inner_(inner), probe_(probe) {}

  Status LogBatch(Timestamp batch_time, bool evaluate_after,
                  std::span<const LocationUpdate> objects,
                  std::span<const QueryUpdate> queries) override {
    const int64_t start = probe_->traced() ? NowNs() : 0;
    Status s = inner_->LogBatch(batch_time, evaluate_after, objects, queries);
    if (probe_->traced()) {
      const int64_t end = NowNs();
      std::lock_guard<std::mutex> lock(probe_->mu);
      const uint64_t round = probe_->evaluations + 1;
      probe_->spans.push_back(BenchSpan{
          "persist.log", probe_->At(round).logged++, round, start, end});
    }
    return s;
  }

  Status OnRoundComplete() override {
    const int64_t start = probe_->traced() ? NowNs() : 0;
    Status s = inner_->OnRoundComplete();
    const int64_t end = probe_->traced() ? NowNs() : 0;
    std::lock_guard<std::mutex> lock(probe_->mu);
    const uint64_t round = probe_->evaluations;
    if (probe_->traced()) {
      probe_->spans.push_back(
          BenchSpan{"persist.round_complete", -1, round, start, end});
    }
    probe_->CaptureEngine(&probe_->At(round));
    return s;
  }

 private:
  DurabilitySink* inner_;
  Probe* probe_;
};

// ---------------------------------------------------------------------------
// Serve-layer counters from the server's metrics registry.

struct ServeCounters {
  uint64_t delta_bytes = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t deltas = 0;
  uint64_t coalesces = 0;
  uint64_t disconnects = 0;
  uint64_t errors = 0;
  std::vector<double> latency_bounds;
  std::vector<uint64_t> latency_buckets;
  double latency_sum = 0.0;
  /// Metrics the bench reads that the registry does not hold. A rep fails on
  /// any, so a renamed metric cannot read as 0 and pass the error gate.
  std::vector<std::string> missing;
};

ServeCounters ReadServe(const MetricsRegistry& registry) {
  ServeCounters c;
  std::map<std::string, uint64_t*> counters = {
      {"scuba_serve_delta_bytes_total", &c.delta_bytes},
      {"scuba_serve_snapshot_bytes_total", &c.snapshot_bytes},
      {"scuba_serve_deltas_pushed_total", &c.deltas},
      {"scuba_serve_coalesces_total", &c.coalesces},
      {"scuba_serve_disconnects_total", &c.disconnects},
      {"scuba_serve_errors_total", &c.errors},
  };
  bool latency = false;
  for (const MetricSnapshot& m : registry.Snapshot()) {
    if (auto it = counters.find(m.name); it != counters.end()) {
      *it->second = m.counter;
      counters.erase(it);
    } else if (m.name == "scuba_serve_push_latency_ms") {
      c.latency_bounds = m.histogram.bucket_bounds();
      c.latency_buckets = m.histogram.bucket_counts();
      c.latency_sum = m.histogram.sum();
      latency = true;
    }
  }
  for (const auto& entry : counters) c.missing.push_back(entry.first);
  if (!latency) c.missing.push_back("scuba_serve_push_latency_ms");
  return c;
}

/// `end - start` for every counter; the push-latency histogram is rebuilt
/// from the bucket differences.
ServeCounters Minus(const ServeCounters& end, const ServeCounters& start) {
  ServeCounters d;
  d.delta_bytes = end.delta_bytes - start.delta_bytes;
  d.snapshot_bytes = end.snapshot_bytes - start.snapshot_bytes;
  d.deltas = end.deltas - start.deltas;
  d.coalesces = end.coalesces - start.coalesces;
  d.disconnects = end.disconnects - start.disconnects;
  d.errors = end.errors - start.errors;
  d.latency_bounds = end.latency_bounds;
  d.latency_buckets = end.latency_buckets;
  for (size_t i = 0; i < start.latency_buckets.size() &&
                     i < d.latency_buckets.size();
       ++i) {
    d.latency_buckets[i] -= start.latency_buckets[i];
  }
  d.latency_sum = end.latency_sum - start.latency_sum;
  return d;
}

// ---------------------------------------------------------------------------
// One rep: set up, warm up, measure a fixed number of rounds, tear
// down.

struct RoundTiming {
  uint64_t round = 0;
  int64_t start_ns = 0;
  int64_t ack_ns = 0;  ///< Driver ack (offline: Evaluate returned).
  int64_t end_ns = 0;  ///< Last subscriber folded.
};

struct RepOutcome {
  bool traced = false;
  int index = 0;
  double setup_s = 0.0;
  double gen_s = 0.0;  ///< Tick generation over every round of the rep.
  uint64_t total_rounds = 0;
  std::vector<RoundTiming> measured;
  uint64_t updates = 0;  ///< Location + query updates in measured rounds.
  size_t mem_peak = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<uint64_t> digests;  ///< Every round, warm-up included.
  uint64_t state_hash = 0;
  std::vector<RoundRecord> records;
  std::vector<BenchSpan> spans;
  double wire_bytes_per_round = 0.0;  ///< Per subscriber, counter prefix.
  ServeCounters serve;                ///< Measured rounds only.
  ValidatorStats screen;
};

class Rep {
 public:
  Rep(const Workload& w, const Inputs& in, const Args& args, bool traced,
      int index)
      : w_(w),
        in_(in),
        opt_(EngineOptions(w, in, traced)),
        ticks_(*in.pristine, w.update_fraction),
        dir_(std::filesystem::path(args.work_dir) /
             (w.name + "-" + std::to_string(index))) {
    out_.traced = traced;
    out_.index = index;
  }

  /// Warms up, then measures exactly `rounds` rounds.
  RepOutcome Run(uint64_t rounds) {
    Stopwatch setup;
    Setup();
    uint64_t k = 0;
    while (k < kWarmupRounds && out_.errors.empty()) Round(++k, false);
    out_.setup_s = setup.ElapsedSeconds() - out_.gen_s;
    if (!out_.errors.empty()) return Finish();
    {
      std::lock_guard<std::mutex> lock(probe_->mu);
      probe_->mem_peak = 0;
    }
    const ServeCounters serve_start =
        server_ != nullptr ? ReadServe(server_->registry()) : ServeCounters{};
    for (const std::string& name : serve_start.missing) {
      Fail("server registry has no metric " + name);
    }
    const std::vector<uint64_t> wire_start = WireBytes();
    while (out_.errors.empty() && out_.measured.size() < rounds) {
      Round(++k, true);
      if (out_.measured.size() == kCounterRounds) {
        const std::vector<uint64_t> wire = WireBytes();
        double sum = 0.0;
        for (size_t s = 0; s < wire.size(); ++s) {
          sum += static_cast<double>(wire[s] - wire_start[s]);
        }
        if (!wire.empty()) {
          out_.wire_bytes_per_round =
              sum / static_cast<double>(wire.size() * kCounterRounds);
        }
      }
    }
    if (server_ != nullptr) {
      // Read before teardown: the shutdown farewell is an error frame.
      const ServeCounters end = ReadServe(server_->registry());
      out_.serve = Minus(end, serve_start);
      if (end.errors + end.disconnects > 0) {
        Fail(std::to_string(end.errors) + " error frames and " +
                 std::to_string(end.disconnects) + " disconnects",
             end.errors + end.disconnects);
      }
    }
    return Finish();
  }

 private:
  void Fail(std::string message, uint64_t failures = 1) {
    out_.failed += failures;
    out_.errors.push_back(w_.name + " rep " + std::to_string(out_.index) +
                          ": " + std::move(message));
  }

  void Setup() {
    Result<EngineHandle> handle = MakeEngine(opt_);
    SCUBA_CHECK_MSG(handle.ok(), handle.status().ToString().c_str());
    handle_ = std::move(handle).value();
    probe_ = std::make_unique<Probe>(&handle_, out_.traced, w_.served());
    engine_ = std::make_unique<TimedEngine>(handle_.engine.get(), probe_.get());
    if (w_.durable) {
      const ValidatorConfig config = ScreenConfig(in_);
      screen_.emplace(config);
      std::filesystem::remove_all(dir_);
      Result<DurabilityHandle> durability =
          OpenDurability(dir_.string(), opt_, &handle_, &*screen_, config);
      SCUBA_CHECK_MSG(durability.ok(),
                      durability.status().ToString().c_str());
      durability_ = std::move(durability).value();
      sink_ = std::make_unique<TimedSink>(durability_.sink.get(), probe_.get());
    }
    if (!w_.served()) return;
    serve::ServerDeps deps;
    deps.engine = engine_.get();
    deps.screen = screen_ ? &*screen_ : nullptr;
    deps.durability = sink_.get();
    Result<std::unique_ptr<ScubaServer>> server =
        ScubaServer::Create(serve::ServeOptions{}, deps);
    SCUBA_CHECK_MSG(server.ok(), server.status().ToString().c_str());
    server_ = std::move(server).value();
    SCUBA_CHECK(server_->Start().ok());
    driver_.emplace(Connect("driver"));
    for (size_t s = 0; s < w_.subscribers.size(); ++s) {
      subs_.push_back(Connect("sub-" + std::to_string(s)));
      const Slice& slice = w_.subscribers[s];
      Status st;
      if (slice.mod == 1) {
        st = subs_.back().SubscribeAll();
      } else {
        std::vector<QueryId> qids;
        for (QueryId q = 0; q < in_.queries; ++q) {
          if (slice.Contains(q)) qids.push_back(q);
        }
        st = subs_.back().Subscribe(qids);
      }
      SCUBA_CHECK_MSG(st.ok(), st.ToString().c_str());
    }
  }

  ScubaClient Connect(const std::string& name) {
    ScubaClient::Options options;
    options.name = name;
    Result<ScubaClient> client = ScubaClient::Connect(server_->port(), options);
    SCUBA_CHECK_MSG(client.ok(), client.status().ToString().c_str());
    return std::move(client).value();
  }

  /// Framed result bytes each subscriber has received so far.
  std::vector<uint64_t> WireBytes() const {
    std::vector<uint64_t> out;
    for (const ScubaClient& sub : subs_) {
      out.push_back(sub.result_bytes_received() +
                    serve::kFrameHeaderBytes *
                        (sub.deltas_received() + sub.snapshots_received()));
    }
    return out;
  }

  /// Runs round `k`; the clock covers only the calls into the program.
  void Round(uint64_t k, bool measured) {
    Stopwatch gen;
    ticks_.NextRound(&batches_);
    out_.gen_s += gen.ElapsedSeconds();
    ++out_.total_rounds;
    RoundTiming t;
    t.round = k;
    t.start_ns = NowNs();
    ResultSet results;
    if (w_.served()) {
      for (int i = 0; i < kTicksPerRound; ++i) {
        const int64_t start = NowNs();
        Result<serve::TickAckMsg> ack =
            driver_->SendBatch(batches_[static_cast<size_t>(i)]);
        AddSpan("driver.batch", i, k, start, NowNs());
        if (!ack.ok()) return Fail("driver: " + ack.status().ToString());
      }
      t.ack_ns = NowNs();
      for (size_t s = 0; s < subs_.size(); ++s) {
        const int64_t start = NowNs();
        Status st = subs_[s].PumpUntilRound(k);
        AddSpan("serve.fold", static_cast<int32_t>(s), k, start, NowNs());
        if (!st.ok()) return Fail("subscriber: " + st.ToString());
      }
    } else {
      for (UpdateBatchMsg& batch : batches_) {
        Status st = engine_->IngestBatch(batch.objects, batch.queries);
        if (!st.ok()) return Fail("ingest: " + st.ToString());
      }
      Status st = engine_->Evaluate(batches_.back().time, &results);
      if (!st.ok()) return Fail("evaluate: " + st.ToString());
      t.ack_ns = NowNs();
    }
    t.end_ns = NowNs();
    AddSpan("round", -1, k, t.start_ns, t.end_ns);

    // Untimed from here: the correctness gate and bookkeeping.
    if (w_.served()) {
      std::lock_guard<std::mutex> lock(probe_->mu);
      results = std::move(probe_->last_results);
      probe_->last_results = ResultSet();
    } else {
      engine_->EstimateMemoryUsage();  // the peak the server would observe
    }
    for (size_t s = 0; s < subs_.size(); ++s) {
      if (subs_[s].last_round() != k) {
        Fail("subscriber " + std::to_string(s) + " skipped to round " +
             std::to_string(subs_[s].last_round()) + " at round " +
             std::to_string(k));
      } else if (!(subs_[s].folded() ==
                   Filter(results, w_.subscribers[s]))) {
        Fail("subscriber " + std::to_string(s) + " fold differs from the " +
             "engine's answer at round " + std::to_string(k));
      }
    }
    out_.digests.push_back(Digest(results));
    if (!measured) return;
    out_.measured.push_back(t);
    out_.attempted += kTicksPerRound + subs_.size();
    for (const UpdateBatchMsg& batch : batches_) {
      out_.updates += batch.objects.size() + batch.queries.size();
    }
  }

  void AddSpan(const char* name, int32_t index, uint64_t round, int64_t start,
               int64_t end) {
    if (!out_.traced) return;
    std::lock_guard<std::mutex> lock(probe_->mu);
    probe_->spans.push_back(BenchSpan{name, index, round, start, end});
  }

  RepOutcome Finish() {
    for (ScubaClient& sub : subs_) (void)sub.Bye();
    if (driver_) (void)driver_->Shutdown();
    if (server_ != nullptr) {
      server_->RequestStop();  // in case the shutdown frame never arrived
      Status st = server_->Wait();
      if (!st.ok()) Fail("server: " + st.ToString());
    }
    subs_.clear();
    driver_.reset();
    server_.reset();
    {
      std::lock_guard<std::mutex> lock(probe_->mu);
      out_.mem_peak = probe_->mem_peak;
      out_.records = std::move(probe_->rounds);
      out_.spans = std::move(probe_->spans);
    }
    if (screen_) out_.screen = screen_->stats();
    out_.state_hash = handle_.StateHash();
    sink_.reset();
    durability_ = DurabilityHandle();
    if (w_.durable) std::filesystem::remove_all(dir_);
    return std::move(out_);
  }

  const Workload& w_;
  const Inputs& in_;
  const ScubaOptions opt_;
  TickSource ticks_;
  std::filesystem::path dir_;
  std::vector<UpdateBatchMsg> batches_;
  RepOutcome out_;

  EngineHandle handle_;
  std::unique_ptr<Probe> probe_;
  std::unique_ptr<TimedEngine> engine_;
  std::optional<UpdateValidator> screen_;
  DurabilityHandle durability_;
  std::unique_ptr<TimedSink> sink_;
  std::unique_ptr<ScubaServer> server_;
  std::optional<ScubaClient> driver_;
  std::vector<ScubaClient> subs_;
};

// ---------------------------------------------------------------------------
// Offline twin: replays rep 0's rounds through a fresh engine by direct
// IngestBatch/Evaluate and checks every round's digest, the final state hash
// and (100% update rate) the naive oracle at sampled rounds.

std::vector<std::string> CheckTwin(const Workload& w, const Inputs& in,
                                   const RepOutcome& rep0) {
  std::vector<std::string> errors;
  const ScubaOptions opt = EngineOptions(w, in, /*traced=*/false);
  Result<EngineHandle> handle = MakeEngine(opt);
  SCUBA_CHECK_MSG(handle.ok(), handle.status().ToString().c_str());
  std::optional<UpdateValidator> screen;
  if (w.durable) screen.emplace(ScreenConfig(in));
  const uint64_t rounds = rep0.digests.size();
  std::vector<uint64_t> sampled;
  if (w.update_fraction >= 1.0 && rounds > kWarmupRounds) {
    for (int i = 0; i < kNaiveSamples; ++i) {
      sampled.push_back(kWarmupRounds + 1 +
                        (rounds - kWarmupRounds - 1) * static_cast<uint64_t>(i) /
                            (kNaiveSamples - 1));
    }
  }
  TickSource ticks(*in.pristine, w.update_fraction);
  std::vector<UpdateBatchMsg> batches;
  ResultSet results;
  for (uint64_t k = 1; k <= rounds; ++k) {
    ticks.NextRound(&batches);
    const bool sample =
        std::find(sampled.begin(), sampled.end(), k) != sampled.end();
    NaiveJoinEngine naive;
    for (UpdateBatchMsg& batch : batches) {
      if (screen) {
        SCUBA_CHECK(screen->ScreenBatch(batch.time, &batch.objects,
                                        &batch.queries)
                        .ok());
      }
      SCUBA_CHECK(handle->engine->IngestBatch(batch.objects, batch.queries)
                      .ok());
      // Every entity reports every tick at a 100% rate, so the round's own
      // batches are the oracle's whole input.
      if (sample) SCUBA_CHECK(naive.IngestBatch(batch.objects, batch.queries).ok());
    }
    SCUBA_CHECK(handle->engine->Evaluate(batches.back().time, &results).ok());
    if (Digest(results) != rep0.digests[k - 1]) {
      errors.push_back(w.name + ": offline twin differs from the served " +
                       "answer at round " + std::to_string(k));
      return errors;
    }
    if (sample) {
      ResultSet oracle;
      SCUBA_CHECK(naive.Evaluate(batches.back().time, &oracle).ok());
      if (!(oracle == results)) {
        errors.push_back(w.name + ": naive oracle disagrees at round " +
                         std::to_string(k));
      }
    }
  }
  if (handle->StateHash() != rep0.state_hash) {
    errors.push_back(w.name + ": offline twin EngineStateHash differs");
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Aggregation

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  std::string name;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  uint64_t measured_rounds = 0;  ///< Per rep.
  std::vector<double> setup_reps;
  std::vector<Metric> e2e;       ///< Untraced reps.
  std::vector<Metric> counters;  ///< Deterministic: rep 0's counter prefix.
  std::vector<Metric> layers;    ///< Counters, plus timings when traced.
  std::vector<std::pair<std::string, double>> shares;  ///< Of the round.
};

double Percentile(const std::vector<double>& values, double p) {
  Histogram h;
  for (double v : values) h.Add(v);
  return h.Percentile(p);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double LatencyMs(const RoundTiming& t) {
  return static_cast<double>(t.end_ns - t.start_ns) / 1e6;
}

/// Every rep replays the same rounds on the same input, so each round's
/// latency is its fastest replay: a machine slowdown during one rep does not
/// reach the result unless it covers the round in every rep.
std::vector<double> BestOfReps(const std::vector<const RepOutcome*>& reps) {
  std::vector<double> best;
  for (const RepOutcome* rep : reps) {
    for (size_t k = 0; k < rep->measured.size(); ++k) {
      const double ms = LatencyMs(rep->measured[k]);
      if (k < best.size()) {
        best[k] = std::min(best[k], ms);
      } else {
        best.push_back(ms);
      }
    }
  }
  return best;
}

/// Span-tree path ("join.between") of every engine telemetry span; the root
/// "round" span maps to "".
std::vector<std::string> TreePaths(const std::vector<SpanRecord>& tree) {
  std::vector<std::string> paths(tree.size());
  for (size_t i = 1; i < tree.size(); ++i) {
    const int32_t parent = tree[i].parent;
    paths[i] = parent <= 0 ? tree[i].name
                           : paths[static_cast<size_t>(parent)] + "." +
                                 tree[i].name;
  }
  return paths;
}

/// Deterministic counters over rep 0's first kCounterRounds measured rounds.
std::vector<Metric> Counters(const Inputs& in, const RepOutcome& rep) {
  const RoundRecord& first = rep.records[kWarmupRounds - 1];
  const RoundRecord& last = rep.records[kWarmupRounds + kCounterRounds - 1];
  const EngineSnapshotStats& a = first.stats;
  const EngineSnapshotStats& b = last.stats;
  const double n = static_cast<double>(kCounterRounds);
  auto per_round = [n](uint64_t hi, uint64_t lo) {
    return static_cast<double>(hi - lo) / n;
  };
  const double comparisons =
      static_cast<double>(b.eval.comparisons - a.eval.comparisons);
  return {
      {"core.comparisons", per_round(b.eval.comparisons, a.eval.comparisons),
       "count"},
      {"core.bounds_checks",
       per_round(b.eval.bounds_checks, a.eval.bounds_checks), "count"},
      {"core.pairs_tested",
       per_round(b.eval.cluster_pairs_tested, a.eval.cluster_pairs_tested),
       "count"},
      {"core.pair_hit_ratio",
       Ratio(static_cast<double>(b.eval.cluster_pairs_overlapping -
                                 a.eval.cluster_pairs_overlapping),
             static_cast<double>(b.eval.cluster_pairs_tested -
                                 a.eval.cluster_pairs_tested)),
       "ratio"},
      {"core.match_ratio",
       Ratio(static_cast<double>(b.eval.total_results - a.eval.total_results),
             comparisons),
       "ratio"},
      {"cluster.clusters", static_cast<double>(b.clusters), "count"},
      {"cluster.avg_size",
       Ratio(static_cast<double>(in.objects + in.queries),
             static_cast<double>(b.clusters)),
       "count"},
      {"persist.wal_bytes",
       per_round(b.eval.wal_bytes_appended, a.eval.wal_bytes_appended), "B"},
      {"persist.wal_fsyncs", per_round(b.eval.wal_fsyncs, a.eval.wal_fsyncs),
       "count"},
      {"persist.checkpoints",
       static_cast<double>(b.eval.checkpoints_written -
                           a.eval.checkpoints_written),
       "count"},
      {"shard.handoffs", per_round(last.handoffs, first.handoffs), "count"},
      {"shard.ghosts", per_round(last.ghosts, first.ghosts), "count"},
      {"serve.wire_bytes_per_round", rep.wire_bytes_per_round, "B"},
  };
}

/// The decorated calls' time in one round, from the bench spans.
struct CallTimes {
  std::vector<double> ingest_ms;  ///< Per batch.
  double evaluate_ms = 0.0;
  double log_ms = 0.0;
  double round_complete_ms = 0.0;
};

std::map<uint64_t, CallTimes> CallTimesByRound(
    const std::vector<BenchSpan>& spans) {
  std::map<uint64_t, CallTimes> out;
  for (const BenchSpan& s : spans) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    const std::string_view name = s.name;
    CallTimes& c = out[s.round];
    if (name == "engine.ingest") c.ingest_ms.push_back(ms);
    if (name == "engine.evaluate") c.evaluate_ms += ms;
    if (name == "persist.log") c.log_ms += ms;
    if (name == "persist.round_complete") c.round_complete_ms += ms;
  }
  return out;
}

/// Per-layer timings over the traced reps' measured rounds.
void AddTracedLayers(const std::vector<const RepOutcome*>& traced,
                     const std::vector<const RepOutcome*>& untraced,
                     WorkloadResult* result) {
  std::vector<double> latency, ingest_ms, evaluate_ms;
  double sum_latency = 0.0, sum_self = 0.0, sum_fold = 0.0, sum_log = 0.0;
  double sum_round_complete = 0.0, sum_ingest = 0.0, sum_evaluate = 0.0;
  double core_ingest = 0.0, core_join = 0.0, core_postjoin = 0.0;
  double shard_max = 0.0, imbalance = 0.0;
  uint64_t rounds = 0, imbalance_rounds = 0;
  std::map<std::string, double> tree;
  ServeCounters serve;
  for (const RepOutcome* rep : traced) {
    const std::map<uint64_t, CallTimes> calls = CallTimesByRound(rep->spans);
    for (const RoundTiming& t : rep->measured) {
      const RoundRecord& r = rep->records[t.round - 1];
      const CallTimes& c = calls.at(t.round);
      const double lat = LatencyMs(t);
      double engine = c.evaluate_ms;
      for (double ms : c.ingest_ms) {
        ingest_ms.push_back(ms);
        engine += ms;
        sum_ingest += ms;
      }
      evaluate_ms.push_back(c.evaluate_ms);
      sum_evaluate += c.evaluate_ms;
      sum_log += c.log_ms;
      sum_round_complete += c.round_complete_ms;
      latency.push_back(lat);
      sum_latency += lat;
      sum_self += lat - engine - c.log_ms - c.round_complete_ms;
      sum_fold += static_cast<double>(t.end_ns - t.ack_ns) / 1e6;
      core_ingest += r.stats.eval.last_ingest_seconds;
      core_join += r.stats.eval.last_join_seconds;
      core_postjoin += r.stats.eval.last_postjoin_seconds;
      const std::vector<std::string> paths = TreePaths(r.engine_tree);
      double max_shard = 0.0, sum_shard = 0.0;
      int shards = 0;
      for (size_t i = 1; i < r.engine_tree.size(); ++i) {
        tree[paths[i]] += r.engine_tree[i].wall_seconds * 1e3;
        if (paths[i] == "join.engine_shard") {
          max_shard = std::max(max_shard, r.engine_tree[i].wall_seconds);
          sum_shard += r.engine_tree[i].wall_seconds;
          ++shards;
        }
      }
      shard_max += max_shard * 1e3;
      if (shards > 0 && sum_shard > 0.0) {
        imbalance += max_shard / (sum_shard / shards);
        ++imbalance_rounds;
      }
      ++rounds;
    }
    const ServeCounters& s = rep->serve;
    serve.delta_bytes += s.delta_bytes;
    serve.snapshot_bytes += s.snapshot_bytes;
    serve.deltas += s.deltas;
    serve.coalesces += s.coalesces;
    if (serve.latency_buckets.empty()) {
      serve.latency_bounds = s.latency_bounds;
      serve.latency_buckets = s.latency_buckets;
    } else {
      for (size_t i = 0; i < s.latency_buckets.size(); ++i) {
        serve.latency_buckets[i] += s.latency_buckets[i];
      }
    }
    serve.latency_sum += s.latency_sum;
  }
  double push_p50 = 0.0;
  if (!serve.latency_bounds.empty()) {
    Result<Histogram> h = Histogram::FromBucketData(
        serve.latency_bounds, serve.latency_buckets, serve.latency_sum);
    if (h.ok()) push_p50 = h->Percentile(50);
  }
  const double n = static_cast<double>(std::max<uint64_t>(1, rounds));
  const double p50 = Percentile(latency, 50);
  auto share = [&](const std::string& path) {
    auto it = tree.find(path);
    return Ratio(it == tree.end() ? 0.0 : it->second, sum_latency);
  };
  const std::vector<Metric> layers = {
      {"engine.ingest_ms_p50", Percentile(ingest_ms, 50), "ms"},
      {"engine.evaluate_ms_p50", Percentile(evaluate_ms, 50), "ms"},
      {"engine.evaluate_ms_p95", Percentile(evaluate_ms, 95), "ms"},
      {"core.ingest_s", core_ingest / n, "s"},
      {"core.join_s", core_join / n, "s"},
      {"core.postjoin_s", core_postjoin / n, "s"},
      {"core.join.between_share", share("join.between"), "ratio"},
      {"core.join.within_share", share("join.within"), "ratio"},
      {"core.postjoin.translate_share", share("postjoin.translate"), "ratio"},
      {"core.postjoin.tighten_share", share("postjoin.tighten"), "ratio"},
      {"serve.round_self_share", Ratio(sum_self, sum_latency), "ratio"},
      {"serve.fold_share", Ratio(sum_fold, sum_latency), "ratio"},
      {"serve.push_latency_share", Ratio(push_p50, p50), "ratio"},
      {"serve.delta_bytes",
       Ratio(static_cast<double>(serve.delta_bytes),
             static_cast<double>(rounds)),
       "B"},
      {"serve.snapshot_bytes",
       Ratio(static_cast<double>(serve.snapshot_bytes),
             static_cast<double>(rounds)),
       "B"},
      {"serve.coalesced_share",
       Ratio(static_cast<double>(serve.coalesces),
             static_cast<double>(serve.deltas)),
       "ratio"},
      {"persist.log_share", Ratio(sum_log, sum_latency), "ratio"},
      {"persist.round_complete_share", Ratio(sum_round_complete, sum_latency),
       "ratio"},
      {"persist.checkpoint_share", share("checkpoint"), "ratio"},
      {"persist.snapshot_share", share("checkpoint.snapshot"), "ratio"},
      {"persist.wal_share", share("checkpoint.wal"), "ratio"},
      {"shard.imbalance",
       Ratio(imbalance, static_cast<double>(imbalance_rounds)), "ratio"},
      {"shard.engine_shard_max_share", Ratio(shard_max, sum_latency), "ratio"},
      {"shard.handoff_share", share("handoff"), "ratio"},
      {"obs.trace_overhead",
       Ratio(Percentile(BestOfReps(traced), 50),
             Percentile(BestOfReps(untraced), 50)) -
           1.0,
       "ratio"},
  };
  result->layers.insert(result->layers.end(), layers.begin(), layers.end());
  result->shares = {
      {"serve", Ratio(sum_self, sum_latency)},
      {"engine.ingest", Ratio(sum_ingest, sum_latency)},
      {"engine.evaluate", Ratio(sum_evaluate, sum_latency)},
      {"persist", Ratio(sum_log + sum_round_complete, sum_latency)},
      {"core.ingest", Ratio(core_ingest * 1e3, sum_latency)},
      {"core.join", Ratio(core_join * 1e3, sum_latency)},
      {"core.postjoin", Ratio(core_postjoin * 1e3, sum_latency)},
  };
}

// ---------------------------------------------------------------------------
// Output

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Appends rep's measured rounds to the span JSONL: bench spans with start
/// and end, then the engine's telemetry tree for the round (wall time only).
void AppendTrace(const std::string& workload, const RepOutcome& rep,
                 int64_t* next_id, std::string* out) {
  std::map<uint64_t, std::vector<const BenchSpan*>> by_round;
  for (const BenchSpan& s : rep.spans) {
    if (s.round > kWarmupRounds) by_round[s.round].push_back(&s);
  }
  const std::string prefix = "{\"workload\": " + JsonString(workload) +
                             ", \"rep\": " + std::to_string(rep.index) +
                             ", \"round\": ";
  for (const auto& [round, spans] : by_round) {
    std::map<std::pair<std::string, int32_t>, int64_t> ids;
    for (const BenchSpan* s : spans) ids[{s->name, s->index}] = (*next_id)++;
    auto id_of = [&](const char* name, int32_t index) -> int64_t {
      auto it = ids.find({name, index});
      return it == ids.end() ? -1 : it->second;
    };
    const int64_t root = id_of("round", -1);
    const int32_t last_batch = kTicksPerRound - 1;
    const int64_t evaluate_parent =
        id_of("driver.batch", last_batch) >= 0 ? id_of("driver.batch", last_batch)
                                               : root;
    for (const BenchSpan* s : spans) {
      const std::string name = s->name;
      int64_t parent = root;
      if (name == "round") {
        parent = -1;
      } else if (name == "engine.ingest" || name == "persist.log") {
        parent = id_of("driver.batch", s->index) >= 0
                     ? id_of("driver.batch", s->index)
                     : root;
      } else if (name == "engine.evaluate" ||
                 name == "persist.round_complete") {
        parent = evaluate_parent;
      }
      *out += prefix + std::to_string(round) +
              ", \"id\": " + std::to_string(id_of(s->name, s->index)) +
              ", \"name\": " + JsonString(name) +
              ", \"index\": " + std::to_string(s->index) +
              ", \"parent\": " + std::to_string(parent) +
              ", \"start_ns\": " + std::to_string(s->start_ns) +
              ", \"end_ns\": " + std::to_string(s->end_ns) + "}\n";
    }
    const std::vector<SpanRecord>& tree = rep.records[round - 1].engine_tree;
    const int64_t base = *next_id;
    const int64_t tree_parent = id_of("engine.evaluate", -1);
    for (size_t i = 0; i < tree.size(); ++i) {
      const int64_t parent =
          tree[i].parent < 0 ? tree_parent : base + tree[i].parent;
      *out += prefix + std::to_string(round) +
              ", \"id\": " + std::to_string(base + static_cast<int64_t>(i)) +
              ", \"name\": " + JsonString("engine." + tree[i].name) +
              ", \"index\": " + std::to_string(tree[i].index) +
              ", \"parent\": " + std::to_string(parent) +
              ", \"wall_s\": " + JsonNumber(tree[i].wall_seconds) +
              ", \"count\": " + std::to_string(tree[i].count) + "}\n";
    }
    *next_id += static_cast<int64_t>(tree.size());
  }
}

WorkloadResult MeasureWorkload(const Workload& w, const Args& args,
                               int64_t* next_span_id,
                               std::string* trace_text) {
  WorkloadResult result;
  result.name = w.name;
  const Inputs in = BuildInputs(w, args.seed, args.scale);
  const bool traced = !args.trace_out.empty();
  // A traced run alternates untraced and traced reps, so the tracing
  // overhead is measured under the same machine conditions.
  const int total_reps = traced ? 2 * args.reps : args.reps;
  const uint64_t rounds = std::max<uint64_t>(
      kMinRounds, static_cast<uint64_t>(
                      args.seconds * w.rounds_per_second / args.reps + 0.5));
  std::vector<RepOutcome> reps;
  for (int i = 0; i < total_reps; ++i) {
    const bool traced_rep = traced && i % 2 == 1;
    reps.push_back(Rep(w, in, args, traced_rep, i).Run(rounds));
  }
  std::vector<const RepOutcome*> untraced_reps, traced_reps;
  for (const RepOutcome& rep : reps) {
    (rep.traced ? traced_reps : untraced_reps).push_back(&rep);
    result.attempted += rep.attempted;
    result.failed += rep.failed;
    result.errors.insert(result.errors.end(), rep.errors.begin(),
                         rep.errors.end());
  }
  if (!result.errors.empty()) return result;

  const RepOutcome& rep0 = *untraced_reps.front();
  for (const RepOutcome& rep : reps) {
    const size_t common = std::min(rep.digests.size(), rep0.digests.size());
    if (!std::equal(rep.digests.begin(), rep.digests.begin() + common,
                    rep0.digests.begin())) {
      result.errors.push_back(w.name + ": rep " + std::to_string(rep.index) +
                              " answers differ from rep 0 on the same input");
    }
  }
  const std::vector<std::string> twin = CheckTwin(w, in, rep0);
  result.errors.insert(result.errors.end(), twin.begin(), twin.end());

  const std::vector<double> latency = BestOfReps(untraced_reps);
  double latency_sum_ms = 0.0, gen_s = 0.0;
  for (double ms : latency) latency_sum_ms += ms;
  uint64_t all_rounds = 0, screened = 0, quarantined = 0;
  size_t mem_peak = 0;
  for (const RepOutcome* rep : untraced_reps) {
    result.setup_reps.push_back(rep->setup_s);
    mem_peak = std::max(mem_peak, rep->mem_peak);
  }
  for (const RepOutcome& rep : reps) {
    gen_s += rep.gen_s;
    all_rounds += rep.total_rounds;
    screened += rep.screen.screened;
    quarantined += rep.screen.TotalRejected();
  }
  result.measured_rounds = latency.size();
  std::vector<double> setups = result.setup_reps;
  const Metric mem = {"engine_mem_peak_mb",
                      static_cast<double>(mem_peak) / kMiB, "MiB"};
  result.e2e = {
      {"setup_s", Percentile(setups, 50), "s"},
      {"round_latency_p50_ms", Percentile(latency, 50), "ms"},
      {"round_latency_p80_ms", Percentile(latency, 80), "ms"},
      {"updates_per_s",
       Ratio(static_cast<double>(rep0.updates), latency_sum_ms / 1e3), "1/s"},
      mem,
  };
  result.counters = Counters(in, rep0);
  result.layers = result.counters;
  // The peak repeats exactly for a seed, so it is compared as a counter too.
  result.counters.push_back(mem);
  const double rounds_run = static_cast<double>(std::max<uint64_t>(1, all_rounds));
  result.layers.push_back(
      {"stream.screened", static_cast<double>(screened) / rounds_run, "count"});
  result.layers.push_back(
      {"stream.quarantined", static_cast<double>(quarantined), "count"});
  result.layers.push_back({"bench.gen_s", gen_s / rounds_run, "s"});
  result.layers.push_back(
      {"bench.failed_share",
       Ratio(static_cast<double>(result.failed),
             static_cast<double>(result.attempted)),
       "ratio"});
  if (traced) {
    AddTracedLayers(traced_reps, untraced_reps, &result);
    for (const RepOutcome* rep : traced_reps) {
      AppendTrace(w.name, *rep, next_span_id, trace_text);
    }
  }
  return result;
}

void PrintResult(const WorkloadResult& r) {
  std::printf("=== %s: %llu measured rounds, %zu untraced reps ===\n",
              r.name.c_str(),
              static_cast<unsigned long long>(r.measured_rounds),
              r.setup_reps.size());
  for (const Metric& m : r.e2e) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : r.layers) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!r.shares.empty()) {
    std::printf("  share of round (traced):");
    for (const auto& [name, share] : r.shares) {
      std::printf(" %s %.1f%%", name.c_str(), 100.0 * share);
    }
    std::printf("\n");
  }
  for (const std::string& e : r.errors) {
    std::printf("  INCORRECT: %s\n", e.c_str());
  }
  std::fflush(stdout);
}

std::string ResultJson(const Args& args, const std::vector<WorkloadResult>& all) {
  std::string out = "{\"bench\": \"bench_e2e\", \"schema\": 1, \"seed\": " +
                    std::to_string(args.seed) +
                    ", \"reps\": " + std::to_string(args.reps) +
                    ", \"seconds\": " + JsonNumber(args.seconds) +
                    ", \"scale\": " + JsonNumber(args.scale) +
                    ", \"traced\": " + (args.trace_out.empty() ? "false" : "true") +
                    ", \"workloads\": [";
  for (size_t i = 0; i < all.size(); ++i) {
    const WorkloadResult& r = all[i];
    if (i > 0) out += ", ";
    std::string setups = "[";
    for (size_t j = 0; j < r.setup_reps.size(); ++j) {
      setups += (j > 0 ? ", " : "") + JsonNumber(r.setup_reps[j]);
    }
    std::string errors = "[";
    for (size_t j = 0; j < r.errors.size(); ++j) {
      errors += (j > 0 ? ", " : "") + JsonString(r.errors[j]);
    }
    out += "{\"name\": " + JsonString(r.name) +
           ", \"correct\": " + (r.errors.empty() ? "true" : "false") +
           ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) +
           ", \"measured_rounds\": " + std::to_string(r.measured_rounds) +
           ", \"setup_reps\": " + setups + "]" +
           ", \"errors\": " + errors + "]" +
           ", \"e2e\": " + JsonMetrics(r.e2e) +
           ", \"counters\": " + JsonMetrics(r.counters) +
           ", \"layers\": " + JsonMetrics(r.layers) + "}";
  }
  return out + "]}\n";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::trunc);
  file << text;
  file.close();
  if (!file) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.list) {
    for (const Workload& w : Workloads()) {
      std::printf(
          "%-16s %5u objects + %5u queries, skew %3u, update rate %3.0f%%, "
          "shards %u, threads %u, %s%s, %zu subscriber(s)\n  %s\n",
          w.name.c_str(), w.objects, w.queries, w.skew,
          100.0 * w.update_fraction, w.shards, w.threads,
          w.served() ? "served" : "offline", w.durable ? ", durable" : "",
          w.subscribers.size(), w.why.c_str());
    }
    return 0;
  }
  std::vector<const Workload*> selected;
  for (const Workload& w : Workloads()) {
    if (args.workload == "all" || args.workload == w.name) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) Usage(("unknown workload " + args.workload).c_str());
  std::filesystem::create_directories(args.work_dir);

  std::vector<WorkloadResult> results;
  int64_t next_span_id = 0;
  std::string trace_text;
  bool correct = true;
  for (const Workload* w : selected) {
    results.push_back(MeasureWorkload(*w, args, &next_span_id, &trace_text));
    PrintResult(results.back());
    correct = correct && results.back().errors.empty();
  }
  if (!args.trace_out.empty() && !WriteFile(args.trace_out, trace_text)) {
    return 1;
  }
  if (!args.json_out.empty() &&
      !WriteFile(args.json_out, ResultJson(args, results))) {
    return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace scuba::bench

int main(int argc, char** argv) { return scuba::bench::Main(argc, argv); }
