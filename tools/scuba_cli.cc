// scuba_cli: command-line front end for the SCUBA library.
//
//   scuba_cli generate-map   --out city.map [--rows 21 --cols 21 ...]
//   scuba_cli generate-trace --map city.map --out run.trace [--objects ...]
//   scuba_cli run            --trace run.trace --engine scuba [--eta 0.5 ...]
//   scuba_cli compare        --trace run.trace [--eta 0.5 ...]
//   scuba_cli corrupt-trace  --trace run.trace --out bad.trace [--rate 0.02]
//   scuba_cli checkpoint     --trace run.trace --durable-dir DIR [...]
//   scuba_cli restore        --trace run.trace --durable-dir DIR [...]
//   scuba_cli recover        --trace run.trace --durable-dir DIR [...]
//   scuba_cli metrics-schema
//
// `run` replays a trace into one engine and prints per-round results and
// engine statistics; `compare` replays into SCUBA and the naive oracle and
// reports accuracy. Regions are derived from the trace contents (or, for
// `run --map`, from the road network — which also arms the validator's
// off-map and unknown-destination checks). `corrupt-trace` rewrites a trace
// through the deterministic fault injector so hardened runs can be exercised
// end to end (`run --on-bad-update quarantine` survives it; `strict` fails).
//
// Every SCUBA command runs the one SCUBA engine (a ScubaEngine over
// --shards N >= 1 join windows, default 1) built by MakeEngine. Numeric
// flags are checked: a value that is not wholly a number of the flag's type
// (an unsigned integer in range, an integer, or a finite number) exits 1 and
// names the flag.
//
// Durability (docs/ARCHITECTURE.md §8, §12): `run --durable-dir DIR` logs
// every admitted batch to the directory's one WAL and commits checkpoint
// generations through manifests per --checkpoint-every; --crash-at POINT
// [--crash-after N] injects a crash at the N-th occurrence of that point and
// exits nonzero, leaving realistic partial state behind. `recover` rebuilds
// the engine from DIR (newest manifest whose artifacts verify + WAL
// replay; --json prints the report as one JSON object) and finishes the
// trace; `checkpoint` / `restore` exercise the bare checkpoint round-trip.
// Each durable command prints a `state-hash:` line — equal hashes mean
// bit-identical engine state — and a directory written at one window count
// recovers into any other (older per-shard generations included). A directory in a retired layout (bare
// snapshot-*.scuba / wal-*.log files at the root, or per-shard
// shard-NNNN/wal-*.log chains) is refused with exit 5. `fsck
// DIR` verifies a durable directory read-only and exits with a distinct code
// per damage class.
//
// Exit codes mirror StatusCode (1 = invalid argument, 5 = failed
// precondition, 7 = internal/injected crash, 11 = data loss, ...); 0 is
// success only.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "baseline/naive_join_engine.h"
#include "common/memory_usage.h"
#include "core/engine_snapshot.h"
#include "core/scuba_engine.h"
#include "eval/accuracy.h"
#include "eval/svg_render.h"
#include "gen/trace.h"
#include "gen/workload_generator.h"
#include "network/grid_city.h"
#include "network/network_io.h"
#include "persist/crash.h"
#include "persist/fsck.h"
#include "serve/client.h"
#include "serve/server.h"
#include "shard/engine_factory.h"
#include "shard/shard_durability.h"
#include "stream/fault_injector.h"
#include "stream/pipeline.h"
#include "stream/update_validator.h"

namespace scuba::cli {
namespace {

/// Minimal --key value / --key=value parser.
class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv, int first) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        return Status::InvalidArgument("unexpected argument: " + arg);
      }
      arg = arg.substr(2);
      size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags.values_[arg] = argv[++i];
      } else {
        flags.values_[arg] = "true";  // boolean flag
      }
    }
    return flags;
  }

  std::string GetString(const std::string& key, const std::string& def) const {
    auto it = values_.find(key);
    seen_.insert(key);
    return it == values_.end() ? def : it->second;
  }
  /// Checked numbers: a flag whose whole value is not a number of the
  /// flag's type (an int64, a finite double, an unsigned value in [0, max])
  /// yields `def` and records an error naming the flag, which Validate()
  /// reports before the command acts.
  int64_t GetInt(const std::string& key, int64_t def) const {
    return GetNumber<int64_t>(key, def, "an integer");
  }
  double GetDouble(const std::string& key, double def) const {
    return GetNumber<double>(key, def, "a finite number");
  }
  template <typename T>
  T GetUnsigned(const std::string& key, T def,
                T max = std::numeric_limits<T>::max()) const {
    static_assert(std::is_unsigned_v<T>);
    return static_cast<T>(GetNumber<uint64_t>(
        key, def,
        "an unsigned integer in [0, " + std::to_string(max) + "]", max));
  }
  bool GetBool(const std::string& key, bool def) const {
    auto it = values_.find(key);
    seen_.insert(key);
    if (it == values_.end()) return def;
    return it->second == "true" || it->second == "1";
  }

  /// Error if a numeric flag failed to parse, or if any provided flag was
  /// never consumed (typo protection).
  Status Validate() const {
    if (!parse_error_.ok()) return parse_error_;
    for (const auto& [key, value] : values_) {
      (void)value;
      if (!seen_.contains(key)) {
        return Status::InvalidArgument("unknown flag: --" + key);
      }
    }
    return Status::OK();
  }

 private:
  template <typename T>
  T GetNumber(const std::string& key, T def, const std::string& what,
              T max = std::numeric_limits<T>::max()) const {
    auto it = values_.find(key);
    seen_.insert(key);
    if (it == values_.end()) return def;
    const std::string& text = it->second;
    T value{};
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (text.empty() || ec != std::errc() ||
        end != text.data() + text.size() || !std::isfinite(value) ||
        value > max) {
      if (parse_error_.ok()) {
        parse_error_ = Status::InvalidArgument("--" + key + " must be " +
                                               what + ", got '" + text + "'");
      }
      return def;
    }
    return value;
  }

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> seen_;
  mutable Status parse_error_;  ///< First numeric parse failure.
};

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << content;
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Data region derived from the trace contents (+ margin for query ranges).
Rect RegionFromTrace(const Trace& trace, double margin = 300.0) {
  Rect box{0, 0, 0, 0};
  bool first = true;
  auto extend = [&](Point p) {
    Rect r{p.x, p.y, p.x, p.y};
    box = first ? r : Union(box, r);
    first = false;
  };
  for (const TickBatch& b : trace.batches()) {
    for (const LocationUpdate& u : b.object_updates) extend(u.position);
    for (const QueryUpdate& u : b.query_updates) extend(u.position);
  }
  if (first) return Rect{0, 0, 1000, 1000};
  return Rect{box.min_x - margin, box.min_y - margin, box.max_x + margin,
              box.max_y + margin};
}

/// Every error exits with its StatusCode value (kInvalidArgument = 1 ...
/// kDataLoss = 11), so scripts and the CI smoke can dispatch on the class of
/// failure without parsing stderr. Never returns 0.
int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  const int code = static_cast<int>(s.code());
  return code == 0 ? 1 : code;
}

int CmdGenerateMap(const Flags& flags) {
  GridCityOptions opt;
  opt.rows = flags.GetUnsigned<uint32_t>("rows", 21);
  opt.cols = flags.GetUnsigned<uint32_t>("cols", 21);
  opt.block_size = flags.GetDouble("block", 500.0);
  opt.arterial_every = flags.GetUnsigned<uint32_t>("arterial", 5);
  opt.highway_every = flags.GetUnsigned<uint32_t>("highway", 10);
  opt.jitter = flags.GetDouble("jitter", 0.1);
  opt.seed = flags.GetUnsigned<uint64_t>("seed", 0x5C0BA);
  std::string out = flags.GetString("out", "city.map");
  Status consumed = flags.Validate();
  if (!consumed.ok()) return Fail(consumed);

  Result<RoadNetwork> net = GenerateGridCity(opt);
  if (!net.ok()) return Fail(net.status());
  Status s = SaveNetwork(*net, out);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s: %zu nodes, %zu segments, area %.0f x %.0f\n",
              out.c_str(), net->NodeCount(), net->EdgeCount(),
              net->BoundingBox().Width(), net->BoundingBox().Height());
  return 0;
}

int CmdGenerateTrace(const Flags& flags) {
  std::string map_path = flags.GetString("map", "");
  WorkloadOptions opt;
  opt.num_objects = flags.GetUnsigned<uint32_t>("objects", 10000);
  opt.num_queries = flags.GetUnsigned<uint32_t>("queries", 10000);
  opt.skew = flags.GetUnsigned<uint32_t>("skew", 100);
  opt.mixed_group_fraction = flags.GetDouble("mixed-fraction", 0.25);
  opt.min_range = flags.GetDouble("min-range", 50.0);
  opt.max_range = flags.GetDouble("max-range", 200.0);
  opt.query_filter_probability = flags.GetDouble("query-filter", 0.0);
  opt.seed = flags.GetUnsigned<uint64_t>("seed", 0x5C0BA);
  const int ticks = static_cast<int>(flags.GetUnsigned<uint32_t>(
      "ticks", 12, std::numeric_limits<int>::max()));
  double fraction = flags.GetDouble("update-fraction", 1.0);
  std::string out = flags.GetString("out", "run.trace");
  Status consumed = flags.Validate();
  if (!consumed.ok()) return Fail(consumed);

  RoadNetwork network;
  if (map_path.empty()) {
    network = DefaultBenchmarkCity(opt.seed);
  } else {
    Result<RoadNetwork> net = LoadNetwork(map_path);
    if (!net.ok()) return Fail(net.status());
    network = std::move(net).value();
  }
  Result<ObjectSimulator> sim = GenerateWorkload(&network, opt);
  if (!sim.ok()) return Fail(sim.status());
  ObjectSimulator simulator = std::move(sim).value();
  Trace trace = RecordTrace(&simulator, ticks, fraction);
  Status s = WriteFile(out, trace.Serialize());
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s: %zu ticks, %zu updates (%s in memory)\n", out.c_str(),
              trace.TickCount(), trace.TotalUpdates(),
              FormatBytes(trace.EstimateMemoryUsage()).c_str());
  return 0;
}

Result<Trace> LoadTrace(const std::string& path) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return Trace::Parse(*text);
}

/// SCUBA engine options shared by run / checkpoint / restore / recover /
/// serve. The durable commands MUST rebuild the engine with the same options
/// the run that wrote the directory used — the manifest's options
/// fingerprint enforces it — so they all read the same flags through this
/// one helper.
Result<ScubaOptions> ScubaOptionsFromFlags(const Flags& flags,
                                           const Rect& region,
                                           BadUpdatePolicy policy) {
  ScubaOptions opt;
  opt.region = region;
  opt.grid_cells = flags.GetUnsigned<uint32_t>("grid-cells", 100);
  opt.theta_d = flags.GetDouble("theta-d", 100.0);
  opt.theta_s = flags.GetDouble("theta-s", 10.0);
  opt.delta = flags.GetInt("delta", 2);
  opt.enable_cluster_splitting = flags.GetBool("splitting", false);
  opt.join_threads = flags.GetUnsigned<uint32_t>("threads", 1);
  // Join windows (docs/ARCHITECTURE.md §11). Results are bit-identical at
  // every window count, so the options fingerprint excludes the flag.
  opt.shards = flags.GetUnsigned<uint32_t>("shards", 1);
  opt.on_bad_update = policy;
  opt.audit_every_n_rounds = flags.GetUnsigned<uint32_t>("audit-every", 0);
  opt.checkpoint.every_n_rounds =
      flags.GetUnsigned<uint32_t>("checkpoint-every", 0);
  opt.checkpoint.keep_last_k = flags.GetUnsigned<uint32_t>("keep-last", 2);
  // Window fault isolation (docs/ARCHITECTURE.md §13). Non-semantic like the
  // thread counts — a clean run is bit-identical under every setting — so the
  // snapshot options fingerprint excludes all of these too.
  Result<ShardFailurePolicy> on_shard_failure = ParseShardFailurePolicy(
      flags.GetString("on-shard-failure", "fail"));
  if (!on_shard_failure.ok()) return on_shard_failure.status();
  opt.supervision.on_failure = *on_shard_failure;
  opt.supervision.max_recovery_attempts =
      flags.GetUnsigned<uint32_t>("shard-max-recovery-attempts", 3);
  opt.supervision.backoff_base_rounds =
      flags.GetUnsigned<uint32_t>("shard-backoff-rounds", 1);
  opt.supervision.round_deadline_seconds =
      flags.GetDouble("shard-round-deadline", 0.0);
  opt.supervision.fault_seed =
      flags.GetUnsigned<uint64_t>("shard-fault-seed", 0x5C0BA);
  opt.supervision.fault_rate = flags.GetDouble("shard-fault-rate", 0.0);
  opt.supervision.fault_spec = flags.GetString("shard-fault-spec", "");
  const double eta = flags.GetDouble("eta", 0.0);
  if (eta != 0.0) {  // a negative eta reaches Validate, which rejects it
    opt.shedding.mode = LoadSheddingMode::kFixed;
    opt.shedding.eta = eta;
  }
  // Observability (docs/ARCHITECTURE.md §9). Telemetry never affects engine
  // results and is excluded from the snapshot options fingerprint, so the
  // durable commands may freely differ in these flags.
  opt.telemetry.metrics_out = flags.GetString("metrics-out", "");
  opt.telemetry.trace_out = flags.GetString("trace-out", "");
  return opt;
}

/// Region + validator config from --map (road-network bounds; arms the
/// off-map and unknown-destination checks) or from the trace contents.
Result<Rect> ResolveRegion(const std::string& map_path, const Trace& trace,
                           ValidatorConfig* vconfig) {
  if (map_path.empty()) return RegionFromTrace(trace);
  Result<RoadNetwork> net = LoadNetwork(map_path);
  if (!net.ok()) return net.status();
  const Rect box = net->BoundingBox();
  constexpr double kMargin = 300.0;
  const Rect region{box.min_x - kMargin, box.min_y - kMargin,
                    box.max_x + kMargin, box.max_y + kMargin};
  vconfig->bounds = region;
  vconfig->check_bounds = true;
  vconfig->node_count = net->NodeCount();
  return region;
}

/// --crash-at NAME [--crash-after N]: a disarmed injector when absent.
Result<CrashInjector> CrashInjectorFromFlags(const Flags& flags) {
  const std::string at = flags.GetString("crash-at", "");
  const uint64_t after = flags.GetUnsigned<uint64_t>("crash-after", 1);
  if (at.empty()) return CrashInjector();
  Result<CrashPoint> point = ParseCrashPoint(at);
  if (!point.ok()) return point.status();
  return CrashInjector(*point, after);
}

/// The one-line stats summary of any engine: only its EvalStats, which is
/// all the baselines have.
std::string StatsLine(const QueryProcessor& engine) {
  EngineSnapshotStats snapshot;
  snapshot.eval = engine.stats();
  return snapshot.Format(engine.name());
}

void PrintStateHash(uint64_t hash) {
  std::printf("state-hash: %016llx\n", static_cast<unsigned long long>(hash));
}

int CmdRun(const Flags& flags) {
  std::string trace_path = flags.GetString("trace", "run.trace");
  std::string engine_name = flags.GetString("engine", "scuba");
  std::string map_path = flags.GetString("map", "");
  Timestamp delta = flags.GetInt("delta", 2);
  bool quiet = flags.GetBool("quiet", false);
  std::string csv_path = flags.GetString("csv", "");
  std::string policy_name = flags.GetString("on-bad-update", "strict");
  std::string durable_dir = flags.GetString("durable-dir", "");
  Result<CrashInjector> crash = CrashInjectorFromFlags(flags);
  if (!crash.ok()) return Fail(crash.status());

  Result<BadUpdatePolicy> policy = ParseBadUpdatePolicy(policy_name);
  if (!policy.ok()) return Fail(policy.status());

  Result<Trace> trace = LoadTrace(trace_path);
  if (!trace.ok()) return Fail(trace.status());

  // With a map the region comes from the road network — independent of the
  // (possibly corrupted) trace contents — and arms the validator's off-map
  // and unknown-destination checks.
  ValidatorConfig vconfig;
  vconfig.policy = *policy;
  Result<Rect> region_result = ResolveRegion(map_path, *trace, &vconfig);
  if (!region_result.ok()) return Fail(region_result.status());
  const Rect region = *region_result;
  // The validator screens the stream only under the drop/repair policies; a
  // strict run keeps the legacy path, where the engine's own validation
  // fails the replay on the first bad tuple.
  UpdateValidator validator(vconfig);
  UpdateValidator* screen =
      *policy == BadUpdatePolicy::kStrict ? nullptr : &validator;

  Result<ScubaOptions> scuba_opt_result =
      ScubaOptionsFromFlags(flags, region, *policy);
  if (!scuba_opt_result.ok()) return Fail(scuba_opt_result.status());
  const ScubaOptions scuba_opt = *scuba_opt_result;
  Status consumed = flags.Validate();
  if (!consumed.ok()) return Fail(consumed);

  Result<EngineHandle> handle = MakeEngine(scuba_opt, engine_name);
  if (!handle.ok()) return Fail(handle.status());
  QueryProcessor* engine = handle->engine.get();
  ScubaEngine* scuba_engine = handle->scuba;

  Result<DurabilityHandle> durability = OpenDurability(
      durable_dir, scuba_opt, &*handle, screen, vconfig, &*crash);
  if (!durability.ok()) return Fail(durability.status());

  std::ofstream csv;
  if (!csv_path.empty()) {
    csv.open(csv_path, std::ios::trunc);
    if (!csv) return Fail(Status::IoError("cannot open for write: " + csv_path));
    csv << "tick,matches,join_seconds,maintenance_seconds,memory_bytes\n";
  }
  if (!quiet) std::printf("%8s %10s\n", "tick", "matches");
  Status s = ReplayTrace(*trace, engine, delta,
                         [&](Timestamp now, const ResultSet& r) {
                           if (!quiet) {
                             std::printf("%8lld %10zu\n",
                                         static_cast<long long>(now), r.size());
                           }
                           if (csv.is_open()) {
                             csv << now << ',' << r.size() << ','
                                 << engine->stats().last_join_seconds << ','
                                 << engine->stats().last_maintenance_seconds
                                 << ',' << engine->EstimateMemoryUsage() << '\n';
                           }
                         },
                         screen, durability->sink.get());
  if (!s.ok()) return Fail(s);
  if (csv.is_open() && !csv.good()) {
    return Fail(Status::IoError("csv write failed: " + csv_path));
  }
  if (Status ft = handle->FlushTelemetry(); !ft.ok()) return Fail(ft);
  std::printf("%s\n", StatsLine(*engine).c_str());
  std::printf("memory: %s\n", FormatBytes(engine->EstimateMemoryUsage()).c_str());
  if (scuba_engine != nullptr) {
    std::printf("shards: %u\n", scuba_engine->shard_count());
    PrintStateHash(handle->StateHash());
    if (scuba_engine->supervisor() != nullptr) {
      std::printf("%s\n", scuba_engine->supervisor()->HealthDump().c_str());
    }
  }
  if (screen != nullptr) {
    std::printf("validator: %s\n", screen->FormatStats().c_str());
    const QuarantineLog& log = screen->quarantine();
    if (log.total() > 0) {
      std::printf("quarantine (last %zu of %llu):\n", log.size(),
                  static_cast<unsigned long long>(log.total()));
      for (const QuarantinedUpdate& q : log.Snapshot()) {
        std::printf("  %s %u t=%lld %s: %s\n",
                    q.kind == EntityKind::kObject ? "object" : "query", q.id,
                    static_cast<long long>(q.time),
                    std::string(RejectReasonName(q.reason)).c_str(),
                    q.detail.c_str());
      }
    }
  }
  return 0;
}

/// Replays a trace to completion and writes one checkpoint generation of the
/// final engine state (no WAL) — the bare Checkpoint() surface.
int CmdCheckpoint(const Flags& flags) {
  std::string trace_path = flags.GetString("trace", "run.trace");
  std::string map_path = flags.GetString("map", "");
  std::string durable_dir = flags.GetString("durable-dir", "");
  Timestamp delta = flags.GetInt("delta", 2);
  std::string policy_name = flags.GetString("on-bad-update", "strict");
  Result<BadUpdatePolicy> policy = ParseBadUpdatePolicy(policy_name);
  if (!policy.ok()) return Fail(policy.status());
  if (durable_dir.empty()) {
    return Fail(Status::InvalidArgument("--durable-dir is required"));
  }
  Result<Trace> trace = LoadTrace(trace_path);
  if (!trace.ok()) return Fail(trace.status());
  ValidatorConfig vconfig;
  vconfig.policy = *policy;
  Result<Rect> region = ResolveRegion(map_path, *trace, &vconfig);
  if (!region.ok()) return Fail(region.status());
  Result<ScubaOptions> opt_result =
      ScubaOptionsFromFlags(flags, *region, *policy);
  if (!opt_result.ok()) return Fail(opt_result.status());
  const ScubaOptions opt = *opt_result;
  Status consumed = flags.Validate();
  if (!consumed.ok()) return Fail(consumed);

  UpdateValidator validator(vconfig);
  UpdateValidator* screen =
      *policy == BadUpdatePolicy::kStrict ? nullptr : &validator;
  Result<EngineHandle> handle = MakeEngine(opt);
  if (!handle.ok()) return Fail(handle.status());
  Status s = ReplayTrace(*trace, handle->engine.get(), delta, nullptr, screen);
  if (!s.ok()) return Fail(s);
  s = handle->scuba->Checkpoint(durable_dir);
  if (!s.ok()) return Fail(s);
  if (Status ft = handle->FlushTelemetry(); !ft.ok()) return Fail(ft);
  const EngineSnapshotStats snapshot = handle->scuba->StatsSnapshot();
  std::printf(
      "checkpointed %zu clusters after %llu rounds to %s (%s; %u shards)\n",
      handle->scuba->ClusterCount(),
      static_cast<unsigned long long>(snapshot.eval.evaluations),
      durable_dir.c_str(),
      FormatBytes(snapshot.eval.last_checkpoint_bytes).c_str(),
      handle->scuba->shard_count());
  PrintStateHash(handle->StateHash());
  return 0;
}

/// Loads the newest checkpoint generation into a freshly built engine (no
/// WAL replay) at this run's --shards windows, audits it and
/// prints its state hash — must equal the hash `checkpoint` printed.
int CmdRestore(const Flags& flags) {
  std::string trace_path = flags.GetString("trace", "run.trace");
  std::string map_path = flags.GetString("map", "");
  std::string durable_dir = flags.GetString("durable-dir", "");
  std::string policy_name = flags.GetString("on-bad-update", "strict");
  Result<BadUpdatePolicy> policy = ParseBadUpdatePolicy(policy_name);
  if (!policy.ok()) return Fail(policy.status());
  if (durable_dir.empty()) {
    return Fail(Status::InvalidArgument("--durable-dir is required"));
  }
  // The trace is read only to re-derive the region: the engine must be
  // rebuilt with the exact options of the run that checkpointed.
  Result<Trace> trace = LoadTrace(trace_path);
  if (!trace.ok()) return Fail(trace.status());
  ValidatorConfig vconfig;
  vconfig.policy = *policy;
  Result<Rect> region = ResolveRegion(map_path, *trace, &vconfig);
  if (!region.ok()) return Fail(region.status());
  Result<ScubaOptions> opt_result =
      ScubaOptionsFromFlags(flags, *region, *policy);
  if (!opt_result.ok()) return Fail(opt_result.status());
  const ScubaOptions opt = *opt_result;
  Status consumed = flags.Validate();
  if (!consumed.ok()) return Fail(consumed);

  Result<EngineHandle> handle = MakeEngine(opt);
  if (!handle.ok()) return Fail(handle.status());
  Status s = handle->scuba->Restore(durable_dir);
  if (!s.ok()) return Fail(s);
  const InvariantAuditReport audit = handle->scuba->AuditInvariants();
  std::printf(
      "restored %zu clusters (%llu rounds) from %s into %u shards; audit: %s\n",
      handle->scuba->ClusterCount(),
      static_cast<unsigned long long>(
          handle->scuba->StatsSnapshot().eval.evaluations),
      durable_dir.c_str(), handle->scuba->shard_count(),
      audit.clean() ? "clean" : "DIRTY");
  PrintStateHash(handle->StateHash());
  return audit.clean() ? 0 : Fail(Status::Corruption(audit.ToString()));
}

/// Crash recovery: rebuilds the engine from the durable directory (newest
/// manifest whose artifacts verify + WAL replay), then finishes
/// the trace from where the log ends — WAL-logging and checkpointing the
/// remainder just like `run`. A directory written at any shard count
/// recovers into --shards N.
int CmdRecover(const Flags& flags) {
  std::string trace_path = flags.GetString("trace", "run.trace");
  std::string map_path = flags.GetString("map", "");
  std::string durable_dir = flags.GetString("durable-dir", "");
  Timestamp delta = flags.GetInt("delta", 2);
  bool quiet = flags.GetBool("quiet", false);
  bool json = flags.GetBool("json", false);
  std::string policy_name = flags.GetString("on-bad-update", "strict");
  Result<BadUpdatePolicy> policy = ParseBadUpdatePolicy(policy_name);
  if (!policy.ok()) return Fail(policy.status());
  if (durable_dir.empty()) {
    return Fail(Status::InvalidArgument("--durable-dir is required"));
  }
  Result<Trace> trace = LoadTrace(trace_path);
  if (!trace.ok()) return Fail(trace.status());
  ValidatorConfig vconfig;
  vconfig.policy = *policy;
  Result<Rect> region = ResolveRegion(map_path, *trace, &vconfig);
  if (!region.ok()) return Fail(region.status());
  Result<ScubaOptions> opt_result =
      ScubaOptionsFromFlags(flags, *region, *policy);
  if (!opt_result.ok()) return Fail(opt_result.status());
  const ScubaOptions opt = *opt_result;
  Result<CrashInjector> crash = CrashInjectorFromFlags(flags);
  if (!crash.ok()) return Fail(crash.status());
  Status consumed = flags.Validate();
  if (!consumed.ok()) return Fail(consumed);

  UpdateValidator validator(vconfig);
  UpdateValidator* screen =
      *policy == BadUpdatePolicy::kStrict ? nullptr : &validator;
  if (!quiet) std::printf("%8s %10s\n", "tick", "matches");
  const ResultSink sink = [&](Timestamp now, const ResultSet& r) {
    if (!quiet) {
      std::printf("%8lld %10zu\n", static_cast<long long>(now), r.size());
    }
  };

  Result<EngineHandle> handle = MakeEngine(opt);
  if (!handle.ok()) return Fail(handle.status());

  // WAL sequence numbers are global batch indices (seq 0 = trace batch 0),
  // so the replayed log tells us exactly where to resume the trace.
  Result<ShardedRecoveryReport> report = RecoverShardedEngine(
      durable_dir, handle->scuba, screen, /*rng=*/nullptr, sink);
  if (!report.ok()) return Fail(report.status());
  std::printf("%s\n",
              json ? report->ToJson().c_str() : report->ToString().c_str());
  const uint64_t next_seq = report->next_seq;
  if (next_seq < trace->TickCount()) {
    Result<DurabilityHandle> durability = OpenDurability(
        durable_dir, opt, &*handle, screen, vconfig, &*crash);
    if (!durability.ok()) return Fail(durability.status());
    Status s = ReplayTrace(*trace, handle->engine.get(), delta, sink, screen,
                           durability->sink.get(),
                           static_cast<size_t>(next_seq));
    if (!s.ok()) return Fail(s);
  }
  if (Status ft = handle->FlushTelemetry(); !ft.ok()) return Fail(ft);
  std::printf("%s\n", handle->scuba->StatsSnapshot()
                         .Format(handle->engine->name())
                         .c_str());
  PrintStateHash(handle->StateHash());
  return 0;
}

int CmdCorruptTrace(const Flags& flags) {
  std::string trace_path = flags.GetString("trace", "run.trace");
  std::string out = flags.GetString("out", "bad.trace");
  double rate = flags.GetDouble("rate", 0.02);
  uint64_t seed = flags.GetUnsigned<uint64_t>("seed", 0x5C0BA);
  uint32_t burst_size = flags.GetUnsigned<uint32_t>("burst-size", 8);
  Status consumed = flags.Validate();
  if (!consumed.ok()) return Fail(consumed);

  Result<Trace> trace = LoadTrace(trace_path);
  if (!trace.ok()) return Fail(trace.status());

  FaultPlan plan = FaultPlan::AllFaults(rate, RegionFromTrace(*trace, 0.0),
                                        /*node_count=*/0);
  // NaN/Inf do not round-trip through the text trace format, so the
  // serialized corruption sticks to representable fault classes.
  plan.corrupt_coordinate = 0.0;
  plan.burst_size = burst_size;
  FaultInjector injector(plan, seed);

  Trace dirty;
  for (const TickBatch& batch : trace->batches()) {
    TickBatch corrupted;
    corrupted.time = batch.time;
    corrupted.object_updates = batch.object_updates;
    corrupted.query_updates = batch.query_updates;
    injector.CorruptBatch(batch.time, &corrupted.object_updates,
                          &corrupted.query_updates, nullptr, nullptr);
    dirty.Append(std::move(corrupted));
  }
  Status s = WriteFile(out, dirty.Serialize());
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s: %zu ticks, %zu updates\n", out.c_str(),
              dirty.TickCount(), dirty.TotalUpdates());
  std::printf("faults: %s\n", injector.stats().ToString().c_str());
  return 0;
}

int CmdCompare(const Flags& flags) {
  std::string trace_path = flags.GetString("trace", "run.trace");
  Timestamp delta = flags.GetInt("delta", 2);
  double eta = flags.GetDouble("eta", 0.0);
  uint32_t threads = flags.GetUnsigned<uint32_t>("threads", 1);
  uint32_t shards = flags.GetUnsigned<uint32_t>("shards", 1);
  Status consumed = flags.Validate();
  if (!consumed.ok()) return Fail(consumed);

  Result<Trace> trace = LoadTrace(trace_path);
  if (!trace.ok()) return Fail(trace.status());
  Rect region = RegionFromTrace(*trace);

  ScubaOptions opt;
  opt.region = region;
  opt.delta = delta;
  opt.join_threads = threads;
  opt.shards = shards;
  if (eta != 0.0) {
    opt.shedding.mode = LoadSheddingMode::kFixed;
    opt.shedding.eta = eta;
  }
  Result<EngineHandle> handle = MakeEngine(opt);
  if (!handle.ok()) return Fail(handle.status());
  NaiveJoinEngine oracle;

  std::vector<ResultSet> truth;
  Status s = ReplayTrace(*trace, &oracle, delta,
                         [&](Timestamp, const ResultSet& r) {
                           truth.push_back(r);
                         });
  if (!s.ok()) return Fail(s);
  AccuracyAccumulator acc;
  size_t round = 0;
  s = ReplayTrace(*trace, handle->engine.get(), delta,
                  [&](Timestamp, const ResultSet& r) {
                    acc.Add(CompareResults(truth[round++], r));
                  });
  if (!s.ok()) return Fail(s);

  std::printf("rounds: %zu\n", acc.rounds());
  std::printf("%s\n", acc.total().ToString().c_str());
  std::printf("%s\n", handle->scuba->StatsSnapshot().Format("scuba").c_str());
  std::printf("%s\n", StatsLine(oracle).c_str());
  return 0;
}

int CmdRender(const Flags& flags) {
  std::string trace_path = flags.GetString("trace", "run.trace");
  std::string out = flags.GetString("out", "snapshot.svg");
  Timestamp delta = flags.GetInt("delta", 2);
  double width = flags.GetDouble("width", 1000.0);
  Status consumed = flags.Validate();
  if (!consumed.ok()) return Fail(consumed);

  Result<Trace> trace = LoadTrace(trace_path);
  if (!trace.ok()) return Fail(trace.status());
  Rect region = RegionFromTrace(*trace);

  ScubaOptions opt;
  opt.region = region;
  opt.delta = delta;
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  if (!engine.ok()) return Fail(engine.status());
  // Ingest the whole trace WITHOUT the final round's post-join maintenance
  // relocation, so the snapshot shows positions as reported: replay all but
  // evaluate only intermediate rounds.
  Status s = ReplayTrace(*trace, engine->get(), delta, nullptr);
  if (!s.ok()) return Fail(s);

  SvgRenderOptions render;
  render.image_width = width;
  Result<std::string> svg =
      RenderClustersSvg((*engine)->store(), region, render);
  if (!svg.ok()) return Fail(svg.status());
  s = WriteFile(out, *svg);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s: %zu clusters at tick %zu\n", out.c_str(),
              (*engine)->ClusterCount(), trace->TickCount());
  return 0;
}

/// Read-only verification of a durable directory: `scuba_cli fsck DIR`.
/// Exits 0 when clean, else with the worst damage class found (values 20-26,
/// persist/fsck.h) — distinct from the StatusCode exit codes so scripts can
/// tell "the directory is damaged" from "fsck itself failed". Never mutates.
int CmdFsck(int argc, char** argv) {
  std::string dir;
  int first = 2;
  if (argc > 2 && std::string(argv[2]).rfind("--", 0) != 0) {
    dir = argv[2];
    first = 3;
  }
  Result<Flags> flags = Flags::Parse(argc, argv, first);
  if (!flags.ok()) return Fail(flags.status());
  if (dir.empty()) dir = flags->GetString("dir", "");
  const bool json = flags->GetBool("json", false);
  Status consumed = flags->Validate();
  if (!consumed.ok()) return Fail(consumed);
  if (dir.empty()) {
    return Fail(Status::InvalidArgument("usage: scuba_cli fsck <dir> [--json]"));
  }
  Result<FsckReport> report = FsckDurableDir(dir);
  if (!report.ok()) return Fail(report.status());
  std::printf("%s\n",
              json ? report->ToJson().c_str() : report->ToString().c_str());
  return report->exit_code;
}

/// Region for the serving commands: --region "minx,miny,maxx,maxy" wins,
/// else the road network's bounds (arming the validator's map checks), else
/// the RegionFromTrace default box. The server and any offline comparison
/// replay MUST resolve the same region or their engines diverge.
Result<Rect> ResolveServeRegion(const std::string& map_path,
                                const std::string& region_spec,
                                ValidatorConfig* vconfig) {
  if (!region_spec.empty()) {
    Rect r{};
    if (std::sscanf(region_spec.c_str(), "%lf,%lf,%lf,%lf", &r.min_x,
                    &r.min_y, &r.max_x, &r.max_y) != 4 ||
        r.min_x >= r.max_x || r.min_y >= r.max_y) {
      return Status::InvalidArgument(
          "--region wants minx,miny,maxx,maxy with min < max: " + region_spec);
    }
    return r;
  }
  if (!map_path.empty()) {
    Trace empty;
    return ResolveRegion(map_path, empty, vconfig);
  }
  return Rect{0, 0, 1000, 1000};
}

/// Long-lived subscription server (docs/ARCHITECTURE.md §14): clients
/// register continuous queries and stream update batches; every evaluation
/// round pushes per-session result deltas. Runs until a client sends
/// shutdown (or a fatal engine/durability error), then prints serve stats
/// and the final state hash — comparable against an offline `run` of the
/// same stream.
int CmdServe(const Flags& flags) {
  std::string engine_name = flags.GetString("engine", "scuba");
  std::string map_path = flags.GetString("map", "");
  std::string region_spec = flags.GetString("region", "");
  std::string policy_name = flags.GetString("on-bad-update", "strict");
  std::string durable_dir = flags.GetString("durable-dir", "");
  std::string port_file = flags.GetString("port-file", "");
  serve::ServeOptions serve_opt;
  serve_opt.port = flags.GetUnsigned<uint16_t>("port", 0);
  serve_opt.max_sessions =
      flags.GetUnsigned<uint32_t>("max-sessions", 64);
  serve_opt.max_queue_bytes =
      flags.GetUnsigned<size_t>("max-queue-bytes", 1 << 20);
  serve_opt.memory_budget_bytes =
      flags.GetUnsigned<size_t>("serve-memory-budget", 0);
  Result<serve::SlowConsumerPolicy> slow = serve::ParseSlowConsumerPolicy(
      flags.GetString("slow-consumer", "coalesce"));
  if (!slow.ok()) return Fail(slow.status());
  serve_opt.slow_consumer = *slow;
  Result<CrashInjector> crash = CrashInjectorFromFlags(flags);
  if (!crash.ok()) return Fail(crash.status());
  Result<BadUpdatePolicy> policy = ParseBadUpdatePolicy(policy_name);
  if (!policy.ok()) return Fail(policy.status());

  ValidatorConfig vconfig;
  vconfig.policy = *policy;
  Result<Rect> region = ResolveServeRegion(map_path, region_spec, &vconfig);
  if (!region.ok()) return Fail(region.status());
  UpdateValidator validator(vconfig);
  UpdateValidator* screen =
      *policy == BadUpdatePolicy::kStrict ? nullptr : &validator;

  Result<ScubaOptions> opt = ScubaOptionsFromFlags(flags, *region, *policy);
  if (!opt.ok()) return Fail(opt.status());
  Status consumed = flags.Validate();
  if (!consumed.ok()) return Fail(consumed);

  Result<EngineHandle> handle = MakeEngine(*opt, engine_name);
  if (!handle.ok()) return Fail(handle.status());
  Result<DurabilityHandle> durability = OpenDurability(
      durable_dir, *opt, &*handle, screen, vconfig, &*crash);
  if (!durability.ok()) return Fail(durability.status());

  // With telemetry on, serve metrics register on the engine registry so the
  // scuba_serve_* family rides the per-round JSONL stream (schema v4).
  EngineTelemetry* telemetry =
      handle->scuba != nullptr ? handle->scuba->telemetry() : nullptr;
  serve::ServerDeps deps;
  deps.engine = handle->engine.get();
  deps.screen = screen;
  deps.durability = durability->sink.get();
  deps.registry = telemetry != nullptr ? &telemetry->registry() : nullptr;
  Result<std::unique_ptr<serve::ScubaServer>> server =
      serve::ScubaServer::Create(serve_opt, deps);
  if (!server.ok()) return Fail(server.status());
  if (Status s = (*server)->Start(); !s.ok()) return Fail(s);
  std::printf("serving %s on 127.0.0.1:%u (protocol v%u, slow-consumer=%s)\n",
              std::string(handle->engine->name()).c_str(), (*server)->port(),
              serve::kProtocolVersion,
              std::string(serve::SlowConsumerPolicyName(serve_opt.slow_consumer))
                  .c_str());
  std::fflush(stdout);
  if (!port_file.empty()) {
    // Written after listen(), so a reader that sees the file can connect.
    Status s = WriteFile(port_file, std::to_string((*server)->port()));
    if (!s.ok()) {
      (*server)->RequestStop();
      return Fail(s);
    }
  }
  Status s = (*server)->Wait();
  if (!s.ok()) return Fail(s);
  const serve::ServerStats st = (*server)->stats();
  if (Status ft = handle->FlushTelemetry(); !ft.ok()) return Fail(ft);
  std::printf(
      "serve: sessions=%llu batches=%llu rounds=%llu deltas=%llu "
      "coalesces=%llu disconnects=%llu last-round-matches=%llu%s\n",
      static_cast<unsigned long long>(st.sessions_accepted),
      static_cast<unsigned long long>(st.batches),
      static_cast<unsigned long long>(st.rounds),
      static_cast<unsigned long long>(st.deltas_pushed),
      static_cast<unsigned long long>(st.coalesces),
      static_cast<unsigned long long>(st.disconnects),
      static_cast<unsigned long long>(st.last_round_matches),
      st.last_round_degraded ? " (degraded)" : "");
  if (screen != nullptr) {
    std::printf("validator: %s\n", screen->FormatStats().c_str());
  }
  PrintStateHash(handle->StateHash());
  return 0;
}

/// Drives a running server with a recorded trace over the client library:
/// one update batch per trace tick, evaluating at the same --delta
/// boundaries ReplayTrace uses, folding every pushed delta. With
/// --compare-offline (default) the folded stream is then checked round by
/// round against an in-process offline replay of the same trace — the
/// loopback determinism contract — and the offline engine's state hash is
/// printed for comparison with the server's. --shutdown stops the server
/// afterwards (it then prints ITS state hash).
int CmdServeReplay(const Flags& flags) {
  std::string trace_path = flags.GetString("trace", "run.trace");
  std::string map_path = flags.GetString("map", "");
  std::string policy_name = flags.GetString("on-bad-update", "strict");
  Timestamp delta = flags.GetInt("delta", 2);
  int port = flags.GetUnsigned<uint16_t>("port", 0);
  std::string port_file = flags.GetString("port-file", "");
  const bool shutdown = flags.GetBool("shutdown", false);
  const bool compare = flags.GetBool("compare-offline", true);
  if (delta <= 0) {
    return Fail(Status::InvalidArgument("delta must be positive"));
  }

  Result<BadUpdatePolicy> policy = ParseBadUpdatePolicy(policy_name);
  if (!policy.ok()) return Fail(policy.status());
  Result<Trace> trace = LoadTrace(trace_path);
  if (!trace.ok()) return Fail(trace.status());
  ValidatorConfig vconfig;
  vconfig.policy = *policy;
  Result<Rect> region = ResolveRegion(map_path, *trace, &vconfig);
  if (!region.ok()) return Fail(region.status());
  Result<ScubaOptions> opt = ScubaOptionsFromFlags(flags, *region, *policy);
  if (!opt.ok()) return Fail(opt.status());
  Status consumed = flags.Validate();
  if (!consumed.ok()) return Fail(consumed);

  if (port == 0) {
    if (port_file.empty()) {
      return Fail(Status::InvalidArgument("need --port or --port-file"));
    }
    // The server writes the file only once it is listening; poll for it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (true) {
      Result<std::string> text = ReadFile(port_file);
      if (text.ok() && !text->empty()) {
        port = std::atoi(text->c_str());
        if (port > 0) break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        return Fail(Status::IoError("timed out waiting for " + port_file));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  serve::ScubaClient::Options copt;
  copt.name = "serve-replay";
  Result<serve::ScubaClient> client =
      serve::ScubaClient::Connect(static_cast<uint16_t>(port), copt);
  if (!client.ok()) return Fail(client.status());
  if (Status s = client->SubscribeAll(); !s.ok()) return Fail(s);

  // Replay: one kUpdateBatch per trace tick; the client owns the evaluate
  // flag, so rounds close at exactly the offline ReplayTrace boundaries.
  std::vector<ResultSet> served;
  for (size_t i = 0; i < trace->TickCount(); ++i) {
    const TickBatch& batch = trace->batch(i);
    serve::UpdateBatchMsg msg;
    msg.time = batch.time;
    msg.evaluate = (i + 1) % static_cast<size_t>(delta) == 0;
    msg.objects = batch.object_updates;
    msg.queries = batch.query_updates;
    Result<serve::TickAckMsg> ack = client->SendBatch(msg);
    if (!ack.ok()) return Fail(ack.status());
    if (msg.evaluate) served.push_back(client->folded());
  }
  std::printf(
      "serve-replay: %zu batches, %zu rounds, %llu deltas "
      "(%llu coalesced snapshots), %llu result bytes, final fold %zu "
      "matches\n",
      trace->TickCount(), served.size(),
      static_cast<unsigned long long>(client->deltas_received()),
      static_cast<unsigned long long>(client->coalesced_snapshots()),
      static_cast<unsigned long long>(client->result_bytes_received()),
      client->folded().size());

  int exit_code = 0;
  if (compare) {
    UpdateValidator validator(vconfig);
    UpdateValidator* screen =
        *policy == BadUpdatePolicy::kStrict ? nullptr : &validator;
    Result<EngineHandle> offline = MakeEngine(*opt, "scuba");
    if (!offline.ok()) return Fail(offline.status());
    size_t round = 0;
    size_t mismatched_round = 0;
    ResultSet last_offline;
    Status s = ReplayTrace(
        *trace, offline->engine.get(), delta,
        [&](Timestamp, const ResultSet& r) {
          if (round < served.size() && mismatched_round == 0 &&
              !(served[round] == r)) {
            mismatched_round = round + 1;
          }
          last_offline = r;
          ++round;
        },
        screen, nullptr);
    if (!s.ok()) return Fail(s);
    // A coalesced snapshot legally skips rounds, so per-round comparison
    // only binds when the delta stream arrived whole; the final fold must
    // match either way.
    const bool whole_stream = client->coalesced_snapshots() == 0;
    if (round != served.size() && whole_stream) {
      std::fprintf(stderr, "offline replay ran %zu rounds, server %zu\n",
                   round, served.size());
      exit_code = static_cast<int>(StatusCode::kInternal);
    } else if (whole_stream && mismatched_round != 0) {
      std::fprintf(stderr,
                   "served delta stream diverges from offline replay at "
                   "round %zu\n",
                   mismatched_round);
      exit_code = static_cast<int>(StatusCode::kInternal);
    } else if (!(client->folded() == last_offline)) {
      std::fprintf(stderr, "final fold diverges from offline replay\n");
      exit_code = static_cast<int>(StatusCode::kInternal);
    } else {
      std::printf(
          "serve-replay: folded delta stream matches offline replay "
          "(%zu rounds%s)\n",
          round, whole_stream ? "" : ", final fold only after coalesce");
    }
    PrintStateHash(offline->StateHash());
  }

  Status s = shutdown ? client->Shutdown() : client->Bye();
  if (!s.ok()) return Fail(s);
  return exit_code;
}

/// Prints every metric the engine and the serve layer can expose, one JSON
/// line each ({"name","kind","help"}): a collect-only engine's registry (the
/// metric table, the join-task histogram and the window health family,
/// here for one window) with the serve metrics registered beside them.
/// tools/check_telemetry.py --schema reads it.
int CmdMetricsSchema(const Flags& flags) {
  if (Status s = flags.Validate(); !s.ok()) return Fail(s);
  ScubaOptions opt;
  opt.telemetry.enabled = true;
  Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
  if (!engine.ok()) return Fail(engine.status());
  MetricsRegistry& registry = (*engine)->telemetry()->registry();
  serve::ServeMetrics::Register(&registry);
  for (const MetricSnapshot& m : registry.Snapshot()) {
    std::printf("{\"name\":\"%s\",\"kind\":\"%s\",\"help\":\"%s\"}\n",
                JsonEscape(m.name).c_str(),
                std::string(MetricKindName(m.kind)).c_str(),
                JsonEscape(m.help).c_str());
  }
  return 0;
}

int Usage() {
  std::printf(
      "scuba_cli — continuous spatio-temporal query engine toolbox\n\n"
      "commands:\n"
      "  generate-map    --out FILE [--rows N --cols N --block F --arterial N\n"
      "                  --highway N --jitter F --seed N]\n"
      "  generate-trace  --out FILE [--map FILE --objects N --queries N\n"
      "                  --skew N --ticks N --update-fraction F\n"
      "                  --mixed-fraction F --min-range F --max-range F\n"
      "                  --query-filter F --seed N]\n"
      "  run             --trace FILE [--engine scuba|grid|naive --delta N\n"
      "                  --grid-cells N --theta-d F --theta-s F --eta F\n"
      "                  --threads N (0 = all cores)\n"
      "                  --shards N --splitting --quiet --csv FILE\n"
      "                  --map FILE\n"
      "                  --on-bad-update strict|quarantine|repair\n"
      "                  --audit-every N --durable-dir DIR\n"
      "                  --checkpoint-every N --keep-last K\n"
      "                  --crash-at POINT --crash-after N\n"
      "                  --metrics-out FILE.jsonl --trace-out FILE.jsonl\n"
      "                  --on-shard-failure fail|degrade|reassign\n"
      "                  --shard-max-recovery-attempts N\n"
      "                  --shard-backoff-rounds N --shard-round-deadline F\n"
      "                  --shard-fault-seed N --shard-fault-rate F\n"
      "                  --shard-fault-spec ROUND:SHARD:CLASS[,...]]\n"
      "  checkpoint      --trace FILE --durable-dir DIR [run options]\n"
      "  restore         --trace FILE --durable-dir DIR [run options]\n"
      "  recover         --trace FILE --durable-dir DIR [--json]\n"
      "                  [run options]\n"
      "  fsck            DIR [--json] (read-only; exit 0 clean, 20-25 per\n"
      "                  damage class)\n"
      "  serve           [--port N (0 = ephemeral) --port-file FILE\n"
      "                  --map FILE | --region X0,Y0,X1,Y1\n"
      "                  --max-sessions N --max-queue-bytes N\n"
      "                  --slow-consumer coalesce|disconnect\n"
      "                  --serve-memory-budget BYTES + run options]\n"
      "  serve-replay    --trace FILE (--port N | --port-file FILE)\n"
      "                  [--delta N --map FILE --shutdown\n"
      "                  --compare-offline BOOL + run options]\n"
      "  compare         --trace FILE [--delta N --eta F --threads N\n"
      "                  --shards N]\n"
      "  render          --trace FILE --out FILE.svg [--delta N --width PX]\n"
      "  corrupt-trace   --trace FILE --out FILE [--rate F --seed N\n"
      "                  --burst-size N]\n"
      "  metrics-schema  (one JSON line per metric: name, kind, help)\n\n"
      "run with --durable-dir WAL-logs every admitted batch (one record per\n"
      "batch in DIR/wal) and commits a manifest checkpoint generation every\n"
      "--checkpoint-every rounds; recover rebuilds the engine from the\n"
      "newest verified generation + WAL replay, then finishes the trace. A\n"
      "directory written at one window count recovers into any other; one in\n"
      "a retired layout (single-engine, or per-shard WAL chains) is refused\n"
      "(exit 5).\n"
      "--crash-at points: before-wal-append mid-wal-append after-wal-append\n"
      "before-snapshot-write mid-shard-snapshot-write before-manifest-rename\n"
      "torn-manifest-rename after-manifest-rename mid-manifest-prune\n"
      "--metrics-out / --trace-out (scuba engine only) append one JSON line\n"
      "per round: metric deltas and phase span trees; metrics ends with a\n"
      "Prometheus exposition line. Telemetry never changes results.\n"
      "--shards N scans the join as N windows of whole grid rows (default 1)\n"
      "over one store and grid, with bit-identical results.\n"
      "--on-shard-failure degrade|reassign isolates a failing window instead\n"
      "of failing the round: the round completes degraded (the failed window\n"
      "serves its last published results), online recovery rebuilds the\n"
      "engine state from --durable-dir between rounds with exponential\n"
      "backoff, and reassign hands an unrecoverable window's rows to the\n"
      "others. --shard-fault-*\n"
      "arm the deterministic fault injector (classes: task-failure\n"
      "corrupt-state stall recovery-failure) for chaos drills.\n"
      "serve runs the subscription front-end (protocol v1, length+CRC framed\n"
      "binary over loopback TCP): sessions register/cancel continuous\n"
      "queries, stream update batches and receive per-round result deltas;\n"
      "slow consumers are coalesced to one snapshot or disconnected under a\n"
      "bounded per-session queue. serve-replay drives a server with a trace\n"
      "through the client library and verifies the folded delta stream\n"
      "against an in-process offline replay; with --shutdown the server\n"
      "exits and prints its state hash for comparison.\n");
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "fsck") return CmdFsck(argc, argv);
  Result<Flags> flags = Flags::Parse(argc, argv, 2);
  if (!flags.ok()) return Fail(flags.status());
  if (command == "generate-map") return CmdGenerateMap(*flags);
  if (command == "generate-trace") return CmdGenerateTrace(*flags);
  if (command == "run") return CmdRun(*flags);
  if (command == "checkpoint") return CmdCheckpoint(*flags);
  if (command == "restore") return CmdRestore(*flags);
  if (command == "recover") return CmdRecover(*flags);
  if (command == "serve") return CmdServe(*flags);
  if (command == "serve-replay") return CmdServeReplay(*flags);
  if (command == "compare") return CmdCompare(*flags);
  if (command == "render") return CmdRender(*flags);
  if (command == "corrupt-trace") return CmdCorruptTrace(*flags);
  if (command == "metrics-schema") return CmdMetricsSchema(*flags);
  return Usage();
}

}  // namespace
}  // namespace scuba::cli

int main(int argc, char** argv) { return scuba::cli::Main(argc, argv); }
