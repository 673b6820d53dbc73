// Durability-overhead benchmark (docs/ARCHITECTURE.md §8): replays the §6.1
// workload three ways — no durability, WAL-only, WAL + checkpoint cadence —
// and reports the WAL append tax over the baseline, checkpoint write latency
// and size, cold Restore latency, and RecoverEngine's WAL-replay
// throughput, at one join window and at four.
// Durability must never change the answer: every run's result count is
// asserted equal to the baseline, and the restored/recovered engines must
// hash identical to the engines they replace. Writes BENCH_checkpoint.json
// so the durability cost trajectory is machine-readable across PRs.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "core/scuba_engine.h"
#include "persist/durability.h"
#include "persist/snapshot.h"
#include "stream/pipeline.h"

namespace scuba::bench {
namespace {

namespace fs = std::filesystem;

/// One durable replay: wall time, answer size, and the engine's durability
/// counters plus its deterministic state hash at end-of-trace.
struct DurableOutcome {
  double wall_seconds = 0.0;
  uint64_t total_results = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t checkpoints_written = 0;
  uint64_t last_checkpoint_bytes = 0;
  double last_checkpoint_seconds = 0.0;
  double total_checkpoint_seconds = 0.0;
  uint64_t state_hash = 0;
  size_t clusters = 0;
};

ScubaOptions MakeOptions(const ExperimentData& data,
                         const CheckpointPolicy& policy) {
  ScubaOptions options;
  options.region = data.region;
  options.delta = 2;
  options.checkpoint = policy;
  return options;
}

/// One durable replay of the trace: one WAL (one record and one fsync per
/// batch at any window count) under manifest-committed checkpoint
/// generations, each one snapshot plus the manifest naming it.
DurableOutcome RunDurable(const ExperimentData& data, const std::string& dir,
                          const CheckpointPolicy& policy, uint32_t shards = 1) {
  ScubaOptions options = MakeOptions(data, policy);
  options.shards = shards;
  Result<std::unique_ptr<ScubaEngine>> engine =
      ScubaEngine::Create(options);
  SCUBA_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  Result<std::unique_ptr<DurabilityManager>> durability =
      DurabilityManager::Open(dir, policy, engine->get(),
                              /*validator=*/nullptr,
                              /*crash=*/nullptr);
  SCUBA_CHECK_MSG(durability.ok(), durability.status().ToString().c_str());

  DurableOutcome out;
  ResultSink sink = [&out](Timestamp, const ResultSet& results) {
    out.total_results += results.size();
  };
  Stopwatch watch;
  Status run = ReplayTrace(data.trace, engine->get(), /*delta=*/2, sink,
                           /*validator=*/nullptr, durability->get());
  out.wall_seconds = watch.ElapsedSeconds();
  SCUBA_CHECK_MSG(run.ok(), run.ToString().c_str());

  const EvalStats stats = (*engine)->StatsSnapshot().eval;
  out.wal_records = stats.wal_records_appended;
  out.wal_bytes = stats.wal_bytes_appended;
  out.wal_fsyncs = stats.wal_fsyncs;
  out.checkpoints_written = stats.checkpoints_written;
  out.last_checkpoint_bytes = stats.last_checkpoint_bytes;
  out.last_checkpoint_seconds = stats.last_checkpoint_seconds;
  out.total_checkpoint_seconds = stats.total_checkpoint_seconds;
  out.state_hash = EngineStateHash(**engine);
  out.clusters = (*engine)->ClusterCount();
  return out;
}

int Main() {
  PrintBanner("checkpoint",
              "durability overhead: WAL append, snapshot write/restore, "
              "recovery replay");
  BenchScale scale = ReadScale();
  ExperimentConfig config = DefaultConfig(/*skew=*/100);
  ExperimentData data = BuildOrDie(config);

  const fs::path root = fs::current_path() / "bench_checkpoint.tmp";
  std::error_code ec;
  fs::remove_all(root, ec);
  const std::string wal_dir = (root / "wal-only").string();
  const std::string ckpt_dir = (root / "checkpointed").string();
  const std::string sharded_dir = (root / "sharded").string();

  // 1. Baseline: the identical replay with durability disabled.
  BenchOutcome base = RunScuba(data, /*delta=*/2);
  std::printf("%-14s %10s %12s %14s %11s %12s\n", "mode", "wall(s)",
              "overhead", "wal bytes", "wal fsyncs", "checkpoints");
  std::printf("%-14s %10.4f %11s%% %14s %11s %12s\n", "baseline",
              base.wall_seconds, "-", "-", "-", "-");

  // 2. WAL-only: every admitted batch fsynced to the log, no snapshots.
  CheckpointPolicy wal_policy;
  wal_policy.every_n_rounds = 0;
  DurableOutcome wal = RunDurable(data, wal_dir, wal_policy);
  double wal_overhead_pct =
      base.wall_seconds > 0.0
          ? (wal.wall_seconds / base.wall_seconds - 1.0) * 100.0
          : 0.0;
  std::printf("%-14s %10.4f %11.1f%% %14llu %11llu %12llu\n", "wal-only",
              wal.wall_seconds, wal_overhead_pct,
              static_cast<unsigned long long>(wal.wal_bytes),
              static_cast<unsigned long long>(wal.wal_fsyncs),
              static_cast<unsigned long long>(wal.checkpoints_written));
  SCUBA_CHECK_MSG(wal.total_results == base.total_results,
                  "WAL logging must not change the answer");
  SCUBA_CHECK_MSG(wal.wal_records > 0, "WAL-only run appended no records");

  // 3. WAL + snapshots every other round, pruned to the last two.
  CheckpointPolicy ckpt_policy;
  ckpt_policy.every_n_rounds = 2;
  ckpt_policy.keep_last_k = 2;
  DurableOutcome ckpt = RunDurable(data, ckpt_dir, ckpt_policy);
  double ckpt_overhead_pct =
      base.wall_seconds > 0.0
          ? (ckpt.wall_seconds / base.wall_seconds - 1.0) * 100.0
          : 0.0;
  std::printf("%-14s %10.4f %11.1f%% %14llu %11llu %12llu\n", "checkpointed",
              ckpt.wall_seconds, ckpt_overhead_pct,
              static_cast<unsigned long long>(ckpt.wal_bytes),
              static_cast<unsigned long long>(ckpt.wal_fsyncs),
              static_cast<unsigned long long>(ckpt.checkpoints_written));
  SCUBA_CHECK_MSG(ckpt.total_results == base.total_results,
                  "checkpointing must not change the answer");
  SCUBA_CHECK_MSG(ckpt.checkpoints_written > 0, "no snapshots were written");

  // 3b. The same policy over 4 join windows: same answer, same state hash
  // and the same WAL (one record and one fsync per batch) as the one-window
  // run.
  constexpr uint32_t kBenchShards = 4;
  DurableOutcome sharded =
      RunDurable(data, sharded_dir, ckpt_policy, kBenchShards);
  double sharded_overhead_pct =
      base.wall_seconds > 0.0
          ? (sharded.wall_seconds / base.wall_seconds - 1.0) * 100.0
          : 0.0;
  std::printf("%-14s %10.4f %11.1f%% %14llu %11llu %12llu\n", "sharded(4)",
              sharded.wall_seconds, sharded_overhead_pct,
              static_cast<unsigned long long>(sharded.wal_bytes),
              static_cast<unsigned long long>(sharded.wal_fsyncs),
              static_cast<unsigned long long>(sharded.checkpoints_written));
  SCUBA_CHECK_MSG(sharded.total_results == base.total_results,
                  "join windows must not change the durable answer");
  SCUBA_CHECK_MSG(sharded.state_hash == ckpt.state_hash,
                  "4-window durable run diverged from the one-window run");
  SCUBA_CHECK_MSG(sharded.checkpoints_written > 0,
                  "4-window run wrote no checkpoint generations");
  SCUBA_CHECK_MSG(sharded.wal_fsyncs == ckpt.wal_fsyncs &&
                      sharded.wal_bytes == ckpt.wal_bytes,
                  "the WAL does not depend on the window count");

  // 4. Cold restore of the newest generation into a fresh engine.
  ScubaOptions restore_options = MakeOptions(data, ckpt_policy);
  Result<std::unique_ptr<ScubaEngine>> restored =
      ScubaEngine::Create(restore_options);
  SCUBA_CHECK_MSG(restored.ok(), restored.status().ToString().c_str());
  Stopwatch restore_watch;
  Status restore = (*restored)->Restore(ckpt_dir);
  const double restore_seconds = restore_watch.ElapsedSeconds();
  SCUBA_CHECK_MSG(restore.ok(), restore.ToString().c_str());
  std::printf("\nsnapshot: %llu bytes, write %.4fs, restore %.4fs (%zu "
              "clusters)\n",
              static_cast<unsigned long long>(ckpt.last_checkpoint_bytes),
              ckpt.last_checkpoint_seconds, restore_seconds,
              (*restored)->ClusterCount());

  // 5. Recovery replay throughput: rebuild the WAL-only run purely from its
  // log (no snapshot exists, so every record is re-ingested/re-evaluated).
  ScubaOptions recover_options = MakeOptions(data, wal_policy);
  Result<std::unique_ptr<ScubaEngine>> recovered =
      ScubaEngine::Create(recover_options);
  SCUBA_CHECK_MSG(recovered.ok(), recovered.status().ToString().c_str());
  uint64_t recovered_results = 0;
  ResultSink recover_sink = [&recovered_results](Timestamp,
                                                 const ResultSet& results) {
    recovered_results += results.size();
  };
  Stopwatch recover_watch;
  Result<RecoveryReport> report =
      RecoverEngine(wal_dir, recovered->get(), /*validator=*/nullptr,
                    recover_sink);
  const double recover_seconds = recover_watch.ElapsedSeconds();
  SCUBA_CHECK_MSG(report.ok(), report.status().ToString().c_str());
  // One WAL record per batch.
  SCUBA_CHECK_MSG(report->batches_replayed == wal.wal_records,
                  "recovery must replay every WAL record");
  SCUBA_CHECK_MSG(recovered_results == wal.total_results,
                  "WAL replay must reproduce the original answer");
  SCUBA_CHECK_MSG(EngineStateHash(**recovered) == wal.state_hash,
                  "recovered engine state diverged from the original run");
  const double records_per_second =
      recover_seconds > 0.0
          ? static_cast<double>(report->batches_replayed) / recover_seconds
          : 0.0;
  std::printf("recovery: %llu records / %llu rounds in %.4fs (%.0f "
              "records/s), state hash ok\n",
              static_cast<unsigned long long>(report->batches_replayed),
              static_cast<unsigned long long>(report->rounds_replayed),
              recover_seconds, records_per_second);

  // 6. Recovery into a DIFFERENT window count: newest committed generation
  // + WAL replay, pricing re-partition.
  ScubaOptions sharded_recover_options = MakeOptions(data, ckpt_policy);
  sharded_recover_options.shards = 2;
  Result<std::unique_ptr<ScubaEngine>> sharded_recovered =
      ScubaEngine::Create(sharded_recover_options);
  SCUBA_CHECK_MSG(sharded_recovered.ok(),
                  sharded_recovered.status().ToString().c_str());
  Stopwatch sharded_recover_watch;
  Result<RecoveryReport> sharded_report = RecoverEngine(
      sharded_dir, sharded_recovered->get(), /*validator=*/nullptr);
  const double sharded_recover_seconds =
      sharded_recover_watch.ElapsedSeconds();
  SCUBA_CHECK_MSG(sharded_report.ok(),
                  sharded_report.status().ToString().c_str());
  SCUBA_CHECK_MSG(EngineStateHash(**sharded_recovered) == sharded.state_hash,
                  "recovery from 4 into 2 join windows diverged");
  std::printf("recovery (4 -> 2 windows): generation %llu + %llu "
              "batches in %.4fs, state hash ok\n",
              static_cast<unsigned long long>(sharded_report->generation),
              static_cast<unsigned long long>(sharded_report->batches_replayed),
              sharded_recover_seconds);

  JsonWriter json;
  json.Str("bench", "checkpoint");
  json.Object("workload");
  json.Int("objects", scale.objects);
  json.Int("queries", scale.queries);
  json.Int("ticks", scale.ticks);
  json.Close();
  json.Object("baseline");
  json.Num("wall_seconds", base.wall_seconds, 6);
  json.Int("results", base.total_results);
  json.Close();
  json.Object("wal_only");
  json.Num("wall_seconds", wal.wall_seconds, 6);
  json.Num("overhead_pct", wal_overhead_pct, 2);
  json.Int("records", wal.wal_records);
  json.Int("bytes", wal.wal_bytes);
  json.Int("fsyncs", wal.wal_fsyncs);
  json.Close();
  json.Object("checkpointed");
  json.Num("wall_seconds", ckpt.wall_seconds, 6);
  json.Num("overhead_pct", ckpt_overhead_pct, 2);
  json.Int("fsyncs", ckpt.wal_fsyncs);
  json.Int("checkpoints", ckpt.checkpoints_written);
  json.Int("last_snapshot_bytes", ckpt.last_checkpoint_bytes);
  json.Num("last_snapshot_seconds", ckpt.last_checkpoint_seconds, 6);
  json.Num("total_snapshot_seconds", ckpt.total_checkpoint_seconds, 6);
  json.Close();
  json.Object("sharded");
  json.Int("shards", kBenchShards);
  json.Num("wall_seconds", sharded.wall_seconds, 6);
  json.Num("overhead_pct", sharded_overhead_pct, 2);
  json.Int("wal_bytes", sharded.wal_bytes);
  json.Int("fsyncs", sharded.wal_fsyncs);
  json.Int("checkpoints", sharded.checkpoints_written);
  json.Num("recover_seconds", sharded_recover_seconds, 6);
  json.Int("recover_shards", 2);
  json.Close();
  json.Object("restore");
  json.Num("seconds", restore_seconds, 6);
  json.Int("clusters", (*restored)->ClusterCount());
  json.Close();
  json.Object("recovery");
  json.Num("seconds", recover_seconds, 6);
  json.Int("records_replayed", report->batches_replayed);
  json.Int("rounds_replayed", report->rounds_replayed);
  json.Num("records_per_second", records_per_second, 0);
  json.Close();
  json.Save("BENCH_checkpoint.json");

  fs::remove_all(root, ec);
  return 0;
}

}  // namespace
}  // namespace scuba::bench

int main() { return scuba::bench::Main(); }
