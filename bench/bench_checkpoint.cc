// Durability-overhead benchmark (docs/ARCHITECTURE.md §8): replays the §6.1
// workload three ways — no durability, WAL-only, WAL + checkpoint cadence —
// and reports the WAL append tax over the baseline, checkpoint write latency
// and size, cold Restore latency, and RecoverShardedEngine's WAL-replay
// throughput, at one shard and at four.
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
#include "shard/shard_durability.h"
#include "core/scuba_engine.h"
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
/// batch at any shard count) under manifest-committed checkpoint
/// generations.
DurableOutcome RunDurable(const ExperimentData& data, const std::string& dir,
                          const CheckpointPolicy& policy, uint32_t shards = 1) {
  ScubaOptions options = MakeOptions(data, policy);
  options.shards = shards;
  Result<std::unique_ptr<ScubaEngine>> engine =
      ScubaEngine::Create(options);
  SCUBA_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());
  Result<std::unique_ptr<ShardedDurabilityManager>> durability =
      ShardedDurabilityManager::Open(dir, policy, engine->get(),
                                     /*validator=*/nullptr, /*rng=*/nullptr,
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

  // 3b. The same policy over 4 shards: same answer, same state hash and the
  // same WAL (one record and one fsync per batch) as the one-shard run.
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
                  "sharded durability must not change the answer");
  SCUBA_CHECK_MSG(sharded.state_hash == ckpt.state_hash,
                  "4-shard durable run diverged from the one-shard run");
  SCUBA_CHECK_MSG(sharded.checkpoints_written > 0,
                  "sharded run wrote no checkpoint generations");
  SCUBA_CHECK_MSG(sharded.wal_fsyncs == ckpt.wal_fsyncs &&
                      sharded.wal_bytes == ckpt.wal_bytes,
                  "the WAL must not depend on the shard count");

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
  Result<ShardedRecoveryReport> report =
      RecoverShardedEngine(wal_dir, recovered->get(), /*validator=*/nullptr,
                           /*rng=*/nullptr, recover_sink);
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

  // 6. Sharded recovery: newest committed generation + WAL replay, restored
  // into a DIFFERENT shard count to price re-partition.
  ScubaOptions sharded_recover_options = MakeOptions(data, ckpt_policy);
  sharded_recover_options.shards = 2;
  Result<std::unique_ptr<ScubaEngine>> sharded_recovered =
      ScubaEngine::Create(sharded_recover_options);
  SCUBA_CHECK_MSG(sharded_recovered.ok(),
                  sharded_recovered.status().ToString().c_str());
  Stopwatch sharded_recover_watch;
  Result<ShardedRecoveryReport> sharded_report = RecoverShardedEngine(
      sharded_dir, sharded_recovered->get(), /*validator=*/nullptr,
      /*rng=*/nullptr);
  const double sharded_recover_seconds =
      sharded_recover_watch.ElapsedSeconds();
  SCUBA_CHECK_MSG(sharded_report.ok(),
                  sharded_report.status().ToString().c_str());
  SCUBA_CHECK_MSG(EngineStateHash(**sharded_recovered) == sharded.state_hash,
                  "sharded recovery (4 -> 2 shards) diverged");
  std::printf("sharded recovery (4 -> 2 shards): generation %llu + %llu "
              "batches in %.4fs, state hash ok\n",
              static_cast<unsigned long long>(sharded_report->generation),
              static_cast<unsigned long long>(sharded_report->batches_replayed),
              sharded_recover_seconds);

  const char* path = "BENCH_checkpoint.json";
  std::FILE* json = std::fopen(path, "w");
  SCUBA_CHECK_MSG(json != nullptr, "cannot open BENCH_checkpoint.json");
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"checkpoint\",\n"
               "  \"workload\": {\"objects\": %u, \"queries\": %u, "
               "\"ticks\": %d},\n"
               "  \"baseline\": {\"wall_seconds\": %.6f, \"results\": %llu},\n",
               scale.objects, scale.queries, scale.ticks, base.wall_seconds,
               static_cast<unsigned long long>(base.total_results));
  std::fprintf(
      json,
      "  \"wal_only\": {\"wall_seconds\": %.6f, \"overhead_pct\": %.2f, "
      "\"records\": %llu, \"bytes\": %llu, \"fsyncs\": %llu},\n",
      wal.wall_seconds, wal_overhead_pct,
      static_cast<unsigned long long>(wal.wal_records),
      static_cast<unsigned long long>(wal.wal_bytes),
      static_cast<unsigned long long>(wal.wal_fsyncs));
  std::fprintf(
      json,
      "  \"checkpointed\": {\"wall_seconds\": %.6f, \"overhead_pct\": %.2f, "
      "\"fsyncs\": %llu, \"checkpoints\": %llu, \"last_snapshot_bytes\": %llu, "
      "\"last_snapshot_seconds\": %.6f, \"total_snapshot_seconds\": %.6f},\n",
      ckpt.wall_seconds, ckpt_overhead_pct,
      static_cast<unsigned long long>(ckpt.wal_fsyncs),
      static_cast<unsigned long long>(ckpt.checkpoints_written),
      static_cast<unsigned long long>(ckpt.last_checkpoint_bytes),
      ckpt.last_checkpoint_seconds, ckpt.total_checkpoint_seconds);
  std::fprintf(
      json,
      "  \"sharded\": {\"shards\": %u, \"wall_seconds\": %.6f, "
      "\"overhead_pct\": %.2f, \"wal_bytes\": %llu, \"fsyncs\": %llu, "
      "\"checkpoints\": %llu, \"recover_seconds\": %.6f, "
      "\"recover_shards\": 2},\n",
      kBenchShards, sharded.wall_seconds, sharded_overhead_pct,
      static_cast<unsigned long long>(sharded.wal_bytes),
      static_cast<unsigned long long>(sharded.wal_fsyncs),
      static_cast<unsigned long long>(sharded.checkpoints_written),
      sharded_recover_seconds);
  std::fprintf(json,
               "  \"restore\": {\"seconds\": %.6f, \"clusters\": %zu},\n",
               restore_seconds, (*restored)->ClusterCount());
  std::fprintf(
      json,
      "  \"recovery\": {\"seconds\": %.6f, \"records_replayed\": %llu, "
      "\"rounds_replayed\": %llu, \"records_per_second\": %.0f}\n"
      "}\n",
      recover_seconds, static_cast<unsigned long long>(report->batches_replayed),
      static_cast<unsigned long long>(report->rounds_replayed),
      records_per_second);
  std::fclose(json);
  std::printf("wrote %s\n", path);

  fs::remove_all(root, ec);
  return 0;
}

}  // namespace
}  // namespace scuba::bench

int main() { return scuba::bench::Main(); }
