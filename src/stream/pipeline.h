// StreamPipeline: the minimal stream-execution shell standing in for the
// CAPE system the paper implemented SCUBA inside (DESIGN.md substitutions).
//
// Wires an update source (live ObjectSimulator or recorded Trace) to a
// QueryProcessor: each tick the source's updates are ingested; every Delta
// ticks the engine evaluates and the result sink is invoked.

#ifndef SCUBA_STREAM_PIPELINE_H_
#define SCUBA_STREAM_PIPELINE_H_

#include <functional>
#include <span>

#include "core/query_processor.h"
#include "gen/object_simulator.h"
#include "gen/trace.h"
#include "stream/clock.h"
#include "stream/update_validator.h"

namespace scuba {

/// Called after each evaluation round with the evaluation time and results.
using ResultSink = std::function<void(Timestamp, const ResultSet&)>;

/// Durability hooks the stream drivers call around ingestion. Implemented by
/// ShardedDurabilityManager (per-shard WAL append + periodic checkpoint
/// generations); declared here as an abstract interface so the stream layer
/// stays independent of persistence.
class DurabilitySink {
 public:
  virtual ~DurabilitySink() = default;

  /// Called with each batch AFTER validator screening and BEFORE ingestion —
  /// the write-ahead contract: a batch becomes durable first, then mutates
  /// the engine. `evaluate_after` records whether this batch closes an
  /// evaluation round, so WAL replay re-evaluates at the same boundaries.
  /// A failure (IO error, injected crash) aborts the run before ingestion.
  virtual Status LogBatch(Timestamp batch_time, bool evaluate_after,
                          std::span<const LocationUpdate> objects,
                          std::span<const QueryUpdate> queries) = 0;

  /// Called after each completed evaluation round (post-Evaluate, post-sink);
  /// the checkpoint cadence hook.
  virtual Status OnRoundComplete() = 0;
};

class StreamPipeline {
 public:
  /// Live mode: advances `simulator` itself. Both pointers must outlive the
  /// pipeline; delta must be positive; update_fraction must be a real number
  /// in [0, 1] (NaN is rejected, not silently admitted).
  ///
  /// `validator` (optional, must outlive the pipeline) screens every tick's
  /// batch before ingestion with the tick time as the regression floor; null
  /// preserves the unscreened legacy path exactly.
  ///
  /// `durability` (optional, must outlive the pipeline) receives every
  /// screened batch before ingestion and a round-complete signal after each
  /// evaluation (see DurabilitySink).
  static Result<StreamPipeline> Create(ObjectSimulator* simulator,
                                       QueryProcessor* engine, Timestamp delta,
                                       double update_fraction = 1.0,
                                       UpdateValidator* validator = nullptr,
                                       DurabilitySink* durability = nullptr);

  /// Runs `ticks` simulation ticks; evaluates every delta-th tick and feeds
  /// `sink` (may be null). Stops and returns the first engine error.
  Status RunTicks(int ticks, const ResultSink& sink = nullptr);

  Timestamp now() const { return clock_.now(); }
  uint64_t evaluations() const { return evaluations_; }

 private:
  StreamPipeline(ObjectSimulator* simulator, QueryProcessor* engine,
                 SimulationClock clock, double update_fraction,
                 UpdateValidator* validator, DurabilitySink* durability);

  ObjectSimulator* simulator_;
  QueryProcessor* engine_;
  SimulationClock clock_;
  double update_fraction_;
  UpdateValidator* validator_;  ///< Optional screen; null = legacy path.
  DurabilitySink* durability_;  ///< Optional WAL/checkpoint hooks.
  uint64_t evaluations_ = 0;
  std::vector<LocationUpdate> object_buffer_;
  std::vector<QueryUpdate> query_buffer_;
};

/// Trace mode: replays a recorded trace into `engine`, evaluating every
/// delta-th batch (batches are assumed to be consecutive ticks). Returns the
/// first engine error. `sink` may be null.
///
/// Batch timestamps must strictly increase. A non-monotonic batch fails with
/// kFailedPrecondition — unless `validator` is non-null and configured with
/// BadUpdatePolicy::kRepair, in which case the batch is resynced to one tick
/// past its predecessor and replay continues. A non-null validator also
/// screens every batch (with the batch's effective time as the regression
/// floor) before it reaches the engine.
///
/// `durability` (optional) receives every screened batch before ingestion
/// and a round-complete signal after each evaluation. `start_index` skips the
/// leading batches (recovery resumes a trace mid-stream after restoring a
/// checkpoint: the skipped prefix is already inside the engine). Round
/// boundaries stay aligned to the global batch index, exactly as if the
/// prefix had been replayed here.
Status ReplayTrace(const Trace& trace, QueryProcessor* engine, Timestamp delta,
                   const ResultSink& sink = nullptr,
                   UpdateValidator* validator = nullptr,
                   DurabilitySink* durability = nullptr,
                   size_t start_index = 0);

}  // namespace scuba

#endif  // SCUBA_STREAM_PIPELINE_H_
