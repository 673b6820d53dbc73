// The stream-execution shell standing in for the CAPE system the paper
// implemented SCUBA inside (DESIGN.md substitutions).
//
// RoundStep is the batch contract of one evaluation interval, written once:
// a batch is admitted (the strictly increasing batch-time floor, then the
// screen), logged ahead to the WAL, ingested, and a batch that closes a round
// is evaluated, its answer handed off, and the round completed. Every driver
// runs its batches through it: StreamPipeline (a live ObjectSimulator),
// ReplayTrace (a recorded Trace), the subscription server and WAL recovery.

#ifndef SCUBA_STREAM_PIPELINE_H_
#define SCUBA_STREAM_PIPELINE_H_

#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/query_processor.h"
#include "gen/object_simulator.h"
#include "gen/trace.h"
#include "stream/clock.h"
#include "stream/update_validator.h"

namespace scuba {

/// Called after each evaluation round with the evaluation time and results.
using ResultSink = std::function<void(Timestamp, const ResultSet&)>;

/// Durability hooks the RoundStep calls around ingestion. Implemented by
/// DurabilityManager (one WAL record per batch in the durable root's
/// one log + periodic checkpoint generations); declared here as an abstract
/// interface so the stream layer stays independent of persistence.
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

/// Receives each closed round: its evaluation time and the step's result
/// buffer. The handoff may read the set or swap another buffer into it (the
/// next Evaluate overwrites whatever it leaves). A ResultSink converts to it;
/// convert once per stream, not per batch, since the conversion allocates.
using RoundHandoff = std::function<void(Timestamp, ResultSet&)>;

/// One batch of an evaluation interval. Admission and commit are separate
/// calls: a failed admission leaves the WAL, the engine and the floor
/// untouched, so a caller may reject just that batch, while a failed commit
/// leaves the engine suspect and ends the stream.
class RoundStep {
 public:
  /// `engine` is required. `validator` (the screen) and `durability` are
  /// optional; all three must outlive the step. `floor` is the time of the
  /// last batch the engine already holds.
  RoundStep(QueryProcessor* engine, UpdateValidator* validator,
            DurabilitySink* durability,
            Timestamp floor = std::numeric_limits<Timestamp>::min());

  /// Admits a batch stamped `time`. Batch times must strictly increase past
  /// the floor: a batch that does not fails with kFailedPrecondition, unless
  /// the screen's policy is kRepair, which resyncs it to floor + 1. The
  /// screen then filters `objects` and `queries` in place, with the batch's
  /// effective time as the regression floor (without a screen the vectors
  /// are not touched). Returns that effective time and advances the floor
  /// to it. No `time` admits out of band: no floor check, a screen with no
  /// batch floor (kNoBatchTime, which is returned), and the floor stays
  /// where it was.
  Result<Timestamp> Admit(std::optional<Timestamp> time,
                          std::vector<LocationUpdate>* objects,
                          std::vector<QueryUpdate>* queries);

  /// Commits an admitted batch at `time`: LogBatch (write-ahead), then
  /// IngestBatch; when `evaluate` closes a round, Evaluate, then `handoff`
  /// (may be empty), then OnRoundComplete.
  Status Commit(Timestamp time, bool evaluate,
                std::span<const LocationUpdate> objects,
                std::span<const QueryUpdate> queries,
                const RoundHandoff& handoff);

  Timestamp floor() const { return floor_; }
  /// Rounds evaluated so far; during a handoff, the round being handed off.
  uint64_t rounds() const { return rounds_; }

 private:
  QueryProcessor* engine_;
  UpdateValidator* validator_;
  DurabilitySink* durability_;
  Timestamp floor_;
  uint64_t rounds_ = 0;
  ResultSet results_;  ///< Evaluate's output buffer, reused every round.
};

class StreamPipeline {
 public:
  /// Live mode: advances `simulator` itself. Both pointers must outlive the
  /// pipeline; delta must be positive; update_fraction must be a real number
  /// in [0, 1] (NaN is rejected, not silently admitted).
  ///
  /// `validator` and `durability` (optional, must outlive the pipeline) are
  /// the RoundStep's screen and durability sink; each tick is one batch
  /// stamped with the tick time.
  static Result<StreamPipeline> Create(ObjectSimulator* simulator,
                                       QueryProcessor* engine, Timestamp delta,
                                       double update_fraction = 1.0,
                                       UpdateValidator* validator = nullptr,
                                       DurabilitySink* durability = nullptr);

  /// Runs `ticks` simulation ticks; evaluates every delta-th tick and feeds
  /// `sink` (may be null). Stops on the first admission or commit error.
  Status RunTicks(int ticks, const ResultSink& sink = nullptr);

  Timestamp now() const { return clock_.now(); }
  uint64_t evaluations() const { return step_.rounds(); }

 private:
  StreamPipeline(ObjectSimulator* simulator, SimulationClock clock,
                 double update_fraction, RoundStep step);

  ObjectSimulator* simulator_;
  SimulationClock clock_;
  double update_fraction_;
  RoundStep step_;
  std::vector<LocationUpdate> object_buffer_;
  std::vector<QueryUpdate> query_buffer_;
};

/// Trace mode: replays a recorded trace into `engine` through one RoundStep
/// (`validator` and `durability` optional), evaluating every delta-th batch.
/// Stops on the first admission or commit error. `sink` may be null. Without
/// a validator the engine ingests the trace's own vectors, uncopied.
///
/// `start_index` skips the leading batches (recovery resumes a trace
/// mid-stream after restoring a checkpoint: the skipped prefix is already
/// inside the engine), and the batch-time floor starts at batch
/// `start_index - 1`'s stamp. Round boundaries stay aligned to the global
/// batch index, exactly as if the prefix had been replayed here.
Status ReplayTrace(const Trace& trace, QueryProcessor* engine, Timestamp delta,
                   const ResultSink& sink = nullptr,
                   UpdateValidator* validator = nullptr,
                   DurabilitySink* durability = nullptr,
                   size_t start_index = 0);

}  // namespace scuba

#endif  // SCUBA_STREAM_PIPELINE_H_
