#include "stream/pipeline.h"

#include <limits>
#include <string>
#include <utility>

#include "common/check.h"

namespace scuba {

RoundStep::RoundStep(QueryProcessor* engine, UpdateValidator* validator,
                     DurabilitySink* durability, Timestamp floor)
    : engine_(engine),
      validator_(validator),
      durability_(durability),
      floor_(floor) {}

Result<Timestamp> RoundStep::Admit(std::optional<Timestamp> time,
                                   std::vector<LocationUpdate>* objects,
                                   std::vector<QueryUpdate>* queries) {
  Timestamp batch_time = time.value_or(kNoBatchTime);
  if (time && *time <= floor_) {
    // Batches are consecutive ticks, so their stamps strictly increase.
    if (validator_ == nullptr ||
        validator_->config().policy != BadUpdatePolicy::kRepair) {
      return Status::FailedPrecondition(
          "batch time " + std::to_string(*time) + " does not advance past " +
          std::to_string(floor_));
    }
    batch_time = floor_ + 1;
  }
  if (validator_ != nullptr) {
    SCUBA_RETURN_IF_ERROR(validator_->ScreenBatch(batch_time, objects, queries));
  }
  if (time) floor_ = batch_time;
  return batch_time;
}

Status RoundStep::Commit(Timestamp time, bool evaluate,
                         std::span<const LocationUpdate> objects,
                         std::span<const QueryUpdate> queries,
                         const RoundHandoff& handoff) {
  if (durability_ != nullptr) {
    SCUBA_RETURN_IF_ERROR(
        durability_->LogBatch(time, evaluate, objects, queries));
  }
  SCUBA_RETURN_IF_ERROR(engine_->IngestBatch(objects, queries));
  if (!evaluate) return Status::OK();
  SCUBA_RETURN_IF_ERROR(engine_->Evaluate(time, &results_));
  ++rounds_;
  if (handoff) handoff(time, results_);
  return durability_ != nullptr ? durability_->OnRoundComplete() : Status::OK();
}

Result<StreamPipeline> StreamPipeline::Create(ObjectSimulator* simulator,
                                              QueryProcessor* engine,
                                              Timestamp delta,
                                              double update_fraction,
                                              UpdateValidator* validator,
                                              DurabilitySink* durability) {
  if (simulator == nullptr || engine == nullptr) {
    return Status::InvalidArgument("simulator and engine must be non-null");
  }
  // Negated containment so NaN (which fails every comparison) is rejected
  // rather than slipping past a `< 0 || > 1` range test.
  if (!(update_fraction >= 0.0 && update_fraction <= 1.0)) {
    return Status::InvalidArgument("update_fraction must be in [0, 1]");
  }
  Result<SimulationClock> clock = SimulationClock::Create(delta);
  if (!clock.ok()) return clock.status();
  return StreamPipeline(simulator, std::move(clock).value(), update_fraction,
                        RoundStep(engine, validator, durability));
}

StreamPipeline::StreamPipeline(ObjectSimulator* simulator,
                               SimulationClock clock, double update_fraction,
                               RoundStep step)
    : simulator_(simulator),
      clock_(clock),
      update_fraction_(update_fraction),
      step_(std::move(step)) {}

Status StreamPipeline::RunTicks(int ticks, const ResultSink& sink) {
  const RoundHandoff handoff = sink;
  for (int i = 0; i < ticks; ++i) {
    simulator_->Step();
    const bool evaluate = clock_.Advance();
    SCUBA_CHECK_MSG(simulator_->now() == clock_.now(),
                    "simulator and clock diverged");
    object_buffer_.clear();
    query_buffer_.clear();
    simulator_->EmitUpdates(update_fraction_, &object_buffer_, &query_buffer_);
    Result<Timestamp> time =
        step_.Admit(clock_.now(), &object_buffer_, &query_buffer_);
    if (!time.ok()) return time.status();
    SCUBA_RETURN_IF_ERROR(step_.Commit(*time, evaluate, object_buffer_,
                                       query_buffer_, handoff));
  }
  return Status::OK();
}

Status ReplayTrace(const Trace& trace, QueryProcessor* engine, Timestamp delta,
                   const ResultSink& sink, UpdateValidator* validator,
                   DurabilitySink* durability, size_t start_index) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must be non-null");
  }
  if (delta <= 0) {
    return Status::InvalidArgument("delta must be positive");
  }
  if (start_index > trace.TickCount()) {
    return Status::OutOfRange("start_index " + std::to_string(start_index) +
                              " exceeds the trace's " +
                              std::to_string(trace.TickCount()) + " batches");
  }
  RoundStep step(engine, validator, durability,
                 start_index == 0 ? std::numeric_limits<Timestamp>::min()
                                  : trace.batch(start_index - 1).time);
  const RoundHandoff handoff = sink;
  std::vector<LocationUpdate> objects;
  std::vector<QueryUpdate> queries;
  for (size_t i = start_index; i < trace.TickCount(); ++i) {
    const TickBatch& batch = trace.batch(i);
    // The screen filters in place, so it works on a copy of the batch.
    if (validator != nullptr) {
      objects = batch.object_updates;
      queries = batch.query_updates;
    }
    Result<Timestamp> time = step.Admit(batch.time, &objects, &queries);
    if (!time.ok()) {
      return Status(time.status().code(), "trace batch " + std::to_string(i) +
                                              ": " + time.status().message());
    }
    // Round boundaries follow the global batch index so a resumed replay
    // evaluates at exactly the ticks the uninterrupted run did.
    const bool evaluate = (i + 1) % static_cast<size_t>(delta) == 0;
    SCUBA_RETURN_IF_ERROR(step.Commit(
        *time, evaluate, validator != nullptr ? objects : batch.object_updates,
        validator != nullptr ? queries : batch.query_updates, handoff));
  }
  return Status::OK();
}

}  // namespace scuba
