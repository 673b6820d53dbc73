#include "baseline/naive_join_engine.h"

#include "common/memory_usage.h"
#include "common/stopwatch.h"

namespace scuba {

Status NaiveJoinEngine::IngestObjectUpdate(const LocationUpdate& update) {
  SCUBA_RETURN_IF_ERROR(ValidateUpdate(update));
  objects_[update.oid] = update;
  return Status::OK();
}

Status NaiveJoinEngine::IngestQueryUpdate(const QueryUpdate& update) {
  SCUBA_RETURN_IF_ERROR(ValidateUpdate(update));
  queries_[update.qid] = update;
  return Status::OK();
}

Status NaiveJoinEngine::Evaluate(Timestamp now, ResultSet* results) {
  (void)now;
  if (results == nullptr) {
    return Status::InvalidArgument("results must be non-null");
  }
  results->Clear();
  Stopwatch sw;
  for (const auto& [qid, q] : queries_) {
    Rect range = q.Range();
    for (const auto& [oid, o] : objects_) {
      ++stats_.comparisons;
      if (range.Contains(o.position) && q.AttrsMatch(o.attrs)) {
        results->Add(qid, oid);
      }
    }
  }
  results->Normalize();
  stats_.last_join_seconds = sw.ElapsedSeconds();
  stats_.total_join_seconds += stats_.last_join_seconds;
  stats_.total_results += results->size();
  ++stats_.evaluations;
  return Status::OK();
}

size_t NaiveJoinEngine::EstimateMemoryUsage() const {
  return sizeof(NaiveJoinEngine) + UnorderedMapMemoryUsage(objects_) +
         UnorderedMapMemoryUsage(queries_);
}

}  // namespace scuba
