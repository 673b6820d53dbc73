#include "baseline/query_index_engine.h"

#include "common/memory_usage.h"
#include "common/stopwatch.h"

namespace scuba {

Status QueryIndexOptions::Validate() const {
  if (max_node_entries < 2) {
    return Status::InvalidArgument("max_node_entries must be >= 2");
  }
  return Status::OK();
}

Status QueryIndexEngine::IngestObjectUpdate(const LocationUpdate& update) {
  SCUBA_RETURN_IF_ERROR(ValidateUpdate(update));
  objects_[update.oid] = update;
  return Status::OK();
}

Status QueryIndexEngine::IngestQueryUpdate(const QueryUpdate& update) {
  SCUBA_RETURN_IF_ERROR(ValidateUpdate(update));
  queries_[update.qid] = update;
  return Status::OK();
}

Status QueryIndexEngine::Evaluate(Timestamp now, ResultSet* results) {
  (void)now;
  if (results == nullptr) {
    return Status::InvalidArgument("results must be non-null");
  }
  SCUBA_RETURN_IF_ERROR(options_.Validate());
  results->Clear();

  // Index maintenance: rebuild the STR-packed query tree from the latest
  // query rectangles (queries move every tick, so the index must follow).
  Stopwatch maint_sw;
  std::vector<RTree::Entry> entries;
  entries.reserve(queries_.size());
  for (const auto& [qid, q] : queries_) {
    entries.push_back(RTree::Entry{qid, q.Range()});
  }
  Result<RTree> tree = RTree::BulkLoad(std::move(entries),
                                       options_.max_node_entries);
  if (!tree.ok()) return tree.status();
  tree_ = std::move(tree).value();
  stats_.last_maintenance_seconds = maint_sw.ElapsedSeconds();
  stats_.total_maintenance_seconds += stats_.last_maintenance_seconds;

  // Join: every object probes the query tree once.
  Stopwatch join_sw;
  std::vector<uint32_t> hits;
  for (const auto& [oid, o] : objects_) {
    hits.clear();
    tree_.SearchPoint(o.position, &hits);
    stats_.comparisons += hits.size() + 1;  // probe + verified hits
    for (uint32_t qid : hits) {
      if (queries_.at(qid).AttrsMatch(o.attrs)) {
        results->Add(qid, oid);
      }
    }
  }
  results->Normalize();
  stats_.last_join_seconds = join_sw.ElapsedSeconds();
  stats_.total_join_seconds += stats_.last_join_seconds;
  stats_.total_results += results->size();
  ++stats_.evaluations;
  return Status::OK();
}

size_t QueryIndexEngine::EstimateMemoryUsage() const {
  return sizeof(QueryIndexEngine) + UnorderedMapMemoryUsage(objects_) +
         UnorderedMapMemoryUsage(queries_) + tree_.EstimateMemoryUsage();
}

}  // namespace scuba
