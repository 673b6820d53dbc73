#include "baseline/grid_join_engine.h"

#include "common/check.h"
#include "common/memory_usage.h"
#include "common/stopwatch.h"

namespace scuba {

Status GridJoinOptions::Validate() const {
  if (grid_cells == 0) {
    return Status::InvalidArgument("grid_cells must be positive");
  }
  if (region.Empty() || region.Width() <= 0.0 || region.Height() <= 0.0) {
    return Status::InvalidArgument("region must have positive area");
  }
  return Status::OK();
}

Result<std::unique_ptr<GridJoinEngine>> GridJoinEngine::Create(
    const GridJoinOptions& options) {
  SCUBA_RETURN_IF_ERROR(options.Validate());
  Result<GridIndex> object_grid =
      GridIndex::Create(options.region, options.grid_cells);
  if (!object_grid.ok()) return object_grid.status();
  Result<GridIndex> query_grid =
      GridIndex::Create(options.region, options.grid_cells);
  if (!query_grid.ok()) return query_grid.status();
  return std::unique_ptr<GridJoinEngine>(
      new GridJoinEngine(options, std::move(object_grid).value(),
                         std::move(query_grid).value()));
}

GridJoinEngine::GridJoinEngine(const GridJoinOptions& options,
                               GridIndex object_grid, GridIndex query_grid)
    : options_(options),
      object_grid_(std::move(object_grid)),
      query_grid_(std::move(query_grid)) {}

Status GridJoinEngine::IngestObjectUpdate(const LocationUpdate& update) {
  SCUBA_RETURN_IF_ERROR(ValidateUpdate(update));
  Stopwatch sw;
  auto [it, inserted] = objects_.insert_or_assign(update.oid, update);
  (void)it;
  Status s = inserted ? object_grid_.Insert(update.oid, update.position)
                      : object_grid_.Update(update.oid, update.position);
  AccumulateMaintenance(sw.ElapsedSeconds());
  return s;
}

Status GridJoinEngine::IngestQueryUpdate(const QueryUpdate& update) {
  SCUBA_RETURN_IF_ERROR(ValidateUpdate(update));
  Stopwatch sw;
  auto [it, inserted] = queries_.insert_or_assign(update.qid, update);
  (void)it;
  Status s = inserted ? query_grid_.Insert(update.qid, update.Range())
                      : query_grid_.Update(update.qid, update.Range());
  AccumulateMaintenance(sw.ElapsedSeconds());
  return s;
}

Status GridJoinEngine::Evaluate(Timestamp now, ResultSet* results) {
  (void)now;
  if (results == nullptr) {
    return Status::InvalidArgument("results must be non-null");
  }
  results->Clear();
  Stopwatch sw;
  // Cell-by-cell join: each object lives in exactly one cell, so a (query,
  // object) pair is tested once per object cell the query overlaps — at most
  // once, since the object has one cell.
  const uint32_t cells = static_cast<uint32_t>(object_grid_.CellCount());
  for (uint32_t cell = 0; cell < cells; ++cell) {
    const std::vector<uint32_t>& cell_queries = query_grid_.CellEntries(cell);
    if (cell_queries.empty()) continue;
    const std::vector<uint32_t>& cell_objects = object_grid_.CellEntries(cell);
    if (cell_objects.empty()) continue;
    for (uint32_t qid : cell_queries) {
      const QueryUpdate& q = queries_.at(qid);
      Rect range = q.Range();
      for (uint32_t oid : cell_objects) {
        ++stats_.comparisons;
        const LocationUpdate& o = objects_.at(oid);
        if (range.Contains(o.position) && q.AttrsMatch(o.attrs)) {
          results->Add(qid, oid);
        }
      }
    }
  }
  results->Normalize();
  stats_.last_join_seconds = sw.ElapsedSeconds();
  stats_.total_join_seconds += stats_.last_join_seconds;
  stats_.total_results += results->size();
  ++stats_.evaluations;
  stats_.last_maintenance_seconds = pending_maintenance_seconds_;
  stats_.total_maintenance_seconds += pending_maintenance_seconds_;
  pending_maintenance_seconds_ = 0.0;
  return Status::OK();
}

size_t GridJoinEngine::EstimateMemoryUsage() const {
  return sizeof(GridJoinEngine) + object_grid_.EstimateMemoryUsage() +
         query_grid_.EstimateMemoryUsage() +
         UnorderedMapMemoryUsage(objects_) + UnorderedMapMemoryUsage(queries_);
}

}  // namespace scuba
