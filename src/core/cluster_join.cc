#include "core/cluster_join.h"

#include <algorithm>
#include <iterator>

#include "cluster/moving_cluster.h"
#include "common/check.h"
#include "common/memory_usage.h"
#include "common/stopwatch.h"
#include "core/join_kernels.h"

namespace scuba {

ClusterJoinExecutor::ClusterJoinExecutor(bool query_reach_aware,
                                         uint32_t threads)
    : query_reach_aware_(query_reach_aware),
      resolved_threads_(threads == 0 ? ThreadPool::DefaultThreadCount()
                                     : threads) {}

ClusterJoinExecutor::~ClusterJoinExecutor() = default;

void ClusterJoinExecutor::AttachTelemetry(MetricsRegistry* registry) {
  collect_phase_timings_ = true;
  if (registry != nullptr) {
    Result<HistogramMetric> hist = registry->RegisterHistogram(
        "scuba_join_task_busy_seconds",
        "Busy seconds of one join worker task (one observation per task per "
        "round)",
        {1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0});
    if (hist.ok()) task_busy_histogram_ = *hist;
  }
}

void ClusterJoinExecutor::SlabArena::Resize(size_t objects, size_t queries,
                                            size_t cell_slots) {
  // resize() keeps capacity on shrink, so a steady-state round allocates
  // nothing — that is the arena-reuse contract.
  obj_xs.resize(objects);
  obj_ys.resize(objects);
  obj_ids.resize(objects);
  obj_attrs.resize(objects);
  qry_xs.resize(queries);
  qry_ys.resize(queries);
  qry_widths.resize(queries);
  qry_heights.resize(queries);
  qry_min_xs.resize(queries);
  qry_min_ys.resize(queries);
  qry_max_xs.resize(queries);
  qry_max_ys.resize(queries);
  qry_ids.resize(queries);
  qry_required.resize(queries);
  cells.resize(cell_slots);
}

size_t ClusterJoinExecutor::SlabArena::EstimateMemoryUsage() const {
  return VectorMemoryUsage(obj_xs) + VectorMemoryUsage(obj_ys) +
         VectorMemoryUsage(obj_ids) + VectorMemoryUsage(obj_attrs) +
         VectorMemoryUsage(qry_xs) + VectorMemoryUsage(qry_ys) +
         VectorMemoryUsage(qry_widths) + VectorMemoryUsage(qry_heights) +
         VectorMemoryUsage(qry_min_xs) + VectorMemoryUsage(qry_min_ys) +
         VectorMemoryUsage(qry_max_xs) + VectorMemoryUsage(qry_max_ys) +
         VectorMemoryUsage(qry_ids) + VectorMemoryUsage(qry_required) +
         VectorMemoryUsage(cells);
}

void ClusterJoinExecutor::FillView(JoinView* out, const MovingCluster& cluster,
                                   const std::vector<uint32_t>& cells) {
  JoinView& view = *out;
  view.bounds = cluster.Bounds();
  view.coarse = query_reach_aware_ ? cluster.JoinBounds() : cluster.Bounds();
  view.mixed = cluster.HasMixedKinds();
  view.has_objects = cluster.object_count() > 0;
  view.has_queries = cluster.query_count() > 0;
  // Cell list: a grid placement already ascends (owner-cell rule).
  std::copy(cells.begin(), cells.end(), arena_.cells.data() + view.cells_begin);

  // Exact members into the SoA slabs (members() order, shed skipped).
  MemberExportSpans spans;
  spans.obj_xs = arena_.obj_xs.data() + view.obj_begin;
  spans.obj_ys = arena_.obj_ys.data() + view.obj_begin;
  spans.obj_ids = arena_.obj_ids.data() + view.obj_begin;
  spans.obj_attrs = arena_.obj_attrs.data() + view.obj_begin;
  spans.qry_xs = arena_.qry_xs.data() + view.qry_begin;
  spans.qry_ys = arena_.qry_ys.data() + view.qry_begin;
  spans.qry_widths = arena_.qry_widths.data() + view.qry_begin;
  spans.qry_heights = arena_.qry_heights.data() + view.qry_begin;
  spans.qry_ids = arena_.qry_ids.data() + view.qry_begin;
  spans.qry_required = arena_.qry_required.data() + view.qry_begin;
  const auto [exported_objects, exported_queries] =
      cluster.ExportExactMembers(spans);
  SCUBA_CHECK(exported_objects == view.obj_count &&
              exported_queries == view.qry_count);

  // Hoisted range rectangles: Rect::Centered of every exact query, computed
  // once per round here instead of once per view pass in the join-within.
  for (uint32_t i = 0; i < view.qry_count; ++i) {
    const size_t q = view.qry_begin + i;
    arena_.qry_min_xs[q] = arena_.qry_xs[q] - arena_.qry_widths[q] / 2;
    arena_.qry_min_ys[q] = arena_.qry_ys[q] - arena_.qry_heights[q] / 2;
    arena_.qry_max_xs[q] = arena_.qry_xs[q] + arena_.qry_widths[q] / 2;
    arena_.qry_max_ys[q] = arena_.qry_ys[q] + arena_.qry_heights[q] / 2;
  }

  // Shed members: group by nucleus. Only walked when the cluster actually
  // has shed members (exact counts short of the member total). Members shed
  // into the same nucleus share a bit-identical reconstructed center, so a
  // linear scan over the handful of nuclei suffices.
  view.nuclei.clear();
  if (exported_objects + exported_queries == cluster.size()) return;
  for (const ClusterMember& m : cluster.members()) {
    if (!m.shed) continue;
    const Point pos = cluster.MemberPosition(m);
    NucleusGroup* group = nullptr;
    for (NucleusGroup& g : view.nuclei) {
      if (g.center == pos && g.radius == m.approx_radius) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      view.nuclei.push_back(NucleusGroup{pos, m.approx_radius, {}, {}});
      group = &view.nuclei.back();
    }
    if (m.kind == EntityKind::kObject) {
      group->objects.push_back(NucleusObject{m.id, m.attrs});
    } else {
      group->queries.push_back(ExactQuery{pos, m.range_width, m.range_height,
                                          m.id, m.required_attrs});
    }
  }
}

void ClusterJoinExecutor::EmitObjectMatches(const JoinView& objects_view,
                                            const Rect& range, QueryId qid,
                                            uint64_t required_attrs,
                                            JoinScratch* scratch,
                                            Counters* counters,
                                            ResultSet* results) const {
  // Exact objects through the batched kernels: rect-contains over the whole
  // slab, then the attrs-mask compaction (skipped for unfiltered queries —
  // required_attrs 0 admits everything). Indices come out ascending, so the
  // Add order matches the scalar member loop exactly.
  const uint32_t count = objects_view.obj_count;
  if (count > 0) {
    counters->comparisons += count;
    ObjectSlabView objects;
    objects.xs = arena_.obj_xs.data() + objects_view.obj_begin;
    objects.ys = arena_.obj_ys.data() + objects_view.obj_begin;
    objects.oids = arena_.obj_ids.data() + objects_view.obj_begin;
    objects.attrs = arena_.obj_attrs.data() + objects_view.obj_begin;
    objects.count = count;
    size_t matches = RectContainsPoints(range, objects, scratch->indices.data());
    if (required_attrs != 0) {
      matches = FilterByAttrs(objects.attrs, required_attrs,
                              scratch->indices.data(), matches);
    }
    for (size_t k = 0; k < matches; ++k) {
      results->Add(qid, objects.oids[scratch->indices[k]]);
    }
  }
  // Object nuclei: one predicate per shed group (scalar; rarely populated).
  for (const NucleusGroup& nuc : objects_view.nuclei) {
    if (nuc.objects.empty()) continue;
    ++counters->comparisons;
    if (Intersects(range, Circle{nuc.center, nuc.radius})) {
      for (const NucleusObject& o : nuc.objects) {
        if ((o.attrs & required_attrs) == required_attrs) {
          results->Add(qid, o.oid);
        }
      }
    }
  }
}

void ClusterJoinExecutor::JoinObjectsToQueries(const JoinView& objects_view,
                                               const JoinView& queries_view,
                                               JoinScratch* scratch,
                                               Counters* counters,
                                               ResultSet* results) const {
  // Exact queries: one batched circle/rect pre-filter over the whole query
  // slab. The fine filter is a bounds check, not a member comparison —
  // counted apart so the paper's Fig. 11 cost model (per-member predicate
  // work) maps onto `comparisons`. Admitted queries then run the member
  // kernels; emission order matches the scalar path (queries in member
  // order, each: exact objects, then object nuclei).
  const uint32_t qry_count = queries_view.qry_count;
  if (qry_count > 0) {
    counters->bounds_checks += qry_count;
    const uint32_t qry_begin = queries_view.qry_begin;
    QueryRectSlabView rects;
    rects.min_xs = arena_.qry_min_xs.data() + qry_begin;
    rects.min_ys = arena_.qry_min_ys.data() + qry_begin;
    rects.max_xs = arena_.qry_max_xs.data() + qry_begin;
    rects.max_ys = arena_.qry_max_ys.data() + qry_begin;
    rects.count = qry_count;
    RectCircleOverlap(rects, objects_view.bounds, scratch->mask.data());
    for (uint32_t i = 0; i < qry_count; ++i) {
      if (!scratch->mask[i]) continue;
      const size_t q = qry_begin + i;
      const Rect range{arena_.qry_min_xs[q], arena_.qry_min_ys[q],
                       arena_.qry_max_xs[q], arena_.qry_max_ys[q]};
      EmitObjectMatches(objects_view, range, arena_.qry_ids[q],
                        arena_.qry_required[q], scratch, counters, results);
    }
  }
  // Shed queries: approximated at the nucleus center with their original
  // extent (paper semantics: shedding trades both false positives and false
  // negatives for join work; §6.6 measures both error kinds).
  for (const NucleusGroup& qnuc : queries_view.nuclei) {
    for (const ExactQuery& q : qnuc.queries) {
      Rect range = Rect::Centered(q.position, q.width, q.height);
      ++counters->bounds_checks;
      if (!Intersects(range, objects_view.bounds)) continue;
      EmitObjectMatches(objects_view, range, q.qid, q.required_attrs, scratch,
                        counters, results);
    }
  }
}

void ClusterJoinExecutor::JoinPair(const JoinView& a, const JoinView& b,
                                   JoinScratch* scratch, Counters* counters,
                                   ResultSet* results,
                                   double* within_seconds) const {
  if (within_seconds != nullptr) {
    Stopwatch within_sw;
    JoinObjectsToQueries(a, b, scratch, counters, results);
    if (&a != &b) JoinObjectsToQueries(b, a, scratch, counters, results);
    *within_seconds += within_sw.ElapsedSeconds();
  } else {
    JoinObjectsToQueries(a, b, scratch, counters, results);
    if (&a != &b) JoinObjectsToQueries(b, a, scratch, counters, results);
  }
}

void ClusterJoinExecutor::ScanView(uint32_t a, uint32_t cell_begin,
                                   uint32_t cell_end, JoinScratch* scratch,
                                   Counters* counters, ResultSet* results,
                                   double* within_seconds) const {
  const JoinView& aview = views_[a];
  const uint32_t* acells = arena_.cells.data() + aview.cells_begin;
  const uint32_t acount = aview.cells_count;
  // Every pair (and the self-join) this view owns has its owner cell among
  // acells, so an empty view, or one wholly outside the window, owns nothing
  // here.
  if (acount == 0 || acells[0] >= cell_end || acells[acount - 1] < cell_begin) {
    return;
  }
  // Same-cluster join-within, evaluated only in the cluster's lowest cell
  // (once per round, even though the cluster appears in every cell its
  // circle overlaps).
  if (aview.mixed && acells[0] >= cell_begin) {
    ++counters->within_joins_single;
    JoinPair(aview, aview, scratch, counters, results, within_seconds);
  }
  // Owner-cell rule: acells ascend, so the first cell where the walk meets b
  // is the lowest cell the pair shares. The stamp skips b in every later
  // shared cell, and the pair is taken from its lower slot only, so each
  // pair is evaluated once — by the window holding that cell. Cells before
  // the window are still walked: they may be a pair's owner cell, which then
  // lies in another window.
  uint32_t* stamp = scratch->stamp.data();
  for (uint32_t k = 0; k < acount && acells[k] < cell_end; ++k) {
    const uint32_t cell = acells[k];
    const uint32_t* entries = cell_entries_.data() + cell_offsets_[cell];
    const uint32_t entry_count = cell_offsets_[cell + 1] - cell_offsets_[cell];
    for (uint32_t i = 0; i < entry_count; ++i) {
      const uint32_t b = entries[i];
      if (b <= a || stamp[b] == a) continue;
      stamp[b] = a;
      if (cell < cell_begin) continue;
      const JoinView& bview = views_[b];
      // Only kind-complementary pairs can produce results (Alg. 1 line 18).
      const bool complementary = (aview.has_objects && bview.has_queries) ||
                                 (aview.has_queries && bview.has_objects);
      if (!complementary) continue;
      ++counters->pairs_tested;
      if (!Overlaps(aview.coarse, bview.coarse)) continue;
      ++counters->pairs_overlapping;
      ++counters->within_joins_pair;
      // Cross combinations only; same-cluster combinations come from the
      // per-cluster join-within above, so the union-based Algorithm 3 result
      // is preserved without duplicate work.
      JoinPair(aview, bview, scratch, counters, results, within_seconds);
    }
  }
}

template <typename Fn>
Status ClusterJoinExecutor::ForEachView(std::vector<double>* busy, Fn fn) {
  // Several chunks per task, so one dense chunk cannot serialize the round.
  const uint32_t view_count = static_cast<uint32_t>(views_.size());
  const uint32_t chunk = view_count / (resolved_threads_ * 8 + 1) + 1;
  std::atomic<uint32_t> next_slot{0};
  return RunTaskSet(pool_.get(), resolved_threads_, [&](uint32_t t) {
    Stopwatch clock;
    for (uint32_t begin = 0;
         (begin = next_slot.fetch_add(chunk, std::memory_order_relaxed)) <
         view_count;) {
      const uint32_t end = std::min(begin + chunk, view_count);
      for (uint32_t slot = begin; slot < end; ++slot) fn(t, slot);
    }
    if (!busy->empty()) (*busy)[t] += clock.ElapsedSeconds();
  }, &last_worker_seconds_);
}

Status ClusterJoinExecutor::Execute(const ClusterStore& store,
                                    const GridIndex& grid,
                                    ResultSet* results) {
  SCUBA_RETURN_IF_ERROR(Prepare(store, grid));
  return ScanWindow(0, CellCount(), results);
}

Status ClusterJoinExecutor::Prepare(const ClusterStore& store,
                                    const GridIndex& grid) {
  // View v is store slot v; a free slot or a cluster without a grid
  // placement gets an empty view that the scan skips.
  const uint32_t view_count = store.ClusterSlotCount();
  views_.resize(view_count);

  const uint32_t tasks = resolved_threads_;
  if (tasks > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(tasks);
  }

  last_worker_seconds_ = 0.0;
  last_task_busy_seconds_.assign(collect_phase_timings_ ? tasks : 0, 0.0);
  last_within_seconds_ = 0.0;
  last_sort_seconds_ = 0.0;

  // Phase A1 (parallel): per-slot sizing — exact-member and grid-cell
  // counts, no position reconstruction yet.
  auto size_view = [&](uint32_t, uint32_t slot) {
    JoinView& view = views_[slot];
    const MovingCluster* cluster = store.ClusterAt(slot);
    const std::vector<uint32_t>* cells =
        cluster == nullptr ? nullptr : grid.CellsOf(cluster->cid());
    if (cells == nullptr) {
      view = JoinView{};
      return;
    }
    size_t exact_objects = 0;
    size_t exact_queries = 0;
    cluster->CountExactMembers(&exact_objects, &exact_queries);
    view.obj_count = static_cast<uint32_t>(exact_objects);
    view.qry_count = static_cast<uint32_t>(exact_queries);
    view.cells_count = static_cast<uint32_t>(cells->size());
  };
  SCUBA_RETURN_IF_ERROR(ForEachView(&last_task_busy_seconds_, size_view));

  // Phase A2 (serial): prefix sums assign every view its disjoint arena
  // spans; one arena resize replaces the per-view vector allocations.
  size_t obj_total = 0;
  size_t qry_total = 0;
  size_t cell_total = 0;
  max_view_objects_ = 0;
  max_view_queries_ = 0;
  for (JoinView& view : views_) {
    view.obj_begin = static_cast<uint32_t>(obj_total);
    view.qry_begin = static_cast<uint32_t>(qry_total);
    view.cells_begin = static_cast<uint32_t>(cell_total);
    obj_total += view.obj_count;
    qry_total += view.qry_count;
    cell_total += view.cells_count;
    max_view_objects_ = std::max(max_view_objects_, view.obj_count);
    max_view_queries_ = std::max(max_view_queries_, view.qry_count);
  }
  arena_.Resize(obj_total, qry_total, cell_total);
  scratch_.resize(tasks);
  for (JoinScratch& scratch : scratch_) {
    scratch.indices.resize(max_view_objects_);
    scratch.mask.resize(max_view_queries_);
  }

  // Phase A3 (parallel): fill every non-empty JoinView — metadata, SoA
  // slabs, hoisted query rects, nuclei. The table is immutable from here on
  // — the scan below only reads it.
  auto fill_view = [&](uint32_t, uint32_t slot) {
    if (views_[slot].cells_count == 0) return;
    const MovingCluster& cluster = *store.ClusterAt(slot);
    FillView(&views_[slot], cluster, *grid.CellsOf(cluster.cid()));
  };
  SCUBA_RETURN_IF_ERROR(ForEachView(&last_task_busy_seconds_, fill_view));

  // CSR snapshot of the grid for the scan: contiguous entry slab, no
  // per-cell heap buffer chasing, each entry turned from a cid into its
  // store slot here, once. Buffers are reused across rounds.
  grid.FlattenEntries(&cell_offsets_, &cell_entries_);
  for (uint32_t& entry : cell_entries_) {
    entry = store.FindCluster(entry);
    SCUBA_CHECK_MSG(entry != ClusterStore::kNoSlot,
                    "grid references a missing cluster");
  }
  cell_count_ = static_cast<uint32_t>(grid.CellCount());
  return Status::OK();
}

Status ClusterJoinExecutor::ScanWindow(uint32_t cell_begin, uint32_t cell_end,
                                       ResultSet* results) {
  if (results == nullptr) {
    return Status::InvalidArgument("results must be non-null");
  }
  const uint32_t tasks = resolved_threads_;
  if (scratch_.size() != tasks) {
    return Status::FailedPrecondition("ScanWindow needs a prior Prepare");
  }
  results->Clear();
  // Cluster-major scan over view-slot chunks into per-task buffers; only
  // pairs whose owner cell lies in the window count. The stamps restart with
  // every window, so windows may be scanned in any order.
  const uint32_t view_count = static_cast<uint32_t>(views_.size());
  for (JoinScratch& scratch : scratch_) {
    scratch.stamp.assign(view_count, ClusterStore::kNoSlot);
  }
  const bool timed = collect_phase_timings_;
  std::vector<double> task_within(timed ? tasks : 0, 0.0);
  std::vector<double> task_busy(timed ? tasks : 0, 0.0);
  const uint32_t cell_limit = std::min(cell_end, cell_count_);
  task_results_.resize(tasks);
  for (ResultSet& r : task_results_) r.Clear();
  std::vector<Counters> task_counters(tasks);
  SCUBA_RETURN_IF_ERROR(ForEachView(&task_busy, [&](uint32_t t, uint32_t a) {
    ScanView(a, cell_begin, cell_limit, &scratch_[t], &task_counters[t],
             &task_results_[t], timed ? &task_within[t] : nullptr);
  }));
  for (double w : task_within) last_within_seconds_ += w;
  // Busy times are observed here, on the calling thread: one observation
  // per task per window, and no metric is written from a worker.
  for (uint32_t t = 0; t < task_busy.size(); ++t) {
    last_task_busy_seconds_[t] += task_busy[t];
    task_busy_histogram_.Observe(task_busy[t]);
  }

  // The window's answer: one radix sort straight out of the task buffers.
  if (timed) {
    Stopwatch sort;
    results->AssignNormalized(task_results_, &radix_counts_);
    last_sort_seconds_ += sort.ElapsedSeconds();
  } else {
    results->AssignNormalized(task_results_, &radix_counts_);
  }
  for (const Counters& c : task_counters) counters_ += c;
  return Status::OK();
}

size_t ClusterJoinExecutor::EstimateMemoryUsage() const {
  size_t bytes = VectorMemoryUsage(views_) + arena_.EstimateMemoryUsage() +
                 VectorMemoryUsage(cell_offsets_) +
                 VectorMemoryUsage(cell_entries_);
  bytes += VectorMemoryUsage(scratch_);
  for (const JoinScratch& scratch : scratch_) {
    bytes += VectorMemoryUsage(scratch.indices) +
             VectorMemoryUsage(scratch.mask) + VectorMemoryUsage(scratch.stamp);
  }
  // Nucleus groups are the one remaining per-view heap allocation (present
  // only under load shedding); member and cell data is all arena-accounted
  // above, so no per-view member walk remains.
  for (const JoinView& view : views_) {
    bytes += VectorMemoryUsage(view.nuclei);
    for (const NucleusGroup& group : view.nuclei) {
      bytes += VectorMemoryUsage(group.objects) +
               VectorMemoryUsage(group.queries);
    }
  }
  return bytes;
}

}  // namespace scuba
