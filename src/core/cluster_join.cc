#include "core/cluster_join.h"

#include <algorithm>
#include <iterator>

#include "cluster/moving_cluster.h"
#include "common/check.h"
#include "common/memory_usage.h"
#include "common/stopwatch.h"
#include "core/join_kernels.h"

namespace scuba {
namespace {

/// slot_by_cid_ sentinel: cid not registered this round.
constexpr uint32_t kNoSlot = UINT32_MAX;

}  // namespace

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

void ClusterJoinExecutor::FillView(uint32_t slot,
                                   const MovingCluster& cluster) {
  JoinView& view = views_[slot];
  view.bounds = cluster.Bounds();
  view.coarse = query_reach_aware_ ? cluster.JoinBounds() : cluster.Bounds();
  view.mixed = cluster.HasMixedKinds();
  view.has_objects = cluster.object_count() > 0;
  view.has_queries = cluster.query_count() > 0;

  // Cell list: copy into the arena span, sorted ascending (owner-cell rule).
  const std::vector<uint32_t>& cells = *cell_lists_[slot];
  uint32_t* cell_span = arena_.cells.data() + view.cells_begin;
  std::copy(cells.begin(), cells.end(), cell_span);
  std::sort(cell_span, cell_span + view.cells_count);

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

uint32_t ClusterJoinExecutor::SlotOf(ClusterId cid) const {
  // Unsigned wrap sends cids below the base past the table's end.
  const size_t index = static_cast<size_t>(cid - slot_base_cid_);
  SCUBA_CHECK_MSG(index < slot_by_cid_.size() && slot_by_cid_[index] != kNoSlot,
                  "grid references a missing cluster");
  return slot_by_cid_[index];
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

void ClusterJoinExecutor::ScanViews(std::atomic<uint32_t>* next_slot,
                                    uint32_t chunk_size, uint32_t cell_begin,
                                    uint32_t cell_end, JoinScratch* scratch,
                                    Counters* counters, ResultSet* results,
                                    double* within_seconds) const {
  const uint32_t view_count = static_cast<uint32_t>(views_.size());
  const uint32_t* entries_base = cell_entries_.data();
  const uint32_t* all_cells = arena_.cells.data();
  uint32_t* stamp = scratch->stamp.data();
  for (;;) {
    const uint32_t begin =
        next_slot->fetch_add(chunk_size, std::memory_order_relaxed);
    if (begin >= view_count) return;
    const uint32_t end = std::min(begin + chunk_size, view_count);
    for (uint32_t a = begin; a < end; ++a) {
      const JoinView& aview = views_[a];
      const uint32_t* acells = all_cells + aview.cells_begin;
      const uint32_t acount = aview.cells_count;
      // Every pair (and the self-join) this view owns has its owner cell
      // among acells, so a view wholly outside the window owns nothing here.
      if (acells[0] >= cell_end || acells[acount - 1] < cell_begin) continue;
      // Same-cluster join-within, evaluated only in the cluster's lowest
      // cell (once per round, even though the cluster appears in every cell
      // its circle overlaps).
      if (aview.mixed && acells[0] >= cell_begin) {
        ++counters->within_joins_single;
        JoinPair(aview, aview, scratch, counters, results, within_seconds);
      }
      // Owner-cell rule: acells ascend, so the first cell where the walk
      // meets b is the lowest cell the pair shares. The stamp skips b in
      // every later shared cell, and the pair is taken from its lower slot
      // only, so each pair is evaluated once — by the window holding that
      // cell. Cells before the window are still walked: they may be a
      // pair's owner cell, which then lies in another window.
      for (uint32_t k = 0; k < acount && acells[k] < cell_end; ++k) {
        const uint32_t cell = acells[k];
        const uint32_t* entries = entries_base + cell_offsets_[cell];
        const uint32_t entry_count =
            cell_offsets_[cell + 1] - cell_offsets_[cell];
        for (uint32_t i = 0; i < entry_count; ++i) {
          const uint32_t b = SlotOf(entries[i]);
          if (b <= a || stamp[b] == a) continue;
          stamp[b] = a;
          if (cell < cell_begin) continue;
          const JoinView& bview = views_[b];
          // Only kind-complementary pairs can produce results (Alg. 1
          // line 18).
          const bool complementary = (aview.has_objects && bview.has_queries) ||
                                     (aview.has_queries && bview.has_objects);
          if (!complementary) continue;
          ++counters->pairs_tested;
          if (!Overlaps(aview.coarse, bview.coarse)) continue;
          ++counters->pairs_overlapping;
          ++counters->within_joins_pair;
          // Cross combinations only; same-cluster combinations come from the
          // per-cluster join-within above, so the union-based Algorithm 3
          // result is preserved without duplicate work.
          JoinPair(aview, bview, scratch, counters, results, within_seconds);
        }
      }
    }
  }
}

Status ClusterJoinExecutor::Execute(const ClusterStore& store,
                                    const GridIndex& grid,
                                    ResultSet* results) {
  return ExecuteScoped(store, /*neighbors=*/{}, grid,
                       /*cell_begin=*/0,
                       static_cast<uint32_t>(grid.CellCount()), results);
}

Status ClusterJoinExecutor::ExecuteScoped(
    const ClusterStore& store, std::span<const ClusterStore* const> neighbors,
    const GridIndex& grid, uint32_t cell_begin, uint32_t cell_end,
    ResultSet* results) {
  if (results == nullptr) {
    return Status::InvalidArgument("results must be non-null");
  }
  results->Clear();

  // Round setup (serial): enumerate the clusters registered in the grid,
  // resolve each to its stored cluster (own store first, then the
  // neighbors'; a key no store holds is skipped) and assign each a dense
  // view slot. Sorted by cid so slot assignment — and with it every
  // downstream buffer — is independent of hash-map iteration order. The
  // cid→slot mapping is a dense table over the live cid span (live cids are
  // compact enough that one uint32 per id beats per-entry hashing in the
  // scan by a wide margin); kNoSlot marks ids absent this round.
  std::vector<ClusterId> cids = grid.Keys();
  cluster_refs_.clear();
  last_neighbor_reads_ = 0;
  size_t kept = 0;
  for (ClusterId cid : cids) {
    const MovingCluster* cluster = store.GetCluster(cid);
    for (size_t i = 0; cluster == nullptr && i < neighbors.size(); ++i) {
      cluster = neighbors[i]->GetCluster(cid);
      if (cluster != nullptr) ++last_neighbor_reads_;
    }
    if (cluster == nullptr) continue;
    cids[kept++] = cid;
    cluster_refs_.push_back(cluster);
  }
  cids.resize(kept);
  const uint32_t view_count = static_cast<uint32_t>(cids.size());
  views_.resize(view_count);
  slot_base_cid_ = cids.empty() ? 0 : cids.front();
  slot_by_cid_.assign(cids.empty() ? 0 : cids.back() - slot_base_cid_ + 1,
                      kNoSlot);
  for (uint32_t slot = 0; slot < view_count; ++slot) {
    slot_by_cid_[cids[slot] - slot_base_cid_] = slot;
  }

  const uint32_t tasks = resolved_threads_;
  if (tasks > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(tasks);
  }

  last_worker_seconds_ = 0.0;
  const bool timed = collect_phase_timings_;
  last_task_busy_seconds_.assign(timed ? tasks : 0, 0.0);
  std::vector<double> task_within(timed ? tasks : 0, 0.0);
  last_within_seconds_ = 0.0;

  const uint32_t slot_chunk = std::max<uint32_t>(
      1, view_count / (tasks * 8 + 1) + 1);

  // Phase A1 (parallel): per-slot sizing — exact-member counts and grid
  // cell list, no position reconstruction yet.
  cell_lists_.resize(view_count);
  obj_counts_.resize(view_count);
  qry_counts_.resize(view_count);
  {
    std::atomic<uint32_t> next_slot{0};
    SCUBA_RETURN_IF_ERROR(RunTaskSet(pool_.get(), tasks, [&](uint32_t t) {
      Stopwatch busy;
      for (;;) {
        const uint32_t begin =
            next_slot.fetch_add(slot_chunk, std::memory_order_relaxed);
        if (begin >= view_count) break;
        const uint32_t end = std::min(begin + slot_chunk, view_count);
        for (uint32_t slot = begin; slot < end; ++slot) {
          const MovingCluster* cluster = cluster_refs_[slot];
          const std::vector<uint32_t>* cells = grid.CellsOf(cids[slot]);
          SCUBA_CHECK_MSG(cells != nullptr && !cells->empty(),
                          "view built for an unregistered cluster");
          cell_lists_[slot] = cells;
          size_t exact_objects = 0;
          size_t exact_queries = 0;
          cluster->CountExactMembers(&exact_objects, &exact_queries);
          obj_counts_[slot] = static_cast<uint32_t>(exact_objects);
          qry_counts_[slot] = static_cast<uint32_t>(exact_queries);
        }
      }
      if (timed) last_task_busy_seconds_[t] += busy.ElapsedSeconds();
    }, &last_worker_seconds_));
  }

  // Phase A2 (serial): prefix sums assign every view its disjoint arena
  // spans; one arena resize replaces the per-view vector allocations.
  size_t obj_total = 0;
  size_t qry_total = 0;
  size_t cell_total = 0;
  max_view_objects_ = 0;
  max_view_queries_ = 0;
  for (uint32_t slot = 0; slot < view_count; ++slot) {
    JoinView& view = views_[slot];
    view.obj_begin = static_cast<uint32_t>(obj_total);
    view.obj_count = obj_counts_[slot];
    view.qry_begin = static_cast<uint32_t>(qry_total);
    view.qry_count = qry_counts_[slot];
    view.cells_begin = static_cast<uint32_t>(cell_total);
    view.cells_count = static_cast<uint32_t>(cell_lists_[slot]->size());
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
    scratch.stamp.assign(view_count, kNoSlot);
  }

  // Phase A3 (parallel): fill every JoinView — metadata, SoA slabs, hoisted
  // query rects, nuclei. The table is immutable from here on — the scan
  // below only reads it.
  {
    std::atomic<uint32_t> next_slot{0};
    SCUBA_RETURN_IF_ERROR(RunTaskSet(pool_.get(), tasks, [&](uint32_t t) {
      Stopwatch busy;
      for (;;) {
        const uint32_t begin =
            next_slot.fetch_add(slot_chunk, std::memory_order_relaxed);
        if (begin >= view_count) break;
        const uint32_t end = std::min(begin + slot_chunk, view_count);
        for (uint32_t slot = begin; slot < end; ++slot) {
          FillView(slot, *cluster_refs_[slot]);
        }
      }
      if (timed) last_task_busy_seconds_[t] += busy.ElapsedSeconds();
    }, &last_worker_seconds_));
  }

  // CSR snapshot of the grid for the scan: contiguous entry slab, no
  // per-cell heap buffer chasing. Buffers are reused across rounds, and the
  // rebuild is skipped entirely when the grid's generation counter shows no
  // mutation since the snapshot was last taken.
  if (cached_grid_ != &grid || cached_generation_ != grid.generation()) {
    grid.FlattenEntries(&cell_offsets_, &cell_entries_);
    cached_grid_ = &grid;
    cached_generation_ = grid.generation();
  } else {
    ++flatten_reuses_;
  }

  // Phase B: cluster-major scan over view-slot chunks into per-task
  // buffers; only pairs whose owner cell lies in the caller's window count.
  const uint32_t cell_limit =
      std::min(cell_end, static_cast<uint32_t>(grid.CellCount()));
  std::vector<ResultSet> task_results(tasks);
  std::vector<Counters> task_counters(tasks);
  {
    std::atomic<uint32_t> next_slot{0};
    SCUBA_RETURN_IF_ERROR(RunTaskSet(pool_.get(), tasks, [&](uint32_t t) {
      Stopwatch busy;
      ScanViews(&next_slot, slot_chunk, cell_begin, cell_limit, &scratch_[t],
                &task_counters[t], &task_results[t],
                timed ? &task_within[t] : nullptr);
      if (timed) {
        const double elapsed = busy.ElapsedSeconds();
        last_task_busy_seconds_[t] += elapsed;
        task_busy_histogram_.Observe(elapsed);
      }
    }, &last_worker_seconds_));
  }
  for (double w : task_within) last_within_seconds_ += w;

  // Merge: one reserve, buffer moves/bulk appends, a single Normalize.
  size_t total = 0;
  for (const ResultSet& r : task_results) total += r.size();
  results->Reserve(total);
  for (ResultSet& r : task_results) {
    results->AppendFrom(std::move(r));
  }
  results->Normalize();
  for (const Counters& c : task_counters) counters_ += c;
  return Status::OK();
}

size_t ClusterJoinExecutor::EstimateMemoryUsage() const {
  size_t bytes = VectorMemoryUsage(views_) + arena_.EstimateMemoryUsage() +
                 VectorMemoryUsage(slot_by_cid_) +
                 VectorMemoryUsage(cell_offsets_) +
                 VectorMemoryUsage(cell_entries_) +
                 VectorMemoryUsage(cluster_refs_) +
                 VectorMemoryUsage(cell_lists_) +
                 VectorMemoryUsage(obj_counts_) + VectorMemoryUsage(qry_counts_);
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
