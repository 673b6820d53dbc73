// ClusterJoinExecutor: the cluster-based joining phase (paper §4, Algorithms
// 1-3), decoupled from the engine so it can run over any populated
// ClusterStore/ClusterGrid — the engine's incrementally maintained clusters,
// or clusters built offline by K-means (the §6.4 comparison).
//
// Per grid cell, every kind-complementary cluster pair goes through the cheap
// circle-overlap join-between; overlapping pairs (and mixed clusters, against
// themselves) proceed to the member-level join-within. Shed members are
// grouped per nucleus so one predicate covers the whole group (§5).
//
// Member state is laid out as structure-of-arrays slabs: one per-executor
// arena holds every view's exact-object columns (xs/ys/ids/attrs), exact-
// query columns (xs/ys/widths/heights/qids/required_attrs plus the hoisted
// range rectangles) and sorted cell lists as contiguous spans, reused across
// rounds instead of reallocated per view. The member-level predicates run as
// batched kernels over those slabs (core/join_kernels.h) with match indices
// emitted into per-task scratch — same comparisons and emission order as the
// scalar loops they replaced, so results, counters and EngineStateHash stay
// bit-identical at every thread count (docs/ARCHITECTURE.md §10).
//
// A round is Prepare() then one or more ScanWindow() calls. Prepare()
// precomputes every JoinView once into an immutable per-round table indexed
// by store cluster slot (view v is ClusterStore slot v). A window's worker
// tasks pull contiguous chunks of view slots off a shared atomic cursor, each
// emitting into its own match buffer and Counters. The window's answer is
// one radix sort (ResultSet::AssignNormalized) that scatters straight out of
// those buffers and uses them as its scratch; the executor keeps them across
// rounds, so assembling the answer allocates nothing in steady state. The
// scan reads a flattened CSR snapshot of the grid's cell entries whose cids
// Prepare() turned into store slots, so it resolves no cluster id.
// The scan is cluster-major: a task walks each of its clusters' sorted cells
// in ascending order and meets every co-resident cluster with a higher slot.
// A per-task stamp array marks the partner on first contact, so the cell
// where a pair first meets is its lowest shared cell (the owner cell) and
// the pair is evaluated there only — once per round, with no cross-task
// seen-set. A mixed cluster self-joins only in its own lowest cell. Results
// and counters are identical at every thread count and for any slot order;
// only the emission order before the final sort depends on the scan order.

#ifndef SCUBA_CORE_CLUSTER_JOIN_H_
#define SCUBA_CORE_CLUSTER_JOIN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster_store.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/result_set.h"
#include "index/grid_index.h"
#include "obs/metrics.h"

namespace scuba {

class ClusterJoinExecutor {
 public:
  friend struct PersistAccess;  ///< Snapshot serialization (src/persist).
  /// Cumulative counters across ScanWindow() calls. With several worker tasks
  /// each accumulates privately; the merged sums are identical for every
  /// thread count (the owner-cell rule fixes *which* cell counts each event,
  /// independent of scheduling).
  struct Counters {
    uint64_t comparisons = 0;           ///< Individual predicate evaluations.
    uint64_t bounds_checks = 0;         ///< Per-query fine-filter pre-checks.
    uint64_t pairs_tested = 0;          ///< Join-between tests.
    uint64_t pairs_overlapping = 0;     ///< Join-between positives.
    uint64_t within_joins_single = 0;   ///< Same-cluster join-within runs.
    uint64_t within_joins_pair = 0;     ///< Cross-cluster join-within runs.

    Counters& operator+=(const Counters& o) {
      comparisons += o.comparisons;
      bounds_checks += o.bounds_checks;
      pairs_tested += o.pairs_tested;
      pairs_overlapping += o.pairs_overlapping;
      within_joins_single += o.within_joins_single;
      within_joins_pair += o.within_joins_pair;
      return *this;
    }
  };

  /// query_reach_aware selects the lossless inflated join-between bounds
  /// (default) versus the paper's pure member circles (ablation).
  /// threads: worker tasks per round; 0 = hardware concurrency, 1 = serial
  /// execution on the calling thread (no pool is ever created).
  explicit ClusterJoinExecutor(bool query_reach_aware = true,
                               uint32_t threads = 1);
  ~ClusterJoinExecutor();

  /// Runs one full joining phase: Prepare() plus ScanWindow() over every
  /// cell. Every cluster in `grid` must exist in `store` (checked). Results
  /// are normalized.
  Status Execute(const ClusterStore& store, const GridIndex& grid,
                 ResultSet* results);

  /// Builds the round's join state once: a view per store cluster slot
  /// (empty unless the slot holds a cluster registered in `grid`) and the
  /// CSR snapshot of the grid's cells, entries as store slots.
  /// `store` and `grid` must not change until the round's last ScanWindow().
  Status Prepare(const ClusterStore& store, const GridIndex& grid);

  /// Cells of the grid the last Prepare() saw.
  uint32_t CellCount() const { return cell_count_; }

  /// Evaluates every pair and self-join whose owner cell lies in
  /// [cell_begin, cell_end), spread over the executor's worker tasks, into
  /// `results` (cleared first, normalized). The owner-cell rule resolves
  /// against each cluster's full cell list, so disjoint windows partition the
  /// pair work exactly: each pair is evaluated by the one window holding its
  /// lowest shared cell, and the counters summed over any window cover are
  /// the full scan's.
  Status ScanWindow(uint32_t cell_begin, uint32_t cell_end, ResultSet* results);

  const Counters& counters() const { return counters_; }

  /// Worker tasks Prepare() and ScanWindow() fan out to (>= 1).
  uint32_t resolved_threads() const { return resolved_threads_; }

  /// Summed busy time of all worker tasks since the last Prepare() (its own
  /// tasks included). With one thread this tracks the join wall time; the
  /// wall/worker ratio is the parallel-efficiency figure EngineStats reports.
  double last_worker_seconds() const { return last_worker_seconds_; }

  /// Observability (docs/ARCHITECTURE.md §9): turns on per-task phase
  /// timing (busy time per task, join-within seconds) and registers the
  /// executor's task-busy histogram in `registry` (may be null to collect
  /// timings without a registry). Off by default — the disabled path takes
  /// no extra clock reads.
  void AttachTelemetry(MetricsRegistry* registry);

  /// Per-task busy seconds since the last Prepare() (empty unless telemetry
  /// is attached). Index = task id.
  const std::vector<double>& last_task_busy_seconds() const {
    return last_task_busy_seconds_;
  }

  /// Seconds spent inside member-level join-within work since the last
  /// Prepare(), summed across tasks (0 unless telemetry is attached). The
  /// join-between share is the window scans' worker seconds (what
  /// last_worker_seconds() gained after Prepare() returned) minus this.
  double last_within_seconds() const { return last_within_seconds_; }

  /// Wall seconds the window scans since the last Prepare() spent sorting
  /// their task buffers into each window's answer (0 unless telemetry is
  /// attached).
  double last_sort_seconds() const { return last_sort_seconds_; }

  /// Scratch-space heap footprint: the SoA slab arena, view table, CSR grid
  /// snapshot and per-task kernel scratch. The
  /// per-task match buffers and the radix histograms are left out: they hold
  /// the round's answer, which the engine's estimate has never counted (nor
  /// its windows' result slices), so adaptive shedding does not depend on
  /// how the answer is assembled.
  size_t EstimateMemoryUsage() const;

 private:
  /// An exact (non-shed) query member, position precomputed. Survives only on
  /// the shed path (queries approximated at a nucleus); exact queries live in
  /// the slab arena.
  struct ExactQuery {
    Point position;
    double width;
    double height;
    QueryId qid;
    uint64_t required_attrs;  ///< 0 = unfiltered.
  };
  /// A shed object: reconstructs at the nucleus center.
  struct NucleusObject {
    ObjectId oid;
    uint64_t attrs;
  };
  /// Members shed into one nucleus: they reconstruct to the same center with
  /// the same approximation radius, so one predicate covers the group.
  struct NucleusGroup {
    Point center;
    double radius = 0.0;
    std::vector<NucleusObject> objects;
    std::vector<ExactQuery> queries;  ///< Shed queries (center = nucleus).
  };
  /// Per-cluster join-side view, rebuilt once per Prepare() for every store
  /// cluster slot (empty: no cells, no members, for a free slot or a cluster
  /// the grid does not hold). Immutable during the window scans. Member and
  /// cell data live in the executor's slab arena; the view only carries
  /// [begin, begin + count) spans into it. Nucleus groups (load-shedding
  /// only) remain per-view vectors — they are rare and tiny.
  struct JoinView {
    /// The cluster's member circle (covers every member position including
    /// nucleus disks); used as a per-query fine filter: a query whose
    /// rectangle misses this circle cannot match any member, even when the
    /// coarse cluster-pair bounds overlapped.
    Circle bounds;
    /// Join-between bounds, snapshotted so the window scans never touch the
    /// MovingCluster: JoinBounds() when query-reach-aware, Bounds() otherwise.
    Circle coarse;
    uint32_t obj_begin = 0;    ///< Exact-object span in the arena.
    uint32_t obj_count = 0;
    uint32_t qry_begin = 0;    ///< Exact-query span in the arena.
    uint32_t qry_count = 0;
    /// The cluster's grid cells (arena span), ascending like every grid
    /// placement;
    /// cell 0 of the span owns the self-join, the smallest common cell of a
    /// pair owns the pair join.
    uint32_t cells_begin = 0;
    uint32_t cells_count = 0;
    std::vector<NucleusGroup> nuclei;
    bool mixed = false;       ///< HasMixedKinds(), snapshotted.
    bool has_objects = false;
    bool has_queries = false;
  };
  /// The per-executor slab arena: every view's member columns and cell lists
  /// concatenated. Resized (never shrunk below capacity) once per round in
  /// the serial sizing pass, then filled by the parallel view build — each
  /// view writes only its own disjoint spans.
  struct SlabArena {
    // Exact objects, all views concatenated.
    std::vector<double> obj_xs;
    std::vector<double> obj_ys;
    std::vector<uint32_t> obj_ids;
    std::vector<uint64_t> obj_attrs;
    // Exact queries: raw member state plus the hoisted range rectangles
    // (Rect::Centered computed once per round, not once per view pass).
    std::vector<double> qry_xs;
    std::vector<double> qry_ys;
    std::vector<double> qry_widths;
    std::vector<double> qry_heights;
    std::vector<double> qry_min_xs;
    std::vector<double> qry_min_ys;
    std::vector<double> qry_max_xs;
    std::vector<double> qry_max_ys;
    std::vector<uint32_t> qry_ids;
    std::vector<uint64_t> qry_required;
    // Per-view sorted grid-cell lists.
    std::vector<uint32_t> cells;

    void Resize(size_t objects, size_t queries, size_t cell_slots);
    size_t EstimateMemoryUsage() const;
  };
  /// Per-task scratch, reused across rounds: match-index buffer sized to the
  /// largest object slab, query pre-filter mask sized to the largest query
  /// slab, and the pair stamp (one slot per view, reset each window scan):
  /// stamp[b] == a once the scan of view a has met view b.
  struct JoinScratch {
    std::vector<uint32_t> indices;
    std::vector<uint8_t> mask;
    std::vector<uint32_t> stamp;
  };

  /// Fills a view whose counts and arena spans are set from `cluster` and
  /// its grid placement `cells`.
  void FillView(JoinView* view, const MovingCluster& cluster,
                const std::vector<uint32_t>& cells);
  /// Runs `fn(task, slot)` for every view slot on the worker tasks, which
  /// pull slot chunks off a shared cursor; adds each task's busy seconds to
  /// `(*busy)[task]` unless `busy` is empty (telemetry off).
  template <typename Fn>
  Status ForEachView(std::vector<double>* busy, Fn fn);
  void JoinObjectsToQueries(const JoinView& objects_view,
                            const JoinView& queries_view, JoinScratch* scratch,
                            Counters* counters, ResultSet* results) const;
  /// Kernel-driven inner join of one query rectangle against a view's object
  /// slab and object nuclei; emits matches in slab order, nuclei after.
  void EmitObjectMatches(const JoinView& objects_view, const Rect& range,
                         QueryId qid, uint64_t required_attrs,
                         JoinScratch* scratch, Counters* counters,
                         ResultSet* results) const;
  /// Member-level join-within of view `a` with itself (`&a == &b`) or of a
  /// pair in both orientations, timed into `within_seconds` when non-null.
  void JoinPair(const JoinView& a, const JoinView& b, JoinScratch* scratch,
                Counters* counters, ResultSet* results,
                double* within_seconds) const;
  /// View `a`'s share of the scan: every pair it takes from its lower slot
  /// and its self-join whose owner cell lies in [cell_begin, cell_end), into
  /// one worker task's buffers. `within_seconds` (nullable) accumulates time
  /// spent in member-level join-within work.
  void ScanView(uint32_t a, uint32_t cell_begin, uint32_t cell_end,
                JoinScratch* scratch, Counters* counters, ResultSet* results,
                double* within_seconds) const;

  bool query_reach_aware_;
  uint32_t resolved_threads_;
  Counters counters_;
  uint32_t cell_count_ = 0;
  double last_worker_seconds_ = 0.0;
  /// Telemetry (AttachTelemetry): per-task busy + within timings and the
  /// task-busy histogram workers observe into (a no-op handle when no
  /// registry was attached).
  bool collect_phase_timings_ = false;
  std::vector<double> last_task_busy_seconds_;
  double last_within_seconds_ = 0.0;
  double last_sort_seconds_ = 0.0;
  HistogramMetric task_busy_histogram_;
  /// Per-round view table indexed by store cluster slot, so it is sized by
  /// the store's slots, not by cluster ids. Rebuilt each Prepare(), kept
  /// until the next round so the adaptive load shedder sees the scratch
  /// footprint the join really used.
  std::vector<JoinView> views_;
  SlabArena arena_;
  /// CSR snapshot of the grid's cell entries (FlattenEntries, each cid then
  /// replaced by its store slot), rebuilt by every Prepare(): each round's
  /// ingest mutates the grid.
  std::vector<uint32_t> cell_offsets_;
  std::vector<uint32_t> cell_entries_;
  /// Largest single-view slab sizes this round (scratch sizing).
  uint32_t max_view_objects_ = 0;
  uint32_t max_view_queries_ = 0;
  std::vector<JoinScratch> scratch_;  ///< One per worker task.
  /// Per-task match buffers, kept across rounds: ScanView emits into them
  /// and ResultSet::AssignNormalized sorts out of them, using them as its
  /// ping-pong scratch (so they trade buffers with the window's answer).
  std::vector<ResultSet> task_results_;
  std::vector<uint32_t> radix_counts_;  ///< The sort's digit histograms.
  /// Created on first parallel Prepare(); never for resolved_threads_ == 1.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace scuba

#endif  // SCUBA_CORE_CLUSTER_JOIN_H_
