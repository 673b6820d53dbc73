// Join results: (query, object) match pairs produced by an evaluation round.

#ifndef SCUBA_CORE_RESULT_SET_H_
#define SCUBA_CORE_RESULT_SET_H_

#include <algorithm>
#include <vector>

#include "common/memory_usage.h"
#include "common/types.h"

namespace scuba {

/// One answer tuple: object `oid` currently satisfies range query `qid`.
struct Match {
  QueryId qid = 0;
  ObjectId oid = 0;

  friend bool operator==(const Match&, const Match&) = default;
  friend auto operator<=>(const Match&, const Match&) = default;
};

/// The answer set of one evaluation round. Duplicates may be added (e.g. the
/// same pair discovered through two cluster pairs); Normalize() sorts and
/// dedups, and is called by engines before returning.
class ResultSet {
 public:
  void Add(QueryId qid, ObjectId oid) { matches_.push_back(Match{qid, oid}); }

  void Clear() {
    matches_.clear();
    degraded_shards_.clear();
  }

  /// Pre-sizes the match buffer (capacity only; size is untouched). Engines
  /// seed this with the previous round's match count — continuous queries
  /// change answers incrementally, so last round is an excellent estimate.
  void Reserve(size_t n) { matches_.reserve(n); }

  /// Steals `other`'s matches into this set (duplicates allowed until
  /// Normalize). When this set is empty and under-sized the donor buffer is
  /// adopted wholesale; otherwise the elements are appended in bulk. Either
  /// way `other` is left empty.
  void AppendFrom(ResultSet&& other) {
    if (matches_.empty() && matches_.capacity() < other.matches_.size()) {
      matches_ = std::move(other.matches_);
    } else {
      matches_.insert(matches_.end(), other.matches_.begin(),
                      other.matches_.end());
    }
    other.matches_.clear();
  }

  /// Sorts matches and removes duplicates.
  void Normalize() {
    std::sort(matches_.begin(), matches_.end());
    matches_.erase(std::unique(matches_.begin(), matches_.end()),
                   matches_.end());
  }

  /// Replaces the matches with the normalized union of `slices`, each of
  /// which must already be normalized. The slices are copied back to back
  /// and merged pairwise — O(n log k) for k slices instead of Normalize's
  /// full sort — then deduplicated.
  void MergeNormalized(const std::vector<const ResultSet*>& slices) {
    size_t total = 0;
    for (const ResultSet* slice : slices) total += slice->size();
    matches_.clear();
    matches_.reserve(total);
    std::vector<size_t> bounds;  // run starts, then the end
    for (const ResultSet* slice : slices) {
      bounds.push_back(matches_.size());
      matches_.insert(matches_.end(), slice->matches_.begin(),
                      slice->matches_.end());
    }
    bounds.push_back(matches_.size());
    while (bounds.size() > 2) {
      std::vector<size_t> merged;
      for (size_t i = 0; i + 2 < bounds.size(); i += 2) {
        std::inplace_merge(matches_.begin() + bounds[i],
                           matches_.begin() + bounds[i + 1],
                           matches_.begin() + bounds[i + 2]);
        merged.push_back(bounds[i]);
      }
      // An odd run count leaves the last run unpaired for this pass.
      if (bounds.size() % 2 == 0) merged.push_back(bounds[bounds.size() - 2]);
      merged.push_back(matches_.size());
      bounds.swap(merged);
    }
    matches_.erase(std::unique(matches_.begin(), matches_.end()),
                   matches_.end());
  }

  size_t size() const { return matches_.size(); }
  bool empty() const { return matches_.empty(); }
  const std::vector<Match>& matches() const { return matches_; }

  /// Binary search; requires Normalize() first.
  bool Contains(QueryId qid, ObjectId oid) const {
    return std::binary_search(matches_.begin(), matches_.end(),
                              Match{qid, oid});
  }

  /// Degraded-mode provenance (docs/ARCHITECTURE.md §13): shard indices whose
  /// slice of this round's answer is the shard's last successfully published
  /// results rather than a fresh join. Empty on every clean round. Provenance,
  /// not content: operator== ignores it so twin-comparison tests compare
  /// answers only.
  void MarkDegraded(uint32_t shard) { degraded_shards_.push_back(shard); }
  const std::vector<uint32_t>& degraded_shards() const {
    return degraded_shards_;
  }
  bool degraded() const { return !degraded_shards_.empty(); }

  friend bool operator==(const ResultSet& a, const ResultSet& b) {
    return a.matches_ == b.matches_;
  }

  size_t EstimateMemoryUsage() const {
    return VectorMemoryUsage(matches_) + VectorMemoryUsage(degraded_shards_);
  }

 private:
  std::vector<Match> matches_;
  std::vector<uint32_t> degraded_shards_;
};

}  // namespace scuba

#endif  // SCUBA_CORE_RESULT_SET_H_
