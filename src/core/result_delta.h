// Incremental result computation (paper future work, §8: "enhance SCUBA to
// produce results incrementally").
//
// Continuous-query consumers usually care about *changes* to the answer, not
// the full answer every Delta — and the serving front-end (src/serve,
// docs/ARCHITECTURE.md §14) pushes exactly these deltas to subscribers, so
// ResultDelta is both the evaluation contract and the wire payload:
//
//  - *Round-stamped*: every delta names the evaluation round and timestamp it
//    advances the answer to, so a consumer folding a delta stream can detect
//    gaps and align rounds across sessions.
//  - *Deterministic and ordered*: `added` and `removed` are ascending,
//    duplicate-free Match vectors (the normalized-set discipline engines
//    already guarantee), so equal inputs produce byte-equal encodings.
//  - *Degraded-mode provenance propagates*: a round served from a failed
//    shard's stale slice (ResultSet::MarkDegraded, §13) is flagged on the
//    delta, never silently diffed away.
//  - *Serializer round trips*: Save/Load use the common ByteWriter/ByteReader
//    vocabulary (CRC framing is the transport's job, src/serve/protocol.h).
//
// DiffResults computes the (added, removed) match sets between consecutive
// rounds in one merge pass over the normalized sets; ApplyDelta is the
// consumer-side inverse; IncrementalResultTracker packages the previous-round
// state as a cursor for a single consumer (the serve layer instead diffs once
// per round and filters that delta per session, src/serve/session.h).

#ifndef SCUBA_CORE_RESULT_DELTA_H_
#define SCUBA_CORE_RESULT_DELTA_H_

#include <cstdint>
#include <vector>

#include "common/serializer.h"
#include "common/status.h"
#include "common/types.h"
#include "core/result_set.h"

namespace scuba {

/// Changes between two evaluation rounds, stamped with the round they advance
/// the answer set to.
struct ResultDelta {
  /// Evaluation round ordinal this delta advances the answer to (1 = first
  /// evaluation). 0 = unstamped (a bare DiffResults with no round context).
  uint64_t round = 0;
  /// Evaluation timestamp of that round.
  Timestamp time = 0;
  /// Degraded-mode provenance of the CURRENT round (docs/ARCHITECTURE.md
  /// §13): shard indices whose slice of the answer is stale. A degraded round
  /// must stay visible to delta consumers even when the diff is empty.
  std::vector<uint32_t> degraded_shards;
  std::vector<Match> added;    ///< In current but not previous; ascending.
  std::vector<Match> removed;  ///< In previous but not current; ascending.

  bool Empty() const { return added.empty() && removed.empty(); }
  size_t size() const { return added.size() + removed.size(); }
  bool degraded() const { return !degraded_shards.empty(); }

  /// Serializer round trip (the serve protocol's delta payload). Save appends
  /// the stamped structure to `writer`; Load reads it back, returning
  /// kDataLoss on truncation and kCorruption when the decoded vectors violate
  /// the ascending/duplicate-free ordering contract (a well-formed encoder
  /// never produces such bytes; a hostile or damaged stream can).
  void Save(ByteWriter* writer) const;
  static Status Load(ByteReader* reader, ResultDelta* delta);
  /// Exact number of bytes Save appends, from the counts alone — lets a
  /// sender apply size caps before encoding anything.
  size_t SavedBytes() const;

  friend bool operator==(const ResultDelta&, const ResultDelta&) = default;
};

/// The match-vector codec Save/Load use (u64 count, then u32 qid | u32 oid
/// per match), shared with the serve snapshot message. Matches move as one
/// block. LoadMatches returns kDataLoss when the count overruns the reader and
/// kCorruption when the vector is not ascending/duplicate-free; `what` names
/// the vector in the error.
void SaveMatches(const std::vector<Match>& v, ByteWriter* writer);
Status LoadMatches(ByteReader* reader, const char* what,
                   std::vector<Match>* v);

/// One-pass merge diff; both sets must be normalized (engines normalize
/// before returning). The result is unstamped (round 0) but carries
/// `current`'s degraded provenance; stamping is the tracker's/caller's job.
ResultDelta DiffResults(const ResultSet& previous, const ResultSet& current);

/// Applies `delta` to `base` (the previous round's set), reconstructing the
/// current round — the consumer-side inverse of DiffResults. The delta's
/// degraded provenance is marked on the reconstructed set.
ResultSet ApplyDelta(const ResultSet& base, const ResultDelta& delta);

/// Stateful cursor: feed each round's full result; get the stamped delta
/// against the previous round. The first round reports everything as added.
/// The retained set doubles as a snapshot fallback for a consumer that fell
/// behind.
class IncrementalResultTracker {
 public:
  /// Computes the delta vs the previous Observe() and retains `current`.
  /// The delta is stamped with this observation's round ordinal (the
  /// tracker's internal count) and `now`, and carries `current`'s degraded
  /// provenance.
  ResultDelta Observe(const ResultSet& current, Timestamp now = 0);

  /// Cursor read: the delta that advances `base` to the latest observed set,
  /// stamped like the latest Observe(). Lets a consumer that missed pushes
  /// (or was coalesced to an older snapshot) catch up in one step without
  /// disturbing the cursor. DeltaSince(previous()) is empty by construction.
  ResultDelta DeltaSince(const ResultSet& base) const;

  /// Snapshot fallback: the latest observed full result set (empty before the
  /// first Observe). What a slow consumer is coalesced to.
  const ResultSet& Current() const { return current_; }

  /// Forgets all state: the next Observe() is round 1, all-added.
  void Reset();

  uint64_t rounds() const { return rounds_; }
  /// Timestamp of the latest Observe (0 before the first).
  Timestamp time() const { return time_; }

 private:
  ResultSet current_;
  uint64_t rounds_ = 0;
  Timestamp time_ = 0;
};

}  // namespace scuba

#endif  // SCUBA_CORE_RESULT_DELTA_H_
