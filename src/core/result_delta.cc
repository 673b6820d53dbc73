#include "core/result_delta.h"

#include <algorithm>
#include <cstddef>
#include <type_traits>

namespace scuba {

// The wire layout of a match is u32 qid | u32 oid, little-endian — exactly
// the in-memory layout of Match on a little-endian host (serializer.h
// asserts the byte order), so a vector moves as one block.
static_assert(sizeof(Match) == 8 && offsetof(Match, qid) == 0 &&
                  offsetof(Match, oid) == 4 &&
                  std::is_trivially_copyable_v<Match> &&
                  std::has_unique_object_representations_v<Match>,
              "Match must be two packed u32s to be block-copied");

namespace {

/// Ascending + duplicate-free: the ordering contract both delta vectors and
/// the wire decoder enforce.
bool StrictlyAscending(const std::vector<Match>& v) {
  for (size_t i = 1; i < v.size(); ++i) {
    if (!(v[i - 1] < v[i])) return false;
  }
  return true;
}

/// Disjointness of two ascending vectors by one merge walk.
bool Disjoint(const std::vector<Match>& a, const std::vector<Match>& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return false;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return true;
}

}  // namespace

void SaveMatches(const std::vector<Match>& v, ByteWriter* writer) {
  writer->PutU64(v.size());
  if (!v.empty()) writer->PutBlock(v.data(), v.size() * sizeof(Match));
}

Status LoadMatches(ByteReader* reader, const char* what,
                   std::vector<Match>* v) {
  uint64_t n = 0;
  SCUBA_RETURN_IF_ERROR(reader->GetU64(&n));
  // Each match costs 8 payload bytes; a count the remaining bytes cannot
  // cover is truncation (and guards the resize below against hostile
  // lengths). Divide, never multiply: a 2^63-ish count must not overflow.
  if (n > reader->Remaining() / sizeof(Match)) {
    return Status::DataLoss(std::string(what) + " count " + std::to_string(n) +
                            " overruns the remaining payload");
  }
  v->resize(static_cast<size_t>(n));
  if (n > 0) {
    SCUBA_RETURN_IF_ERROR(
        reader->GetBlock(v->data(), v->size() * sizeof(Match)));
  }
  if (!StrictlyAscending(*v)) {
    return Status::Corruption(std::string(what) +
                              " vector is not ascending/duplicate-free");
  }
  return Status::OK();
}

size_t ResultDelta::SavedBytes() const {
  // round | time | shard count | shards | added count | added | removed
  // count | removed — mirrors Save.
  return 5 * sizeof(uint64_t) + degraded_shards.size() * sizeof(uint32_t) +
         (added.size() + removed.size()) * sizeof(Match);
}

void ResultDelta::Save(ByteWriter* writer) const {
  writer->PutU64(round);
  writer->PutI64(time);
  writer->PutU64(degraded_shards.size());
  for (uint32_t s : degraded_shards) writer->PutU32(s);
  SaveMatches(added, writer);
  SaveMatches(removed, writer);
}

Status ResultDelta::Load(ByteReader* reader, ResultDelta* delta) {
  *delta = ResultDelta{};
  SCUBA_RETURN_IF_ERROR(reader->GetU64(&delta->round));
  SCUBA_RETURN_IF_ERROR(reader->GetI64(&delta->time));
  uint64_t shards = 0;
  SCUBA_RETURN_IF_ERROR(reader->GetU64(&shards));
  if (shards > reader->Remaining() / 4) {
    return Status::DataLoss("degraded-shard count " + std::to_string(shards) +
                            " overruns the remaining payload");
  }
  delta->degraded_shards.reserve(static_cast<size_t>(shards));
  for (uint64_t i = 0; i < shards; ++i) {
    uint32_t s = 0;
    SCUBA_RETURN_IF_ERROR(reader->GetU32(&s));
    delta->degraded_shards.push_back(s);
  }
  SCUBA_RETURN_IF_ERROR(LoadMatches(reader, "added", &delta->added));
  SCUBA_RETURN_IF_ERROR(LoadMatches(reader, "removed", &delta->removed));
  // added ∩ removed = ∅ by construction (an element cannot enter and leave in
  // the same round); enforce it so ApplyDelta stays well-defined on decoded
  // bytes.
  if (!Disjoint(delta->added, delta->removed)) {
    return Status::Corruption("added and removed sets overlap");
  }
  return Status::OK();
}

ResultDelta DiffResults(const ResultSet& previous, const ResultSet& current) {
  ResultDelta delta;
  delta.degraded_shards = current.degraded_shards();
  const std::vector<Match>& p = previous.matches();
  const std::vector<Match>& c = current.matches();
  size_t i = 0;
  size_t j = 0;
  while (i < p.size() && j < c.size()) {
    if (p[i] == c[j]) {
      ++i;
      ++j;
    } else if (p[i] < c[j]) {
      delta.removed.push_back(p[i++]);
    } else {
      delta.added.push_back(c[j++]);
    }
  }
  delta.removed.insert(delta.removed.end(), p.begin() + static_cast<ptrdiff_t>(i),
                       p.end());
  delta.added.insert(delta.added.end(), c.begin() + static_cast<ptrdiff_t>(j),
                     c.end());
  return delta;
}

ResultSet ApplyDelta(const ResultSet& base, const ResultDelta& delta) {
  // Both inputs are sorted; removed ⊆ base and added ∩ base = ∅, so a single
  // merge produces the (sorted) result.
  ResultSet out;
  const std::vector<Match>& b = base.matches();
  out.Reserve(b.size() + delta.added.size() -
              std::min(b.size(), delta.removed.size()));
  size_t ri = 0;  // removed cursor
  size_t ai = 0;  // added cursor
  for (const Match& m : b) {
    if (ri < delta.removed.size() && delta.removed[ri] == m) {
      ++ri;
      continue;
    }
    while (ai < delta.added.size() && delta.added[ai] < m) {
      out.Add(delta.added[ai].qid, delta.added[ai].oid);
      ++ai;
    }
    out.Add(m.qid, m.oid);
  }
  for (; ai < delta.added.size(); ++ai) {
    out.Add(delta.added[ai].qid, delta.added[ai].oid);
  }
  for (uint32_t s : delta.degraded_shards) out.MarkDegraded(s);
  return out;
}

ResultDelta IncrementalResultTracker::Observe(const ResultSet& current,
                                              Timestamp now) {
  ResultDelta delta = DiffResults(current_, current);
  current_ = current;
  ++rounds_;
  time_ = now;
  delta.round = rounds_;
  delta.time = now;
  return delta;
}

ResultDelta IncrementalResultTracker::DeltaSince(const ResultSet& base) const {
  ResultDelta delta = DiffResults(base, current_);
  delta.round = rounds_;
  delta.time = time_;
  return delta;
}

void IncrementalResultTracker::Reset() {
  current_ = ResultSet{};
  rounds_ = 0;
  time_ = 0;
}

}  // namespace scuba
