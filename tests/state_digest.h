// Bit-exact textual digest of all cluster/grid state reachable from a
// ScubaEngine, shared by the determinism tests (batch vs per-update ingest,
// fault injection, window matrix). Two engines with equal digests are
// indistinguishable to every later round: every cluster field, member order
// included, plus the grid registration cell for cell, serialized with
// hex-float formatting.

#ifndef SCUBA_TESTS_STATE_DIGEST_H_
#define SCUBA_TESTS_STATE_DIGEST_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/scuba_engine.h"

namespace scuba {

inline void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a,", v);  // hex float: bit-exact
  *out += buf;
}

inline void AppendClusterDigest(std::string* out, const MovingCluster* c,
                                const std::vector<uint32_t>* cells);

inline std::string StateDigest(const ScubaEngine& engine) {
  std::string d;
  const ClusterStore& store = engine.store();
  EXPECT_TRUE(store.ValidateConsistency().ok());
  for (ClusterId cid : store.SortedClusterIds()) {
    AppendClusterDigest(&d, store.GetCluster(cid),
                        engine.cluster_grid().CellsOf(cid));
  }
  return d;
}

inline void AppendClusterDigest(std::string* out, const MovingCluster* c,
                                const std::vector<uint32_t>* cells) {
  std::string& d = *out;
  {
    const ClusterId cid = c->cid();
    d += "c" + std::to_string(cid) + ":";
    AppendDouble(&d, c->centroid().x);
    AppendDouble(&d, c->centroid().y);
    AppendDouble(&d, c->radius());
    AppendDouble(&d, c->query_reach());
    AppendDouble(&d, c->average_speed());
    AppendDouble(&d, c->translation().x);
    AppendDouble(&d, c->translation().y);
    AppendDouble(&d, c->registered_bounds().center.x);
    AppendDouble(&d, c->registered_bounds().center.y);
    AppendDouble(&d, c->registered_bounds().radius);
    d += std::to_string(c->dest_node()) + ",";
    d += std::to_string(c->object_count()) + "/" +
         std::to_string(c->query_count()) + ",";
    if (c->has_nucleus()) {
      d += "n";
      AppendDouble(&d, c->NucleusCenter().x);
      AppendDouble(&d, c->NucleusCenter().y);
      AppendDouble(&d, c->nucleus_radius());
    }
    for (const ClusterMember& m : c->members()) {  // order matters
      d += (m.kind == EntityKind::kObject ? "o" : "q") + std::to_string(m.id);
      AppendDouble(&d, m.offset.x);
      AppendDouble(&d, m.offset.y);
      AppendDouble(&d, m.anchor.x);
      AppendDouble(&d, m.anchor.y);
      AppendDouble(&d, m.speed);
      AppendDouble(&d, m.range_width);
      AppendDouble(&d, m.range_height);
      d += std::to_string(m.attrs) + "," + std::to_string(m.update_time) +
           (m.shed ? ",s" : ",-");
      AppendDouble(&d, m.approx_radius);
    }
    EXPECT_NE(cells, nullptr);
    std::vector<uint32_t> sorted = *cells;
    std::sort(sorted.begin(), sorted.end());
    d += "g";
    for (uint32_t cell : sorted) d += std::to_string(cell) + ".";
    d += ";";
  }
}

}  // namespace scuba

#endif  // SCUBA_TESTS_STATE_DIGEST_H_
