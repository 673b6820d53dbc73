// LoadShedder: decides the current nucleus radius Theta_N (paper §5).
//
// Fixed mode pins eta = Theta_N / Theta_D for the whole run (the Figure 13
// sweep). Adaptive mode reacts to memory pressure: every maintenance round it
// compares the engine's estimated memory against a budget and tightens or
// relaxes eta stepwise — the paper's "if the system is about to run out of
// memory, SCUBA begins load shedding ... if memory requirements are still
// high, SCUBA load-sheds positions of all cluster members".

#ifndef SCUBA_CORE_LOAD_SHEDDER_H_
#define SCUBA_CORE_LOAD_SHEDDER_H_

#include <cstdint>

#include "core/scuba_options.h"

namespace scuba {

class LoadShedder {
 public:
  LoadShedder(const LoadSheddingOptions& options, double theta_d);

  /// Nucleus radius Theta_N to apply right now (0 = no shedding).
  double nucleus_radius() const { return eta_ * theta_d_; }
  double eta() const { return eta_; }
  LoadSheddingMode mode() const { return options_.mode; }

  /// Adaptive feedback: called once per maintenance round with the engine's
  /// current estimated memory. No-op in kNone/kFixed modes.
  void ObserveMemoryUsage(size_t bytes);

  /// Number of adaptive eta adjustments so far (observability; the engine's
  /// StatsSnapshot carries it to the metrics registry).
  uint64_t adjustments() const { return adjustments_; }

 private:
  friend struct PersistAccess;  ///< Snapshot serialization (src/persist).
  LoadSheddingOptions options_;
  double theta_d_;
  double eta_;
  uint64_t adjustments_ = 0;
};

}  // namespace scuba

#endif  // SCUBA_CORE_LOAD_SHEDDER_H_
