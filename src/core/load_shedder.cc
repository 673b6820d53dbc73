#include "core/load_shedder.h"

#include <algorithm>

namespace scuba {

namespace {

/// Adaptive mode relaxes eta once memory falls below this fraction of the
/// budget; the gap to the budget keeps eta from flapping every round.
constexpr double kRelaxFraction = 0.7;

}  // namespace

LoadShedder::LoadShedder(const LoadSheddingOptions& options, double theta_d)
    : options_(options),
      theta_d_(theta_d),
      eta_(options.mode == LoadSheddingMode::kFixed ? options.eta : 0.0) {}

void LoadShedder::ObserveMemoryUsage(size_t bytes) {
  if (options_.mode != LoadSheddingMode::kAdaptive) return;
  if (bytes > options_.memory_budget_bytes) {
    double next = std::min(1.0, eta_ + options_.eta_step);
    if (next != eta_) {
      eta_ = next;
      ++adjustments_;
    }
  } else if (static_cast<double>(bytes) <
             kRelaxFraction *
                 static_cast<double>(options_.memory_budget_bytes)) {
    double next = std::max(0.0, eta_ - options_.eta_step);
    if (next != eta_) {
      eta_ = next;
      ++adjustments_;
    }
  }
}

}  // namespace scuba
