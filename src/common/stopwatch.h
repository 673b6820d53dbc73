// Stopwatch: monotonic wall-clock timing for the experiment harness.

#ifndef SCUBA_COMMON_STOPWATCH_H_
#define SCUBA_COMMON_STOPWATCH_H_

#include <chrono>

namespace scuba {

/// Measures elapsed monotonic time. Start() resets; ElapsedSeconds() reads
/// without stopping, so one stopwatch can bracket several phases.
class Stopwatch {
 public:
  Stopwatch() { Start(); }

  void Start() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace scuba

#endif  // SCUBA_COMMON_STOPWATCH_H_
