// Stream-hardening overhead (supplementary; not a paper figure).
//
// Quantifies what the robustness layer costs on the §6.1 workload: the
// UpdateValidator screen plus a per-round invariant audit, swept over rising
// fault rates. Rate 0 isolates pure screening overhead on a clean stream;
// higher rates show throughput as the validator sheds a growing share of the
// tuples. The run aborts if any round's audit finds a violation — the bench
// doubles as an end-to-end soak of the quarantine path.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "stream/fault_injector.h"
#include "stream/pipeline.h"
#include "stream/update_validator.h"

namespace scuba::bench {
namespace {

Trace CorruptTrace(const Trace& clean, const Rect& region, double rate,
                   FaultStats* stats_out) {
  FaultPlan plan = FaultPlan::AllFaults(rate, region, /*node_count=*/0);
  FaultInjector injector(plan, /*seed=*/0x5C0BA);
  Trace dirty;
  for (const TickBatch& batch : clean.batches()) {
    TickBatch corrupted;
    corrupted.time = batch.time;
    corrupted.object_updates = batch.object_updates;
    corrupted.query_updates = batch.query_updates;
    injector.CorruptBatch(batch.time, &corrupted.object_updates,
                          &corrupted.query_updates, nullptr, nullptr);
    dirty.Append(std::move(corrupted));
  }
  *stats_out = injector.stats();
  return dirty;
}

void Run() {
  PrintBanner("Hardening", "validator + audit overhead vs fault rate");
  ExperimentData data = BuildOrDie(DefaultConfig(/*skew=*/100));

  // Baseline: no validator, no audits, clean trace.
  Stopwatch base_sw;
  BenchOutcome base = RunScuba(data, /*delta=*/2);
  const double base_wall = base_sw.ElapsedSeconds();
  std::printf("baseline (unhardened, clean): %.3fs wall, %llu results\n\n",
              base_wall,
              static_cast<unsigned long long>(base.total_results));

  std::printf("%-10s | %8s %9s %9s %9s | %8s %7s\n", "fault rate", "wall(s)",
              "screened", "admitted", "rejected", "injected", "audits");
  for (double rate : {0.0, 0.01, 0.05, 0.10}) {
    FaultStats faults;
    Trace dirty = CorruptTrace(data.trace, data.region, rate, &faults);

    ScubaOptions opt;
    opt.region = data.region;
    opt.delta = 2;
    opt.audit_every_n_rounds = 1;
    Result<std::unique_ptr<ScubaEngine>> engine = ScubaEngine::Create(opt);
    SCUBA_CHECK_MSG(engine.ok(), engine.status().ToString().c_str());

    ValidatorConfig vconfig;
    vconfig.policy = BadUpdatePolicy::kQuarantine;
    vconfig.bounds = data.region;
    vconfig.check_bounds = true;
    UpdateValidator validator(vconfig);

    Stopwatch sw;
    Status s =
        ReplayTrace(dirty, engine->get(), /*delta=*/2, nullptr, &validator);
    const double wall = sw.ElapsedSeconds();
    SCUBA_CHECK_MSG(s.ok(), s.ToString().c_str());
    SCUBA_CHECK_MSG((*engine)->StatsSnapshot().eval.invariant_violations == 0,
                    "audit found violations on the quarantine path");

    const ValidatorStats& vs = validator.stats();
    std::printf("%-10.2f | %8.3f %9llu %9llu %9llu | %8llu %7llu\n", rate,
                wall, static_cast<unsigned long long>(vs.screened),
                static_cast<unsigned long long>(vs.admitted),
                static_cast<unsigned long long>(vs.TotalRejected()),
                static_cast<unsigned long long>(faults.TotalInjected()),
                static_cast<unsigned long long>(
                    (*engine)->StatsSnapshot().eval.invariant_audits));
  }
}

}  // namespace
}  // namespace scuba::bench

int main() {
  scuba::bench::Run();
  return 0;
}
