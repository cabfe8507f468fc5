// Fault-aware replanning throughput: how fast the controller recovers a
// plan after a fault, comparing the incremental PairTable path (copy
// the pristine table, re-enumerate only the fault-touched modules) with
// a full from-scratch rebuild of the degraded table.  One "fault_sweep"
// JSON row per system (bench/json_row.hpp):
//   soc, procs, scenarios, rebuilt_avg, full_ms, incr_ms,
//   table_speedup, replan_full_per_sec, replan_incr_per_sec
// (rebuilt_avg is the mean number of pair lists the incremental path
// re-enumerated per scenario — the work the fault actually required;
// full_ms/incr_ms time the two table paths alone; the replan columns
// time the whole greedy replan, table included, both ways.)
//
// The bench asserts the two table paths are bit-identical on every
// scenario, and exits non-zero unless the incremental path is faster on
// every system — the entire point of PairTable::apply_faults, and a
// regression that erases the gap should fail loudly.

#include <chrono>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pair_table.hpp"
#include "json_row.hpp"
#include "noc/fault.hpp"
#include "search/replan.hpp"
#include "sim/validate.hpp"

namespace {

using namespace nocsched;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  try {
    const core::PlannerParams params = core::PlannerParams::paper();
    const power::PowerBudget budget = power::PowerBudget::unconstrained();
    constexpr std::uint64_t kScenarios = 100;
    constexpr std::uint64_t kSeed = 0xFA017;
    std::cout << "Fault-aware replanning: " << kScenarios
              << " random fault scenarios per system (seed 0xFA017),\n"
              << "incremental PairTable rebuild vs from-scratch degraded build\n\n";
    std::cout << "   soc procs scenarios rebuilt_avg full_ms incr_ms speedup "
                 "replan_full/s replan_incr/s\n";

    bool incremental_won = true;
    std::ostringstream rows;
    for (const std::string& soc : itc02::builtin_names()) {
      const int procs = soc == "d695" ? 6 : 8;
      const core::SystemModel sys =
          core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
      const core::PairTable pristine(sys);
      const std::vector<int> proc_ids = sys.soc().processor_ids();

      std::vector<noc::FaultSet> scenarios;
      for (std::uint64_t k = 0; k < kScenarios; ++k) {
        Rng rng = stream_rng(kSeed, k);
        scenarios.push_back(noc::random_fault_scenario(sys.mesh(), proc_ids, rng));
      }

      // Table paths alone — and the bit-identity assertion.
      std::uint64_t rebuilt_total = 0;
      auto t0 = std::chrono::steady_clock::now();
      std::vector<core::PairTable> full_tables;
      full_tables.reserve(scenarios.size());
      for (const noc::FaultSet& faults : scenarios) {
        full_tables.emplace_back(sys, faults);
      }
      const double full_ms = ms_since(t0);

      t0 = std::chrono::steady_clock::now();
      for (std::size_t k = 0; k < scenarios.size(); ++k) {
        core::PairTable incr = pristine;
        rebuilt_total += incr.apply_faults(sys, scenarios[k]);
        ensure(incr == full_tables[k], "bench failed: apply_faults diverged from the "
               "from-scratch degraded build on ", soc, " scenario ", k);
      }
      const double incr_ms = ms_since(t0);

      // Whole greedy replans, both table paths (validated once per path
      // on the first scenario; validating all 100 would time the
      // validator, not the replanner).
      search::SearchOptions options;  // iters = 0: the deterministic pass
      t0 = std::chrono::steady_clock::now();
      for (std::size_t k = 0; k < scenarios.size(); ++k) {
        const search::ReplanResult r = search::replan(sys, budget, scenarios[k], options);
        if (k == 0) sim::validate_or_throw(sys, r.schedule, scenarios[k]);
      }
      const double replan_full_ms = ms_since(t0);

      t0 = std::chrono::steady_clock::now();
      for (std::size_t k = 0; k < scenarios.size(); ++k) {
        const search::ReplanResult r =
            search::replan(sys, budget, scenarios[k], options, pristine);
        if (k == 0) sim::validate_or_throw(sys, r.schedule, scenarios[k]);
      }
      const double replan_incr_ms = ms_since(t0);

      const double n = static_cast<double>(kScenarios);
      if (incr_ms >= full_ms || replan_incr_ms >= replan_full_ms) incremental_won = false;
      const double rebuilt_avg = static_cast<double>(rebuilt_total) / n;
      const double replan_full_per_sec = 1000.0 * n / replan_full_ms;
      const double replan_incr_per_sec = 1000.0 * n / replan_incr_ms;
      std::cout << "   " << soc << " " << procs << " " << kScenarios << " " << std::fixed
                << std::setprecision(2) << rebuilt_avg << " " << full_ms << " " << incr_ms
                << " " << full_ms / incr_ms << " " << std::setprecision(0)
                << replan_full_per_sec << " " << replan_incr_per_sec << "\n";
      std::cout.unsetf(std::ios::fixed);
      rows << bench::JsonRow("fault_sweep")
                  .add("soc", soc)
                  .add("procs", procs)
                  .add("scenarios", kScenarios)
                  .add("rebuilt_avg", rebuilt_avg)
                  .add("full_ms", full_ms)
                  .add("incr_ms", incr_ms)
                  .add("table_speedup", full_ms / incr_ms)
                  .add("replan_full_per_sec", replan_full_per_sec)
                  .add("replan_incr_per_sec", replan_incr_per_sec);
    }
    std::cout << "\n" << rows.str();
    if (!incremental_won) {
      std::cerr << "bench failed: the incremental PairTable path did not beat the full "
                   "rebuild everywhere\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
