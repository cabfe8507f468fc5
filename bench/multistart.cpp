// Ablation A10: how much does the single-pass greedy leave on the
// table?  Multi-start randomized restarts (the `restart` search
// strategy: tier-preserving order shuffles) probe the gap on every
// paper system.  The paper lists
// better scheduling as future work; this quantifies the headroom.

#include <iostream>

#include "core/bounds.hpp"
#include "search/driver.hpp"
#include "sim/validate.hpp"

int main() {
  using namespace nocsched;
  try {
    const core::PlannerParams params = core::PlannerParams::paper();
    std::cout << "Multistart headroom (Leon, no power limit, 200 restarts)\n\n";
    std::cout << "system   procs   lower-bound   greedy      best        gap\n";
    for (const std::string& soc : itc02::builtin_names()) {
      const int procs = soc == "d695" ? 6 : 8;
      const core::SystemModel sys =
          core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
      const core::LowerBounds bounds = core::makespan_lower_bounds(sys);
      search::SearchOptions options;
      options.strategy = search::StrategyKind::kRestart;
      options.iters = 200;
      options.seed = 0x5EED;
      options.jobs = 0;
      const search::SearchResult result =
          search::search_orders(sys, power::PowerBudget::unconstrained(), options);
      sim::validate_or_throw(sys, result.best);
      const double gap = 100.0 * (static_cast<double>(result.first_makespan) -
                                  static_cast<double>(result.best.makespan)) /
                         static_cast<double>(result.first_makespan);
      std::cout << soc << (soc.size() < 7 ? std::string(7 - soc.size(), ' ') : "") << "  "
                << procs << "proc   " << bounds.combined() << "       "
                << result.first_makespan << "    " << result.best.makespan << "    "
                << static_cast<int>(gap + 0.5) << "% ("
                << result.metrics.counter_or("search.improvements")
                << " improvements)\n";
    }
    std::cout << "\n(single-digit gaps = the paper's one-pass greedy is a reasonable\n"
                 "heuristic; the gap is the cost of its documented anomaly)\n";
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
