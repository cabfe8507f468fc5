// PairTable::testable_modules is the least fixpoint grounded in ATE
// sessions: a module is testable once one of its power-feasible pairs
// has every processor endpoint pretested or itself testable.  The
// reference here is the greatest fixpoint (start from every module with
// a pair and clear the unusable ones), which also keeps processors that
// could only test one another, so planning it can get stuck.
//
// The property that the least fixpoint changes no answer that plans
// successfully: over random systems, fault sets and pretested
// processors, it is always a subset of the greatest one, and the two
// are equal whenever the reference planner (tests/oracle/) plans the
// greatest one without error — a successful plan tests every module
// after its servers, so every planned module is grounded.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pair_table.hpp"
#include "core/placement.hpp"
#include "core/scheduler.hpp"
#include "itc02/random_soc.hpp"
#include "noc/fault.hpp"
#include "oracle/reference_planner.hpp"

namespace nocsched::core {
namespace {

SystemModel random_system(Rng& rng) {
  itc02::RandomSocSpec spec;
  spec.min_cores = 2;
  spec.max_cores = 10;
  spec.max_scan_flops = 1200;
  spec.max_patterns = 100;
  itc02::Soc soc = itc02::random_soc(rng, spec);
  const int procs = static_cast<int>(1 + rng.below(4));
  for (int i = 1; i <= procs; ++i) {
    const auto kind =
        rng.chance(0.5) ? itc02::ProcessorKind::kLeon : itc02::ProcessorKind::kPlasma;
    soc.modules.push_back(
        itc02::processor_module(kind, static_cast<int>(soc.modules.size()) + 1, i));
  }
  itc02::validate(soc);
  const int cols = static_cast<int>(2 + rng.below(3));
  const int rows = static_cast<int>(2 + rng.below(3));
  noc::Mesh mesh(cols, rows);
  auto placement = default_placement(soc, mesh);
  const noc::RouterId in = default_ate_input(mesh);
  const noc::RouterId out = default_ate_output(mesh);
  PlannerParams params = PlannerParams::paper();
  params.allow_cross_pairing = rng.chance(0.5);
  if (rng.chance(0.25)) params.resource_choice = ResourceChoice::kEarliestCompletion;
  return SystemModel(std::move(soc), std::move(mesh), std::move(placement), in, out, params);
}

/// A random fault set; half of them kill the ATE input router, the
/// case where processors can serve only one another.
noc::FaultSet random_faults(const SystemModel& sys, Rng& rng) {
  noc::FaultSet faults =
      noc::random_fault_scenario(sys.mesh(), sys.soc().processor_ids(), rng);
  if (rng.chance(0.5)) faults.fail_router(sys.endpoints()[0].router);
  return faults;
}

/// Greatest-fixpoint testability: start from every module with a pair
/// and clear those left without a usable one until nothing changes.
std::vector<bool> greatest_fixpoint(const SystemModel& sys, const PairTable& table,
                                    double power_limit, std::span<const int> pretested) {
  const std::vector<Endpoint>& eps = sys.endpoints();
  const std::size_t n = sys.soc().modules.size();
  std::vector<bool> done(n, false);
  for (const int id : pretested) done[static_cast<std::size_t>(id - 1)] = true;
  std::vector<bool> testable(n);
  for (const itc02::Module& m : sys.soc().modules) {
    testable[static_cast<std::size_t>(m.id - 1)] = table.has_pairs(m.id);
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (const itc02::Module& m : sys.soc().modules) {
      const auto i = static_cast<std::size_t>(m.id - 1);
      if (!testable[i]) continue;
      const bool usable = std::any_of(
          table.pairs(m.id).begin(), table.pairs(m.id).end(), [&](const PairChoice& p) {
            if (p.plan.power > power_limit) return false;
            for (const std::size_t e : {p.source, p.sink}) {
              if (!eps[e].is_processor()) continue;
              const auto j = static_cast<std::size_t>(eps[e].processor_module - 1);
              if (!done[j] && !testable[j]) return false;
            }
            return true;
          });
      if (!usable) {
        testable[i] = false;
        changed = true;
      }
    }
  }
  return testable;
}

TEST(TestableFixpoint, LeastIsSubsetOfGreatestAndEqualWhenTheOraclePlansIt) {
  int planned = 0;
  int narrowed = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng = stream_rng(0x1EA57F, seed);
    const SystemModel sys = random_system(rng);
    const noc::FaultSet faults = random_faults(sys, rng);
    const PairTable table(sys, faults);
    const power::PowerBudget budget = rng.chance(0.5)
                                          ? power::PowerBudget::fraction_of_total(sys.soc(), 0.7)
                                          : power::PowerBudget::unconstrained();
    std::vector<int> pretested;
    for (const int id : sys.soc().processor_ids()) {
      if (!faults.processor_failed(id) && rng.chance(0.3)) pretested.push_back(id);
    }
    SCOPED_TRACE(seed);

    const std::vector<bool> least = table.testable_modules(sys, budget.limit, pretested);
    const std::vector<bool> greatest = greatest_fixpoint(sys, table, budget.limit, pretested);
    ASSERT_EQ(least.size(), greatest.size());
    for (std::size_t i = 0; i < least.size(); ++i) {
      EXPECT_TRUE(!least[i] || greatest[i]) << "module " << i + 1;
    }
    if (least != greatest) ++narrowed;

    // Plan what the greatest fixpoint called testable, less the
    // pretested processors, in the replanner's priority order.
    std::vector<bool> include = greatest;
    for (const int id : pretested) include[static_cast<std::size_t>(id - 1)] = false;
    const std::vector<int> order =
        priority_order(sys, cpu_eligible_modules(sys, faults), include);
    bool ok = true;
    try {
      (void)oracle::reference_plan(sys, budget, order, table, pretested);
    } catch (const Error&) {
      ok = false;
    }
    if (ok) {
      ++planned;
      EXPECT_EQ(least, greatest);
    }
  }
  // Both sides of the property were exercised.
  EXPECT_GT(planned, 100);
  EXPECT_GT(narrowed, 10);
}

}  // namespace
}  // namespace nocsched::core
