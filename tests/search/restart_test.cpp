// Multi-start improvement: the `restart` search strategy re-runs the
// planner under seeded tier-preserving shuffles of the priority order
// and keeps the best plan.  search.evaluations counts the orders tried
// (the deterministic pass included), improvements(search) the times the
// best plan changed.

#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "search/driver.hpp"
#include "sim/validate.hpp"

namespace nocsched::search {
namespace {

using core::plan_tests;
using core::PlannerParams;
using core::SystemModel;

SystemModel p22810(int procs) {
  return SystemModel::paper_system("p22810", itc02::ProcessorKind::kLeon, procs,
                                   PlannerParams::paper());
}

/// The deterministic pass plus `restarts` seeded shuffles on up to
/// `jobs` threads.
SearchResult multistart(const SystemModel& sys, const power::PowerBudget& budget,
                        std::uint64_t restarts, std::uint64_t seed = 0x5EED, unsigned jobs = 1) {
  SearchOptions options;
  options.strategy = StrategyKind::kRestart;
  options.iters = restarts;
  options.seed = seed;
  options.jobs = jobs;
  return search_orders(sys, budget, options);
}

std::uint64_t orders_tried(const SearchResult& r) {
  return r.metrics.counter_or("search.evaluations");
}

std::uint64_t improvements(const SearchResult& r) {
  return r.metrics.counter_or("search.improvements");
}

TEST(Multistart, NeverWorseThanGreedy) {
  const SystemModel sys = p22810(4);
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const SearchResult result = multistart(sys, budget, 20, 7);
  EXPECT_LE(result.best.makespan, result.first_makespan);
  EXPECT_EQ(orders_tried(result), 21u);
  sim::validate_or_throw(sys, result.best);
}

TEST(Multistart, ZeroRestartsIsPlainGreedy) {
  const SystemModel sys = p22810(2);
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const SearchResult result = multistart(sys, budget, 0);
  EXPECT_EQ(result.best.makespan, result.first_makespan);
  EXPECT_EQ(orders_tried(result), 1u);
  EXPECT_EQ(improvements(result), 0u);
  EXPECT_EQ(result.best.makespan, plan_tests(sys, budget).makespan);
}

TEST(Multistart, DeterministicInSeed) {
  const SystemModel sys = p22810(4);
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const SearchResult a = multistart(sys, budget, 10, 42);
  const SearchResult b = multistart(sys, budget, 10, 42);
  EXPECT_EQ(a.best.makespan, b.best.makespan);
  EXPECT_EQ(improvements(a), improvements(b));
}

TEST(Multistart, RespectsPowerBudget) {
  const SystemModel sys = p22810(4);
  const power::PowerBudget budget = power::PowerBudget::fraction_of_total(sys.soc(), 0.5);
  const SearchResult result = multistart(sys, budget, 15, 3);
  EXPECT_LE(result.best.peak_power, budget.limit * (1 + 1e-9));
  sim::validate_or_throw(sys, result.best);
}

TEST(Multistart, ParallelIsBitIdenticalToSerial) {
  // The contract the thread pool must keep: for the same seed, any
  // --jobs value reproduces the serial run bit-for-bit — same best
  // schedule (every session field), same improvement count.
  for (const std::string& soc : itc02::builtin_names()) {
    const SystemModel sys = SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, 4,
                                                      PlannerParams::paper());
    const power::PowerBudget budget = power::PowerBudget::unconstrained();
    for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}, std::uint64_t{0x5EED}}) {
      const SearchResult serial = multistart(sys, budget, 12, seed, 1);
      for (const unsigned jobs : {2u, 8u}) {
        const SearchResult parallel = multistart(sys, budget, 12, seed, jobs);
        EXPECT_EQ(parallel.best.sessions, serial.best.sessions)
            << soc << " seed " << seed << " jobs " << jobs;
        EXPECT_EQ(parallel.best.makespan, serial.best.makespan);
        EXPECT_EQ(parallel.best.peak_power, serial.best.peak_power);
        EXPECT_EQ(parallel.first_makespan, serial.first_makespan);
        EXPECT_EQ(orders_tried(parallel), orders_tried(serial));
        EXPECT_EQ(improvements(parallel), improvements(serial));
      }
    }
  }
}

TEST(Multistart, HardwareJobsDefaultMatchesSerial) {
  // jobs == 0 means "one thread per hardware thread"; still identical.
  const SystemModel sys = p22810(4);
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const SearchResult serial = multistart(sys, budget, 10, 7, 1);
  const SearchResult hw = multistart(sys, budget, 10, 7, 0);
  EXPECT_EQ(hw.best.sessions, serial.best.sessions);
  EXPECT_EQ(improvements(hw), improvements(serial));
}

TEST(Multistart, RestartsAreIterationOrderIndependent) {
  // Restart r draws from an RNG seeded by (seed, r) alone, so the best
  // of 20 restarts found by one run must also be findable by a run that
  // only explores restarts of the same indices: growing the restart
  // count never changes what earlier restarts explored.
  const SystemModel sys = p22810(4);
  const power::PowerBudget budget = power::PowerBudget::unconstrained();
  const SearchResult small = multistart(sys, budget, 5, 13);
  const SearchResult big = multistart(sys, budget, 20, 13);
  EXPECT_LE(big.best.makespan, small.best.makespan);
}

TEST(Multistart, FindsImprovementsSomewhere) {
  // Across a few systems/seeds the random restarts should beat the
  // deterministic greedy at least once — otherwise the knob is dead.
  bool improved = false;
  for (const char* soc : {"d695", "p22810"}) {
    const SystemModel sys = SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, 6,
                                                      PlannerParams::paper());
    const SearchResult result = multistart(sys, power::PowerBudget::unconstrained(), 40, 11);
    improved = improved || result.best.makespan < result.first_makespan;
  }
  EXPECT_TRUE(improved);
}

}  // namespace
}  // namespace nocsched::search
