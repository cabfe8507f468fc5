// Oracle equivalence: every core::plan_tests* entry point plans through
// the PlannerState kernel, and must be bit-identical to the reference
// planner in tests/oracle/ — same sessions, same makespan, same
// floating-point peak power — and fail with the identical error text on
// precheck-infeasible and stuck inputs.  Swept over the builtin SoCs x
// the 16 planner parameter variants x {unconstrained, 60%}, random
// systems, and apply_faults-degraded tables with pretested processors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/placement.hpp"
#include "core/scheduler.hpp"
#include "itc02/builtin.hpp"
#include "itc02/random_soc.hpp"
#include "noc/fault.hpp"
#include "oracle/reference_planner.hpp"

namespace nocsched::oracle {
namespace {

/// Planner parameter variant `v` — sweeps both resource choices, both
/// pair orders, both channel models, and cross pairing.
core::PlannerParams params_variant(std::uint64_t v) {
  core::PlannerParams p = core::PlannerParams::paper();
  if (v & 1) p.resource_choice = core::ResourceChoice::kEarliestCompletion;
  if (v & 2) p.pair_order = core::PairOrder::kFastestFirst;
  if (v & 4) p.channel_model = core::ChannelModel::kCircuit;
  if (v & 8) p.allow_cross_pairing = true;
  return p;
}

core::SystemModel random_system(Rng& rng, const core::PlannerParams& params) {
  itc02::RandomSocSpec spec;
  spec.min_cores = 3;
  spec.max_cores = 12;
  spec.max_scan_flops = 1200;
  spec.max_patterns = 100;
  itc02::Soc soc = itc02::random_soc(rng, spec);
  const int procs = static_cast<int>(rng.below(4));
  for (int i = 1; i <= procs; ++i) {
    const auto kind =
        rng.chance(0.5) ? itc02::ProcessorKind::kLeon : itc02::ProcessorKind::kPlasma;
    soc.modules.push_back(
        itc02::processor_module(kind, static_cast<int>(soc.modules.size()) + 1, i));
  }
  itc02::validate(soc);
  const int cols = static_cast<int>(2 + rng.below(4));
  const int rows = static_cast<int>(2 + rng.below(4));
  noc::Mesh mesh(cols, rows);
  auto placement = core::default_placement(soc, mesh);
  const noc::RouterId in = core::default_ate_input(mesh);
  const noc::RouterId out = core::default_ate_output(mesh);
  return core::SystemModel(std::move(soc), std::move(mesh), std::move(placement), in, out,
                           params);
}

/// A planning call's result: the schedule, or the error it threw.
struct Outcome {
  std::optional<core::Schedule> schedule;
  std::string error;
};

template <typename Plan>
Outcome outcome_of(Plan&& plan) {
  try {
    return {plan(), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, e.what()};
  }
}

/// Returns whether the oracle threw, so callers can count error cases.
bool expect_identical(const Outcome& got, const Outcome& want, const std::string& label) {
  EXPECT_EQ(got.schedule.has_value(), want.schedule.has_value())
      << label << ": kernel error '" << got.error << "', oracle error '" << want.error << "'";
  if (!want.schedule || !got.schedule) {
    EXPECT_EQ(got.error, want.error) << label;
    return !want.schedule;
  }
  EXPECT_EQ(got.schedule->makespan, want.schedule->makespan) << label;
  EXPECT_EQ(got.schedule->peak_power, want.schedule->peak_power) << label;  // exact
  EXPECT_EQ(got.schedule->power_limit, want.schedule->power_limit) << label;
  EXPECT_TRUE(got.schedule->sessions == want.schedule->sessions) << label;
  return false;
}

/// A uniformly random permutation of `order` (not tier-preserving:
/// plan_tests_with_order accepts any permutation).
std::vector<int> shuffled(std::vector<int> order, Rng& rng) {
  rng.shuffle(order);
  return order;
}

/// `order` with each module dropped with probability `p`.
std::vector<int> random_subset(const std::vector<int>& order, Rng& rng, double p) {
  std::vector<int> out;
  for (const int id : order) {
    if (!rng.chance(p)) out.push_back(id);
  }
  return out;
}

/// The three entry points against the oracle on one system and budget.
void check_entry_points(const core::SystemModel& sys, const power::PowerBudget& budget,
                       Rng& rng, const std::string& label) {
  const core::PairTable pairs(sys);
  const std::vector<int> base = core::priority_order(sys);
  expect_identical(outcome_of([&] { return core::plan_tests(sys, budget); }),
                   outcome_of([&] { return reference_plan(sys, budget, base, pairs); }),
                   label + " plan_tests");
  const std::vector<int> perm = shuffled(base, rng);
  expect_identical(
      outcome_of([&] { return core::plan_tests_with_order(sys, budget, perm, pairs); }),
      outcome_of([&] { return reference_plan(sys, budget, perm, pairs); }),
      label + " plan_tests_with_order");
  const std::vector<int> subset = random_subset(perm, rng, 0.3);
  expect_identical(
      outcome_of([&] { return core::plan_tests_subset(sys, budget, subset, pairs); }),
      outcome_of([&] { return reference_plan(sys, budget, subset, pairs); }),
      label + " plan_tests_subset");
}

TEST(OracleEquivalence, BuiltinSocsEveryParamVariantBothBudgets) {
  for (const std::string& soc : itc02::builtin_names()) {
    for (std::uint64_t v = 0; v < 16; ++v) {
      const core::SystemModel sys = core::SystemModel::paper_system(
          soc, itc02::ProcessorKind::kLeon, soc == "d695" ? 6 : 8, params_variant(v));
      for (const bool constrained : {false, true}) {
        const power::PowerBudget budget =
            constrained ? power::PowerBudget::fraction_of_total(sys.soc(), 0.6)
                        : power::PowerBudget::unconstrained();
        Rng rng = stream_rng(0x0AC1E, v * 2 + (constrained ? 1 : 0));
        check_entry_points(sys, budget, rng,
                           cat(soc, " variant ", v, constrained ? " @60%" : ""));
      }
    }
  }
}

TEST(OracleEquivalence, RandomSystems) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng = stream_rng(0x0AC1E5, seed);
    const core::SystemModel sys = random_system(rng, params_variant(seed % 16));
    const double fractions[] = {1.0, 0.8, 0.6};
    const double fraction = fractions[rng.below(3)];
    const power::PowerBudget budget =
        fraction < 1.0 ? power::PowerBudget::fraction_of_total(sys.soc(), fraction)
                       : power::PowerBudget::unconstrained();
    check_entry_points(sys, budget, rng, cat("random seed ", seed));
  }
}

TEST(OracleEquivalence, FaultDegradedTablesWithPretestedProcessors) {
  int planned = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng = stream_rng(0xFA017, seed);
    const core::SystemModel sys = random_system(rng, params_variant(seed % 16));
    const std::vector<int> procs = sys.soc().processor_ids();
    const noc::FaultSet faults = noc::random_fault_scenario(sys.mesh(), procs, rng);
    core::PairTable table(sys);
    (void)table.apply_faults(sys, faults);
    const power::PowerBudget budget = rng.chance(0.5)
                                          ? power::PowerBudget::fraction_of_total(sys.soc(), 0.7)
                                          : power::PowerBudget::unconstrained();

    // Live processors tested in an earlier epoch serve from instant 0.
    std::vector<int> pretested;
    for (const int id : procs) {
      if (!faults.processor_failed(id) && rng.chance(0.5)) pretested.push_back(id);
    }
    // The replanner's order: every still-testable module not yet
    // tested, some already covered by earlier epochs, shuffled.
    const std::vector<bool> testable = table.testable_modules(sys, budget.limit, pretested);
    std::vector<int> order;
    for (const itc02::Module& m : sys.soc().modules) {
      if (!testable[static_cast<std::size_t>(m.id - 1)]) continue;
      if (std::find(pretested.begin(), pretested.end(), m.id) != pretested.end()) continue;
      if (!rng.chance(0.2)) order.push_back(m.id);
    }
    order = shuffled(order, rng);
    const std::string label = cat("fault seed ", seed);
    const bool threw = expect_identical(
        outcome_of([&] { return core::plan_tests_subset(sys, budget, order, table, pretested); }),
        outcome_of([&] { return reference_plan(sys, budget, order, table, pretested); }), label);
    planned += threw ? 0 : 1;

    // Untestable modules offered anyway: precheck-infeasible (no pair
    // left) or stuck (no live server) — the error text must agree.
    std::vector<int> all;
    for (const itc02::Module& m : sys.soc().modules) {
      if (std::find(pretested.begin(), pretested.end(), m.id) == pretested.end()) {
        all.push_back(m.id);
      }
    }
    all = shuffled(all, rng);
    expect_identical(
        outcome_of([&] { return core::plan_tests_subset(sys, budget, all, table, pretested); }),
        outcome_of([&] { return reference_plan(sys, budget, all, table, pretested); }),
        label + " all modules");
  }
  EXPECT_GT(planned, 32);
}

TEST(OracleEquivalence, PrecheckInfeasibleErrorTextMatches) {
  for (const std::string& soc : itc02::builtin_names()) {
    const core::SystemModel sys = core::SystemModel::paper_system(
        soc, itc02::ProcessorKind::kLeon, 4, core::PlannerParams::paper());
    const power::PowerBudget tiny{1.0};
    const Outcome got = outcome_of([&] { return core::plan_tests(sys, tiny); });
    const Outcome want = outcome_of(
        [&] { return reference_plan(sys, tiny, core::priority_order(sys), core::PairTable(sys)); });
    expect_identical(got, want, soc);
    EXPECT_TRUE(starts_with(want.error, "infeasible: module ")) << want.error;
  }
}

TEST(OracleEquivalence, StuckErrorTextMatches) {
  // With the ATE input router dead every surviving pair sources from a
  // processor, so a plain core planned without any processor's own test
  // has no server: the planner is stuck (first available) or finds no
  // pair (earliest completion).
  int stuck = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Rng rng = stream_rng(0x57ACC, seed);
    const core::SystemModel sys = random_system(rng, params_variant(seed % 16));
    noc::FaultSet faults;
    faults.fail_router(sys.endpoints()[0].router);
    core::PairTable table(sys);
    (void)table.apply_faults(sys, faults);
    const power::PowerBudget budget = power::PowerBudget::unconstrained();
    for (const itc02::Module& m : sys.soc().modules) {
      if (m.is_processor || !table.has_pairs(m.id)) continue;
      const std::vector<int> order{m.id};
      const Outcome want = outcome_of([&] { return reference_plan(sys, budget, order, table); });
      expect_identical(
          outcome_of([&] { return core::plan_tests_subset(sys, budget, order, table); }), want,
          cat("seed ", seed, " module ", m.id));
      EXPECT_TRUE(starts_with(want.error, "planner stuck at t=0: module ") ||
                  starts_with(want.error, "planner: no feasible interface pair"))
          << want.error;
      ++stuck;
      break;
    }
  }
  EXPECT_GT(stuck, 8);
}

}  // namespace
}  // namespace nocsched::oracle
