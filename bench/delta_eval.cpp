// Delta-evaluation speedup: one seeded anneal walk of within-tier swaps
// on each of the three paper systems, priced two ways — the full lane
// plans every order from scratch with the reference planner
// (tests/oracle/), the delta lane re-prices the same sequence through
// one DeltaPlanner (suffix re-pricing over the incumbent's commit
// trace, evaluate on every proposal, adopt on every accepted move).  One
// "delta_eval" JSON row per system (bench/json_row.hpp) tracks the
// kernel's speedup across revisions:
//   soc, procs, strategy, iters, full_ms, delta_ms,
//   full_orders_per_sec, delta_orders_per_sec, speedup, suffix_p50,
//   best_makespan
// (suffix_p50 is the median re-priced suffix length in commits, as the
// upper bound of the delta.suffix_commits histogram bucket holding the
// median, or the median itself past the last bucket.  best_makespan is
// the best makespan of the walk, identical in both lanes — the bench
// asserts the two lanes' makespans equal at every step.)
//
// The bench exits non-zero unless the delta lane beats the full lane on
// every system (a suffix re-pricer slower than from-scratch planning is
// a regression, full stop) and clears kMinSpeedupP93791 on the largest
// system, where suffix reuse has the most to win.

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/delta_planner.hpp"
#include "json_row.hpp"
#include "oracle/reference_planner.hpp"
#include "search/eval_context.hpp"
#include "search/strategy.hpp"
#include "sim/validate.hpp"

namespace {

using namespace nocsched;

/// Minimum delta/full orders-per-second ratio on p93791 (the headline
/// acceptance bar; the measured ratio runs well above it).
constexpr double kMinSpeedupP93791 = 5.0;

/// One proposal of the walk: the order priced and whether the walk
/// moved to it.
struct Step {
  std::vector<int> order;
  bool adopt = false;
};

/// `iters` proposals of the anneal strategy's own propose/accept rules,
/// as its warm-started chain 0 walks them from the base priority order
/// (seed 0x5EED), priced through the oracle.  Recorded once, untimed;
/// both lanes replay it.
std::vector<Step> record_walk(const search::EvalContext& ctx, const power::PowerBudget& budget,
                              std::uint64_t iters) {
  const search::Strategy& anneal = search::strategy_for(search::StrategyKind::kAnneal);
  Rng rng = search::EvalContext::chain_rng(0x5EED, 0);
  search::ChainState state;
  state.budget = iters;
  (void)anneal.init_chain(state, ctx, ctx.base_order(), 0, rng);
  state.makespan =
      oracle::reference_plan(ctx.system(), budget, state.order, ctx.pair_table()).makespan;
  std::vector<Step> walk;
  while (walk.size() < iters) {
    std::optional<search::Proposal> p = anneal.propose(state, ctx, rng);
    if (!p) break;
    ++state.step;
    const std::uint64_t makespan =
        oracle::reference_plan(ctx.system(), budget, p->order, ctx.pair_table()).makespan;
    const bool adopt = p->reset || anneal.accept(state, makespan, rng);
    if (adopt) {
      state.order = p->order;
      state.makespan = makespan;
      state.since_accept = 0;
    } else {
      ++state.since_accept;
    }
    walk.push_back(Step{std::move(p->order), adopt});
  }
  return walk;
}

struct LaneResult {
  double ms = 0;                        ///< best of kReps
  std::vector<std::uint64_t> makespans;  ///< base order first, then one per step
  core::DeltaStats stats;               ///< delta lane only
  core::Schedule last;                  ///< delta lane's final incumbent
};

template <typename Lane>
LaneResult time_lane(Lane&& lane) {
  constexpr int kReps = 3;
  LaneResult out;
  for (int rep = 0; rep < kReps; ++rep) {
    LaneResult run;
    const auto t0 = std::chrono::steady_clock::now();
    lane(run);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < out.ms) {
      run.ms = ms;
      out = std::move(run);
    }
  }
  return out;
}

/// Median bucket of the re-priced suffix lengths under the
/// delta.suffix_commits histogram's bucket bounds (search/driver.cpp),
/// as the bucket's inclusive upper bound (the median itself past the
/// last bound).
std::uint64_t suffix_p50(std::vector<std::uint32_t> lengths) {
  static const std::vector<std::uint64_t> kBounds = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  if (lengths.empty()) return 0;
  const auto mid = lengths.begin() + static_cast<std::ptrdiff_t>((lengths.size() - 1) / 2);
  std::nth_element(lengths.begin(), mid, lengths.end());
  const auto b = std::lower_bound(kBounds.begin(), kBounds.end(), std::uint64_t{*mid});
  return b == kBounds.end() ? *mid : *b;
}

}  // namespace

int main() {
  try {
    const core::PlannerParams params = core::PlannerParams::paper();
    constexpr std::uint64_t kIters = 256;
    std::cout << "Delta evaluation vs from-scratch planning: anneal walk, " << kIters
              << " order evaluations, jobs 1, seed 0x5EED\n\n";
    std::cout << "   soc procs strategy iters full_ms delta_ms full_o/s delta_o/s "
                 "speedup suffix_p50 best\n";
    bool ok = true;
    std::ostringstream rows;
    for (const std::string& soc : itc02::builtin_names()) {
      const int procs = soc == "d695" ? 6 : 8;
      const core::SystemModel sys =
          core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
      const power::PowerBudget budget = power::PowerBudget::unconstrained();
      const search::EvalContext ctx(sys, budget);
      const std::vector<Step> walk = record_walk(ctx, budget, kIters);

      const LaneResult full = time_lane([&](LaneResult& run) {
        run.makespans.push_back(
            oracle::reference_plan(sys, budget, ctx.base_order(), ctx.pair_table()).makespan);
        for (const Step& step : walk) {
          run.makespans.push_back(
              oracle::reference_plan(sys, budget, step.order, ctx.pair_table()).makespan);
        }
      });
      const LaneResult delta = time_lane([&](LaneResult& run) {
        core::DeltaPlanner dp = ctx.make_delta_planner();
        run.makespans.push_back(dp.plan_full(ctx.base_order()));
        for (const Step& step : walk) {
          run.makespans.push_back(dp.evaluate(step.order));
          if (step.adopt) dp.adopt();
        }
        run.stats = dp.stats();
        run.last = dp.materialize();
      });
      sim::validate_or_throw(sys, delta.last);

      // The kernel's bit-identity property, asserted step by step.
      for (std::size_t i = 0; i < full.makespans.size(); ++i) {
        if (i >= delta.makespans.size() || delta.makespans[i] != full.makespans[i]) {
          std::cerr << "bench failed: delta lane diverged from the full lane on " << soc
                    << " at step " << i << "\n";
          return 1;
        }
      }

      const auto evals = static_cast<double>(full.makespans.size());
      const double full_ops = 1000.0 * evals / full.ms;
      const double delta_ops = 1000.0 * evals / delta.ms;
      const double speedup = delta_ops / full_ops;
      const std::uint64_t best =
          *std::min_element(full.makespans.begin(), full.makespans.end());
      const std::uint64_t suffix = suffix_p50(delta.stats.suffix_lengths);
      std::cout << "   " << soc << " " << procs << " anneal " << kIters << " " << std::fixed
                << std::setprecision(3) << full.ms << " " << delta.ms << " "
                << std::setprecision(1) << full_ops << " " << delta_ops << " "
                << std::setprecision(2) << speedup << " " << suffix << " " << best << "\n";
      rows << bench::JsonRow("delta_eval")
                  .add("soc", soc)
                  .add("procs", procs)
                  .add("strategy", "anneal")
                  .add("iters", kIters)
                  .add("full_ms", full.ms)
                  .add("delta_ms", delta.ms)
                  .add("full_orders_per_sec", full_ops)
                  .add("delta_orders_per_sec", delta_ops)
                  .add("speedup", speedup)
                  .add("suffix_p50", suffix)
                  .add("best_makespan", best);

      if (speedup <= 1.0) {
        std::cerr << "bench failed: delta lane no faster than full on " << soc << " ("
                  << speedup << "x)\n";
        ok = false;
      }
      if (soc == "p93791" && speedup < kMinSpeedupP93791) {
        std::cerr << "bench failed: p93791 speedup " << speedup << "x below the "
                  << kMinSpeedupP93791 << "x bar\n";
        ok = false;
      }
    }
    std::cout << "\n" << rows.str();
    if (!ok) return 1;
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
