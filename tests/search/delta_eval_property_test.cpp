// The delta-evaluation kernel's mandatory property: every order priced
// through DeltaPlanner — suffix replans from any incumbent, with the
// shared prefix replayed from the initial state — is *bit-identical* to
// a from-scratch plan of the same order by the reference planner in
// tests/oracle/: same makespan, same sessions, same floating-point peak
// power.  Asserted over the builtin paper systems and random SoCs across
// every planner parameter variant, plus the search-level contract that
// --jobs {1, 2, 8} stay bit-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/delta_planner.hpp"
#include "itc02/random_soc.hpp"
#include "oracle/reference_planner.hpp"
#include "search/driver.hpp"
#include "search/eval_context.hpp"

namespace nocsched::search {
namespace {

core::SystemModel paper(const std::string& soc, int procs) {
  return core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs,
                                         core::PlannerParams::paper());
}

core::SystemModel random_system(Rng& rng, const core::PlannerParams& params) {
  itc02::RandomSocSpec spec;
  spec.min_cores = 3;
  spec.max_cores = 12;
  spec.max_scan_flops = 1200;
  spec.max_patterns = 100;
  itc02::Soc soc = itc02::random_soc(rng, spec);
  const int procs = static_cast<int>(1 + rng.below(3));
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

void expect_schedules_identical(const core::Schedule& a, const core::Schedule& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.peak_power, b.peak_power);  // exact: same FP operations
  EXPECT_EQ(a.power_limit, b.power_limit);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i], b.sessions[i]) << "session " << i;
  }
}

/// The oracle's from-scratch plan of `order` over `ctx`'s system, pair
/// table, and pretested processors.
core::Schedule oracle_plan(const EvalContext& ctx, const power::PowerBudget& budget,
                           const std::vector<int>& order) {
  return oracle::reference_plan(ctx.system(), budget, order, ctx.pair_table(),
                                ctx.pretested());
}

/// A random within-tier swap of `order` (the anneal/local move shape).
void random_swap(const EvalContext& ctx, Rng& rng, std::vector<int>& order) {
  const auto& swappable = ctx.swappable_positions();
  if (swappable.empty()) return;
  const std::size_t a = swappable[rng.below(swappable.size())];
  const EvalContext::Segment& seg = ctx.segment_of(a);
  std::size_t b = seg.begin + rng.below(seg.size() - 1);
  if (b >= a) ++b;
  std::swap(order[a], order[b]);
}

/// Drives `steps` random swaps (occasionally multi-swap or a full
/// tier shuffle, the reset move) against one DeltaPlanner, asserting
/// bit-identity with the oracle planner at every step.  When
/// `longest_replay` is set it receives the most prefix commits any one
/// step replayed onto the initial state.  When `from_scratch` is set,
/// that second planner prices every candidate with plan_full (no prefix
/// reused or replayed) and must agree with `dp` step for step.
void run_sequence(const EvalContext& ctx, const power::PowerBudget& budget,
                  core::DeltaPlanner& dp, Rng& rng, int steps,
                  std::uint64_t* longest_replay = nullptr,
                  core::DeltaPlanner* from_scratch = nullptr) {
  std::vector<int> incumbent = ctx.base_order();
  ASSERT_EQ(dp.plan_full(incumbent), oracle_plan(ctx, budget, incumbent).makespan);
  for (int step = 0; step < steps; ++step) {
    std::vector<int> order = incumbent;
    if (rng.chance(0.1)) {
      order = ctx.shuffled_order(rng);  // reset move: replan from scratch
    } else {
      random_swap(ctx, rng, order);
      if (rng.chance(0.3)) random_swap(ctx, rng, order);  // compound move
    }
    const std::uint64_t replayed_before = dp.stats().replayed_commits;
    const std::uint64_t delta_makespan = dp.evaluate(order);
    if (longest_replay != nullptr) {
      *longest_replay =
          std::max(*longest_replay, dp.stats().replayed_commits - replayed_before);
    }
    if (from_scratch != nullptr) {
      ASSERT_EQ(from_scratch->plan_full(order), delta_makespan) << "step " << step;
    }
    const std::uint64_t full_makespan = oracle_plan(ctx, budget, order).makespan;
    ASSERT_EQ(delta_makespan, full_makespan) << "step " << step;
    if (rng.chance(0.4)) {
      incumbent = order;
      dp.adopt();
      expect_schedules_identical(dp.materialize(), oracle_plan(ctx, budget, incumbent));
      ASSERT_EQ(dp.base_makespan(), full_makespan);
      if (from_scratch != nullptr) {
        expect_schedules_identical(from_scratch->materialize(), dp.materialize());
      }
    }
  }
}

TEST(DeltaEvalProperty, BuiltinSystemsSwapSequencesBitIdentical) {
  std::map<std::string, std::uint64_t> longest_replay;
  for (const char* soc : {"d695", "p22810", "p93791"}) {
    const core::SystemModel sys = paper(soc, soc == std::string("d695") ? 6 : 8);
    for (const bool constrained : {false, true}) {
      SCOPED_TRACE(std::string(soc) + (constrained ? " constrained" : " unconstrained"));
      const power::PowerBudget budget =
          constrained ? power::PowerBudget::fraction_of_total(sys.soc(), 0.5)
                      : power::PowerBudget::unconstrained();
      const EvalContext ctx(sys, budget);
      core::DeltaPlanner dp = ctx.make_delta_planner();
      Rng rng = stream_rng(0xDE17A, constrained ? 1 : 0);
      run_sequence(ctx, budget, dp, rng, 50, &longest_replay[soc]);
    }
  }
  // Every replan rebuilds its divergence state by replaying the shared
  // prefix from the initial state; on the larger SoCs some step must
  // diverge deep enough to replay a long prefix.
  EXPECT_GT(longest_replay["p22810"], 16u);
  EXPECT_GT(longest_replay["p93791"], 16u);
}

TEST(DeltaEvalProperty, CheckpointSpacingsAllAgree) {
  // The initial state is the only restore point left, so the spacings
  // this walk once compared reduce to its two extremes: replaying the
  // whole shared prefix (evaluate on a planner that follows the
  // incumbent) and replaying nothing (plan_full of every candidate on a
  // second planner).  Both price the same move sequence and must agree
  // step for step, and with the reference planner.
  const core::SystemModel sys = paper("p22810", 4);
  const power::PowerBudget budget = power::PowerBudget::fraction_of_total(sys.soc(), 0.6);
  const EvalContext ctx(sys, budget);
  core::DeltaPlanner dp = ctx.make_delta_planner();
  core::DeltaPlanner from_scratch = ctx.make_delta_planner();
  Rng rng = stream_rng(0xC0FFEE, 7);
  std::uint64_t longest_replay = 0;
  run_sequence(ctx, budget, dp, rng, 40, &longest_replay, &from_scratch);
  EXPECT_GT(longest_replay, 0u);
  EXPECT_EQ(from_scratch.stats().replayed_commits, 0u);
}

TEST(DeltaEvalProperty, RandomSystemsAllParamVariants) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng = stream_rng(0x5EED0D, seed);
    const core::SystemModel sys = random_system(rng, params_variant(seed));
    SCOPED_TRACE(seed);
    power::PowerBudget budget = power::PowerBudget::unconstrained();
    if (rng.chance(0.5)) budget = power::PowerBudget::fraction_of_total(sys.soc(), 0.8);
    const EvalContext ctx(sys, budget);
    core::DeltaPlanner dp = ctx.make_delta_planner();
    run_sequence(ctx, budget, dp, rng, 30);
  }
}

TEST(DeltaEvalProperty, SubsetOrdersWithPretestedProcessors) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng = stream_rng(0x5B5E7, seed);
    const core::SystemModel sys = random_system(rng, params_variant(seed % 2 ? 1 : 0));
    SCOPED_TRACE(seed);
    const power::PowerBudget budget = power::PowerBudget::unconstrained();
    const core::PairTable table(sys);

    // A random subset order: every plain core, each processor either
    // pretested (serves from 0, not planned) or planned up front.
    std::vector<int> pretested;
    std::vector<int> order;
    for (const itc02::Module& m : sys.soc().modules) {
      if (m.is_processor && rng.chance(0.5)) {
        pretested.push_back(m.id);
      } else if (!m.is_processor && rng.chance(0.2)) {
        continue;  // already tested in an earlier epoch
      } else {
        order.push_back(m.id);
      }
    }
    std::sort(order.begin(), order.end(),
              [&](int a, int b) {
                const bool pa = sys.soc().module(a).is_processor;
                const bool pb = sys.soc().module(b).is_processor;
                if (pa != pb) return pa;
                return a < b;
              });

    core::DeltaPlanner dp(sys, budget, table, pretested);
    ASSERT_EQ(dp.plan_full(order),
              oracle::reference_plan(sys, budget, order, table, pretested).makespan);
    for (int step = 0; step < 20; ++step) {
      std::vector<int> perturbed = order;
      if (perturbed.size() >= 2) {
        const std::size_t a = rng.below(perturbed.size());
        const std::size_t b = rng.below(perturbed.size());
        std::swap(perturbed[a], perturbed[b]);
      }
      const std::uint64_t got = dp.evaluate(perturbed);
      const std::uint64_t want =
          oracle::reference_plan(sys, budget, perturbed, table, pretested).makespan;
      ASSERT_EQ(got, want) << "step " << step;
      if (rng.chance(0.5)) {
        order = perturbed;
        dp.adopt();
        expect_schedules_identical(
            dp.materialize(), oracle::reference_plan(sys, budget, order, table, pretested));
      }
    }
  }
}

TEST(DeltaEvalProperty, JobsBitIdenticalWithDeltaOn) {
  for (const char* soc : {"d695", "p22810", "p93791"}) {
    const core::SystemModel sys = paper(soc, soc == std::string("d695") ? 6 : 8);
    const power::PowerBudget budget = power::PowerBudget::fraction_of_total(sys.soc(), 0.6);
    for (const StrategyKind kind : {StrategyKind::kAnneal, StrategyKind::kLocal}) {
      SCOPED_TRACE(std::string(soc) + (kind == StrategyKind::kAnneal ? " anneal" : " local"));
      SearchOptions options;
      options.strategy = kind;
      options.iters = 64;
      std::optional<SearchResult> baseline;
      for (const unsigned jobs : {1u, 2u, 8u}) {
        options.jobs = jobs;
        SearchResult result = search_orders(sys, budget, options);
        if (!baseline) {
          baseline = std::move(result);
          continue;
        }
        EXPECT_EQ(result.best.makespan, baseline->best.makespan) << "jobs " << jobs;
        EXPECT_EQ(result.best.sessions, baseline->best.sessions) << "jobs " << jobs;
        EXPECT_EQ(result.metrics.counters, baseline->metrics.counters) << "jobs " << jobs;
      }
    }
  }
}

}  // namespace
}  // namespace nocsched::search
