#include "search/driver.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/delta_planner.hpp"
#include "obs/trace.hpp"

namespace nocsched::search {

namespace {

/// Bucket bounds of the delta.suffix_commits histogram (re-priced
/// commits per replan; suffixes longer than the largest bound land in
/// the overflow bucket).
const std::vector<std::uint64_t>& suffix_bounds() {
  static const std::vector<std::uint64_t> kBounds = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  return kBounds;
}

/// Fold `lengths` into a hand-built histogram snapshot with the same
/// bucket semantics as obs::Histogram (count <= bound, overflow last).
obs::HistogramSnapshot suffix_histogram(const std::vector<std::uint32_t>& lengths) {
  const std::vector<std::uint64_t>& bounds = suffix_bounds();
  obs::HistogramSnapshot h;
  h.bounds = bounds;
  h.counts.assign(bounds.size() + 1, 0);
  for (const std::uint32_t v : lengths) {
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), std::uint64_t{v});
    ++h.counts[static_cast<std::size_t>(it - bounds.begin())];
    h.sum += v;
    ++h.count;
  }
  return h;
}

/// The per-run reduction totals, before they become a MetricsSnapshot.
struct RunTotals {
  std::string strategy;
  std::uint64_t iters = 0;
  std::uint64_t chains = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t proposals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t resets = 0;
  std::uint64_t improvements = 0;
  std::uint64_t converged_chains = 0;
  std::uint64_t first_makespan = 0;
  std::uint64_t best_makespan = 0;
  /// Delta-kernel tallies summed over chains in chain order (all zero,
  /// suffix_lengths empty, when the delta lane never ran).
  core::DeltaStats delta;
};

/// Build the per-run snapshot and, when the global registry is
/// collecting, publish the same totals there (counters accumulate
/// across runs; gauges and info reflect the latest run).
obs::MetricsSnapshot publish(const RunTotals& t) {
  obs::MetricsSnapshot snap;
  snap.info["search.strategy"] = t.strategy;
  snap.gauges["search.iterations"] = static_cast<std::int64_t>(t.iters);
  snap.gauges["search.chains"] = static_cast<std::int64_t>(t.chains);
  snap.gauges["search.first_makespan"] = static_cast<std::int64_t>(t.first_makespan);
  snap.gauges["search.best_makespan"] = static_cast<std::int64_t>(t.best_makespan);
  snap.counters["search.evaluations"] = t.evaluations;
  snap.counters["search.proposals"] = t.proposals;
  snap.counters["search.accepted"] = t.accepted;
  snap.counters["search.resets"] = t.resets;
  snap.counters["search.improvements"] = t.improvements;
  snap.counters["search.converged_chains"] = t.converged_chains;
  // The delta lane reports only when it ran: greedy-only and
  // restart runs (single-evaluation chains) keep the pre-delta snapshot
  // shape.
  const bool delta_ran = t.delta.full_plans > 0;
  if (delta_ran) {
    snap.counters["delta.full_plans"] = t.delta.full_plans;
    snap.counters["delta.replans"] = t.delta.replans;
    snap.counters["delta.noop_replans"] = t.delta.noop_replans;
    snap.counters["delta.adoptions"] = t.delta.adoptions;
    snap.counters["delta.reused_commits"] = t.delta.reused_commits;
    snap.counters["delta.repriced_commits"] = t.delta.repriced_commits;
    snap.counters["delta.probes"] = t.delta.probes;
    snap.histograms["delta.suffix_commits"] = suffix_histogram(t.delta.suffix_lengths);
  }

  obs::MetricsRegistry& reg = obs::registry();
  if (reg.enabled()) {
    // The registry receives exactly the snapshot's keys; the histogram
    // is observed per suffix below rather than merged as a snapshot.
    static obs::Counter& runs = reg.counter("search.runs");
    runs.inc();
    for (const auto& [name, value] : snap.counters) reg.counter(name).add(value);
    for (const auto& [name, value] : snap.gauges) reg.gauge(name).set(value);
    for (const auto& [name, value] : snap.info) reg.set_info(name, value);
    if (delta_ran) {
      static obs::Histogram& suffixes = reg.histogram("delta.suffix_commits", suffix_bounds());
      // Chain order: suffix_lengths was concatenated by the serial
      // reduction, so the histogram totals are jobs-independent.
      for (const std::uint32_t len : t.delta.suffix_lengths) suffixes.observe(len);
    }
  }
  return snap;
}

/// Everything one chain reports back to the reduction.
struct ChainOutcome {
  std::vector<int> best_order;  ///< filled only when record_best_order
  std::uint64_t best_makespan = 0;
  std::uint64_t evals = 0;
  std::uint64_t proposals = 0;
  std::uint64_t accepted = 0;
  std::uint64_t resets = 0;
  bool converged = false;  ///< propose() ended the chain before its budget
  core::DeltaStats delta;  ///< the chain's delta-kernel tallies (if it ran one)
};

ChainOutcome run_chain(const EvalContext& ctx, const Strategy& strategy,
                       const std::vector<int>& warm_order, std::uint64_t seed,
                       std::uint64_t chain, std::uint64_t budget,
                       std::uint64_t base_makespan, bool record_best_order) {
  Rng rng = EvalContext::chain_rng(seed, chain);
  ChainState state;
  state.budget = budget;
  const bool warm_start = strategy.init_chain(state, ctx, warm_order, chain, rng);

  // One delta kernel per chain — it is stateful (the incumbent's
  // commit trace), so chains never share one.  A single-evaluation
  // chain (restart shuffles) has no incumbent to diff against; it
  // keeps the plain from-scratch path.
  std::optional<core::DeltaPlanner> delta;
  if (budget > 1) delta.emplace(ctx.make_delta_planner());

  ChainOutcome out;
  if (warm_start) {
    // The chain starts at the deterministic pass's order, whose
    // makespan the driver already knows — don't spend a budgeted
    // evaluation re-deriving it.
    state.makespan = base_makespan;
    if (delta) {
      // Seed the kernel's incumbent trace.  Unbudgeted, like the pass
      // itself; the kernel's plan must agree with the driver's.
      const std::uint64_t planned = delta->plan_full(state.order);
      NOCSCHED_ASSERT(planned == base_makespan);
    }
  } else {
    state.makespan = delta ? delta->plan_full(state.order) : ctx.evaluate(state.order);
    out.evals = 1;
  }
  if (record_best_order) out.best_order = state.order;
  out.best_makespan = state.makespan;

  while (out.evals < budget) {
    std::optional<Proposal> p = strategy.propose(state, ctx, rng);
    if (!p) {
      out.converged = true;
      break;
    }
    ++state.step;
    ++out.proposals;
    const std::uint64_t makespan =
        delta ? delta->evaluate(p->order) : ctx.evaluate(p->order);
    ++out.evals;
    if (makespan < out.best_makespan) {
      out.best_makespan = makespan;
      if (record_best_order) out.best_order = p->order;
    }
    if (p->reset) {
      state.order = std::move(p->order);
      state.makespan = makespan;
      state.since_accept = 0;
      ++out.resets;
      if (delta) delta->adopt();
    } else if (strategy.accept(state, makespan, rng)) {
      state.order = std::move(p->order);
      state.makespan = makespan;
      state.since_accept = 0;
      ++out.accepted;
      if (delta) delta->adopt();
    } else {
      ++state.since_accept;
    }
  }
  if (delta) out.delta = delta->stats();
  return out;
}

}  // namespace

SearchResult search_orders(const core::SystemModel& sys, const power::PowerBudget& budget,
                           const SearchOptions& options) {
  return search_orders(EvalContext(sys, budget), options);
}

SearchResult search_orders(const EvalContext& ctx, const SearchOptions& options) {
  const obs::Span span("search");
  const Strategy& strategy = strategy_for(options.strategy);

  // The deterministic pass plans the warm order when one was injected
  // (projected onto this context's plannable modules), the base
  // priority order otherwise — so an unset warm_start_order is
  // bit-identical to the pre-warm-start driver.
  const std::vector<int> root = options.warm_start_order.empty()
                                    ? ctx.base_order()
                                    : ctx.projected_order(options.warm_start_order);
  SearchResult result;
  result.best = ctx.plan(root);
  result.first_makespan = result.best.makespan;
  RunTotals totals;
  totals.strategy = std::string(strategy.name());
  totals.iters = options.iters;
  totals.evaluations = 1;
  totals.first_makespan = result.first_makespan;
  totals.best_makespan = result.best.makespan;
  if (options.iters == 0) {
    result.metrics = publish(totals);
    return result;
  }

  const std::uint64_t chains =
      std::clamp<std::uint64_t>(strategy.chains(options.iters), 1, options.iters);
  totals.chains = chains;

  // Budget split: iters / chains each, the remainder spread over the
  // lowest chain indices — a pure function of (iters, chains).
  const std::uint64_t base = options.iters / chains;
  const std::uint64_t extra = options.iters % chains;

  // With few chains (anneal/local cap at 8) keeping each chain's best
  // order costs next to nothing, so record directly; with one chain
  // per iteration (restart) that would hold every shuffle's best alive
  // at once, so store only makespans and replay the one winning chain
  // — its single evaluation — to recover the order, as PR 3 did.
  const bool record_best_order = chains <= 64;
  auto budget_of = [&](std::uint64_t c) { return base + (c < extra ? 1 : 0); };
  std::vector<ChainOutcome> outcomes(chains);
  parallel_for(chains, options.jobs, [&](std::size_t c) {
    const obs::Span chain_span("search.chain");
    outcomes[c] = run_chain(ctx, strategy, root, options.seed, c, budget_of(c),
                            result.first_makespan, record_best_order);
  });

  // Serial reduction by (makespan, chain index): strictly-better chains
  // bump the improvement counter, exactly like PR 3's multistart scan.
  std::uint64_t best_makespan = result.first_makespan;
  std::size_t best_chain = chains;  // sentinel: the deterministic pass wins
  for (std::size_t c = 0; c < chains; ++c) {
    const ChainOutcome& out = outcomes[c];
    totals.evaluations += out.evals;
    totals.proposals += out.proposals;
    totals.accepted += out.accepted;
    totals.resets += out.resets;
    totals.delta.full_plans += out.delta.full_plans;
    totals.delta.replans += out.delta.replans;
    totals.delta.noop_replans += out.delta.noop_replans;
    totals.delta.adoptions += out.delta.adoptions;
    totals.delta.reused_commits += out.delta.reused_commits;
    totals.delta.repriced_commits += out.delta.repriced_commits;
    totals.delta.probes += out.delta.probes;
    totals.delta.suffix_lengths.insert(totals.delta.suffix_lengths.end(),
                                       out.delta.suffix_lengths.begin(),
                                       out.delta.suffix_lengths.end());
    if (out.converged) ++totals.converged_chains;
    if (out.best_makespan < best_makespan) {
      best_makespan = out.best_makespan;
      best_chain = c;
      ++totals.improvements;
    }
  }
  if (best_chain < chains) {
    if (!record_best_order) {
      // Chains are deterministic, so replaying the winner (with order
      // recording on) recovers its best order.
      outcomes[best_chain] = run_chain(ctx, strategy, root, options.seed, best_chain,
                                       budget_of(best_chain), result.first_makespan,
                                       /*record_best_order=*/true);
      NOCSCHED_ASSERT(outcomes[best_chain].best_makespan == best_makespan);
    }
    result.best = ctx.plan(outcomes[best_chain].best_order);
    NOCSCHED_ASSERT(result.best.makespan == best_makespan);
  }
  totals.best_makespan = result.best.makespan;
  result.metrics = publish(totals);
  return result;
}

}  // namespace nocsched::search
