#include "engine/engine.hpp"

#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "core/scheduler.hpp"
#include "des/replay.hpp"
#include "engine/resolve.hpp"
#include "noc/fault.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "power/budget.hpp"
#include "search/driver.hpp"
#include "search/replan.hpp"
#include "sim/validate.hpp"

namespace nocsched::engine {

// Range checks run on the parsed 64-bit values before any narrowing —
// a huge id must be rejected, never truncated into a plausible one.
noc::FaultSet resolve_faults(const FaultSpec& spec, const core::SystemModel& sys) {
  auto check_router = [&](std::uint64_t r, std::string_view what) {
    ensure(r < static_cast<std::uint64_t>(sys.mesh().router_count()), what, ": no router ", r,
           " (mesh has ", sys.mesh().router_count(), " routers)");
    return static_cast<noc::RouterId>(r);
  };
  noc::FaultSet faults;
  for (const std::string& link : spec.links) {
    const auto ends = split(link, ':');
    ensure(ends.size() == 2, "faults.links entries are FROM:TO router pairs, got '", link,
           "'");
    const noc::RouterId from = check_router(parse_u64(ends[0], "faults.links"), "faults.links");
    const noc::RouterId to = check_router(parse_u64(ends[1], "faults.links"), "faults.links");
    ensure(sys.mesh().hop_count(from, to) == 1, "faults.links: routers ", from, " and ", to,
           " are not adjacent (channels join mesh neighbours only)");
    faults.fail_channel(sys.mesh().channel_between(from, to));
  }
  for (const std::uint64_t r : spec.routers) {
    faults.fail_router(check_router(r, "faults.routers"));
  }
  for (const std::uint64_t raw : spec.procs) {
    ensure(raw >= 1 && raw <= sys.soc().modules.size(), "faults.procs: no module ", raw);
    const int id = static_cast<int>(raw);
    ensure(sys.soc().module(id).is_processor, "faults.procs: module ", id, " ('",
           sys.soc().module(id).name, "') is not a processor");
    faults.fail_processor(id);
  }
  return faults;
}

search::SearchOptions search_options(const PlanRequest& request) {
  search::SearchOptions opts;
  opts.strategy = request.strategy.value_or(search::StrategyKind::kRestart);
  opts.iters = request.searching() ? request.iters.value_or(256) : 0;
  opts.seed = request.seed;
  // Defaults to one thread per request: batch parallelism runs whole
  // requests on the work queue, and search results are bit-identical
  // at any job count anyway, so nesting thread pools would buy bytes
  // nothing.  The one-shot CLI adapter raises it (one request, many
  // cores).
  opts.jobs = request.search_jobs;
  return opts;
}

Engine::Engine(const EngineOptions& options)
    : options_(options), cache_(options.cache_capacity) {}

PlanResult Engine::execute(const PlanRequest& request, const ContextCache::SlotHandle& slot) {
  PlanResult res;
  res.id = request.id;
  try {
    const ContextCache::Handle ctx = [&] {
      // The span keeps the CLI's pre-engine phase names: "parse" covers
      // everything between argv and a plannable system (near-zero on a
      // cache hit — exactly the amortization the cache exists for).
      const obs::Span span("parse");
      return cache_.context(slot);
    }();
    const core::SystemModel& sys = ctx->system();
    const power::PowerBudget budget =
        request.power_pct
            ? power::PowerBudget::fraction_of_total(sys.soc(), *request.power_pct / 100.0)
            : power::PowerBudget::unconstrained();
    const search::SearchOptions sopts = search_options(request);

    if (!request.faults.empty()) {
      const noc::FaultSet faults = resolve_faults(request.faults, sys);
      const obs::Span span("plan");
      search::ReplanResult replanned =
          search::replan(sys, budget, faults, sopts, ctx->pristine_pairs());
      sim::validate_or_throw(sys, replanned.schedule, faults);
      res.schedule = std::move(replanned.schedule);
      res.faulted = true;
      res.dead_modules = std::move(replanned.dead_modules);
      res.untestable_modules = std::move(replanned.untestable_modules);
      res.pairs_rebuilt = replanned.pairs_rebuilt;
      if (request.searching()) res.search_metrics = std::move(replanned.metrics);
    } else if (request.searching()) {
      const obs::Span span("plan");
      // The cached scaffold *is* the unconstrained-budget context; a
      // power-limited request derives its own from a copy of the cached
      // pristine table (the cheap part — the table build is skipped).
      search::SearchResult result =
          budget.is_constrained()
              ? search::search_orders(
                    search::EvalContext(sys, budget, core::PairTable(ctx->pristine_pairs())),
                    sopts)
              : search::search_orders(ctx->scaffold(), sopts);
      sim::validate_or_throw(sys, result.best);
      res.schedule = std::move(result.best);
      res.search_metrics = std::move(result.metrics);
    } else {
      const obs::Span span("plan");
      res.schedule = core::plan_tests_with_order(sys, budget, ctx->scaffold().base_order(),
                                                 ctx->pristine_pairs());
      sim::validate_or_throw(sys, res.schedule);
    }

    if (request.simulate) {
      res.trace = des::replay(sys, res.schedule);
      res.cross_check = [&] {
        const obs::Span span("cross_check");
        return sim::cross_check(sys, res.schedule, *res.trace);
      }();
    }
    res.context = ctx;
    res.ok = true;
  } catch (const std::exception& e) {
    res = PlanResult{};
    res.id = request.id;
    res.error = request.origin.empty() ? std::string(e.what())
                                       : cat(request.origin, ": ", e.what());
  }
  return res;
}

PlanResult Engine::run(const PlanRequest& request) {
  return run(request, cache_.reserve(request.system));
}

PlanResult Engine::run(const PlanRequest& request, const ContextCache::SlotHandle& slot) {
  obs::MetricsRegistry& reg = obs::registry();
  if (!reg.enabled()) return execute(request, slot);
  const double start_ms = obs::now_ms();
  PlanResult res = execute(request, slot);
  reg.histogram("wall.serve.request_us",
                {100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000})
      .observe(static_cast<std::uint64_t>((obs::now_ms() - start_ms) * 1000.0));
  return res;
}

std::vector<PlanResult> Engine::run_batch(const std::vector<PlanRequest>& requests) {
  // Phase 1, serial in request order: reserve every slot.  Recency and
  // eviction become a pure function of the request sequence, no matter
  // how the parallel phase below interleaves.
  std::vector<ContextCache::SlotHandle> slots;
  slots.reserve(requests.size());
  for (const PlanRequest& request : requests) slots.push_back(cache_.reserve(request.system));
  // Phase 2, parallel: whole requests on the work queue.  Missing
  // contexts are built once (per-slot lock) by whichever worker
  // arrives first; every result is a pure function of its request.
  std::vector<PlanResult> results(requests.size());
  parallel_for(requests.size(), options_.jobs,
               [&](std::size_t i) { results[i] = run(requests[i], slots[i]); });
  return results;
}

}  // namespace nocsched::engine
