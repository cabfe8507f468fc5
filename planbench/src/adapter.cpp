#include "adapter.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/scheduler.hpp"
#include "des/replay.hpp"
#include "engine/serve.hpp"
#include "noc/fault.hpp"
#include "power/budget.hpp"
#include "search/driver.hpp"
#include "search/replan.hpp"
#include "sim/cross_check.hpp"
#include "sim/validate.hpp"

namespace planbench {

namespace {

namespace core = nocsched::core;
namespace des = nocsched::des;
namespace noc = nocsched::noc;
namespace power = nocsched::power;
namespace search = nocsched::search;
namespace sim = nocsched::sim;
using nocsched::cat;
using nocsched::ensure;

// Mirrors engine.cpp's resolve_faults (file-local there), diagnostics
// included, so error answers stay byte-identical too.
noc::FaultSet resolve_faults(const engine::FaultSpec& spec, const core::SystemModel& sys) {
  auto check_router = [&](std::uint64_t r, std::string_view what) {
    ensure(r < static_cast<std::uint64_t>(sys.mesh().router_count()), what, ": no router ", r,
           " (mesh has ", sys.mesh().router_count(), " routers)");
    return static_cast<noc::RouterId>(r);
  };
  noc::FaultSet faults;
  for (const std::string& link : spec.links) {
    const auto ends = nocsched::split(link, ':');
    ensure(ends.size() == 2, "faults.links entries are FROM:TO router pairs, got '", link,
           "'");
    const noc::RouterId from =
        check_router(nocsched::parse_u64(ends[0], "faults.links"), "faults.links");
    const noc::RouterId to =
        check_router(nocsched::parse_u64(ends[1], "faults.links"), "faults.links");
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

// Mirrors engine.cpp's search_options.
search::SearchOptions search_options(const engine::PlanRequest& request) {
  search::SearchOptions opts;
  opts.strategy = request.strategy.value_or(search::StrategyKind::kRestart);
  opts.iters = request.searching() ? request.iters.value_or(256) : 0;
  opts.seed = request.seed;
  opts.jobs = request.search_jobs;
  return opts;
}

}  // namespace

SpanLog::Scope::Scope(SpanLog& log, std::string_view name, std::size_t request,
                      std::ptrdiff_t parent)
    : log_(log), index_(static_cast<std::ptrdiff_t>(log.records_.size())) {
  log_.records_.push_back(SpanRecord{name, request, parent, Clock::now(), Stamp{}});
}

SpanLog::Scope::~Scope() { log_.records_[static_cast<std::size_t>(index_)].end = Clock::now(); }

std::map<std::string, double> self_time_ms(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::vector<std::pair<Stamp, Stamp>> cover;
    for (const std::size_t c : children[i]) {
      cover.emplace_back(std::max(spans[c].start, s.start), std::min(spans[c].end, s.end));
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    Stamp reach = s.start;
    for (const auto& [from, to] : cover) {
      const Stamp begin = std::max(from, reach);
      if (to > begin) {
        covered += ms_between(begin, to);
        reach = to;
      }
    }
    self[std::string(s.name)] += ms_between(s.start, s.end) - covered;
  }
  return self;
}

std::string TracedAdapter::run(std::string_view line, std::size_t line_no, std::size_t request,
                               SpanLog& log) {
  const SpanLog::Scope root(log, "request", request, -1);
  const std::ptrdiff_t parent = root.index();

  // serve: trim, parse; a parse error is answered without the engine.
  engine::PlanRequest req;
  try {
    const SpanLog::Scope span(log, "engine.parse", request, parent);
    req = engine::parse_request(nocsched::trim(line), "stdin", line_no);
  } catch (const std::exception& e) {
    const SpanLog::Scope span(log, "engine.serialize", request, parent);
    return engine::error_json(cat("line-", line_no), e.what());
  }

  // Engine::execute.
  engine::PlanResult res;
  res.id = req.id;
  try {
    const engine::ContextCache::SlotHandle slot = cache_.reserve(req.system);
    const engine::ContextCache::Handle ctx = [&] {
      const SpanLog::Scope span(log, "context", request, parent);
      return cache_.context(slot);
    }();
    const core::SystemModel& sys = ctx->system();
    const power::PowerBudget budget =
        req.power_pct
            ? power::PowerBudget::fraction_of_total(sys.soc(), *req.power_pct / 100.0)
            : power::PowerBudget::unconstrained();
    const search::SearchOptions sopts = search_options(req);
    const bool faulted = !req.faults.empty();
    noc::FaultSet faults;

    {
      const SpanLog::Scope span(log, "replan", request, parent);
      if (faulted) {
        faults = resolve_faults(req.faults, sys);
        search::ReplanResult replanned =
            search::replan(sys, budget, faults, sopts, ctx->pristine_pairs());
        res.schedule = std::move(replanned.schedule);
        res.faulted = true;
        res.dead_modules = std::move(replanned.dead_modules);
        res.untestable_modules = std::move(replanned.untestable_modules);
        res.pairs_rebuilt = replanned.pairs_rebuilt;
        if (req.searching()) res.search_metrics = std::move(replanned.metrics);
      }
    }
    {
      const SpanLog::Scope span(log, "search", request, parent);
      if (!faulted && req.searching()) {
        search::SearchResult result =
            budget.is_constrained()
                ? search::search_orders(
                      search::EvalContext(sys, budget, core::PairTable(ctx->pristine_pairs())),
                      sopts)
                : search::search_orders(ctx->scaffold(), sopts);
        res.schedule = std::move(result.best);
        res.search_metrics = std::move(result.metrics);
      }
    }
    {
      const SpanLog::Scope span(log, "plan", request, parent);
      if (!faulted && !req.searching()) {
        res.schedule = core::plan_tests_with_order(sys, budget, ctx->scaffold().base_order(),
                                                   ctx->pristine_pairs());
      }
    }
    {
      const SpanLog::Scope span(log, "validate", request, parent);
      if (faulted) {
        sim::validate_or_throw(sys, res.schedule, faults);
      } else {
        sim::validate_or_throw(sys, res.schedule);
      }
    }
    {
      const SpanLog::Scope span(log, "des.replay", request, parent);
      if (req.simulate) res.trace = des::replay(sys, res.schedule);
    }
    {
      const SpanLog::Scope span(log, "cross_check", request, parent);
      if (req.simulate) res.cross_check = sim::cross_check(sys, res.schedule, *res.trace);
    }
    res.context = ctx;
    res.ok = true;
  } catch (const std::exception& e) {
    res = engine::PlanResult{};
    res.id = req.id;
    res.error = req.origin.empty() ? std::string(e.what()) : cat(req.origin, ": ", e.what());
  }

  const SpanLog::Scope span(log, "engine.serialize", request, parent);
  return engine::result_json(res);
}

}  // namespace planbench
