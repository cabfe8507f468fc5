#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/bounds.hpp"
#include "engine/context_cache.hpp"
#include "itc02/builtin.hpp"
#include "power/budget.hpp"
#include "report/json_util.hpp"

namespace planbench {

namespace {

namespace core = nocsched::core;
namespace itc02 = nocsched::itc02;
namespace power = nocsched::power;
namespace report = nocsched::report;
namespace search = nocsched::search;
using nocsched::cat;
using nocsched::Rng;
using nocsched::stream_rng;

/// The wire form of one request (the keys engine::parse_request reads).
std::string to_wire(const engine::PlanRequest& request) {
  const engine::SystemSpec& s = request.system;
  std::string out = cat("{\"id\": ", report::json_string(request.id),
                        ", \"soc\": ", report::json_string(s.soc), ", \"cpu\": \"",
                        itc02::to_string(s.cpu), "\", \"procs\": ", s.procs);
  if (request.power_pct) out += cat(", \"power\": ", report::json_number(*request.power_pct));
  if (request.strategy) out += cat(", \"search\": \"", search::to_string(*request.strategy), "\"");
  if (request.iters) out += cat(", \"iters\": ", *request.iters);
  out += cat(", \"seed\": ", request.seed);
  if (request.simulate) out += ", \"simulate\": true";
  if (!request.faults.empty()) {
    auto list = [](const auto& items, bool quoted) {
      std::string l = "[";
      for (std::size_t i = 0; i < items.size(); ++i) {
        l += cat(i > 0 ? ", " : "", quoted ? "\"" : "", items[i], quoted ? "\"" : "");
      }
      return l + "]";
    };
    out += cat(", \"faults\": {\"links\": ", list(request.faults.links, true),
               ", \"routers\": ", list(request.faults.routers, false),
               ", \"procs\": ", list(request.faults.procs, false), "}");
  }
  return out + "}";
}

/// Per-system facts the generator needs: the analytic bound the checks
/// hold answers to, which power limits the planner can meet, and where
/// faults can land.  The context they are read from is dropped at once,
/// so none of it is resident while the server is measured.
struct SystemFacts {
  std::uint64_t lower_bound = 0;
  double cheapest_session_power = 0;  ///< max over modules of their cheapest pair
  double total_power = 0;
  int router_count = 0;
  std::vector<std::pair<int, int>> channels;  ///< (from, to) router ids
  std::vector<std::uint64_t> processors;  ///< processor module ids
  std::vector<std::uint64_t> ate_routers;
};

class Builder {
 public:
  explicit Builder(std::string name) { w_.name = std::move(name); }

  const SystemFacts& facts(const engine::SystemSpec& spec) {
    const std::string key = spec.cache_key();
    const auto it = facts_.find(key);
    if (it != facts_.end()) return it->second;
    const engine::PlanContext ctx(spec);
    const core::SystemModel& sys = ctx.system();
    SystemFacts f;
    f.lower_bound = core::makespan_lower_bounds(sys).combined();
    f.total_power = sys.soc().total_test_power();
    for (const itc02::Module& m : sys.soc().modules) {
      f.cheapest_session_power =
          std::max(f.cheapest_session_power, ctx.pristine_pairs().cheapest_power(m.id));
      if (m.is_processor) f.processors.push_back(static_cast<std::uint64_t>(m.id));
    }
    f.router_count = sys.mesh().router_count();
    for (int c = 0; c < sys.mesh().channel_count(); ++c) {
      f.channels.emplace_back(sys.mesh().channel_source(c), sys.mesh().channel_target(c));
    }
    f.ate_routers = {static_cast<std::uint64_t>(sys.ate_input()),
                     static_cast<std::uint64_t>(sys.ate_output())};
    return facts_.emplace(key, std::move(f)).first->second;
  }

  /// A power limit the system can meet in isolation for every core, so
  /// no request is refused as infeasible.
  bool power_feasible(const engine::SystemSpec& spec, double pct) {
    const SystemFacts& f = facts(spec);
    return power::within_budget(f.cheapest_session_power, f.total_power * pct / 100.0);
  }

  void add(const engine::PlanRequest& request) {
    const SystemFacts& f = facts(request.system);
    w_.text += to_wire(request);
    w_.text += '\n';
    w_.expect.push_back(
        Expectation{request.id, f.lower_bound, request.simulate, !request.faults.empty()});
    if (seen_.insert(request.system.cache_key()).second) w_.systems.push_back(request.system);
  }

  Workload take() { return std::move(w_); }

 private:
  Workload w_;
  std::map<std::string, SystemFacts> facts_;
  std::set<std::string> seen_;
};

/// fleet-churn: the committed serve-fleet mix (bench/serve_fleet) at the
/// server's default cache capacity.  The same 384 random SoCs
/// (rand:1000..1383) with 0/2/4 reused processors, hot-key popularity
/// (min of two uniforms), every third request limited to 60% power,
/// greedy only.  The seed draws the request sequence from that mix.
Workload fleet_churn(std::uint64_t seed) {
  constexpr std::size_t kRequests = 20000;
  constexpr std::size_t kSpecs = 384;
  Rng rng = stream_rng(seed, 0xF1EE7);
  std::vector<engine::SystemSpec> specs(kSpecs);
  for (std::size_t i = 0; i < kSpecs; ++i) {
    specs[i].soc = cat("rand:", 1000 + i);
    specs[i].procs = static_cast<int>(i % 3) * 2;
  }
  Builder b("fleet-churn");
  for (std::size_t k = 0; k < kRequests; ++k) {
    engine::PlanRequest req;
    req.id = cat("f", k);
    req.system = specs[static_cast<std::size_t>(std::min(rng.below(kSpecs), rng.below(kSpecs)))];
    if (k % 3 == 0 && b.power_feasible(req.system, 60.0)) req.power_pct = 60.0;
    b.add(req);
  }
  return b.take();
}

/// The paper's three ITC'02 SoCs with either processor model and 2..8
/// reused processors: 30 systems, under the default cache capacity of
/// 32, so every context is a hit after first touch.
std::vector<engine::SystemSpec> paper_systems() {
  std::vector<engine::SystemSpec> out;
  for (const char* soc : {"d695", "p22810", "p93791"}) {
    for (const itc02::ProcessorKind cpu : {itc02::ProcessorKind::kLeon,
                                           itc02::ProcessorKind::kPlasma}) {
      for (const int procs : {2, 3, 4, 6, 8}) {
        engine::SystemSpec spec;
        spec.soc = soc;
        spec.cpu = cpu;
        spec.procs = procs;
        out.push_back(spec);
      }
    }
  }
  return out;
}

constexpr search::StrategyKind kStrategies[] = {search::StrategyKind::kAnneal,
                                                search::StrategyKind::kLocal,
                                                search::StrategyKind::kRestart};

/// itc02-search-sim: every (system, strategy, power) cell twice — a
/// stratified design, so the seed moves the order and the search seeds
/// but not the mix.  Each request searches 256 orders and replays the
/// plan on the DES with a cross-check.
Workload itc02_search_sim(std::uint64_t seed) {
  constexpr int kRepeats = 2;
  Rng rng = stream_rng(seed, 0x17C02);
  Builder b("itc02-search-sim");
  std::vector<engine::PlanRequest> reqs;
  for (const engine::SystemSpec& spec : paper_systems()) {
    for (const search::StrategyKind strategy : kStrategies) {
      for (const bool limited : {false, true}) {
        for (int r = 0; r < kRepeats; ++r) {
          engine::PlanRequest req;
          req.system = spec;
          req.strategy = strategy;
          req.iters = 256;
          req.simulate = true;
          if (limited && b.power_feasible(spec, 50.0)) req.power_pct = 50.0;
          reqs.push_back(std::move(req));
        }
      }
    }
  }
  rng.shuffle(reqs);
  for (std::size_t k = 0; k < reqs.size(); ++k) {
    reqs[k].id = cat("s", k);
    reqs[k].seed = rng.below(1ULL << 32);
    b.add(reqs[k]);
  }
  return b.take();
}

/// fault-replan: every (system, fault kind, greedy|search) cell 16
/// times, each request with one random processor, link or router fault
/// that resolves against the built mesh.  Routers hosting the tester
/// ports are never failed (that would make nothing testable).  The
/// searching half cycles through the three strategies at budgets of 16,
/// 32 and 64 orders.
Workload fault_replan(std::uint64_t seed) {
  constexpr int kRepeats = 16;
  Rng rng = stream_rng(seed, 0xFA017);
  Builder b("fault-replan");
  std::vector<engine::PlanRequest> reqs;
  for (const engine::SystemSpec& spec : paper_systems()) {
    for (int kind = 0; kind < 3; ++kind) {
      for (const bool searching : {false, true}) {
        for (int r = 0; r < kRepeats; ++r) {
          const SystemFacts& f = b.facts(spec);
          engine::PlanRequest req;
          req.system = spec;
          if (kind == 0) {
            req.faults.procs.push_back(f.processors[rng.below(f.processors.size())]);
          } else if (kind == 1) {
            // Any directed channel: the wire names it by its end routers.
            const auto& [from, to] = f.channels[rng.below(f.channels.size())];
            req.faults.links.push_back(cat(from, ":", to));
          } else {
            std::uint64_t router = 0;
            do {
              router = rng.below(static_cast<std::uint64_t>(f.router_count));
            } while (std::find(f.ate_routers.begin(), f.ate_routers.end(), router) !=
                     f.ate_routers.end());
            req.faults.routers.push_back(router);
          }
          if (searching) {
            req.strategy = kStrategies[r % 3];
            req.iters = 16ULL << ((r / 3) % 3);  // 16, 32 or 64
          }
          reqs.push_back(std::move(req));
        }
      }
    }
  }
  rng.shuffle(reqs);
  for (std::size_t k = 0; k < reqs.size(); ++k) {
    reqs[k].id = cat("x", k);
    reqs[k].seed = rng.below(1ULL << 32);
    b.add(reqs[k]);
  }
  return b.take();
}

}  // namespace

Workload make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "fleet-churn") return fleet_churn(seed);
  if (name == "itc02-search-sim") return itc02_search_sim(seed);
  if (name == "fault-replan") return fault_replan(seed);
  throw std::invalid_argument(cat("unknown workload '", name, "'"));
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    lines.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return lines;
}

}  // namespace planbench
