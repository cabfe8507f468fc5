#include "engine/request.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/line_scanner.hpp"
#include "common/narrow.hpp"
#include "common/strings.hpp"
#include "itc02/builtin.hpp"
#include "report/json_util.hpp"

namespace nocsched::engine {

namespace {

void append_rates(std::string& key, const core::CpuRates& r) {
  key += report::json_number(r.per_stimulus_flit);
  key += ',';
  key += report::json_number(r.per_response_flit);
  key += ',';
  key += report::json_number(r.per_pattern_overhead);
  key += ',';
  key += report::json_number(r.setup_cycles);
  key += ',';
  key += report::json_number(r.active_power);
  key += ',';
  key += cat(r.program_bytes, ',', r.memory_bytes);
}

}  // namespace

std::string SystemSpec::cache_key() const {
  // The source spec first (a file path may contain any character, so it
  // goes last in its segment, length-prefixed by the '|' structure
  // being unambiguous: every other field is enum/number-valued).
  std::string key = soc_file.empty() ? cat("soc=", soc) : cat("file=", soc_file);
  key += cat("|cpu=", to_string(cpu), "|procs=", procs, "|mesh=", mesh_cols, "x", mesh_rows);
  key += cat("|wrap=", params.wrapper_chains,
             "|prio=", to_underlying(params.priority),
             "|choice=", to_underlying(params.resource_choice),
             "|pair=", to_underlying(params.pair_order),
             "|chan=", to_underlying(params.channel_model),
             "|pfirst=", params.processors_first ? 1 : 0,
             "|cross=", params.allow_cross_pairing ? 1 : 0);
  key += cat("|noc=", params.noc.flit_width_bits, ",", params.noc.routing_latency, ",",
             params.noc.flow_control_latency, ",", report::json_number(params.noc.hop_power));
  key += "|leon=";
  append_rates(key, params.leon);
  key += "|plasma=";
  append_rates(key, params.plasma);
  return key;
}

namespace {

/// "d695" | "p22810" | "p93791" | "rand:<seed>".
void check_soc_name(LineScanner& sc, std::string_view name) {
  for (const std::string& builtin : itc02::builtin_names()) {
    if (name == builtin) return;
  }
  if (starts_with(name, "rand:")) {
    const std::string_view seed = name.substr(5);
    const bool digits =
        !seed.empty() && std::all_of(seed.begin(), seed.end(),
                                     [](char c) { return c >= '0' && c <= '9'; });
    if (digits) return;
    sc.die("bad \"soc\" random seed in '", name, "' (expected rand:<seed>)");
  }
  sc.die("unknown \"soc\" '", name, "' (expected d695|p22810|p93791 or rand:<seed>)");
}

/// {"links": [...], "routers": [...], "procs": [...]}: the one nested
/// object the grammar admits.
void parse_faults(LineScanner& sc, FaultSpec& faults) {
  sc.object("\"faults\"", "a faults key", [&](std::string_view key) {
    if (key == "links") {
      sc.array("\"links\"", [&] { faults.links.emplace_back(sc.parse_string("a link")); });
    } else if (key == "routers") {
      sc.array("\"routers\"", [&] { faults.routers.push_back(sc.parse_uint("a router id")); });
    } else if (key == "procs") {
      sc.array("\"procs\"",
               [&] { faults.procs.push_back(sc.parse_uint("a processor module id")); });
    } else {
      sc.die("unknown faults key \"", key, "\" (expected links|routers|procs)");
    }
  });
}

/// A "mesh" side's digits, with the scanner's "<source>:<line>: " prefix
/// on a malformed one.
std::uint64_t mesh_side(LineScanner& sc, std::string_view digits, std::string_view what) {
  try {
    return parse_u64(digits, what);
  } catch (const Error& e) {
    sc.die(e.what());
  }
}

}  // namespace

PlanRequest parse_request(std::string_view text, std::string_view source, std::size_t line) {
  LineScanner sc(text, source, line);
  PlanRequest req;
  req.id = cat("line-", line);
  req.origin = cat(source, ":", line);
  sc.object("the request object", "a key", [&](std::string_view key) {
    if (key == "id") {
      req.id = std::string(sc.parse_string("\"id\""));
    } else if (key == "soc") {
      const std::string_view name = sc.parse_string("\"soc\"");
      check_soc_name(sc, name);
      req.system.soc = std::string(name);
    } else if (key == "soc_file") {
      const std::string_view path = sc.parse_string("\"soc_file\"");
      if (path.empty()) sc.die("\"soc_file\" must not be empty");
      req.system.soc_file = std::string(path);
    } else if (key == "cpu") {
      const std::string_view cpu = sc.parse_string("\"cpu\"");
      if (cpu == "leon") {
        req.system.cpu = itc02::ProcessorKind::kLeon;
      } else if (cpu == "plasma") {
        req.system.cpu = itc02::ProcessorKind::kPlasma;
      } else {
        sc.die("unknown \"cpu\" '", cpu, "' (expected leon|plasma)");
      }
    } else if (key == "procs") {
      const std::uint64_t procs = sc.parse_uint("\"procs\"");
      if (procs > 64) sc.die("\"procs\" ", procs, " is out of range (at most 64)");
      req.system.procs = checked_narrow<int>(procs);
    } else if (key == "wrapper") {
      const std::uint64_t w = sc.parse_uint("\"wrapper\"");
      if (w == 0 || w > 1024) sc.die("\"wrapper\" must be in [1, 1024], got ", w);
      req.system.params.wrapper_chains = checked_narrow<std::uint32_t>(w);
    } else if (key == "policy") {
      const std::string_view p = sc.parse_string("\"policy\"");
      if (p == "longest") {
        req.system.params.priority = core::PriorityPolicy::kLongestTestFirst;
      } else if (p == "distance") {
        req.system.params.priority = core::PriorityPolicy::kDistanceFirst;
      } else if (p == "shortest") {
        req.system.params.priority = core::PriorityPolicy::kShortestTestFirst;
      } else {
        sc.die("unknown \"policy\" '", p, "' (expected longest|distance|shortest)");
      }
    } else if (key == "choice") {
      const std::string_view c = sc.parse_string("\"choice\"");
      if (c == "greedy") {
        req.system.params.resource_choice = core::ResourceChoice::kFirstAvailable;
      } else if (c == "earliest") {
        req.system.params.resource_choice = core::ResourceChoice::kEarliestCompletion;
      } else {
        sc.die("unknown \"choice\" '", c, "' (expected greedy|earliest)");
      }
    } else if (key == "mesh") {
      const std::string_view mesh = sc.parse_string("\"mesh\"");
      const auto parts = split(mesh, 'x');
      if (parts.size() != 2 || parts[0].empty() || parts[1].empty()) {
        sc.die("\"mesh\" expects CxR, e.g. 4x4, got '", mesh, "'");
      }
      const std::uint64_t cols = mesh_side(sc, parts[0], "\"mesh\" cols");
      const std::uint64_t rows = mesh_side(sc, parts[1], "\"mesh\" rows");
      if (cols == 0 || rows == 0) {
        sc.die("\"mesh\" dimensions must be positive, got '", mesh, "'");
      }
      if (cols > kMaxMeshSide || rows > kMaxMeshSide) {
        sc.die("\"mesh\" '", mesh, "' is out of range (at most ", kMaxMeshSide,
               " per side)");
      }
      req.system.mesh_cols = checked_narrow<int>(cols);
      req.system.mesh_rows = checked_narrow<int>(rows);
    } else if (key == "power") {
      const double pct = sc.parse_number("\"power\"");
      if (!(pct > 0.0 && pct <= 100.0)) {
        sc.die("\"power\" must be in (0, 100], got ", pct);
      }
      req.power_pct = pct;
    } else if (key == "search") {
      const std::string_view s = sc.parse_string("\"search\"");
      if (s == "restart") {
        req.strategy = search::StrategyKind::kRestart;
      } else if (s == "anneal") {
        req.strategy = search::StrategyKind::kAnneal;
      } else if (s == "local") {
        req.strategy = search::StrategyKind::kLocal;
      } else {
        sc.die("unknown \"search\" strategy '", s, "' (expected restart|anneal|local)");
      }
    } else if (key == "iters") {
      const std::uint64_t iters = sc.parse_uint("\"iters\"");
      if (iters > kMaxIters) {
        sc.die("\"iters\" ", iters, " is out of range (at most ", kMaxIters, ")");
      }
      req.iters = iters;
    } else if (key == "seed") {
      req.seed = sc.parse_uint("\"seed\"");
    } else if (key == "simulate") {
      req.simulate = sc.parse_bool("\"simulate\"");
    } else if (key == "faults") {
      parse_faults(sc, req.faults);
    } else {
      sc.die("unknown key \"", key,
             "\" (expected id|soc|soc_file|cpu|procs|wrapper|policy|choice|mesh|"
             "power|search|iters|seed|simulate|faults)");
    }
  });
  sc.expect_end("the request object");
  if (req.system.mesh_cols > 0 && req.system.soc_file.empty() &&
      !starts_with(req.system.soc, "rand:")) {
    // build_system ignores the mesh of a builtin SoC, so accepting it
    // would only split the context cache key.
    sc.die("\"mesh\" applies only to soc_file and rand: systems, not the builtin SoC '",
           req.system.soc, "'");
  }
  if (req.simulate && !req.faults.empty()) {
    sc.die("\"simulate\" cannot be combined with \"faults\" (fault requests already "
           "classify the degraded plan)");
  }
  return req;
}

}  // namespace nocsched::engine
