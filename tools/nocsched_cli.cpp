// Command-line front end to the planner — the paper's "proposed tool"
// as a downstream user would run it.
//
//   nocsched_cli --soc d695 --cpu leon --procs 4 --power 50 --format table
//   nocsched_cli --soc-file my.soc --procs 2 --format json
//   nocsched_cli --soc d695 --procs 4 --simulate --format json
//
// Options:
//   --soc <name>        built-in system: d695 | p22810 | p93791
//   --soc-file <path>   load an ITC'02-style .soc file instead
//   --cpu <kind>        leon (default) | plasma
//   --procs <n>         reused processors appended to the SoC (default 2)
//   --power <pct>       peak power limit in percent of total core power;
//                       omit for no limit
//   --policy <p>        priority: longest (default) | distance | shortest
//   --choice <c>        resource choice: greedy (default) | earliest
//   --search <s>        order-search strategy: restart | anneal | local
//                       (default restart when --iters/--restarts is given)
//   --iters <n>         order-evaluation budget for --search beyond the
//                       deterministic pass (default 256 when --search is
//                       given alone; 0 = plain greedy)
//   --restarts <n>      legacy alias for "--search restart --iters n"
//   --seed <n>          RNG seed for the search (default 0x5EED), so
//                       search runs are reproducible
//   --jobs <n>          threads running search chains, or with --serve
//                       the request workers (default: one per hardware
//                       thread; at most 256 with --serve); every
//                       strategy is bit-identical at every job count
//   --wrapper <n>       wrapper chains per core (default 4)
//   --format <f>        table (default) | gantt | csv | json | all
//   --mesh <CxR>        mesh dimensions for --soc-file and rand: systems
//                       (each side 1..64)
//   --simulate          replay the plan on the flit-level discrete-event
//                       simulator and report observed vs planned timing
//                       (exits non-zero if the cross-check finds
//                       mismatches)
//   --fail-links A:B,.. fault injection: fail the directed mesh channels
//                       from router A to adjacent router B (comma list)
//   --fail-routers N,.. fail whole routers (every touching channel dies)
//   --fail-procs N,..   fail the reused processors with these module ids
//                       (dead silicon: excluded from test and service)
//   --fault-sweep K     replay + replan K seeded random fault scenarios
//                       (one random link each, sometimes a processor)
//   --fault-stream K    online fault timeline: K seeded random fault
//                       events injected mid-execution, each driving an
//                       incremental warm-started replan
//   --fault-stream-file F
//                       load the fault timeline from a JSONL file
//                       (one {"cycle":..,"links":[..],...} per line)
//   --fault-seed S      RNG seed for --fault-sweep / --fault-stream
//                       scenario generation (default 0xFA017)
//   --metrics <fmt>     collect metrics and print a report to stderr
//                       after the run: table | csv | json | prom
//                       (stdout stays byte-identical to a plain run)
//   --trace-out <file>  record phase spans and write a chrome://tracing
//                       JSON document to <file>
//   --serve             plan server: read JSONL requests from stdin and
//                       emit one JSONL result per line, in input order,
//                       each as soon as it and every earlier one are
//                       done (see the README's "Plan server" section for
//                       the schema); a line is read only when one of the
//                       --jobs workers is free; cannot be combined with
//                       the one-shot options above
//   --serve-cache <n>   cached plan contexts in --serve (default 32)
//
// With any fault option the CLI plans the pristine system, replays that
// plan on the degraded mesh (classifying every session as unaffected /
// delayed / unroutable), then replans fault-aware and reports both.
//
// Every mode is a thin adapter over src/engine/: the one-shot paths
// build a single PlanRequest and format the PlanResult, --serve runs
// the streaming JSONL loop, and all of them share the same ContextCache
// and determinism contract.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/scheduler.hpp"
#include "core/system_model.hpp"
#include "des/replay.hpp"
#include "engine/engine.hpp"
#include "engine/resolve.hpp"
#include "engine/serve.hpp"
#include "noc/fault.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/fault_report.hpp"
#include "report/json_util.hpp"
#include "report/metrics_report.hpp"
#include "report/schedule_json.hpp"
#include "report/schedule_text.hpp"
#include "report/timeline_report.hpp"
#include "report/trace_report.hpp"
#include "search/driver.hpp"
#include "search/fault_stream.hpp"
#include "search/replan.hpp"
#include "sim/cross_check.hpp"
#include "sim/robustness.hpp"
#include "sim/timeline.hpp"
#include "sim/validate.hpp"

namespace {

using namespace nocsched;

struct Options {
  std::string soc = "d695";
  std::string soc_file;
  itc02::ProcessorKind cpu = itc02::ProcessorKind::kLeon;
  int procs = 2;
  std::optional<double> power_pct;
  core::PriorityPolicy policy = core::PriorityPolicy::kLongestTestFirst;
  core::ResourceChoice choice = core::ResourceChoice::kFirstAvailable;
  std::optional<search::StrategyKind> strategy;
  std::optional<std::uint64_t> iters;
  std::uint64_t restarts = 0;
  std::uint64_t seed = 0x5EED;
  unsigned jobs = 0;  // 0 = one per hardware thread
  std::uint32_t wrapper = 4;
  std::string format = "table";
  int mesh_cols = 0;
  int mesh_rows = 0;
  bool simulate = false;
  engine::FaultSpec faults;  // --fail-*, resolved once the mesh exists
  std::uint64_t fault_sweep = 0;
  std::uint64_t fault_stream = 0;        // K random timed events
  std::string fault_stream_file;         // JSONL timeline, one event per line
  std::optional<std::uint64_t> fault_seed;  // default 0xFA017; seeds sweep/stream
  std::string metrics;    // report format, empty = no metrics collection
  std::string trace_out;  // chrome://tracing output path, empty = no trace
  bool serve = false;                // JSONL plan-server loop on stdin/stdout
  std::uint64_t serve_cache = 32;    // cached plan contexts

  [[nodiscard]] bool stream_mode() const {
    return fault_stream > 0 || !fault_stream_file.empty();
  }
  [[nodiscard]] bool fault_mode() const {
    return !faults.empty() || fault_sweep > 0 || stream_mode();
  }
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--soc d695|p22810|p93791] [--soc-file path] [--cpu leon|plasma]\n"
               "       [--procs N] [--power PCT] [--policy longest|distance|shortest]\n"
               "       [--choice greedy|earliest] [--search restart|anneal|local]\n"
               "       [--iters N] [--restarts N] [--seed N] [--jobs N]\n"
               "       [--wrapper N] [--format table|gantt|csv|json|all] [--mesh CxR]\n"
               "       [--simulate] [--fail-links A:B,...] [--fail-routers N,...]\n"
               "       [--fail-procs N,...] [--fault-sweep K] [--fault-seed S]\n"
               "       [--fault-stream K] [--fault-stream-file FILE]\n"
               "       [--metrics table|csv|json|prom] [--trace-out FILE]\n"
               "       [--serve] [--serve-cache N]\n"
               "  --search picks the order-search strategy and --iters its\n"
               "  order-evaluation budget (--restarts N is a legacy alias for\n"
               "  --search restart --iters N); --seed makes search runs\n"
               "  reproducible; --jobs runs search chains in parallel (default:\n"
               "  hardware threads) with bit-identical results at any job count;\n"
               "  --simulate replays the plan on the flit-level simulator and\n"
               "  reports observed vs planned timing; --fail-links/--fail-routers/\n"
               "  --fail-procs inject faults (the pristine plan is replayed on the\n"
               "  degraded mesh and then replanned fault-aware); --fault-sweep runs\n"
               "  K seeded random fault scenarios; --fault-stream K injects K seeded\n"
               "  random fault events mid-execution (--fault-stream-file FILE loads\n"
               "  the timeline from a JSONL file instead), replanning incrementally\n"
               "  and warm-started at every event; --metrics prints a metrics report\n"
               "  to stderr and --trace-out writes a chrome://tracing phase trace;\n"
               "  --serve reads JSONL plan requests from stdin and streams JSONL\n"
               "  results in input order (one long-lived process, shared plan-context\n"
               "  cache, --jobs request workers) and cannot be combined with the\n"
               "  one-shot options.\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  // Keys taking a value, and valueless flags.  Unknown keys are
  // rejected by name (not a silent usage exit) so typos are diagnosable.
  static const std::set<std::string> value_keys = {
      "soc",  "soc-file", "cpu",  "procs",   "power",  "policy", "choice", "search",
      "iters", "restarts", "seed", "jobs", "wrapper", "format", "mesh",
      "fail-links", "fail-routers", "fail-procs", "fault-sweep", "fault-seed",
      "fault-stream", "fault-stream-file", "metrics", "trace-out",
      "serve-cache"};
  static const std::set<std::string> flag_keys = {"simulate", "serve"};

  Options opt;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(argv[0]);
    if (arg.rfind("--", 0) != 0) {
      fail("unexpected argument '", arg, "' (options start with --; see --help)");
    }
    const std::string key = arg.substr(2);
    if (flag_keys.count(key) != 0) {
      kv[key] = "1";
      continue;
    }
    if (value_keys.count(key) == 0) {
      fail("unknown option --", key, " (see --help)");
    }
    ensure(i + 1 < argc, "option --", key, " expects a value");
    kv[key] = argv[++i];
  }
  // The --fail-* comma lists; an empty value lists nothing.
  auto list = [](const std::string& value) {
    return value.empty() ? std::vector<std::string_view>{} : split(value, ',');
  };
  for (const auto& [key, value] : kv) {
    if (key == "soc") {
      opt.soc = value;
    } else if (key == "soc-file") {
      opt.soc_file = value;
    } else if (key == "cpu") {
      if (value == "leon") {
        opt.cpu = itc02::ProcessorKind::kLeon;
      } else if (value == "plasma") {
        opt.cpu = itc02::ProcessorKind::kPlasma;
      } else {
        fail("unknown --cpu '", value, "'");
      }
    } else if (key == "procs") {
      opt.procs = static_cast<int>(parse_u64(value, "--procs"));
    } else if (key == "power") {
      opt.power_pct = parse_double(value, "--power");
    } else if (key == "policy") {
      if (value == "longest") {
        opt.policy = core::PriorityPolicy::kLongestTestFirst;
      } else if (value == "distance") {
        opt.policy = core::PriorityPolicy::kDistanceFirst;
      } else if (value == "shortest") {
        opt.policy = core::PriorityPolicy::kShortestTestFirst;
      } else {
        fail("unknown --policy '", value, "'");
      }
    } else if (key == "choice") {
      if (value == "greedy") {
        opt.choice = core::ResourceChoice::kFirstAvailable;
      } else if (value == "earliest") {
        opt.choice = core::ResourceChoice::kEarliestCompletion;
      } else {
        fail("unknown --choice '", value, "'");
      }
    } else if (key == "search") {
      opt.strategy = search::parse_strategy(value);
    } else if (key == "iters") {
      opt.iters = parse_u64(value, "--iters");
    } else if (key == "restarts") {
      opt.restarts = parse_u64(value, "--restarts");
    } else if (key == "seed") {
      opt.seed = parse_u64(value, "--seed");
    } else if (key == "jobs") {
      const std::uint64_t jobs = parse_u64(value, "--jobs");
      ensure(jobs <= std::numeric_limits<unsigned>::max(), "--jobs value ", jobs,
             " is out of range");
      opt.jobs = static_cast<unsigned>(jobs);
    } else if (key == "simulate") {
      opt.simulate = true;
    } else if (key == "fail-links") {
      for (const std::string_view link : list(value)) opt.faults.links.emplace_back(link);
    } else if (key == "fail-routers") {
      for (const std::string_view r : list(value)) {
        opt.faults.routers.push_back(parse_u64(r, "--fail-routers"));
      }
    } else if (key == "fail-procs") {
      for (const std::string_view p : list(value)) {
        opt.faults.procs.push_back(parse_u64(p, "--fail-procs"));
      }
    } else if (key == "fault-sweep") {
      opt.fault_sweep = parse_u64(value, "--fault-sweep");
      ensure(opt.fault_sweep > 0, "--fault-sweep expects at least 1 scenario");
    } else if (key == "fault-stream") {
      opt.fault_stream = parse_u64(value, "--fault-stream");
      ensure(opt.fault_stream > 0, "--fault-stream expects at least 1 event");
    } else if (key == "fault-stream-file") {
      ensure(!value.empty(), "--fault-stream-file expects a file path");
      opt.fault_stream_file = value;
    } else if (key == "fault-seed") {
      opt.fault_seed = parse_u64(value, "--fault-seed");
    } else if (key == "metrics") {
      ensure(value == "table" || value == "csv" || value == "json" || value == "prom",
             "unknown --metrics format '", value, "' (expected table|csv|json|prom)");
      opt.metrics = value;
    } else if (key == "trace-out") {
      ensure(!value.empty(), "--trace-out expects a file path");
      opt.trace_out = value;
    } else if (key == "serve") {
      opt.serve = true;
    } else if (key == "serve-cache") {
      opt.serve_cache = parse_u64(value, "--serve-cache");
      ensure(opt.serve_cache > 0, "--serve-cache expects at least 1 cached context");
    } else if (key == "wrapper") {
      opt.wrapper = static_cast<std::uint32_t>(parse_u64(value, "--wrapper"));
    } else if (key == "format") {
      opt.format = value;
    } else if (key == "mesh") {
      const auto parts = split(value, 'x');
      ensure(parts.size() == 2, "--mesh expects CxR, e.g. 4x4");
      const std::uint64_t cols = parse_u64(parts[0], "--mesh cols");
      const std::uint64_t rows = parse_u64(parts[1], "--mesh rows");
      ensure(cols >= 1 && rows >= 1 && cols <= engine::kMaxMeshSide &&
                 rows <= engine::kMaxMeshSide,
             "--mesh ", value, " is out of range (each side in [1, ", engine::kMaxMeshSide,
             "])");
      opt.mesh_cols = static_cast<int>(cols);
      opt.mesh_rows = static_cast<int>(rows);
    } else {
      // Unknown keys were rejected while scanning argv; reaching this
      // branch means a key was added to value_keys/flag_keys without a
      // dispatch case above.
      NOCSCHED_ASSERT(!"option key accepted by the parse loop but not dispatched");
    }
  }
  // --restarts is the legacy spelling of --search restart --iters;
  // mixing it with the new flags has no single documented meaning, so
  // reject the combination instead of silently preferring one side.
  ensure(!(opt.restarts > 0 && (opt.strategy.has_value() || opt.iters.has_value())),
         "--restarts is a legacy alias for --search restart --iters and cannot be "
         "combined with --search/--iters");
  ensure(!(opt.fault_mode() && opt.simulate),
         "--simulate cannot be combined with fault injection (fault mode already "
         "replays the plan on the degraded mesh)");
  ensure(!(opt.fault_sweep > 0 && !opt.faults.empty()),
         "--fault-sweep generates its own scenarios and cannot be combined with --fail-*");
  ensure(!(opt.fault_stream > 0 && !opt.fault_stream_file.empty()),
         "--fault-stream generates a random timeline and --fault-stream-file loads an "
         "explicit one; give one or the other");
  ensure(!(opt.stream_mode() && !opt.faults.empty()),
         "a fault stream carries its own timed fault events and cannot be combined with "
         "--fail-*");
  ensure(!(opt.stream_mode() && opt.fault_sweep > 0),
         "--fault-sweep and --fault-stream are separate modes; give one or the other");
  ensure(!(opt.fault_seed.has_value() && opt.fault_sweep == 0 && opt.fault_stream == 0),
         "--fault-seed only seeds generated scenarios (--fault-sweep or --fault-stream); "
         "it has no effect without one of them");
  if (opt.serve) {
    // The server reads every per-request knob from the JSONL stream; a
    // one-shot flag alongside --serve has no single meaning, so reject
    // anything that is not about the server process itself.
    static const std::set<std::string> serve_keys = {"serve", "serve-cache", "jobs", "metrics",
                                                     "trace-out"};
    for (const auto& [key, value] : kv) {
      ensure(serve_keys.count(key) != 0, "--serve reads plan requests from stdin and "
             "cannot be combined with --", key, " (put it in the request objects)");
    }
  } else {
    ensure(kv.count("serve-cache") == 0, "--serve-cache only configures the --serve loop");
    ensure(opt.mesh_cols == 0 || !opt.soc_file.empty() || starts_with(opt.soc, "rand:"),
           "--mesh applies only to --soc-file and rand: systems, not the builtin SoC '",
           opt.soc, "'");
  }
  return opt;
}

/// The engine-facing name for the system this invocation plans.  System
/// construction itself lives behind engine::ContextCache (one shared
/// path for the CLI, the server, and the benches).
engine::SystemSpec build_spec(const Options& opt) {
  engine::SystemSpec spec;
  spec.soc = opt.soc;
  spec.soc_file = opt.soc_file;
  spec.cpu = opt.cpu;
  spec.procs = opt.procs;
  spec.mesh_cols = opt.mesh_cols;
  spec.mesh_rows = opt.mesh_rows;
  spec.params = core::PlannerParams::paper();
  spec.params.priority = opt.policy;
  spec.params.resource_choice = opt.choice;
  spec.params.wrapper_chains = opt.wrapper;
  return spec;
}

/// The one-shot flags as a single PlanRequest (faults stay CLI-side:
/// the fault modes need the pristine plan plus reports the engine
/// doesn't produce, so they run as separate steps in run()).
engine::PlanRequest build_request(const Options& opt) {
  engine::PlanRequest request;
  request.id = "cli";
  // origin stays empty: execution errors reach stderr exactly as the
  // pre-engine CLI printed them, with no "<source>:<line>: " prefix.
  request.system = build_spec(opt);
  request.power_pct = opt.power_pct;
  if (opt.restarts > 0) {
    request.strategy = search::StrategyKind::kRestart;
    request.iters = opt.restarts;
  } else {
    request.strategy = opt.strategy;
    request.iters = opt.iters;
  }
  request.seed = opt.seed;
  request.search_jobs = opt.jobs;
  request.simulate = opt.simulate;
  return request;
}

/// One explicit fault scenario: replay the pristine plan degraded,
/// replan fault-aware, and report both.
int run_fault_scenario(const Options& opt, const core::SystemModel& sys,
                       const power::PowerBudget& budget, const core::Schedule& schedule,
                       const search::SearchOptions& ropts, bool all) {
  const noc::FaultSet faults = engine::resolve_faults(opt.faults, sys);
  const sim::RobustnessReport robustness = sim::assess_robustness(sys, schedule, faults);
  const search::ReplanResult replanned = search::replan(sys, budget, faults, ropts);
  sim::validate_or_throw(sys, replanned.schedule, faults);
  if (opt.format == "table" || all) {
    std::cout << report::robustness_table(sys, faults, robustness, &replanned);
    std::cout << report::schedule_table(sys, replanned.schedule);
  }
  if (opt.format == "gantt" || all) {
    std::cout << report::gantt(sys, replanned.schedule);
  }
  if (opt.format == "csv" || all) {
    std::cout << report::robustness_csv(sys, robustness);
  }
  if (opt.format == "json" || all) {
    std::cout << report::robustness_json(sys, faults, robustness, &replanned);
  }
  return 0;
}

/// K seeded random fault scenarios: per-scenario robustness + an
/// incremental (apply_faults) replan, reported one row each.
int run_fault_sweep(const Options& opt, const core::SystemModel& sys,
                    const power::PowerBudget& budget, const core::Schedule& schedule,
                    const core::PairTable& pristine, const search::SearchOptions& ropts,
                    bool all) {
  ensure(opt.format != "gantt", "--fault-sweep supports --format table|csv|json|all");
  const std::uint64_t fault_seed = opt.fault_seed.value_or(0xFA017);
  // One unchanged plan, one baseline replay: every scenario is judged
  // against it (re-simulating the pristine trace K times buys nothing).
  const des::SimTrace baseline = des::replay(sys, schedule);
  const std::vector<int> procs = sys.soc().processor_ids();
  struct Row {
    std::uint64_t scenario = 0;
    std::string faults;
    sim::RobustnessReport robustness;
    std::uint64_t replan_makespan = 0;
    std::size_t untestable = 0;
    std::size_t pairs_rebuilt = 0;
  };
  std::vector<Row> rows;
  for (std::uint64_t k = 0; k < opt.fault_sweep; ++k) {
    Rng rng = stream_rng(fault_seed, k);
    const noc::FaultSet faults = noc::random_fault_scenario(sys.mesh(), procs, rng);
    Row row;
    row.scenario = k;
    row.faults = faults.describe();
    row.robustness = sim::assess_robustness(sys, schedule, faults, baseline);
    const search::ReplanResult replanned = search::replan(sys, budget, faults, ropts, pristine);
    sim::validate_or_throw(sys, replanned.schedule, faults);
    row.replan_makespan = replanned.schedule.makespan;
    row.untestable = replanned.untestable_modules.size() + replanned.dead_modules.size();
    row.pairs_rebuilt = replanned.pairs_rebuilt;
    rows.push_back(std::move(row));
  }
  if (opt.format == "table" || all) {
    std::cout << "fault sweep for " << sys.soc().name << ": " << opt.fault_sweep
              << " scenarios (seed " << fault_seed << "), pristine makespan "
              << schedule.makespan << "\n";
    for (const Row& r : rows) {
      std::cout << "#" << r.scenario << " " << r.faults << ": " << r.robustness.lost
                << " lost, " << r.robustness.delayed << " delayed, stretch "
                << cat(r.robustness.makespan_stretch) << "; replanned makespan "
                << r.replan_makespan << " (" << r.untestable << " modules lost, "
                << r.pairs_rebuilt << " pair lists rebuilt)\n";
    }
  }
  if (opt.format == "csv" || all) {
    CsvWriter csv(std::cout, {"scenario", "faults", "lost", "delayed", "stretch",
                              "replan_makespan", "modules_lost", "pairs_rebuilt"});
    for (const Row& r : rows) {
      csv.row_of(r.scenario, r.faults, r.robustness.lost, r.robustness.delayed,
                 cat(r.robustness.makespan_stretch), r.replan_makespan, r.untestable,
                 r.pairs_rebuilt);
    }
  }
  if (opt.format == "json" || all) {
    std::cout << "{\n  \"soc\": " << report::json_string(sys.soc().name)
              << ",\n  \"pristine_makespan\": " << schedule.makespan
              << ",\n  \"fault_seed\": " << fault_seed << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::cout << "    {\"scenario\": " << r.scenario
                << ", \"faults\": " << report::json_string(r.faults)
                << ", \"lost\": " << r.robustness.lost
                << ", \"delayed\": " << r.robustness.delayed << ", \"stretch\": "
                << report::json_number(r.robustness.makespan_stretch)
                << ", \"replan_makespan\": " << r.replan_makespan
                << ", \"modules_lost\": " << r.untestable
                << ", \"pairs_rebuilt\": " << r.pairs_rebuilt << "}"
                << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    std::cout << "  ]\n}\n";
  }
  return 0;
}

/// Online fault timeline: K timed events, one incremental warm-started
/// replan per event, the whole history replayed and audited.
int run_fault_stream(const Options& opt, const core::SystemModel& sys,
                     const power::PowerBudget& budget, const core::Schedule& schedule,
                     const search::SearchOptions& ropts, bool all) {
  ensure(opt.format != "gantt", "--fault-stream supports --format table|csv|json|all");
  const search::FaultStream stream = [&] {
    if (!opt.fault_stream_file.empty()) {
      return search::load_fault_stream(opt.fault_stream_file, sys);
    }
    // Random events land inside the pristine run: the horizon is the
    // makespan the stream is about to disrupt.
    return search::random_fault_stream(sys, opt.fault_stream,
                                       opt.fault_seed.value_or(0xFA017),
                                       schedule.makespan);
  }();
  const sim::TimelineResult result = sim::replay_timeline(sys, budget, stream, ropts);
  const sim::TimelineCheck check = sim::validate_timeline(sys, stream, result);
  if (opt.format == "table" || all) {
    std::cout << report::timeline_table(sys, stream, result);
  }
  if (opt.format == "csv" || all) {
    std::cout << report::timeline_csv(sys, stream, result);
  }
  if (opt.format == "json" || all) {
    std::cout << report::timeline_json(sys, stream, result);
  }
  if (!check.ok()) {
    std::cerr << "timeline validation failed:\n";
    for (const std::string& v : check.violations) std::cerr << "  - " << v << "\n";
    return 1;
  }
  return 0;
}

int run(const Options& opt) {
  if (opt.serve) {
    engine::ServeOptions sopts;
    sopts.cache_capacity = static_cast<std::size_t>(opt.serve_cache);
    sopts.jobs = opt.jobs;
    return engine::serve(std::cin, std::cout, sopts);
  }

  // One-shot modes: one PlanRequest through the engine (which owns the
  // parse/build/plan/validate pipeline), then CLI-side formatting.
  engine::Engine eng(engine::EngineOptions{/*cache_capacity=*/1, opt.jobs});
  const engine::PlanRequest request = build_request(opt);
  const engine::PlanResult res = eng.run(request);
  if (!res.ok) fail(res.error);

  const bool all = opt.format == "all";
  if (opt.format != "table" && opt.format != "gantt" && opt.format != "csv" &&
      opt.format != "json" && !all) {
    fail("unknown --format '", opt.format, "'");
  }

  const core::SystemModel& sys = res.context->system();
  const core::Schedule& schedule = res.schedule;
  if (res.search_metrics) std::cerr << report::search_summary(*res.search_metrics);

  if (opt.fault_mode()) {
    const power::PowerBudget budget =
        opt.power_pct
            ? power::PowerBudget::fraction_of_total(sys.soc(), *opt.power_pct / 100.0)
            : power::PowerBudget::unconstrained();
    // The replan inherits the pristine run's search configuration, so
    // a searched plan is replanned with the same effort (a plain
    // greedy run replans greedily).
    const search::SearchOptions ropts = engine::search_options(request);
    if (opt.stream_mode()) {
      return run_fault_stream(opt, sys, budget, schedule, ropts, all);
    }
    return opt.fault_sweep > 0
               ? run_fault_sweep(opt, sys, budget, schedule, res.context->pristine_pairs(),
                                 ropts, all)
               : run_fault_scenario(opt, sys, budget, schedule, ropts, all);
  }

  if (opt.simulate) {
    const des::SimTrace& trace = *res.trace;
    const sim::CrossCheckReport& check = *res.cross_check;
    if (opt.format == "table" || all) {
      std::cout << report::trace_table(sys, trace, check);
    }
    if (opt.format == "gantt" || all) {
      // Observed timing on the familiar per-resource lanes.
      std::cout << report::gantt(sys, report::observed_schedule(schedule, trace));
    }
    if (opt.format == "csv" || all) {
      std::cout << report::trace_csv(sys, trace);
    }
    if (opt.format == "json" || all) {
      std::cout << report::trace_json(sys, trace, check);
    }
    if (!check.ok()) {
      std::cerr << "cross-check failed:\n";
      for (const std::string& m : check.mismatches) std::cerr << "  - " << m << "\n";
      return 1;
    }
    return 0;
  }

  if (opt.format == "table" || all) {
    std::cout << report::schedule_table(sys, schedule);
  }
  if (opt.format == "gantt" || all) {
    std::cout << report::gantt(sys, schedule);
  }
  if (opt.format == "csv" || all) {
    CsvWriter csv(std::cout, {"module", "name", "source", "sink", "start", "end", "power"});
    for (const core::Session& s : schedule.sessions) {
      csv.row_of(s.module_id, sys.soc().module(s.module_id).name,
                 sys.endpoints()[static_cast<std::size_t>(s.source_resource)].name(),
                 sys.endpoints()[static_cast<std::size_t>(s.sink_resource)].name(),
                 s.start, s.end, cat(s.power));
    }
  }
  if (opt.format == "json" || all) {
    std::cout << report::schedule_json(sys, schedule,
                                       res.search_metrics ? &*res.search_metrics : nullptr);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_args(argc, argv);
    // Observability is opt-in: without --metrics/--trace-out the
    // registry stays disabled and every flush site is a relaxed load.
    if (!opt.metrics.empty() || !opt.trace_out.empty()) {
      obs::registry().set_enabled(true);
    }
    obs::TraceCollector collector;
    if (!opt.trace_out.empty()) obs::TraceCollector::install(&collector);
    const double start_ms = obs::now_ms();
    const int rc = run(opt);
    if (!opt.trace_out.empty()) {
      obs::TraceCollector::install(nullptr);
      std::ofstream out(opt.trace_out);
      ensure(out.good(), "cannot open --trace-out file '", opt.trace_out, "'");
      out << collector.json();
      ensure(out.good(), "failed writing --trace-out file '", opt.trace_out, "'");
    }
    if (!opt.metrics.empty()) {
      obs::registry().set_wall_ms("wall.cli_total", obs::now_ms() - start_ms);
      // The report goes to stderr so stdout stays byte-identical to a
      // metrics-free run (asserted by cli.smoke and obs_tests).
      const obs::MetricsSnapshot snap = obs::registry().snapshot();
      if (opt.metrics == "table") {
        std::cerr << report::metrics_table(snap);
      } else if (opt.metrics == "csv") {
        std::cerr << report::metrics_csv(snap);
      } else if (opt.metrics == "json") {
        std::cerr << report::metrics_json(snap);
      } else {
        std::cerr << report::metrics_prometheus(snap);
      }
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "nocsched_cli: " << e.what() << "\n";
    return 1;
  }
}
