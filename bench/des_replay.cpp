// Speed of the discrete-event replay itself: every paper system is
// planned once and then replayed repeatedly; we report simulated
// cycles, events, wall time and event throughput.  The simulator is a
// validation tool — it must stay fast enough to cross-check every plan
// a sweep produces (hundreds per experiment), so its own speed is a
// tracked headline number.  Below the table, one "des_replay" JSON row
// per system and cpu (bench/json_row.hpp):
//   soc, cpu, events, packets, sim_cycles, wall_ms (mean of 20
//   replays), events_per_sec.

#include <chrono>
#include <iostream>
#include <sstream>

#include "core/scheduler.hpp"
#include "des/replay.hpp"
#include "json_row.hpp"
#include "sim/cross_check.hpp"
#include "sim/validate.hpp"

int main() {
  using namespace nocsched;
  using clock = std::chrono::steady_clock;
  try {
    const core::PlannerParams params = core::PlannerParams::paper();
    std::cout << "Flit-level replay throughput (4 processors, no power limit)\n\n";
    std::cout << "system    cpu     sessions  events    packets   sim-cycles  wall-ms  "
                 "events/s\n";
    std::ostringstream rows;
    for (const std::string& soc : itc02::builtin_names()) {
      for (const auto kind : {itc02::ProcessorKind::kLeon, itc02::ProcessorKind::kPlasma}) {
        const core::SystemModel sys = core::SystemModel::paper_system(soc, kind, 4, params);
        const core::Schedule plan =
            core::plan_tests(sys, power::PowerBudget::unconstrained());
        sim::validate_or_throw(sys, plan);

        // Warm up once (and keep the trace for the stats), then time a
        // batch large enough to dominate clock noise.
        const des::SimTrace trace = des::replay(sys, plan);
        const sim::CrossCheckReport check = sim::cross_check(sys, plan, trace);
        if (!check.ok()) {
          std::cerr << "cross-check failed for " << soc << ": " << check.mismatches[0]
                    << "\n";
          return 1;
        }
        constexpr int kRuns = 20;
        const auto begin = clock::now();
        for (int i = 0; i < kRuns; ++i) {
          const des::SimTrace t = des::replay(sys, plan);
          if (t.observed_makespan != trace.observed_makespan) {
            std::cerr << "nondeterministic replay on " << soc << "\n";
            return 1;
          }
        }
        const double ms = std::chrono::duration<double, std::milli>(clock::now() - begin)
                              .count() /
                          kRuns;
        const double events_per_sec =
            ms > 0.0 ? static_cast<double>(trace.events_processed) / (ms / 1000.0) : 0.0;
        const std::string cpu{itc02::to_string(kind)};
        std::cout << soc << std::string(soc.size() < 10 ? 10 - soc.size() : 1, ' ') << cpu
                  << std::string(cpu.size() < 8 ? 8 - cpu.size() : 1, ' ')
                  << trace.sessions.size() << "        " << trace.events_processed << "     "
                  << trace.packets_delivered << "      " << trace.observed_makespan << "     "
                  << ms << "  " << static_cast<std::uint64_t>(events_per_sec) << "\n";
        rows << bench::JsonRow("des_replay")
                    .add("soc", soc)
                    .add("cpu", cpu)
                    .add("events", trace.events_processed)
                    .add("packets", trace.packets_delivered)
                    .add("sim_cycles", trace.observed_makespan)
                    .add("wall_ms", ms)
                    .add("events_per_sec", static_cast<std::uint64_t>(events_per_sec));
      }
    }
    std::cout << "\n" << rows.str();
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
