#include "report/timeline_report.hpp"

#include <iomanip>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "report/json_util.hpp"

namespace nocsched::report {

namespace {

/// The increment that opened epoch `e` (epoch 0 opens fault-free).
const noc::FaultSet* increment_of(const search::FaultStream& stream, std::size_t e) {
  if (e == 0 || e > stream.events.size()) return nullptr;
  return &stream.events[e - 1].increment;
}

}  // namespace

std::string timeline_table(const core::SystemModel& sys, const search::FaultStream& stream,
                           const sim::TimelineResult& result) {
  std::ostringstream out;
  out << "fault timeline for " << sys.soc().name << ": " << stream.events.size()
      << " events, " << result.epochs.size() << " epochs\n";

  out << std::right << std::setw(6) << "epoch" << std::setw(14) << "origin" << std::setw(14)
      << "event" << std::setw(9) << "planned" << std::setw(9) << "done" << std::setw(9)
      << "drain" << std::setw(9) << "lost" << std::setw(9) << "cancel" << std::setw(9)
      << "rebuilt" << std::setw(14) << "makespan" << "  increment\n";
  for (const sim::EpochRecord& epoch : result.epochs) {
    const noc::FaultSet* inc = increment_of(stream, epoch.index);
    out << std::setw(6) << epoch.index << std::setw(14) << with_commas(epoch.start_cycle)
        << std::setw(14)
        << (epoch.index < stream.events.size()
                ? with_commas(stream.events[epoch.index].cycle)
                : std::string("-"))
        << std::setw(9) << epoch.replan.planned_modules.size() << std::setw(9)
        << epoch.completed << std::setw(9) << epoch.drained << std::setw(9) << epoch.lost
        << std::setw(9) << epoch.cancelled << std::setw(9) << epoch.pairs_rebuilt
        << std::setw(14) << with_commas(epoch.replan.schedule.makespan) << "  "
        << (inc != nullptr ? inc->describe() : std::string("(pristine)")) << "\n";
  }

  out << "coverage: " << result.covered_modules.size() << "/"
      << result.covered_modules.size() + result.uncovered_modules.size() << " modules ("
      << std::fixed << std::setprecision(3) << result.coverage_retained() << ")";
  out.unsetf(std::ios::fixed);
  if (!result.uncovered_modules.empty()) {
    out << "; uncovered:";
    for (const int id : result.uncovered_modules) out << " " << id;
  }
  out << "\n";
  out << "makespan: pristine " << with_commas(result.pristine_makespan) << " -> final "
      << with_commas(result.final_makespan);
  if (result.pristine_makespan > 0) {
    out << " (stretch " << std::fixed << std::setprecision(3) << result.makespan_stretch()
        << "x)";
    out.unsetf(std::ios::fixed);
  }
  out << "; wasted " << with_commas(result.wasted_cycles) << " cycles over "
      << result.lost.size() << " lost sessions\n";
  for (const sim::LostWork& l : result.lost) {
    out << "  lost module " << l.module_id << " ('" << sys.soc().module(l.module_id).name
        << "') at cycle " << with_commas(l.at_cycle) << " after "
        << with_commas(l.wasted_cycles) << " cycles: " << l.reason << "\n";
  }
  return out.str();
}

std::string timeline_csv(const core::SystemModel& sys, const search::FaultStream& stream,
                         const sim::TimelineResult& result) {
  (void)sys;
  std::ostringstream out;
  CsvWriter csv(out, {"epoch", "start_cycle", "event_cycle", "links", "routers", "procs",
                      "planned", "completed", "drained", "lost", "cancelled",
                      "pairs_rebuilt", "plan_makespan"});
  for (const sim::EpochRecord& epoch : result.epochs) {
    const noc::FaultSet* inc = increment_of(stream, epoch.index);
    std::string links;
    std::string routers;
    std::string procs;
    if (inc != nullptr) {
      for (const noc::ChannelId c : inc->failed_channels()) {
        links += links.empty() ? cat(c) : cat(" ", c);
      }
      for (const noc::RouterId r : inc->failed_routers()) {
        routers += routers.empty() ? cat(r) : cat(" ", r);
      }
      for (const int p : inc->failed_processors()) {
        procs += procs.empty() ? cat(p) : cat(" ", p);
      }
    }
    csv.row_of(epoch.index, epoch.start_cycle,
               epoch.index < stream.events.size()
                   ? cat(stream.events[epoch.index].cycle)
                   : std::string(),
               links, routers, procs, epoch.replan.planned_modules.size(), epoch.completed,
               epoch.drained, epoch.lost, epoch.cancelled, epoch.pairs_rebuilt,
               epoch.replan.schedule.makespan);
  }
  return out.str();
}

std::string timeline_json(const core::SystemModel& sys, const search::FaultStream& stream,
                          const sim::TimelineResult& result) {
  JsonWriter doc(JsonWriter::Layout::kDocument);
  doc.add("soc", sys.soc().name);
  doc.rows("events", stream.events, [](JsonWriter& row, const search::FaultEvent& e) {
    row.add("cycle", e.cycle)
        .add("links", e.increment.failed_channels())
        .add("routers", e.increment.failed_routers())
        .add("processors", e.increment.failed_processors());
  });
  doc.rows("epochs", result.epochs, [](JsonWriter& row, const sim::EpochRecord& epoch) {
    row.add("epoch", epoch.index)
        .add("start_cycle", epoch.start_cycle)
        .add("planned", epoch.replan.planned_modules.size())
        .add("completed", epoch.completed)
        .add("drained", epoch.drained)
        .add("lost", epoch.lost)
        .add("cancelled", epoch.cancelled)
        .add("pairs_rebuilt", epoch.pairs_rebuilt)
        .add("plan_makespan", epoch.replan.schedule.makespan)
        .add("observed_makespan", epoch.trace.observed_makespan)
        .add("pretested", epoch.pretested)
        .add("search_evaluations", epoch.replan.metrics.counter_or("search.evaluations"));
  });
  doc.rows("completed", result.completed, [&](JsonWriter& row, const sim::TimelineSession& s) {
    row.add("module", s.module_id)
        .add("name", sys.soc().module(s.module_id).name)
        .add("epoch", s.epoch)
        .add("start", s.abs_start)
        .add("end", s.abs_end);
  });
  doc.rows("lost", result.lost, [](JsonWriter& row, const sim::LostWork& l) {
    row.add("module", l.module_id)
        .add("epoch", l.epoch)
        .add("at_cycle", l.at_cycle)
        .add("wasted_cycles", l.wasted_cycles)
        .add("reason", l.reason);
  });
  doc.add("covered_modules", result.covered_modules)
      .add("uncovered_modules", result.uncovered_modules)
      .add("coverage_retained", result.coverage_retained())
      .add("pristine_makespan", result.pristine_makespan)
      .add("final_makespan", result.final_makespan)
      .add("makespan_stretch", result.makespan_stretch())
      .add("wasted_cycles", result.wasted_cycles);
  return doc.finish();
}

}  // namespace nocsched::report
