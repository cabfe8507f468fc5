#include "report/trace_report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "report/json_util.hpp"

namespace nocsched::report {

std::string trace_table(const core::SystemModel& sys, const des::SimTrace& trace,
                        const sim::CrossCheckReport& check) {
  std::ostringstream out;
  out << "simulated replay for " << sys.soc().name << " — " << trace.sessions.size()
      << " sessions, planned makespan " << with_commas(trace.planned_makespan)
      << ", observed " << with_commas(trace.observed_makespan);
  if (trace.planned_makespan > 0) {
    const double pct = 100.0 *
                       (static_cast<double>(trace.observed_makespan) /
                            static_cast<double>(trace.planned_makespan) -
                        1.0);
    out << " (" << std::showpos << std::fixed << std::setprecision(2) << pct << "%)";
    out << std::noshowpos;
    out.unsetf(std::ios::fixed);
  }
  out << ", peak power " << trace.peak_power << "\n";

  out << std::left << std::setw(22) << "module" << std::right << std::setw(12) << "planned"
      << std::setw(12) << "observed" << std::setw(12) << "plan end" << std::setw(12)
      << "obs end" << std::setw(10) << "slip" << std::setw(10) << "stretch" << std::setw(10)
      << "blocked" << "\n";
  for (const des::SessionTrace& t : trace.sessions) {
    const itc02::Module& m = sys.soc().module(t.module_id);
    out << std::left << std::setw(22) << cat(m.id, ":", m.name) << std::right << std::setw(12)
        << t.planned_start << std::setw(12) << t.observed_start << std::setw(12)
        << t.planned_end << std::setw(12) << t.observed_end << std::setw(10)
        << t.finish_slip() << std::setw(10) << t.stretch_cycles() << std::setw(10)
        << t.blocked_cycles << "\n";
  }

  if (!trace.channels.empty()) {
    std::vector<des::ChannelUse> busiest = trace.channels;
    std::sort(busiest.begin(), busiest.end(),
              [](const des::ChannelUse& a, const des::ChannelUse& b) {
                if (a.busy_cycles != b.busy_cycles) return a.busy_cycles > b.busy_cycles;
                return a.channel < b.channel;
              });
    const std::size_t shown = std::min<std::size_t>(busiest.size(), 8);
    out << "busiest channels (of " << trace.channels.size() << " used):\n";
    for (std::size_t i = 0; i < shown; ++i) {
      const des::ChannelUse& c = busiest[i];
      const noc::Coord from = sys.mesh().coord_of(sys.mesh().channel_source(c.channel));
      const noc::Coord to = sys.mesh().coord_of(sys.mesh().channel_target(c.channel));
      out << "  (" << from.x << "," << from.y << ")->(" << to.x << "," << to.y << ")  "
          << std::setw(12) << with_commas(c.busy_cycles) << " busy cycles  " << std::setw(8)
          << c.packets << " packets  " << std::fixed << std::setprecision(1) << std::setw(5)
          << 100.0 * c.utilization(trace.observed_makespan) << "%\n";
      out.unsetf(std::ios::fixed);
    }
  }

  if (check.ok()) {
    out << "cross-check: OK — model and simulation agree within tolerance\n";
  } else {
    out << "cross-check: " << check.mismatches.size() << " mismatch(es)\n";
    for (const std::string& m : check.mismatches) out << "  - " << m << "\n";
  }
  return out.str();
}

std::string trace_csv(const core::SystemModel& sys, const des::SimTrace& trace) {
  std::ostringstream out;
  CsvWriter csv(out, {"module", "name", "source", "sink", "planned_start", "planned_end",
                      "observed_start", "observed_end", "start_slip", "finish_slip", "stretch",
                      "blocked"});
  const auto& eps = sys.endpoints();
  for (const des::SessionTrace& t : trace.sessions) {
    csv.row_of(t.module_id, sys.soc().module(t.module_id).name,
               eps[static_cast<std::size_t>(t.source_resource)].name(),
               eps[static_cast<std::size_t>(t.sink_resource)].name(), t.planned_start,
               t.planned_end, t.observed_start, t.observed_end, t.start_slip(),
               t.finish_slip(), t.stretch_cycles(), t.blocked_cycles);
  }
  return out.str();
}

std::string trace_json(const core::SystemModel& sys, const des::SimTrace& trace,
                       const sim::CrossCheckReport& check) {
  JsonWriter doc(JsonWriter::Layout::kDocument);
  doc.add("soc", sys.soc().name)
      .add("planned_makespan", trace.planned_makespan)
      .add("observed_makespan", trace.observed_makespan)
      .add("makespan_slip", static_cast<std::int64_t>(trace.observed_makespan) -
                                static_cast<std::int64_t>(trace.planned_makespan))
      .add("peak_power", trace.peak_power)
      .add("power_limit", finite_or_null(trace.power_limit))
      .add("events", trace.events_processed)
      .add("packets", trace.packets_delivered);
  doc.rows("sessions", trace.sessions, [&](JsonWriter& row, const des::SessionTrace& t) {
    row.add("module", t.module_id)
        .add("name", sys.soc().module(t.module_id).name)
        .add("source", t.source_resource)
        .add("sink", t.sink_resource)
        .add("planned_start", t.planned_start)
        .add("planned_end", t.planned_end)
        .add("observed_start", t.observed_start)
        .add("observed_end", t.observed_end)
        .add("start_slip", t.start_slip())
        .add("finish_slip", t.finish_slip())
        .add("stretch", t.stretch_cycles())
        .add("patterns", t.patterns)
        .add("flits_in", t.flits_in)
        .add("flits_out", t.flits_out)
        .add("blocked", t.blocked_cycles);
  });
  doc.rows("channels", trace.channels, [&](JsonWriter& row, const des::ChannelUse& c) {
    row.add("channel", c.channel)
        .add("from", sys.mesh().channel_source(c.channel))
        .add("to", sys.mesh().channel_target(c.channel))
        .add("busy_cycles", c.busy_cycles)
        .add("packets", c.packets)
        .add("utilization", c.utilization(trace.observed_makespan));
  });
  doc.object("cross_check", [&](JsonWriter& cc) {
    cc.add("ok", check.ok()).add("mismatches", check.mismatches);
  });
  return doc.finish();
}

core::Schedule observed_schedule(const core::Schedule& plan, const des::SimTrace& trace) {
  core::Schedule out;
  out.power_limit = plan.power_limit;
  out.peak_power = trace.peak_power;
  out.makespan = trace.observed_makespan;
  const core::ScheduleIndex plan_index(plan);
  for (const des::SessionTrace& t : trace.sessions) {
    const core::Session& planned = plan_index.session_for(t.module_id);
    core::Session s = planned;
    s.start = t.observed_start;
    s.end = t.observed_end;
    out.sessions.push_back(std::move(s));
  }
  return out;
}

}  // namespace nocsched::report
