#include "report/schedule_json.hpp"

#include "obs/metrics.hpp"
#include "report/json_util.hpp"

namespace nocsched::report {

namespace {

const char* kind_name(core::EndpointKind kind) {
  switch (kind) {
    case core::EndpointKind::kAteInput:
      return "ate_input";
    case core::EndpointKind::kAteOutput:
      return "ate_output";
    case core::EndpointKind::kProcessor:
      return "processor";
  }
  return "?";
}

}  // namespace

std::string schedule_json(const core::SystemModel& sys, const core::Schedule& schedule,
                          const obs::MetricsSnapshot* search) {
  JsonWriter doc(JsonWriter::Layout::kDocument);
  doc.add("soc", sys.soc().name)
      .add("makespan", schedule.makespan)
      .add("peak_power", schedule.peak_power)
      .add("power_limit", finite_or_null(schedule.power_limit));
  if (search != nullptr) {
    doc.object("search", [&](JsonWriter& s) {
      s.add("strategy", search->info_or("search.strategy"))
          .add("iterations", search->gauge_or("search.iterations"))
          .add("evaluations", search->counter_or("search.evaluations"))
          .add("proposals", search->counter_or("search.proposals"))
          .add("accepted", search->counter_or("search.accepted"))
          .add("resets", search->counter_or("search.resets"))
          .add("chains", search->gauge_or("search.chains"))
          .add("improvements", search->counter_or("search.improvements"))
          .add("converged_chains", search->counter_or("search.converged_chains"))
          .add("first_makespan", search->gauge_or("search.first_makespan"))
          .add("best_makespan", search->gauge_or("search.best_makespan"));
    });
  }
  std::size_t index = 0;
  doc.rows("resources", sys.endpoints(), [&](JsonWriter& row, const core::Endpoint& ep) {
    row.add("index", index++)
        .add("name", ep.name())
        .add("kind", kind_name(ep.kind))
        .add("router", ep.router);
  });
  doc.rows("sessions", schedule.sessions, [&](JsonWriter& row, const core::Session& s) {
    row.add("module", s.module_id)
        .add("name", sys.soc().module(s.module_id).name)
        .add("source", s.source_resource)
        .add("sink", s.sink_resource)
        .add("start", s.start)
        .add("end", s.end)
        .add("power", s.power)
        .add("hops_in", s.path_in.size())
        .add("hops_out", s.path_out.size());
  });
  return doc.finish();
}

}  // namespace nocsched::report
