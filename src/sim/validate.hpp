#pragma once
// Independent validation of a test plan.
//
// Replays a Schedule against the SystemModel and re-checks every
// constraint the planner is supposed to honour:
//
//   1. every module is tested exactly once (at most once for a
//      fault-aware replan, see below);
//   2. sessions have sane extents and makespan equals the last end;
//   3. no resource (ATE port or processor) serves two overlapping
//      sessions, and ATE ports only play their legal role;
//   4. a processor serves sessions only after its own test completed;
//   5. no directed NoC channel carries two overlapping sessions, and
//      every recorded path is the route noc::fault_route produces (the
//      XY route whenever it survives the faults);
//   6. the summed power never exceeds the budget, and the recorded
//      per-session power and duration match the cost model;
//   7. sources can source, sinks can sink, and a module never tests
//      itself.
//
// Everything the planner produced is rebuilt here from scratch
// (reservation tables, power profile), so planner bookkeeping bugs
// cannot hide themselves.

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/interval_set.hpp"
#include "core/schedule.hpp"
#include "core/system_model.hpp"
#include "noc/fault.hpp"

namespace nocsched::sim {

struct ValidationReport {
  std::vector<std::string> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Book `iv` on a session's source and sink resources in `busy` — a
/// processor playing both roles books exactly once.  Returns the
/// resources that already held a conflicting interval (empty = clean);
/// conflict-free resources are booked even when the other one clashes.
/// Shared by the validator, the replay cross-check, and the property
/// suites so all of them agree on what double-booking means.
[[nodiscard]] std::vector<int> book_session_resources(std::map<int, IntervalSet>& busy,
                                                      int source, int sink,
                                                      const Interval& iv);

/// As above over a dense per-endpoint table (indices must be in
/// range) — the validator's own loop, which books every session, uses
/// this form instead of growing a map.
[[nodiscard]] std::vector<int> book_session_resources(std::span<IntervalSet> busy,
                                                      int source, int sink,
                                                      const Interval& iv);

/// Collect all violations of a pristine plan (empty report = valid
/// plan): every module must be tested exactly once.
[[nodiscard]] ValidationReport validate(const core::SystemModel& sys,
                                        const core::Schedule& schedule);

/// Validate a fault-aware replan of `sys` degraded by `faults`:
/// coverage relaxes to "each module at most once" (dead, unroutable or
/// power-infeasible modules are legitimately absent — search::replan
/// reports them), paths must be the deterministic fault-aware routes
/// (so they never traverse a failed channel or router), no session may
/// touch a failed processor, and recorded costs must match the
/// fault-aware cost model.  The relaxed coverage comes with this
/// overload, not with a non-empty `faults`: an empty FaultSet still
/// validates at-most-once (a timeline's epoch 0 plans under it).
/// Processors in `pretested` completed their own test in an earlier
/// timeline epoch, so they are ready from instant 0 and need no session
/// of their own here.
[[nodiscard]] ValidationReport validate(const core::SystemModel& sys,
                                        const core::Schedule& schedule,
                                        const noc::FaultSet& faults,
                                        std::span<const int> pretested = {});

/// Throw nocsched::Error listing the violations of the matching
/// validate overload, if any.
void validate_or_throw(const core::SystemModel& sys, const core::Schedule& schedule);
void validate_or_throw(const core::SystemModel& sys, const core::Schedule& schedule,
                       const noc::FaultSet& faults, std::span<const int> pretested = {});

}  // namespace nocsched::sim
