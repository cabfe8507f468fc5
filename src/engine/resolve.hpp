#pragma once
// A request's per-request knobs resolved for execution: its fault
// references against the built system, and its search options.
// Engine::execute and the CLI's fault modes share these, so a fault
// flag and a wire "faults" field are checked, and a searched replan is
// configured, one way.  Defined in engine.cpp.
//
// Declared apart from engine.hpp: planbench/src/adapter.cpp includes
// engine.hpp and keeps file-local mirrors of both functions, which an
// unqualified call would find alongside these through argument-
// dependent lookup.  They can move into engine.hpp once the adapter
// calls these instead.

#include "core/system_model.hpp"
#include "engine/request.hpp"
#include "noc/fault.hpp"
#include "search/driver.hpp"

namespace nocsched::engine {

/// Routers in range, link ends adjacent, processor ids naming
/// processors.  Throws on the first bad reference, naming its request
/// field (faults.links, faults.routers, faults.procs).
[[nodiscard]] noc::FaultSet resolve_faults(const FaultSpec& spec, const core::SystemModel& sys);

/// The request's strategy and iteration budget (none unless
/// searching()), seed and search_jobs.  A fault request's replan runs
/// with the same options.
[[nodiscard]] search::SearchOptions search_options(const PlanRequest& request);

}  // namespace nocsched::engine
