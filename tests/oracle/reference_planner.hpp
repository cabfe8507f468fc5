#pragma once
// The reference greedy planner: the original std::map-based
// implementation of the paper's planner (ResourceState busy sets,
// ChannelReservations / ChannelLoadTable channel bookkeeping, a
// power::PowerProfile envelope), kept outside the library as the oracle
// the PlannerState/DeltaPlanner kernel in src/core/ is tested against.
//
// Every core::plan_tests* entry point and every DeltaPlanner replan
// must be bit-identical to reference_plan for the same order — same
// sessions, same makespan, same floating-point peak power — and must
// fail with the identical error text on precheck-infeasible and stuck
// inputs.  tests/oracle/equivalence_test.cpp and
// tests/search/delta_eval_property_test.cpp assert this; the
// delta_eval bench times the kernel against it.

#include <span>
#include <vector>

#include "core/pair_table.hpp"
#include "core/schedule.hpp"
#include "core/system_model.hpp"
#include "power/budget.hpp"

namespace nocsched::oracle {

/// Plan the modules of `order` (distinct, valid ids — not re-validated
/// here; the argument checks live in the core::plan_tests* entry
/// points) in that offer order under `budget`.  `pairs` decides which
/// interface pairs exist; processors named in `pretested` serve from
/// instant 0 without their own test in the plan.  Throws
/// nocsched::Error on a precheck-infeasible module or a stuck plan.
[[nodiscard]] core::Schedule reference_plan(const core::SystemModel& sys,
                                            const power::PowerBudget& budget,
                                            std::vector<int> order,
                                            const core::PairTable& pairs,
                                            std::span<const int> pretested = {});

}  // namespace nocsched::oracle
