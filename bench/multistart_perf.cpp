// Planner hot-path throughput: multistart orders planned per second,
// single- and multi-threaded, on the three paper systems, tracked
// across revisions through BENCH_headline.json.  The bench also
// asserts that the parallel run reproduces the serial result
// bit-for-bit.  One "planner_perf" JSON row per system and job count
// (bench/json_row.hpp):
//   soc, procs, orders, jobs, wall_ms, orders_per_sec, best_makespan,
//   hw_threads, strategy, iters
// (hw_threads is the recording machine's hardware concurrency —
// multi-job rows only show real scaling when jobs <= hw_threads.
// strategy/iters name the search strategy and its iteration budget so
// trajectories stay comparable across revisions that change the search
// engine; this bench times the `restart` strategy, every order planned
// from scratch: the planner's raw orders/sec floor.)
//
// It also prices the observability layer on the biggest paper system:
// the same multistart body A/B-timed with metrics collection off and
// on (bench::with_metrics, median of interleaved pairs), printed as one
// "metrics_overhead" row:
//   soc, procs, orders, disabled_ms, enabled_ms, overhead_pct
// and gated here: the bench exits non-zero when overhead_pct exceeds
// kMaxOverheadPct, the "metrics collection enabled costs <1%" claim.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>

#include "common/parallel.hpp"
#include "json_row.hpp"
#include "search/driver.hpp"
#include "sim/validate.hpp"
#include "with_metrics.hpp"

namespace {

using namespace nocsched;

/// The metrics layer's enabled-path overhead bar, in percent.
constexpr double kMaxOverheadPct = 1.0;

/// The deterministic pass plus `restarts` seeded tier shuffles: the
/// `restart` search strategy, every order planned from scratch.
search::SearchResult multistart(const core::SystemModel& sys, std::uint64_t restarts,
                                unsigned jobs) {
  search::SearchOptions options;
  options.strategy = search::StrategyKind::kRestart;
  options.iters = restarts;
  options.seed = 0x5EED;
  options.jobs = jobs;
  return search::search_orders(sys, power::PowerBudget::unconstrained(), options);
}

/// Orders tried, the deterministic pass included.
std::uint64_t orders(const search::SearchResult& r) {
  return r.metrics.counter_or("search.evaluations");
}

double run_timed(const core::SystemModel& sys, std::uint64_t restarts, unsigned jobs,
                 search::SearchResult& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = multistart(sys, restarts, jobs);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
  try {
    const core::PlannerParams params = core::PlannerParams::paper();
    // At least two threads even on a single-core host, so the parallel
    // path (and its determinism check) always actually runs.
    const unsigned hw = std::max(2u, hardware_jobs());
    constexpr std::uint64_t kRestarts = 256;
    std::cout << "Planner throughput: " << kRestarts
              << " multistart orders per system, jobs in {1, " << hw << "}\n\n";
    bool identical = true;
    std::ostringstream rows;
    for (const std::string& soc : itc02::builtin_names()) {
      const int procs = soc == "d695" ? 6 : 8;
      const core::SystemModel sys =
          core::SystemModel::paper_system(soc, itc02::ProcessorKind::kLeon, procs, params);
      search::SearchResult warm;
      (void)run_timed(sys, 8, 1, warm);  // warm caches before timing

      search::SearchResult serial;
      const double serial_ms = run_timed(sys, kRestarts, 1, serial);
      sim::validate_or_throw(sys, serial.best);

      search::SearchResult parallel;
      const double parallel_ms = run_timed(sys, kRestarts, hw, parallel);

      identical = identical && serial.best.makespan == parallel.best.makespan &&
                  serial.metrics.counters == parallel.metrics.counters &&
                  serial.best.sessions == parallel.best.sessions;

      for (const auto& [jobs, ms, r] :
           {std::tuple<unsigned, double, const search::SearchResult&>{1, serial_ms, serial},
            {hw, parallel_ms, parallel}}) {
        const double orders_per_sec = 1000.0 * static_cast<double>(orders(r)) / ms;
        std::cout << soc << " " << procs << " procs, jobs " << jobs << ": " << orders(r)
                  << " orders in " << ms << " ms = " << orders_per_sec
                  << " orders/sec, best " << r.best.makespan << "\n";
        rows << bench::JsonRow("planner_perf")
                    .add("soc", soc)
                    .add("procs", procs)
                    .add("orders", orders(r))
                    .add("jobs", jobs)
                    .add("wall_ms", ms)
                    .add("orders_per_sec", orders_per_sec)
                    .add("best_makespan", r.best.makespan)
                    .add("hw_threads", hardware_jobs())
                    .add("strategy", "restart")
                    .add("iters", kRestarts);
      }
    }
    bool overhead_ok = true;
    {
      const core::SystemModel big =
          core::SystemModel::paper_system("p93791", itc02::ProcessorKind::kLeon, 8, params);
      constexpr std::uint64_t kOrders = 64;
      search::SearchResult scratch;
      // Timed serially — the per-run flush cost being priced is the
      // same at any job count, without the thread pool's scheduling
      // jitter — and in many short pairs: a sub-1% verdict needs the
      // pair count, not the body length, and a ~9ms window also gives
      // the OS fewer chances to preempt mid-sample.
      const bench::MetricsOverhead moh = bench::with_metrics(
          [&] { scratch = multistart(big, kOrders, 1); },
          101);
      std::cout << "metrics overhead, p93791 8 procs, " << orders(scratch)
                << " orders: off " << moh.disabled_ms << " ms, on " << moh.enabled_ms
                << " ms, " << moh.overhead_pct << "% (max " << kMaxOverheadPct << "%)\n";
      rows << bench::JsonRow("metrics_overhead")
                  .add("soc", "p93791")
                  .add("procs", 8)
                  .add("orders", orders(scratch))
                  .add("disabled_ms", moh.disabled_ms)
                  .add("enabled_ms", moh.enabled_ms)
                  .add("overhead_pct", moh.overhead_pct);
      overhead_ok = moh.overhead_pct <= kMaxOverheadPct;
    }

    std::cout << "\n(orders/sec = full planner runs per second)\n\n" << rows.str();
    if (!identical) {
      std::cerr << "bench failed: parallel multistart diverged from the serial result\n";
      return 1;
    }
    if (!overhead_ok) {
      std::cerr << "bench failed: metrics overhead above " << kMaxOverheadPct << "%\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
