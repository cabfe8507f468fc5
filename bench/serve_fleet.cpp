// Plan-as-a-service throughput: sustained plans/sec and per-request
// latency when one long-lived engine serves a fleet of independent
// planning requests (the PR 10 tentpole's serving shape, grown from
// bench/mixed_fleet's heterogeneous-fleet idea).
//
// The workload is thousands of requests over a few dozen distinct
// systems — seeded random SoCs with a hot-key popularity mix (a few
// specs dominate, a long tail reappears occasionally), some requests
// power-limited — so the ContextCache sees the reuse pattern a real
// request stream would produce.  A few power-limited requests land on
// systems whose largest core exceeds the budget; those come back as
// deterministic in-band errors (the serving contract for bad requests)
// and are held to the same byte-identity bar as successes.  Three
// lanes:
//
//   * cold    — a fresh single-worker Engine runs the fleet one
//               request at a time: every distinct spec pays its parse +
//               characterize + PairTable build inline, the way a
//               stateless one-shot process pays it on every plan;
//   * warm    — the SAME engine runs the identical fleet again: all
//               context builds amortized, pure planning remains, and
//               per-request latency quantiles are honest (no queueing);
//   * batch   — a parallel Engine runs the fleet through run_batch for
//               the sustained plans/sec number (builds overlap planning
//               there, which is why the speedup gate lives on the
//               serial lanes).
//
// Below the human report, one "serve" JSON row (bench/json_row.hpp):
//   requests, distinct_specs, jobs (of the serial lanes), cold_ms,
//   warm_ms, warm_speedup, batch_plans_per_sec, warm_p50_us,
//   warm_p99_us
//
// The bench exits non-zero unless (a) the warm serial pass beats the
// cold serial pass (speedup > 1 — the amortization the cache exists
// for), and (b) results are byte-identical across cache state (cold vs
// warm) and execution shape (serial vs parallel batch) — the engine
// determinism contract.  It also drives the JSONL loop end-to-end
// (engine::serve over string streams) and asserts one ok result per
// request line.

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "engine/engine.hpp"
#include "engine/serve.hpp"
#include "json_row.hpp"

namespace {

using namespace nocsched;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t quantile_us(std::vector<double> us, double q) {
  std::sort(us.begin(), us.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(us.size() - 1) + 0.5);
  return static_cast<std::uint64_t>(us[idx]);
}

}  // namespace

int main() {
  try {
    constexpr std::size_t kRequests = 1200;  // the ≥1000-request fleet the SLO names
    constexpr std::size_t kSpecs = 384;
    constexpr std::uint64_t kMixSeed = 0x5E12F;

    // The distinct systems: seeded random SoCs (the property suites'
    // generator) with varying reused-processor counts, so every spec
    // keys a different PlanContext.
    std::vector<engine::SystemSpec> specs;
    specs.reserve(kSpecs);
    for (std::size_t i = 0; i < kSpecs; ++i) {
      engine::SystemSpec spec;
      spec.soc = cat("rand:", 1000 + i);
      spec.procs = static_cast<int>(i % 3) * 2;  // 0 / 2 / 4 reused processors
      specs.push_back(std::move(spec));
    }

    // The fleet: hot-key popularity via min-of-two-uniforms (low spec
    // indices dominate, the tail recurs), every third request
    // power-limited.  Pure function of kMixSeed.
    Rng rng = stream_rng(kMixSeed, 0);
    std::vector<engine::PlanRequest> fleet;
    fleet.reserve(kRequests);
    for (std::size_t k = 0; k < kRequests; ++k) {
      engine::PlanRequest req;
      req.id = cat("r", k);
      req.system = specs[static_cast<std::size_t>(
          std::min(rng.below(kSpecs), rng.below(kSpecs)))];
      if (k % 3 == 0) req.power_pct = 60.0;
      fleet.push_back(std::move(req));
    }

    std::cout << "Plan server fleet: " << kRequests << " JSONL-equivalent requests over "
              << kSpecs << " distinct systems (seed 0x" << std::hex << kMixSeed << std::dec
              << "), hot-key reuse mix, 1/3 power-limited\n\n";

    // Serial lanes: one single-worker engine, request at a time.  The
    // cold pass interleaves context builds with planning exactly where
    // the request mix first touches each spec; the warm pass is all
    // cache hits.
    engine::Engine serial_eng(engine::EngineOptions{/*cache_capacity=*/512, /*jobs=*/1});
    std::vector<engine::PlanResult> cold;
    cold.reserve(kRequests);
    auto t0 = std::chrono::steady_clock::now();
    for (const engine::PlanRequest& req : fleet) cold.push_back(serial_eng.run(req));
    const double cold_ms = ms_since(t0);

    std::vector<engine::PlanResult> warm;
    warm.reserve(kRequests);
    std::vector<double> lat_us;
    lat_us.reserve(kRequests);
    for (const engine::PlanRequest& req : fleet) {
      t0 = std::chrono::steady_clock::now();
      warm.push_back(serial_eng.run(req));
      lat_us.push_back(ms_since(t0) * 1000.0);
    }
    double warm_ms = 0.0;
    for (const double us : lat_us) warm_ms += us / 1000.0;
    const std::uint64_t p50_us = quantile_us(lat_us, 0.50);
    const std::uint64_t p99_us = quantile_us(lat_us, 0.99);

    // Batch lane: a fresh parallel engine, whole fleet on the work
    // queue, for the sustained-throughput number.
    engine::Engine batch_eng(engine::EngineOptions{/*cache_capacity=*/512, /*jobs=*/0});
    t0 = std::chrono::steady_clock::now();
    const std::vector<engine::PlanResult> batched = batch_eng.run_batch(fleet);
    const double batch_ms = ms_since(t0);

    // Byte-identity across cache state and execution shape: a warm hit
    // and a parallel batch must reproduce the cold build's result
    // exactly.
    ensure(cold.size() == kRequests && warm.size() == kRequests && batched.size() == kRequests,
           "serve_fleet: a lane dropped requests");
    std::size_t ok_count = 0;
    for (std::size_t k = 0; k < kRequests; ++k) {
      if (cold[k].ok) ++ok_count;
      const std::string reference = engine::result_json(cold[k]);
      ensure(reference == engine::result_json(warm[k]),
             "serve_fleet: warm result for ", fleet[k].id, " differs from cold");
      ensure(reference == engine::result_json(batched[k]),
             "serve_fleet: batched result for ", fleet[k].id, " differs from cold");
    }
    ensure(ok_count > kRequests / 2, "serve_fleet: only ", ok_count, " of ", kRequests,
           " requests planned — the fleet mix is broken, not merely power-tight");

    // End-to-end JSONL loop: the same fleet through engine::serve, one
    // wire line per request, every result ok.
    std::ostringstream wire;
    for (const engine::PlanRequest& req : fleet) {
      wire << "{\"id\": \"" << req.id << "\", \"soc\": \"" << req.system.soc
           << "\", \"procs\": " << req.system.procs;
      if (req.power_pct) wire << ", \"power\": 60";
      wire << "}\n";
    }
    std::istringstream in(wire.str());
    std::ostringstream out;
    engine::ServeOptions sopts;
    const int rc = engine::serve(in, out, sopts);
    ensure(rc == 0, "serve_fleet: engine::serve returned ", rc);
    std::size_t total_lines = 0;
    std::size_t ok_lines = 0;
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) {
      ++total_lines;
      if (line.find("\"ok\": true") != std::string::npos) ++ok_lines;
    }
    ensure(total_lines == kRequests, "serve_fleet: serve emitted ", total_lines,
           " results for ", kRequests, " requests");
    ensure(ok_lines == ok_count, "serve_fleet: serve reported ", ok_lines,
           " ok results but the engine lanes reported ", ok_count);

    const double speedup = cold_ms / warm_ms;
    const double plans_per_sec = 1000.0 * static_cast<double>(kRequests) / batch_ms;
    const engine::ContextCache::Stats stats = serial_eng.cache().stats();

    std::cout << std::fixed << std::setprecision(1)                               //
              << "cold serial (context builds inline):  " << cold_ms << " ms\n"   //
              << "warm serial (all contexts cached):    " << warm_ms << " ms\n"
              << "cold/warm speedup:                    " << std::setprecision(2) << speedup
              << "x\n"
              << "sustained (parallel batch):           " << std::setprecision(0)
              << plans_per_sec << " plans/sec (" << std::setprecision(1) << batch_ms
              << " ms for the fleet)\n"
              << "warm serial latency:                  p50 " << p50_us << " us, p99 "
              << p99_us << " us\n"
              << "cache: " << stats.hits << " hits, " << stats.misses << " misses, "
              << stats.evictions << " evictions\n"
              << "results: " << ok_count << " ok, " << (kRequests - ok_count)
              << " deterministic in-band errors (power-infeasible mixes)\n"
              << "JSONL loop: " << ok_lines << "/" << total_lines << " ok results\n\n";

    std::cout << bench::JsonRow("serve")
                     .add("requests", kRequests)
                     .add("distinct_specs", kSpecs)
                     .add("jobs", 1)
                     .add("cold_ms", cold_ms)
                     .add("warm_ms", warm_ms)
                     .add("warm_speedup", speedup)
                     .add("batch_plans_per_sec", plans_per_sec)
                     .add("warm_p50_us", p50_us)
                     .add("warm_p99_us", p99_us);

    if (speedup <= 1.0) {
      std::cerr << "serve_fleet: warm-cache pass did not beat the cold pass (speedup "
                << speedup << "x) — context caching is not paying for itself\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "bench failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
