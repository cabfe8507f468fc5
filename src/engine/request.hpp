#pragma once
// The plan-server's value model: what one planning request asks for.
//
// A PlanRequest is a pure value — everything the Engine needs to
// produce a result is in it, so a result is a pure function of the
// request (bit-identical regardless of request order, cache state, or
// worker count; asserted by tests/engine/).  The SystemSpec part names
// the shared artifacts (parsed SoC, characterized wrappers, priced
// PairTable) and is the ContextCache key; the rest (power budget,
// search effort, faults) is per-request and derived cheaply from the
// cached artifacts.
//
// parse_request reads the JSONL wire form used by `nocsched_cli
// --serve` — one flat-ish object per line, strict grammar, every
// diagnostic prefixed "<source>:<line>: " (the same discipline as
// search::parse_fault_stream).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "itc02/soc.hpp"
#include "search/strategy.hpp"

namespace nocsched::engine {

/// Largest accepted mesh side (columns or rows) for soc_file and rand:
/// systems: range-checked before narrowing to int, and it bounds the
/// router count a request may build.
inline constexpr std::uint64_t kMaxMeshSide = 64;

/// Largest accepted "iters" on the wire: one request's search work is
/// bounded, so a hostile value cannot hold up for long every answer
/// behind it (answers are written in input order).  The CLI's --iters
/// is operator input and stays uncapped.
inline constexpr std::uint64_t kMaxIters = 16384;

/// Names one buildable system: the cacheable, request-independent part
/// of a PlanRequest.  Two requests with equal cache_key()s share one
/// PlanContext (SystemModel + pristine PairTable + search scaffolding).
struct SystemSpec {
  /// Built-in SoC name (d695 | p22810 | p93791) or "rand:<seed>" for a
  /// seeded random SoC (itc02::random_soc); ignored when soc_file is set.
  std::string soc = "d695";
  std::string soc_file;  ///< ITC'02-style .soc file; overrides `soc`
  itc02::ProcessorKind cpu = itc02::ProcessorKind::kLeon;
  int procs = 2;  ///< reused processors appended to the SoC
  /// 0 = smallest square mesh; only soc_file/rand systems take a mesh
  /// (builtin SoCs come with the paper's fixed one).
  int mesh_cols = 0;
  int mesh_rows = 0;
  core::PlannerParams params = core::PlannerParams::paper();

  /// Canonical cache key: every field that changes the built system —
  /// including every PlannerParams scalar, since policy, wrapper width,
  /// and characterized rates are baked into the cached artifacts.
  [[nodiscard]] std::string cache_key() const;
};

/// Raw fault references, resolved against the built system at execution
/// time (router adjacency and module kinds are unknown until then).
struct FaultSpec {
  std::vector<std::string> links;        ///< "FROM:TO" adjacent router pairs
  std::vector<std::uint64_t> routers;    ///< whole routers
  std::vector<std::uint64_t> procs;      ///< processor module ids
  [[nodiscard]] bool empty() const {
    return links.empty() && routers.empty() && procs.empty();
  }
};

struct PlanRequest {
  std::string id;      ///< echoed in the result; parse defaults to "line-<n>"
  std::string origin;  ///< "<source>:<line>" prefixed to execution errors; may be empty
  SystemSpec system;
  std::optional<double> power_pct;  ///< peak power limit in percent of total
  std::optional<search::StrategyKind> strategy;
  std::optional<std::uint64_t> iters;
  std::uint64_t seed = 0x5EED;
  /// Threads for the search inside this one request (0 = hardware
  /// threads).  Defaults to 1: the server gets its parallelism from
  /// running whole requests on its workers, and search results
  /// are bit-identical at any job count, so this only moves wall time.
  /// The CLI's one-shot adapter sets it from --jobs; not on the wire.
  unsigned search_jobs = 1;
  FaultSpec faults;     ///< non-empty: plan the degraded system (replan semantics)
  bool simulate = false;  ///< replay the plan on the DES and cross-check

  /// Search runs when either knob is given (the CLI's --search/--iters
  /// convention); otherwise the deterministic greedy pass is the plan.
  [[nodiscard]] bool searching() const {
    return strategy.has_value() || iters.has_value();
  }
};

/// Parse one JSONL request line.  Accepted keys:
///   "id" (string), "soc" (string), "soc_file" (string),
///   "cpu" ("leon"|"plasma"), "procs" (uint), "wrapper" (uint),
///   "policy" ("longest"|"distance"|"shortest"),
///   "choice" ("greedy"|"earliest"), "mesh" ("CxR"),
///   "power" (number in (0, 100]), "search" ("restart"|"anneal"|"local"),
///   "iters" (uint, at most kMaxIters), "seed" (uint), "simulate" (true|false),
///   "faults" ({"links": [..], "routers": [..], "procs": [..]})
/// Throws nocsched::Error with a "<source>:<line>: " prefix on any
/// violation — unknown or duplicate keys, an unknown SoC, an
/// out-of-range power, malformed JSON.
[[nodiscard]] PlanRequest parse_request(std::string_view text, std::string_view source,
                                        std::size_t line);

}  // namespace nocsched::engine
