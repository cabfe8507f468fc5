#pragma once
// Seeded JSONL request streams: the benchmark's three workloads.
//
// A workload is generated from its name and a seed and is nothing but
// wire text — the server sees only the JSONL lines.  Alongside the text
// the generator keeps what the checks need to judge each answer (the
// id, the analytic makespan lower bound of the request's system, and
// whether a cross-check is due).  WORKLOADS.md says why each workload
// exists and which layer metrics it should move.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/request.hpp"

namespace planbench {

namespace engine = nocsched::engine;

struct Expectation {
  std::string id;
  std::uint64_t lower_bound = 0;  ///< core::makespan_lower_bounds(sys).combined()
  bool simulate = false;          ///< the answer must carry cross_check_ok: true
  bool faulted = false;
};

struct Workload {
  std::string name;
  std::string text;  ///< the JSONL stream, one request per line, '\n'-terminated
  std::vector<Expectation> expect;          ///< one per line, in line order
  std::vector<engine::SystemSpec> systems;  ///< distinct systems, first-touch order
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed);

/// The stream's lines, without their '\n'.
[[nodiscard]] std::vector<std::string_view> split_lines(std::string_view text);

}  // namespace planbench
