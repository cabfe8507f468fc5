#pragma once
// The machine and build a run was measured on, printed with every run:
// a number without a machine is not a claim.

#include <string>

namespace planbench {

struct Fingerprint {
  std::string cpu_model;  ///< from CPUID's brand string; "unknown" off x86
  unsigned nproc = 0;     ///< std::thread::hardware_concurrency()
  std::string compiler;   ///< compiler id and version the benchmark was built with
  std::string build_type;
  std::string rev;         ///< source revision, as given on the command line
  std::string src_sha256;  ///< digest of the built sources, as given on the command line
};

[[nodiscard]] Fingerprint fingerprint(std::string rev, std::string src_sha256);

/// One JSON object.
[[nodiscard]] std::string to_json(const Fingerprint& f);

}  // namespace planbench
