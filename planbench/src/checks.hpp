#pragma once
// Output checks: every answer is judged against what its request
// implies.
//
// An answer passes when it is an ok object for the expected id (so
// results are one per request, in input order), its makespan is at
// least the system's analytic lower bound (for a faulted request, only
// when no core was lost: a plan that drops dead or untestable cores
// may beat the pristine bound), and a simulate request's cross-check
// passed.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.hpp"

namespace planbench {

struct Verdict {
  bool pass = false;
  std::string problem;            ///< why, when !pass
  std::optional<double> gap_pct;  ///< (makespan - bound) / bound, pristine ok answers
};

[[nodiscard]] Verdict check_answer(std::string_view line, const Expectation& expect);

/// Tallies verdicts over a stream: attempted requests, failed ones, the
/// mean lower-bound gap, and the first few problems for the log.
class Tally {
 public:
  void add(const Verdict& v);
  /// A request with no answer, or an answer that breaks a stream-level
  /// check (e.g. it differs from the same request's answer elsewhere).
  void fail(std::string problem);
  void attempt(std::size_t n) { attempted_ += n; }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] double mean_gap_pct() const;
  [[nodiscard]] std::size_t gap_samples() const { return gaps_; }
  [[nodiscard]] const std::vector<std::string>& problems() const { return problems_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  double gap_sum_ = 0;
  std::size_t gaps_ = 0;
  std::vector<std::string> problems_;  ///< the first few only
};

}  // namespace planbench
