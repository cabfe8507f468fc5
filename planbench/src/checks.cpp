#include "checks.hpp"

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>

namespace planbench {

namespace {

constexpr std::size_t kProblemsKept = 5;

/// Position just past `"key": ` at the top level of a result line.  The
/// leading quote keeps "makespan" from matching "best_makespan".
std::optional<std::size_t> value_at(std::string_view line, std::string_view key) {
  const std::string pattern = "\"" + std::string(key) + "\": ";
  const std::size_t pos = line.find(pattern);
  if (pos == std::string_view::npos) return std::nullopt;
  return pos + pattern.size();
}

std::optional<std::uint64_t> uint_field(std::string_view line, std::string_view key) {
  const auto at = value_at(line, key);
  if (!at) return std::nullopt;
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(line.data() + *at, line.data() + line.size(), v);
  if (ec != std::errc()) return std::nullopt;
  return v;
}

std::optional<bool> bool_field(std::string_view line, std::string_view key) {
  const auto at = value_at(line, key);
  if (!at) return std::nullopt;
  const std::string_view rest = line.substr(*at);
  if (rest.starts_with("true")) return true;
  if (rest.starts_with("false")) return false;
  return std::nullopt;
}

struct ResultFields {
  std::string id;
  bool ok = false;
  std::optional<std::uint64_t> makespan;
  std::optional<bool> cross_check_ok;
};

/// Reads the top-level fields the checks need from one result line;
/// nullopt when the line is not a result object at all.
std::optional<ResultFields> parse_result_line(std::string_view line) {
  if (!line.starts_with("{\"id\": \"")) return std::nullopt;
  ResultFields f;
  const std::size_t start = 8;
  const std::size_t end = line.find('"', start);  // ids the benchmark sends need no escapes
  if (end == std::string_view::npos) return std::nullopt;
  f.id = std::string(line.substr(start, end - start));
  const auto ok = bool_field(line, "ok");
  if (!ok) return std::nullopt;
  f.ok = *ok;
  f.makespan = uint_field(line, "makespan");
  f.cross_check_ok = bool_field(line, "cross_check_ok");
  return f;
}

}  // namespace

Verdict check_answer(std::string_view line, const Expectation& expect) {
  Verdict v;
  const auto f = parse_result_line(line);
  if (!f) {
    v.problem = "not a result object: " + std::string(line.substr(0, 120));
    return v;
  }
  if (f->id != expect.id) {
    v.problem = "answer for '" + f->id + "' where '" + expect.id + "' was due";
    return v;
  }
  if (!f->ok) {
    v.problem = "request " + expect.id + " failed: " + std::string(line.substr(0, 200));
    return v;
  }
  if (!f->makespan) {
    v.problem = "request " + expect.id + ": no makespan";
    return v;
  }
  if (expect.simulate && f->cross_check_ok != std::optional<bool>(true)) {
    v.problem = "request " + expect.id + ": simulate answer without cross_check_ok: true";
    return v;
  }
  // A fault only slows sessions down, so the pristine bound still binds
  // a faulted plan that lost no core; one that dropped cores is exempt.
  const bool nothing_lost = line.find("\"dead\": []") != std::string_view::npos &&
                            line.find("\"untestable\": []") != std::string_view::npos;
  if (!expect.faulted || nothing_lost) {
    if (*f->makespan < expect.lower_bound) {
      v.problem = "request " + expect.id + ": makespan " + std::to_string(*f->makespan) +
                  " below the analytic lower bound " + std::to_string(expect.lower_bound);
      return v;
    }
    if (expect.lower_bound > 0) {
      v.gap_pct = 100.0 * static_cast<double>(*f->makespan - expect.lower_bound) /
                  static_cast<double>(expect.lower_bound);
    }
  }
  v.pass = true;
  return v;
}

void Tally::add(const Verdict& v) {
  if (!v.pass) {
    fail(v.problem);
    return;
  }
  if (v.gap_pct) {
    gap_sum_ += *v.gap_pct;
    ++gaps_;
  }
}

void Tally::fail(std::string problem) {
  ++failed_;
  if (problems_.size() < kProblemsKept) problems_.push_back(std::move(problem));
}

double Tally::mean_gap_pct() const {
  return gaps_ == 0 ? 0.0 : gap_sum_ / static_cast<double>(gaps_);
}

}  // namespace planbench
