#pragma once
// A bench's machine-readable row: one section-tagged JSON object on a
// line of its own,
//
//   {"section": "des_replay", "soc": "d695", "events": 12716, ...}
//
// scripts/bench_headline.sh gathers the lines that start with
// {"section" from the gated benches into BENCH_headline.json, one
// array per section, so each row's layout is written once, in the
// bench that measures it.  Strings and doubles go through the report
// layer's JSON helpers; integers print exactly.

#include <ostream>
#include <string>
#include <type_traits>

#include "report/json_util.hpp"

namespace nocsched::bench {

class JsonRow {
 public:
  explicit JsonRow(const std::string& section)
      : text_("{\"section\": " + report::json_string(section)) {}

  JsonRow& add(const std::string& key, const std::string& value) {
    return field(key, report::json_string(value));
  }
  template <typename Number, typename = std::enable_if_t<std::is_arithmetic_v<Number>>>
  JsonRow& add(const std::string& key, Number value) {
    if constexpr (std::is_integral_v<Number>) {
      return field(key, std::to_string(value));
    } else {
      return field(key, report::json_number(value));
    }
  }

  friend std::ostream& operator<<(std::ostream& os, const JsonRow& row) {
    return os << row.text_ << "}\n";
  }

 private:
  JsonRow& field(const std::string& key, const std::string& json) {
    text_ += ", " + report::json_string(key) + ": " + json;
    return *this;
  }

  std::string text_;
};

}  // namespace nocsched::bench
