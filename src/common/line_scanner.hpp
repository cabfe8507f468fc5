#pragma once
// The JSONL line scanner behind both wire parsers: plan requests
// (engine::parse_request) and fault-stream events
// (search::parse_fault_stream).
//
// The accepted grammar is deliberately small: objects of known keys,
// arrays, unsigned integers, non-negative decimal numbers, escape-free
// strings, and true/false.  Every diagnostic is prefixed
// "<source>:<line>: ", so a malformed line is fixable from the message
// alone.  The scanner reads the structure; each caller resolves its own
// keys and values and words its own diagnostics for them.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace nocsched {

class LineScanner {
 public:
  LineScanner(std::string_view text, std::string_view source, std::size_t line)
      : text_(text), source_(source), line_(line) {}

  /// Throws nocsched::Error: "<source>:<line>: " + parts.
  template <typename... Parts>
  [[noreturn]] void die(const Parts&... parts) const {
    fail(source_, ":", line_, ": ", parts...);
  }

  /// Consumes `c` (after blanks) when it is next.
  [[nodiscard]] bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::string_view parse_string(std::string_view what) {
    if (!eat('"')) die("expected '\"' to open ", what);
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') die("escape sequences are not supported in ", what);
      ++pos_;
    }
    if (pos_ == text_.size()) die("unterminated string in ", what);
    return text_.substr(begin, pos_++ - begin);
  }

  [[nodiscard]] std::uint64_t parse_uint(std::string_view what) {
    skip_ws();
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ == begin) {
      die("expected an unsigned integer for ", what, ", got '",
          text_.substr(begin, std::min<std::size_t>(text_.size() - begin, 12)), "'");
    }
    std::uint64_t v = 0;
    for (std::size_t i = begin; i < pos_; ++i) {
      const std::uint64_t digit = static_cast<std::uint64_t>(text_[i] - '0');
      if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
        die(what, " value '", text_.substr(begin, pos_ - begin), "' is out of range");
      }
      v = v * 10 + digit;
    }
    return v;
  }

  /// Non-negative decimal: digits with an optional ".digits" fraction
  /// (no sign, no exponent: nothing on the wire needs them).
  [[nodiscard]] double parse_number(std::string_view what) {
    const std::uint64_t whole = parse_uint(what);
    double v = static_cast<double>(whole);
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      const std::size_t begin = pos_;
      double scale = 1.0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        scale /= 10.0;
        v += static_cast<double>(text_[pos_] - '0') * scale;
        ++pos_;
      }
      if (pos_ == begin) die("expected digits after '.' in ", what);
    }
    return v;
  }

  [[nodiscard]] bool parse_bool(std::string_view what) {
    skip_ws();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    die("expected true or false for ", what);
  }

  /// `{"key": value, ...}`.  Calls on_member(key) with the scanner just
  /// past each key's ':'; on_member parses the value.  `name` ("the
  /// request object") completes the open/close diagnostics, `key_what`
  /// ("a key") names a key in them.  A key seen twice in one object
  /// dies with `duplicate "<key>" key`.
  template <typename OnMember>
  void object(std::string_view name, std::string_view key_what, OnMember&& on_member) {
    if (!eat('{')) die("expected '{' to open ", name);
    if (eat('}')) return;
    std::vector<std::string_view> seen;
    do {
      const std::string_view key = parse_string(key_what);
      if (!eat(':')) die("expected ':' after key \"", key, "\"");
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
        die("duplicate \"", key, "\" key");
      }
      seen.push_back(key);
      on_member(key);
    } while (eat(','));
    if (!eat('}')) die("expected '}' to close ", name);
  }

  /// `[element, ...]`: calls on_element() once per element, which
  /// parses it.  `name` ("\"links\"") completes the diagnostics.
  template <typename OnElement>
  void array(std::string_view name, OnElement&& on_element) {
    if (!eat('[')) die("expected '[' to open ", name);
    if (eat(']')) return;
    do {
      on_element();
    } while (eat(','));
    if (!eat(']')) die("expected ']' to close ", name);
  }

  /// Only blanks may follow the top-level object, `name`.
  void expect_end(std::string_view name) {
    skip_ws();
    if (pos_ != text_.size()) die("trailing content '", text_.substr(pos_), "' after ", name);
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) ++pos_;
  }

  std::string_view text_;
  std::string_view source_;
  std::size_t line_;
  std::size_t pos_ = 0;
};

}  // namespace nocsched
