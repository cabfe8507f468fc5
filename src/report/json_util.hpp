#pragma once
// The one JSON writer: every JSON document the CLI prints, every
// plan-server answer and every bench row goes through JsonWriter, so
// commas, indents and number formats are decided here once.
//
// kLine writes one object on one line, members joined by ", ".
// kDocument is the report files' layout: one member per line at a
// two-space indent, arrays of objects one element per line (an empty
// one is "[\n  ]"), and a newline after the closing brace:
//   {
//     "soc": "d695_leon",
//     "sessions": [
//       {"module": 1, "dead": [11, 12]}
//     ]
//   }
// A member's value is a string, an integer (exact), a double
// (json_number), a bool, a vector of these (a one-line list), or an
// optional one (null when empty).

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace nocsched::report {

/// Minimal JSON string escaping (quotes, backslash, control chars).
[[nodiscard]] std::string json_string(const std::string& s);

/// Shortest round-trippable decimal for a double (15 significant
/// digits), matching the stable output the determinism tests diff.
[[nodiscard]] std::string json_number(double v);

/// `v`, or empty (JSON null) when it is not finite: an unconstrained
/// power limit is infinite.
[[nodiscard]] inline std::optional<double> finite_or_null(double v) {
  return std::isfinite(v) ? std::optional<double>(v) : std::nullopt;
}

class JsonWriter {
 public:
  enum class Layout { kLine, kDocument };

  /// Opens an object; finish() closes it and hands over the text.
  explicit JsonWriter(Layout layout = Layout::kLine);
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  template <typename Value>
  JsonWriter& add(std::string_view key, const Value& value) {
    begin_member(key);
    put(*out_, value);
    return *this;
  }

  /// A member whose value is already JSON text (a fixed-point wall
  /// time).
  JsonWriter& add_raw(std::string_view key, std::string_view json);

  /// A member holding a one-line object written by `fill(JsonWriter&)`.
  template <typename Fill>
  JsonWriter& object(std::string_view key, Fill&& fill) {
    begin_member(key);
    nest(Layout::kLine, 0, fill);
    return *this;
  }

  /// Document layout only: a member holding a document-layout object,
  /// one level deeper, written by `fill(JsonWriter&)`.
  template <typename Fill>
  JsonWriter& block(std::string_view key, Fill&& fill) {
    begin_member(key);
    nest(Layout::kDocument, depth_ + 1, fill);
    return *this;
  }

  /// Document layout only: an array with one one-line object per line,
  /// `fill(JsonWriter&, const Item&)` writing the one for each item.
  template <typename Items, typename Fill>
  JsonWriter& rows(std::string_view key, const Items& items, Fill&& fill) {
    begin_member(key);
    *out_ += '[';
    bool first = true;
    for (const auto& item : items) {
      indent(first ? "\n" : ",\n", depth_ + 2);
      first = false;
      nest(Layout::kLine, 0, [&](JsonWriter& row) { fill(row, item); });
    }
    indent("\n", depth_ + 1);
    *out_ += ']';
    return *this;
  }

  /// Closes the object and returns its text; a document ends in a
  /// newline.
  [[nodiscard]] std::string finish();

 private:
  friend std::string json_string(const std::string& s);
  friend std::string json_number(double v);

  JsonWriter(std::string* out, Layout layout, int depth);

  /// Writes an object, opened and closed here, into this writer's text.
  template <typename Fill>
  void nest(Layout layout, int depth, Fill&& fill) {
    JsonWriter inner(out_, layout, depth);
    fill(inner);
    inner.close();
  }

  void begin_member(std::string_view key);
  void indent(std::string_view separator, int depth);
  void close();

  static void put_string(std::string& out, std::string_view s);
  static void put_number(std::string& out, double v);

  template <typename T>
  struct IsOptional : std::false_type {};
  template <typename T>
  struct IsOptional<std::optional<T>> : std::true_type {};

  template <typename Value>
  static void put(std::string& out, const Value& v) {
    if constexpr (IsOptional<Value>::value) {
      if (v) {
        put(out, *v);
      } else {
        out += "null";
      }
    } else if constexpr (std::is_same_v<Value, bool>) {
      out += v ? "true" : "false";
    } else if constexpr (std::is_integral_v<Value>) {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    } else if constexpr (std::is_floating_point_v<Value>) {
      put_number(out, static_cast<double>(v));
    } else if constexpr (std::is_convertible_v<const Value&, std::string_view>) {
      put_string(out, v);
    } else {
      out += '[';
      bool first = true;
      for (const auto& element : v) {
        if (!first) out += ", ";
        first = false;
        put(out, element);
      }
      out += ']';
    }
  }

  std::string own_;
  std::string* out_;
  Layout layout_;
  int depth_;
  bool first_ = true;
};

}  // namespace nocsched::report
