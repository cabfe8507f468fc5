#include "report/json_util.hpp"

#include <cstdio>
#include <utility>

namespace nocsched::report {

std::string json_string(const std::string& s) {
  std::string out;
  JsonWriter::put_string(out, s);
  return out;
}

std::string json_number(double v) {
  std::string out;
  JsonWriter::put_number(out, v);
  return out;
}

JsonWriter::JsonWriter(Layout layout) : JsonWriter(&own_, layout, 0) {}

JsonWriter::JsonWriter(std::string* out, Layout layout, int depth)
    : out_(out), layout_(layout), depth_(depth) {
  *out_ += '{';
}

JsonWriter& JsonWriter::add_raw(std::string_view key, std::string_view json) {
  begin_member(key);
  *out_ += json;
  return *this;
}

std::string JsonWriter::finish() {
  close();
  if (layout_ == Layout::kDocument) own_ += '\n';
  return std::move(own_);
}

void JsonWriter::begin_member(std::string_view key) {
  if (layout_ == Layout::kDocument) {
    indent(first_ ? "\n" : ",\n", depth_ + 1);
  } else if (!first_) {
    *out_ += ", ";
  }
  first_ = false;
  put_string(*out_, key);
  *out_ += ": ";
}

void JsonWriter::indent(std::string_view separator, int depth) {
  *out_ += separator;
  out_->append(static_cast<std::size_t>(2 * depth), ' ');
}

void JsonWriter::close() {
  if (layout_ == Layout::kDocument) indent("\n", depth_);
  *out_ += '}';
}

void JsonWriter::put_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void JsonWriter::put_number(std::string& out, double v) {
  // "%.15g" is what an ostream prints at setprecision(15).
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.15g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace nocsched::report
