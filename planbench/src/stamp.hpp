#pragma once
// Stream wrappers that timestamp line boundaries on the plan server's
// wire, without touching the server.
//
//   InStampBuf   wraps the input: it hands the reader at most one line
//                per refill, so the reader comes back at every line
//                boundary, and stamps a line's admission when its first
//                byte is handed over.  A source that delivers partial
//                lines (short reads) is fine: a line is stamped once, on
//                its first byte.
//   OutStampBuf  wraps the output: unbuffered, it sees every write and
//                stamps a line when its '\n' is written, however the
//                writer splits its writes.
//   CyclicSource an offline request stream: the workload's JSONL text,
//                repeated, closed (EOF) at the first line boundary once
//                `deadline` has passed and at least one full pass is out.

#include <chrono>
#include <cstddef>
#include <functional>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace planbench {

using Clock = std::chrono::steady_clock;
using Stamp = Clock::time_point;

[[nodiscard]] inline double ms_between(Stamp from, Stamp to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

class InStampBuf : public std::streambuf {
 public:
  /// Called once per line, in line order, with its admission stamp.
  using AdmitSink = std::function<void(Stamp admitted)>;
  InStampBuf(std::streambuf& source, AdmitSink sink);

 protected:
  int_type underflow() override;

 private:
  std::streambuf& source_;
  AdmitSink sink_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  ///< first byte of buf_ not yet handed to the reader
  std::size_t end_ = 0;  ///< one past the last byte read from source_
  bool at_line_start_ = true;
};

class OutStampBuf : public std::streambuf {
 public:
  /// Called once per completed line (without its '\n') with its stamp.
  using LineSink = std::function<void(std::string&& line, Stamp written)>;
  explicit OutStampBuf(LineSink sink) : sink_(std::move(sink)) {}

  /// Bytes written after the last '\n' (a torn final line).
  [[nodiscard]] const std::string& pending() const { return line_; }

 protected:
  int_type overflow(int_type c) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  LineSink sink_;
  std::string line_;
};

class CyclicSource : public std::streambuf {
 public:
  /// `text` must be non-empty, end with '\n', and outlive the source.
  CyclicSource(std::string_view text, Stamp deadline);

 protected:
  int_type underflow() override;

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  bool one_pass_done_ = false;
  Stamp deadline_;
};

}  // namespace planbench
