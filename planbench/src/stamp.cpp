#include "stamp.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace planbench {

namespace {
constexpr std::size_t kReadChunk = 4096;
}  // namespace

InStampBuf::InStampBuf(std::streambuf& source, AdmitSink sink)
    : source_(source), sink_(std::move(sink)), buf_(kReadChunk) {}

InStampBuf::int_type InStampBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  if (pos_ == end_) {
    pos_ = 0;
    end_ = static_cast<std::size_t>(
        source_.sgetn(buf_.data(), static_cast<std::streamsize>(buf_.size())));
    if (end_ == 0) return traits_type::eof();
  }
  char* const begin = buf_.data() + pos_;
  char* const end = buf_.data() + end_;
  char* const newline = std::find(begin, end, '\n');
  char* const stop = newline == end ? end : newline + 1;
  if (at_line_start_) sink_(Clock::now());
  at_line_start_ = stop[-1] == '\n';
  setg(begin, begin, stop);
  pos_ = static_cast<std::size_t>(stop - buf_.data());
  return traits_type::to_int_type(*begin);
}

OutStampBuf::int_type OutStampBuf::overflow(int_type c) {
  if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
  const char ch = traits_type::to_char_type(c);
  xsputn(&ch, 1);
  return c;
}

std::streamsize OutStampBuf::xsputn(const char* s, std::streamsize n) {
  const char* const end = s + n;
  for (const char* p = s; p < end;) {
    const char* const newline = std::find(p, end, '\n');
    line_.append(p, newline);
    if (newline == end) break;
    sink_(std::move(line_), Clock::now());
    line_.clear();
    p = newline + 1;
  }
  return n;
}

CyclicSource::CyclicSource(std::string_view text, Stamp deadline)
    : text_(text), deadline_(deadline) {
  if (text_.empty() || text_.back() != '\n') {
    throw std::invalid_argument("CyclicSource: text must be non-empty and end with a newline");
  }
}

CyclicSource::int_type CyclicSource::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  if (pos_ == text_.size()) {
    one_pass_done_ = true;
    pos_ = 0;
  }
  if (one_pass_done_ && Clock::now() >= deadline_) return traits_type::eof();
  const std::size_t newline = text_.find('\n', pos_);
  // The get area is read-only in practice: nothing here writes through
  // it (pbackfail keeps its default, which refuses).
  char* const begin = const_cast<char*>(text_.data()) + pos_;
  char* const stop = const_cast<char*>(text_.data()) + newline + 1;
  setg(begin, begin, stop);
  pos_ = newline + 1;
  return traits_type::to_int_type(*begin);
}

}  // namespace planbench
