#include "engine/request.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "itc02/builtin.hpp"
#include "report/json_util.hpp"

namespace nocsched::engine {

namespace {

void append_rates(std::string& key, const core::CpuRates& r) {
  key += report::json_number(r.per_stimulus_flit);
  key += ',';
  key += report::json_number(r.per_response_flit);
  key += ',';
  key += report::json_number(r.per_pattern_overhead);
  key += ',';
  key += report::json_number(r.setup_cycles);
  key += ',';
  key += report::json_number(r.active_power);
  key += ',';
  key += cat(r.program_bytes, ',', r.memory_bytes);
}

}  // namespace

std::string SystemSpec::cache_key() const {
  // The source spec first (a file path may contain any character, so it
  // goes last in its segment, length-prefixed by the '|' structure
  // being unambiguous: every other field is enum/number-valued).
  std::string key = soc_file.empty() ? cat("soc=", soc) : cat("file=", soc_file);
  key += cat("|cpu=", to_string(cpu), "|procs=", procs, "|mesh=", mesh_cols, "x", mesh_rows);
  key += cat("|wrap=", params.wrapper_chains,
             "|prio=", static_cast<int>(params.priority),
             "|choice=", static_cast<int>(params.resource_choice),
             "|pair=", static_cast<int>(params.pair_order),
             "|chan=", static_cast<int>(params.channel_model),
             "|pfirst=", params.processors_first ? 1 : 0,
             "|cross=", params.allow_cross_pairing ? 1 : 0);
  key += cat("|noc=", params.noc.flit_width_bits, ",", params.noc.routing_latency, ",",
             params.noc.flow_control_latency, ",", report::json_number(params.noc.hop_power));
  key += "|leon=";
  append_rates(key, params.leon);
  key += "|plasma=";
  append_rates(key, params.plasma);
  return key;
}

namespace {

/// Scanner over one JSONL request line — the same strict grammar and
/// "<source>:<line>: " diagnostics as the fault-stream parser: flat
/// objects of known keys, unsigned integers and decimal numbers,
/// escape-free strings, true/false literals.
class LineScanner {
 public:
  LineScanner(std::string_view text, std::string_view source, std::size_t line)
      : text_(text), source_(source), line_(line) {}

  template <typename... Parts>
  [[noreturn]] void die(Parts&&... parts) const {
    fail(source_, ":", line_, ": ", std::forward<Parts>(parts)...);
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) ++pos_;
  }

  [[nodiscard]] bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c, std::string_view where) {
    if (!eat(c)) die("expected '", c, "' ", where);
  }

  [[nodiscard]] std::string_view parse_string(std::string_view what) {
    expect('"', cat("to open ", what));
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

  /// Non-negative decimal number: digits with an optional ".digits"
  /// fraction (no sign, no exponent — nothing in a request needs them).
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

  void expect_end() {
    skip_ws();
    if (pos_ != text_.size()) {
      die("trailing content '", text_.substr(pos_), "' after the request object");
    }
  }

 private:
  std::string_view text_;
  std::string_view source_;
  std::size_t line_;
  std::size_t pos_ = 0;
};

/// "d695" | "p22810" | "p93791" | "rand:<seed>".
void check_soc_name(LineScanner& sc, std::string_view name) {
  for (const std::string& builtin : itc02::builtin_names()) {
    if (name == builtin) return;
  }
  if (starts_with(name, "rand:")) {
    const std::string_view seed = name.substr(5);
    const bool digits =
        !seed.empty() && std::all_of(seed.begin(), seed.end(),
                                     [](char c) { return c >= '0' && c <= '9'; });
    if (digits) return;
    sc.die("bad \"soc\" random seed in '", name, "' (expected rand:<seed>)");
  }
  sc.die("unknown \"soc\" '", name, "' (expected d695|p22810|p93791 or rand:<seed>)");
}

/// {"links": [...], "routers": [...], "procs": [...]} — the one nested
/// object the grammar admits.
void parse_faults(LineScanner& sc, FaultSpec& faults) {
  sc.expect('{', "to open \"faults\"");
  if (sc.eat('}')) return;
  do {
    const std::string_view key = sc.parse_string("a faults key");
    sc.expect(':', cat("after key \"", key, "\""));
    if (key == "links") {
      sc.expect('[', "to open \"links\"");
      if (!sc.eat(']')) {
        do {
          faults.links.emplace_back(sc.parse_string("a link"));
        } while (sc.eat(','));
        sc.expect(']', "to close \"links\"");
      }
    } else if (key == "routers") {
      sc.expect('[', "to open \"routers\"");
      if (!sc.eat(']')) {
        do {
          faults.routers.push_back(sc.parse_uint("a router id"));
        } while (sc.eat(','));
        sc.expect(']', "to close \"routers\"");
      }
    } else if (key == "procs") {
      sc.expect('[', "to open \"procs\"");
      if (!sc.eat(']')) {
        do {
          faults.procs.push_back(sc.parse_uint("a processor module id"));
        } while (sc.eat(','));
        sc.expect(']', "to close \"procs\"");
      }
    } else {
      sc.die("unknown faults key \"", key, "\" (expected links|routers|procs)");
    }
  } while (sc.eat(','));
  sc.expect('}', "to close \"faults\"");
}

}  // namespace

PlanRequest parse_request(std::string_view text, std::string_view source, std::size_t line) {
  LineScanner sc(text, source, line);
  PlanRequest req;
  req.id = cat("line-", line);
  req.origin = cat(source, ":", line);
  std::vector<std::string> seen;
  auto once = [&](std::string_view key) {
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      sc.die("duplicate \"", key, "\" key");
    }
    seen.emplace_back(key);
  };
  sc.expect('{', "to open the request object");
  if (!sc.eat('}')) {
    do {
      const std::string key(sc.parse_string("a key"));
      sc.expect(':', cat("after key \"", key, "\""));
      once(key);
      if (key == "id") {
        req.id = std::string(sc.parse_string("\"id\""));
      } else if (key == "soc") {
        const std::string_view name = sc.parse_string("\"soc\"");
        check_soc_name(sc, name);
        req.system.soc = std::string(name);
      } else if (key == "soc_file") {
        const std::string_view path = sc.parse_string("\"soc_file\"");
        if (path.empty()) sc.die("\"soc_file\" must not be empty");
        req.system.soc_file = std::string(path);
      } else if (key == "cpu") {
        const std::string_view cpu = sc.parse_string("\"cpu\"");
        if (cpu == "leon") {
          req.system.cpu = itc02::ProcessorKind::kLeon;
        } else if (cpu == "plasma") {
          req.system.cpu = itc02::ProcessorKind::kPlasma;
        } else {
          sc.die("unknown \"cpu\" '", cpu, "' (expected leon|plasma)");
        }
      } else if (key == "procs") {
        const std::uint64_t procs = sc.parse_uint("\"procs\"");
        if (procs > 64) sc.die("\"procs\" ", procs, " is out of range (at most 64)");
        req.system.procs = static_cast<int>(procs);
      } else if (key == "wrapper") {
        const std::uint64_t w = sc.parse_uint("\"wrapper\"");
        if (w == 0 || w > 1024) sc.die("\"wrapper\" must be in [1, 1024], got ", w);
        req.system.params.wrapper_chains = static_cast<std::uint32_t>(w);
      } else if (key == "policy") {
        const std::string_view p = sc.parse_string("\"policy\"");
        if (p == "longest") {
          req.system.params.priority = core::PriorityPolicy::kLongestTestFirst;
        } else if (p == "distance") {
          req.system.params.priority = core::PriorityPolicy::kDistanceFirst;
        } else if (p == "shortest") {
          req.system.params.priority = core::PriorityPolicy::kShortestTestFirst;
        } else {
          sc.die("unknown \"policy\" '", p, "' (expected longest|distance|shortest)");
        }
      } else if (key == "choice") {
        const std::string_view c = sc.parse_string("\"choice\"");
        if (c == "greedy") {
          req.system.params.resource_choice = core::ResourceChoice::kFirstAvailable;
        } else if (c == "earliest") {
          req.system.params.resource_choice = core::ResourceChoice::kEarliestCompletion;
        } else {
          sc.die("unknown \"choice\" '", c, "' (expected greedy|earliest)");
        }
      } else if (key == "mesh") {
        const std::string_view mesh = sc.parse_string("\"mesh\"");
        const auto parts = split(mesh, 'x');
        if (parts.size() != 2 || parts[0].empty() || parts[1].empty()) {
          sc.die("\"mesh\" expects CxR, e.g. 4x4, got '", mesh, "'");
        }
        const std::uint64_t cols = parse_u64(parts[0], "\"mesh\" cols");
        const std::uint64_t rows = parse_u64(parts[1], "\"mesh\" rows");
        if (cols == 0 || rows == 0) {
          sc.die("\"mesh\" dimensions must be positive, got '", mesh, "'");
        }
        if (cols > kMaxMeshSide || rows > kMaxMeshSide) {
          sc.die("\"mesh\" '", mesh, "' is out of range (at most ", kMaxMeshSide,
                 " per side)");
        }
        req.system.mesh_cols = static_cast<int>(cols);
        req.system.mesh_rows = static_cast<int>(rows);
      } else if (key == "power") {
        const double pct = sc.parse_number("\"power\"");
        if (!(pct > 0.0 && pct <= 100.0)) {
          sc.die("\"power\" must be in (0, 100], got ", pct);
        }
        req.power_pct = pct;
      } else if (key == "search") {
        const std::string_view s = sc.parse_string("\"search\"");
        if (s == "restart") {
          req.strategy = search::StrategyKind::kRestart;
        } else if (s == "anneal") {
          req.strategy = search::StrategyKind::kAnneal;
        } else if (s == "local") {
          req.strategy = search::StrategyKind::kLocal;
        } else {
          sc.die("unknown \"search\" strategy '", s, "' (expected restart|anneal|local)");
        }
      } else if (key == "iters") {
        const std::uint64_t iters = sc.parse_uint("\"iters\"");
        if (iters > kMaxIters) {
          sc.die("\"iters\" ", iters, " is out of range (at most ", kMaxIters, ")");
        }
        req.iters = iters;
      } else if (key == "seed") {
        req.seed = sc.parse_uint("\"seed\"");
      } else if (key == "simulate") {
        req.simulate = sc.parse_bool("\"simulate\"");
      } else if (key == "faults") {
        parse_faults(sc, req.faults);
      } else {
        sc.die("unknown key \"", key,
               "\" (expected id|soc|soc_file|cpu|procs|wrapper|policy|choice|mesh|"
               "power|search|iters|seed|simulate|faults)");
      }
    } while (sc.eat(','));
    sc.expect('}', "to close the request object");
  }
  sc.expect_end();
  if (req.system.mesh_cols > 0 && req.system.soc_file.empty() &&
      !starts_with(req.system.soc, "rand:")) {
    // build_system ignores the mesh of a builtin SoC, so accepting it
    // would only split the context cache key.
    sc.die("\"mesh\" applies only to soc_file and rand: systems, not the builtin SoC '",
           req.system.soc, "'");
  }
  if (req.simulate && !req.faults.empty()) {
    sc.die("\"simulate\" cannot be combined with \"faults\" (fault requests already "
           "classify the degraded plan)");
  }
  return req;
}

}  // namespace nocsched::engine
