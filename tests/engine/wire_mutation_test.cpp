// Seeded mutation test over both JSONL wire parsers: plan requests
// (engine::parse_request) and fault-stream events
// (search::parse_fault_stream), which share one LineScanner
// (common/line_scanner.hpp).
//
// The corpus is the accepted and rejected lines of request_parse_test
// and fault_stream_test.  Each case applies one to three mutations to
// a corpus line (byte flips, truncation, duplication of a span,
// insertion of a JSON-significant or arbitrary byte) and feeds the
// result to the parser.  The invariant: the input parses, or the parser
// throws nocsched::Error whose message starts "<source>:<line>: ".  Any
// other exception, or an unprefixed message, fails the test.  The seed
// and case count are constants, so a failure reproduces exactly; under
// the sanitizer build the same cases also check for memory errors.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/system_model.hpp"
#include "engine/request.hpp"
#include "search/fault_stream.hpp"

namespace nocsched {
namespace {

constexpr std::uint64_t kSeed = 0x5CA77E4;
constexpr int kCasesPerParser = 60000;

const std::vector<std::string> kRequestCorpus = {
    R"({})",
    R"({"id": "job-1", "soc": "p22810", "cpu": "plasma", "procs": 6, )"
    R"("wrapper": 8, "policy": "distance", "choice": "earliest", )"
    R"("power": 62.5, "search": "anneal", "iters": 40, "seed": 99})",
    R"({"soc_file": "my.soc", "mesh": "4x5", )"
    R"("faults": {"links": ["0:1", "3:4"], "routers": [2], "procs": [11, 12]}})",
    R"({"soc": "rand:42"})",
    R"({"soc": "rand:7", "mesh": "64x2"})",
    R"({"search": "restart", "iters": 16384})",
    R"(  { "procs" :4 ,"power": 50 }  )",
    R"({"power": 120.5})",
    R"({"procs": 2, "procs": 3})",
    R"({"soc":"p93791","search":"anneal","iters":100000000000})",
    R"({"soc":"rand:7","mesh":"4294967300x2"})",
    R"({"simulate": true, "faults": {"procs": [11]}})",
    R"({"faults":{"procs":[11],"procs":[12]}})",
    R"({"id": "x"} trailing)",
    R"({"id: 1})",
};

const std::vector<std::string> kEventCorpus = {
    R"({"cycle": 100, "links": ["0:1"]})",
    R"(  {"cycle": 2500, "routers": [2], "procs": [11]})",
    R"({"cycle": 10, "links": ["0:9"]})",
    R"({"cycle": 10, "links": ["zero:1"]})",
    R"({"cycle": 10, "procs": [1]})",
    R"({"cycle": 1, "cycle": 2, "links": ["0:1"]})",
    R"({"cycle": 99999999999999999999, "links": ["0:1"]})",
    R"({"cycle": 10, "routers": [5], "routers": [6]})",
    R"({"cycle": 10, "links": ["0:1"]} trailing)",
};

/// Bytes the grammar gives meaning to, so insertions often land on a
/// structural edge rather than inside a string.
constexpr std::string_view kSignificant = "{}[]:,\"0123456789.x -\\\ttrue";

std::string mutate(std::string s, Rng& rng) {
  const std::uint64_t rounds = 1 + rng.below(3);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::size_t at = s.empty() ? 0 : rng.below(s.size() + 1);
    switch (rng.below(4)) {
      case 0:  // byte flip
        if (!s.empty()) s[at % s.size()] ^= static_cast<char>(1u << rng.below(8));
        break;
      case 1:  // truncation
        s.resize(at);
        break;
      case 2: {  // duplicate a span in place
        const std::size_t len = rng.below(s.size() - at + 1);
        s.insert(at, s.substr(at, len));
        break;
      }
      default:  // insertion
        s.insert(at, 1,
                 rng.below(2) == 0 ? kSignificant[rng.below(kSignificant.size())]
                                   : static_cast<char>(rng.below(256)));
    }
  }
  return s;
}

/// "fuzz:<digits>: " prefix.
bool line_prefixed(std::string_view message) {
  if (!starts_with(message, "fuzz:")) return false;
  std::size_t i = 5;
  while (i < message.size() && message[i] >= '0' && message[i] <= '9') ++i;
  return i > 5 && message.substr(i, 2) == ": ";
}

/// Feeds kCasesPerParser mutants of `corpus` to `parse`; every
/// nocsched::Error must satisfy `well_formed(input, message)`.
template <typename Parse, typename WellFormed>
void fuzz(const std::vector<std::string>& corpus, std::uint64_t stream, Parse parse,
          WellFormed well_formed) {
  Rng rng(kSeed ^ stream);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < kCasesPerParser; ++i) {
    const std::string input = mutate(corpus[rng.below(corpus.size())], rng);
    try {
      parse(input);
      ++parsed;
    } catch (const Error& e) {
      ++rejected;
      ASSERT_TRUE(well_formed(input, e.what()))
          << "case " << i << ": diagnostic '" << e.what() << "' for input '" << input << "'";
    } catch (const std::exception& e) {
      FAIL() << "case " << i << ": " << typeid(e).name() << " '" << e.what()
             << "' escaped for input '" << input << "'";
    }
  }
  // Both outcomes occur: the mutations neither always break nor never
  // break the corpus.
  EXPECT_GT(parsed, kCasesPerParser / 1000);
  EXPECT_GT(rejected, kCasesPerParser / 2);
}

TEST(WireMutation, RequestParserAnswersOrDiagnoses) {
  fuzz(
      kRequestCorpus, 1,
      [](const std::string& input) { (void)engine::parse_request(input, "fuzz", 3); },
      [](const std::string&, std::string_view message) {
        return starts_with(message, "fuzz:3: ");
      });
}

TEST(WireMutation, FaultStreamParserAnswersOrDiagnoses) {
  const core::SystemModel sys = core::SystemModel::paper_system(
      "d695", itc02::ProcessorKind::kLeon, 4, core::PlannerParams::paper());
  fuzz(
      kEventCorpus, 2,
      [&](const std::string& input) {
        std::istringstream in(input);
        (void)search::parse_fault_stream(in, sys, "fuzz");
      },
      [](const std::string& input, std::string_view message) {
        // A stream of blank lines gets the one whole-file diagnostic.
        return line_prefixed(message) ||
               (trim(input).empty() && message == "fuzz: fault stream has no events");
      });
}

}  // namespace
}  // namespace nocsched
