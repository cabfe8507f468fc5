#include "fingerprint.hpp"

#include <cstring>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/error.hpp"
#include "common/strings.hpp"
#include "report/json_util.hpp"

namespace planbench {

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000U, nullptr) < 0x80000004U) return "unknown";
  char brand[49] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    unsigned regs[4] = {};
    __get_cpuid(0x80000002U + leaf, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * leaf, regs, sizeof regs);
  }
  const std::string model(nocsched::trim(brand));
  return model.empty() ? "unknown" : model;
#else
  return "unknown";
#endif
}

}  // namespace

Fingerprint fingerprint(std::string rev, std::string src_sha256) {
  Fingerprint f;
  f.cpu_model = cpu_model();
  f.nproc = std::thread::hardware_concurrency();
  f.compiler = PLANBENCH_COMPILER;
  f.build_type = PLANBENCH_BUILD_TYPE;
  f.rev = std::move(rev);
  f.src_sha256 = std::move(src_sha256);
  return f;
}

std::string to_json(const Fingerprint& f) {
  using nocsched::report::json_string;
  return nocsched::cat("{\"cpu\": ", json_string(f.cpu_model), ", \"nproc\": ", f.nproc,
                       ", \"compiler\": ", json_string(f.compiler),
                       ", \"build_type\": ", json_string(f.build_type),
                       ", \"rev\": ", json_string(f.rev),
                       ", \"src_sha256\": ", json_string(f.src_sha256), "}");
}

}  // namespace planbench
