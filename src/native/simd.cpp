#include "native/simd.h"

#include <fstream>
#include <string>

namespace cosparse::native {

const char* to_string(SimdLevel level) {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

namespace {

SimdLevel detect() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

}  // namespace

SimdLevel simd_level() {
  static const SimdLevel level = detect();
  return level;
}

std::string cpu_model_string() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto key_end = line.find(':');
    if (key_end == std::string::npos) continue;
    if (line.compare(0, 10, "model name") != 0) continue;
    std::size_t v = key_end + 1;
    while (v < line.size() && (line[v] == ' ' || line[v] == '\t')) ++v;
    if (v < line.size()) return line.substr(v);
  }
  return "unknown";
}

}  // namespace cosparse::native
