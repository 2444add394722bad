// Host-capability provenance stamps for native and benchmark reports.
//
// The native kernels are the portable templated loops only; these report
// what the host CPU offers so a recorded measurement names its machine.
#pragma once

#include <cstdint>
#include <string>

namespace cosparse::native {

enum class SimdLevel : std::uint8_t {
  kScalar,  ///< no AVX2 on this CPU
  kAvx2,    ///< the CPU reports AVX2
};

[[nodiscard]] const char* to_string(SimdLevel level);

/// The widest SIMD level the host CPU reports (CPUID), detected once and
/// cached. A stamp only: no kernel dispatches on it.
[[nodiscard]] SimdLevel simd_level();

/// Human-readable CPU model ("model name" from /proc/cpuinfo, or "unknown")
/// for the honest-machine stamp in bench report "host" sections.
[[nodiscard]] std::string cpu_model_string();

}  // namespace cosparse::native
