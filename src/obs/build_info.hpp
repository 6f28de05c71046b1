// Build/runtime identity: version, dispatched numeric backend, thread-pool
// size. One struct and one JSON writer shared by `deepcat info`, the TELE
// wire payload, trace metadata and the bench_micro JSON — so the labels
// can never drift apart between surfaces.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

namespace deepcat::obs {

/// Library version, bumped per PR.
inline constexpr const char* kDeepCatVersion = "0.10.0";

struct BuildInfo {
  std::string version;      ///< kDeepCatVersion
  std::string backend;      ///< simd::backend_name(): the active ISA-ladder
                            ///< tier ("scalar" | "avx2+fma" | "avx512")
  bool simd_compiled = false;  ///< false on non-x86 / DEEPCAT_DISABLE_SIMD
  std::size_t threads = 0;  ///< worker threads the caller's pool uses
};

/// Captures the live build info. threads = 0 resolves to
/// hardware_concurrency (the ThreadPool default).
[[nodiscard]] BuildInfo current_build_info(std::size_t threads = 0);

/// {"version":"...","backend":"...","simd_compiled":bool,"threads":N} —
/// no surrounding newline, embeddable in a larger object.
void write_build_info_json(std::ostream& os, const BuildInfo& info);

/// The same four fields without the surrounding braces, for callers that
/// extend the object with more keys (`deepcat info --json` adds the ISA
/// ladder and the detected tier) while keeping the shared labels.
void write_build_info_json_fields(std::ostream& os, const BuildInfo& info);

}  // namespace deepcat::obs
