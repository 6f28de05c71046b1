// Per-process temporary paths for the test binaries. Every binary shares
// ::testing::TempDir(), so a fixed file name collides when two test runs
// execute at once (two ctest invocations on one machine, say): one run's
// remove_all deletes the other's files mid-test. Tests name what they
// create there through unique_temp_path, which adds the process id.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace deepcat::tests {

/// TempDir() + stem + "_<pid>" + suffix, e.g. unique_temp_path("cli_stream")
/// or unique_temp_path("dcfe_drain", ".sock").
inline std::string unique_temp_path(const std::string& stem,
                                    const std::string& suffix = "") {
  return ::testing::TempDir() + stem + "_" + std::to_string(::getpid()) +
         suffix;
}

}  // namespace deepcat::tests
