// Collision-free temp file names for tests. ctest runs every discovered
// test case in its own process, many at once under `ctest -j`, so a fixed
// name under TempDir() is written and removed by several processes at the
// same time. Suffixing the pid and the running test's name keeps every
// process on its own file.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace mpisect::testutil {

/// TempDir() + "<stem>.<pid>.<Suite.Test><ext>", e.g.
/// "/tmp/serve_fixture.4242.Service.ErrorContract.mpstz".
inline std::string unique_temp_path(const std::string& stem,
                                    const std::string& ext) {
  std::string test = "no-test";
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    test = std::string(info->test_suite_name()) + "." + info->name();
  }
  for (char& c : test) {
    if (c == '/') c = '_';  // parameterized suites and values carry '/'
  }
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + stem + "." + std::to_string(::getpid()) + "." + test + ext;
}

}  // namespace mpisect::testutil
