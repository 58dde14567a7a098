// Unique-per-test scratch paths. ctest runs every gtest case as its own
// process, and `ctest -j` runs those processes side by side, so two tests
// that write the same fixed name under ::testing::TempDir() race on it.
// UniqueTempPath embeds the running test's full name and the process id, so
// every test (and every repeat of it) owns its files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace dcert::testutil {

/// ::testing::TempDir() + "<Suite>.<Test>_<pid>_" + name. Outside a running
/// test (static set-up) the test part reads "no_test".
inline std::string UniqueTempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info != nullptr ? std::string(info->test_suite_name()) +
                                           "." + info->name()
                                     : std::string("no_test");
  for (char& c : test) {
    if (c == '/') c = '_';  // parameterized names; keep the path flat
  }
  return ::testing::TempDir() + test + "_" + std::to_string(::getpid()) + "_" +
         name;
}

}  // namespace dcert::testutil
