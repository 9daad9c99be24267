// A private scratch directory per test case. gtest_discover_tests runs every
// case as its own process, so cases that `ctest -j` runs side by side must
// never share a file name. The directory is named after the gtest suite and
// test plus the pid; it is created on construction and removed, with its
// contents, on destruction (as a fixture member: before SetUp, after
// TearDown).
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace laminar {

class ScratchDir {
 public:
  ScratchDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "laminar_";
    name += info != nullptr ? std::string(info->test_suite_name()) + "." +
                                  info->name()
                            : "test";
    name += "." + std::to_string(::getpid());
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized names; keep one level deep
    }
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  /// Path of `name` inside the directory.
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace laminar
