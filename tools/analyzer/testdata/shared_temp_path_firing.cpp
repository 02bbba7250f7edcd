// fixture-path: tests/fixture_temp_firing.cpp
// expect: shared-temp-path@9
// expect: shared-temp-path@12
#include <filesystem>
#include <string>
// A comment naming ::testing::TempDir() or temp_directory_path() is fine.
const char* kNote = "temp_directory_path() inside a string is fine";
std::string fixture_fixed_name() {
  return (std::filesystem::temp_directory_path() / "advtext_x").string();
}
std::string fixture_gtest_name() {
  return ::testing::TempDir() + "advtext_y";
}
