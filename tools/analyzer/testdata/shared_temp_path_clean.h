// fixture-path: tests/state_dir.h
// expect-clean
#pragma once
#include <filesystem>
#include <string>
inline std::string fixture_per_process_dir(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}
