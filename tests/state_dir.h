// Daemon state directories for the service and chaos tests. Each is named
// per process, so two build trees running one test binary at once never
// share (or delete) each other's job files, and each is removed with its
// contents when the test that made it ends, however it ends.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace advtext {

class ScopedStateDir {
 public:
  /// `<temp dir>/<prefix><pid>_<name>`, emptied if a crashed run left it.
  ScopedStateDir(const std::string& prefix, const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               (prefix + std::to_string(::getpid()) + "_" + name))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~ScopedStateDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedStateDir(const ScopedStateDir&) = delete;
  ScopedStateDir& operator=(const ScopedStateDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace advtext
