// Per-process scratch locations for tests that write to disk. Each is named
// per process, so two build trees running one test binary at once never
// share (or delete) each other's files, and each is removed with its
// contents when the test that made it ends, however it ends. These are the
// only places tests may name the temp directory (the analyzer's
// shared-temp-path rule).
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace advtext {

/// A daemon state directory: `<temp dir>/<prefix><pid>_<name>`, emptied if
/// a crashed run left it, and not created (the daemon makes its own).
class ScopedStateDir {
 public:
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

/// A file path `<temp dir>/<prefix><pid>_<name>/<name>` in a directory of
/// its own, so everything written beside it — snapshot generations
/// `<path>.ckpt.N`, per-shard `<path>.shard<k>.ckpt.N`, `.tmp` siblings —
/// goes with the directory.
class ScopedTempFile {
 public:
  ScopedTempFile(const std::string& prefix, const std::string& name)
      : dir_(prefix, name), path_(dir_.path() + "/" + name) {
    std::filesystem::create_directories(dir_.path());
  }

  const std::string& path() const { return path_; }

 private:
  ScopedStateDir dir_;
  std::string path_;
};

}  // namespace advtext
