// A private temporary directory for one test's shard artefacts: created
// with mkdtemp under the system temp directory ($TMPDIR or /tmp) and
// removed, with every file in it, when the test ends.
#pragma once

#include <stdlib.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/serialize.hpp"

namespace zh::scanner {

class ShardDir {
 public:
  ShardDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "zh-shards-XXXXXX")
            .string();
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~ShardDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  ShardDir(const ShardDir&) = delete;
  ShardDir& operator=(const ShardDir&) = delete;

  /// Empty when the directory could not be created.
  const std::string& path() const noexcept { return path_; }

  /// Writes `bytes` to `name` inside the directory; returns the file's
  /// path, or an empty string when the write failed.
  std::string write(const std::string& name,
                    const std::vector<std::uint8_t>& bytes) const {
    const std::string file = path_ + "/" + name;
    return analysis::write_bytes_file(file, bytes) ? file : std::string{};
  }

 private:
  std::string path_;
};

}  // namespace zh::scanner
