#ifndef S2_TESTS_TEST_UTIL_H_
#define S2_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <string>

#include "encoding/lz.h"

namespace s2 {

/// Seed for a randomized test: `default_seed` unless the S2_TEST_SEED env
/// var overrides it (replaying a failure). Pair with
///   SCOPED_TRACE("S2_TEST_SEED=" + std::to_string(seed));
/// so any assertion failure prints the seed to rerun with.
inline uint64_t TestSeed(uint64_t default_seed) {
  const char* env = std::getenv("S2_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return default_seed;
}

/// Damages an LZ string column inside `file` (a segment file or a column
/// block): zeroes the compressed block of `payload`, the column's values
/// concatenated (under 16 KB, so one block). A zeroed block starts with a
/// match at offset 0, which fails to decompress. Returns false when the
/// block is not found. Column bodies are outside the segment footer's CRC,
/// so the file still opens.
inline bool ZeroLzBlock(std::string* file, const std::string& payload) {
  std::string compressed;
  LzCompress(payload, &compressed);
  size_t pos = file->find(compressed);
  if (pos == std::string::npos || compressed.size() < 3) return false;
  file->replace(pos, compressed.size(), std::string(compressed.size(), '\0'));
  return true;
}

}  // namespace s2

#endif  // S2_TESTS_TEST_UTIL_H_
