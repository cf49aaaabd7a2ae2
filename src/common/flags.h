#ifndef INFERTURBO_COMMON_FLAGS_H_
#define INFERTURBO_COMMON_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace inferturbo {

/// A minimal `--key=value` / `--key value` command-line parser for the
/// example binaries and tools. No registry, no globals: parse argv,
/// then pull typed values with defaults.
class FlagParser {
 public:
  /// Parses argv; returns InvalidArgument on malformed input
  /// (non-flag tokens, dangling `--key` without value).
  static Result<FlagParser> Parse(int argc, const char* const argv[]);

  bool Has(const std::string& key) const {
    return values_.count(key) > 0;
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Checked integer: the whole value must be a base-10 integer (an
  /// optional '-', then digits; nothing else) within [lo, hi].
  /// Garbage, a value past int64 or one outside the range is an
  /// InvalidArgument error naming the flag and its range; a missing
  /// flag reads `fallback`, unchecked.
  Result<std::int64_t> GetIntInRange(const std::string& key,
                                     std::int64_t fallback, std::int64_t lo,
                                     std::int64_t hi) const;

  /// Human-readable byte count ("512MB", "4GiB", "1048576"; see
  /// ParseByteSize). Unlike the lenient getters above a malformed value
  /// is an InvalidArgument error, not a silent fallback — byte budgets
  /// misread as 0 would quietly disable the limit they configure.
  Result<std::uint64_t> GetBytes(const std::string& key,
                                 std::uint64_t fallback) const;

  /// Keys seen on the command line, for unknown-flag validation.
  std::vector<std::string> Keys() const;

 private:
  std::map<std::string, std::string> values_;
};

/// FlagParser::Parse plus a check that every flag on the command line
/// is in `known`, so a stale or misspelled flag fails the run (callers
/// exit 2) instead of silently doing nothing.
Result<FlagParser> ParseFlags(int argc, const char* const argv[],
                              std::initializer_list<std::string_view> known);

}  // namespace inferturbo

#endif  // INFERTURBO_COMMON_FLAGS_H_
