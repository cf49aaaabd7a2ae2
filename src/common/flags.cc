#include "src/common/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <system_error>

#include "src/common/byte_size.h"

namespace inferturbo {

Result<FlagParser> FlagParser::Parse(int argc, const char* const argv[]) {
  FlagParser parser;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      return Status::InvalidArgument("expected --flag, got '" + token + "'");
    }
    token = token.substr(2);
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      parser.values_[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    // `--key value` form, unless the next token is another flag (then
    // treat as boolean true).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      parser.values_[token] = argv[++i];
    } else {
      parser.values_[token] = "true";
    }
  }
  return parser;
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t FlagParser::GetInt(const std::string& key,
                                std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

Result<std::int64_t> FlagParser::GetIntInRange(const std::string& key,
                                               std::int64_t fallback,
                                               std::int64_t lo,
                                               std::int64_t hi) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  const char* const end = text.data() + text.size();
  std::int64_t value = 0;
  const auto [parsed_end, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || parsed_end != end || value < lo || value > hi) {
    return Status::InvalidArgument("invalid --" + key + "=" + text +
                                   " (an integer in [" + std::to_string(lo) +
                                   ", " + std::to_string(hi) + "])");
  }
  return value;
}

double FlagParser::GetDouble(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool FlagParser::GetBool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

Result<std::uint64_t> FlagParser::GetBytes(const std::string& key,
                                           std::uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  Result<std::uint64_t> parsed = ParseByteSize(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("--" + key + ": " +
                                   parsed.status().message());
  }
  return parsed;
}

std::vector<std::string> FlagParser::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(values_.size());
  for (const auto& [key, value] : values_) keys.push_back(key);
  return keys;
}

Result<FlagParser> ParseFlags(int argc, const char* const argv[],
                              std::initializer_list<std::string_view> known) {
  Result<FlagParser> flags = FlagParser::Parse(argc, argv);
  if (!flags.ok()) return flags;
  for (const std::string& key : flags->Keys()) {
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string message = "unknown flag --" + key + " (known:";
    for (const std::string_view flag : known) {
      message += " --" + std::string(flag);
    }
    return Status::InvalidArgument(message + ")");
  }
  return flags;
}

}  // namespace inferturbo
