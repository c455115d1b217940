// The one text front end: the line lexer shared by the scenario, sweep
// and fault grammars, their "line N:" diagnostics, and the strict number
// parsers those grammars and the tools' command lines all use.
#ifndef AETHEREAL_UTIL_PARSE_H
#define AETHEREAL_UTIL_PARSE_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/status.h"

namespace aethereal {

/// Strict integer parse: the whole token must be consumed. Seeds and
/// durations are reproducibility-critical, so a typo must fail loudly,
/// never silently prefix-parse.
inline Result<std::int64_t> ParseInt64(const std::string& token) {
  try {
    std::size_t pos = 0;
    const std::int64_t value = std::stoll(token, &pos);
    if (pos == token.size()) return value;
  } catch (const std::exception&) {
  }
  return InvalidArgumentError("expected a number, got '" + token + "'");
}

/// ParseInt64 with an inclusive range check. Every value later narrowed
/// below int64 goes through this, so a huge literal fails loudly instead
/// of silently wrapping.
inline Result<std::int64_t> ParseInt64In(const std::string& token,
                                         std::int64_t lo, std::int64_t hi) {
  auto value = ParseInt64(token);
  if (value.ok() && (*value < lo || *value > hi)) {
    return InvalidArgumentError("'" + token + "' out of range [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return value;
}

/// Strict unsigned parse of digits only, over the whole uint64 range:
/// seeds take it, since the conformance fuzzer draws them as full 64-bit
/// values. A sign or an overflowing value fails loudly instead of wrapping.
inline Result<std::uint64_t> ParseUint64(const std::string& token) {
  std::uint64_t value = 0;
  const char* last = token.data() + token.size();
  const auto [end, error] = std::from_chars(token.data(), last, value);
  if (error == std::errc() && end == last) return value;
  return InvalidArgumentError("expected a number in [0, 2^64), got '" +
                              token + "'");
}

/// Strict double parse under the same whole-token discipline. NaN and the
/// infinities are rejected, so every range check downstream compares a
/// real number (NaN slips through `v <= lo || v > hi`).
inline Result<double> ParseDouble(const std::string& token) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(token, &pos);
    if (pos == token.size() && std::isfinite(value)) return value;
  } catch (const std::exception&) {
  }
  return InvalidArgumentError("expected a number, got '" + token + "'");
}

/// The diagnostic every grammar reports: "line N: message".
inline Status LineError(int line, const std::string& message) {
  return InvalidArgumentError("line " + std::to_string(line) + ": " + message);
}

/// One non-blank line of spec text: its 1-based line number and its
/// whitespace-separated tokens, with any '#' comment stripped. The number
/// parsers below, applied at this line, report errors as "line N: ...".
struct SpecLine {
  int number = 0;
  std::vector<std::string> tokens;

  Status Error(const std::string& message) const {
    return LineError(number, message);
  }
  Result<std::int64_t> Int(const std::string& token) const {
    return Prefixed(ParseInt64(token));
  }
  Result<std::int64_t> IntIn(const std::string& token, std::int64_t lo,
                             std::int64_t hi) const {
    return Prefixed(ParseInt64In(token, lo, hi));
  }
  Result<double> Double(const std::string& token) const {
    return Prefixed(ParseDouble(token));
  }

 private:
  template <typename T>
  Result<T> Prefixed(Result<T> result) const {
    if (result.ok()) return result;
    return Error(result.status().message());
  }
};

/// Splits spec text into its non-blank lines.
inline std::vector<SpecLine> TokenizeSpec(const std::string& text) {
  std::vector<SpecLine> lines;
  std::istringstream stream(text);
  std::string raw;
  int number = 0;
  while (std::getline(stream, raw)) {
    ++number;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream ls(raw);
    SpecLine line{number, {}};
    std::string token;
    while (ls >> token) line.tokens.push_back(token);
    if (!line.tokens.empty()) lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace aethereal

#endif  // AETHEREAL_UTIL_PARSE_H
