// Minimal deterministic JSON writer.
//
// Scenario results and bench outputs are compared byte-for-byte by the
// golden-results tests, across compilers and build types, so the encoder
// must be fully deterministic: keys are emitted in call order, doubles are
// printed through a fixed snprintf format, and integral doubles print
// without a fractional part. Only writing is supported — the repo consumes
// JSON with Python in CI, never in C++.
#ifndef AETHEREAL_UTIL_JSON_H
#define AETHEREAL_UTIL_JSON_H

#include <cstdint>
#include <string>
#include <vector>

namespace aethereal {

/// Deterministic number formatting shared by the JSON and CSV writers:
/// integral values (|v| < 2^53) print without a fractional part,
/// everything else through a fixed "%.6g", non-finite values as "null".
/// Byte-stable across compilers and build types.
std::string FormatDouble(double value);

/// Streaming JSON writer with explicit object/array scopes and two-space
/// indentation. Usage:
///
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("name").String("uniform");
///   w.Key("flows").BeginArray();
///   ... w.EndArray();
///   w.EndObject();
///   std::string text = w.Take();
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits an object key; must be followed by exactly one value.
  JsonWriter& Key(const std::string& name);

  JsonWriter& String(const std::string& value);
  JsonWriter& Int(std::int64_t value);
  /// For values that span the whole uint64 range (seeds).
  JsonWriter& Uint(std::uint64_t value);
  JsonWriter& Bool(bool value);
  /// Doubles print as integers when integral (|v| < 2^53), otherwise via
  /// "%.6g". Non-finite values print as null.
  JsonWriter& Double(double value);

  /// Returns the finished document (with trailing newline).
  std::string Take();

  /// Escapes a string for embedding in JSON (without the quotes).
  static std::string Escape(const std::string& raw);

 private:
  void BeforeValue();
  void Indent();

  struct Scope {
    bool is_object = false;
    bool has_items = false;
  };
  std::string out_;
  std::vector<Scope> scopes_;
  bool pending_key_ = false;
};

}  // namespace aethereal

#endif  // AETHEREAL_UTIL_JSON_H
