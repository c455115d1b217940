#include "util/json.h"

#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace aethereal {

std::string JsonWriter::Escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::Indent() {
  out_.append(2 * scopes_.size(), ' ');
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // "key": prefix already emitted
  }
  if (!scopes_.empty()) {
    AETHEREAL_CHECK_MSG(!scopes_.back().is_object,
                        "object values need a Key()");
    if (scopes_.back().has_items) out_ += ",";
    out_ += "\n";
    scopes_.back().has_items = true;
    Indent();
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += "{";
  scopes_.push_back(Scope{/*is_object=*/true, false});
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  AETHEREAL_CHECK(!scopes_.empty() && scopes_.back().is_object);
  const bool had_items = scopes_.back().has_items;
  scopes_.pop_back();
  if (had_items) {
    out_ += "\n";
    Indent();
  }
  out_ += "}";
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += "[";
  scopes_.push_back(Scope{/*is_object=*/false, false});
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  AETHEREAL_CHECK(!scopes_.empty() && !scopes_.back().is_object);
  const bool had_items = scopes_.back().has_items;
  scopes_.pop_back();
  if (had_items) {
    out_ += "\n";
    Indent();
  }
  out_ += "]";
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  AETHEREAL_CHECK_MSG(!scopes_.empty() && scopes_.back().is_object,
                      "Key() outside an object");
  AETHEREAL_CHECK_MSG(!pending_key_, "two Key() calls in a row");
  if (scopes_.back().has_items) out_ += ",";
  out_ += "\n";
  scopes_.back().has_items = true;
  Indent();
  out_ += "\"" + Escape(name) + "\": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  BeforeValue();
  out_ += "\"" + Escape(value) + "\"";
  return *this;
}

JsonWriter& JsonWriter::Int(std::int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Uint(std::uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "null";
  constexpr double kExactIntLimit = 9007199254740992.0;  // 2^53
  if (value == std::floor(value) && std::fabs(value) < kExactIntLimit) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  out_ += FormatDouble(value);
  return *this;
}

std::string JsonWriter::Take() {
  AETHEREAL_CHECK_MSG(scopes_.empty(), "unbalanced JSON scopes");
  out_ += "\n";
  return std::move(out_);
}

}  // namespace aethereal
