// Minimal JSON utilities shared by the observability exporters.
//
// JsonEscape produces a string safe to splice between double quotes in a
// JSON document (every control character below 0x20 is escaped, which the
// old ocl/trace escaper missed). Parse is a small recursive-descent reader
// used by round-trip tests to prove that every exporter -- metrics JSON,
// bench snapshots, Chrome traces -- emits documents a strict parser (and
// hence Perfetto) accepts. It is not a general-purpose JSON library: no
// \u surrogate pairs, numbers read with strtod.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace clflow::obs {

/// Escapes `s` for use inside a JSON string literal: quote, backslash,
/// the \b \t \n \f \r shorthands, and \u00XX for any other char < 0x20.
[[nodiscard]] std::string JsonEscape(std::string_view s);

/// Formats a double as a JSON number token (finite shortest round-trip;
/// NaN/inf degrade to 0, which JSON cannot represent).
[[nodiscard]] std::string JsonNum(double v);

namespace json {

/// A parsed JSON value. Objects keep insertion order (vector of pairs) so
/// tests can assert on emission order when they care.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* Find(const std::string& key) const;
};

/// Parses a complete JSON document (trailing garbage rejected); nullopt on
/// any syntax error.
[[nodiscard]] std::optional<Value> Parse(std::string_view text);

}  // namespace json

}  // namespace clflow::obs
