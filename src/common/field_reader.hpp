// Section reader: the one place a JSON section's format is checked.
//
// Every job section (logicalCounts, qubitParams, qecScheme, errorBudget,
// constraints, distillation units, frontier) is read by one parser, which
// is both the validator and the builder of the value. The parsers walk
// their section through a FieldReader: each lookup checks the field's JSON
// type, and each rule the parser applies is recorded as a structured
// diagnostic (code, JSON-pointer path, message; see diagnostics.hpp).
//
// With a Diagnostics sink the reader records every problem and the parser
// keeps reading, so one pass reports everything wrong with a document.
// Without a sink the parser is strict: an unknown key throws qre::Error at
// once, and finish() throws ValidationError carrying every other problem.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "json/json.hpp"

namespace qre {

/// The JSON shapes a field can be required to have.
enum class JsonKind { kNumber, kCount, kString, kObject, kArray };

class FieldReader {
 public:
  /// Reads `v`, which sits at JSON pointer `path` ("" = the document).
  FieldReader(const json::Value& v, std::string path, Diagnostics* diags);
  /// Reads `v` nested in `parent` at `path`, recording where `parent` does.
  FieldReader(const FieldReader& parent, const json::Value& v, std::string path);

  FieldReader(const FieldReader&) = delete;
  FieldReader& operator=(const FieldReader&) = delete;

  const json::Value& value() const { return value_; }
  const std::string& path() const { return path_; }
  /// The field's JSON pointer ("" = this section itself).
  std::string path_of(std::string_view key) const;

  /// Records a type-mismatch for the section with `message` unless it is an
  /// object; false when it is not.
  bool expect_object(std::string_view message);
  /// Unknown keys warn on the sink; without one they throw qre::Error.
  void check_keys(const std::vector<std::string_view>& allowed);

  /// The field, when present with the JSON shape `kind` (kCount: a
  /// non-negative integer within int64_t range). A mistyped field records a
  /// type-mismatch, a missing `required` one a required-missing; both
  /// return nullptr.
  const json::Value* get(std::string_view key, JsonKind kind, bool required = false);
  /// get() plus the read: `out` is assigned only when the field is valid.
  bool number(std::string_view key, double& out, bool required = false);
  bool count(std::string_view key, std::uint64_t& out, bool required = false);

  /// Records a problem at field `key` ("" = the section itself).
  void error(std::string code, std::string_view key, std::string message);
  /// Records the required-missing diagnostic for field `key`.
  void required_missing(std::string_view key);

  /// No error was recorded since this reader started.
  bool ok() const;
  /// Without a sink, throws ValidationError when problems were recorded.
  void finish();

 private:
  const json::Value& value_;
  std::string path_;
  Diagnostics own_;       // the sink when the caller gave none
  Diagnostics* sink_;
  bool strict_;           // no caller sink: unknown keys throw
  std::size_t errors_at_start_;
};

}  // namespace qre
