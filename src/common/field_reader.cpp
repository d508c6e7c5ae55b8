#include "common/field_reader.hpp"

#include <utility>

namespace qre {

namespace {

const char* kind_name(JsonKind k) {
  switch (k) {
    case JsonKind::kNumber: return "a number";
    case JsonKind::kCount: return "a non-negative integer";
    case JsonKind::kString: return "a string";
    case JsonKind::kObject: return "an object";
    case JsonKind::kArray: return "an array";
  }
  return "?";
}

bool matches_kind(const json::Value& v, JsonKind k) {
  switch (k) {
    case JsonKind::kNumber: return v.is_number();
    case JsonKind::kCount: return v.is_integer() && v.as_int() >= 0;
    case JsonKind::kString: return v.is_string();
    case JsonKind::kObject: return v.is_object();
    case JsonKind::kArray: return v.is_array();
  }
  return false;
}

}  // namespace

FieldReader::FieldReader(const json::Value& v, std::string path, Diagnostics* diags)
    : value_(v),
      path_(std::move(path)),
      sink_(diags != nullptr ? diags : &own_),
      strict_(diags == nullptr),
      errors_at_start_(sink_->num_errors()) {}

FieldReader::FieldReader(const FieldReader& parent, const json::Value& v, std::string path)
    : value_(v),
      path_(std::move(path)),
      sink_(parent.sink_),
      strict_(parent.strict_),
      errors_at_start_(sink_->num_errors()) {}

std::string FieldReader::path_of(std::string_view key) const {
  return key.empty() ? path_ : pointer_join(path_, key);
}

bool FieldReader::expect_object(std::string_view message) {
  if (value_.is_object()) return true;
  error("type-mismatch", "", std::string(message));
  return false;
}

void FieldReader::check_keys(const std::vector<std::string_view>& allowed) {
  check_known_keys(value_, allowed, path_, strict_ ? nullptr : sink_);
}

const json::Value* FieldReader::get(std::string_view key, JsonKind kind, bool required) {
  const json::Value* field = value_.find(key);
  if (field == nullptr) {
    if (required) required_missing(key);
    return nullptr;
  }
  if (!matches_kind(*field, kind)) {
    error("type-mismatch", key, "'" + std::string(key) + "' must be " + kind_name(kind));
    return nullptr;
  }
  return field;
}

bool FieldReader::number(std::string_view key, double& out, bool required) {
  const json::Value* f = get(key, JsonKind::kNumber, required);
  if (f != nullptr) out = f->as_double();
  return f != nullptr;
}

bool FieldReader::count(std::string_view key, std::uint64_t& out, bool required) {
  const json::Value* f = get(key, JsonKind::kCount, required);
  if (f != nullptr) out = f->as_uint();
  return f != nullptr;
}

void FieldReader::error(std::string code, std::string_view key, std::string message) {
  sink_->error(std::move(code), path_of(key), std::move(message));
}

void FieldReader::required_missing(std::string_view key) {
  error("required-missing", key, "required field '" + std::string(key) + "' is missing");
}

bool FieldReader::ok() const { return sink_->num_errors() == errors_at_start_; }

void FieldReader::finish() {
  if (strict_ && own_.has_errors()) throw ValidationError(std::move(own_));
}

}  // namespace qre
