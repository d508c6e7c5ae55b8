// Minimal JSON value / parser / writer.
//
// The estimator's external interface mirrors the Azure Quantum Resource
// Estimator job schema: job parameters (qubit model, QEC scheme, error
// budget, constraints, distillation units) arrive as JSON, and results are
// emitted as JSON grouped exactly like the tool's output (Section IV-D of
// the paper). This module implements the small JSON subset needed for that,
// with insertion-ordered objects so emitted reports are stable.
//
// A value can also be *frozen*: an immutable, reference-counted compact
// dump (Value::frozen). Copying one only bumps a count and dump() appends
// the stored bytes, so a result rendered once is spliced into every
// response that carries it. Reads go through a tree parsed from the bytes
// on first use; writes turn the node into an ordinary tree first.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace qre::json {

class Value;

using Array = std::vector<Value>;
/// Insertion-ordered object representation.
using Object = std::vector<std::pair<std::string, Value>>;

/// A JSON document node. Numbers are stored as double plus an exact-integer
/// flag so counts such as physical qubit numbers round-trip without a
/// trailing ".0"; equality compares numbers by value, so 1 == 1.0.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(unsigned int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : data_(i) {}
  Value(std::uint64_t i);
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  /// A frozen value over `compact_dump`, which must be what dump() writes
  /// for some value (the bytes are not checked). Copies share the bytes;
  /// dump() appends them as they are; every const accessor, pretty() and
  /// == read a tree parsed from them once, on first use (thread-safe);
  /// as_array(), as_object() and set() first make this node an ordinary
  /// tree (copy-on-write), so the shared bytes never change.
  static Value frozen(std::string compact_dump);
  bool is_frozen() const { return std::holds_alternative<FrozenPtr>(data_); }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(view().data_); }
  bool is_bool() const { return std::holds_alternative<bool>(view().data_); }
  bool is_number() const {
    const Value& v = view();
    return std::holds_alternative<double>(v.data_) ||
           std::holds_alternative<std::int64_t>(v.data_);
  }
  bool is_string() const { return std::holds_alternative<std::string>(view().data_); }
  bool is_array() const { return std::holds_alternative<Array>(view().data_); }
  bool is_object() const { return std::holds_alternative<Object>(view().data_); }
  /// A number as_int() reads exactly: an integer within int64_t range.
  bool is_integer() const;

  /// Typed accessors; each throws qre::Error on a type mismatch.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object field lookup; returns nullptr when absent (or when not an object).
  const Value* find(std::string_view key) const;
  /// Object field lookup; throws qre::Error naming the key when absent.
  const Value& at(std::string_view key) const;
  /// Inserts or replaces an object field (value must be an object).
  void set(std::string_view key, Value v);

  /// Serializes compactly (no whitespace).
  std::string dump() const;
  /// Serializes with 2-space indentation.
  std::string pretty() const;

  bool operator==(const Value& other) const;

 private:
  struct Frozen;
  using FrozenPtr = std::shared_ptr<const Frozen>;

  /// The node the accessors read: this one, or a frozen value's tree.
  const Value& view() const { return is_frozen() ? frozen_tree() : *this; }
  const Value& frozen_tree() const;
  /// Makes a frozen node an ordinary tree (a copy of its parsed tree).
  void thaw();
  void write(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::int64_t, std::string, Array, Object, FrozenPtr>
      data_;
};

/// Appends `d` the way dump() writes a double: the shortest "%.{prec}g"
/// form that reads back as exactly `d` ("null" for NaN and infinities).
void append_number(std::string& out, double d);

/// Parses a complete JSON document; throws qre::Error with line/column info.
Value parse(std::string_view text);

/// Reads and parses a JSON file; throws qre::Error on I/O or parse failure.
Value parse_file(const std::string& path);

}  // namespace qre::json
