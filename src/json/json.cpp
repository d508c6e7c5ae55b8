#include "json/json.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/mutex.hpp"

namespace qre::json {

Value::Value(std::uint64_t i) {
  if (i <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    data_ = static_cast<std::int64_t>(i);
  } else {
    data_ = static_cast<double>(i);
  }
}

/// A frozen value's shared state. `bytes` never changes. `tree` is written
/// once, by the first reader, under `mutex`, and published by `parsed`
/// (release/acquire), so later readers take no lock. (Not std::call_once:
/// libstdc++'s can deadlock after a call that threw, and a parse can.)
struct Value::Frozen {
  std::string bytes;
  mutable Mutex mutex;
  mutable std::atomic<bool> parsed{false};
  mutable Value tree;
};

Value Value::frozen(std::string compact_dump) {
  Value v;
  auto frozen = std::make_shared<Frozen>();
  frozen->bytes = std::move(compact_dump);
  v.data_ = FrozenPtr(std::move(frozen));
  return v;
}

const Value& Value::frozen_tree() const {
  const Frozen& f = *std::get<FrozenPtr>(data_);
  if (!f.parsed.load(std::memory_order_acquire)) {
    MutexLock lock(f.mutex);
    if (!f.parsed.load(std::memory_order_relaxed)) {
      f.tree = parse(f.bytes);
      f.parsed.store(true, std::memory_order_release);
    }
  }
  return f.tree;
}

void Value::thaw() {
  if (!is_frozen()) return;
  auto tree = frozen_tree().data_;  // copied before the shared state is released
  data_ = std::move(tree);
}

namespace {
[[noreturn]] void type_error(const char* want) {
  throw_error(std::string("JSON value is not of type ") + want);
}

/// [-2^63, 2^63) holds exactly the integral doubles an int64_t can take;
/// casting anything outside it is undefined behaviour. NaN fails both bounds.
bool is_int64_double(double d) { return d >= -0x1p63 && d < 0x1p63 && std::floor(d) == d; }
}  // namespace

bool Value::operator==(const Value& other) const {
  const Value& a = view();
  const Value& b = other.view();
  // dump() writes an integral double without a fraction and parse() reads
  // that back as an integer, so numbers compare by value, not by kind.
  const double* ad = std::get_if<double>(&a.data_);
  const double* bd = std::get_if<double>(&b.data_);
  const std::int64_t* ai = std::get_if<std::int64_t>(&a.data_);
  const std::int64_t* bi = std::get_if<std::int64_t>(&b.data_);
  if (ad != nullptr && bi != nullptr) {
    return is_int64_double(*ad) && static_cast<std::int64_t>(*ad) == *bi;
  }
  if (ai != nullptr && bd != nullptr) {
    return is_int64_double(*bd) && static_cast<std::int64_t>(*bd) == *ai;
  }
  return a.data_ == b.data_;
}

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&view().data_)) return *b;
  type_error("bool");
}

double Value::as_double() const {
  const Value& v = view();
  if (const double* d = std::get_if<double>(&v.data_)) return *d;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v.data_)) return static_cast<double>(*i);
  type_error("number");
}

bool Value::is_integer() const {
  const Value& v = view();
  if (std::holds_alternative<std::int64_t>(v.data_)) return true;
  const double* d = std::get_if<double>(&v.data_);
  return d != nullptr && is_int64_double(*d);
}

std::int64_t Value::as_int() const {
  const Value& v = view();
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v.data_)) return *i;
  if (is_integer()) return static_cast<std::int64_t>(std::get<double>(v.data_));
  type_error("integer");
}

std::uint64_t Value::as_uint() const {
  std::int64_t v = as_int();
  QRE_REQUIRE(v >= 0, "JSON integer is negative where a count was expected");
  return static_cast<std::uint64_t>(v);
}

const std::string& Value::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&view().data_)) return *s;
  type_error("string");
}

const Array& Value::as_array() const {
  if (const Array* a = std::get_if<Array>(&view().data_)) return *a;
  type_error("array");
}

Array& Value::as_array() {
  thaw();
  if (Array* a = std::get_if<Array>(&data_)) return *a;
  type_error("array");
}

const Object& Value::as_object() const {
  if (const Object* o = std::get_if<Object>(&view().data_)) return *o;
  type_error("object");
}

Object& Value::as_object() {
  thaw();
  if (Object* o = std::get_if<Object>(&data_)) return *o;
  type_error("object");
}

const Value* Value::find(std::string_view key) const {
  const Object* o = std::get_if<Object>(&view().data_);
  if (o == nullptr) return nullptr;
  for (const auto& [k, v] : *o) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) throw_error("JSON object is missing required key '" + std::string(key) + "'");
  return *v;
}

void Value::set(std::string_view key, Value v) {
  Object& o = as_object();
  for (auto& [k, existing] : o) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  o.emplace_back(std::string(key), std::move(v));
}

namespace {

void write_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void indent_to(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no NaN/Inf; estimator results never produce them
    return;
  }
  // The output is "%.{prec}g" at the smallest prec that reads back as d
  // (cache keys, store records and golden files depend on these bytes).
  // The digit count P of the shortest round-trip scientific form is where
  // that search starts: no shorter decimal reads back. It cannot always
  // stop at P, because %.{P}g is the *correctly rounded* P-digit decimal,
  // which can miss d where another P-digit decimal hits it (powers of two,
  // whose rounding interval is asymmetric, e.g. 0x1p-1017). Those take one
  // more digit; 17 digits always round-trip.
  char buf[32];
  const auto shortest = std::to_chars(buf, buf + sizeof buf, d, std::chars_format::scientific);
  const char* exponent = std::find(buf, shortest.ptr, 'e');
  int prec = static_cast<int>(exponent - buf) - (buf[0] == '-' ? 1 : 0);
  if (prec > 1) --prec;  // the decimal point
  for (;; ++prec) {
    const auto general = std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, prec);
    double back = 0.0;
    std::from_chars(buf, general.ptr, back);
    if (back == d || prec >= 17) {
      out.append(buf, general.ptr);
      return;
    }
  }
}

void Value::write(std::string& out, int indent, int depth) const {
  if (const FrozenPtr* f = std::get_if<FrozenPtr>(&data_)) {
    if (indent <= 0) {
      out += (*f)->bytes;
    } else {
      frozen_tree().write(out, indent, depth);
    }
  } else if (std::holds_alternative<std::nullptr_t>(data_)) {
    out += "null";
  } else if (const bool* b = std::get_if<bool>(&data_)) {
    out += *b ? "true" : "false";
  } else if (const std::int64_t* i = std::get_if<std::int64_t>(&data_)) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, *i).ptr);
  } else if (const double* d = std::get_if<double>(&data_)) {
    append_number(out, *d);
  } else if (const std::string* s = std::get_if<std::string>(&data_)) {
    write_escaped(out, *s);
  } else if (const Array* a = std::get_if<Array>(&data_)) {
    if (a->empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < a->size(); ++i) {
      if (i != 0) out.push_back(',');
      indent_to(out, indent, depth + 1);
      (*a)[i].write(out, indent, depth + 1);
    }
    indent_to(out, indent, depth);
    out.push_back(']');
  } else if (const Object* o = std::get_if<Object>(&data_)) {
    if (o->empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [k, v] : *o) {
      if (!first) out.push_back(',');
      first = false;
      indent_to(out, indent, depth + 1);
      write_escaped(out, k);
      out.push_back(':');
      if (indent > 0) out.push_back(' ');
      v.write(out, indent, depth + 1);
    }
    indent_to(out, indent, depth);
    out.push_back('}');
  }
}

std::string Value::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Value::pretty() const {
  std::string out;
  write(out, 2, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    int line = 1;
    int col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream os;
    os << "JSON parse error at line " << line << ", column " << col << ": " << message;
    throw_error(os.str());
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return at_end() ? '\0' : text_[pos_]; }
  char next() {
    if (at_end()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!at_end()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) fail("invalid literal");
    pos_ += lit.size();
  }

  Value parse_value() {
    skip_ws();
    if (at_end()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't': expect_literal("true"); return Value(true);
      case 'f': expect_literal("false"); return Value(false);
      case 'n': expect_literal("null"); return Value(nullptr);
      default: return parse_number();
    }
  }

  Value parse_object() {
    next();  // '{'
    Object obj;
    skip_ws();
    if (peek() == '}') {
      next();
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      if (next() != ':') fail("expected ':' after object key");
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      char c = next();
      if (c == ',') continue;
      if (c == '}') break;
      fail("expected ',' or '}' in object");
    }
    return Value(std::move(obj));
  }

  Value parse_array() {
    next();  // '['
    Array arr;
    skip_ws();
    if (peek() == ']') {
      next();
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      char c = next();
      if (c == ',') continue;
      if (c == ']') break;
      fail("expected ',' or ']' in array");
    }
    return Value(std::move(arr));
  }

  std::string parse_string() {
    next();  // '"'
    std::string out;
    for (;;) {
      char c = next();
      if (c == '"') return out;
      if (c == '\\') {
        char esc = next();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("invalid \\u escape");
              }
            }
            // Encode as UTF-8 (surrogate pairs are not combined; estimator
            // inputs are ASCII identifiers and formulas).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: fail("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      } else {
        out.push_back(c);
      }
    }
  }

  Value parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_integer = true;
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      is_integer = false;
      ++pos_;
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      is_integer = false;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") fail("invalid number");
    if (is_integer) {
      try {
        const long long i = std::stoll(token);
        // "-0" stays a double: an integer zero would drop the sign that
        // dump() wrote for negative zero.
        if (i != 0 || token[0] != '-') return Value(static_cast<std::int64_t>(i));
      } catch (const std::exception&) {
        // Falls through to double for out-of-range integers.
      }
    }
    // strtod rather than stod: strtod flags ERANGE for every subnormal result
    // and stod turns that into an exception, so subnormals written by dump()
    // would not parse back. Only a magnitude beyond double range (overflow to
    // infinity, underflow to zero) is an error.
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || (errno == ERANGE && (d == 0.0 || std::isinf(d)))) {
      fail("invalid number '" + token + "'");
    }
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).run(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  QRE_REQUIRE(in.good(), "cannot open JSON file '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

}  // namespace qre::json
