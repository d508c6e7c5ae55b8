#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "json/json.hpp"

namespace qre::json {
namespace {

TEST(Json, ParseScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(parse("1e-4").as_double(), 1e-4);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, IntegersStayIntegers) {
  Value v = parse("1000000000000");
  EXPECT_TRUE(v.is_number());
  EXPECT_EQ(v.as_int(), 1000000000000ll);
  EXPECT_EQ(v.dump(), "1000000000000");
  // Whole-valued doubles also convert to integers on demand.
  EXPECT_EQ(parse("3.0").as_int(), 3);
}

TEST(Json, ParseNested) {
  Value v = parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  EXPECT_TRUE(v.is_object());
  const Array& a = v.at("a").as_array();
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a[2].at("b").as_string(), "c");
  EXPECT_TRUE(v.at("d").at("e").is_null());
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\nb\t\"c\"\\")").as_string(), "a\nb\t\"c\"\\");
  EXPECT_EQ(parse(R"("A")").as_string(), "A");
  EXPECT_EQ(parse(R"("é")").as_string(), "\xc3\xa9");  // UTF-8 e-acute
}

TEST(Json, DumpRoundTrip) {
  const char* text = R"({"name":"qubit_maj_ns_e4","errorBudget":0.0001,"counts":[1,2,3],)"
                     R"("nested":{"ok":true,"missing":null}})";
  Value v = parse(text);
  Value again = parse(v.dump());
  EXPECT_TRUE(v == again);
}

TEST(Json, ObjectOrderPreserved) {
  Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  const Object& o = v.as_object();
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
  EXPECT_EQ(v.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(Json, PrettyPrinting) {
  Value v = parse(R"({"a": [1, 2]})");
  std::string pretty = v.pretty();
  EXPECT_NE(pretty.find("\n  \"a\": ["), std::string::npos);
  EXPECT_NE(pretty.find("\n    1"), std::string::npos);
}

TEST(Json, SetInsertsAndReplaces) {
  Value v = parse("{}");
  v.set("x", Value(1));
  v.set("y", Value("two"));
  v.set("x", Value(3));
  EXPECT_EQ(v.at("x").as_int(), 3);
  EXPECT_EQ(v.as_object().size(), 2u);
}

TEST(Json, FindMissing) {
  Value v = parse(R"({"present": 1})");
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_THROW(v.at("absent"), Error);
  EXPECT_EQ(parse("[1]").find("x"), nullptr);  // non-object
}

TEST(Json, TypeErrors) {
  Value v = parse(R"({"s": "text", "n": -1})");
  EXPECT_THROW(v.at("s").as_int(), Error);
  EXPECT_THROW(v.at("s").as_array(), Error);
  EXPECT_THROW(v.at("n").as_uint(), Error);  // negative where count expected
  EXPECT_THROW(v.at("s").as_bool(), Error);
}

TEST(Json, IntegersOutsideInt64RangeAreTypeErrors) {
  // Casting these doubles to int64_t would be undefined behaviour.
  for (const char* text : {"1e19", "9.3e18", "1e308", "-1e300"}) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(parse(text).is_integer());
    EXPECT_THROW(parse(text).as_int(), Error);
    EXPECT_THROW(parse(text).as_uint(), Error);
  }
  // -2^63 is representable, whether it parses as an integer or a double.
  for (const char* text : {"-9223372036854775808", "-9.223372036854775808e18"}) {
    SCOPED_TRACE(text);
    EXPECT_TRUE(parse(text).is_integer());
    EXPECT_EQ(parse(text).as_int(), std::numeric_limits<std::int64_t>::min());
  }
  EXPECT_EQ(parse("9.2e18").as_int(), 9200000000000000000);
  EXPECT_FALSE(parse("2.5").is_integer());
  EXPECT_FALSE(parse("\"7\"").is_integer());
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(parse(""), Error);
  EXPECT_THROW(parse("{"), Error);
  EXPECT_THROW(parse("[1,]"), Error);
  EXPECT_THROW(parse("{\"a\" 1}"), Error);
  EXPECT_THROW(parse("tru"), Error);
  EXPECT_THROW(parse("1 2"), Error);
  EXPECT_THROW(parse("\"unterminated"), Error);
  EXPECT_THROW(parse("{1: 2}"), Error);
}

TEST(Json, ErrorsCarryPosition) {
  try {
    parse("{\n  \"a\": tru\n}");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Json, NumberFormatting) {
  EXPECT_EQ(Value(0.0001).dump(), "0.0001");
  EXPECT_EQ(Value(std::int64_t{20597}).dump(), "20597");
  EXPECT_EQ(Value(1.12e11).dump(), "1.12e+11");  // double, shortest round-trip
  Value v = parse(Value(0.1).dump());
  EXPECT_DOUBLE_EQ(v.as_double(), 0.1);
}

std::uint64_t bits_of(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

TEST(Json, EveryFiniteDoubleRoundTripsBitIdentical) {
  // Property: parse(dump(x)) is bitwise x for every finite double,
  // including both zeros, subnormals and the range extremes.
  using limits = std::numeric_limits<double>;
  std::vector<double> cases = {0.0,
                               -0.0,
                               limits::denorm_min(),
                               -limits::denorm_min(),
                               limits::min(),
                               -limits::min(),
                               limits::max(),
                               -limits::max(),
                               2.05e-308,
                               1e23};
  std::mt19937_64 rng(20231117);
  while (cases.size() < 100000) {
    const std::uint64_t bits = rng();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) cases.push_back(d);
  }
  int failures = 0;
  for (double x : cases) {
    const std::string text = Value(x).dump();
    std::uint64_t back = ~bits_of(x);
    try {
      back = bits_of(parse(text).as_double());
    } catch (const Error&) {
      // counted as a mismatch below
    }
    if (back != bits_of(x) && ++failures <= 10) {
      ADD_FAILURE() << "dump " << text << " did not parse back to the same double";
    }
  }
  EXPECT_EQ(failures, 0);
}

/// The writer's specification, kept as the differential oracle: the
/// shortest "%.{prec}g" (prec = 1..16) that sscanf reads back as d, else
/// "%.17g". dump() replaced this loop with std::to_chars and must stay
/// byte-identical to it, because cache keys, store records and golden
/// files are built from these bytes.
std::string reference_number(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[40];
    std::snprintf(shorter, sizeof shorter, "%.*g", prec, d);
    double back = 0.0;
    std::sscanf(shorter, "%lf", &back);
    if (back == d) return shorter;
  }
  return buf;
}

/// True when "%.{P}g", P the digit count of d's shortest round-trip form,
/// does not read back as d: the writer then needs more than P digits.
bool needs_more_than_shortest(double d) {
  char buf[40];
  const auto end = std::to_chars(buf, buf + sizeof buf, d, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* p = buf; p != end && *p != 'e'; ++p) digits += (*p >= '0' && *p <= '9');
  std::snprintf(buf, sizeof buf, "%.*g", digits, d);
  return std::strtod(buf, nullptr) != d;
}

TEST(Json, NumberWriterMatchesTheReferenceLoop) {
  using limits = std::numeric_limits<double>;
  std::vector<double> cases = {0.0,          -0.0,          limits::denorm_min(),
                               limits::min(), limits::max(), -limits::max(),
                               std::nextafter(limits::min(), 0.0),  // largest subnormal
                               0x1p-1017,    0.1,           1e23,
                               1.12e11,      123456789.0,   9007199254740993.0};
  // Every power of two with both neighbours. Powers of two sit at the
  // asymmetric rounding interval where the correctly rounded shortest-
  // length decimal can miss and the writer must take one more digit.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    cases.push_back(p);
    cases.push_back(std::nextafter(p, 0.0));
    cases.push_back(std::nextafter(p, limits::infinity()));
  }
  std::mt19937_64 rng(1302);
  // Seeded random bit patterns across the whole finite range.
  for (int i = 0; i < 40000;) {
    const std::uint64_t bits = rng();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) {
      cases.push_back(d);
      ++i;
    }
  }
  // Decimal-structured values: short and long decimal mantissas at every
  // exponent, the shapes request documents and reports actually carry.
  std::uniform_int_distribution<int> digit_count(1, 17);
  std::uniform_int_distribution<int> exponent(-340, 308);
  std::uniform_int_distribution<int> digit(0, 9);
  for (int i = 0; i < 20000; ++i) {
    std::string text = std::to_string(1 + digit(rng) % 9) + ".";
    for (int k = digit_count(rng); k > 1; --k) text += static_cast<char>('0' + digit(rng));
    text += "e" + std::to_string(exponent(rng));
    cases.push_back(std::strtod(text.c_str(), nullptr));
  }
  // Subnormals.
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t bits = rng() & ((std::uint64_t{1} << 52) - 1);
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof d);
    cases.push_back(d);
  }
  const std::size_t positives = cases.size();
  for (std::size_t i = 0; i < positives; ++i) cases.push_back(-cases[i]);

  int mismatches = 0;
  int bumped = 0;
  for (double x : cases) {
    const std::string expected = reference_number(x);
    const std::string actual = Value(x).dump();
    if (actual != expected && ++mismatches <= 10) {
      char hex[40];
      std::snprintf(hex, sizeof hex, "%a", x);
      ADD_FAILURE() << hex << ": dump " << actual << ", reference " << expected;
    }
    if (needs_more_than_shortest(x)) ++bumped;
  }
  EXPECT_EQ(mismatches, 0);
  // The inputs reach the branch where the shortest length is not enough;
  // 0x1p-1017 is one such value (16 shortest digits, 17 written).
  EXPECT_GT(bumped, 0);
  EXPECT_TRUE(needs_more_than_shortest(0x1p-1017));
  EXPECT_EQ(Value(0x1p-1017).dump(), "7.1202363472230444e-307");
}

TEST(Json, AppendNumberIsTheDumpFormat) {
  std::string out = "x=";
  append_number(out, 1234567.891);
  EXPECT_EQ(out, "x=1234567.891");
  out.clear();
  append_number(out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "null");
  EXPECT_EQ(Value(std::numeric_limits<std::int64_t>::min()).dump(), "-9223372036854775808");
  EXPECT_EQ(Value(std::numeric_limits<std::int64_t>::max()).dump(), "9223372036854775807");
}

TEST(Json, NumbersBeyondDoubleRangeAreRejected) {
  EXPECT_THROW(parse("1e400"), Error);
  EXPECT_THROW(parse("-1e400"), Error);
  EXPECT_THROW(parse("1e-400"), Error);  // nonzero literal that underflows to 0
  EXPECT_EQ(bits_of(parse("0e-400").as_double()), bits_of(0.0));
}

TEST(Json, ParseFileMissing) { EXPECT_THROW(parse_file("/nonexistent/x.json"), Error); }

// ------------------------------------------------------- frozen values ---

/// A seeded random document: every JSON kind, nested up to depth 4, with
/// finite doubles from random bit patterns, integral doubles, int64s of
/// every magnitude, strings that need escaping, and repeated object keys.
Value random_document(std::mt19937_64& rng, int depth = 0) {
  auto pick = [&rng](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  switch (pick(0, depth >= 4 ? 4 : 6)) {
    case 0:
      return Value(nullptr);
    case 1:
      return Value(pick(0, 1) == 1);
    case 2:
      return Value(static_cast<std::int64_t>(rng() >> pick(1, 63)) * (pick(0, 1) == 1 ? -1 : 1));
    case 3: {
      if (pick(0, 3) == 0) return Value(static_cast<double>(pick(-1000, 1000)));
      for (;;) {
        const std::uint64_t bits = rng();
        double d = 0.0;
        std::memcpy(&d, &bits, sizeof d);
        if (std::isfinite(d)) return Value(d);
      }
    }
    case 4: {
      static const char* const kPieces[] = {"a", "Z", "0", " ", "\"", "\\", "\n", "\t",
                                            "\x01", "\x1f", "/", "\xc3\xa9", "key"};
      std::string s;
      for (int i = pick(0, 8); i > 0; --i) s += kPieces[pick(0, 12)];
      return Value(std::move(s));
    }
    case 5: {
      Array a;
      for (int i = pick(0, 4); i > 0; --i) a.push_back(random_document(rng, depth + 1));
      return Value(std::move(a));
    }
    default: {
      Object o;
      for (int i = pick(0, 4); i > 0; --i) {
        o.emplace_back("k" + std::to_string(pick(0, 5)), random_document(rng, depth + 1));
      }
      return Value(std::move(o));
    }
  }
}

/// Every const accessor's answer for `v` as text: the type predicates, each
/// typed read (or the error it throws) and lookups, recursively.
std::string accessor_answers(const Value& v) {
  std::string out;
  for (bool b : {v.is_null(), v.is_bool(), v.is_number(), v.is_integer(), v.is_string(),
                 v.is_array(), v.is_object()}) {
    out += b ? '1' : '0';
  }
  auto read = [&out](auto f) {
    try {
      out += f();
    } catch (const Error& e) {
      out += std::string("!") + e.what();
    }
    out += '|';
  };
  read([&] { return std::string(v.as_bool() ? "true" : "false"); });
  read([&] {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", v.as_double());
    return std::string(buf);
  });
  read([&] { return std::to_string(v.as_int()); });
  read([&] { return std::to_string(v.as_uint()); });
  read([&] { return v.as_string(); });
  read([&] { return std::to_string(v.as_array().size()); });
  read([&] { return std::to_string(v.as_object().size()); });
  read([&] { return std::string(v.find("k0") != nullptr ? "k0" : "-"); });
  read([&] { return v.at("k1").dump(); });
  if (v.is_array()) {
    for (const Value& e : v.as_array()) out += "[" + accessor_answers(e) + "]";
  }
  if (v.is_object()) {
    for (const auto& [k, e] : v.as_object()) out += k + "{" + accessor_answers(e) + "}";
  }
  return out;
}

TEST(Json, FrozenValuesAnswerLikeTheirTrees) {
  std::mt19937_64 rng(1517);
  for (int i = 0; i < 2000; ++i) {
    const Value v = random_document(rng);
    SCOPED_TRACE(v.dump());
    const Value f = Value::frozen(v.dump());
    ASSERT_TRUE(f.is_frozen());
    EXPECT_EQ(f.dump(), v.dump());
    EXPECT_EQ(f.pretty(), v.pretty());
    EXPECT_TRUE(f == v);
    EXPECT_TRUE(v == f);
    EXPECT_EQ(accessor_answers(f), accessor_answers(v));
    // Spliced into a tree, at any depth, in either layout.
    const Value tree_form(Array{v, Value(Object{{"x", v}})});
    const Value spliced(Array{f, Value(Object{{"x", f}})});
    EXPECT_EQ(spliced.dump(), tree_form.dump());
    EXPECT_EQ(spliced.pretty(), tree_form.pretty());
    EXPECT_TRUE(spliced == tree_form);
  }
}

TEST(Json, NumbersCompareByValueNotByKind) {
  // dump() writes 3.0 as "3", which parses back as an integer.
  EXPECT_TRUE(Value(3.0) == Value(3));
  EXPECT_TRUE(Value::frozen(Value(3.0).dump()) == Value(3.0));
  EXPECT_FALSE(Value(3.5) == Value(3));
  EXPECT_FALSE(Value(0x1p63) == Value(std::numeric_limits<std::int64_t>::max()));
  EXPECT_FALSE(Value(9007199254740992.0) == Value(std::int64_t{9007199254740993}));
  EXPECT_FALSE(Value(1) == Value(true));
}

TEST(Json, FrozenBytesAreParsedOnlyOnFirstRead) {
  // Copying and dumping never parse: bytes that are not JSON survive both,
  // and only the first read reports them (and every later one, too).
  const Value broken = Value::frozen("[1,");
  const Value copy = broken;
  EXPECT_EQ(copy.dump(), "[1,");
  EXPECT_EQ(Value(Array{copy}).dump(), "[[1,]");
  EXPECT_THROW((void)copy.is_array(), Error);
  EXPECT_THROW((void)broken.find("k"), Error);
}

TEST(Json, MutatingACopyOfAFrozenValueLeavesTheSharedBytes) {
  const Value source = parse(R"({"a":[1,2.5,"x"],"b":{"c":null}})");
  const std::string bytes = source.dump();
  for (bool read_first : {false, true}) {
    SCOPED_TRACE(read_first ? "shared tree parsed before the writes" : "writes first");
    const Value shared = Value::frozen(bytes);
    if (read_first) ASSERT_TRUE(shared == source);
    Value copy = shared;
    copy.set("d", Value(true));
    copy.as_object()[0].second.as_array().push_back(Value(4));
    EXPECT_FALSE(copy.is_frozen());
    EXPECT_EQ(copy.dump(), R"({"a":[1,2.5,"x",4],"b":{"c":null},"d":true})");
    Value thawed = shared;
    EXPECT_THROW(thawed.as_array(), Error);  // a type error still thaws the copy
    EXPECT_FALSE(thawed.is_frozen());
    EXPECT_TRUE(thawed == source);

    EXPECT_TRUE(shared.is_frozen());
    EXPECT_EQ(shared.dump(), bytes);
    EXPECT_EQ(shared.pretty(), source.pretty());
    EXPECT_TRUE(shared == source);
  }
}

TEST(Json, ConcurrentFirstReadsOfOneFrozenValueSeeOneTree) {
  std::mt19937_64 rng(808);
  constexpr int kThreads = 8;
  for (int round = 0; round < 50; ++round) {
    Value source;
    while (!source.is_object() || source.as_object().empty()) source = random_document(rng);
    const Value shared = Value::frozen(source.dump());
    std::atomic<int> ready{0};
    std::vector<const Object*> seen(kThreads, nullptr);
    std::vector<std::string> pretty(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const Value mine = shared;  // copies share the bytes and the tree
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        seen[t] = &(t % 2 == 0 ? mine : shared).as_object();
        pretty[t] = mine.pretty();
      });
    }
    for (std::thread& t : threads) t.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t], seen[0]) << "round " << round << " thread " << t;
      EXPECT_EQ(pretty[t], source.pretty());
    }
    EXPECT_TRUE(shared == source);
  }
}

}  // namespace
}  // namespace qre::json
