#include "oracle.hpp"

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <vector>

#include "api/api.hpp"
#include "json/json.hpp"

namespace perfbench {
namespace {

constexpr std::string_view kSuccessPrefix =
    R"({"schemaVersion":2,"success":true,"diagnostics":[],"result":{)";
constexpr std::string_view kReportKey = R"("physicalCounts":)";

std::size_t count_of(std::string_view haystack, std::string_view needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string_view::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// `"key":value` followed by a delimiter, so 19 does not match 198.
bool has_field(std::string_view body, std::string_view key, std::size_t value) {
  std::string needle = "\"";
  needle.append(key).append("\":").append(std::to_string(value));
  for (std::size_t at = body.find(needle); at != std::string_view::npos;
       at = body.find(needle, at + 1)) {
    const std::size_t end = at + needle.size();
    if (end < body.size() && (body[end] == ',' || body[end] == '}')) return true;
  }
  return false;
}

qre::json::Value* member(qre::json::Value& object, std::string_view key) {
  if (!object.is_object()) return nullptr;
  for (auto& [k, v] : object.as_object()) {
    if (k == key) return &v;
  }
  return nullptr;
}

}  // namespace

Verdict check_response(RequestClass cls, int status, std::string_view body) {
  Verdict v;
  if (status != 200) {
    v.reason = "HTTP status " + std::to_string(status);
    return v;
  }
  if (body.substr(0, kSuccessPrefix.size()) != kSuccessPrefix) {
    v.reason = "not a success envelope with empty diagnostics";
    return v;
  }
  if (body.size() < 3 || body.substr(body.size() - 3) != "}}\n") {
    v.reason = "truncated body";
    return v;
  }
  if (body.find(R"("error":)") != std::string_view::npos) {
    v.reason = "per-item error entry";
    return v;
  }
  const std::size_t n = count_of(body, kReportKey);
  switch (cls) {
    case RequestClass::kSweep:
      if (n != kSweepPoints || !has_field(body, "numItems", kSweepPoints) ||
          !has_field(body, "numErrors", 0)) {
        v.reason = "sweep delivered " + std::to_string(n) + " of " +
                   std::to_string(kSweepPoints) + " estimates";
        return v;
      }
      break;
    case RequestClass::kSingle:
      if (n != 1) {
        v.reason = "single estimate delivered " + std::to_string(n) + " reports";
        return v;
      }
      break;
    case RequestClass::kFrontier:
      if (n == 0 || !has_field(body, "numPoints", n)) {
        v.reason = "frontier point count disagrees with frontierStats.numPoints";
        return v;
      }
      break;
  }
  v.ok = true;
  v.items = n;
  return v;
}

std::string compare_with_reference(const std::string& document, const std::string& server_body) {
  qre::json::Value expected;
  try {
    qre::service::EngineOptions options;
    options.num_workers = 1;
    const auto request = qre::api::EstimateRequest::parse(qre::json::parse(document));
    expected = qre::api::run(request, options).to_json();
  } catch (const std::exception& e) {
    return std::string("in-process reference failed: ") + e.what();
  }
  // batchStats counts cache hits, which depend on what the server saw
  // before; everything else must match byte for byte.
  if (qre::json::Value* result = member(expected, "result");
      result != nullptr && result->find("batchStats") != nullptr) {
    try {
      const qre::json::Value served = qre::json::parse(server_body);
      const qre::json::Value* served_result = served.find("result");
      const qre::json::Value* served_stats =
          served_result != nullptr ? served_result->find("batchStats") : nullptr;
      if (served_stats == nullptr) return "server response has no result.batchStats";
      result->set("batchStats", *served_stats);
    } catch (const std::exception& e) {
      return std::string("server body is not JSON: ") + e.what();
    }
  }
  const std::string want = expected.dump() + "\n";
  if (want == server_body) return "";
  std::size_t at = 0;
  while (at < want.size() && at < server_body.size() && want[at] == server_body[at]) ++at;
  const std::size_t from = at < 40 ? 0 : at - 40;
  return "differs from the in-process result at byte " + std::to_string(at) + ": expected '" +
         want.substr(from, 80) + "', got '" + server_body.substr(from, 80) + "'";
}

int oracle_self_test() {
  const Workload w = make_workload("sweep_warm", 1, 0.0);
  const std::string& document = w.pool.front().body;
  qre::service::EngineOptions options;
  options.num_workers = 1;
  const std::string good =
      qre::api::run(qre::api::EstimateRequest::parse(qre::json::parse(document)), options)
          .to_json()
          .dump() +
      "\n";
  auto replaced = [&good](std::string_view from, std::string_view to) {
    std::string s = good;
    const std::size_t at = s.find(from);
    if (at != std::string::npos) s.replace(at, from.size(), to);
    return s;
  };
  // A digit inside the first report's physicalQubits count: still a
  // well-formed success envelope, so only the byte comparison can see it.
  std::string wrong_number = good;
  const std::size_t key = wrong_number.find(R"("physicalQubits":)");
  if (key == std::string::npos) throw std::runtime_error("reference sweep has no physicalQubits");
  char& d = wrong_number[key + 17];
  d = d == '9' ? '1' : static_cast<char>(d + 1);

  struct Case {
    const char* name;
    int status;
    std::string body;
    bool must_pass;
  };
  const std::vector<Case> cases = {
      {"intact response", 200, good, true},
      {"HTTP 503", 503, good, false},
      {"success flipped to false", 200, replaced(R"("success":true)", R"("success":false)"),
       false},
      {"truncated body", 200, good.substr(0, good.size() / 2), false},
      {"per-item error entry", 200,
       replaced(R"({"physicalCounts":)", R"({"error":{"code":"x"},"physicalCounts":)"), false},
      {"missing grid point", 200, replaced(R"("physicalCounts":)", R"("physicalCountz":)"),
       false},
      {"one digit changed", 200, wrong_number, false},
  };
  int missed = 0;
  for (const Case& c : cases) {
    const Verdict v = check_response(RequestClass::kSweep, c.status, c.body);
    std::string why = v.ok ? compare_with_reference(document, c.body) : v.reason;
    const bool passed = v.ok && why.empty();
    const bool right = passed == c.must_pass;
    if (!right) ++missed;
    std::fprintf(stderr, "oracle self-test: %-26s -> %s%s%s\n", c.name,
                 passed ? "accepted" : "FAILED", why.empty() ? "" : ": ",
                 why.substr(0, 100).c_str());
    if (!right) std::fprintf(stderr, "oracle self-test: ^ wrong verdict\n");
  }
  return missed;
}

}  // namespace perfbench
