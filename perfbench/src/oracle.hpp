// Response oracle for the end-to-end benchmark.
//
// Two tiers. check_response() runs on EVERY response inside the timed loop,
// so it is a byte scan, not a parse: status 200, the success envelope with
// no diagnostics, the expected number of estimate documents, and no
// per-item "error" entry anywhere. compare_with_reference() runs after the
// timed window on a seeded sample: it recomputes the document in process
// through json::parse -> EstimateRequest::parse -> api::run and requires
// the server's body to match the in-process envelope byte for byte (only
// "batchStats", whose cache counters depend on server history, is taken
// from the server's copy).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace perfbench {

struct Verdict {
  bool ok = false;
  std::size_t items = 0;  // estimate documents delivered (grid/frontier points, singles)
  std::string reason;     // why !ok
};

Verdict check_response(RequestClass cls, int status, std::string_view body);

/// Empty when `server_body` equals the in-process result for `document`;
/// otherwise a description of the first difference.
std::string compare_with_reference(const std::string& document, const std::string& server_body);

/// Corrupts a known-good response in several ways and returns the number of
/// corruptions check_response() or compare_with_reference() failed to flag
/// (0 = the oracle catches all of them). Prints each case to stderr.
int oracle_self_test();

}  // namespace perfbench
