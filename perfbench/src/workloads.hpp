// Seeded request generators for the end-to-end qre_serve benchmark.
//
// A workload is a pool of distinct job documents plus, for each of the two
// client connections, the sequence of pool indices it sends in the timed
// phase, and the warm-up sequence sent during set-up. Everything is a pure
// function of (workload name, seed): the same seed gives the same documents
// and the same order, which digest() fingerprints.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// What a response must look like (see oracle.hpp).
enum class RequestClass { kSweep, kSingle, kFrontier };

const char* class_name(RequestClass cls);

struct Request {
  RequestClass cls = RequestClass::kSingle;
  std::string body;  // the JSON job document exactly as sent
};

inline constexpr std::size_t kConnections = 2;
/// 6 qubit profiles x 33 log-spaced error budgets.
inline constexpr std::size_t kSweepPoints = 198;

struct Workload {
  std::string name;
  std::vector<Request> pool;
  /// Pool indices sent during set-up, split round-robin over the connections.
  std::vector<std::uint32_t> warmup;
  /// Per-connection pool indices for the timed phase. Long enough that no
  /// stream runs dry within the timed window on current hardware; a stream
  /// that does run dry ends that connection's loop early.
  std::vector<std::uint32_t> streams[kConnections];
  /// FNV-1a over the name, every pool body and every index sequence.
  std::uint64_t digest = 0;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Builds workload `name` for `seed`, sizing the timed streams for a run of
/// `seconds`. Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, double seconds);

/// The timed streams merged connection by connection (c0[0], c1[0], c0[1],
/// ...): the order the in-process replay uses.
std::vector<std::uint32_t> interleaved(const Workload& w, std::size_t limit);

}  // namespace perfbench
