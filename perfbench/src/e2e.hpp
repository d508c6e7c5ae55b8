// The end-to-end half of the benchmark: qre_serve as a child process,
// driven over loopback by a closed loop of two keep-alive server::Client
// connections.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// The qre_serve command line every workload uses; `dir` is a fresh, empty
/// per-server directory (port file and store live there).
std::vector<std::string> serve_flags(const std::string& dir);

/// /metrics counters the benchmark reads (cumulative; subtract two
/// snapshots for a phase).
struct ServerCounters {
  std::uint64_t lru_hits = 0;       // estimateCache.hits
  std::uint64_t lru_misses = 0;     // estimateCache.misses (store hits + computes)
  std::uint64_t evictions = 0;      // estimateCache.evictions
  std::uint64_t factory_hits = 0;   // factoryCache.hits
  std::uint64_t factory_misses = 0; // factoryCache.misses
  std::uint64_t store_hits = 0;     // store.hits
  std::uint64_t store_misses = 0;   // store.misses
};
ServerCounters operator-(const ServerCounters& a, const ServerCounters& b);

struct E2eOptions {
  std::string serve_binary;
  std::string work_dir;  // holds the per-server directories
  double seconds = 10;
  std::uint64_t seed = 1;
};

/// Server spawns per run; setup_s is the median of their set-up times.
inline constexpr std::size_t kSetups = 5;

struct E2eResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t setup_failed = 0;  // failed warm-up requests
  std::uint64_t items = 0;
  std::uint64_t response_bytes = 0;
  double wall_s = 0;
  std::vector<double> latencies_ms;  // every timed request, sorted
  std::vector<double> setup_s;       // one per spawn
  double rss_mb = 0;                 // VmHWM at the end of the timed phase
  double cpu_s = 0;                  // server user+system CPU in the timed phase
  ServerCounters counters;           // deltas over the timed phase
  std::size_t samples_compared = 0;  // responses checked byte for byte
  bool stream_exhausted = false;
  bool shape_ok = true;              // counters match the workload's stated shape
  std::vector<std::string> problems; // first failure reasons, for stderr
};

/// Sets up the server kSetups times, runs the timed phase on the
/// last one, stops it, and checks the sampled responses byte for byte.
E2eResult run_e2e(const Workload& workload, const E2eOptions& options);

/// Nearest-rank percentile of sorted `v` (p in 0..100); 0 when empty.
double percentile(const std::vector<double>& sorted, double p);
double median(std::vector<double> v);

}  // namespace perfbench
