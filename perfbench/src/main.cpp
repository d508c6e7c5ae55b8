// qre_perfbench — end-to-end benchmark of qre_serve.
//
//   qre_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --serve PATH/TO/qre_serve --out DIR [--commit SHA]
//   qre_perfbench --self-test
//
// perfbench/run.py builds this binary and qre_serve from the checkout and
// runs it; README.md in this directory documents workloads and metrics.
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics (plus the traced in-process replay) with
// --trace 1.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/version.hpp"
#include "e2e.hpp"
#include "json/json.hpp"
#include "ledger.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using qre::json::Array;
using qre::json::Object;
using qre::json::Value;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve;
  std::string out;
  std::string commit = "unknown";
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qre_perfbench: %s\nusage: qre_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve QRE_SERVE --out DIR [--commit SHA]\n"
               "       qre_perfbench --self-test\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") a.workload = next();
    else if (arg == "--seed") a.seed = std::stoull(next());
    else if (arg == "--seconds") a.seconds = std::stod(next());
    else if (arg == "--trace") a.trace = next() == "1";
    else if (arg == "--serve") a.serve = next();
    else if (arg == "--out") a.out = next();
    else if (arg == "--commit") a.commit = next();
    else if (arg == "--self-test") a.self_test = true;
    else usage(("unknown argument " + arg).c_str());
  }
  if (a.self_test) return a;
  if (a.workload.empty() || a.serve.empty() || a.out.empty()) usage("missing arguments");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

Value environment(const Args& a) {
  Array flags;
  for (const std::string& f : perfbench::serve_flags("<fresh empty dir>")) flags.emplace_back(f);
  Object env;
  env.emplace_back("nproc", static_cast<std::int64_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  env.emplace_back("cpuModel", cpu_model());
  env.emplace_back("compiler", PERFBENCH_COMPILER);
  env.emplace_back("buildType", PERFBENCH_BUILD_TYPE);
  env.emplace_back("gitCommit", a.commit);
  env.emplace_back("qreVersion", qre::version_string());
  env.emplace_back("qreServeFlags", std::move(flags));
  env.emplace_back("connections", static_cast<std::int64_t>(perfbench::kConnections));
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    env.emplace_back("warning", "not a Release build: timings are not comparable");
  }
  return Value(std::move(env));
}

/// Metrics in print order: (name, value, unit).
using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

Value metrics_json(const Metrics& metrics) {
  Object out;
  for (const auto& [name, value, unit] : metrics) {
    Object m;
    m.emplace_back("value", value);
    m.emplace_back("unit", unit);
    out.emplace_back(name, std::move(m));
  }
  return Value(std::move(out));
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

int run(const Args& a) {
  const perfbench::Workload w = perfbench::make_workload(a.workload, a.seed, a.seconds);
  std::filesystem::create_directories(a.out);
  const std::string prefix = a.out + "/" + a.workload + "-seed" + std::to_string(a.seed);
  const std::string work = a.out + "/work-" + a.workload + "-" + std::to_string(::getpid());

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(w.digest));
  std::printf("perfbench: workload=%s seed=%llu traffic_digest=%s pool=%zu warmup=%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), digest, w.pool.size(),
              w.warmup.size());
  const Value env = environment(a);
  Object env_line;
  env_line.emplace_back("environment", env);
  std::printf("%s\n", Value(std::move(env_line)).dump().c_str());
  if (env.find("warning") != nullptr) std::fprintf(stderr, "WARNING: not a Release build\n");
  std::fflush(stdout);

  perfbench::E2eOptions options;
  options.serve_binary = a.serve;
  options.work_dir = work;
  options.seconds = a.seconds;
  options.seed = a.seed;
  const perfbench::E2eResult e = perfbench::run_e2e(w, options);
  for (const std::string& p : e.problems) std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  if (e.stream_exhausted) {
    std::fprintf(stderr, "perfbench: a request stream ran out before the timed window ended\n");
  }

  const double p50 = perfbench::percentile(e.latencies_ms, 50);
  const double p90 = perfbench::percentile(e.latencies_ms, 90);
  const double failed_share = share(e.failed, e.attempted);
  const perfbench::ServerCounters& d = e.counters;
  std::printf(
      "perfbench: %s items_per_s=%.1f latency_p50_ms=%.3f latency_p90_ms=%.3f "
      "(samples=%zu) failed_share=%.4f setup_s=%.3f server_rss_mb=%.1f "
      "server_cpu_us_per_item=%.2f requests=%llu items=%llu compared=%zu\n"
      "perfbench: %s /metrics deltas: lru_hits=%llu lru_misses=%llu evictions=%llu "
      "store_hits=%llu store_misses=%llu factory_hits=%llu factory_misses=%llu shape_ok=%d\n",
      w.name.c_str(), static_cast<double>(e.items) / e.wall_s, p50, p90, e.latencies_ms.size(),
      failed_share, perfbench::median(e.setup_s), e.rss_mb,
      1e6 * e.cpu_s / static_cast<double>(e.items), static_cast<unsigned long long>(e.attempted),
      static_cast<unsigned long long>(e.items), e.samples_compared, w.name.c_str(),
      static_cast<unsigned long long>(d.lru_hits), static_cast<unsigned long long>(d.lru_misses),
      static_cast<unsigned long long>(d.evictions), static_cast<unsigned long long>(d.store_hits),
      static_cast<unsigned long long>(d.store_misses),
      static_cast<unsigned long long>(d.factory_hits),
      static_cast<unsigned long long>(d.factory_misses), e.shape_ok ? 1 : 0);

  const double items = static_cast<double>(e.items);
  Metrics metrics;
  if (!a.trace) {
    metrics = {
        {"items_per_s", items / e.wall_s, "items/s"},
        {"latency_p50_ms", p50, "ms"},
        {"ok_share", 1.0 - failed_share, "share"},
        {"setup_s", perfbench::median(e.setup_s), "s"},
        {"server_rss_mb", e.rss_mb, "MB"},
        {"server_cpu_us_per_item", items > 0 ? 1e6 * e.cpu_s / items : 0.0, "us"},
    };
  } else {
    // Sized so each of the two in-process replays takes a few seconds;
    // mixed_small first fast-forwards into the part of the timed phase
    // where evicted entries come back from the store.
    const bool mixed = w.name == "mixed_small";
    const std::size_t skip = mixed ? 2000 : 0;
    const std::size_t measured = mixed ? 2000 : w.name == "sweep_cold" ? 16 : 24;
    const perfbench::LedgerResult l = perfbench::run_ledger(w, skip, measured, work, prefix);
    std::ifstream table(prefix + ".ledger.txt");
    std::fprintf(stderr, "%s", std::string((std::istreambuf_iterator<char>(table)),
                                           std::istreambuf_iterator<char>())
                                   .c_str());
    const double reqs = static_cast<double>(e.attempted);
    const std::uint64_t computes = d.lru_misses - std::min(d.lru_misses, d.store_hits);
    metrics = {
        {"latency_samples", static_cast<double>(e.latencies_ms.size()), "count"},
        {"latency_p90_ms", p90, "ms"},
        {"failed_share", failed_share, "share"},
        {"server.overhead_us_per_req", p50 * 1e3 - l.pipeline_p50_us, "us"},
        {"server.response_bytes_per_item", items > 0 ? e.response_bytes / items : 0.0, "bytes"},
        {"json.parse_us_per_req", l.json_parse_us_per_req, "us"},
        {"json.dump_us_per_item", l.json_dump_us_per_item, "us"},
        {"api.request_parse_us_per_req", l.request_parse_us_per_req, "us"},
        {"api.envelope_us_per_req", l.envelope_us_per_req, "us"},
        {"api.run_us_per_req", l.run_us_per_req, "us"},
        {"service.expand_us_per_req", l.expand_us_per_req, "us"},
        {"service.kernel_plan_us_per_req", l.kernel_plan_us_per_req, "us"},
        {"service.cache_hit_share", share(d.lru_hits, d.lru_hits + d.lru_misses), "share"},
        {"service.cache_evictions_per_req", reqs > 0 ? d.evictions / reqs : 0.0, "1/req"},
        {"service.cache_hit_us_per_item", l.cache_hit_us_per_item, "us"},
        {"service.lru_hits", static_cast<double>(d.lru_hits), "count"},
        {"service.computes", static_cast<double>(computes), "count"},
        {"core.estimate_us_per_item", l.estimate_us_per_item, "us"},
        {"tfactory.search_us_per_call", l.tfactory_search_us_per_call, "us"},
        {"tfactory.cache_hit_share", share(d.factory_hits, d.factory_hits + d.factory_misses),
         "share"},
        {"tfactory.cache_misses", static_cast<double>(d.factory_misses), "count"},
        {"report.render_us_per_item", l.render_us_per_item, "us"},
        {"frontier.explore_us_per_job", l.explore_us_per_job, "us"},
        {"frontier.probes_per_job", l.probes_per_job, "count"},
        {"store.hit_share", share(d.store_hits, d.store_hits + d.store_misses), "share"},
        {"store.hits", static_cast<double>(d.store_hits), "count"},
        {"store.fetch_us_per_hit", l.store_fetch_us_per_hit, "us"},
        {"store.record_us_per_write", l.store_record_us_per_write, "us"},
        {"unattributed_us_per_req", l.unattributed_us_per_req, "us"},
        {"trace.overhead_share", l.trace_overhead_share, "share"},
    };
  }
  std::filesystem::remove_all(work);

  Object result;
  result.emplace_back("correct", e.failed == 0 && e.setup_failed == 0 && e.shape_ok);
  result.emplace_back("attempted", static_cast<std::uint64_t>(e.attempted));
  result.emplace_back("failed", static_cast<std::uint64_t>(e.failed));
  result.emplace_back("metrics", metrics_json(metrics));
  const std::string line = Value(std::move(result)).dump();
  Object record;
  record.emplace_back("environment", env);
  record.emplace_back("trafficDigest", std::string(digest));
  record.emplace_back("result", qre::json::parse(line));
  std::ofstream(prefix + (a.trace ? ".layers.json" : ".e2e.json"))
      << Value(std::move(record)).pretty() << "\n";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    if (a.self_test) {
      const int missed = perfbench::oracle_self_test();
      std::fprintf(stderr, "oracle self-test: %s\n", missed == 0 ? "OK" : "FAILED");
      return missed == 0 ? 0 : 1;
    }
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qre_perfbench: %s\n", e.what());
    return 1;
  }
}
