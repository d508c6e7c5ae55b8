#include "e2e.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "json/json.hpp"
#include "oracle.hpp"
#include "server/client.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// A spawned qre_serve. The destructor kills it (SIGKILL: the benchmark
/// needs nothing from the graceful drain, which would persist the whole
/// store to disk) and reaps it.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& dir) {
    std::vector<std::string> args = serve_flags(dir);
    args.insert(args.begin(), binary);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = dir + "/serve.log";
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Child: async-signal-safe calls only until exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    try {
      wait_ready(dir);
    } catch (...) {
      stop();
      throw;
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  void wait_ready(const std::string& dir) {
    const auto start = Clock::now();
    while (seconds_since(start) < 30) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("qre_serve exited during start-up (see " + dir + "/serve.log)");
      }
      if (port_ == 0) {
        std::ifstream in(dir + "/port");
        std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
        if (!text.empty() && text.back() == '\n') {
          port_ = static_cast<std::uint16_t>(std::stoi(text));
        }
      }
      if (port_ != 0) {
        qre::server::Client probe("127.0.0.1", port_, qre::server::RetryPolicy{1});
        if (probe.get("/healthz").status == 200) return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("qre_serve not ready within 30 s");
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// utime + stime of `pid`, in seconds (/proc/<pid>/stat fields 14 and 15).
double process_cpu_s(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  std::istringstream rest(stat.substr(stat.rfind(')') + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of `pid`, in MB.
double peak_rss_mb(pid_t pid) {
  std::istringstream status(read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

ServerCounters read_counters(qre::server::Client& client) {
  const auto r = client.get("/metrics");
  if (!r.ok || r.status != 200) throw std::runtime_error("GET /metrics failed: " + r.error);
  const qre::json::Value m = qre::json::parse(r.body);
  auto get = [&m](const char* block, const char* key) {
    const qre::json::Value* b = m.find(block);
    const qre::json::Value* v = b != nullptr ? b->find(key) : nullptr;
    return v != nullptr && v->is_number() ? v->as_uint() : 0;
  };
  ServerCounters c;
  c.lru_hits = get("estimateCache", "hits");
  c.lru_misses = get("estimateCache", "misses");
  c.evictions = get("estimateCache", "evictions");
  c.factory_hits = get("factoryCache", "hits");
  c.factory_misses = get("factoryCache", "misses");
  c.store_hits = get("store", "hits");
  c.store_misses = get("store", "misses");
  return c;
}

/// One connection's share of a phase.
struct LoopStats {
  std::uint64_t attempted = 0, failed = 0, items = 0, bytes = 0;
  std::vector<double> latencies_ms;
  std::vector<std::string> problems;
  std::vector<std::pair<std::uint32_t, std::string>> kept;  // (pool index, body)
  bool exhausted = false;
  Clock::time_point end;
};

constexpr std::size_t kMaxKeptPerConnection = 6;
constexpr std::size_t kMaxProblems = 5;

/// Sends `indices` over `client` until they run out or `deadline` passes
/// (checked before each send; the request in flight completes). Keeps the
/// first response of each request class and a seeded 1-in-97 sample for the
/// byte-for-byte comparison.
LoopStats run_loop(qre::server::Client& client, const Workload& w,
                   const std::vector<std::uint32_t>& indices, Clock::time_point deadline,
                   bool timed, std::uint64_t sample_salt) {
  LoopStats s;
  bool seen[3] = {false, false, false};
  const std::vector<qre::server::Header> headers = {{"Content-Type", "application/json"}};
  std::size_t i = 0;
  for (; i < indices.size(); ++i) {
    if (timed && Clock::now() >= deadline) break;
    const Request& req = w.pool[indices[i]];
    const auto t0 = Clock::now();
    const auto r = client.post("/v2/estimate", req.body, headers);
    const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    ++s.attempted;
    s.latencies_ms.push_back(ms);
    s.bytes += r.body.size();
    const Verdict v = r.ok ? check_response(req.cls, r.status, r.body)
                           : Verdict{false, 0, "transport: " + r.error};
    if (!v.ok) {
      ++s.failed;
      if (s.problems.size() < kMaxProblems) {
        s.problems.push_back(std::string(class_name(req.cls)) + " request: " + v.reason);
      }
      continue;
    }
    s.items += v.items;
    auto& first = seen[static_cast<int>(req.cls)];
    const bool sampled = !first || ((i + 1) * 0x9e3779b97f4a7c15ULL ^ sample_salt) % 97 == 0;
    if (sampled && s.kept.size() < kMaxKeptPerConnection) {
      s.kept.emplace_back(indices[i], r.body);
      first = true;
    }
  }
  s.exhausted = timed && i == indices.size();
  s.end = Clock::now();
  return s;
}

using Clients = std::vector<std::unique_ptr<qre::server::Client>>;

/// Runs one phase on all connections; `lists[c]` goes to connection c.
std::vector<LoopStats> run_phase(Clients& clients, const Workload& w,
                                 const std::vector<std::uint32_t> (&lists)[kConnections],
                                 Clock::time_point deadline, bool timed, std::uint64_t salt) {
  std::vector<LoopStats> stats(kConnections);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      stats[c] = run_loop(*clients[c], w, lists[c], deadline, timed, salt + c);
    });
  }
  for (std::thread& t : threads) t.join();
  return stats;
}

}  // namespace

std::vector<std::string> serve_flags(const std::string& dir) {
  return {"--port", "0", "--port-file", dir + "/port", "--jobs", "2", "--cache-dir",
          dir + "/cache"};
}

ServerCounters operator-(const ServerCounters& a, const ServerCounters& b) {
  ServerCounters d;
  d.lru_hits = a.lru_hits - b.lru_hits;
  d.lru_misses = a.lru_misses - b.lru_misses;
  d.evictions = a.evictions - b.evictions;
  d.factory_hits = a.factory_hits - b.factory_hits;
  d.factory_misses = a.factory_misses - b.factory_misses;
  d.store_hits = a.store_hits - b.store_hits;
  d.store_misses = a.store_misses - b.store_misses;
  return d;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * sorted.size()));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

E2eResult run_e2e(const Workload& w, const E2eOptions& options) {
  E2eResult result;
  std::vector<std::uint32_t> warmup[kConnections];
  for (std::size_t i = 0; i < w.warmup.size(); ++i) {
    warmup[i % kConnections].push_back(w.warmup[i]);
  }
  auto note = [&result](const std::vector<LoopStats>& phase, const char* label) {
    for (const LoopStats& s : phase) {
      for (const std::string& p : s.problems) {
        if (result.problems.size() < kMaxProblems) result.problems.push_back(label + (": " + p));
      }
    }
  };

  std::unique_ptr<ServerProcess> server;
  Clients clients;
  for (std::size_t k = 0; k < kSetups; ++k) {
    clients.clear();
    server.reset();
    const std::string dir = options.work_dir + "/serve-" + std::to_string(k);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto start = Clock::now();
    server = std::make_unique<ServerProcess>(options.serve_binary, dir);
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.push_back(std::make_unique<qre::server::Client>(
          "127.0.0.1", server->port(), qre::server::RetryPolicy{1}));
    }
    const auto warm = run_phase(clients, w, warmup, start, false, options.seed);
    result.setup_s.push_back(seconds_since(start));
    for (const LoopStats& s : warm) result.setup_failed += s.failed;
    note(warm, "warm-up");
  }

  qre::server::Client control("127.0.0.1", server->port(), qre::server::RetryPolicy{1});
  const ServerCounters before = read_counters(control);
  const double cpu_before = process_cpu_s(server->pid());
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(options.seconds));
  const auto timed = run_phase(clients, w, w.streams, deadline, true, options.seed);
  const double cpu_after = process_cpu_s(server->pid());
  result.rss_mb = peak_rss_mb(server->pid());
  result.counters = read_counters(control) - before;
  result.cpu_s = cpu_after - cpu_before;
  clients.clear();
  server.reset();

  Clock::time_point end = start;
  for (const LoopStats& s : timed) {
    result.attempted += s.attempted;
    result.failed += s.failed;
    result.items += s.items;
    result.response_bytes += s.bytes;
    result.latencies_ms.insert(result.latencies_ms.end(), s.latencies_ms.begin(),
                               s.latencies_ms.end());
    result.stream_exhausted = result.stream_exhausted || s.exhausted;
    end = std::max(end, s.end);
  }
  note(timed, "timed");
  result.wall_s = std::chrono::duration<double>(end - start).count();
  std::sort(result.latencies_ms.begin(), result.latencies_ms.end());

  // Byte-for-byte comparison of the kept sample, outside the timed window.
  for (const LoopStats& s : timed) {
    for (const auto& [index, body] : s.kept) {
      ++result.samples_compared;
      const std::string diff = compare_with_reference(w.pool[index].body, body);
      if (!diff.empty()) {
        ++result.failed;
        if (result.problems.size() < kMaxProblems) result.problems.push_back("oracle: " + diff);
      }
    }
  }

  // The shape each workload promises (see README.md): a violation means the
  // workload no longer exercises the layers it was built for.
  const ServerCounters& d = result.counters;
  const std::uint64_t store_lookups = d.store_hits + d.store_misses;
  if (w.name == "sweep_warm") {
    result.shape_ok =
        d.lru_hits > 0 && d.lru_misses == 0 && d.factory_misses == 0 && store_lookups == 0;
  } else if (w.name == "sweep_cold") {
    result.shape_ok = d.lru_hits == 0 && d.lru_misses > 0;
  } else if (w.name == "mixed_small") {
    result.shape_ok = d.lru_hits > 0 && d.store_hits > 0 && d.lru_misses > d.store_hits;
  }
  if (!result.shape_ok && result.problems.size() < kMaxProblems) {
    result.problems.push_back("cache counters do not match the workload's stated shape");
  }
  return result;
}

}  // namespace perfbench
