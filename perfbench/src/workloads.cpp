#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "arith/multipliers.hpp"
#include "json/json.hpp"

namespace perfbench {
namespace {

using qre::json::Array;
using qre::json::Object;
using qre::json::Value;

const char* const kProfiles[] = {"qubit_gate_ns_e3", "qubit_gate_ns_e4", "qubit_gate_us_e3",
                                 "qubit_gate_us_e4", "qubit_maj_ns_e4",  "qubit_maj_ns_e6"};
constexpr double kBudgetLo = 1e-4;
constexpr double kBudgetHi = 1e-2;
constexpr int kBudgetSteps = 33;

/// Bounds of the paper's multipliers (standard, windowed, Karatsuba) at
/// 256..2048 bits, as multiplier_counts reports them.
constexpr double kQubitsLo = 1.2e3, kQubitsHi = 1.64e4;
constexpr double kCcixLo = 1.8e4, kCcixHi = 5.0e6;
constexpr double kMeasLo = 2.6e4, kMeasHi = 5.0e6;

/// ~3x the server's default EstimateCache capacity (4096).
constexpr std::size_t kMixedPool = 12288;
constexpr std::size_t kMixedFrontierEvery = 5;  // 1 request in 5 is a frontier job
/// A flat head: with 0.9 the few most popular frontier jobs (whose point
/// counts, and so dump cost, vary a lot) set p90, which then moved ±25%
/// between seeds.
constexpr double kZipfExponent = 0.5;
constexpr std::size_t kMixedWarmup = 3000;

/// splitmix64: small, fast, and identical on every platform (the standard
/// distributions are not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  double log_uniform(double lo, double hi) {
    return std::exp(std::log(lo) + uniform() * (std::log(hi) - std::log(lo)));
  }

 private:
  std::uint64_t state_;
};

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t name_hash(const std::string& name) {
  return fnv1a(0xcbf29ce484222325ULL, name.data(), name.size());
}

Value sweep_axes() {
  Array profiles;
  for (const char* p : kProfiles) {
    Object o;
    o.emplace_back("name", p);
    profiles.emplace_back(std::move(o));
  }
  Object budgets;
  budgets.emplace_back("start", kBudgetLo);
  budgets.emplace_back("stop", kBudgetHi);
  budgets.emplace_back("steps", kBudgetSteps);
  budgets.emplace_back("scale", "log");
  Object sweep;
  sweep.emplace_back("qubitParams", std::move(profiles));
  sweep.emplace_back("errorBudget", std::move(budgets));
  return Value(std::move(sweep));
}

std::string sweep_document(Value counts) {
  Object doc;
  doc.emplace_back("logicalCounts", std::move(counts));
  doc.emplace_back("sweep", sweep_axes());
  return Value(std::move(doc)).dump();
}

Value random_counts(Rng& rng) {
  Object c;
  c.emplace_back("numQubits", static_cast<std::uint64_t>(rng.log_uniform(kQubitsLo, kQubitsHi)));
  c.emplace_back("ccixCount", static_cast<std::uint64_t>(rng.log_uniform(kCcixLo, kCcixHi)));
  c.emplace_back("measurementCount",
                 static_cast<std::uint64_t>(rng.log_uniform(kMeasLo, kMeasHi)));
  return Value(std::move(c));
}

std::string point_document(Rng& rng, bool frontier) {
  Object doc;
  if (frontier) doc.emplace_back("schemaVersion", 2);
  doc.emplace_back("logicalCounts", random_counts(rng));
  Object qubit;
  qubit.emplace_back("name", kProfiles[rng.below(std::size(kProfiles))]);
  doc.emplace_back("qubitParams", std::move(qubit));
  const double step = static_cast<double>(rng.below(kBudgetSteps)) / (kBudgetSteps - 1);
  doc.emplace_back("errorBudget", kBudgetLo * std::pow(kBudgetHi / kBudgetLo, step));
  if (frontier) {
    Object f;
    f.emplace_back("maxProbes", 24);
    f.emplace_back("qubitTolerance", 0.005);
    f.emplace_back("runtimeTolerance", 0.005);
    doc.emplace_back("frontier", std::move(f));
  }
  return Value(std::move(doc)).dump();
}

std::size_t stream_length(double seconds, double per_second, std::size_t floor) {
  return floor + static_cast<std::size_t>(std::ceil(seconds * per_second));
}

// sweep_warm: three dense sweeps over the paper's multipliers, primed in
// set-up and repeated in random order.
void build_sweep_warm(Workload& w, Rng& rng, double seconds) {
  const std::uint64_t widths[] = {256, 512, 1024};
  for (qre::MultiplierKind kind : {qre::MultiplierKind::kStandard, qre::MultiplierKind::kWindowed,
                                   qre::MultiplierKind::kKaratsuba}) {
    const std::uint64_t bits = widths[rng.below(std::size(widths))];
    w.pool.push_back({RequestClass::kSweep,
                      sweep_document(qre::multiplier_counts(kind, bits).to_json())});
  }
  w.warmup = {0, 1, 2};
  const std::size_t n = stream_length(seconds, 200, 64);
  for (auto& stream : w.streams) {
    for (std::size_t i = 0; i < n; ++i) stream.push_back(static_cast<std::uint32_t>(rng.below(3)));
  }
}

// sweep_cold: every request a fresh sweep over seeded base counts, so no
// grid point repeats; warm-up uses two extra sweeps outside the timed set.
void build_sweep_cold(Workload& w, Rng& rng, double seconds) {
  const std::size_t n = stream_length(seconds, 100, 16);
  for (std::size_t i = 0; i < kConnections * n + kConnections; ++i) {
    w.pool.push_back({RequestClass::kSweep, sweep_document(random_counts(rng))});
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    w.warmup.push_back(static_cast<std::uint32_t>(kConnections * n + c));
    for (std::size_t i = 0; i < n; ++i) {
      w.streams[c].push_back(static_cast<std::uint32_t>(i * kConnections + c));
    }
  }
}

// mixed_small: single estimates and 1-in-5 frontier jobs, Zipf-popular
// within each class, over a pool ~3x the estimate cache.
void build_mixed_small(Workload& w, Rng& rng, double seconds) {
  const std::size_t frontier_count = kMixedPool / kMixedFrontierEvery;
  const std::size_t single_count = kMixedPool - frontier_count;
  for (std::size_t i = 0; i < kMixedPool; ++i) {
    const bool frontier = i >= single_count;
    w.pool.push_back({frontier ? RequestClass::kFrontier : RequestClass::kSingle,
                      point_document(rng, frontier)});
  }
  auto zipf_cdf = [](std::size_t n) {
    std::vector<double> cdf(n);
    double sum = 0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf[k] = sum;
    }
    for (double& v : cdf) v /= sum;
    return cdf;
  };
  const std::vector<double> single_cdf = zipf_cdf(single_count);
  const std::vector<double> frontier_cdf = zipf_cdf(frontier_count);
  auto draw = [&]() -> std::uint32_t {
    const bool frontier = rng.below(kMixedFrontierEvery) == 0;
    const std::vector<double>& cdf = frontier ? frontier_cdf : single_cdf;
    const double u = rng.uniform();
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return static_cast<std::uint32_t>((frontier ? single_count : 0) +
                                      std::min(rank, cdf.size() - 1));
  };
  for (std::size_t i = 0; i < kMixedWarmup; ++i) w.warmup.push_back(draw());
  const std::size_t n = stream_length(seconds, 5000, 1000);
  for (auto& stream : w.streams) {
    for (std::size_t i = 0; i < n; ++i) stream.push_back(draw());
  }
}

}  // namespace

const char* class_name(RequestClass cls) {
  switch (cls) {
    case RequestClass::kSweep: return "sweep";
    case RequestClass::kSingle: return "single";
    case RequestClass::kFrontier: return "frontier";
  }
  return "?";
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"sweep_warm", "sweep_cold", "mixed_small"};
  return kNames;
}

Workload make_workload(const std::string& name, std::uint64_t seed, double seconds) {
  Workload w;
  w.name = name;
  Rng rng(name_hash(name) ^ (seed * 0x9e3779b97f4a7c15ULL));
  if (name == "sweep_warm") {
    build_sweep_warm(w, rng, seconds);
  } else if (name == "sweep_cold") {
    build_sweep_cold(w, rng, seconds);
  } else if (name == "mixed_small") {
    build_mixed_small(w, rng, seconds);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  std::uint64_t h = name_hash(name);
  for (const Request& r : w.pool) h = fnv1a(h, r.body.data(), r.body.size() + 1);
  auto hash_indices = [&h](const std::vector<std::uint32_t>& v) {
    h = fnv1a(h, v.data(), v.size() * sizeof(std::uint32_t));
    h = fnv1a(h, "|", 1);
  };
  hash_indices(w.warmup);
  for (const auto& stream : w.streams) hash_indices(stream);
  w.digest = h;
  return w;
}

std::vector<std::uint32_t> interleaved(const Workload& w, std::size_t limit) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; out.size() < limit; ++i) {
    bool any = false;
    for (const auto& stream : w.streams) {
      if (i < stream.size() && out.size() < limit) {
        out.push_back(stream[i]);
        any = true;
      }
    }
    if (!any) break;
  }
  return out;
}

}  // namespace perfbench
