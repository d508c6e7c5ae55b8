// Tests of the sweep batch-estimation kernel (service layer): bit-identity
// against the scalar per-item runner on Fig. 3/4 style and randomized grids, spliced cache keys, exact cache accounting
// for mixed kernel/fallback batches, warm-vs-cold store identity, kernel
// eligibility declines, and the steady-state allocation contract (zero
// heap allocations per re-evaluated grid point, counted by a global
// operator new hook).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "api/registry.hpp"
#include "common/error.hpp"
#include "core/estimator.hpp"
#include "core/job.hpp"
#include "json/json.hpp"
#include "service/batch_kernel.hpp"
#include "service/cache.hpp"
#include "service/engine.hpp"
#include "service/sweep.hpp"

// ------------------------------------------- allocation-counting hook ---
//
// Counts every global operator new while armed. Disabled under sanitizers,
// which interpose their own allocator and would misattribute bookkeeping
// allocations to the code under test.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QRE_ALLOC_HOOK_DISABLED 1
#endif
#if !defined(QRE_ALLOC_HOOK_DISABLED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QRE_ALLOC_HOOK_DISABLED 1
#endif
#endif

#ifndef QRE_ALLOC_HOOK_DISABLED

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // QRE_ALLOC_HOOK_DISABLED

namespace qre {
namespace {

using service::BatchStats;
using service::EngineOptions;
using service::EstimateCache;

json::Value run_sweep(const json::Value& job, std::size_t workers = 1,
                      EstimateCache* cache = nullptr) {
  EngineOptions options;
  options.num_workers = workers;
  options.cache = cache;
  return run_job(job, options);
}

// The scalar reference: the same grid submitted as an explicit "items"
// batch of the expanded sweep, which the engine never plans through the
// kernel.
json::Value run_scalar(const json::Value& sweep_job) {
  json::Object job;
  job.emplace_back("items", json::Value(service::expand_sweep(sweep_job)));
  return run_sweep(json::Value(std::move(job)));
}

// Asserts both runs produced byte-identical result arrays and the same
// top-level batch counters (batchStats differs only by the batchKernel
// block, which records which path ran).
void expect_bit_identical(const json::Value& kernel, const json::Value& scalar) {
  const json::Array& a = kernel.at("results").as_array();
  const json::Array& b = scalar.at("results").as_array();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dump(), b[i].dump()) << "item " << i;
  }
  const json::Value& sa = kernel.at("batchStats");
  const json::Value& sb = scalar.at("batchStats");
  EXPECT_EQ(sa.at("numItems").dump(), sb.at("numItems").dump());
  EXPECT_EQ(sa.at("numErrors").dump(), sb.at("numErrors").dump());
}

const json::Value& kernel_stats(const json::Value& result) {
  return result.at("batchStats").at("batchKernel");
}

// --------------------------------------------------- kernel engagement ---

const char* kFig4StyleSweep = R"({
  "logicalCounts": {"numQubits": 100, "tCount": 100000},
  "sweep": {
    "qubitParams": [
      {"name": "qubit_gate_ns_e3"}, {"name": "qubit_gate_ns_e4"},
      {"name": "qubit_maj_ns_e4"}, {"name": "qubit_maj_ns_e6"}
    ],
    "errorBudget": {"start": 1e-4, "stop": 1e-1, "steps": 7, "scale": "log"}
  }
})";

TEST(BatchKernel, EngagesOnFig4StyleSweep) {
  json::Value result = run_sweep(json::parse(kFig4StyleSweep));
  const json::Value& ks = kernel_stats(result);
  EXPECT_TRUE(ks.at("engaged").as_bool());
  EXPECT_EQ(ks.find("reason"), nullptr);
  EXPECT_EQ(ks.at("kernelItems").as_uint(), 28u);  // 4 profiles x 7 budgets
  EXPECT_EQ(ks.at("fallbackItems").as_uint(), 0u);
  EXPECT_EQ(result.at("batchStats").at("numItems").as_uint(), 28u);
}

TEST(BatchKernel, DisabledRunsAndItemsBatchesOmitTheStatsBlock) {
  // Hand-written "items" batches never consult the kernel and must keep
  // their batchStats documents byte-identical to pre-kernel releases.
  json::Value items_job = json::parse(R"({
    "logicalCounts": {"numQubits": 50, "tCount": 50000},
    "items": [{"errorBudget": 0.001}, {"errorBudget": 0.01}]
  })");
  json::Value items_result = run_sweep(items_job);
  EXPECT_EQ(items_result.at("batchStats").find("batchKernel"), nullptr);
}

// ------------------------------------------------------- bit identity ---

TEST(BatchKernel, BitIdenticalToScalarOnFig4StyleGrid) {
  json::Value job = json::parse(kFig4StyleSweep);
  json::Value kernel = run_sweep(job);
  json::Value scalar = run_scalar(job);
  ASSERT_TRUE(kernel_stats(kernel).at("engaged").as_bool());
  expect_bit_identical(kernel, scalar);
}

TEST(BatchKernel, BitIdenticalToScalarOnFig3StyleGrid) {
  // Figure 3 shape: whole-section logicalCounts axis (different circuit
  // sizes) crossed with hardware profiles.
  json::Value job = json::parse(R"({
    "errorBudget": 0.001,
    "sweep": {
      "logicalCounts": [
        {"numQubits": 45, "tCount": 12000},
        {"numQubits": 130, "tCount": 400000, "measurementCount": 2500},
        {"numQubits": 520, "tCount": 17000000, "cczCount": 310000}
      ],
      "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "qubit_maj_ns_e6"}]
    }
  })");
  json::Value kernel = run_sweep(job);
  json::Value scalar = run_scalar(job);
  ASSERT_TRUE(kernel_stats(kernel).at("engaged").as_bool());
  expect_bit_identical(kernel, scalar);
}

TEST(BatchKernel, BitIdenticalOnDottedAxesIntoEverySection) {
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 60, "tCount": 80000},
    "qubitParams": {"name": "qubit_gate_ns_e3"},
    "constraints": {"logicalDepthFactor": 2},
    "sweep": {
      "logicalCounts.tCount": [60000, 90000],
      "errorBudget": {"start": 1e-3, "stop": 1e-2, "steps": 2, "scale": "log"},
      "constraints.maxTFactories": [2, 8]
    }
  })");
  json::Value kernel = run_sweep(job);
  json::Value scalar = run_scalar(job);
  ASSERT_TRUE(kernel_stats(kernel).at("engaged").as_bool())
      << kernel_stats(kernel).dump();
  EXPECT_EQ(kernel_stats(kernel).at("kernelItems").as_uint(), 8u);
  expect_bit_identical(kernel, scalar);
}

TEST(BatchKernel, ParallelKernelMatchesSerialKernelAndScalar) {
  json::Value job = json::parse(kFig4StyleSweep);
  json::Value serial = run_sweep(job, 1);
  json::Value parallel = run_sweep(job, 4);
  json::Value scalar = run_scalar(job);
  ASSERT_TRUE(kernel_stats(parallel).at("engaged").as_bool());
  expect_bit_identical(parallel, serial);
  expect_bit_identical(parallel, scalar);
}

/// A random sweep job: a random subset of axis sections with random values.
json::Value random_sweep_job(std::mt19937& rng) {
  const char* presets[] = {"qubit_gate_ns_e3", "qubit_gate_ns_e4", "qubit_gate_us_e3",
                           "qubit_gate_us_e4", "qubit_maj_ns_e4",  "qubit_maj_ns_e6"};
  auto uniform = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  json::Object sweep;

  json::Array qubits;
  const int num_presets = uniform(1, 3);
  for (int i = 0; i < num_presets; ++i) {
    json::Object q;
    q.emplace_back("name", json::Value(presets[uniform(0, 5)]));
    qubits.push_back(json::Value(std::move(q)));
  }
  sweep.emplace_back("qubitParams", json::Value(std::move(qubits)));

  json::Object budget_range;
  budget_range.emplace_back("start", json::Value(std::pow(10.0, -uniform(3, 5))));
  budget_range.emplace_back("stop", json::Value(0.05));
  budget_range.emplace_back("steps", json::Value(uniform(2, 4)));
  budget_range.emplace_back("scale", json::Value("log"));
  sweep.emplace_back("errorBudget", json::Value(std::move(budget_range)));

  if (uniform(0, 1) == 1) {
    json::Array factories;
    const int num = uniform(1, 2);
    for (int i = 0; i < num; ++i) factories.push_back(json::Value(uniform(1, 8)));
    sweep.emplace_back("constraints.maxTFactories", json::Value(std::move(factories)));
  }
  if (uniform(0, 1) == 1) {
    json::Array tcounts;
    const int num = uniform(1, 2);
    for (int i = 0; i < num; ++i) {
      tcounts.push_back(json::Value(static_cast<std::int64_t>(uniform(1000, 200000))));
    }
    sweep.emplace_back("logicalCounts.tCount", json::Value(std::move(tcounts)));
  }

  json::Object counts;
  counts.emplace_back("numQubits", json::Value(uniform(10, 300)));
  counts.emplace_back("tCount", json::Value(uniform(1000, 500000)));
  json::Object job;
  job.emplace_back("logicalCounts", json::Value(std::move(counts)));
  job.emplace_back("sweep", json::Value(std::move(sweep)));
  return json::Value(std::move(job));
}

TEST(BatchKernel, RandomizedGridsAreBitIdenticalToScalar) {
  // Deterministic fuzz over grid shapes: every iteration builds a random
  // sweep, then asserts kernel output is byte-identical to the scalar path.
  std::mt19937 rng(20230807);
  for (int iter = 0; iter < 6; ++iter) {
    json::Value doc = random_sweep_job(rng);

    json::Value kernel = run_sweep(doc, std::uniform_int_distribution<int>(1, 4)(rng));
    json::Value scalar = run_scalar(doc);
    ASSERT_TRUE(kernel_stats(kernel).at("engaged").as_bool())
        << "iter " << iter << ": " << kernel_stats(kernel).dump();
    SCOPED_TRACE("iter " + std::to_string(iter) + " job " + doc.dump());
    expect_bit_identical(kernel, scalar);
  }
}

// -------------------------------------------------- fallback + caching ---

TEST(BatchKernel, InvalidAxisValuesFallBackToIdenticalErrorDocuments) {
  // The third qubit value fails validation, so its grid row runs through
  // the legacy fallback runner; documents must match the scalar path
  // exactly, including the structured error entries.
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 50, "tCount": 50000},
    "sweep": {
      "qubitParams": [
        {"name": "qubit_gate_ns_e3"},
        {"name": "qubit_maj_ns_e4"},
        {"name": "no_such_preset"}
      ],
      "errorBudget": [0.001, 0.01]
    }
  })");
  json::Value kernel = run_sweep(job);
  json::Value scalar = run_scalar(job);
  const json::Value& ks = kernel_stats(kernel);
  EXPECT_TRUE(ks.at("engaged").as_bool());
  EXPECT_EQ(ks.at("kernelItems").as_uint(), 4u);
  EXPECT_EQ(ks.at("fallbackItems").as_uint(), 2u);
  EXPECT_EQ(kernel.at("batchStats").at("numErrors").as_uint(), 2u);
  expect_bit_identical(kernel, scalar);
}

TEST(BatchKernel, CacheAccountingIsExactAcrossKernelAndFallbackItems) {
  // 2 qubit values (one invalid) x errorBudget [a, b, a]: six grid items,
  // four distinct documents. Kernel items and fallback items tally hits
  // and misses through the same engine counters — each duplicate is one
  // hit no matter which path computed its original.
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 50, "tCount": 50000},
    "sweep": {
      "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "no_such_preset"}],
      "errorBudget": [0.001, 0.01, 0.001]
    }
  })");
  json::Value result = run_sweep(job);
  const json::Value& stats = result.at("batchStats");
  const json::Value& ks = kernel_stats(result);
  EXPECT_TRUE(ks.at("engaged").as_bool());
  EXPECT_EQ(ks.at("kernelItems").as_uint(), 3u);
  EXPECT_EQ(ks.at("fallbackItems").as_uint(), 3u);
  EXPECT_EQ(stats.at("numItems").as_uint(), 6u);
  EXPECT_EQ(stats.at("cacheMisses").as_uint(), 4u);
  EXPECT_EQ(stats.at("cacheHits").as_uint(), 2u);
  // The duplicated budget re-serves both the kernel-computed result and the
  // fallback error document.
  const json::Array& results = result.at("results").as_array();
  EXPECT_EQ(results[0].dump(), results[2].dump());
  EXPECT_EQ(results[3].dump(), results[5].dump());
  EXPECT_NE(results[3].find("error"), nullptr);

  // Same accounting on the scalar path: both tally through one code path.
  json::Value scalar = run_scalar(job);
  EXPECT_EQ(scalar.at("batchStats").at("cacheMisses").as_uint(), 4u);
  EXPECT_EQ(scalar.at("batchStats").at("cacheHits").as_uint(), 2u);
}

// A StoreBacking double: an in-memory second-level store with counters.
class MapBacking : public service::StoreBacking {
 public:
  std::optional<json::Value> fetch(const std::string& key) override {
    std::lock_guard<std::mutex> lock(mutex_);
    ++fetches_;
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    ++served_;
    return it->second;
  }
  void record(const std::string& key, const json::Value& result) override {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.emplace(key, result);
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }
  std::uint64_t served() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return served_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, json::Value> entries_;
  std::uint64_t fetches_ = 0;
  std::uint64_t served_ = 0;
};

TEST(BatchKernel, WarmStoreReplaysBitIdenticalResults) {
  // Cold run populates the store through the kernel; a fresh cache backed
  // by the warm store must replay byte-identical results, which must also
  // match a storeless scalar run. This is the restart-reuse path: spliced
  // kernel keys hit records written under scalar-era keys and vice versa.
  json::Value job = json::parse(kFig4StyleSweep);
  MapBacking store;

  EstimateCache cold_cache;
  cold_cache.set_backing(&store);
  json::Value first = run_sweep(job, 2, &cold_cache);
  EXPECT_EQ(store.size(), 28u);
  EXPECT_EQ(store.served(), 0u);

  EstimateCache warm_cache;
  warm_cache.set_backing(&store);
  json::Value replay = run_sweep(job, 2, &warm_cache);
  EXPECT_EQ(store.served(), 28u);  // every item served from the store

  json::Value scalar = run_scalar(job);
  expect_bit_identical(replay, first);
  expect_bit_identical(replay, scalar);
}

// -------------------------------------------------------- eligibility ---

TEST(BatchKernel, DeclinesRecordReasonAndStillMatchScalar) {
  struct Case {
    const char* name;
    const char* job;
  };
  const Case cases[] = {
      {"frontier estimate type", R"({
        "logicalCounts": {"numQubits": 20, "tCount": 5000},
        "estimateType": "frontier",
        "sweep": {"errorBudget": [0.001, 0.01]}
      })"},
      {"two axes in one section", R"({
        "logicalCounts": {"numQubits": 20, "tCount": 5000},
        "sweep": {
          "constraints.maxTFactories": [1, 4],
          "constraints.logicalDepthFactor": [2, 4]
        }
      })"},
      {"qubit axis with pinned qecScheme", R"({
        "logicalCounts": {"numQubits": 20, "tCount": 5000},
        "qecScheme": {"name": "surface_code"},
        "sweep": {"qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "qubit_gate_ns_e4"}]}
      })"},
      {"axis outside the kernel sections", R"({
        "logicalCounts": {"numQubits": 20, "tCount": 5000},
        "sweep": {"qecScheme.name": ["surface_code"], "errorBudget": [0.001, 0.01]}
      })"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    json::Value job = json::parse(c.job);
    json::Value kernel = run_sweep(job);
    json::Value scalar = run_scalar(job);
    const json::Value& ks = kernel_stats(kernel);
    EXPECT_FALSE(ks.at("engaged").as_bool());
    EXPECT_FALSE(ks.at("reason").as_string().empty());
    EXPECT_EQ(ks.at("kernelItems").as_uint(), 0u);
    expect_bit_identical(kernel, scalar);
  }
}

// ------------------------------------------------------- spliced keys ---

TEST(BatchKernel, SplicedKeysMatchCanonicalKeysOfExpandedItems) {
  // Cache correctness hinges on spliced keys being byte-identical to
  // canonical_key() of the expanded documents the scalar path keys on.
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 60, "tCount": 80000},
    "constraints": {"logicalDepthFactor": 2},
    "sweep": {
      "qubitParams": [{"name": "qubit_gate_ns_e3"}, {"name": "qubit_maj_ns_e6"}],
      "errorBudget": {"start": 1e-4, "stop": 1e-2, "steps": 5, "scale": "log"},
      "constraints.maxTFactories": [1, 2, 16]
    }
  })");
  std::vector<json::Value> items = service::expand_sweep(job);
  service::BatchKernelPlan plan =
      service::plan_batch_kernel(job, items, api::Registry::global());
  ASSERT_TRUE(plan.eligible()) << plan.reason();
  ASSERT_EQ(plan.num_items(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(plan.item_key(i), service::canonical_key(items[i])) << "item " << i;
  }
}

TEST(BatchKernel, SplicedKeysMatchCanonicalKeysOnRandomGrids) {
  // Property over seeded random grids: every spliced key is canonical_key()
  // of its expanded item, also when the job carries base sections whose
  // keys are out of canonical order.
  std::mt19937 rng(5150);
  int planned = 0;
  for (int iter = 0; iter < 60; ++iter) {
    json::Value job = random_sweep_job(rng);
    if (rng() % 2 == 0) {
      json::Object constraints;
      constraints.emplace_back("maxTFactories", json::Value(static_cast<int>(1 + rng() % 9)));
      constraints.emplace_back("logicalDepthFactor", json::Value(1.0 + (rng() % 7) / 4.0));
      job.set("constraints", json::Value(std::move(constraints)));
    }
    if (rng() % 2 == 0) job.set("errorBudget", json::Value(1e-3 * (1 + rng() % 5)));
    SCOPED_TRACE("iter " + std::to_string(iter) + " job " + job.dump());
    const std::vector<json::Value> items = service::expand_sweep(job);
    const service::BatchKernelPlan plan =
        service::plan_batch_kernel(job, items, api::Registry::global());
    ASSERT_TRUE(plan.eligible()) << plan.reason();
    ASSERT_EQ(plan.num_items(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      ASSERT_EQ(plan.item_key(i), service::canonical_key(items[i])) << "item " << i;
    }
    ++planned;
  }
  EXPECT_EQ(planned, 60);
}

// ------------------------------------------------ allocation contract ---

TEST(BatchKernel, SteadyStateEvaluationPerformsZeroHeapAllocations) {
#ifdef QRE_ALLOC_HOOK_DISABLED
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#else
  // The contract (docs/performance.md): once a worker's scratch buffers
  // have warmed on a grid point, re-evaluating it — decompose, apply,
  // estimate_into, splice_key — touches the heap zero times. Every grid
  // point of a Fig. 4 style batch is checked individually.
  json::Value job = json::parse(kFig4StyleSweep);
  std::vector<json::Value> items = service::expand_sweep(job);
  service::BatchKernelPlan plan =
      service::plan_batch_kernel(job, items, api::Registry::global());
  ASSERT_TRUE(plan.eligible()) << plan.reason();

  service::BatchKernelScratch scratch;
  scratch.input = plan.reference_input();
  scratch.picks.resize(plan.num_axes());

  // Warm pass: grows scratch capacity to the batch's high-water mark and
  // populates the process-level factory and QEC formula caches.
  for (std::size_t i = 0; i < plan.num_items(); ++i) {
    plan.decompose(i, scratch.picks);
    ASSERT_TRUE(plan.picks_valid(scratch.picks));
    plan.apply(scratch.picks, scratch.input);
    estimate_into(scratch.input, scratch.estimate);
    plan.splice_key(scratch.picks, scratch.key_buf);
  }

  for (std::size_t i = 0; i < plan.num_items(); ++i) {
    // Bring the scratch to this grid point, then count a re-evaluation.
    plan.decompose(i, scratch.picks);
    plan.apply(scratch.picks, scratch.input);
    estimate_into(scratch.input, scratch.estimate);
    plan.splice_key(scratch.picks, scratch.key_buf);

    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    plan.decompose(i, scratch.picks);
    plan.apply(scratch.picks, scratch.input);
    estimate_into(scratch.input, scratch.estimate);
    plan.splice_key(scratch.picks, scratch.key_buf);
    g_count_allocs.store(false, std::memory_order_relaxed);
    EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0u) << "item " << i;
  }
#endif
}

}  // namespace
}  // namespace qre
