#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <vector>

#include "api/api.hpp"
#include "common/trace.hpp"
#include "core/estimator.hpp"
#include "e2e.hpp"
#include "json/json.hpp"
#include "oracle.hpp"
#include "report/report.hpp"
#include "service/batch_kernel.hpp"
#include "service/cache.hpp"
#include "service/engine.hpp"
#include "service/sweep.hpp"
#include "store/estimate_store.hpp"
#include "tfactory/factory_cache.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using qre::json::Value;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// Benchmark-side spans, kept in memory until the end of the run. Ids are
/// positions + 1; the parent is the innermost open span (single-threaded).
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint32_t req;
    std::uint32_t id;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t dur_ns;
  };

  bool enabled = false;

  std::uint32_t open(const char* name, std::uint32_t req) {
    if (!enabled) return 0;
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({name, req, id, stack_.empty() ? 0 : stack_.back(), now_ns(), 0});
    stack_.push_back(id);
    return id;
  }
  /// Closes span `id` (the innermost open one) and returns its duration.
  std::int64_t close(std::uint32_t id) {
    if (id == 0) return 0;
    Span& s = spans_[id - 1];
    s.dur_ns = now_ns() - s.start_ns;
    stack_.pop_back();
    return s.dur_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// Runs `f` inside span `name`, adding the span's duration to `total_ns`.
template <class F>
auto in_span(SpanLog& log, const char* name, std::uint32_t req, std::int64_t& total_ns, F&& f) {
  const std::uint32_t id = log.open(name, req);
  struct Close {
    SpanLog& log;
    std::uint32_t id;
    std::int64_t& total;
    ~Close() { total += log.close(id); }
  } close{log, id, total_ns};
  return f();
}

/// StoreBacking decorator: times EstimateStore::fetch / record inside
/// api.run (they run on the request thread, the engine being one wide).
class TimedStore final : public qre::service::StoreBacking {
 public:
  struct Tally {
    std::int64_t fetch_ns = 0, fetch_hit_ns = 0, record_ns = 0;
    std::uint64_t fetches = 0, hits = 0, writes = 0;
  };

  TimedStore(qre::store::EstimateStore& inner, SpanLog& log) : inner_(inner), log_(log) {}

  std::optional<Value> fetch(const std::string& key) override {
    std::int64_t ns = 0;
    auto found = in_span(log_, "store.fetch", req, ns, [&] { return inner_.fetch(key); });
    tally.fetch_ns += ns;
    ++tally.fetches;
    if (found.has_value()) {
      ++tally.hits;
      tally.fetch_hit_ns += ns;
    }
    return found;
  }
  void record(const std::string& key, const Value& result) override {
    in_span(log_, "store.record", req, tally.record_ns, [&] {
      inner_.record(key, result);
      return 0;
    });
    ++tally.writes;
  }

  std::uint32_t req = 0;
  Tally tally;

 private:
  qre::store::EstimateStore& inner_;
  SpanLog& log_;
};

/// Sums over the measured requests, in nanoseconds unless named otherwise.
struct Totals {
  std::size_t requests = 0, items = 0, invalid = 0;
  std::vector<double> pipeline_us;
  std::int64_t pipeline = 0, parse = 0, request_parse = 0, run = 0, envelope = 0, dump = 0;
  std::int64_t expand = 0, plan = 0, search = 0, explore = 0, explore_children = 0;
  std::uint64_t search_calls = 0, frontier_jobs = 0, frontier_probes = 0;
  std::int64_t fetch = 0, fetch_hit = 0, record = 0;
  std::uint64_t store_fetches = 0, store_hits = 0, store_writes = 0;
  std::int64_t hit_probe = 0, estimate_probe = 0, render_probe = 0;
  std::uint64_t hit_probes = 0, compute_probes = 0;
  // Lookups attributed from probe means: counts, and their cost in ns.
  std::uint64_t hits = 0, computes = 0;
  double attributed_hits = 0, attributed_computes = 0;
  std::int64_t unattributed = 0;
};

/// The library's own instrumentation, read through the per-request collector.
struct CollectorFigures {
  double expand_ns = 0, explore_ns = 0, search_ns = 0;
  std::uint64_t search_calls = 0, lru_hits = 0, lru_misses = 0;
};

CollectorFigures read_collector(const qre::trace::Collector& c) {
  const Value t = c.to_json(0, 0);
  CollectorFigures f;
  for (const Value& p : t.at("phases").as_array()) {
    const std::string& name = p.at("name").as_string();
    if (name == "api.expand") f.expand_ns += p.at("wallMs").as_double() * 1e6;
    if (name == "api.explore") f.explore_ns += p.at("wallMs").as_double() * 1e6;
  }
  for (const Value& d : t.at("detail").as_array()) {
    if (d.at("name").as_string() == "tfactory.search") {
      f.search_ns = d.at("wallMs").as_double() * 1e6;
      f.search_calls = d.at("count").as_uint();
    }
  }
  const Value& counters = t.at("counters");
  if (const Value* v = counters.find("estimate.cache.hit")) f.lru_hits = v->as_uint();
  if (const Value* v = counters.find("estimate.cache.miss")) f.lru_misses = v->as_uint();
  return f;
}

/// Re-times the per-item calls api.run made inside the engine, on the same
/// items and cache state, and attributes them to this request.
void probe_items(const qre::api::EstimateRequest& request, RequestClass cls,
                 const CollectorFigures& cf, const TimedStore::Tally& st,
                 qre::service::Engine& engine, SpanLog& log, std::uint32_t req, Totals& t,
                 double& attributed_ns) {
  const qre::api::Registry& registry = qre::api::Registry::global();
  const std::uint32_t root = log.open("attribution", req);
  std::vector<Value> items;
  if (cls == RequestClass::kSweep) {
    items = qre::service::expand_sweep(request.document);
    std::int64_t plan_ns = 0;
    in_span(log, "service.kernel_plan", req, plan_ns, [&] {
      return qre::service::plan_batch_kernel(request.document, items, registry).eligible();
    });
    t.plan += plan_ns;
    attributed_ns += static_cast<double>(plan_ns);
  } else {
    items.push_back(request.document);
  }

  qre::service::EstimateCache& cache = engine.cache();
  std::int64_t hit_ns = 0;
  std::uint64_t hit_n = 0;
  for (const Value& item : items) {
    const std::string key = qre::service::canonical_key(item);
    const std::uint64_t misses = cache.misses();
    std::int64_t ns = 0;
    in_span(log, "service.cache_hit", req, ns,
            [&] { return cache.get_or_compute(key, [] { return Value(); }); });
    if (cache.misses() == misses) {  // present, as expected
      hit_ns += ns;
      ++hit_n;
    }
  }
  t.hit_probe += hit_ns;
  t.hit_probes += hit_n;
  if (hit_n > 0) {
    const double mean = static_cast<double>(hit_ns) / static_cast<double>(hit_n);
    t.hits += cf.lru_hits;
    t.attributed_hits += mean * static_cast<double>(cf.lru_hits);
    attributed_ns += mean * static_cast<double>(cf.lru_hits);
  }

  const std::uint64_t computes = cf.lru_misses - std::min(cf.lru_misses, st.hits);
  if (computes > 0) {
    std::int64_t est_ns = 0, render_ns = 0;
    qre::ResourceEstimate estimate;
    for (const Value& item : items) {
      qre::Diagnostics sink;
      const qre::EstimationInput input = qre::api::input_from_document(item, registry, &sink);
      in_span(log, "core.estimate", req, est_ns, [&] {
        qre::estimate_into(input, estimate);
        return 0;
      });
      in_span(log, "report.render", req, render_ns,
              [&] { return qre::report_to_json(estimate).is_object(); });
    }
    t.estimate_probe += est_ns;
    t.render_probe += render_ns;
    t.compute_probes += items.size();
    const double mean = static_cast<double>(est_ns + render_ns) / static_cast<double>(items.size());
    t.computes += computes;
    t.attributed_computes += mean * static_cast<double>(computes);
    attributed_ns += mean * static_cast<double>(computes);
  }
  log.close(root);
}

/// One replay of `seq` on fresh caches; requests from `first_measured` on
/// are tallied into `t`.
void replay(const Workload& w, const std::vector<std::uint32_t>& seq, std::size_t first_measured,
            const std::string& dir, SpanLog& log, Totals& t) {
  const bool traced = log.enabled;
  qre::FactoryCache::global().clear();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  qre::store::EstimateStore store(dir);
  store.load();
  TimedStore timed_store(store, log);
  qre::service::EngineOptions defaults;
  defaults.num_workers = 1;
  qre::service::Engine engine(defaults);
  engine.set_store(&timed_store);

  for (std::size_t i = 0; i < seq.size(); ++i) {
    const Request& r = w.pool[seq[i]];
    const bool measured = i >= first_measured;
    const auto req = static_cast<std::uint32_t>(i);
    timed_store.req = req;
    timed_store.tally = {};
    log.enabled = traced && measured;  // no spans for state-building requests
    if (!measured) {
      // Fast-forward: only api::run changes cache and store state.
      const auto request = qre::api::EstimateRequest::parse(qre::json::parse(r.body));
      (void)qre::api::run(request, engine.options());
      continue;
    }

    qre::trace::Collector collector;
    qre::service::EngineOptions options = engine.options();
    if (traced) options.timings = &collector;
    std::optional<qre::api::EstimateRequest> request;
    qre::api::EstimateResponse response;
    std::string bytes;
    std::int64_t run_ns = 0;
    const std::int64_t start = now_ns();
    const std::uint32_t root = log.open("request", req);
    {
      const Value doc = in_span(log, "json.parse", req, t.parse,
                                [&] { return qre::json::parse(r.body); });
      request = in_span(log, "api.request_parse", req, t.request_parse,
                        [&] { return qre::api::EstimateRequest::parse(doc); });
      response = in_span(log, "api.run", req, run_ns,
                         [&] { return qre::api::run(*request, options); });
      const Value envelope = in_span(log, "api.envelope", req, t.envelope,
                                     [&] { return response.to_json(); });
      bytes = in_span(log, "json.dump", req, t.dump, [&] { return envelope.dump(); });
    }
    log.close(root);
    const std::int64_t pipeline_ns = now_ns() - start;

    bytes += '\n';
    const Verdict v = check_response(r.cls, 200, bytes);
    if (!v.ok) ++t.invalid;
    ++t.requests;
    t.items += v.items;
    t.pipeline += pipeline_ns;
    t.pipeline_us.push_back(static_cast<double>(pipeline_ns) / 1e3);
    t.run += run_ns;
    if (!traced) continue;

    const CollectorFigures cf = read_collector(collector);
    const TimedStore::Tally st = timed_store.tally;
    t.expand += static_cast<std::int64_t>(cf.expand_ns);
    t.search += static_cast<std::int64_t>(cf.search_ns);
    t.search_calls += cf.search_calls;
    t.fetch += st.fetch_ns;
    t.fetch_hit += st.fetch_hit_ns;
    t.record += st.record_ns;
    t.store_fetches += st.fetches;
    t.store_hits += st.hits;
    t.store_writes += st.writes;
    double attributed = 0;
    if (r.cls == RequestClass::kFrontier) {
      // The explorer's probes run the whole per-item stack; its own span
      // covers them, so its store and search time count inside it.
      t.explore += static_cast<std::int64_t>(cf.explore_ns);
      t.explore_children += st.fetch_ns + st.record_ns + static_cast<std::int64_t>(cf.search_ns);
      ++t.frontier_jobs;
      if (const Value* stats = response.result.find("frontierStats")) {
        t.frontier_probes += stats->at("numProbes").as_uint();
      }
      attributed = cf.explore_ns;
    } else {
      attributed = cf.expand_ns + cf.search_ns + static_cast<double>(st.fetch_ns + st.record_ns);
      probe_items(*request, r.cls, cf, st, engine, log, req, t, attributed);
    }
    t.unattributed += run_ns - static_cast<std::int64_t>(attributed);
  }
}

double per(double total_ns, double n) { return n > 0 ? total_ns / n / 1e3 : 0.0; }

std::string chrome_trace(const SpanLog& log) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  const std::int64_t epoch = log.spans().empty() ? 0 : log.spans().front().start_ns;
  char line[320];
  bool first = true;
  for (const SpanLog::Span& s : log.spans()) {
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"req\":%u,\"id\":%u,"
                  "\"parent\":%u}}",
                  first ? "" : ",\n", s.name, static_cast<double>(s.start_ns - epoch) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3, s.req, s.id, s.parent);
    out += line;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

std::string ledger_table(const Workload& w, const Totals& t, double overhead_share) {
  const double reqs = static_cast<double>(t.requests);
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line,
                "workload %s: %zu measured requests, %zu items, in-process single-threaded "
                "replay\n%-26s %14s %12s %10s %8s\n",
                w.name.c_str(), t.requests, t.items, "layer", "self_us_total", "us_per_req",
                "calls", "share");
  out += line;
  const double explore_self = static_cast<double>(t.explore - t.explore_children);
  const struct Row {
    const char* name;
    double ns;
    double calls;
  } rows[] = {
      {"json.parse", static_cast<double>(t.parse), reqs},
      {"api.request_parse", static_cast<double>(t.request_parse), reqs},
      {"  service.expand", static_cast<double>(t.expand), reqs},
      {"  service.kernel_plan", static_cast<double>(t.plan), reqs},
      {"  service.cache_hit", t.attributed_hits, static_cast<double>(t.hits)},
      {"  core.estimate+report", t.attributed_computes, static_cast<double>(t.computes)},
      {"  tfactory.search", static_cast<double>(t.search), static_cast<double>(t.search_calls)},
      {"  store.fetch", static_cast<double>(t.fetch), static_cast<double>(t.store_fetches)},
      {"  store.record", static_cast<double>(t.record), static_cast<double>(t.store_writes)},
      {"  frontier.explore(self)", explore_self, static_cast<double>(t.frontier_jobs)},
      {"  unattributed", static_cast<double>(t.unattributed), reqs},
      {"api.envelope", static_cast<double>(t.envelope), reqs},
      {"json.dump", static_cast<double>(t.dump), reqs},
  };
  const double pipeline = static_cast<double>(t.pipeline);
  double listed = 0;
  for (const Row& r : rows) {
    listed += r.ns;
    std::snprintf(line, sizeof line, "%-26s %14.1f %12.2f %10.0f %7.1f%%\n", r.name, r.ns / 1e3,
                  per(r.ns, reqs), r.calls, pipeline > 0 ? 100.0 * r.ns / pipeline : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "%-26s %14.1f %12.2f\n%-26s %14.1f %12.2f   (pipeline minus the rows above)\n"
                "api.run total %.2f us/req; tracing overhead %.2f%% of the untraced replay\n",
                "pipeline (request span)", pipeline / 1e3, per(pipeline, reqs), "benchmark glue",
                (pipeline - listed) / 1e3, per(pipeline - listed, reqs), per(t.run, reqs),
                overhead_share * 100);
  out += line;
  return out;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

}  // namespace

LedgerResult run_ledger(const Workload& w, std::size_t skip, std::size_t measured,
                        const std::string& work_dir, const std::string& out_prefix) {
  std::vector<std::uint32_t> seq = w.warmup;
  const std::vector<std::uint32_t> timed = interleaved(w, skip + measured);
  seq.insert(seq.end(), timed.begin(), timed.end());
  const std::size_t first_measured = w.warmup.size() + skip;

  SpanLog untraced_log;
  Totals untraced;
  replay(w, seq, first_measured, work_dir + "/replay-untraced", untraced_log, untraced);
  SpanLog log;
  log.enabled = true;
  Totals t;
  replay(w, seq, first_measured, work_dir + "/replay-traced", log, t);
  if (t.invalid + untraced.invalid > 0) {
    throw std::runtime_error("the in-process replay produced invalid responses");
  }

  const double reqs = static_cast<double>(t.requests);
  LedgerResult r;
  r.pipeline_p50_us = median(untraced.pipeline_us);
  r.json_parse_us_per_req = per(t.parse, reqs);
  r.json_dump_us_per_item = per(t.dump, static_cast<double>(t.items));
  r.request_parse_us_per_req = per(t.request_parse, reqs);
  r.envelope_us_per_req = per(t.envelope, reqs);
  r.run_us_per_req = per(t.run, reqs);
  r.expand_us_per_req = per(t.expand, reqs);
  r.kernel_plan_us_per_req = per(t.plan, reqs);
  r.cache_hit_us_per_item = per(t.hit_probe, static_cast<double>(t.hit_probes));
  r.estimate_us_per_item = per(t.estimate_probe, static_cast<double>(t.compute_probes));
  r.render_us_per_item = per(t.render_probe, static_cast<double>(t.compute_probes));
  r.tfactory_search_us_per_call = per(t.search, static_cast<double>(t.search_calls));
  r.explore_us_per_job = per(t.explore, static_cast<double>(t.frontier_jobs));
  r.probes_per_job = t.frontier_jobs > 0 ? static_cast<double>(t.frontier_probes) /
                                               static_cast<double>(t.frontier_jobs)
                                         : 0.0;
  r.store_fetch_us_per_hit = per(t.fetch_hit, static_cast<double>(t.store_hits));
  r.store_record_us_per_write = per(t.record, static_cast<double>(t.store_writes));
  r.unattributed_us_per_req = per(t.unattributed, reqs);
  const auto untraced_ns = static_cast<double>(untraced.pipeline);
  r.trace_overhead_share =
      untraced_ns > 0 ? (static_cast<double>(t.pipeline) - untraced_ns) / untraced_ns : 0.0;

  write_file(out_prefix + ".trace.json", chrome_trace(log));
  write_file(out_prefix + ".ledger.txt", ledger_table(w, t, r.trace_overhead_share));
  std::filesystem::remove_all(work_dir + "/replay-untraced");
  std::filesystem::remove_all(work_dir + "/replay-traced");
  return r;
}

}  // namespace perfbench
