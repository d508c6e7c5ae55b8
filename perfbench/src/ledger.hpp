// The traced half of the benchmark: an in-process, single-threaded replay
// of a workload's documents that attributes each request's time to the
// library layers.
//
// The replay feeds the set-up documents and then the first timed documents
// (interleaved as the two connections send them) through the calls the
// server makes per request — json::parse, api::EstimateRequest::parse,
// api::run (on a service::Engine backed by a real store::EstimateStore),
// EstimateResponse::to_json, Value::dump — so the caches are in the state
// the workload puts them in. Spans are recorded by the benchmark itself,
// around its own calls:
//
//  * around each of the five pipeline calls above (per-request id, parent
//    link, kept in memory until the end);
//  * around EstimateStore::fetch / record, through a StoreBacking
//    decorator, so they nest inside api.run;
//  * inside api.run, the library's own existing instrumentation is read
//    through a trace::Collector: the api.expand / api.explore phases
//    (expand_sweep and the frontier explorer), tfactory.search spans and
//    the estimate-cache hit/miss counters;
//  * plan_batch_kernel, EstimateCache::get_or_compute on a present key,
//    estimate_into and report_to_json run per item inside the engine,
//    where the benchmark cannot wrap them; after each request the
//    benchmark calls them again on the same items, in the same cache
//    state, and attributes hits x hit cost and computes x (estimate +
//    render) to api.run.
//
// Whatever api.run spends beyond those children is reported as the
// explicit "unattributed" row. The same documents are replayed once more
// with every span and collector off; the difference is the tracing
// overhead.
#pragma once

#include <cstddef>
#include <string>

#include "workloads.hpp"

namespace perfbench {

struct LedgerResult {
  double pipeline_p50_us = 0;  // untraced replay, per request

  double json_parse_us_per_req = 0;
  double json_dump_us_per_item = 0;
  double request_parse_us_per_req = 0;
  double envelope_us_per_req = 0;
  double run_us_per_req = 0;
  double expand_us_per_req = 0;
  double kernel_plan_us_per_req = 0;
  double cache_hit_us_per_item = 0;
  double estimate_us_per_item = 0;
  double render_us_per_item = 0;
  double tfactory_search_us_per_call = 0;
  double explore_us_per_job = 0;
  double probes_per_job = 0;
  double store_fetch_us_per_hit = 0;
  double store_record_us_per_write = 0;
  double unattributed_us_per_req = 0;
  double trace_overhead_share = 0;
};

/// Replays `w`'s set-up documents plus its first `skip` + `measured` timed
/// documents twice (untraced, then traced), measuring only the last
/// `measured` (the others only run api::run, to build cache state). Writes
/// `<out_prefix>.trace.json` (Chrome trace) and `<out_prefix>.ledger.txt`
/// (self time per layer) and returns the per-layer figures. `work_dir`
/// holds the replay's estimate stores.
LedgerResult run_ledger(const Workload& w, std::size_t skip, std::size_t measured,
                        const std::string& work_dir, const std::string& out_prefix);

}  // namespace perfbench
