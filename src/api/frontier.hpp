// Frontier job kind (API v2).
//
// A job document carrying a top-level "frontier" section requests the
// adaptive Pareto explorer (src/frontier/explorer.hpp) instead of a single
// estimate:
//
//   {
//     "schemaVersion": 2,
//     "logicalCounts": { ... },
//     "qubitParams": { "name": "qubit_gate_ns_e3" },
//     "frontier": {
//       "maxProbes": 64,            // probe budget (default 64)
//       "qubitTolerance": 0.01,     // relative refinement tolerances
//       "runtimeTolerance": 0.01,
//       "errorBudgets": [1e-2, 1e-3, 1e-4]   // optional third objective
//     }
//   }
//
// "frontier" is mutually exclusive with "items", "sweep", and the legacy
// fixed-grid `"estimateType": "frontier"`. The result document is
//
//   {"frontier": [ {maxTFactories?, errorBudget?, physicalQubits, runtime,
//                   result: {...full report...}}, ... ],
//    "frontierStats": {numProbes, numFailedProbes, numWaves, numPoints,
//                      probeLimit, budgetLevels}}
//
// with the points sorted by (errorBudget, runtime) ascending and every
// entry non-dominated over (physical qubits, runtime, error budget).
//
// api::run() dispatches frontier documents to run_frontier_document, so
// qre_cli, POST /v2/estimate, and the async job queue all accept the job
// kind without special-casing.
#pragma once

#include "api/registry.hpp"
#include "frontier/explorer.hpp"
#include "json/json.hpp"
#include "service/engine.hpp"

namespace qre::api {

/// The frontier job runner behind api::run: parses the validated job's
/// "frontier" section and explores. Probes run through `options`' engine
/// configuration (worker pool + shared cache), and `options.on_result`,
/// when set, observes each probe record in deterministic probe order (the
/// NDJSON streaming hook). Throws qre::Error when exploration fails
/// outright (every probe infeasible).
json::Value run_frontier_document(const json::Value& doc, const Registry& registry,
                                  const service::EngineOptions& options,
                                  frontier::ExploreStats* stats = nullptr);

}  // namespace qre::api
