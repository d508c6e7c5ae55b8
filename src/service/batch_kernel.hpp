// Batch-estimation kernel for sweep grids (ROADMAP item 1).
//
// Dense sweep grids — the paper's Fig. 3/4 workloads — are cartesian
// products of a handful of axis values over one base document, yet the
// legacy path re-parses and re-validates the full JSON item and rebuilds an
// EstimationInput for every grid point. The kernel removes all per-item JSON
// work:
//
//  * plan_batch_kernel() analyzes the sweep ONCE: it resolves the registry
//    profile set, reads each axis VALUE once (not each grid item) with the
//    one reader that validates and parses (api::read_job), keeps each
//    value's EstimationInput on its axis, and
//    precomputes the canonical cache-key skeleton so per-item keys are
//    spliced, not re-serialized;
//  * run_batch_kernel() evaluates grid items by copying each axis's parsed
//    section into a per-worker scratch EstimationInput and calling
//    estimate_into() — on the steady-state path (plan built, buffers warm)
//    this performs zero heap allocations per item (see docs/performance.md,
//    "allocation contract");
//  * items the plan cannot cover — an axis value whose materialized document
//    fails validation — run through the legacy per-item fallback runner, so
//    mixed batches produce exactly the documents the scalar path would.
//
// Eligibility is conservative; plan_batch_kernel() declines (with a reason
// recorded in batchStats.batchKernel) whenever per-axis-value analysis could
// diverge from per-item semantics:
//
//  * the job must be a sweep (not items/frontier) with estimateType absent
//    or "singlePoint";
//  * every axis must target one of the sections logicalCounts, errorBudget,
//    constraints, or qubitParams (dotted paths into them included), with at
//    most one axis per section;
//  * a qubitParams axis is rejected when the base document pins a qecScheme
//    (the scheme resolution would depend on the combined document);
//  * the spliced key skeleton must round-trip canonical_key() exactly
//    (checked structurally at plan time; degenerate documents decline).
//
// The kernel is asserted bit-identical to the scalar per-item runner — same
// estimate() arithmetic, same report rendering, same cache keys — by
// tests/test_batch_kernel.cpp, which reaches the scalar runner by submitting
// the expanded grid as an explicit "items" batch (never planned).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "core/estimator.hpp"
#include "json/json.hpp"
#include "service/engine.hpp"

namespace qre::service {

/// One sweep axis, analyzed: its grid geometry plus the parsed input of
/// every axis value. Evaluation copies only the axis's section out of
/// `values[k]`; the rest of each parse is unused.
struct BatchKernelAxis {
  enum class Section { kLogicalCounts, kErrorBudget, kConstraints, kQubitParams };

  Section section = Section::kLogicalCounts;
  std::string path;        // as declared in the sweep, possibly dotted
  std::size_t stride = 1;  // row-major stride in the expanded grid

  /// Per-value parse of the materialized probe document (base + this value,
  /// every other axis at its first value); default-constructed when invalid.
  std::vector<EstimationInput> values;

  /// Per-value: 1 when the probe document validated and parsed (items
  /// picking an invalid value fall back to the legacy runner).
  std::vector<std::uint8_t> valid;

  /// Per-value canonical dump of the raw axis value, spliced into cache keys.
  std::vector<std::string> key_dumps;
};

/// Per-worker evaluation scratch. Reusing one scratch per worker slot is
/// what makes the steady-state loop allocation-free: the EstimationInput and
/// ResourceEstimate keep their string/vector capacity across items, and keys
/// are spliced into `key_buf` in place.
struct BatchKernelScratch {
  EstimationInput input;
  ResourceEstimate estimate;
  std::vector<std::uint32_t> picks;
  std::string key_buf;
};

/// The per-sweep analysis result.
class BatchKernelPlan {
 public:
  /// The kernel can evaluate this sweep; when false, `reason()` says why and
  /// the caller runs the legacy path.
  bool eligible() const { return eligible_; }
  const std::string& reason() const { return reason_; }

  std::size_t num_items() const { return num_items_; }
  std::size_t num_axes() const { return axes_.size(); }

  /// The fully parsed input of the first all-valid grid point; per-item
  /// evaluation starts from a copy of this and overwrites axis sections.
  const EstimationInput& reference_input() const { return reference_input_; }

  /// Splits a row-major grid index into per-axis value picks.
  void decompose(std::size_t index, std::vector<std::uint32_t>& picks) const {
    for (std::size_t j = 0; j < axes_.size(); ++j) {
      picks[j] = static_cast<std::uint32_t>((index / axes_[j].stride) % axes_[j].values.size());
    }
  }

  /// All picked values passed plan-time validation (else: legacy fallback).
  bool picks_valid(const std::vector<std::uint32_t>& picks) const {
    for (std::size_t j = 0; j < axes_.size(); ++j) {
      if (!axes_[j].valid[picks[j]]) return false;
    }
    return true;
  }

  /// Copies the picked values' axis sections into `input` (all other
  /// sections were fixed by the reference input). Allocation-free at steady
  /// state.
  void apply(const std::vector<std::uint32_t>& picks, EstimationInput& input) const;

  /// Builds the canonical cache key for the picked grid point into `out` by
  /// splicing precomputed value dumps into the key skeleton. Byte-identical
  /// to canonical_key() of the expanded item document.
  void splice_key(const std::vector<std::uint32_t>& picks, std::string& out) const;

  /// Convenience (tests, diagnostics): the canonical key of grid item
  /// `index` via decompose + splice_key.
  std::string item_key(std::size_t index) const;

 private:
  friend BatchKernelPlan plan_batch_kernel(const json::Value& job,
                                           const std::vector<json::Value>& items,
                                           const api::Registry& registry);

  bool eligible_ = false;
  std::string reason_;
  std::size_t num_items_ = 0;
  std::vector<BatchKernelAxis> axes_;
  EstimationInput reference_input_;
  /// Key skeleton: literals_[0] + dump(axis key_order_[0]) + literals_[1] +
  /// ... + literals_[num_axes].
  std::vector<std::string> key_literals_;
  std::vector<std::size_t> key_order_;
};

/// Analyzes `job` (a sweep document, already expanded to `items` by
/// expand_sweep) against `registry`. Never throws: any analysis failure
/// yields an ineligible plan whose reason() explains it.
BatchKernelPlan plan_batch_kernel(const json::Value& job, const std::vector<json::Value>& items,
                                  const api::Registry& registry);

/// Evaluates the expanded grid through the kernel on the engine's worker
/// pool (run_batch_indexed), so ordering, error isolation, cancellation,
/// streaming, and cache accounting are shared with the legacy path and every
/// counter tallies exactly once. Items with invalid axis values run through
/// `fallback` (the legacy per-item runner). Requires plan.eligible() and
/// items.size() == plan.num_items(). Fills stats->kernel when stats is
/// given.
json::Array run_batch_kernel(const BatchKernelPlan& plan, const std::vector<json::Value>& items,
                             const JobRunner& fallback, const EngineOptions& options = {},
                             BatchStats* stats = nullptr);

}  // namespace qre::service
