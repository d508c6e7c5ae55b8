#include "api/schema.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/field_reader.hpp"
#include "frontier/explorer.hpp"
#include "service/sweep.hpp"

namespace qre::api {

namespace {

/// Reads "distillationUnitSpecifications": full specifications, or
/// name-only entries referencing a registered template.
std::vector<DistillationUnit> read_units(FieldReader& in, const Registry& registry) {
  std::vector<DistillationUnit> units;
  const json::Value& v = in.value();
  if (!v.is_array()) {
    in.error("type-mismatch", "", "distillationUnitSpecifications must be an array");
    return units;
  }
  if (v.as_array().empty()) {
    in.error("value-range", "", "distillationUnitSpecifications must not be empty");
    return units;
  }
  for (std::size_t i = 0; i < v.as_array().size(); ++i) {
    const json::Value& unit = v.as_array()[i];
    FieldReader unit_in(in, unit, pointer_join(in.path(), i));
    if (unit.is_object() && unit.as_object().size() == 1 && unit.find("name") != nullptr) {
      const json::Value* name = unit_in.get("name", JsonKind::kString);
      const DistillationUnit* found =
          name != nullptr ? registry.find_distillation(name->as_string()) : nullptr;
      if (found != nullptr) {
        units.push_back(*found);
      } else if (name != nullptr) {
        unit_in.error("unknown-name", "name",
                      "unknown distillation unit template '" + name->as_string() + "'");
      }
      continue;
    }
    units.push_back(DistillationUnit::read(unit_in));
  }
  return units;
}

bool is_job_kind(std::string_view key) {
  const std::vector<std::string_view>& kinds = job_kinds();
  return std::find(kinds.begin(), kinds.end(), key) != kinds.end();
}

/// The document-level rules of read_job around the section readers, in the
/// order their diagnostics are reported. Sections are always read (reading
/// is validating); their values land in `input` when one is given.
void read_document(FieldReader& in, const Registry& registry, EstimationInput* input) {
  const json::Value& job = in.value();
  in.check_keys(job_keys());
  if (const json::Value* version = job.find("schemaVersion")) {
    if (!version->is_number() || version->as_double() != static_cast<double>(kSchemaVersion)) {
      in.error("unsupported-version", "schemaVersion",
               "expected schemaVersion 2; run v1 documents through the upgrade shim");
    }
  }

  const json::Value* items = job.find("items");
  const json::Value* sweep = job.find("sweep");
  const json::Value* type = job.find("estimateType");
  if (items != nullptr && sweep != nullptr) {
    in.error("mutually-exclusive", "items", "a job cannot carry both items and sweep");
  }
  if (const json::Value* frontier_section = job.find("frontier")) {
    if (items != nullptr || sweep != nullptr) {
      in.error("mutually-exclusive", "frontier", "a frontier job cannot carry items or sweep");
    }
    if (type != nullptr && type->is_string() && type->as_string() == "frontier") {
      in.error("mutually-exclusive", "frontier",
               "the adaptive 'frontier' section replaces the fixed-grid "
               "estimateType \"frontier\"; use one or the other");
    }
    FieldReader section(in, *frontier_section, "/frontier");
    (void)frontier::ExploreOptions::read(section);
  }

  // Names resolve against the registry. The QEC scheme is looked up under
  // the instruction set the qubit model resolved to (the default profile's
  // when the section is absent).
  InstructionSet set = InstructionSet::kGateBased;
  if (const json::Value* counts = job.find("logicalCounts")) {
    FieldReader section(in, *counts, "/logicalCounts");
    LogicalCounts value = LogicalCounts::read(section);
    if (input != nullptr) input->counts = value;
  }
  if (const json::Value* qubit = job.find("qubitParams")) {
    FieldReader section(in, *qubit, "/qubitParams");
    QubitParams value = QubitParams::read(
        section, [&registry](std::string_view name) { return registry.find_qubit(name); });
    set = value.instruction_set;
    if (input != nullptr) input->qubit = std::move(value);
  } else if (input != nullptr) {
    set = input->qubit.instruction_set;
  }
  if (const json::Value* qec = job.find("qecScheme")) {
    FieldReader section(in, *qec, "/qecScheme");
    QecScheme value = QecScheme::read(section, set, [&registry, set](std::string_view name) {
      return registry.find_qec(name, set);
    });
    if (input != nullptr) input->qec = std::move(value);
  } else if (input != nullptr) {
    // The registry's entry for the default scheme wins (a pack may re-tune
    // it); QecScheme::default_name stays the single source of the name.
    const QecScheme* scheme = registry.find_qec(QecScheme::default_name(set), set);
    input->qec = scheme != nullptr ? *scheme : QecScheme::default_for(set);
  }
  if (const json::Value* budget = job.find("errorBudget")) {
    FieldReader section(in, *budget, "/errorBudget");
    ErrorBudget value = ErrorBudget::read(section);
    if (input != nullptr) input->budget = value;
  }
  if (const json::Value* constraints = job.find("constraints")) {
    FieldReader section(in, *constraints, "/constraints");
    Constraints value = Constraints::read(section);
    if (input != nullptr) input->constraints = value;
  }
  if (const json::Value* units = job.find("distillationUnitSpecifications")) {
    FieldReader section(in, *units, "/distillationUnitSpecifications");
    std::vector<DistillationUnit> value = read_units(section, registry);
    if (input != nullptr) input->distillation_units = std::move(value);
  }
  if (type != nullptr) {
    if (!type->is_string()) {
      in.error("type-mismatch", "estimateType", "estimateType must be a string");
    } else if (type->as_string() != "singlePoint" && type->as_string() != "frontier") {
      in.error("invalid-value", "estimateType",
               "unknown estimateType '" + type->as_string() +
                   "' (expected singlePoint or frontier)");
    }
  }

  bool counts_may_come_later = false;
  if (sweep != nullptr) {
    if (!sweep->is_object()) {
      in.error("type-mismatch", "sweep", "sweep must be an object");
    } else {
      try {
        for (const service::SweepAxis& axis : service::sweep_axes(*sweep)) {
          if (axis.path == "logicalCounts" || axis.path.rfind("logicalCounts.", 0) == 0) {
            counts_may_come_later = true;
          }
        }
      } catch (const Error& e) {
        in.error("invalid-sweep", "sweep", e.what());
      }
    }
  }
  if (items != nullptr) {
    // Only the batch *structure* is validated here; each item's content is
    // read individually when the batch runs, so one bad item degrades to a
    // structured "invalid-item" result entry instead of rejecting the whole
    // request (the engine's per-item isolation contract).
    if (!items->is_array()) {
      in.error("type-mismatch", "items", "items must be an array");
    } else {
      for (std::size_t i = 0; i < items->as_array().size(); ++i) {
        const json::Value& item = items->as_array()[i];
        FieldReader item_in(in, item, pointer_join("/items", i));
        if (!item_in.expect_object("batch item must be an object")) continue;
        item_in.check_keys(job_keys());
        for (std::string_view kind : job_kinds()) {
          if (item.find(kind) != nullptr) {
            item_in.error("mutually-exclusive", "",
                          "a batch item must not itself carry items, sweep, or frontier");
            break;
          }
        }
      }
    }
  }

  // A batch or sweep may supply the counts per item, but only when
  // validating: an estimator input needs them at the top level.
  const bool counts_elsewhere = input == nullptr && (items != nullptr || counts_may_come_later);
  if (job.find("logicalCounts") == nullptr && !counts_elsewhere) {
    in.required_missing("logicalCounts");
  }
}

void read(const json::Value& job, const Registry& registry, Diagnostics* diags,
          EstimationInput* input) {
  FieldReader in(job, "", diags);
  if (in.expect_object("estimation job must be a JSON object")) {
    read_document(in, registry, input);
  }
  in.finish();
}

}  // namespace

const std::vector<std::string_view>& job_keys() {
  static const std::vector<std::string_view> kKeys = {
      "schemaVersion", "logicalCounts",
      "qubitParams",   "qecScheme",
      "errorBudget",   "constraints",
      "distillationUnitSpecifications", "estimateType",
      "items",         "sweep",
      "frontier",
  };
  return kKeys;
}

const std::vector<std::string_view>& job_kinds() {
  static const std::vector<std::string_view> kKinds = {"items", "sweep", "frontier"};
  return kKinds;
}

json::Value upgrade_job(const json::Value& job, Diagnostics& diags, int* source_version) {
  if (source_version != nullptr) *source_version = 1;
  if (!job.is_object()) return job;  // the validator reports the type error
  json::Value upgraded = job;
  const json::Value* version = job.find("schemaVersion");
  if (version == nullptr) {
    upgraded.set("schemaVersion", kSchemaVersion);
    return upgraded;
  }
  if (!version->is_number()) {
    diags.error("type-mismatch", "/schemaVersion", "schemaVersion must be a number");
    return upgraded;
  }
  const double declared = version->as_double();
  if (declared == 1.0) {
    upgraded.set("schemaVersion", kSchemaVersion);
    return upgraded;
  }
  if (declared == 2.0) {
    if (source_version != nullptr) *source_version = 2;
    return upgraded;
  }
  diags.error("unsupported-version", "/schemaVersion",
              "unsupported schemaVersion " + version->dump() + " (this service handles 1 and 2)");
  return upgraded;
}

void validate_batch_items(const json::Value& job, const Registry& registry,
                          Diagnostics& diags) {
  if (!job.is_object()) return;
  const json::Value* items = job.find("items");
  if (items == nullptr || !items->is_array()) return;
  for (std::size_t i = 0; i < items->as_array().size(); ++i) {
    const json::Value& item = items->as_array()[i];
    if (!item.is_object()) continue;  // the structural pass already flagged it
    Diagnostics item_diags;
    validate_job(merge_job_item(job, item), registry, item_diags);
    const std::string prefix = pointer_join("/items", i);
    for (const Diagnostic& d : item_diags.entries()) {
      // Report only what this item causes: problems in sections the item
      // itself overrides, or logicalCounts missing on both levels. Findings
      // in inherited sections were already reported at the top level.
      if (d.path.empty()) continue;
      const std::size_t next = d.path.find('/', 1);
      const std::string section = d.path.substr(1, next == std::string::npos
                                                       ? std::string::npos
                                                       : next - 1);
      if (item.find(section) != nullptr || d.path == "/logicalCounts") {
        diags.add({d.severity, d.code, prefix + d.path, d.message});
      }
    }
  }
}

json::Value merge_job_item(const json::Value& base, const json::Value& overlay) {
  json::Object pruned;
  for (const auto& [k, v] : base.as_object()) {
    if (!is_job_kind(k)) pruned.emplace_back(k, v);
  }
  json::Value merged{std::move(pruned)};
  for (const auto& [k, v] : overlay.as_object()) merged.set(k, v);
  return merged;
}

EstimationInput read_job(const json::Value& job, const Registry& registry,
                         Diagnostics* diags) {
  EstimationInput input;
  read(job, registry, diags, &input);
  return input;
}

void validate_job(const json::Value& job, const Registry& registry, Diagnostics& diags) {
  read(job, registry, &diags, nullptr);
}

}  // namespace qre::api
