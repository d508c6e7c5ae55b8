// Physical qubit parameter models (paper Section IV-C1).
//
// A qubit model describes the primitive instruction set of the hardware and
// the duration / error rate of each primitive. Two instruction sets are
// supported, as in the Azure Quantum Resource Estimator:
//
//  * gate-based: single-qubit gates, two-qubit gates, T gates, and
//    single-qubit measurements;
//  * Majorana: single-qubit measurements, two-qubit joint measurements, and
//    T gates (physical T states via injection, typically with a high error
//    rate that the T factories must distill away).
//
// Six default profiles are provided, mirroring the tool's presets
// (Beverland et al., arXiv:2211.07629, Table V):
//
//   name             t_gate   t_meas   Clifford err  T err
//   qubit_gate_ns_e3  50 ns   100 ns   1e-3          1e-3   (transmon-like, realistic)
//   qubit_gate_ns_e4  50 ns   100 ns   1e-4          1e-4   (transmon-like, optimistic)
//   qubit_gate_us_e3  100 us  100 us   1e-3          1e-6   (ion-like, realistic)
//   qubit_gate_us_e4  100 us  100 us   1e-4          1e-6   (ion-like, optimistic)
//   qubit_maj_ns_e4   100 ns  100 ns   1e-4          5e-2   (Majorana, realistic)
//   qubit_maj_ns_e6   100 ns  100 ns   1e-6          1e-2   (Majorana, optimistic)
//
// Any subset of the fields can be overridden on top of a preset, or a fully
// custom model can be specified (including via JSON, Section IV-C of the
// paper).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/field_reader.hpp"
#include "json/json.hpp"

namespace qre {

enum class InstructionSet { kGateBased, kMajorana };

std::string_view to_string(InstructionSet s);

/// Parses the accepted spellings ("GateBased"/"gate_based"/"gateBased",
/// "Majorana"/"majorana"); returns false and leaves `out` untouched for
/// anything else. The one place the spelling table lives.
bool try_parse_instruction_set(std::string_view s, InstructionSet& out);

/// Physical qubit properties. All durations are in nanoseconds, all error
/// rates are probabilities per operation.
struct QubitParams {
  std::string name;
  InstructionSet instruction_set = InstructionSet::kGateBased;

  // Durations (ns). Gate fields apply to gate-based models; the joint
  // measurement field applies to Majorana models.
  double one_qubit_measurement_time_ns = 0.0;
  double one_qubit_gate_time_ns = 0.0;
  double two_qubit_gate_time_ns = 0.0;
  double two_qubit_joint_measurement_time_ns = 0.0;
  double t_gate_time_ns = 0.0;

  // Error rates.
  double one_qubit_measurement_error_rate = 0.0;
  double one_qubit_gate_error_rate = 0.0;
  double two_qubit_gate_error_rate = 0.0;
  double two_qubit_joint_measurement_error_rate = 0.0;
  double t_gate_error_rate = 0.0;
  double idle_error_rate = 0.0;

  /// The six presets.
  static QubitParams gate_ns_e3();
  static QubitParams gate_ns_e4();
  static QubitParams gate_us_e3();
  static QubitParams gate_us_e4();
  static QubitParams maj_ns_e4();
  static QubitParams maj_ns_e6();

  /// The six presets, in the order the paper's Figure 4 uses: the one
  /// table every lookup by name reads.
  static const std::vector<QubitParams>& presets();

  /// The preset called `name`, or nullptr.
  static const QubitParams* find_preset(std::string_view name);

  /// Lookup by preset name ("qubit_gate_ns_e3", ...); throws for unknown names.
  static QubitParams from_name(std::string_view name);

  /// Names of all presets, in presets() order.
  static const std::vector<std::string>& preset_names();

  /// Builds a model from JSON. If the object carries a "name" matching a
  /// preset, the remaining fields override that preset; otherwise it is a
  /// custom model, which needs "instructionSet" and every field that
  /// instruction set uses. Every problem is recorded on `diags` when a sink
  /// is given; without one a bad section throws qre::Error.
  static QubitParams from_json(const json::Value& v, Diagnostics* diags = nullptr);

  /// Resolves a profile name to a base model (nullptr: not a known name).
  using Lookup = std::function<const QubitParams*(std::string_view)>;

  /// The section reader behind from_json, resolving "name" through `find`
  /// (the API layer passes its profile registry).
  static QubitParams read(FieldReader& in, const Lookup& find);

  /// Reads "instructionSet" and the numeric fields onto this model. A
  /// `custom` model has no base, so a field its instruction set uses is
  /// required unless "instructionSet" itself is missing or bad (the caller
  /// reports that).
  void read_fields(FieldReader& in, bool custom);

  json::Value to_json() const;

  /// The keys from_json understands.
  static const std::vector<std::string_view>& json_keys();

  /// The representative physical Clifford error rate used by the QEC
  /// logical-error model: the worst error rate among the Clifford-level
  /// primitives (gates/joint measurements, measurement, idle).
  double clifford_error_rate() const;

  /// The measurement ("readout") error rate, available to QEC/distillation
  /// formulas.
  double readout_error_rate() const;

  /// Validates ranges (positive times, error rates in (0,1)); throws
  /// qre::Error describing the first violation.
  void validate() const;
};

}  // namespace qre
