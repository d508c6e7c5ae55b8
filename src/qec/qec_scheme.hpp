// Quantum error correction schemes (paper Sections III-C and IV-C2).
//
// A QEC scheme is described by two numeric parameters — the error-correction
// threshold p* and the crossing pre-factor a — and two formula parameters:
// the logical cycle time and the number of physical qubits per logical
// qubit, both functions of the code distance and the physical operation
// times. The logical error rate per logical qubit per logical cycle at code
// distance d is modelled as
//
//     P(d) = a * (p / p*) ^ ((d + 1) / 2)
//
// where p is the representative physical (Clifford) error rate. Given a
// target logical error rate, the scheme computes the smallest odd code
// distance d with P(d) <= target.
//
// Defaults match the tool's presets: the surface code for both instruction
// sets and the floquet (Hastings-Haah) code for Majorana hardware.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/field_reader.hpp"
#include "formula/formula.hpp"
#include "json/json.hpp"
#include "profiles/qubit_params.hpp"

namespace qre {

/// A quantum error correction scheme with formula-driven overheads.
class QecScheme {
 public:
  /// Gate-based surface code: p* = 0.01, a = 0.03,
  /// cycle = (4*t_2q + 2*t_meas)*d, qubits = 2*d^2.
  static QecScheme surface_code_gate_based();

  /// Majorana surface code: p* = 0.0015, a = 0.08,
  /// cycle = 20*t_meas*d, qubits = 2*d^2.
  static QecScheme surface_code_majorana();

  /// Floquet / Hastings-Haah code (Majorana hardware): p* = 0.01, a = 0.07,
  /// cycle = 3*t_meas*d, qubits = 4*d^2 + 8*(d-1).
  static QecScheme floquet_code();

  /// Default scheme for an instruction set: surface code for gate-based,
  /// floquet code for Majorana (as used in the paper's Figures 3 and 4).
  static QecScheme default_for(InstructionSet set);
  /// The name of default_for(set), without building the scheme.
  static std::string_view default_name(InstructionSet set);

  /// The preset schemes with the instruction set each serves: the one
  /// table every lookup by name reads. "surface_code" has one entry per
  /// set; "floquet_code" is Majorana only.
  static const std::vector<std::pair<InstructionSet, QecScheme>>& presets();

  /// The preset called `name` for `set`, or nullptr.
  static const QecScheme* find_preset(std::string_view name, InstructionSet set);

  /// Lookup by name for an instruction set; throws for a name with no
  /// preset on that set (e.g. "floquet_code" for gate-based hardware).
  static QecScheme from_name(std::string_view name, InstructionSet set);

  /// Customization from JSON: an optional "name" preset plus any of
  /// "errorCorrectionThreshold", "crossingPrefactor", "logicalCycleTime",
  /// "physicalQubitsPerLogicalQubit", "maxCodeDistance" overrides. Every
  /// problem is recorded on `diags` when a sink is given; without one a bad
  /// section throws qre::Error.
  static QecScheme from_json(const json::Value& v, InstructionSet set,
                             Diagnostics* diags = nullptr);

  /// Resolves a scheme name for the reader's instruction set (nullptr: not
  /// a known name).
  using Lookup = std::function<const QecScheme*(std::string_view)>;

  /// The section reader behind from_json, resolving "name" through `find`
  /// (the API layer passes its registry); no name means default_for(set).
  static QecScheme read(FieldReader& in, InstructionSet set, const Lookup& find);

  /// Reads the override keys (everything but "name") onto `base`. Used by
  /// read() and by profile-pack loading.
  static QecScheme read_overrides(QecScheme base, FieldReader& in);

  /// A copy of this scheme under a different name (profile-pack loading).
  QecScheme with_name(std::string name) const;

  json::Value to_json() const;

  /// The keys from_json understands.
  static const std::vector<std::string_view>& json_keys();

  const std::string& name() const { return name_; }
  double threshold() const { return threshold_; }
  double crossing_prefactor() const { return crossing_prefactor_; }
  std::uint64_t max_code_distance() const { return max_code_distance_; }
  /// Source texts of the two overhead formulas (cache fingerprinting).
  const std::string& logical_cycle_time_text() const { return logical_cycle_time_.text(); }
  const std::string& physical_qubits_text() const {
    return physical_qubits_per_logical_qubit_.text();
  }

  /// P(d) for the given physical error rate; requires p < p*.
  double logical_error_rate(double physical_error_rate, std::uint64_t code_distance) const;

  /// Smallest odd distance d with P(d) <= required; throws qre::Error when
  /// the physical error rate is at/above threshold or when the distance
  /// would exceed max_code_distance().
  std::uint64_t code_distance_for(double physical_error_rate,
                                  double required_logical_error_rate) const;

  /// Logical cycle duration in nanoseconds at the given distance.
  /// Memoized per (qubit operation times, distance): the formulas are
  /// invariant, and the estimator's search loops re-ask for the same few
  /// distances thousands of times.
  double logical_cycle_time_ns(const QubitParams& qubit, std::uint64_t code_distance) const;

  /// Physical qubits making up one logical qubit at the given distance.
  /// Memoized per distance (the formula sees only the code distance).
  std::uint64_t physical_qubits_per_logical_qubit(std::uint64_t code_distance) const;

 private:
  QecScheme(std::string name, double threshold, double prefactor, Formula cycle_time,
            Formula physical_qubits);

  std::string name_;
  double threshold_;
  double crossing_prefactor_;
  Formula logical_cycle_time_;
  Formula physical_qubits_per_logical_qubit_;
  std::uint64_t max_code_distance_ = 51;

  /// Formula-evaluation memo, shared by copies of this scheme (copies keep
  /// the same formulas; read_overrides() re-seats it before changing any).
  /// Concurrency-safe: results are plain doubles guarded by a mutex.
  struct EvalCache;
  std::shared_ptr<EvalCache> eval_cache_;
};

/// One logical qubit patch: the QEC parameters the estimator reports
/// (paper Section IV-D3).
struct LogicalQubit {
  std::uint64_t code_distance = 0;
  std::uint64_t physical_qubits = 0;
  double cycle_time_ns = 0.0;
  /// Error rate per logical qubit per logical cycle.
  double logical_error_rate = 0.0;

  /// Logical clock frequency in Hz (inverse cycle time).
  double clock_frequency_hz() const { return 1e9 / cycle_time_ns; }

  static LogicalQubit create(const QubitParams& qubit, const QecScheme& scheme,
                             std::uint64_t code_distance);

  json::Value to_json() const;
};

/// Binds the formula variables (operation times and code distance) for a
/// qubit model; exposed for custom formulas in tests and examples.
Environment qec_formula_environment(const QubitParams& qubit, std::uint64_t code_distance);

}  // namespace qre
