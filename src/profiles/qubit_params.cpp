#include "profiles/qubit_params.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/field_reader.hpp"

namespace qre {

std::string_view to_string(InstructionSet s) {
  switch (s) {
    case InstructionSet::kGateBased: return "GateBased";
    case InstructionSet::kMajorana: return "Majorana";
  }
  return "?";
}

bool try_parse_instruction_set(std::string_view s, InstructionSet& out) {
  if (s == "GateBased" || s == "gate_based" || s == "gateBased") {
    out = InstructionSet::kGateBased;
    return true;
  }
  if (s == "Majorana" || s == "majorana") {
    out = InstructionSet::kMajorana;
    return true;
  }
  return false;
}

namespace {

QubitParams gate_based(std::string name, double gate_ns, double meas_ns, double clifford_err,
                       double t_err) {
  QubitParams q;
  q.name = std::move(name);
  q.instruction_set = InstructionSet::kGateBased;
  q.one_qubit_measurement_time_ns = meas_ns;
  q.one_qubit_gate_time_ns = gate_ns;
  q.two_qubit_gate_time_ns = gate_ns;
  q.t_gate_time_ns = gate_ns;
  q.one_qubit_measurement_error_rate = clifford_err;
  q.one_qubit_gate_error_rate = clifford_err;
  q.two_qubit_gate_error_rate = clifford_err;
  q.t_gate_error_rate = t_err;
  q.idle_error_rate = clifford_err;
  return q;
}

QubitParams majorana(std::string name, double meas_ns, double clifford_err, double t_err) {
  QubitParams q;
  q.name = std::move(name);
  q.instruction_set = InstructionSet::kMajorana;
  q.one_qubit_measurement_time_ns = meas_ns;
  q.two_qubit_joint_measurement_time_ns = meas_ns;
  q.t_gate_time_ns = meas_ns;
  q.one_qubit_measurement_error_rate = clifford_err;
  q.two_qubit_joint_measurement_error_rate = clifford_err;
  q.t_gate_error_rate = t_err;
  q.idle_error_rate = clifford_err;
  return q;
}

}  // namespace

QubitParams QubitParams::gate_ns_e3() {
  return gate_based("qubit_gate_ns_e3", 50.0, 100.0, 1e-3, 1e-3);
}
QubitParams QubitParams::gate_ns_e4() {
  return gate_based("qubit_gate_ns_e4", 50.0, 100.0, 1e-4, 1e-4);
}
QubitParams QubitParams::gate_us_e3() {
  return gate_based("qubit_gate_us_e3", 100e3, 100e3, 1e-3, 1e-6);
}
QubitParams QubitParams::gate_us_e4() {
  return gate_based("qubit_gate_us_e4", 100e3, 100e3, 1e-4, 1e-6);
}
QubitParams QubitParams::maj_ns_e4() { return majorana("qubit_maj_ns_e4", 100.0, 1e-4, 5e-2); }
QubitParams QubitParams::maj_ns_e6() { return majorana("qubit_maj_ns_e6", 100.0, 1e-6, 1e-2); }

const std::vector<QubitParams>& QubitParams::presets() {
  static const std::vector<QubitParams> kPresets = {
      gate_ns_e3(), gate_ns_e4(), gate_us_e3(), gate_us_e4(), maj_ns_e4(), maj_ns_e6(),
  };
  return kPresets;
}

const std::vector<std::string>& QubitParams::preset_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const QubitParams& q : presets()) names.push_back(q.name);
    return names;
  }();
  return kNames;
}

const QubitParams* QubitParams::find_preset(std::string_view name) {
  for (const QubitParams& q : presets()) {
    if (q.name == name) return &q;
  }
  return nullptr;
}

QubitParams QubitParams::from_name(std::string_view name) {
  if (const QubitParams* q = find_preset(name)) return *q;
  std::string known;
  for (const std::string& n : preset_names()) known += (known.empty() ? "" : ", ") + n;
  throw_error("unknown qubit model '" + std::string(name) + "'; known presets: " + known);
}

namespace {

/// The numeric fields: their JSON key, member, kind, and which instruction
/// sets use them (the fields a custom model must give), in json_keys order.
struct NumericField {
  std::string_view key;
  double QubitParams::*member;
  bool is_time;
  bool gate_based;
  bool majorana;
};

constexpr NumericField kNumericFields[] = {
    {"oneQubitMeasurementTime", &QubitParams::one_qubit_measurement_time_ns, true, true, true},
    {"oneQubitGateTime", &QubitParams::one_qubit_gate_time_ns, true, true, false},
    {"twoQubitGateTime", &QubitParams::two_qubit_gate_time_ns, true, true, false},
    {"twoQubitJointMeasurementTime", &QubitParams::two_qubit_joint_measurement_time_ns, true,
     false, true},
    {"tGateTime", &QubitParams::t_gate_time_ns, true, true, true},
    {"oneQubitMeasurementErrorRate", &QubitParams::one_qubit_measurement_error_rate, false,
     true, true},
    {"oneQubitGateErrorRate", &QubitParams::one_qubit_gate_error_rate, false, true, false},
    {"twoQubitGateErrorRate", &QubitParams::two_qubit_gate_error_rate, false, true, false},
    {"twoQubitJointMeasurementErrorRate",
     &QubitParams::two_qubit_joint_measurement_error_rate, false, false, true},
    {"tGateErrorRate", &QubitParams::t_gate_error_rate, false, true, true},
    {"idleErrorRate", &QubitParams::idle_error_rate, false, true, true},
};

bool uses(const NumericField& f, InstructionSet set) {
  return set == InstructionSet::kGateBased ? f.gate_based : f.majorana;
}

/// Times must be positive, error rates probabilities in (0, 1).
bool in_range(const NumericField& f, double value) {
  return f.is_time ? value > 0.0 : value > 0.0 && value < 1.0;
}

/// The in_range rule in words, after the field name.
std::string_view range_text(const NumericField& f) {
  return f.is_time ? " must be positive" : " must be in (0, 1)";
}

}  // namespace

const std::vector<std::string_view>& QubitParams::json_keys() {
  static const std::vector<std::string_view> kKeys = [] {
    std::vector<std::string_view> keys = {"name", "instructionSet"};
    for (const NumericField& f : kNumericFields) keys.push_back(f.key);
    return keys;
  }();
  return kKeys;
}

QubitParams QubitParams::from_json(const json::Value& v, Diagnostics* diags) {
  FieldReader in(v, "/qubitParams", diags);
  QubitParams q = read(in, find_preset);
  in.finish();
  return q;
}

QubitParams QubitParams::read(FieldReader& in, const Lookup& find) {
  QubitParams q;
  if (!in.expect_object("qubitParams must be an object")) return q;
  in.check_keys(json_keys());
  const json::Value* name = in.get("name", JsonKind::kString);
  const QubitParams* base = name != nullptr ? find(name->as_string()) : nullptr;
  if (base != nullptr) {
    q = *base;
  } else {
    if (name != nullptr) q.name = name->as_string();
    if (in.value().find("instructionSet") == nullptr) {
      in.error("unknown-name", "name",
               name != nullptr ? "unknown qubit profile '" + name->as_string() +
                                     "' and no 'instructionSet' to build a custom model"
                               : "custom qubit model requires 'instructionSet'");
    }
  }
  q.read_fields(in, /*custom=*/base == nullptr);
  return q;
}

void QubitParams::read_fields(FieldReader& in, bool custom) {
  bool set_known = !custom;
  if (const json::Value* is = in.get("instructionSet", JsonKind::kString)) {
    set_known = try_parse_instruction_set(is->as_string(), instruction_set);
    if (!set_known) {
      in.error("invalid-value", "instructionSet",
               "unknown instructionSet '" + is->as_string() +
                   "' (expected GateBased or Majorana)");
    }
  } else if (in.value().find("instructionSet") != nullptr) {
    set_known = false;
  }
  // Every field the instruction set uses needs a value: from the document,
  // or from the base model (a custom model has none; zero is never valid,
  // so it marks a field the base lacks after an instructionSet switch).
  if (set_known) {
    for (const NumericField& f : kNumericFields) {
      if (uses(f, instruction_set) && this->*f.member == 0.0 &&
          in.value().find(f.key) == nullptr) {
        in.required_missing(f.key);
      }
    }
  }
  for (const NumericField& f : kNumericFields) {
    double& field = this->*f.member;
    if (in.number(f.key, field) && !in_range(f, field)) {
      in.error("value-range", f.key,
               "'" + std::string(f.key) + "'" + std::string(range_text(f)));
    }
  }
}

json::Value QubitParams::to_json() const {
  json::Object o;
  o.emplace_back("name", name);
  o.emplace_back("instructionSet", std::string(to_string(instruction_set)));
  for (const NumericField& f : kNumericFields) {
    if (uses(f, instruction_set)) o.emplace_back(std::string(f.key), this->*f.member);
  }
  return json::Value(std::move(o));
}

double QubitParams::clifford_error_rate() const {
  double worst = std::max(one_qubit_measurement_error_rate, idle_error_rate);
  if (instruction_set == InstructionSet::kGateBased) {
    worst = std::max({worst, one_qubit_gate_error_rate, two_qubit_gate_error_rate});
  } else {
    worst = std::max(worst, two_qubit_joint_measurement_error_rate);
  }
  return worst;
}

double QubitParams::readout_error_rate() const { return one_qubit_measurement_error_rate; }

void QubitParams::validate() const {
  for (const NumericField& f : kNumericFields) {
    if (uses(f, instruction_set) && !in_range(f, this->*f.member)) {
      throw_error("qubit model '" + name + "': " + std::string(f.key) +
                  std::string(range_text(f)));
    }
  }
}

}  // namespace qre
