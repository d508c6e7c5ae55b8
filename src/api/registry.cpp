#include "api/registry.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/field_reader.hpp"

namespace qre::api {

namespace {

std::vector<std::string_view> keys_plus(const std::vector<std::string_view>& base,
                                        std::initializer_list<std::string_view> extra) {
  std::vector<std::string_view> keys = base;
  keys.insert(keys.end(), extra.begin(), extra.end());
  return keys;
}

}  // namespace

Registry Registry::with_builtins() {
  Registry r;
  for (const QubitParams& q : QubitParams::presets()) r.register_qubit(q);
  for (const auto& [set, scheme] : QecScheme::presets()) r.register_qec(set, scheme);
  for (DistillationUnit& u : DistillationUnit::default_units()) {
    r.register_distillation(std::move(u));
  }
  return r;
}

Registry::Registry(Registry&& other) noexcept {
  WriterLock lock(other.mutex_);
  qubits_ = std::move(other.qubits_);
  qec_ = std::move(other.qec_);
  distillation_ = std::move(other.distillation_);
}

Registry& Registry::global() {
  static Registry instance = with_builtins();
  return instance;
}

void Registry::register_qubit_locked(QubitParams profile) {
  QRE_REQUIRE(!profile.name.empty(), "a registered qubit profile needs a name");
  profile.validate();
  for (QubitParams& q : qubits_) {
    if (q.name == profile.name) {
      q = std::move(profile);
      return;
    }
  }
  qubits_.push_back(std::move(profile));
}

void Registry::register_qubit(QubitParams profile) {
  WriterLock lock(mutex_);
  register_qubit_locked(std::move(profile));
}

const QubitParams* Registry::find_qubit_locked(std::string_view name) const {
  for (const QubitParams& q : qubits_) {
    if (q.name == name) return &q;
  }
  return nullptr;
}

const QubitParams* Registry::find_qubit(std::string_view name) const {
  ReaderLock lock(mutex_);
  return find_qubit_locked(name);
}

std::vector<std::string> Registry::qubit_names() const {
  ReaderLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(qubits_.size());
  for (const QubitParams& q : qubits_) names.push_back(q.name);
  return names;
}

void Registry::register_qec_locked(InstructionSet set, QecScheme scheme) {
  QRE_REQUIRE(!scheme.name().empty(), "a registered QEC scheme needs a name");
  for (QecEntry& e : qec_) {
    if (e.set == set && e.scheme.name() == scheme.name()) {
      e.scheme = std::move(scheme);
      return;
    }
  }
  qec_.push_back({set, std::move(scheme)});
}

void Registry::register_qec(InstructionSet set, QecScheme scheme) {
  WriterLock lock(mutex_);
  register_qec_locked(set, std::move(scheme));
}

const QecScheme* Registry::find_qec_locked(std::string_view name, InstructionSet set) const {
  for (const QecEntry& e : qec_) {
    if (e.set == set && e.scheme.name() == name) return &e.scheme;
  }
  return nullptr;
}

const QecScheme* Registry::find_qec(std::string_view name, InstructionSet set) const {
  ReaderLock lock(mutex_);
  return find_qec_locked(name, set);
}

std::vector<std::string> Registry::qec_names() const {
  ReaderLock lock(mutex_);
  std::vector<std::string> names;
  for (const QecEntry& e : qec_) {
    if (std::find(names.begin(), names.end(), e.scheme.name()) == names.end()) {
      names.push_back(e.scheme.name());
    }
  }
  return names;
}

void Registry::register_distillation_locked(DistillationUnit unit) {
  QRE_REQUIRE(!unit.name.empty(), "a registered distillation unit needs a name");
  unit.validate();
  for (DistillationUnit& u : distillation_) {
    if (u.name == unit.name) {
      u = std::move(unit);
      return;
    }
  }
  distillation_.push_back(std::move(unit));
}

void Registry::register_distillation(DistillationUnit unit) {
  WriterLock lock(mutex_);
  register_distillation_locked(std::move(unit));
}

const DistillationUnit* Registry::find_distillation(std::string_view name) const {
  ReaderLock lock(mutex_);
  for (const DistillationUnit& u : distillation_) {
    if (u.name == name) return &u;
  }
  return nullptr;
}

std::vector<std::string> Registry::distillation_names() const {
  ReaderLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(distillation_.size());
  for (const DistillationUnit& u : distillation_) names.push_back(u.name);
  return names;
}

void Registry::load_profile_pack(const json::Value& pack, Diagnostics& diags) {
  if (!pack.is_object()) {
    diags.error("type-mismatch", "", "profile pack must be a JSON object");
    return;
  }
  // One exclusive lock across the whole pack: concurrent readers never
  // observe a half-loaded pack, and the in-pack base/override lookups below
  // must use the _locked variants.
  WriterLock lock(mutex_);
  check_known_keys(pack, {"schemaVersion", "qubitParams", "qecSchemes", "distillationUnits"},
                   "", &diags);
  if (const json::Value* version = pack.find("schemaVersion")) {
    if (!version->is_number() || version->as_double() != 2.0) {
      diags.error("unsupported-version", "/schemaVersion",
                  "profile packs use schemaVersion 2");
      return;
    }
  }

  // Each entry is read by its section's reader, so a bad field is reported
  // at its own path; an entry with any error is skipped.
  if (const json::Value* profiles = pack.find("qubitParams")) {
    if (!profiles->is_array()) {
      diags.error("type-mismatch", "/qubitParams", "qubitParams must be an array");
    } else {
      const std::vector<std::string_view> allowed =
          keys_plus(QubitParams::json_keys(), {"base"});
      for (std::size_t i = 0; i < profiles->as_array().size(); ++i) {
        const json::Value& entry = profiles->as_array()[i];
        FieldReader in(entry, pointer_join("/qubitParams", i), &diags);
        if (!in.expect_object("qubit profile entry must be an object")) continue;
        in.check_keys(allowed);
        const json::Value* name = entry.find("name");
        if (name == nullptr || !name->is_string()) {
          in.error("required-missing", "name", "qubit profile entry needs a string 'name'");
          continue;
        }
        QubitParams q;
        bool custom = false;
        if (entry.find("base") != nullptr) {
          const json::Value* base = in.get("base", JsonKind::kString);
          if (base == nullptr) continue;
          const QubitParams* found = find_qubit_locked(base->as_string());
          if (found == nullptr) {
            in.error("unknown-name", "base",
                     "unknown base qubit profile '" + base->as_string() + "'");
            continue;
          }
          q = *found;
        } else if (const QubitParams* existing = find_qubit_locked(name->as_string())) {
          q = *existing;  // re-tuning an already-registered profile
        } else if (entry.find("instructionSet") == nullptr) {
          in.error("required-missing", "instructionSet",
                   "new qubit profile needs 'instructionSet' or 'base'");
          continue;
        } else {
          custom = true;
        }
        q.name = name->as_string();
        q.read_fields(in, custom);
        if (!in.ok()) continue;
        try {
          register_qubit_locked(std::move(q));
        } catch (const Error& e) {  // registration's own checks (an empty name)
          in.error("value-range", "", e.what());
        }
      }
    }
  }

  if (const json::Value* schemes = pack.find("qecSchemes")) {
    if (!schemes->is_array()) {
      diags.error("type-mismatch", "/qecSchemes", "qecSchemes must be an array");
    } else {
      const std::vector<std::string_view> allowed =
          keys_plus(QecScheme::json_keys(), {"base", "instructionSet"});
      for (std::size_t i = 0; i < schemes->as_array().size(); ++i) {
        const json::Value& entry = schemes->as_array()[i];
        FieldReader in(entry, pointer_join("/qecSchemes", i), &diags);
        if (!in.expect_object("QEC scheme entry must be an object")) continue;
        in.check_keys(allowed);
        const json::Value* name = entry.find("name");
        if (name == nullptr || !name->is_string()) {
          in.error("required-missing", "name", "QEC scheme entry needs a string 'name'");
          continue;
        }
        const json::Value* set_field = entry.find("instructionSet");
        InstructionSet set = InstructionSet::kGateBased;
        if (set_field == nullptr || !set_field->is_string() ||
            !try_parse_instruction_set(set_field->as_string(), set)) {
          in.error("required-missing", "instructionSet",
                   "QEC scheme entry needs instructionSet GateBased or Majorana");
          continue;
        }
        const QecScheme* base = find_qec_locked(name->as_string(), set);
        if (entry.find("base") != nullptr) {
          const json::Value* base_name = in.get("base", JsonKind::kString);
          if (base_name == nullptr) continue;
          base = find_qec_locked(base_name->as_string(), set);
          if (base == nullptr) {
            in.error("unknown-name", "base",
                     "unknown base QEC scheme '" + base_name->as_string() + "'");
            continue;
          }
        }
        QecScheme scheme =
            QecScheme::read_overrides(base != nullptr ? *base : QecScheme::default_for(set), in)
                .with_name(name->as_string());
        if (!in.ok()) continue;
        try {
          register_qec_locked(set, std::move(scheme));
        } catch (const Error& e) {
          in.error("value-range", "", e.what());
        }
      }
    }
  }

  if (const json::Value* units = pack.find("distillationUnits")) {
    if (!units->is_array()) {
      diags.error("type-mismatch", "/distillationUnits", "distillationUnits must be an array");
    } else {
      for (std::size_t i = 0; i < units->as_array().size(); ++i) {
        FieldReader in(units->as_array()[i], pointer_join("/distillationUnits", i), &diags);
        DistillationUnit unit = DistillationUnit::read(in);
        if (!in.ok()) continue;
        try {
          register_distillation_locked(std::move(unit));
        } catch (const Error& e) {
          in.error("value-range", "", e.what());
        }
      }
    }
  }
}

json::Value Registry::to_json() const {
  ReaderLock lock(mutex_);
  json::Object out;
  out.emplace_back("schemaVersion", 2);

  json::Array qubits;
  qubits.reserve(qubits_.size());
  for (const QubitParams& q : qubits_) qubits.push_back(q.to_json());
  out.emplace_back("qubitParams", json::Value(std::move(qubits)));

  json::Array schemes;
  schemes.reserve(qec_.size());
  for (const QecEntry& e : qec_) {
    json::Value scheme = e.scheme.to_json();
    scheme.set("instructionSet", std::string(to_string(e.set)));
    schemes.push_back(std::move(scheme));
  }
  out.emplace_back("qecSchemes", json::Value(std::move(schemes)));

  json::Array units;
  units.reserve(distillation_.size());
  for (const DistillationUnit& u : distillation_) units.push_back(u.to_json());
  out.emplace_back("distillationUnits", json::Value(std::move(units)));

  return json::Value(std::move(out));
}

}  // namespace qre::api
