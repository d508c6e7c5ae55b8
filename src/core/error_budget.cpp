#include "core/error_budget.hpp"

#include <string>

#include "common/error.hpp"
#include "common/field_reader.hpp"

namespace qre {

// The factories go through the section reader, so its checks are the only
// copy of the budget rules.
ErrorBudget ErrorBudget::from_total(double total) { return from_json(json::Value(total)); }

ErrorBudget ErrorBudget::from_parts(double logical, double tstates, double rotations) {
  json::Object parts;
  parts.emplace_back("logical", logical);
  parts.emplace_back("tstates", tstates);
  parts.emplace_back("rotations", rotations);
  return from_json(json::Value(std::move(parts)));
}

const std::vector<std::string_view>& ErrorBudget::json_keys() {
  static const std::vector<std::string_view> kKeys = {"total", "logical", "tstates",
                                                      "rotations"};
  return kKeys;
}

ErrorBudget ErrorBudget::from_json(const json::Value& v, Diagnostics* diags) {
  FieldReader in(v, "/errorBudget", diags);
  ErrorBudget b = read(in);
  in.finish();
  return b;
}

ErrorBudget ErrorBudget::read(FieldReader& in) {
  ErrorBudget b;
  const json::Value& v = in.value();
  if (v.is_number()) {
    if (check_total(in, "", v.as_double())) b.total_ = v.as_double();
    return b;
  }
  if (!v.is_object()) {
    in.error("type-mismatch", "", "errorBudget must be a number or an object");
    return b;
  }
  in.check_keys(json_keys());
  if (v.find("total") != nullptr) {
    double total = 0.0;
    if (in.number("total", total) &&
        check_total(in, "total", total, "'total' must be in (0, 1)")) {
      b.total_ = total;
    }
    return b;
  }
  ErrorBudgetPartition parts;
  const bool logical = in.number("logical", parts.logical, /*required=*/true);
  const bool tstates = in.number("tstates", parts.tstates, /*required=*/true);
  const bool rotations = in.number("rotations", parts.rotations, /*required=*/true);
  if (logical && parts.logical <= 0.0) {
    in.error("value-range", "logical", "'logical' budget part must be positive");
  }
  if (tstates && parts.tstates < 0.0) {
    in.error("value-range", "tstates", "'tstates' budget part must be non-negative");
  }
  if (rotations && parts.rotations < 0.0) {
    in.error("value-range", "rotations", "'rotations' budget part must be non-negative");
  }
  if (logical && tstates && rotations && parts.total() >= 1.0) {
    in.error("value-range", "", "error budget parts must sum below 1");
  }
  b.explicit_parts_ = parts;
  b.total_ = parts.total();
  return b;
}

bool ErrorBudget::check_total(FieldReader& in, std::string_view key, double total,
                              std::string_view message) {
  if (total > 0.0 && total < 1.0) return true;
  in.error("value-range", key, std::string(message));
  return false;
}

json::Value ErrorBudget::to_json() const {
  json::Object o;
  o.emplace_back("total", total_);
  if (explicit_parts_.has_value()) {
    o.emplace_back("logical", explicit_parts_->logical);
    o.emplace_back("tstates", explicit_parts_->tstates);
    o.emplace_back("rotations", explicit_parts_->rotations);
  }
  return json::Value(std::move(o));
}

double ErrorBudget::total() const { return total_; }

ErrorBudgetPartition ErrorBudget::resolve(bool has_tstates, bool has_rotations) const {
  if (explicit_parts_.has_value()) {
    QRE_REQUIRE(!has_rotations || explicit_parts_->rotations > 0.0,
                "error budget: program has rotations but the rotation budget is zero");
    QRE_REQUIRE(!has_tstates || explicit_parts_->tstates > 0.0,
                "error budget: program consumes T states but the T-state budget is zero");
    return *explicit_parts_;
  }
  ErrorBudgetPartition p;
  if (has_rotations) {
    p.logical = total_ / 3.0;
    p.tstates = total_ / 3.0;
    p.rotations = total_ / 3.0;
  } else if (has_tstates) {
    p.logical = total_ / 2.0;
    p.tstates = total_ / 2.0;
  } else {
    p.logical = total_;
  }
  return p;
}

}  // namespace qre
