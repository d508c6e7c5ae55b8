#include "api/frontier.hpp"

#include "api/api.hpp"
#include "common/error.hpp"

namespace qre::api {

json::Value run_frontier_document(const json::Value& doc, const Registry& registry,
                                  const service::EngineOptions& options,
                                  frontier::ExploreStats* stats) {
  const json::Value* section = doc.find("frontier");
  QRE_REQUIRE(section != nullptr, "frontier job document lacks its 'frontier' section");
  Diagnostics sink;  // unknown keys were already warned about by validation
  frontier::ExploreOptions explore_options =
      frontier::ExploreOptions::from_json(*section, &sink);
  if (sink.has_errors()) throw ValidationError(std::move(sink));
  // The probe executor: one single-estimate document derived from the
  // validated job -> its report.
  auto runner = [&registry](const json::Value& probe) -> json::Value {
    Diagnostics probe_sink;
    return run_single_document(probe, registry, &probe_sink);
  };
  return frontier::explore(doc, explore_options, runner, options, stats);
}

}  // namespace qre::api
