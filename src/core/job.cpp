#include "core/job.hpp"

#include <utility>

#include "api/api.hpp"
#include "common/error.hpp"

namespace qre {

EstimationInput estimation_input_from_json(const json::Value& job) {
  return api::input_from_document(job, api::Registry::global());
}

json::Value run_single_job(const json::Value& job) {
  QRE_REQUIRE(job.find("items") == nullptr && job.find("sweep") == nullptr &&
                  job.find("frontier") == nullptr,
              "a single job must not carry items, sweep, or frontier");
  return api::run_single_document(job, api::Registry::global());
}

json::Value run_job(const json::Value& job) {
  return run_job(job, service::EngineOptions{});
}

json::Value run_job(const json::Value& job, const service::EngineOptions& options) {
  api::EstimateRequest request = api::EstimateRequest::parse(job);
  if (!request.ok()) throw ValidationError(std::move(request.diagnostics));
  api::EstimateResponse response = api::run(request, options);
  // A valid request that still failed (infeasible single estimate) surfaces
  // as runtime diagnostics; rethrow them with their plain messages.
  if (!response.success) throw Error(response.diagnostics.summary());
  return std::move(response.result);  // a member is not moved implicitly
}

json::Value run_job_file(const std::string& path) { return run_job(json::parse_file(path)); }

}  // namespace qre
