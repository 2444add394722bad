#include "runtime/audit.h"

#include <utility>

namespace cosparse::runtime {

Json DecisionFeatures::to_json() const {
  Json o = Json::object();
  o["dimension"] = dimension;
  o["matrix_density"] = matrix_density;
  o["frontier_nnz"] = frontier_nnz;
  o["vector_density"] = vector_density;
  o["vector_footprint_bytes"] = vector_footprint_bytes;
  o["l1_bytes_per_tile"] = l1_bytes_per_tile;
  o["op_list_bytes_per_pe"] = op_list_bytes_per_pe;
  o["op_list_budget_bytes"] = op_list_budget_bytes;
  return o;
}

Json ThresholdCheck::to_json() const {
  Json o = Json::object();
  o["name"] = name;
  o["value"] = value;
  o["threshold"] = threshold;
  o["margin"] = margin;
  o["passed"] = passed;
  return o;
}

Json Counterfactual::to_json() const {
  Json o = Json::object();
  o["sw"] = to_string(sw);
  o["hw"] = sim::to_string(hw);
  o["est_cycles"] = est_cycles;
  o["chosen"] = chosen;
  return o;
}

Json DecisionRecord::to_json() const {
  Json o = Json::object();
  o["invocation"] = invocation;
  o["forced_sw"] = forced_sw;
  o["features"] = features.to_json();
  Json cs = Json::array();
  for (const ThresholdCheck& c : checks) cs.push_back(c.to_json());
  o["checks"] = std::move(cs);
  o["sw"] = to_string(sw);
  o["hw"] = sim::to_string(hw);
  o["cvd"] = cvd;
  Json cf = Json::array();
  for (const Counterfactual& c : counterfactuals) cf.push_back(c.to_json());
  o["counterfactuals"] = std::move(cf);
  return o;
}

void AuditTrail::record(DecisionRecord rec) {
  rec.invocation = next_invocation_++;
  records_.push_back(std::move(rec));
}

void AuditTrail::clear() {
  records_.clear();
  next_invocation_ = 0;
}

Json AuditTrail::to_json() const {
  Json o = Json::object();
  Json arr = Json::array();
  for (const DecisionRecord& r : records_) arr.push_back(r.to_json());
  o["invocations"] = std::move(arr);
  return o;
}

}  // namespace cosparse::runtime
