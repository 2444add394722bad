// Decision audit trail: one complete, deterministic record per decide().
#include "runtime/audit.h"

#include <gtest/gtest.h>

#include "runtime/decision.h"

namespace cosparse::runtime {
namespace {

DecisionEngine engine_with(AuditTrail* trail) {
  DecisionEngine de(sim::SystemConfig::transmuter(4, 16));
  de.set_audit(trail);
  return de;
}

TEST(Audit, RecordsOnePerDecision) {
  AuditTrail trail;
  auto de = engine_with(&trail);
  (void)de.decide(100000, 1e-4, 50000);
  (void)de.decide(100000, 1e-4, 100);
  ASSERT_EQ(trail.records().size(), 2u);
  EXPECT_EQ(trail.records()[0].invocation, 0u);
  EXPECT_EQ(trail.records()[1].invocation, 1u);
}

TEST(Audit, RecordHasFeaturesChecksAndFourCounterfactuals) {
  AuditTrail trail;
  auto de = engine_with(&trail);
  const auto d = de.decide(100000, 1e-4, 50000);
  ASSERT_EQ(trail.records().size(), 1u);
  const DecisionRecord& rec = trail.records().front();

  EXPECT_EQ(rec.sw, d.sw);
  EXPECT_EQ(rec.hw, d.hw);
  EXPECT_FALSE(rec.forced_sw);
  EXPECT_EQ(rec.features.dimension, 100000);
  EXPECT_DOUBLE_EQ(rec.features.matrix_density, 1e-4);
  EXPECT_EQ(rec.features.frontier_nnz, 50000u);
  EXPECT_DOUBLE_EQ(rec.features.vector_density, 0.5);
  EXPECT_GT(rec.features.vector_footprint_bytes, 0u);
  EXPECT_GT(rec.features.l1_bytes_per_tile, 0u);

  // The root CVD comparison is always audited on a free decision, and the
  // applied threshold matches the recorded margin.
  ASSERT_FALSE(rec.checks.empty());
  EXPECT_EQ(rec.checks.front().name, "cvd");
  EXPECT_DOUBLE_EQ(rec.checks.front().margin,
                   rec.checks.front().value - rec.checks.front().threshold);
  EXPECT_GT(rec.cvd, 0.0);

  // All four candidate configurations are estimated; exactly one is the
  // chosen one and it matches the decision.
  ASSERT_EQ(rec.counterfactuals.size(), 4u);
  std::size_t chosen = 0;
  for (const Counterfactual& cf : rec.counterfactuals) {
    EXPECT_GT(cf.est_cycles, 0u);
    if (cf.chosen) {
      ++chosen;
      EXPECT_EQ(cf.sw, d.sw);
      EXPECT_EQ(cf.hw, d.hw);
    }
  }
  EXPECT_EQ(chosen, 1u);
}

TEST(Audit, ForcedSwIsFlaggedAndSkipsCvdCheck) {
  AuditTrail trail;
  auto de = engine_with(&trail);
  const auto d = de.decide_forced_sw(SwConfig::kOP, 100000, 1e-4, 50000);
  EXPECT_EQ(d.sw, SwConfig::kOP);
  ASSERT_EQ(trail.records().size(), 1u);
  const DecisionRecord& rec = trail.records().front();
  EXPECT_TRUE(rec.forced_sw);
  for (const ThresholdCheck& c : rec.checks) EXPECT_NE(c.name, "cvd");
}

TEST(Audit, SameInputsProduceIdenticalRecords) {
  // Determinism is what makes audit diffs meaningful: byte-identical JSON
  // for byte-identical inputs, across engine instances.
  AuditTrail a;
  AuditTrail b;
  auto da = engine_with(&a);
  auto db = engine_with(&b);
  for (const std::size_t nnz : {100u, 5000u, 50000u, 99999u}) {
    (void)da.decide(100000, 2.3e-4, nnz);
    (void)db.decide(100000, 2.3e-4, nnz);
  }
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

TEST(Audit, ClearResetsInvocationIds) {
  AuditTrail trail;
  auto de = engine_with(&trail);
  (void)de.decide(1000, 1e-3, 500);
  trail.clear();
  EXPECT_TRUE(trail.empty());
  (void)de.decide(1000, 1e-3, 500);
  ASSERT_EQ(trail.records().size(), 1u);
  EXPECT_EQ(trail.records().front().invocation, 0u);
}

TEST(Audit, JsonSectionShape) {
  AuditTrail trail;
  auto de = engine_with(&trail);
  (void)de.decide(100000, 1e-4, 100);
  const Json j = trail.to_json();
  const Json* invs = j.find("invocations");
  ASSERT_NE(invs, nullptr);
  ASSERT_TRUE(invs->is_array());
  ASSERT_EQ(invs->size(), 1u);
  const Json& rec = invs->at(0);
  for (const char* key : {"invocation", "forced_sw", "features", "checks",
                          "sw", "hw", "cvd", "counterfactuals"}) {
    EXPECT_NE(rec.find(key), nullptr) << key;
  }
}

}  // namespace
}  // namespace cosparse::runtime
