// Golden-file tests for the perf-regression sentinel: fixture reports for
// a clear regression, a clear improvement, and resampled noise, checked
// end to end through JSON parsing, the Welch gate, and the table/JSON
// renderers.

#include "tools/bench_compare_lib.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/json_parse.h"
#include "util/rng.h"

namespace supa::tools {
namespace {

std::string ReportJson(const std::vector<double>& edges_per_sec,
                       const std::vector<double>& wall_s) {
  std::string out = R"({"dataset": "MovieLens", "samples": {)";
  auto arr = [](const std::vector<double>& xs) {
    std::string s = "[";
    for (size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) s += ", ";
      s += std::to_string(xs[i]);
    }
    return s + "]";
  };
  out += "\"edges_per_sec\": " + arr(edges_per_sec);
  out += ", \"wall_s\": " + arr(wall_s);
  out += "}}";
  return out;
}

/// Samples ~N(mean, stddev) via the repo Rng so fixtures are reproducible.
std::vector<double> Noisy(double mean, double stddev, size_t n,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(rng.Gaussian(mean, stddev));
  return out;
}

CompareReport Compare(const std::string& base_json,
                      const std::string& cand_json,
                      const CompareOptions& options = CompareOptions{}) {
  auto base = ParseJson(base_json);
  EXPECT_TRUE(base.ok()) << base.status().ToString();
  auto cand = ParseJson(cand_json);
  EXPECT_TRUE(cand.ok()) << cand.status().ToString();
  auto report = CompareBenchReports(base.value(), cand.value(), options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.value();
}

const MetricComparison* FindMetric(const CompareReport& report,
                                   const std::string& name) {
  for (const MetricComparison& m : report.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

TEST(DirectionForMetricTest, SuffixInference) {
  EXPECT_EQ(DirectionForMetric("edges_per_sec"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(DirectionForMetric("train_steps_per_sec"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(DirectionForMetric("wall_s"), MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("snapshot_take_ms"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("uptime_seconds"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("mrr"), MetricDirection::kHigherIsBetter);
}

TEST(DirectionForMetricTest, ModelQualitySuffixes) {
  // The model-quality sample arrays BENCH_fig5.json embeds: losses and
  // gradient norms regress upward, ranking scores regress downward.
  EXPECT_EQ(DirectionForMetric("train_loss"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("train_grad_norm"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("valid_mrr"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(DirectionForMetric("eval_hits"),
            MetricDirection::kHigherIsBetter);
}

TEST(DirectionForMetricTest, HardwareProfileSuffixes) {
  // The perf sample arrays BENCH_fig5.json / BENCH_fig7.json embed: miss
  // rates and cycle counts are costs, IPC is throughput-like.
  EXPECT_EQ(DirectionForMetric("phase_update_ipc"),
            MetricDirection::kHigherIsBetter);
  EXPECT_EQ(DirectionForMetric("phase_update_llc_miss_rate"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("phase_update_cycles_per_edge"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("phase_optimize_ns_per_edge"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("ingest_execute_cycles"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("ingest_plan_llc_misses"),
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(DirectionForMetric("sample_branch_miss_rate"),
            MetricDirection::kLowerIsBetter);
}

TEST(BenchCompareTest, TenPercentRegressionGates) {
  // Injected 10% edges_per_sec regression at ~1% noise: must gate at the
  // default p < 0.05 (the acceptance fixture).
  const std::string base =
      ReportJson(Noisy(1700.0, 17.0, 5, 1), Noisy(12.0, 0.12, 5, 2));
  const std::string cand =
      ReportJson(Noisy(1530.0, 17.0, 5, 3), Noisy(13.3, 0.12, 5, 4));
  const CompareReport report = Compare(base, cand);
  ASSERT_TRUE(report.has_regression);
  const MetricComparison* eps = FindMetric(report, "edges_per_sec");
  ASSERT_NE(eps, nullptr);
  EXPECT_TRUE(eps->regression);
  EXPECT_LT(eps->p_worse, 0.05);
  EXPECT_LT(eps->rel_delta, -0.05);
  // wall_s grew 10%: lower-is-better direction flags it too.
  const MetricComparison* wall = FindMetric(report, "wall_s");
  ASSERT_NE(wall, nullptr);
  EXPECT_TRUE(wall->regression);
  const std::string table = FormatComparisonTable(report);
  EXPECT_NE(table.find("REGRESSION"), std::string::npos);
}

TEST(BenchCompareTest, ResampledNoiseDoesNotGate) {
  // Same distribution, fresh draws: no regression, no improvement.
  const std::string base =
      ReportJson(Noisy(1700.0, 17.0, 6, 10), Noisy(12.0, 0.12, 6, 11));
  const std::string cand =
      ReportJson(Noisy(1700.0, 17.0, 6, 12), Noisy(12.0, 0.12, 6, 13));
  const CompareReport report = Compare(base, cand);
  EXPECT_FALSE(report.has_regression);
  for (const MetricComparison& m : report.metrics) {
    EXPECT_FALSE(m.regression) << m.name;
  }
}

TEST(BenchCompareTest, ImprovementIsReportedNotGated) {
  const std::string base = ReportJson(Noisy(1700.0, 17.0, 5, 20),
                                      Noisy(12.0, 0.12, 5, 21));
  const std::string cand = ReportJson(Noisy(1870.0, 17.0, 5, 22),
                                      Noisy(10.8, 0.12, 5, 23));
  const CompareReport report = Compare(base, cand);
  EXPECT_FALSE(report.has_regression);
  const MetricComparison* eps = FindMetric(report, "edges_per_sec");
  ASSERT_NE(eps, nullptr);
  EXPECT_TRUE(eps->improvement);
  EXPECT_FALSE(eps->regression);
  EXPECT_NE(FormatComparisonTable(report).find("improvement"),
            std::string::npos);
}

TEST(BenchCompareTest, SmallSignificantDriftBelowMinEffectPasses) {
  // 1% drop, tight noise: statistically significant but below the 2%
  // min-effect floor, so it must NOT gate.
  const std::string base =
      ReportJson(Noisy(1700.0, 2.0, 8, 30), Noisy(12.0, 0.01, 8, 31));
  const std::string cand =
      ReportJson(Noisy(1683.0, 2.0, 8, 32), Noisy(12.1, 0.01, 8, 33));
  const CompareReport report = Compare(base, cand);
  const MetricComparison* eps = FindMetric(report, "edges_per_sec");
  ASSERT_NE(eps, nullptr);
  EXPECT_LT(eps->p_worse, 0.05);       // significant...
  EXPECT_FALSE(eps->regression);       // ...but too small to gate
  EXPECT_FALSE(report.has_regression);
}

TEST(BenchCompareTest, InsufficientSamplesNeverGate) {
  const std::string base = R"({"samples": {"edges_per_sec": [1700.0]}})";
  const std::string cand = R"({"samples": {"edges_per_sec": [1000.0]}})";
  const CompareReport report = Compare(base, cand);
  ASSERT_EQ(report.metrics.size(), 1u);
  EXPECT_TRUE(report.metrics[0].insufficient);
  EXPECT_FALSE(report.has_regression);
  EXPECT_NE(FormatComparisonTable(report).find("insufficient-samples"),
            std::string::npos);
}

TEST(BenchCompareTest, SchemaDriftIsReported) {
  const std::string base =
      R"({"samples": {"edges_per_sec": [1.0, 2.0], "old_metric": [1.0, 2.0]}})";
  const std::string cand =
      R"({"samples": {"edges_per_sec": [1.0, 2.0], "new_metric": [1.0, 2.0]}})";
  const CompareReport report = Compare(base, cand);
  ASSERT_EQ(report.unmatched.size(), 2u);
  EXPECT_EQ(report.metrics.size(), 1u);
  EXPECT_FALSE(report.has_regression);
}

TEST(BenchCompareTest, MissingSamplesObjectIsAnError) {
  auto base = ParseJson(R"({"no_samples": 1})");
  auto cand = ParseJson(R"({"samples": {}})");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(cand.ok());
  EXPECT_FALSE(
      CompareBenchReports(base.value(), cand.value(), CompareOptions{}).ok());
  EXPECT_FALSE(
      CompareBenchReports(cand.value(), base.value(), CompareOptions{}).ok());
}

TEST(BenchCompareTest, InjectedMissRateRegressionGates) {
  // The acceptance fixture for the hardware-profile gate: a doubled LLC
  // miss rate at unchanged wall time. Wall-clock gates are blind to it;
  // the _miss_rate direction suffix must flag it, and the accompanying
  // IPC drop gates through the higher-is-better arm.
  auto perf_report = [](const std::vector<double>& miss_rate,
                        const std::vector<double>& ipc,
                        const std::vector<double>& wall) {
    std::string out = R"({"samples": {)";
    auto arr = [](const std::vector<double>& xs) {
      std::string s = "[";
      for (size_t i = 0; i < xs.size(); ++i) {
        if (i > 0) s += ", ";
        s += std::to_string(xs[i]);
      }
      return s + "]";
    };
    out += "\"phase_update_llc_miss_rate\": " + arr(miss_rate);
    out += ", \"phase_update_ipc\": " + arr(ipc);
    out += ", \"wall_s\": " + arr(wall);
    out += "}}";
    return out;
  };
  const std::vector<double> wall = Noisy(12.0, 0.12, 5, 50);
  const std::string base = perf_report(Noisy(0.08, 0.004, 5, 51),
                                       Noisy(2.1, 0.02, 5, 52), wall);
  const std::string cand = perf_report(Noisy(0.16, 0.004, 5, 53),
                                       Noisy(1.7, 0.02, 5, 54), wall);
  const CompareReport report = Compare(base, cand);
  ASSERT_TRUE(report.has_regression);
  const MetricComparison* miss =
      FindMetric(report, "phase_update_llc_miss_rate");
  ASSERT_NE(miss, nullptr);
  EXPECT_EQ(miss->direction, MetricDirection::kLowerIsBetter);
  EXPECT_TRUE(miss->regression);
  EXPECT_LT(miss->p_worse, 0.05);
  const MetricComparison* ipc = FindMetric(report, "phase_update_ipc");
  ASSERT_NE(ipc, nullptr);
  EXPECT_EQ(ipc->direction, MetricDirection::kHigherIsBetter);
  EXPECT_TRUE(ipc->regression);
  // Identical wall samples: the wall gate stays silent, proving the miss
  // rate is the only signal.
  const MetricComparison* w = FindMetric(report, "wall_s");
  ASSERT_NE(w, nullptr);
  EXPECT_FALSE(w->regression);
}

TEST(BenchCompareTest, InjectedQualityRegressionGates) {
  // The acceptance fixture for the model-quality gate: training loss up
  // 50% and validation MRR down 20% at *identical* wall time. Wall-clock
  // gates are blind to it; the _loss suffix must flag it through the
  // lower-is-better arm and _mrr through the higher-is-better arm.
  auto quality_report = [](const std::vector<double>& loss,
                           const std::vector<double>& mrr,
                           const std::vector<double>& wall) {
    std::string out = R"({"samples": {)";
    auto arr = [](const std::vector<double>& xs) {
      std::string s = "[";
      for (size_t i = 0; i < xs.size(); ++i) {
        if (i > 0) s += ", ";
        s += std::to_string(xs[i]);
      }
      return s + "]";
    };
    out += "\"train_loss\": " + arr(loss);
    out += ", \"valid_mrr\": " + arr(mrr);
    out += ", \"wall_s\": " + arr(wall);
    out += "}}";
    return out;
  };
  const std::vector<double> wall = Noisy(12.0, 0.12, 5, 60);
  const std::string base = quality_report(Noisy(0.40, 0.01, 5, 61),
                                          Noisy(0.25, 0.005, 5, 62), wall);
  const std::string cand = quality_report(Noisy(0.60, 0.01, 5, 63),
                                          Noisy(0.20, 0.005, 5, 64), wall);
  const CompareReport report = Compare(base, cand);
  ASSERT_TRUE(report.has_regression);
  const MetricComparison* loss = FindMetric(report, "train_loss");
  ASSERT_NE(loss, nullptr);
  EXPECT_EQ(loss->direction, MetricDirection::kLowerIsBetter);
  EXPECT_TRUE(loss->regression);
  EXPECT_LT(loss->p_worse, 0.05);
  const MetricComparison* mrr = FindMetric(report, "valid_mrr");
  ASSERT_NE(mrr, nullptr);
  EXPECT_EQ(mrr->direction, MetricDirection::kHigherIsBetter);
  EXPECT_TRUE(mrr->regression);
  // Identical wall samples: the wall gate stays silent, proving quality
  // is the only signal.
  const MetricComparison* w = FindMetric(report, "wall_s");
  ASSERT_NE(w, nullptr);
  EXPECT_FALSE(w->regression);
}

TEST(BenchCompareTest, AllZeroFallbackSamplesDoNotGate) {
  // PMU-less hosts emit all-zero perf arrays (the rusage/software tiers
  // cannot measure LLC traffic). Zero-variance inputs must compare clean
  // against themselves — no NaNs, no spurious verdicts.
  const std::string zeros =
      R"({"samples": {"phase_update_llc_miss_rate": [0.0, 0.0, 0.0]}})";
  const CompareReport report = Compare(zeros, zeros);
  ASSERT_EQ(report.metrics.size(), 1u);
  EXPECT_FALSE(report.metrics[0].regression);
  EXPECT_FALSE(report.has_regression);
}

TEST(BenchCompareTest, JsonReportParses) {
  const std::string base =
      ReportJson(Noisy(1700.0, 17.0, 5, 40), Noisy(12.0, 0.12, 5, 41));
  const std::string cand =
      ReportJson(Noisy(1530.0, 17.0, 5, 42), Noisy(12.0, 0.12, 5, 43));
  const CompareReport report = Compare(base, cand);
  const std::string json = ComparisonToJson(report, CompareOptions{});
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value().Find("has_regression")->bool_value());
}

}  // namespace
}  // namespace supa::tools
