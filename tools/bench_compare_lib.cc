#include "tools/bench_compare_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json_writer.h"
#include "util/stats.h"

namespace supa::tools {
namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

Result<std::vector<double>> SampleArray(const JsonValue& samples,
                                        const std::string& name) {
  const JsonValue* arr = samples.Find(name);
  if (arr == nullptr || !arr->is_array()) {
    return Status::InvalidArgument("samples." + name + " is not an array");
  }
  std::vector<double> out;
  out.reserve(arr->array().size());
  for (const JsonValue& v : arr->array()) {
    if (!v.is_number()) {
      return Status::InvalidArgument("samples." + name +
                                     " holds a non-number");
    }
    out.push_back(v.number_value());
  }
  return out;
}

std::string FormatSigned(double v, int digits) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%+.*f", digits, v);
  return buf;
}

std::string FormatG(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

MetricDirection DirectionForMetric(std::string_view name) {
  // Throughput- and quality-score metrics (explicitly higher-is-better,
  // so a future default change cannot flip them). "_ipc" covers the
  // hardware-profile instructions-per-cycle samples; "_mrr" / "_hits"
  // cover the model-quality sample arrays.
  for (std::string_view suffix :
       {"_ipc", "_per_sec", "_throughput", "_mrr", "_hits"}) {
    if (EndsWith(name, suffix)) return MetricDirection::kHigherIsBetter;
  }
  // Cost-style metrics: wall/latency times plus the profile counters
  // ("_cycles_per_edge" and the task-clock "_ns_per_edge" are listed
  // separately because EndsWith("_cycles") / EndsWith("_ns") do not match
  // them). "_loss" / "_grad_norm" are the model-quality arrays where up
  // means worse — these gate a quality regression even when wall-clock
  // metrics are unchanged.
  for (std::string_view suffix :
       {"_s", "_ms", "_us", "_ns", "_seconds", "_wall", "_latency",
        "_miss_rate", "_cycles", "_misses", "_cycles_per_edge",
        "_ns_per_edge", "_loss",
        "_grad_norm"}) {
    if (EndsWith(name, suffix)) return MetricDirection::kLowerIsBetter;
  }
  return MetricDirection::kHigherIsBetter;
}

Result<CompareReport> CompareBenchReports(const JsonValue& baseline,
                                          const JsonValue& candidate,
                                          const CompareOptions& options) {
  const JsonValue* base_samples = baseline.Find("samples");
  const JsonValue* cand_samples = candidate.Find("samples");
  if (base_samples == nullptr || !base_samples->is_object()) {
    return Status::InvalidArgument(
        "baseline report has no \"samples\" object (old schema? re-run the "
        "bench)");
  }
  if (cand_samples == nullptr || !cand_samples->is_object()) {
    return Status::InvalidArgument(
        "candidate report has no \"samples\" object");
  }

  CompareReport report;
  for (const auto& [name, value] : base_samples->object()) {
    (void)value;
    if (cand_samples->Find(name) == nullptr) {
      report.unmatched.push_back("baseline-only: " + name);
    }
  }
  for (const auto& [name, value] : cand_samples->object()) {
    (void)value;
    if (base_samples->Find(name) == nullptr) {
      report.unmatched.push_back("candidate-only: " + name);
    }
  }

  // std::map iteration is name-sorted, so the table order is stable.
  for (const auto& [name, value] : base_samples->object()) {
    (void)value;
    if (cand_samples->Find(name) == nullptr) continue;
    SUPA_ASSIGN_OR_RETURN(const std::vector<double> base,
                          SampleArray(*base_samples, name));
    SUPA_ASSIGN_OR_RETURN(const std::vector<double> cand,
                          SampleArray(*cand_samples, name));

    MetricComparison m;
    m.name = name;
    m.direction = DirectionForMetric(name);
    m.base_n = base.size();
    m.cand_n = cand.size();
    m.base_mean = Mean(base);
    m.cand_mean = Mean(cand);
    m.base_stddev = SampleStddev(base);
    m.cand_stddev = SampleStddev(cand);
    m.rel_delta = m.base_mean != 0.0
                      ? (m.cand_mean - m.base_mean) / std::fabs(m.base_mean)
                      : 0.0;

    if (base.size() < 2 || cand.size() < 2) {
      m.insufficient = true;
      report.metrics.push_back(std::move(m));
      continue;
    }
    auto test = WelchTTest(base, cand);
    if (!test.ok()) return test.status();
    // p_greater is P(mean(base) > mean(cand) arose by chance)-style
    // one-sided evidence; map it onto "worse"/"better" via the metric's
    // direction.
    const double p_base_greater = test.value().p_greater;
    const double p_cand_greater = 1.0 - p_base_greater;
    if (m.direction == MetricDirection::kHigherIsBetter) {
      m.p_worse = p_base_greater;
      m.p_better = p_cand_greater;
    } else {
      m.p_worse = p_cand_greater;
      m.p_better = p_base_greater;
    }
    const double adverse_delta = m.direction == MetricDirection::kHigherIsBetter
                                     ? -m.rel_delta
                                     : m.rel_delta;
    m.regression =
        m.p_worse < options.alpha && adverse_delta > options.min_effect;
    m.improvement =
        m.p_better < options.alpha && -adverse_delta > options.min_effect;
    report.has_regression = report.has_regression || m.regression;
    report.metrics.push_back(std::move(m));
  }
  return report;
}

std::string FormatComparisonTable(const CompareReport& report) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"metric", "dir", "baseline", "candidate", "delta",
                  "p(worse)", "verdict"});
  for (const MetricComparison& m : report.metrics) {
    std::string verdict = "ok";
    if (m.insufficient) {
      verdict = "insufficient-samples";
    } else if (m.regression) {
      verdict = "REGRESSION";
    } else if (m.improvement) {
      verdict = "improvement";
    }
    rows.push_back(
        {m.name,
         m.direction == MetricDirection::kHigherIsBetter ? "up" : "down",
         FormatG(m.base_mean) + " ±" + FormatG(m.base_stddev),
         FormatG(m.cand_mean) + " ±" + FormatG(m.cand_stddev),
         FormatSigned(100.0 * m.rel_delta, 2) + "%",
         m.insufficient ? "-" : FormatG(m.p_worse), verdict});
  }
  std::vector<size_t> widths(rows[0].size(), 0);
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      out += row[i];
      if (i + 1 < row.size()) out.append(widths[i] - row[i].size() + 2, ' ');
    }
    out += '\n';
  }
  for (const std::string& u : report.unmatched) {
    out += "note: " + u + "\n";
  }
  return out;
}

std::string ComparisonToJson(const CompareReport& report,
                             const CompareOptions& options) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("alpha", options.alpha);
  w.Field("min_effect", options.min_effect);
  w.Field("has_regression", report.has_regression);
  w.Key("metrics").BeginArray();
  for (const MetricComparison& m : report.metrics) {
    w.BeginObject();
    w.Field("name", m.name);
    w.Field("direction",
            std::string_view(m.direction == MetricDirection::kHigherIsBetter
                                 ? "higher_is_better"
                                 : "lower_is_better"));
    w.Field("base_n", static_cast<uint64_t>(m.base_n));
    w.Field("cand_n", static_cast<uint64_t>(m.cand_n));
    w.Field("base_mean", m.base_mean);
    w.Field("cand_mean", m.cand_mean);
    w.Field("base_stddev", m.base_stddev);
    w.Field("cand_stddev", m.cand_stddev);
    w.Field("rel_delta", m.rel_delta);
    w.Field("p_worse", m.p_worse);
    w.Field("p_better", m.p_better);
    w.Field("insufficient", m.insufficient);
    w.Field("regression", m.regression);
    w.Field("improvement", m.improvement);
    w.EndObject();
  }
  w.EndArray();
  w.Key("unmatched").BeginArray();
  for (const std::string& u : report.unmatched) w.String(u);
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace supa::tools
