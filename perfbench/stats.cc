#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

size_t SamplesBeyond(size_t n, double pct) {
  // Rounded first so that, e.g., 1000 samples leave exactly 10 beyond p99
  // despite 1 - 0.99 not being exact in binary.
  const double beyond =
      std::round(static_cast<double>(n) * (100.0 - pct) * 1e6) / 1e8;
  return static_cast<size_t>(std::floor(beyond));
}

double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (SamplesBeyond(n, pct) >= 10) best = pct;
  }
  return best;
}

ChunkedTiming SummarizeChunked(const std::vector<double>& ordered) {
  ChunkedTiming out;
  out.samples = ordered.size();
  out.chunks = ordered.size() / kChunk;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (size_t c = 0; c < out.chunks; ++c) {
    const std::vector<double> chunk(ordered.begin() + c * kChunk,
                                    ordered.begin() + (c + 1) * kChunk);
    p50s.push_back(Quantile(chunk, 0.50));
    p99s.push_back(Quantile(chunk, 0.99));
  }
  out.p50 = Median(p50s);
  out.p99 = Median(p99s);
  out.top_pct = HighestSupportedPercentile(ordered.size());
  out.top = Quantile(ordered, out.top_pct / 100.0);
  return out;
}

namespace {

constexpr size_t kGaugeRows = 4096;
constexpr size_t kGaugeDim = 64;
constexpr size_t kGaugeSteps = 200000;

double GaugeNowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

HostGauge::HostGauge() : table_(3 * kGaugeRows * kGaugeDim) {}

void HostGauge::Sample() {
  // Parameters, first and second moments: 1 MiB each.
  float* param = table_.data();
  float* m1 = param + kGaugeRows * kGaugeDim;
  float* m2 = m1 + kGaugeRows * kGaugeDim;
  std::fill(param, m1, 0.01f);
  std::fill(m1, table_.data() + table_.size(), 0.0f);
  const double start = GaugeNowS();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (size_t step = 0; step < kGaugeSteps; ++step) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    float* a = param + (x % kGaugeRows) * kGaugeDim;
    const float* b = param + ((x >> 32) % kGaugeRows) * kGaugeDim;
    float dot = 0.0f;
    for (size_t j = 0; j < kGaugeDim; ++j) dot += a[j] * b[j];
    const float g = 1.0f / (1.0f + std::exp(-dot)) - 1.0f;
    float* ma = m1 + (a - param);
    float* va = m2 + (a - param);
    for (size_t j = 0; j < kGaugeDim; ++j) {
      const float grad = g * b[j];
      ma[j] = 0.9f * ma[j] + 0.1f * grad;
      va[j] = 0.999f * va[j] + 0.001f * grad * grad;
      a[j] -= 1e-3f * ma[j] / (std::sqrt(va[j]) + 1e-8f);
    }
  }
  Record(start, GaugeNowS());
}

void HostGauge::Record(double start_s, double end_s) {
  samples_.emplace_back(start_s, end_s);
}

double HostGauge::Slowness(double t0, double t1) const {
  if (samples_.empty()) return 1.0;
  // From the last sample that ended by t0 (else the first sample) to the
  // first that started at or after t1 (else the last sample).
  size_t first = 0;
  while (first + 1 < samples_.size() && samples_[first + 1].second <= t0) {
    ++first;
  }
  size_t last = first;
  while (last + 1 < samples_.size() && samples_[last].first < t1) ++last;
  double total = 0.0;
  for (size_t i = first; i <= last; ++i) {
    total += samples_[i].second - samples_[i].first;
  }
  return total / static_cast<double>(last - first + 1) / kNominalS;
}

double HostGauge::MedianSlowness() const {
  std::vector<double> s;
  for (const auto& [start, end] : samples_) s.push_back((end - start) / kNominalS);
  return s.empty() ? 1.0 : Median(std::move(s));
}

std::vector<double> FreshnessLags(const std::vector<double>& commit_s,
                                  std::vector<RequestRecord> responses) {
  std::erase_if(responses, [](const RequestRecord& r) { return !r.ok; });
  std::sort(responses.begin(), responses.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.done_s < b.done_s;
            });
  // Walking responses in completion order, the edges a response newly
  // covers are first seen at its completion.
  std::vector<double> lags;
  uint64_t covered = 0;
  for (const RequestRecord& r : responses) {
    const uint64_t held =
        std::min<uint64_t>(r.committed_at_send -
                               std::min(r.staleness_edges, r.committed_at_send),
                           commit_s.size());
    for (; covered < held; ++covered) {
      lags.push_back(r.done_s - commit_s[covered]);
    }
  }
  return lags;
}

}  // namespace perfbench
