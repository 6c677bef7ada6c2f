// Tests of the benchmark itself: its statistics, its load generator, and
// the cross-workload properties its design rests on.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);
}

TEST(PercentileRule, ChunkedSummaryReportsCountsAndDropsPartialChunk) {
  std::vector<double> v;
  for (int c = 0; c < 3; ++c) {
    for (size_t i = 0; i < kChunk; ++i) v.push_back(c * 10000.0 + i);
  }
  v.push_back(1e9);  // a partial fourth chunk: counted, not summarized
  const ChunkedTiming t = SummarizeChunked(v);
  EXPECT_EQ(t.samples, 3 * kChunk + 1);
  EXPECT_EQ(t.chunks, 3u);
  // Median over chunks of each chunk's quantile: the middle chunk's.
  EXPECT_DOUBLE_EQ(t.p50, 10000.0 + 0.5 * (kChunk - 1));
  EXPECT_DOUBLE_EQ(t.p99, 10000.0 + 0.99 * (kChunk - 1));
  EXPECT_EQ(t.top_pct, 99.0);
  EXPECT_DOUBLE_EQ(t.top, Quantile(v, 0.99));
}

TEST(FreshnessLag, FromCommitTimesAndStaleness) {
  const std::vector<double> commit_s = {0.0, 1.0, 2.0, 3.0, 4.0};
  auto resp = [](double done, uint64_t committed, uint64_t stale, bool ok) {
    RequestRecord r;
    r.done_s = done;
    r.committed_at_send = committed;
    r.staleness_edges = stale;
    r.ok = ok;
    return r;
  };
  const std::vector<double> lags = FreshnessLags(
      commit_s,
      {
          // Given out of completion order on purpose.
          resp(3.5, 4, 1, true),   // holds edges 0-2; covers edge 2
          resp(1.5, 2, 0, true),   // holds edges 0-1
          resp(2.0, 5, 0, false),  // failed: covers nothing
          resp(2.5, 1, 0, true),   // holds only edge 0: nothing new
      });
  // Edges 3 and 4 were never in a served snapshot: left out.
  ASSERT_EQ(lags.size(), 3u);
  EXPECT_DOUBLE_EQ(lags[0], 1.5);
  EXPECT_DOUBLE_EQ(lags[1], 0.5);
  EXPECT_DOUBLE_EQ(lags[2], 1.5);
}

TEST(HostGauge, SlownessFromTheSamplesAroundAnInterval) {
  HostGauge gauge;
  const double k = HostGauge::kNominalS;
  EXPECT_NEAR(gauge.Slowness(1.0, 2.0), 1.0, 1e-9);  // no sample yet
  gauge.Record(0.0, 1.0 * k);          // before the interval
  gauge.Record(10.0, 10.0 + 3.0 * k);  // after it
  gauge.Record(20.0, 20.0 + 9.0 * k);  // later
  EXPECT_NEAR(gauge.Slowness(5.0, 6.0), 2.0, 1e-9);
  // Only a sample before, or only one after.
  EXPECT_NEAR(gauge.Slowness(30.0, 31.0), 9.0, 1e-9);
  EXPECT_NEAR(gauge.Slowness(-2.0, -1.0), 1.0, 1e-9);
  EXPECT_NEAR(gauge.MedianSlowness(), 3.0, 1e-9);
  // A sample taken during the interval counts too.
  EXPECT_NEAR(gauge.Slowness(5.0, 15.0), 13.0 / 3.0, 1e-9);
  // A real sample takes a positive time.
  HostGauge real;
  real.Sample();
  EXPECT_GT(real.MedianSlowness(), 0.0);
}

TEST(OpenLoop, ScheduleStaysFixedWhenResponsesAreSlow) {
  double clock = 10.0;
  const double rate = 100.0;  // 10 ms apart over two senders
  const OpenLoopSchedule schedule(10.0, rate, 1, 2);
  std::vector<RequestRecord> out;
  size_t calls = 0;
  RunOpenLoop(
      schedule, [&] { return clock; }, [&](double t) { clock = t; },
      [&](RequestRecord* r) {
        // The second response stalls for 95 ms; the others take 1 ms.
        clock += calls++ == 1 ? 0.095 : 0.001;
        r->ok = true;
      },
      [&] { return out.size() == 7; }, &out);
  ASSERT_EQ(out.size(), 7u);
  for (size_t i = 0; i < out.size(); ++i) {
    // Sender 1 of 2: due at start + (2i + 1) / rate, whatever happened.
    EXPECT_DOUBLE_EQ(out[i].due_s, 10.0 + (2.0 * i + 1.0) / rate);
    EXPECT_GE(out[i].sent_s, out[i].due_s);
  }
  // After the stall the next sends go out late, not rescheduled, so their
  // latency from the due time includes the wait the stall imposed.
  EXPECT_DOUBLE_EQ(out[2].sent_s, out[1].done_s);
  EXPECT_GT(out[2].done_s - out[2].due_s, 0.05);
  // Once the backlog clears, sends are on time again.
  EXPECT_DOUBLE_EQ(out[6].sent_s, out[6].due_s);
}

/// Small, fast options: a tenth of the benchmark's stream, and a run just
/// long enough for every serving window to hold 1,000 requests.
/// live_durable's reader sends 100 req/s, and only while training runs.
Options Small(const std::string& workload, uint64_t seed) {
  Options o;
  o.workload = workload;
  o.seed = seed;
  o.seconds = workload == "live_durable" ? 16.0 : 4.0;
  o.scale = 0.1;
  o.workdir = (std::filesystem::temp_directory_path() /
               ("perfbench_test_" + workload + "_" + std::to_string(seed)))
                  .string();
  std::filesystem::remove_all(o.workdir);
  std::filesystem::create_directories(o.workdir);
  return o;
}

double Value(const Outcome& o, const std::string& name) {
  for (const Metric& m : o.end_to_end) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return 0.0;
}

TEST(Workloads, ServingAndDurabilityDoNotPerturbTraining) {
  const Outcome stream = RunWorkload(Small("stream_train", 3));
  const Outcome live = RunWorkload(Small("live_durable", 3));
  EXPECT_TRUE(stream.check_failures.empty());
  EXPECT_TRUE(live.check_failures.empty());
  ASSERT_FALSE(stream.final_params.empty());
  EXPECT_EQ(live.final_params, stream.final_params);
  EXPECT_EQ(Value(live, "test_mrr"), Value(stream, "test_mrr"));
}

TEST(Workloads, SecondSeedChangesLoadAndPassesEveryCheck) {
  const Outcome first = RunWorkload(Small("stream_train", 1));
  const Outcome second = RunWorkload(Small("stream_train", 2));
  EXPECT_NE(first.final_params, second.final_params);
  EXPECT_NE(Value(first, "test_mrr"), Value(second, "test_mrr"));
  for (const std::string& w : WorkloadNames()) {
    const Outcome o = RunWorkload(Small(w, 2));
    EXPECT_TRUE(o.check_failures.empty())
        << w << ": " << (o.check_failures.empty() ? "" : o.check_failures[0]);
    EXPECT_GT(o.attempted, 0u) << w;
    EXPECT_EQ(o.failed, 0u) << w;
    EXPECT_EQ(o.end_to_end.size(), EndToEndSpecs().size()) << w;
    for (const Metric& m : o.end_to_end) {
      EXPECT_GT(m.value, 0.0) << w << " " << m.name;
    }
  }
}

}  // namespace
}  // namespace perfbench
