#include "obs/perf_counters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <string>

#include "core/inslearn.h"
#include "core/model.h"
#include "data/synthetic.h"
#include "json_check.h"
#include "obs/metrics.h"

namespace supa::obs {
namespace {

/// Scoped profiler state for tests using the global profiler (the
/// SUPA_PERF_SCOPE macros always hit Global()): restores "disabled,
/// unclamped" on exit so tests do not leak tier state into each other.
class GlobalPerfScope {
 public:
  GlobalPerfScope(bool enable, PerfSource max_tier = PerfSource::kHardware) {
    PerfProfiler::Global().Enable(false);
    PerfProfiler::Global().SetMaxTier(max_tier);
    PerfProfiler::Global().Enable(enable);
  }
  ~GlobalPerfScope() {
    PerfProfiler::Global().Enable(false);
    PerfProfiler::Global().SetMaxTier(PerfSource::kHardware);
  }
};

/// Deterministic CPU burn so every tier (PMU, software task-clock, rusage
/// thread clock) sees nonzero cost inside a scope.
uint64_t SpinWork(uint64_t iters) {
  volatile uint64_t acc = 1;
  for (uint64_t i = 0; i < iters; ++i) {
    acc = acc * 2862933555777941757ULL + 3037000493ULL;
  }
  return acc;
}

uint64_t CounterNow(const std::string& name) {
  return MetricsRegistry::Global().Snapshot().CounterValue(name);
}

// The ladder policy is a pure function so its ordering is pinned here,
// independent of what the host kernel/PMU actually allows.
TEST(PerfTierTest, ResolvePinsFallbackOrdering) {
  EXPECT_EQ(ResolvePerfTier(true, true), PerfSource::kHardware);
  EXPECT_EQ(ResolvePerfTier(true, false), PerfSource::kHardware);
  EXPECT_EQ(ResolvePerfTier(false, true), PerfSource::kSoftware);
  EXPECT_EQ(ResolvePerfTier(false, false), PerfSource::kRusage);
}

TEST(PerfTierTest, UnavailableErrnosDescendSilently) {
  // The documented reasons perf_event_open fails in containers/VMs/CI:
  // every one of these must mean "descend the ladder", not "error".
  for (int err : {EACCES, EPERM, ENOSYS, ENOENT, ENODEV, EOPNOTSUPP,
                  EINVAL}) {
    EXPECT_TRUE(PerfErrnoMeansUnavailable(err)) << err;
  }
  EXPECT_FALSE(PerfErrnoMeansUnavailable(0));
  EXPECT_FALSE(PerfErrnoMeansUnavailable(EBADF));
  EXPECT_FALSE(PerfErrnoMeansUnavailable(EINTR));
}

TEST(PerfNamesTest, DomainAndSourceNamesAreStable) {
  // These strings are metric names and JSON keys — changing one silently
  // breaks dashboards and bench_compare baselines.
  EXPECT_STREQ(PerfDomainName(PerfDomain::kSample), "sample");
  EXPECT_STREQ(PerfDomainName(PerfDomain::kOptimize), "optimize");
  EXPECT_STREQ(PerfDomainName(PerfDomain::kTrainEdge), "train_edge");
  EXPECT_STREQ(PerfDomainName(PerfDomain::kIngestCommit), "ingest_commit");
  EXPECT_STREQ(PerfDomainName(PerfDomain::kSnapshotRestore),
               "snapshot_restore");
  EXPECT_STREQ(PerfSourceName(PerfSource::kHardware), "hardware");
  EXPECT_STREQ(PerfSourceName(PerfSource::kSoftware), "software");
  EXPECT_STREQ(PerfSourceName(PerfSource::kRusage), "rusage");
  EXPECT_STREQ(PerfSourceName(PerfSource::kDisabled), "disabled");
}

TEST(PerfDeltaTest, AccumulateSumsEveryField) {
  PerfDelta a;
  a.cycles = 1;
  a.instructions = 2;
  a.llc_loads = 3;
  a.llc_misses = 4;
  a.branches = 5;
  a.branch_misses = 6;
  a.task_clock_ns = 7;
  a.ctx_switches = 8;
  PerfDelta b = a;
  b.Accumulate(a);
  EXPECT_EQ(b.cycles, 2u);
  EXPECT_EQ(b.instructions, 4u);
  EXPECT_EQ(b.llc_loads, 6u);
  EXPECT_EQ(b.llc_misses, 8u);
  EXPECT_EQ(b.branches, 10u);
  EXPECT_EQ(b.branch_misses, 12u);
  EXPECT_EQ(b.task_clock_ns, 14u);
  EXPECT_EQ(b.ctx_switches, 16u);
}

TEST(PerfProfilerTest, EnableDetectsSomeTier) {
  GlobalPerfScope scope(/*enable=*/true);
  // Whatever the host allows, the ladder must land on a real rung —
  // kRusage exists precisely so detection can never fail.
  EXPECT_TRUE(PerfProfiler::Global().enabled());
  EXPECT_NE(PerfProfiler::Global().source(), PerfSource::kDisabled);
}

TEST(PerfProfilerTest, DisabledScopesChargeNothing) {
  GlobalPerfScope scope(/*enable=*/false);
  const uint64_t before = CounterNow("perf.train_edge.scopes");
  for (int i = 0; i < 16; ++i) {
    SUPA_PERF_SCOPE(kTrainEdge);
    SpinWork(1000);
  }
  EXPECT_EQ(CounterNow("perf.train_edge.scopes"), before);
}

// One parameterized check per ladder rung: clamp the tier, run scopes,
// require the scope count and a nonzero CPU-time charge. This is the
// EACCES/ENOSYS story — a host where perf_event_open fails behaves like
// the clamped tiers and must still produce coherent numbers.
void ExpectTierCharges(PerfSource clamp) {
  GlobalPerfScope scope(/*enable=*/true, clamp);
  const PerfSource source = PerfProfiler::Global().source();
  EXPECT_NE(source, PerfSource::kDisabled);
  // A clamp is an upper rung: detection may descend further (a PMU-less
  // host clamped to kHardware lands on kSoftware or kRusage) but never
  // climbs above it.
  EXPECT_GE(static_cast<int>(source), static_cast<int>(clamp));

  const uint64_t scopes_before = CounterNow("perf.eval_shard.scopes");
  const uint64_t clock_before = CounterNow("perf.eval_shard.task_clock_ns");
  constexpr int kScopes = 8;
  for (int i = 0; i < kScopes; ++i) {
    SUPA_PERF_SCOPE(kEvalShard);
    SpinWork(300000);
  }
  EXPECT_EQ(CounterNow("perf.eval_shard.scopes"), scopes_before + kScopes);
  // Every tier measures thread CPU time (PMU group's task-clock member,
  // software task-clock, or CLOCK_THREAD_CPUTIME_ID).
  EXPECT_GT(CounterNow("perf.eval_shard.task_clock_ns"), clock_before);
}

TEST(PerfProfilerTest, ChargesAtDetectedTier) {
  ExpectTierCharges(PerfSource::kHardware);
}

TEST(PerfProfilerTest, ChargesWhenClampedToSoftware) {
  ExpectTierCharges(PerfSource::kSoftware);
}

TEST(PerfProfilerTest, ChargesOnRusageFallback) {
  // kRusage skips perf_event_open entirely — the no-perf-syscall world.
  ExpectTierCharges(PerfSource::kRusage);
  // And the clamp must not have been rounded up.
  GlobalPerfScope scope(/*enable=*/true, PerfSource::kRusage);
  EXPECT_EQ(PerfProfiler::Global().source(), PerfSource::kRusage);
}

TEST(PerfReportTest, JsonParsesAndNamesTheTier) {
  GlobalPerfScope scope(/*enable=*/true);
  {
    SUPA_PERF_SCOPE(kServeScore);
    SpinWork(10000);
  }
  const std::string json =
      PerfReportJson(MetricsRegistry::Global().Snapshot());
  std::string error;
  EXPECT_TRUE(test::JsonParses(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"source\""), std::string::npos);
  EXPECT_NE(json.find("\"domains\""), std::string::npos);
  EXPECT_NE(json.find("\"serve_score\""), std::string::npos);
  EXPECT_NE(json.find("\"cycles_per_edge\""), std::string::npos);
}

TEST(PerfReportTest, PrometheusSeriesIncludeSourceAndDerivedGauges) {
  GlobalPerfScope scope(/*enable=*/true);
  {
    SUPA_PERF_SCOPE(kSnapshotTake);
    SpinWork(10000);
  }
  std::string out;
  AppendPerfPrometheusSeries(MetricsRegistry::Global().Snapshot(), &out);
  EXPECT_NE(out.find("supa_perf_source"), std::string::npos);
  EXPECT_NE(out.find("perf_snapshot_take_ipc"), std::string::npos);
  EXPECT_NE(out.find("perf_snapshot_take_llc_miss_rate"), std::string::npos);
  EXPECT_NE(out.find("perf_snapshot_take_cycles_per_edge"),
            std::string::npos);
}

TEST(PerfReportTest, HtmlIsSelfContained) {
  GlobalPerfScope scope(/*enable=*/true);
  const std::string html =
      PerfReportHtml(MetricsRegistry::Global().Snapshot());
  EXPECT_NE(html.find("<title>supa /profilez</title>"), std::string::npos);
  EXPECT_NE(html.find("/profilez?format=json"), std::string::npos);
}

// The acceptance bar shared with tracing: profiling must never perturb
// training. Train two identically-seeded models over the same stream —
// one fully profiled, one not — and require bit-identical parameters.
TEST(PerfBitIdentityTest, ProfilingDoesNotPerturbTraining) {
  Dataset data = MakeTaobao(0.2, 31).value();
  SupaConfig config;
  config.dim = 16;
  config.num_walks = 3;
  config.walk_len = 3;
  config.num_neg = 3;
  config.seed = 5;

  auto train = [&](bool profiled) {
    GlobalPerfScope scope(profiled);
    const uint64_t scopes_before = CounterNow("perf.train_edge.scopes");
    SupaModel model(data, config);
    for (size_t i = 0; i < 300; ++i) {
      EXPECT_TRUE(model.TrainEdge(data.edges[i]).ok());
      EXPECT_TRUE(model.ObserveEdge(data.edges[i]).ok());
    }
    if (profiled) {
      // Sanity: the profiled run actually charged training scopes.
      EXPECT_GT(CounterNow("perf.train_edge.scopes"), scopes_before);
    }
    return model.TakeSnapshot();
  };

  const auto profiled = train(true);
  const auto plain = train(false);
  EXPECT_EQ(profiled.params, plain.params);
}

// One optimize scope per trained edge, so `cycles / scopes` is the
// optimize cost per edge — on the serial loop and on the pipeline, whose
// executor runs the updater's backprop and whose commit runs the step.
TEST(PerfScopeCountTest, OneOptimizeScopePerTrainStep) {
  Dataset data = MakeTaobao(0.15, 41).value();
  SupaConfig config;
  config.dim = 16;
  config.num_walks = 2;
  config.walk_len = 3;
  config.num_neg = 3;
  config.seed = 5;
  for (size_t writers : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(::testing::Message() << "writer_threads=" << writers);
    InsLearnConfig train;
    train.batch_size = 256;
    train.max_iters = 2;
    train.valid_interval = 1;
    train.valid_size = 30;
    train.valid_negatives = 20;
    train.writer_threads = writers;
    GlobalPerfScope scope(true);
    const uint64_t before = CounterNow("perf.optimize.scopes");
    SupaModel model(data, config);
    auto report = InsLearnTrainer(train).Train(
        model, data, EdgeRange{0, std::min<size_t>(800, data.edges.size())});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report.value().train_steps, 0u);
    EXPECT_EQ(CounterNow("perf.optimize.scopes") - before,
              report.value().train_steps);
  }
}

}  // namespace
}  // namespace supa::obs
