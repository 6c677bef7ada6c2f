// Pure measurement helpers of the repo benchmark: quantiles under the
// percentile rule, the fixed open-loop request schedule, and the
// freshness-lag computation. Kept free of the library so the benchmark's
// own tests pin them without training anything.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Samples lying strictly beyond percentile `pct` (in [0, 100]) of `n`.
size_t SamplesBeyond(size_t n, double pct);

/// The percentile rule: the highest of p50, p90, p99, p99.9 and p99.99
/// that has at least 10 samples beyond it; 0 when even p50 has fewer.
double HighestSupportedPercentile(size_t n);

/// Chunk size of the chunked statistics below: the smallest sample that
/// supports p99 under the percentile rule.
inline constexpr size_t kChunk = 1000;

/// A timing reported as median plus tail: each is the median over
/// consecutive `kChunk`-sample chunks (in the order given) of the chunk's
/// p50 / p99, so a transient stall moves one chunk rather than the whole
/// figure. A trailing partial chunk is dropped.
struct ChunkedTiming {
  size_t samples = 0;  // all samples given
  size_t chunks = 0;   // full chunks used
  double p50 = 0.0;
  double p99 = 0.0;
  /// Over all samples: the highest supported percentile and its value.
  double top_pct = 0.0;
  double top = 0.0;
};
ChunkedTiming SummarizeChunked(const std::vector<double>& ordered);

/// A gauge of the speed the host gives this process. On a shared VM
/// one core's speed on memory-bound work swings by 15–70% for seconds to
/// minutes at a time, with the neighbours' load. The gauge times a fixed
/// reference kernel (none of the program's code: Adam-style updates of
/// random rows of a 3 MiB table, above one core's 2 MiB L2, like the
/// model's parameters) between the intervals the benchmark measures.
/// Dividing an interval's time by the host's slowness around it gives
/// the time it would have taken on the reference host, so the figures
/// follow the program rather than the neighbours.
class HostGauge {
 public:
  /// The kernel's time on the reference host (a 4-vCPU Xeon VM, quiet).
  static constexpr double kNominalS = 0.045;

  HostGauge();
  /// Runs the kernel once from the same initial state, timed, and
  /// records the sample.
  void Sample();
  /// Records a sample that ran from `start_s` to `end_s` (Sample's own
  /// bookkeeping; tests feed samples through it).
  void Record(double start_s, double end_s);
  /// The host's slowness around [t0, t1]: the mean time of the samples
  /// from the last one that ended by t0 to the first one that started at
  /// or after t1 (any in between included), over kNominalS. Where no
  /// sample lies on one side, the nearest on the other stands in; with no
  /// sample at all, 1.
  double Slowness(double t0, double t1) const;
  /// Median slowness over all samples; 1 when there are none.
  double MedianSlowness() const;

 private:
  std::vector<float> table_;
  std::vector<std::pair<double, double>> samples_;  // (start, end), in order
};

/// Fixed-rate open-loop schedule of one sender among `streams` that
/// together send `rate_per_s` requests per second, interleaved. Request i
/// of this sender is due at start + (i * streams + stream) / rate whatever
/// happened to earlier requests: a slow response makes later sends late,
/// never later-scheduled.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double start_s, double rate_per_s, size_t stream,
                   size_t streams)
      : start_s_(start_s),
        rate_(rate_per_s),
        stream_(stream),
        streams_(streams) {}

  double Due(uint64_t i) const {
    return start_s_ +
           static_cast<double>(i * streams_ + stream_) / rate_;
  }

 private:
  double start_s_;
  double rate_;
  size_t stream_;
  size_t streams_;
};

/// One request as the sender saw it (times in seconds on one clock).
struct RequestRecord {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool ok = false;
  /// Engine-side latency (RecommendResponse::latency_us).
  double engine_us = 0.0;
  /// Edges the benchmark's edge-log wrapper had seen committed when the
  /// request was sent, and the response's staleness_edges.
  uint64_t committed_at_send = 0;
  uint64_t staleness_edges = 0;
};

/// Runs sender `stream` until `stop()` is true: for each i, waits until
/// the schedule's due time (never shifting it), calls send(&record), and
/// appends the record. `now()` and `sleep_until(t)` are injected so tests
/// can drive a fake clock.
template <class Now, class SleepUntil, class Send, class Stop>
void RunOpenLoop(const OpenLoopSchedule& schedule, Now now,
                 SleepUntil sleep_until, Send send, Stop stop,
                 std::vector<RequestRecord>* out) {
  for (uint64_t i = 0; !stop(); ++i) {
    RequestRecord record;
    record.due_s = schedule.Due(i);
    if (now() < record.due_s) sleep_until(record.due_s);
    record.sent_s = now();
    send(&record);
    record.done_s = now();
    out->push_back(record);
  }
}

/// Freshness lag of each committed edge, in commit order: the time from
/// its commit until the first response completed whose snapshot held it.
/// A response's snapshot was acquired after its request was sent, so it
/// holds at least `committed_at_send - staleness_edges` edges; edges no
/// response covered are left out. `commit_s[i]` is edge i's commit time.
std::vector<double> FreshnessLags(const std::vector<double>& commit_s,
                                  std::vector<RequestRecord> responses);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
