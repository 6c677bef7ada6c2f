// The repo benchmark's three workloads over the Taobao emulator:
//
//   stream_train  single-pass InsLearn over the stream, nothing else
//                 running beside it; the final model is then served for a
//                 short unloaded probe.
//   serve_read    a frozen model (trained in set-up, reloaded through
//                 dur::LoadCheckpoint) under open-loop Zipf traffic.
//   live_durable  the stream_train run with a DurabilityEngine attached
//                 and a light open-loop reader beside it, then
//                 dur::Recover of what the run left behind.
//
// The system is driven through its public calls only; layers are timed
// from outside (call timing, forwarding EdgeLogSink / CheckpointSink taps,
// deltas of the counters the program already exports, and the CPU clocks
// of the serve engine's worker threads).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 20.0;
  /// Also collect the per-layer metrics (profiler and tap timing on
  /// every other repetition, so the same run yields the tracing overhead).
  bool trace = false;
  /// Scratch directory for checkpoints and durability directories.
  std::string workdir;
  /// Taobao emulator scale. Tests shrink it.
  double scale = 0.25;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// How the value was formed ("median of 5 reps", "n=40000 ...").
  std::string detail;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed output checks; empty means correct.
  std::vector<std::string> check_failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Plain runs only: the user-facing figures that are too unsteady on
  /// the benchmark host to gate, or that exist on one workload only
  /// (see UngatedEndToEndSpecs). Printed, not part of the JSON result.
  std::vector<Metric> ungated;
  /// Parameters of the last model the workload trained (empty for
  /// serve_read), for the benchmark's own cross-workload tests.
  std::vector<float> final_params;
};

/// The workload names, in benchmark order.
const std::vector<std::string>& WorkloadNames();

/// Names and units of every end-to-end and per-layer metric, in output
/// order; every workload reports all of them.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndSpecs();
const std::vector<MetricSpec>& PerLayerSpecs();
/// The first per-layer metrics: serving latency (p50, p99), freshness
/// lag (p50, p99), recovery time, durable bytes per edge and serving CPU
/// per request. A plain run prints them beside the end-to-end metrics.
const std::vector<MetricSpec>& UngatedEndToEndSpecs();

/// Runs one workload. Throws std::runtime_error when an operation of the
/// system fails.
Outcome RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
