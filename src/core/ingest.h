// Multi-writer ingest pipeline (DESIGN.md §13): parallel execution of
// training-step math behind a serial planner and a deterministic,
// arrival-order commit protocol.
//
// Architecture — plan / execute / commit:
//
//   * The *dispatcher* (the thread calling TrainSpan) plans edges strictly
//     in arrival order, pinning each edge's optimizer step number, and
//     batches consecutive plans into a *group* fanned out to writer tasks
//     on the shared thread pool.
//   * Writer tasks sample and compute each plan's gradient — reading the
//     graph and embeddings, never writing them, the model RNG, or the
//     optimizer's counters.
//   * When the group's math has drained, the dispatcher *commits* each
//     plan in arrival order and releases the store lease, so the applied
//     update sequence is pinned to batch-arrival order at any writer
//     count.
//
// Semantics: each group holds up to kMaxGroupEdges consecutive edges, and
// the sampling runs *inside* the parallel execute stage: each executor
// draws from a private counter-based RNG keyed by (seed, step) and
// computes the edge's full gradient against the frozen group-start
// embeddings (reads only — no lease held during execution). The
// dispatcher then applies each plan with the ordinary serial optimizer
// step at commit, under the store lease, in arrival order. Results are
// deterministic and writer-count-independent — grouping and the per-step
// RNG depend only on the edge sequence — but diverge from the serial
// trainer in two documented ways: the per-step RNG streams differ from
// the serial draw order, and edges sharing rows within one group compute
// gradients against group-start values (stale reads, surfaced as
// ingest.conflict_serializations; the arrival-order commit means no
// update is ever lost). The serial TrainEdge loop (writer_threads <= 1)
// stays the bit-exact reference.
//
// Overlap rule: ObserveEdge mutates the graph adjacency and periodically
// rebuilds the negative table, which executors read while sampling.
// TrainSpan therefore overlaps planning with group execution only on
// non-observing iterations; on the observing (first) iteration of a batch
// it plans between commits. Observing strictly between groups keeps those
// reads race-free and the sampled graph state writer-count-independent.

#ifndef SUPA_CORE_INGEST_H_
#define SUPA_CORE_INGEST_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/model.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/statusz.h"
#include "util/status.h"

namespace supa {

/// Drives a span of training edges through the plan/execute/commit
/// pipeline. One instance per training run; reusable across spans. Not
/// thread-safe — TrainSpan runs on one dispatcher thread at a time.
class IngestPipeline {
 public:
  /// Group-size cap. Writer-count-independent on purpose: grouping (and
  /// therefore every result) depends only on the edge sequence, so the
  /// output is identical at 2 or 8 writers.
  static constexpr size_t kMaxGroupEdges = 32;

  /// `writers` concurrent executor tasks per group (0 is treated as 1).
  IngestPipeline(SupaModel& model, size_t writers);
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Trains edges [begin, end) of `edges`, equivalent to the serial loop
  ///   for i: TrainEdge(edges[i]); if (observe_edges) ObserveEdge(edges[i]);
  /// under the pipeline's semantics (file comment). `on_edge` runs on the
  /// dispatcher once per committed edge, in arrival order. Wall time
  /// spent inside ObserveEdge is added to *observe_seconds, the rest of
  /// the span to *train_seconds.
  Status TrainSpan(const std::vector<TemporalEdge>& edges, size_t begin,
                   size_t end, bool observe_edges,
                   const std::function<void(const TrainStats&)>& on_edge,
                   double* train_seconds, double* observe_seconds);

 private:
  /// One in-flight group of consecutive plans plus its fan-out state.
  /// Two instances alternate so the dispatcher can plan the next group
  /// while the current one executes.
  struct Group {
    std::vector<EdgePlan> plans;  // kMaxGroupEdges slots; [0, count) live
    size_t count = 0;
    std::atomic<size_t> next_plan{0};
    std::atomic<size_t> pending_tasks{0};
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;  // guarded by mu
  };

  /// Plans edges into `g` until the cap, the end of the span, or an
  /// error. With observe_edges it must not overlap execution (see the
  /// overlap rule in the file comment).
  void FormGroup(Group* g, const std::vector<TemporalEdge>& edges,
                 bool observe_edges, double* observe_seconds);

  /// Takes the whole-store lease for a group's commit: non-blocking
  /// first, then a blocking wait, timing the wait into
  /// ingest.lease_wait_us.
  store::ShardWriteLease AcquireCommitLease();

  /// Fans the group's plans out to the shared thread pool. Executors only
  /// read embeddings, so no lease is held until Commit.
  void Launch(Group* g);

  /// Waits until every plan in `g` has executed, stealing remaining
  /// plans onto the dispatcher instead of idling (scratch slot writers_).
  void WaitExecuted(Group* g);

  /// Acquires the lease, commits `g`'s plans in arrival order, runs
  /// callbacks, and releases the lease. Counts stale-read overlaps between
  /// same-group gradient row sets.
  void Commit(Group* g,
              const std::function<void(const TrainStats&)>& on_edge);

  /// Adds one execute loop's accumulated perf delta to writer slot `w`'s
  /// atomics (no-op for an all-zero delta — profiling off).
  void FoldWriterPerf(size_t w, const obs::PerfDelta& delta);

  std::vector<obs::StatusItem> StatusItems() const;

  SupaModel& model_;
  const size_t writers_;

  Group groups_[2];
  std::vector<SupaModel::ExecScratch> scratches_;  // one per writer
  /// Commit-time row set: gradient rows committed so far in the
  /// current group, probed to count stale-read overlaps.
  RowIndex footprint_;

  // Span-scoped dispatcher state.
  size_t next_edge_ = 0;
  size_t span_end_ = 0;
  uint64_t next_step_ = 0;
  Status error_;

  // Observability.
  obs::Counter planned_counter_;
  obs::Counter executed_counter_;
  obs::Counter groups_counter_;
  obs::Counter conflict_counter_;
  obs::Histogram lease_wait_hist_;
  obs::Histogram group_edges_hist_;
  std::unique_ptr<std::atomic<uint64_t>[]> writer_executed_;
  /// Per-writer hardware cost (cycles / LLC misses / thread CPU ns) from
  /// the execute-stage perf scopes, folded in once per drained group so
  /// the scrape-side reads are plain atomics. Slot writers_ is
  /// the dispatcher's work-stealing share, like writer_executed_.
  std::unique_ptr<std::atomic<uint64_t>[]> writer_cycles_;
  std::unique_ptr<std::atomic<uint64_t>[]> writer_llc_misses_;
  std::unique_ptr<std::atomic<uint64_t>[]> writer_task_clock_ns_;
  std::atomic<uint64_t> committed_{0};
  std::optional<obs::StatusScope> status_scope_;
};

}  // namespace supa

#endif  // SUPA_CORE_INGEST_H_
