#include "workloads.h"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/inslearn.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "dur/checkpoint.h"
#include "dur/engine.h"
#include "dur/recovery.h"
#include "eval/protocols.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "serve/engine.h"
#include "stats.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using supa::CheckpointSink;
using supa::Dataset;
using supa::EdgeLogSink;
using supa::EdgeTypeId;
using supa::InsLearnConfig;
using supa::InsLearnReport;
using supa::NodeId;
using supa::Status;
using supa::SupaConfig;
using supa::SupaModel;
using supa::TemporalEdge;
using supa::TemporalSplit;
using supa::obs::MetricsRegistry;
using supa::obs::MetricsSnapshot;
using supa::obs::PerfDomain;
using supa::obs::PerfProfiler;

// ---- Fixed workload parameters --------------------------------------------

/// The emulator's own seed (the CLI default); --seed relabels its output.
constexpr uint64_t kGeneratorSeed = 7;
/// Set-ups timed before each repetition (live_durable also times the
/// repetition's own); setup_s is the median of all a run times. They are spread over the run
/// because the host's speed swings from one second to the next: a median
/// over the whole run is steadier than one over a burst at its start.
constexpr size_t kSetupsPerRep = 8;
/// serve_read trains its model, repeatedly, for this share of --seconds
/// and serves it for the rest.
constexpr double kServeReadTrainShare = 0.5;
/// Validation threads: up to nproc (4) on stream_train; 1 in live_durable,
/// where the reader and the durability writer need the other cores.
constexpr size_t kStreamValidThreads = 4;
constexpr size_t kLiveValidThreads = 1;
/// Requests answered later than this (from their scheduled send) miss.
constexpr double kSloUs = 5000.0;
constexpr size_t kTopK = 10;
constexpr double kZipfTheta = 0.99;
/// Open-loop load: serve_read and stream_train's serving probe send
/// kServeRate requests/s from two senders; live_durable's reader sends
/// kLiveRate from one, beside training.
constexpr double kServeRate = 2000.0;
constexpr size_t kServeSenders = 2;
constexpr double kLiveRate = 100.0;
/// stream_train's serving probe lasts this share of --seconds.
constexpr double kProbeShare = 0.25;
/// Negatives per test edge for test_mrr (fixed by kEvalSeed).
constexpr size_t kEvalNegatives = 100;
constexpr uint64_t kEvalSeed = 99;
/// test_mrr must clear this: ranking among 101 candidates at random
/// gives H(101)/101 ≈ 0.052.
constexpr double kMrrFloor = 0.15;
/// Served responses checked against the brute-force top-K per sender.
constexpr size_t kCheckedResponses = 48;
constexpr uint64_t kCheckEvery = 97;
/// Senders spin (rather than sleep) for this long before a due time.
constexpr double kSpinS = 300e-6;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntil(double t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(t))));
}

[[noreturn]] void Fail(const std::string& what, const Status& st) {
  throw std::runtime_error(what + ": " + st.ToString());
}
void Ok(const std::string& what, const Status& st) {
  if (!st.ok()) Fail(what, st);
}
template <class T>
T Take(const std::string& what, supa::Result<T> r) {
  if (!r.ok()) Fail(what, r.status());
  return std::move(r).value();
}

/// Every field the workloads rely on is set here, not left to defaults
/// that an environment variable could redirect.
SupaConfig ModelConfig() {
  SupaConfig c;
  c.seed = 42;
  c.shards = 1;
  return c;
}

InsLearnConfig TrainerConfig(size_t valid_threads, CheckpointSink* sink) {
  InsLearnConfig tc;  // the trainer's defaults otherwise
  tc.threads = valid_threads;
  tc.writer_threads = 1;
  tc.heartbeat_seconds = 0.0;
  tc.checkpoint_sink = sink;
  tc.ckpt_interval = 1;
  return tc;
}

supa::serve::ServeOptions ServeConfig(size_t workers) {
  supa::serve::ServeOptions o;
  o.workers = workers;
  o.max_batch = 8;
  o.max_queue = 1024;
  o.default_k = kTopK;
  o.snapshot_refresh_batches = 1;
  o.exclude_seen = true;
  return o;
}

struct Stream {
  Dataset data;
  TemporalSplit split;
};

/// The timed set-up shared by every workload: generate the stream and
/// build an untrained model.
struct SetUp {
  std::unique_ptr<Stream> stream;
  std::unique_ptr<SupaModel> model;
  double generate_s = 0.0;
};

/// Relabels node ids by a permutation drawn from `seed`. The graph stays
/// the same up to isomorphism, so every seed gets different inputs (ids,
/// hence sampling draws and request targets) of the same size, shape and
/// learnability: run-to-run spread then measures the system, not how the
/// generator happened to cluster one seed's graph.
Dataset RelabelNodes(Dataset data, uint64_t seed) {
  const size_t n = data.num_nodes();
  std::vector<NodeId> perm(n);
  for (size_t v = 0; v < n; ++v) perm[v] = static_cast<NodeId>(v);
  supa::Rng rng(supa::SplitMix64At(seed, 0x1d));
  for (size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.Index(i)]);
  std::vector<supa::NodeTypeId> types(n);
  for (size_t v = 0; v < n; ++v) types[perm[v]] = data.node_types[v];
  data.node_types = std::move(types);
  for (TemporalEdge& e : data.edges) {
    e.src = perm[e.src];
    e.dst = perm[e.dst];
  }
  return data;
}

SetUp MakeSetUp(const Options& opt) {
  SetUp s;
  const double t0 = NowS();
  s.stream = std::make_unique<Stream>();
  s.stream->data = RelabelNodes(
      Take("generate",
           supa::MakePaperDataset("taobao", opt.scale, kGeneratorSeed)),
      opt.seed);
  Ok("validate", s.stream->data.Validate());
  s.stream->split = Take("split", supa::SplitTemporal(s.stream->data));
  s.generate_s = NowS() - t0;
  s.model = std::make_unique<SupaModel>(s.stream->data, ModelConfig());
  return s;
}

std::vector<float> Params(const SupaModel& model) {
  return model.TakeSnapshot().params;
}

bool SameState(const SupaModel& a, const SupaModel& b) {
  const SupaModel::Snapshot x = a.TakeSnapshot();
  const SupaModel::Snapshot y = b.TakeSnapshot();
  auto same = [](const std::vector<float>& p, const std::vector<float>& q) {
    return p.size() == q.size() &&
           std::memcmp(p.data(), q.data(), p.size() * sizeof(float)) == 0;
  };
  return same(x.params, y.params) && same(x.adam.m, y.adam.m) &&
         same(x.adam.v, y.adam.v) && x.adam.step == y.adam.step;
}

/// Starts a new peak-memory window: heap memory freed by earlier work is
/// handed back to the kernel first, so that the window starts from what
/// is live rather than from what the allocator happened to keep; then the
/// kernel resets the process's peak resident set size (VmHWM) to its
/// current size.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set size since the last ResetPeakRss, in MB (MiB).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the kernel reports kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// CPU seconds the serve engine's workers have used so far, summed over
/// its live worker threads (the engine names them "supa-serve"). The
/// engine does not expose its thread handles, so each thread's CPU-time
/// clock is built from its tid, as pthread_getcpuclockid would build it.
double ServeWorkersCpuS() {
  double total = 0.0;
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    std::ifstream comm(entry.path() / "comm");
    std::string name;
    if (!std::getline(comm, name) || name != "supa-serve") continue;
    const auto tid = static_cast<unsigned>(std::stoul(entry.path().filename()));
    // Per-thread (4) scheduler (2) CPU clock of thread `tid`.
    const auto clock = static_cast<clockid_t>((~tid << 3) | 6u);
    timespec ts{};
    if (clock_gettime(clock, &ts) == 0) {
      total += static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
    }
  }
  return total;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// ---- Counter deltas --------------------------------------------------------

uint64_t CounterDelta(const MetricsSnapshot& a, const MetricsSnapshot& b,
                      const std::string& name) {
  return b.CounterValue(name) - a.CounterValue(name);
}

uint64_t PrefixCounterDelta(const MetricsSnapshot& a, const MetricsSnapshot& b,
                            const std::string& prefix) {
  uint64_t total = 0;
  for (const auto& e : b.entries) {
    if (e.kind == supa::obs::MetricKind::kCounter &&
        e.name.compare(0, prefix.size(), prefix) == 0) {
      total += e.counter - a.CounterValue(e.name);
    }
  }
  return total;
}

/// Mean of a histogram's observations between two snapshots.
double HistMeanDelta(const MetricsSnapshot& a, const MetricsSnapshot& b,
                     const std::string& name) {
  const auto* eb = b.Find(name);
  if (eb == nullptr) return 0.0;
  const auto* ea = a.Find(name);
  const uint64_t n = eb->count - (ea ? ea->count : 0);
  const double sum = eb->sum - (ea ? ea->sum : 0.0);
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

uint64_t TaskClockNs(const MetricsSnapshot& s, PerfDomain d) {
  for (const auto& st : supa::obs::CollectPerfDomainStats(s)) {
    if (st.domain == d) return st.totals.task_clock_ns;
  }
  return 0;
}

// ---- Forwarding taps -------------------------------------------------------

/// Forwards every committed mutation to `inner` (null: none) and records
/// each add's commit time; with `time_calls`, also how long the forwarded
/// LogAdd took. Called on the training thread only; readers see the
/// commit count through committed().
class EdgeLogTap : public EdgeLogSink {
 public:
  EdgeLogTap(EdgeLogSink* inner, size_t expected_edges, bool time_calls)
      : inner_(inner), time_calls_(time_calls) {
    commit_s_.reserve(expected_edges);
    if (time_calls_) add_ns_.reserve(expected_edges);
  }

  void LogAdd(const TemporalEdge& e) override {
    const auto t0 = std::chrono::steady_clock::now();
    if (inner_ != nullptr) inner_->LogAdd(e);
    if (time_calls_) {
      add_ns_.push_back(std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    commit_s_.push_back(
        std::chrono::duration<double>(t0.time_since_epoch()).count());
    committed_.store(commit_s_.size(), std::memory_order_release);
  }
  void LogRemove(NodeId u, NodeId v, EdgeTypeId r,
                 supa::Timestamp t) override {
    if (inner_ != nullptr) inner_->LogRemove(u, v, r, t);
  }

  uint64_t committed() const {
    return committed_.load(std::memory_order_acquire);
  }
  const std::vector<double>& commit_s() const { return commit_s_; }
  const std::vector<double>& add_ns() const { return add_ns_; }

 private:
  EdgeLogSink* inner_;
  const bool time_calls_;
  std::vector<double> commit_s_;
  std::vector<double> add_ns_;
  std::atomic<uint64_t> committed_{0};
};

/// Times each durable cut before passing it to `inner`.
class CheckpointTap : public CheckpointSink {
 public:
  explicit CheckpointTap(CheckpointSink* inner) : inner_(inner) {}
  Status OnCheckpoint(SupaModel& model,
                      const supa::TrainerCursor& cursor) override {
    const double t0 = NowS();
    Status st = inner_->OnCheckpoint(model, cursor);
    ms_.push_back((NowS() - t0) * 1e3);
    return st;
  }
  const std::vector<double>& ms() const { return ms_; }

 private:
  CheckpointSink* inner_;
  std::vector<double> ms_;
};

// ---- Open-loop load ---------------------------------------------------------

struct CheckedResponse {
  NodeId user = supa::kInvalidNode;
  EdgeTypeId relation = 0;
  std::vector<supa::ScoredItem> items;
  uint64_t epoch = 0;
};

/// Query-type users by id: Zipf rank i targets the i-th. Node ids are
/// relabelled per seed, so which users are hot changes with the seed.
std::vector<NodeId> QueryUsers(const Dataset& data) {
  std::vector<NodeId> users;
  for (NodeId v = 0; v < data.num_nodes(); ++v) {
    if (data.node_types[v] == data.query_type) users.push_back(v);
  }
  return users;
}

/// `senders` open-loop threads driving ServeEngine::Recommend at
/// `rate_per_s` in total until Stop().
class LoadDriver {
 public:
  LoadDriver(supa::serve::ServeEngine* engine, const Dataset& data,
             uint64_t seed, const EdgeLogTap* tap)
      : engine_(engine),
        users_(QueryUsers(data)),
        relation_(data.target_relations[0]),
        seed_(seed),
        tap_(tap) {}
  ~LoadDriver() {
    stop_.store(true, std::memory_order_release);
    Join();
  }
  LoadDriver(const LoadDriver&) = delete;
  LoadDriver& operator=(const LoadDriver&) = delete;

  void Start(double rate_per_s, size_t senders, uint64_t stream_salt) {
    records_.assign(senders, {});
    checked_.assign(senders, {});
    stop_.store(false, std::memory_order_release);
    const double start = NowS() + 0.001;
    for (size_t s = 0; s < senders; ++s) {
      threads_.emplace_back([this, s, senders, rate_per_s, start,
                             stream_salt] {
        SenderLoop(OpenLoopSchedule(start, rate_per_s, s, senders),
                   supa::SplitMix64At(seed_, stream_salt * 64 + s),
                   &records_[s], &checked_[s]);
      });
    }
  }

  /// Stops the senders; returns every request in due order.
  std::vector<RequestRecord> Stop() {
    stop_.store(true, std::memory_order_release);
    Join();
    std::vector<RequestRecord> all;
    for (auto& r : records_) all.insert(all.end(), r.begin(), r.end());
    std::sort(all.begin(), all.end(),
              [](const RequestRecord& a, const RequestRecord& b) {
                return a.due_s < b.due_s;
              });
    return all;
  }

  std::vector<CheckedResponse> checked() const {
    std::vector<CheckedResponse> all;
    for (const auto& c : checked_) all.insert(all.end(), c.begin(), c.end());
    return all;
  }

 private:
  void Join() {
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  void SenderLoop(const OpenLoopSchedule& schedule, uint64_t rng_seed,
                  std::vector<RequestRecord>* out,
                  std::vector<CheckedResponse>* checked) {
    supa::Rng rng(rng_seed);
    const supa::FastZipf zipf(users_.size(), kZipfTheta);
    supa::serve::RecommendRequest req;
    req.relation = relation_;
    req.k = kTopK;
    supa::serve::RecommendResponse resp;
    uint64_t n = 0;
    out->reserve(1 << 16);
    RunOpenLoop(
        schedule, NowS,
        [](double t) {
          // Timer wake-ups run late by up to milliseconds here; sleep to
          // just short of the due time and spin the rest.
          SleepUntil(t - kSpinS);
          while (NowS() < t) {
          }
        },
        [&](RequestRecord* rec) {
          req.user = users_[zipf.Sample(rng)];
          rec->committed_at_send = tap_ != nullptr ? tap_->committed() : 0;
          const Status st = engine_->Recommend(req, &resp);
          rec->ok = st.ok();
          rec->engine_us = resp.latency_us;
          rec->staleness_edges = resp.staleness_edges;
          if (st.ok() && n++ % kCheckEvery == 0 &&
              checked->size() < kCheckedResponses) {
            checked->push_back(
                {req.user, req.relation, resp.items, resp.snapshot_epoch});
          }
        },
        [this] { return stop_.load(std::memory_order_acquire); }, out);
  }

  supa::serve::ServeEngine* engine_;
  const std::vector<NodeId> users_;
  const EdgeTypeId relation_;
  const uint64_t seed_;
  const EdgeLogTap* tap_;
  std::atomic<bool> stop_{false};
  std::vector<std::vector<RequestRecord>> records_;
  std::vector<std::vector<CheckedResponse>> checked_;
  std::vector<std::thread> threads_;
};

// ---- Collected samples ------------------------------------------------------

/// A measured time and the interval it was measured over, so that it can
/// be divided by the host's slowness around that interval.
struct Timed {
  double t0 = 0.0;
  double t1 = 0.0;
  double seconds = 0.0;
};

/// Raw per-run samples, reduced to the reported metrics at the end.
struct Samples {
  explicit Samples(HostGauge* g) : gauge(g) {}

  HostGauge* gauge;
  std::map<std::string, std::vector<double>> values;
  /// setup_s and train_wall_s (untraced Train calls).
  std::map<std::string, std::vector<Timed>> timed;
  std::vector<RequestRecord> requests;   // serve window(s), due order
  std::vector<double> freshness_ms;      // per edge, commit order
  size_t stream_edges = 0;
  double serve_cpu_s = 0.0;  // serve workers' CPU over the serve windows
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<float> final_params;

  void Add(const std::string& name, double v) { values[name].push_back(v); }
  void AddTimed(const std::string& name, double t0, double t1, double seconds) {
    timed[name].push_back({t0, t1, seconds});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// ---- Output checks ----------------------------------------------------------

/// Brute-force top-K with SupaModel::ScoreOn on `snapshot`, with the
/// engine's pinned order (score descending, then smaller id) and its
/// seen-item rule.
std::vector<supa::ScoredItem> BruteForceTopK(
    const SupaModel& model, const supa::store::StoreSnapshot& snapshot,
    const std::vector<NodeId>& candidates, NodeId user, EdgeTypeId relation,
    size_t k) {
  std::vector<NodeId> seen;
  for (const supa::Neighbor& n : snapshot.AllNeighbors(user)) {
    if (n.edge_type == relation) seen.push_back(n.node);
  }
  std::sort(seen.begin(), seen.end());
  std::vector<supa::ScoredItem> all;
  for (NodeId item : candidates) {
    if (item == user || std::binary_search(seen.begin(), seen.end(), item)) {
      continue;
    }
    all.push_back({item, model.ScoreOn(snapshot, user, item, relation)});
  }
  std::sort(all.begin(), all.end(),
            [](const supa::ScoredItem& a, const supa::ScoredItem& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.item < b.item;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

/// Checks sampled responses of a frozen model against the brute force on
/// the snapshot they were served from.
void CheckResponses(const SupaModel& model,
                    const supa::serve::ServeEngine& engine,
                    const std::vector<CheckedResponse>& checked,
                    Samples* s) {
  const auto snapshot = model.AcquireSnapshot();
  s->Check(!checked.empty(), "no served response was sampled for checking");
  for (const CheckedResponse& c : checked) {
    s->Check(c.epoch == snapshot->epoch(),
             "frozen model served from another snapshot epoch");
    const auto expected = BruteForceTopK(model, *snapshot, engine.candidates(),
                                         c.user, c.relation, kTopK);
    if (c.items != expected) {
      s->Check(false, "served top-K of user " + std::to_string(c.user) +
                          " differs from the brute-force top-K");
      return;
    }
  }
}

/// MRR on the held-out test edges against kEvalNegatives fixed negatives.
double TestMrr(const SupaModel& model, const Stream& stream) {
  class SnapshotScorer : public supa::Recommender {
   public:
    explicit SnapshotScorer(const SupaModel& m)
        : m_(m), snap_(m.AcquireSnapshot()) {}
    std::string name() const override { return "SUPA"; }
    Status Fit(const Dataset&, supa::EdgeRange) override {
      return Status::OK();
    }
    double Score(NodeId u, NodeId v, EdgeTypeId r) const override {
      return m_.ScoreOn(*snap_, u, v, r);
    }

   private:
    const SupaModel& m_;
    std::shared_ptr<const supa::store::StoreSnapshot> snap_;
  } scorer(model);
  supa::EvalConfig eval;
  eval.max_test_edges = 0;
  eval.candidate_cap = kEvalNegatives + 1;
  eval.seed = kEvalSeed;
  eval.threads = kStreamValidThreads;
  const auto r = Take(
      "evaluate", supa::EvaluateLinkPrediction(
                      scorer, stream.data, stream.split.test,
                      supa::EdgeRange{0, stream.split.valid.end}, eval));
  return r.mrr;
}

void AddTestMrr(const SupaModel& model, const Stream& stream, Samples* s) {
  const double mrr = TestMrr(model, stream);
  s->Add("test_mrr", mrr);
  s->Check(mrr > kMrrFloor, "test_mrr " + std::to_string(mrr) +
                                " is not above the floor " +
                                std::to_string(kMrrFloor));
}

// ---- Shared measurement pieces -------------------------------------------

void TimedSetUps(const Options& opt, Samples* s) {
  for (size_t i = 0; i < kSetupsPerRep; ++i) {
    const double t0 = NowS();
    SetUp su = MakeSetUp(opt);
    const double t1 = NowS();
    s->AddTimed("setup_s", t0, t1, t1 - t0);
    s->Add("data.generate_s", su.generate_s);
  }
}

/// Profiler task clock charged to each of the five model phases between
/// two snapshots, per train step. With no train steps (serve_read) it is
/// the window's total, which reads 0 unless a phase ran.
void AddModelPhases(const MetricsSnapshot& before, const MetricsSnapshot& after,
                    size_t train_steps, Samples* s) {
  const double steps = static_cast<double>(std::max<size_t>(train_steps, 1));
  const std::pair<const char*, PerfDomain> phases[] = {
      {"model.sample_ns_per_step", PerfDomain::kSample},
      {"model.update_ns_per_step", PerfDomain::kUpdate},
      {"model.propagate_ns_per_step", PerfDomain::kPropagate},
      {"model.negative_ns_per_step", PerfDomain::kNegative},
      {"model.optimize_ns_per_step", PerfDomain::kOptimize}};
  for (const auto& [name, domain] : phases) {
    s->Add(name, static_cast<double>(TaskClockNs(after, domain) -
                                     TaskClockNs(before, domain)) /
                     steps);
  }
}

/// Durability counter deltas between two snapshots.
void AddDurCounters(const MetricsSnapshot& before, const MetricsSnapshot& after,
                    Samples* s) {
  for (const char* counter :
       {"dur.wal_syncs", "dur.ckpt_delta_links", "dur.compactions"}) {
    s->Add(counter, static_cast<double>(CounterDelta(before, after, counter)));
  }
  s->Add("dur.dirty_rows_per_link",
         HistMeanDelta(before, after, "dur.ckpt_dirty_rows"));
}

void AddLogAddTimes(const EdgeLogTap& tap, Samples* s) {
  s->Add("dur.log_add_ns_p50", Quantile(tap.add_ns(), 0.50));
  s->Add("dur.log_add_ns_p99", Quantile(tap.add_ns(), 0.99));
}

/// Records one Train call's wall time and, when traced, the report's
/// phase split and the counter and profiler deltas.
void RecordTrain(const InsLearnReport& rep, size_t edges, double wall_s,
                 bool traced, const MetricsSnapshot& before,
                 const MetricsSnapshot& after, Samples* s) {
  const double n = static_cast<double>(edges);
  s->Add(traced ? "train_wall_s.traced" : "train_wall_s.plain", wall_s);
  if (!traced) return;
  const double accounted = rep.train_seconds + rep.valid_seconds +
                           rep.snapshot_seconds + rep.observe_seconds +
                           rep.checkpoint_seconds;
  s->Add("inslearn.train_us_per_edge", rep.train_seconds * 1e6 / n);
  s->Add("inslearn.valid_us_per_edge", rep.valid_seconds * 1e6 / n);
  s->Add("inslearn.snapshot_us_per_edge", rep.snapshot_seconds * 1e6 / n);
  s->Add("inslearn.observe_us_per_edge", rep.observe_seconds * 1e6 / n);
  s->Add("inslearn.checkpoint_us_per_edge",
         rep.checkpoint_seconds * 1e6 / n);
  s->Add("inslearn.unattributed_us_per_edge", (wall_s - accounted) * 1e6 / n);
  s->Add("residual.inslearn_unattributed_share", (wall_s - accounted) / wall_s);
  s->Add("inslearn.steps_per_edge", static_cast<double>(rep.train_steps) / n);
  s->Add("inslearn.valid_rounds",
         static_cast<double>(CounterDelta(before, after,
                                          "inslearn.valid_rounds")));
  AddModelPhases(before, after, rep.train_steps, s);
  s->Add("snapshot.dirty_rows_per_take",
         HistMeanDelta(before, after, "snapshot.dirty_rows"));
  const uint64_t takes = CounterDelta(before, after, "snapshot.delta_takes");
  s->Add("snapshot.rebases_per_take",
         takes == 0 ? 0.0
                    : static_cast<double>(
                          CounterDelta(before, after, "snapshot.rebases")) /
                          static_cast<double>(takes));
  s->Add("store.lease_contention",
         static_cast<double>(
             PrefixCounterDelta(before, after, "store.lease_contention")));
}

/// Records store and serve-engine counters over a serving window.
void RecordServeCounters(const SupaModel& model, uint64_t epoch_before,
                         double window_s, uint64_t attempted,
                         const MetricsSnapshot& before,
                         const MetricsSnapshot& after, Samples* s) {
  const double publishes =
      static_cast<double>(model.graph_store().epoch() - epoch_before);
  double bytes = 0.0;
  for (size_t sh = 0; sh < model.graph_store().num_shards(); ++sh) {
    bytes += static_cast<double>(model.graph_store().ShardBytesEstimate(sh));
  }
  s->Add("store.publishes_per_s", publishes / window_s);
  s->Add("store.publish_mb_per_s", publishes * bytes / 1e6 / window_s);
  const double served =
      static_cast<double>(CounterDelta(before, after, "serve.requests"));
  const double batches =
      static_cast<double>(CounterDelta(before, after, "serve.batches"));
  s->Add("serve.batch_size_mean", batches > 0 ? served / batches : 0.0);
  s->Add("serve.candidates_per_req",
         served > 0 ? static_cast<double>(CounterDelta(
                          before, after, "serve.scored_candidates")) /
                          served
                    : 0.0);
  s->Add("serve.rejected_ratio",
         attempted > 0 ? static_cast<double>(CounterDelta(before, after,
                                                          "serve.rejected")) /
                             static_cast<double>(attempted)
                       : 0.0);
}

void CountRequests(const std::vector<RequestRecord>& recs, Samples* s) {
  for (const RequestRecord& r : recs) {
    ++s->attempted;
    if (!r.ok) ++s->failed;
  }
}

/// Serves a frozen `model` open-loop for `seconds`; in trace mode the
/// profiler is on for the second half, whose requests and counters give
/// the per-layer figures (the first half gives the overhead's base).
void ServeFrozen(const Options& opt, const SupaModel& model,
                 const Dataset& data, double seconds, uint64_t salt,
                 Samples* s) {
  supa::serve::ServeEngine engine(&model, &data, ServeConfig(2));
  engine.Start();
  LoadDriver driver(&engine, data, opt.seed, nullptr);
  const uint64_t epoch0 = model.graph_store().epoch();
  const MetricsSnapshot m0 = MetricsRegistry::Global().Snapshot();
  const double t0 = NowS();
  driver.Start(kServeRate, kServeSenders, salt);
  const double half = t0 + seconds / 2.0;
  uint64_t epoch_mid = epoch0;
  MetricsSnapshot m_mid = m0;
  if (opt.trace) {
    SleepUntil(half);
    epoch_mid = model.graph_store().epoch();
    m_mid = MetricsRegistry::Global().Snapshot();
    PerfProfiler::Global().Enable(true);
  }
  SleepUntil(t0 + seconds);
  std::vector<RequestRecord> recs = driver.Stop();
  const double t1 = NowS();
  const MetricsSnapshot m1 = MetricsRegistry::Global().Snapshot();
  PerfProfiler::Global().Enable(false);
  s->serve_cpu_s += ServeWorkersCpuS();
  engine.Stop();
  CountRequests(recs, s);
  CheckResponses(model, engine, driver.checked(), s);
  if (opt.trace) {
    std::vector<RequestRecord> plain;
    std::vector<RequestRecord> traced;
    for (const RequestRecord& r : recs) {
      (r.due_s < half ? plain : traced).push_back(r);
    }
    const auto lat = [](const std::vector<RequestRecord>& v) {
      std::vector<double> us;
      for (const RequestRecord& r : v) us.push_back((r.done_s - r.due_s) * 1e6);
      return SummarizeChunked(us).p50;
    };
    s->Add("trace.overhead_share", (lat(traced) - lat(plain)) / lat(plain));
    RecordServeCounters(model, epoch_mid, t1 - half, traced.size(), m_mid, m1,
                        s);
    // Layers the table predicts idle while serving, measured anyway.
    AddModelPhases(m_mid, m1, 0, s);
    AddDurCounters(m_mid, m1, s);
    s->Add("store.lease_contention",
           static_cast<double>(
               PrefixCounterDelta(m_mid, m1, "store.lease_contention")));
    recs = std::move(traced);
  } else {
    RecordServeCounters(model, epoch0, t1 - t0, recs.size(), m0, m1, s);
  }
  s->requests.insert(s->requests.end(), recs.begin(), recs.end());
}

// ---- Workloads --------------------------------------------------------------

/// One timed Train call. Untraced calls give ingest_edges_per_s; traced
/// calls, run with the profiler on, add the per-layer split.
void TimedTrain(SetUp& su, size_t valid_threads, CheckpointSink* sink,
                bool traced, Samples* s) {
  const supa::EdgeRange range = su.stream->split.train;
  const InsLearnConfig config = TrainerConfig(valid_threads, sink);
  PerfProfiler::Global().Enable(traced);
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  supa::InsLearnTrainer trainer(config);
  const double t0 = NowS();
  auto report = trainer.Train(*su.model, su.stream->data, range);
  const double t1 = NowS();
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  PerfProfiler::Global().Enable(false);
  s->attempted += range.size();
  if (!report.ok()) {
    s->failed += range.size();
    Fail("train", report.status());
  }
  s->stream_edges = range.size();
  if (!traced) s->AddTimed("train_wall_s", t0, t1, t1 - t0);
  RecordTrain(report.value(), range.size(), t1 - t0, traced, before, after,
              s);
}

/// Repetitions run until `seconds` have passed, and at least three, so
/// every batch has a median; in trace mode every other one is traced.
bool MoreReps(size_t rep, double start, const Options& opt) {
  return rep < (opt.trace ? 4u : 3u) || NowS() - start < opt.seconds;
}

void AddTraceOverhead(Samples* s) {
  s->Add("trace.overhead_share",
         Median(s->values["train_wall_s.traced"]) /
                 Median(s->values["train_wall_s.plain"]) -
             1.0);
}

void StreamTrain(const Options& opt, Samples* s) {
  std::unique_ptr<SetUp> last;
  const double start = NowS();
  for (size_t rep = 0; MoreReps(rep, start, opt); ++rep) {
    const bool traced = opt.trace && rep % 2 == 1;
    last.reset();  // so that peak RSS does not depend on what is left over
    ResetPeakRss();
    s->gauge->Sample();
    TimedSetUps(opt, s);
    auto su = std::make_unique<SetUp>(MakeSetUp(opt));
    // The tap forwards nowhere. It is the hook live_durable attaches, so
    // the two workloads commit through the same path; when traced it
    // times its own LogAdd, the whole cost durability adds here.
    EdgeLogTap tap(nullptr, su->stream->split.train.size(), traced);
    su->model->set_edge_log(&tap);
    const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    TimedTrain(*su, kStreamValidThreads, nullptr, traced, s);
    if (traced) {
      AddDurCounters(before, MetricsRegistry::Global().Snapshot(), s);
      AddLogAddTimes(tap, s);
    }
    su->model->set_edge_log(nullptr);
    std::vector<float> params = Params(*su->model);
    if (s->final_params.empty()) {
      s->final_params = std::move(params);
    } else {
      s->Check(params == s->final_params,
               "repeated training of one stream gave different parameters");
    }
    last = std::move(su);
    s->Add("peak_rss_mb", PeakRssMb());
  }
  s->gauge->Sample();
  if (opt.trace) AddTraceOverhead(s);
  AddTestMrr(*last->model, *last->stream, s);
  // The trained model then takes serve_read's load for a short window, so
  // that stream_train also reports serving with nothing beside it.
  Options probe_opt = opt;
  probe_opt.trace = false;
  Samples probe(s->gauge);
  ServeFrozen(probe_opt, *last->model, last->stream->data,
              kProbeShare * opt.seconds, 1, &probe);
  s->requests = std::move(probe.requests);
  s->serve_cpu_s = probe.serve_cpu_s;
  s->attempted += probe.attempted;
  s->failed += probe.failed;
  for (auto& f : probe.check_failures) s->check_failures.push_back(f);
  for (const char* name :
       {"store.publishes_per_s", "store.publish_mb_per_s",
        "serve.batch_size_mean", "serve.candidates_per_req",
        "serve.rejected_ratio"}) {
    for (double v : probe.values[name]) s->Add(name, v);
  }
}

/// serve_read's timed set-ups: the stream, the model build with the
/// training stream observed, and LoadCheckpoint of the trained model. The
/// last one built is left in `live`.
void LoadedSetUps(const Options& opt, const std::string& ckpt,
                  std::unique_ptr<SetUp>* live, Samples* s) {
  for (size_t i = 0; i < kSetupsPerRep; ++i) {
    live->reset();  // one set-up alive at a time, as in the other workloads
    const double t0 = NowS();
    auto su = std::make_unique<SetUp>(MakeSetUp(opt));
    const supa::EdgeRange seen = su->stream->split.train;
    for (size_t e = seen.begin; e < seen.end; ++e) {
      Ok("observe", su->model->ObserveEdge(su->stream->data.edges[e]));
    }
    const double t1 = NowS();
    Ok("load checkpoint", supa::LoadCheckpoint(ckpt, su->model.get()));
    const double t2 = NowS();
    s->AddTimed("setup_s", t0, t2, t2 - t0);
    s->Add("data.generate_s", su->generate_s);
    s->Add("dur.load_checkpoint_s", t2 - t1);
    *live = std::move(su);
  }
}

void ServeRead(const Options& opt, Samples* s) {
  // The frozen model: trained on the stream (repeatedly, for a median
  // ingest rate over the first part of the run), saved, then reloaded
  // through dur::LoadCheckpoint by every timed set-up.
  const std::string ckpt = opt.workdir + "/serve_read_model.bin";
  std::vector<float> trained;
  std::unique_ptr<SetUp> live;
  const double train_s = kServeReadTrainShare * opt.seconds;
  const double start = NowS();
  for (size_t rep = 0; rep < 3 || NowS() - start < train_s; ++rep) {
    live.reset();  // so that peak RSS does not depend on what is left over
    ResetPeakRss();
    s->gauge->Sample();
    SetUp su = MakeSetUp(opt);
    TimedTrain(su, kStreamValidThreads, nullptr, false, s);
    Ok("save checkpoint", supa::SaveCheckpoint(*su.model, ckpt));
    std::vector<float> params = Params(*su.model);
    s->Check(trained.empty() || params == trained,
             "repeated training of one stream gave different parameters");
    trained = std::move(params);
    LoadedSetUps(opt, ckpt, &live, s);
    s->Add("peak_rss_mb", PeakRssMb());
  }
  s->gauge->Sample();
  s->Check(Params(*live->model) == trained,
           "LoadCheckpoint did not restore the trained parameters");
  AddTestMrr(*live->model, *live->stream, s);
  ResetPeakRss();
  ServeFrozen(opt, *live->model, live->stream->data, opt.seconds - train_s, 0,
              s);
  s->Add("peak_rss_mb", PeakRssMb());
}

void LiveDurable(const Options& opt, Samples* s) {
  supa::dur::DurabilityOptions dopt;
  dopt.wal_sync = supa::dur::WalSync::kBatch;
  dopt.wal_segment_bytes = 64u << 20;
  dopt.compact_threshold = 8;
  size_t dir_index = 0;
  // One set-up: stream, model, and a durability engine on a fresh
  // directory.
  auto set_up = [&](SetUp* su,
                    std::unique_ptr<supa::dur::DurabilityEngine>* engine) {
    const double t0 = NowS();
    *su = MakeSetUp(opt);
    dopt.dir = opt.workdir + "/live_durable_" + std::to_string(dir_index++);
    fs::remove_all(dopt.dir);
    *engine = Take("attach",
                   supa::dur::DurabilityEngine::Attach(*su->model, dopt));
    const double t1 = NowS();
    s->AddTimed("setup_s", t0, t1, t1 - t0);
    s->Add("data.generate_s", su->generate_s);
  };
  const double start = NowS();
  for (size_t rep = 0; MoreReps(rep, start, opt); ++rep) {
    const bool traced = opt.trace && rep % 2 == 1;
    ResetPeakRss();
    s->gauge->Sample();
    for (size_t i = 0; i < kSetupsPerRep; ++i) {
      SetUp su;
      std::unique_ptr<supa::dur::DurabilityEngine> engine;
      set_up(&su, &engine);
      engine.reset();
      fs::remove_all(dopt.dir);
    }
    SetUp su;
    std::unique_ptr<supa::dur::DurabilityEngine> engine;
    set_up(&su, &engine);
    const std::string dir = dopt.dir;
    EdgeLogTap log_tap(engine.get(), su.stream->split.train.size(), traced);
    su.model->set_edge_log(&log_tap);
    CheckpointTap ckpt_tap(engine.get());

    supa::serve::ServeEngine serving(su.model.get(), &su.stream->data,
                                     ServeConfig(1));
    serving.Start();
    LoadDriver driver(&serving, su.stream->data, opt.seed, &log_tap);
    const uint64_t epoch0 = su.model->graph_store().epoch();
    const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    const double t0 = NowS();
    driver.Start(kLiveRate, 1, 2 + rep);
    TimedTrain(su, kLiveValidThreads, &ckpt_tap, traced, s);
    std::vector<RequestRecord> recs = driver.Stop();
    const double t1 = NowS();
    s->serve_cpu_s += ServeWorkersCpuS();
    serving.Stop();
    const MetricsSnapshot after_serve = MetricsRegistry::Global().Snapshot();
    const double f0 = NowS();
    Ok("flush", engine->Flush());
    const double flush_s = NowS() - f0;
    const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
    su.model->set_edge_log(engine.get());

    CountRequests(recs, s);
    if (traced) {
      RecordServeCounters(*su.model, epoch0, t1 - t0, recs.size(), before,
                          after_serve, s);
      AddLogAddTimes(log_tap, s);
      s->Add("dur.on_checkpoint_ms_p50", Quantile(ckpt_tap.ms(), 0.50));
      s->Add("dur.flush_s", flush_s);
      AddDurCounters(before, after, s);
    }
    for (double lag : FreshnessLags(log_tap.commit_s(), recs)) {
      s->freshness_ms.push_back(lag * 1e3);
    }
    s->requests.insert(s->requests.end(), recs.begin(), recs.end());
    s->Add("durable_bytes_per_edge",
           static_cast<double>(DirBytes(dir)) /
               static_cast<double>(log_tap.committed()));

    // Recovery into freshly built models must land on the live model's
    // final cut bit for bit.
    engine.reset();
    for (int r = 0; r < 2; ++r) {
      SupaModel recovered(su.stream->data, ModelConfig());
      ++s->attempted;
      const double r0 = NowS();
      auto rr = supa::dur::Recover(dir, &recovered);
      const double recover_s = NowS() - r0;
      if (!rr.ok()) {
        ++s->failed;
        Fail("recover", rr.status());
      }
      s->Add("recover_s", recover_s);
      s->Add("dur.recover_links_applied",
             static_cast<double>(rr.value().links_applied));
      s->Add("dur.recover_wal_records",
             static_cast<double>(rr.value().wal_records_replayed));
      s->Check(SameState(recovered, *su.model),
               "recovered state differs from the live model's final cut");
    }
    if (rep == 0) {
      AddTestMrr(*su.model, *su.stream, s);
      s->final_params = Params(*su.model);
    } else {
      s->Check(Params(*su.model) == s->final_params,
               "repeated training of one stream gave different parameters");
    }
    fs::remove_all(dir);
    s->Add("peak_rss_mb", PeakRssMb());
  }
  s->gauge->Sample();
  if (opt.trace) AddTraceOverhead(s);
}

// ---- Reduction to metrics ---------------------------------------------------

Outcome Reduce(const Options& opt, Samples* s) {
  Outcome out;
  out.attempted = s->attempted;
  out.failed = s->failed;
  out.check_failures = s->check_failures;
  out.final_params = std::move(s->final_params);

  std::map<std::string, std::pair<double, std::string>> v;
  std::map<std::string, double> raw;  // the same figures, not host-scaled
  for (auto& [name, values] : s->values) {
    v[name] = {Median(values),
               "median of " + std::to_string(values.size())};
  }
  v["peak_rss_mb"].second = "median over " +
                            std::to_string(s->values["peak_rss_mb"].size()) +
                            " repetitions of each one's peak RSS (VmHWM)";

  // The timed figures, each divided by the host's slowness around the
  // interval it was measured over (see HostGauge); the raw medians are
  // printed beside them.
  const auto scaled = [&](const std::string& name, bool by_host) {
    std::vector<double> seconds;
    for (const Timed& t : s->timed[name]) {
      seconds.push_back(t.seconds /
                        (by_host ? s->gauge->Slowness(t.t0, t.t1) : 1.0));
    }
    return seconds;
  };
  const std::string host_note =
      " / host slowness (median " +
      std::to_string(s->gauge->MedianSlowness()).substr(0, 5) + ")";
  const auto setups = scaled("setup_s", true);
  v["setup_s"] = {Median(setups),
                  "median of " + std::to_string(setups.size()) +
                      " set-ups, each" + host_note};
  raw["setup_s"] = Median(scaled("setup_s", false));
  const auto trains = scaled("train_wall_s", true);
  if (!trains.empty()) {
    const double edges = static_cast<double>(s->stream_edges);
    v["ingest_edges_per_s"] = {
        edges / Median(trains), "edges / median of " +
                                    std::to_string(trains.size()) +
                                    " Train walls, each" + host_note};
    raw["ingest_edges_per_s"] = edges / Median(scaled("train_wall_s", false));
  }
  if (!s->requests.empty()) {
    std::vector<double> client_us;
    std::vector<double> engine_us;
    std::vector<double> handoff_us;
    std::vector<double> late_us;
    std::vector<double> stale;
    size_t within = 0;
    for (const RequestRecord& r : s->requests) {
      const double us = (r.done_s - r.due_s) * 1e6;
      if (r.ok && us <= kSloUs) ++within;
      if (!r.ok) continue;
      client_us.push_back(us);
      engine_us.push_back(r.engine_us);
      handoff_us.push_back(us - r.engine_us);
      late_us.push_back((r.sent_s - r.due_s) * 1e6);
      stale.push_back(static_cast<double>(r.staleness_edges));
    }
    v["serve_cpu_us_per_req"] = {
        s->serve_cpu_s * 1e6 / static_cast<double>(client_us.size()),
        std::to_string(s->serve_cpu_s).substr(0, 6) +
            " worker CPU s / " + std::to_string(client_us.size()) +
            " served"};
    const ChunkedTiming c = SummarizeChunked(client_us);
    const std::string how =
        "n=" + std::to_string(c.samples) + ", median over " +
        std::to_string(c.chunks) + " chunks of " + std::to_string(kChunk) +
        "; p" + std::to_string(c.top_pct).substr(0, 5) + " over all = " +
        std::to_string(c.top);
    if (c.chunks == 0) {
      s->check_failures.push_back("fewer than " + std::to_string(kChunk) +
                                  " served requests: p99 unsupported");
      out.check_failures = s->check_failures;
    }
    v["serve_p50_us"] = {c.p50, how};
    v["serve_p99_us"] = {c.p99, how};
    v["serve_slo_ratio"] = {
        static_cast<double>(within) / static_cast<double>(s->requests.size()),
        std::to_string(within) + " of " + std::to_string(s->requests.size()) +
            " within " + std::to_string(static_cast<int>(kSloUs)) + " us"};
    const ChunkedTiming e = SummarizeChunked(engine_us);
    v["serve.engine_us_p50"] = {e.p50, how};
    v["serve.engine_us_p99"] = {e.p99, how};
    const ChunkedTiming h = SummarizeChunked(handoff_us);
    v["serve.handoff_us_p50"] = {h.p50, how};
    v["residual.serve_handoff_share"] = {c.p50 > 0 ? h.p50 / c.p50 : 0.0, how};
    v["serve.gen_late_us_p99"] = {SummarizeChunked(late_us).p99, how};
    v["serve.staleness_edges_p99"] = {SummarizeChunked(stale).p99, how};
  }
  if (!s->freshness_ms.empty()) {
    const ChunkedTiming f = SummarizeChunked(s->freshness_ms);
    const std::string how = "n=" + std::to_string(f.samples) +
                            " edges, median over " + std::to_string(f.chunks) +
                            " chunks";
    v["freshness_lag_ms_p50"] = {f.p50, how};
    v["freshness_lag_ms_p99"] = {f.p99, how};
  }
  v["host.slowness"] = {s->gauge->MedianSlowness(),
                        "median reference-kernel time / " +
                            std::to_string(HostGauge::kNominalS) + " s"};

  const auto emit = [&](const std::vector<MetricSpec>& specs,
                        std::vector<Metric>* dst) {
    for (const MetricSpec& spec : specs) {
      auto it = v.find(spec.name);
      if (it == v.end()) {
        // Only figures this workload cannot form (no such call runs)
        // are left out; a measured zero is reported as measured.
        dst->push_back({spec.name, spec.unit, 0.0,
                        "not measured: no such call on this workload"});
      } else {
        dst->push_back(
            {spec.name, spec.unit, it->second.first, it->second.second});
      }
    }
  };
  emit(EndToEndSpecs(), &out.end_to_end);
  if (opt.trace) {
    emit(PerLayerSpecs(), &out.per_layer);
  } else {
    emit(UngatedEndToEndSpecs(), &out.ungated);
    for (const MetricSpec& spec : EndToEndSpecs()) {
      auto it = raw.find(spec.name);
      if (it != raw.end()) {
        out.ungated.push_back({std::string(spec.name) + ".raw", spec.unit,
                               it->second, "as measured, not host-scaled"});
      }
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"stream_train", "serve_read",
                                                 "live_durable"};
  return names;
}

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"ingest_edges_per_s", "edges/s"},
      {"test_mrr", "ratio"},
      {"serve_slo_ratio", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"serve_p50_us", "us"},
      {"serve_p99_us", "us"},
      {"freshness_lag_ms_p50", "ms"},
      {"freshness_lag_ms_p99", "ms"},
      {"recover_s", "s"},
      {"durable_bytes_per_edge", "B/edge"},
      {"serve_cpu_us_per_req", "us"},
      {"data.generate_s", "s"},
      {"dur.load_checkpoint_s", "s"},
      {"inslearn.train_us_per_edge", "us/edge"},
      {"inslearn.valid_us_per_edge", "us/edge"},
      {"inslearn.snapshot_us_per_edge", "us/edge"},
      {"inslearn.observe_us_per_edge", "us/edge"},
      {"inslearn.checkpoint_us_per_edge", "us/edge"},
      {"inslearn.unattributed_us_per_edge", "us/edge"},
      {"inslearn.steps_per_edge", "steps/edge"},
      {"inslearn.valid_rounds", "count"},
      {"model.sample_ns_per_step", "ns/step"},
      {"model.update_ns_per_step", "ns/step"},
      {"model.propagate_ns_per_step", "ns/step"},
      {"model.negative_ns_per_step", "ns/step"},
      {"model.optimize_ns_per_step", "ns/step"},
      {"snapshot.dirty_rows_per_take", "rows"},
      {"snapshot.rebases_per_take", "ratio"},
      {"store.publishes_per_s", "1/s"},
      {"store.publish_mb_per_s", "MB/s"},
      {"store.lease_contention", "count"},
      {"serve.staleness_edges_p99", "edges"},
      {"serve.engine_us_p50", "us"},
      {"serve.engine_us_p99", "us"},
      {"serve.handoff_us_p50", "us"},
      {"serve.batch_size_mean", "requests"},
      {"serve.candidates_per_req", "count"},
      {"serve.rejected_ratio", "ratio"},
      {"serve.gen_late_us_p99", "us"},
      {"dur.log_add_ns_p50", "ns"},
      {"dur.log_add_ns_p99", "ns"},
      {"dur.on_checkpoint_ms_p50", "ms"},
      {"dur.flush_s", "s"},
      {"dur.wal_syncs", "count"},
      {"dur.ckpt_delta_links", "count"},
      {"dur.compactions", "count"},
      {"dur.dirty_rows_per_link", "rows"},
      {"dur.recover_links_applied", "count"},
      {"dur.recover_wal_records", "count"},
      {"trace.overhead_share", "ratio"},
      {"residual.inslearn_unattributed_share", "ratio"},
      {"residual.serve_handoff_share", "ratio"},
      {"host.slowness", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& UngatedEndToEndSpecs() {
  static const std::vector<MetricSpec> specs(PerLayerSpecs().begin(),
                                             PerLayerSpecs().begin() + 7);
  return specs;
}

Outcome RunWorkload(const Options& opt) {
  HostGauge gauge;
  Samples s(&gauge);
  if (opt.workload == "stream_train") {
    StreamTrain(opt, &s);
  } else if (opt.workload == "serve_read") {
    ServeRead(opt, &s);
  } else if (opt.workload == "live_durable") {
    LiveDurable(opt, &s);
  } else {
    throw std::runtime_error("unknown workload '" + opt.workload + "'");
  }
  return Reduce(opt, &s);
}

}  // namespace perfbench
