// Exact crash recovery (DESIGN.md §16): a trainer killed at an arbitrary
// WAL offset — including mid-record, the torn tail a real kill -9 leaves —
// must recover and resume to the *bit-identical* final state an
// uninterrupted run produces: same checkpoint bytes, same per-batch
// validation scores, and a graph rebuilt from the WAL that matches the
// edge stream exactly (node/edge sets and degrees). Crashes are simulated
// by truncating a copy of the durability directory at byte granularity.

#include "dur/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/inslearn.h"
#include "core/model.h"
#include "data/synthetic.h"
#include "dur/checkpoint.h"
#include "dur/engine.h"
#include "dur/manifest.h"
#include "dur/wal.h"
#include "obs/metrics.h"

namespace supa::dur {
namespace {

namespace fs = std::filesystem;

constexpr size_t kSegmentHeaderBytes = 24;
constexpr size_t kRecordBytes = 28;  // 8-byte frame + 20-byte edge payload

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class DurRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = ::testing::TempDir() + "/supa_dur_rec_" + info->name();
    fs::remove_all(root_);
    fs::create_directories(root_);
    data_ = MakeTaobao(0.15, 81).value();
    n_ = std::min<size_t>(1536, data_.edges.size());
  }
  void TearDown() override { fs::remove_all(root_); }

  SupaConfig ModelConfig() {
    SupaConfig c;
    c.dim = 16;
    c.num_walks = 2;
    c.walk_len = 3;
    c.num_neg = 3;
    c.seed = 5;
    return c;
  }

  InsLearnConfig TrainConfig() {
    InsLearnConfig c;
    c.batch_size = 256;
    c.max_iters = 4;
    c.valid_interval = 2;
    c.valid_size = 50;
    c.patience = 1;
    c.valid_negatives = 30;
    c.threads = 1;
    c.ckpt_interval = 1;
    return c;
  }

  std::string Dir(const std::string& name) const { return root_ + "/" + name; }

  /// The uninterrupted no-durability run every crash variant must match.
  void RunReference() {
    SupaModel model(data_, ModelConfig());
    InsLearnTrainer trainer(TrainConfig());
    auto report = trainer.Train(model, data_, EdgeRange{0, n_});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ref_scores_ = report.value().batch_scores;
    ASSERT_TRUE(SaveCheckpoint(model, Dir("ref.bin")).ok());
    ref_bytes_ = ReadBytes(Dir("ref.bin"));
    ASSERT_FALSE(ref_bytes_.empty());
  }

  /// A complete run with the durability engine attached; the crash
  /// variants are carved out of byte-level copies of its directory.
  void RunDurable(const std::string& dir, size_t compact_threshold) {
    SupaModel model(data_, ModelConfig());
    DurabilityOptions options;
    options.dir = dir;
    options.compact_threshold = compact_threshold;
    auto engine = DurabilityEngine::Attach(model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    InsLearnConfig tc = TrainConfig();
    tc.checkpoint_sink = engine.value().get();
    InsLearnTrainer trainer(tc);
    auto report = trainer.Train(model, data_, EdgeRange{0, n_});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(engine.value()->Flush().ok());
    ASSERT_TRUE(SaveCheckpoint(model, dir + "/final.bin").ok());
  }

  /// Copies `src` and truncates the copy's WAL as a crash at
  /// `keep_records` whole records (+ `torn_bytes` of a torn next record)
  /// would. `final.bin` does not survive the crash.
  void CrashCopy(const std::string& src, const std::string& dst,
                 uint64_t keep_records, size_t torn_bytes) {
    fs::copy(src, dst, fs::copy_options::recursive);
    fs::remove(dst + "/final.bin");
    const std::string seg = dst + "/wal-0000000000000000.seg";
    ASSERT_TRUE(fs::exists(seg)) << seg;
    const uintmax_t want =
        kSegmentHeaderBytes + keep_records * kRecordBytes + torn_bytes;
    ASSERT_LE(want, fs::file_size(seg));
    fs::resize_file(seg, want);
  }

  /// Recovers a fresh model from `dir`, checks the rebuilt graph against
  /// the edge-stream prefix, resumes training, and requires the final
  /// checkpoint bytes and remaining per-batch scores to equal the
  /// reference run's.
  void RecoverResumeAndCompare(const std::string& dir) {
    SupaModel model(data_, ModelConfig());
    auto recovered = Recover(dir, &model);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const RecoveryReport& report = recovered.value();
    ExpectGraphMatchesStreamPrefix(model, report.wal_records_replayed);

    DurabilityOptions options;
    options.dir = dir;
    auto engine = DurabilityEngine::Attach(model, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    InsLearnConfig tc = TrainConfig();
    tc.checkpoint_sink = engine.value().get();
    InsLearnTrainer trainer(tc);
    auto resumed =
        trainer.Train(model, data_, EdgeRange{0, n_}, &report.cursor);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

    // The resumed run recomputes the uninterrupted run's remaining batch
    // scores exactly (same validation RNG stream, same state).
    const std::vector<double>& scores = resumed.value().batch_scores;
    ASSERT_LE(scores.size(), ref_scores_.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(scores[i], ref_scores_[ref_scores_.size() - scores.size() + i])
          << "batch score " << i << " diverged after recovery";
    }

    ASSERT_TRUE(engine.value()->Flush().ok());
    ASSERT_TRUE(SaveCheckpoint(model, dir + "/resumed.bin").ok());
    EXPECT_EQ(ReadBytes(dir + "/resumed.bin"), ref_bytes_)
        << "recovered run's final checkpoint is not bit-identical";
  }

  /// The recovered graph must equal one built by observing the first
  /// `count` stream edges: same edge count, same per-node degrees, same
  /// neighbor sets (order-insensitive — intra-batch commit order is an
  /// implementation detail; the sets and degrees are the contract).
  void ExpectGraphMatchesStreamPrefix(const SupaModel& model, uint64_t count) {
    SupaModel oracle(data_, ModelConfig());
    for (uint64_t i = 0; i < count; ++i) {
      ASSERT_TRUE(oracle.ObserveEdge(data_.edges[i]).ok());
    }
    ASSERT_EQ(model.graph().num_edges(), oracle.graph().num_edges());
    auto sorted_neighbors = [](const SupaModel& m, NodeId v) {
      const auto span = m.graph().AllNeighbors(v);
      std::vector<std::tuple<NodeId, EdgeTypeId, Timestamp>> out;
      out.reserve(span.size());
      for (const Neighbor& nb : span) {
        out.emplace_back(nb.node, nb.edge_type, nb.time);
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    for (NodeId v = 0; v < data_.num_nodes(); ++v) {
      ASSERT_EQ(model.graph().Degree(v), oracle.graph().Degree(v))
          << "degree mismatch at node " << v;
      ASSERT_EQ(sorted_neighbors(model, v), sorted_neighbors(oracle, v))
          << "neighbor set mismatch at node " << v;
    }
  }

  std::string root_;
  Dataset data_;
  size_t n_ = 0;
  std::vector<double> ref_scores_;
  std::string ref_bytes_;
};

TEST_F(DurRecoveryTest, EngineLeavesTrainingBitIdentical) {
  // Attaching the engine must not perturb training: same checkpoint bytes
  // with durability on and off.
  RunReference();
  RunDurable(Dir("full"), /*compact_threshold=*/3);
  EXPECT_EQ(ReadBytes(Dir("full") + "/final.bin"), ref_bytes_);

  // The run left a well-formed chain behind: a base first, several links,
  // and (threshold 3 over ~8 cuts) at least one compaction fold.
  auto manifest = LoadManifest(Dir("full"));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_GE(manifest.value().links.size(), 2u);
  EXPECT_EQ(manifest.value().links[0].kind, ManifestLink::Kind::kBase);
}

TEST_F(DurRecoveryTest, RollbacksKeepCheckpointLinksRowGranular) {
  // Every batch rolls back to Φ_best before its cut. The rollback happens
  // inside one checkpoint epoch, so it must not force a full base: after
  // the first base every cut is a delta link, and the chain recovers the
  // live model bit for bit.
  const uint64_t restores_before =
      obs::MetricsRegistry::Global().Snapshot().CounterValue(
          "snapshot.full_restores");
  RunDurable(Dir("chain"), /*compact_threshold=*/1000);
  EXPECT_GT(obs::MetricsRegistry::Global().Snapshot().CounterValue(
                "snapshot.full_restores"),
            restores_before);

  auto manifest = LoadManifest(Dir("chain"));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  const std::vector<ManifestLink>& links = manifest.value().links;
  ASSERT_GE(links.size(), 3u);
  EXPECT_EQ(links[0].kind, ManifestLink::Kind::kBase);
  for (size_t i = 1; i < links.size(); ++i) {
    EXPECT_EQ(links[i].kind, ManifestLink::Kind::kDelta) << "link " << i;
  }

  SupaModel model(data_, ModelConfig());
  auto recovered = Recover(Dir("chain"), &model);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().links_applied, links.size());
  ASSERT_TRUE(SaveCheckpoint(model, Dir("chain") + "/recovered.bin").ok());
  EXPECT_EQ(ReadBytes(Dir("chain") + "/recovered.bin"),
            ReadBytes(Dir("chain") + "/final.bin"));
}

TEST_F(DurRecoveryTest, RecoversBitIdenticallyAtSeveralWalOffsets) {
  RunReference();
  RunDurable(Dir("full"), /*compact_threshold=*/3);
  ASSERT_EQ(ReadBytes(Dir("full") + "/final.bin"), ref_bytes_);

  auto manifest = LoadManifest(Dir("full"));
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  const std::vector<ManifestLink>& links = manifest.value().links;
  ASSERT_GE(links.size(), 3u);

  // Crash exactly at an early link's cut, mid-chain with half a torn
  // record dangling, and mid-way between two cuts. Every variant must
  // recover and resume to the reference bytes.
  struct Variant {
    const char* name;
    uint64_t keep;
    size_t torn;
  };
  const std::vector<Variant> variants = {
      {"at_first_link", links.front().wal_seq, 0},
      {"mid_chain_torn", links[links.size() / 2].wal_seq, 13},
      {"between_cuts", (links.front().wal_seq + links.back().wal_seq) / 2, 0},
  };
  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    const std::string dir = Dir(variant.name);
    CrashCopy(Dir("full"), dir, variant.keep, variant.torn);
    RecoverResumeAndCompare(dir);
  }
}

TEST_F(DurRecoveryTest, RecoversFromTornFinalRecord) {
  // The canonical kill -9: the very last append torn mid-write. The final
  // manifest link is no longer covered, so recovery must fall back to the
  // previous one and regenerate the rest.
  RunReference();
  RunDurable(Dir("full"), /*compact_threshold=*/100);
  auto replay = ReadWal(Dir("full"));
  ASSERT_TRUE(replay.ok());
  const uint64_t total = replay.value().records.size();
  ASSERT_GT(total, 1u);

  CrashCopy(Dir("full"), Dir("torn"), total - 1, kRecordBytes / 2);
  auto check = ReadWal(Dir("torn"));
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check.value().torn_tail);
  EXPECT_EQ(check.value().records.size(), total - 1);
  RecoverResumeAndCompare(Dir("torn"));
}

TEST_F(DurRecoveryTest, RecoversFromCrashBeforeAnyBatch) {
  // Killed after the initial cut but before any edge hit the WAL: recovery
  // restarts from the initial base and regenerates the entire run.
  RunReference();
  RunDurable(Dir("full"), /*compact_threshold=*/100);
  CrashCopy(Dir("full"), Dir("early"), 0, 0);
  RecoverResumeAndCompare(Dir("early"));
}

TEST_F(DurRecoveryTest, RecoverRejectsBadPreconditions) {
  SupaModel model(data_, ModelConfig());
  // No manifest at all.
  EXPECT_EQ(Recover(Dir("nowhere"), &model).status().code(),
            StatusCode::kFailedPrecondition);

  // A model that has already observed edges.
  RunDurable(Dir("full"), /*compact_threshold=*/100);
  SupaModel used(data_, ModelConfig());
  ASSERT_TRUE(used.ObserveEdge(data_.edges[0]).ok());
  EXPECT_EQ(Recover(Dir("full"), &used).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace supa::dur
