#include "core/adam.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

namespace supa {
namespace {

TEST(GradBufferTest, RowIsZeroInitialized) {
  GradBuffer g;
  float* row = g.Row(0, 4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(row[i], 0.0f);
}

TEST(GradBufferTest, AccumulateSums) {
  GradBuffer g;
  const float v1[2] = {1.0f, 2.0f};
  const float v2[2] = {10.0f, 20.0f};
  g.Accumulate(8, 2, 1.0, v1);
  g.Accumulate(8, 2, 0.5, v2);
  float* row = g.Row(8, 2);
  EXPECT_FLOAT_EQ(row[0], 6.0f);
  EXPECT_FLOAT_EQ(row[1], 12.0f);
  EXPECT_EQ(g.num_rows(), 1u);
}

TEST(GradBufferTest, DistinctOffsetsAreDistinctRows) {
  GradBuffer g;
  const float v[1] = {1.0f};
  g.Accumulate(0, 1, 1.0, v);
  g.Accumulate(1, 1, 2.0, v);
  EXPECT_EQ(g.num_rows(), 2u);
  EXPECT_FLOAT_EQ(g.Row(0, 1)[0], 1.0f);
  EXPECT_FLOAT_EQ(g.Row(1, 1)[0], 2.0f);
}

TEST(GradBufferTest, ScalarAccumulation) {
  GradBuffer g;
  g.AccumulateScalar(5, 0.25);
  g.AccumulateScalar(5, 0.25);
  EXPECT_FLOAT_EQ(g.Row(5, 1)[0], 0.5f);
}

TEST(GradBufferTest, ClearResetsWithoutInvalidating) {
  GradBuffer g;
  const float v[2] = {1.0f, 1.0f};
  g.Accumulate(0, 2, 1.0, v);
  g.Clear();
  EXPECT_EQ(g.num_rows(), 0u);
  g.Accumulate(0, 2, 3.0, v);
  EXPECT_FLOAT_EQ(g.Row(0, 2)[0], 3.0f);
}

TEST(GradBufferTest, ForEachVisitsAllRows) {
  GradBuffer g;
  const float v[2] = {1.0f, -1.0f};
  g.Accumulate(0, 2, 1.0, v);
  g.Accumulate(10, 2, 2.0, v);
  size_t visited = 0;
  g.ForEach([&](size_t offset, const float* row, size_t len) {
    EXPECT_TRUE(offset == 0 || offset == 10);
    EXPECT_EQ(len, 2u);
    EXPECT_NE(row, nullptr);
    ++visited;
  });
  EXPECT_EQ(visited, 2u);
}

// ---- flat-table internals (RowIndex / insertion order / dirty rows) ------

TEST(GradBufferTest, ForEachIteratesInInsertionOrder) {
  // The flat table must iterate rows in the order they were first touched —
  // never hash-bucket order. This is part of the determinism contract:
  // SparseAdam applies rows in this order, and checkpoint delta links record
  // them in this order.
  GradBuffer g;
  const std::vector<size_t> offsets = {96, 0, 1024, 8, 4096, 16, 72};
  const float v[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  for (const size_t off : offsets) g.Accumulate(off, 4, 1.0, v);
  std::vector<size_t> seen;
  g.ForEach([&](size_t offset, const float*, size_t) {
    seen.push_back(offset);
  });
  EXPECT_EQ(seen, offsets);
}

TEST(GradBufferTest, ManyRowsSurviveRehash) {
  // Enough distinct rows to force several table growths; values and order
  // must be preserved across rehashes.
  GradBuffer g;
  constexpr size_t kRows = 1000;
  for (size_t r = 0; r < kRows; ++r) {
    const float v[2] = {static_cast<float>(r), -static_cast<float>(r)};
    g.Accumulate(r * 2, 2, 1.0, v);
  }
  // Second pass accumulates into the same rows (duplicate-row semantics).
  for (size_t r = 0; r < kRows; ++r) {
    const float v[2] = {1.0f, 1.0f};
    g.Accumulate(r * 2, 2, 1.0, v);
  }
  EXPECT_EQ(g.num_rows(), kRows);
  size_t expect = 0;
  g.ForEach([&](size_t offset, const float* row, size_t len) {
    EXPECT_EQ(offset, expect * 2);
    EXPECT_EQ(len, 2u);
    EXPECT_FLOAT_EQ(row[0], static_cast<float>(expect) + 1.0f);
    EXPECT_FLOAT_EQ(row[1], -static_cast<float>(expect) + 1.0f);
    ++expect;
  });
  EXPECT_EQ(expect, kRows);
}

TEST(GradBufferTest, ClearedBufferReusesRowsInNewOrder) {
  GradBuffer g;
  const float v[1] = {1.0f};
  g.Accumulate(10, 1, 1.0, v);
  g.Accumulate(20, 1, 1.0, v);
  g.Clear();
  // New insertion order after Clear wins.
  g.Accumulate(20, 1, 5.0, v);
  g.Accumulate(10, 1, 7.0, v);
  std::vector<size_t> seen;
  g.ForEach([&](size_t offset, const float* row, size_t) {
    seen.push_back(offset);
    EXPECT_FLOAT_EQ(row[0], offset == 20 ? 5.0f : 7.0f);
  });
  EXPECT_EQ(seen, (std::vector<size_t>{20, 10}));
}

TEST(GradBufferTest, MixedScalarAndVectorRows) {
  // The α gradient is a scalar (len-1) row living alongside embedding rows;
  // both kinds must coexist and accumulate independently.
  GradBuffer g;
  const float v[3] = {1.0f, 2.0f, 3.0f};
  g.Accumulate(0, 3, 1.0, v);
  g.AccumulateScalar(100, 0.5);
  g.Accumulate(0, 3, 1.0, v);
  g.AccumulateScalar(100, 0.25);
  EXPECT_EQ(g.num_rows(), 2u);
  EXPECT_FLOAT_EQ(g.Row(0, 3)[2], 6.0f);
  EXPECT_FLOAT_EQ(g.Row(100, 1)[0], 0.75f);
}

TEST(RowIndexTest, FindOrInsertIsIdempotent) {
  RowIndex index;
  bool inserted = false;
  const uint32_t id0 = index.FindOrInsert(64, 16, &inserted);
  EXPECT_TRUE(inserted);
  const uint32_t id1 = index.FindOrInsert(64, 16, &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(id0, id1);
  EXPECT_EQ(index.size(), 1u);
  index.Clear();
  EXPECT_TRUE(index.empty());
  const uint32_t id2 = index.FindOrInsert(64, 16, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(id2, 0u);
}

TEST(DirtyRowSetTest, TracksRowsAndFloatCounts) {
  DirtyRowSet dirty;
  dirty.Mark(0, 16);
  dirty.Mark(32, 16);
  dirty.Mark(0, 16);  // idempotent
  dirty.Mark(1000, 1);
  EXPECT_EQ(dirty.num_rows(), 3u);
  EXPECT_EQ(dirty.num_floats(), 33u);
  std::vector<size_t> seen;
  dirty.ForEach([&](size_t offset, uint32_t) { seen.push_back(offset); });
  EXPECT_EQ(seen, (std::vector<size_t>{0, 32, 1000}));
  dirty.Clear();
  EXPECT_EQ(dirty.num_rows(), 0u);
  EXPECT_EQ(dirty.num_floats(), 0u);
}

TEST(SparseAdamTest, StepMarksTouchedRowsDirty) {
  std::vector<float> param(8, 1.0f);
  SparseAdam adam(8, 0.1, 0.0);
  GradBuffer g;
  g.AccumulateScalar(2, 1.0);
  g.AccumulateScalar(5, -1.0);
  // Tracking is off until durability turns it on: nothing is recorded.
  adam.Step(g, param.data());
  EXPECT_EQ(adam.checkpoint_dirty_rows().num_rows(), 0u);

  adam.set_checkpoint_tracking(true);
  adam.ClearCheckpointDirty();
  adam.Step(g, param.data());
  EXPECT_EQ(adam.checkpoint_dirty_rows().num_rows(), 2u);
  adam.MarkDirty(6, 2);
  EXPECT_EQ(adam.checkpoint_dirty_rows().num_rows(), 3u);
  EXPECT_EQ(adam.checkpoint_dirty_rows().num_floats(), 4u);
  adam.ClearCheckpointDirty();
  EXPECT_EQ(adam.checkpoint_dirty_rows().num_rows(), 0u);
}

// ---- Restore vs checkpoint tracking ---------------------------------------
//
// Restoring a State taken in the current checkpoint epoch keeps row
// tracking: every row changed since the snapshot is already dirty. Any
// other State forces the next checkpoint link to a full base.

constexpr size_t kRowLen = 4;
constexpr size_t kRows = 8;

/// One step on the given rows (each kRowLen floats).
void StepRows(SparseAdam& adam, std::vector<float>& params,
              std::initializer_list<size_t> rows) {
  GradBuffer g;
  const float grad[kRowLen] = {0.5f, -1.0f, 2.0f, -0.25f};
  for (const size_t r : rows) g.Accumulate(r * kRowLen, kRowLen, 1.0, grad);
  adam.Step(g, params.data());
}

SparseAdam TrackedAdam() {
  SparseAdam adam(kRows * kRowLen, 0.1, 0.01);
  adam.set_checkpoint_tracking(true);
  adam.ClearCheckpointDirty();
  return adam;
}

TEST(SparseAdamTest, RestoreWithinCheckpointEpochKeepsRowTracking) {
  std::vector<float> params(kRows * kRowLen, 1.0f);
  SparseAdam adam = TrackedAdam();
  const std::vector<float> params_at_cut = params;
  const SparseAdam::State at_cut = adam.Snapshot();

  StepRows(adam, params, {0, 3});
  const std::vector<float> params_snap = params;
  const SparseAdam::State snap = adam.Snapshot();
  StepRows(adam, params, {3, 5, 6});
  adam.Restore(snap);
  params = params_snap;

  EXPECT_FALSE(adam.checkpoint_dirty_overflow());
  std::vector<bool> tracked(kRows * kRowLen, false);
  adam.checkpoint_dirty_rows().ForEach([&](size_t offset, uint32_t len) {
    for (size_t i = offset; i < offset + len; ++i) tracked[i] = true;
  });
  // The reverted rows stay tracked...
  for (const size_t r : {0, 3, 5, 6}) EXPECT_TRUE(tracked[r * kRowLen]) << r;
  // ...and every float that differs from the last cut is covered.
  const SparseAdam::State now = adam.Snapshot();
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i] != params_at_cut[i] || now.m[i] != at_cut.m[i] ||
        now.v[i] != at_cut.v[i]) {
      EXPECT_TRUE(tracked[i]) << "untracked change at float " << i;
    }
  }
}

TEST(SparseAdamTest, RestoreAcrossCheckpointCutOverflows) {
  std::vector<float> params(kRows * kRowLen, 1.0f);
  SparseAdam adam = TrackedAdam();
  StepRows(adam, params, {1});
  const SparseAdam::State snap = adam.Snapshot();
  adam.ClearCheckpointDirty();
  StepRows(adam, params, {2});
  adam.Restore(snap);
  EXPECT_TRUE(adam.checkpoint_dirty_overflow());
}

TEST(SparseAdamTest, RestoreOfForeignStateOverflows) {
  std::vector<float> params(kRows * kRowLen, 1.0f);
  SparseAdam adam = TrackedAdam();
  SparseAdam other(kRows * kRowLen, 0.1, 0.01);
  adam.Restore(other.Snapshot());
  EXPECT_TRUE(adam.checkpoint_dirty_overflow());

  // A State built field by field (as a checkpoint loader does) carries
  // epoch 0, which no optimizer ever holds.
  adam.ClearCheckpointDirty();
  SparseAdam::State loaded;
  loaded.m.assign(kRows * kRowLen, 0.0f);
  loaded.v.assign(kRows * kRowLen, 0.0f);
  adam.Restore(loaded);
  EXPECT_TRUE(adam.checkpoint_dirty_overflow());
}

TEST(SparseAdamTest, DescendsOnQuadratic) {
  // Minimize f(x) = (x - 3)^2 starting at 0.
  std::vector<float> param = {0.0f};
  SparseAdam adam(1, /*lr=*/0.1, /*weight_decay=*/0.0);
  GradBuffer g;
  for (int step = 0; step < 500; ++step) {
    g.Clear();
    const double grad = 2.0 * (param[0] - 3.0);
    g.AccumulateScalar(0, grad);
    adam.Step(g, param.data());
  }
  EXPECT_NEAR(param[0], 3.0, 0.05);
  EXPECT_EQ(adam.step_count(), 500u);
}

TEST(SparseAdamTest, OnlyTouchedRowsChange) {
  std::vector<float> param = {1.0f, 1.0f, 1.0f, 1.0f};
  SparseAdam adam(4, 0.1, 0.0);
  GradBuffer g;
  g.AccumulateScalar(1, 1.0);
  adam.Step(g, param.data());
  EXPECT_EQ(param[0], 1.0f);
  EXPECT_LT(param[1], 1.0f);  // positive gradient => descend
  EXPECT_EQ(param[2], 1.0f);
  EXPECT_EQ(param[3], 1.0f);
}

TEST(SparseAdamTest, WeightDecayShrinksUntouchedDirection) {
  // With pure decay (zero gradient on a touched row), the parameter decays
  // towards zero.
  std::vector<float> param = {10.0f};
  SparseAdam adam(1, 0.1, /*weight_decay=*/0.5);
  GradBuffer g;
  for (int i = 0; i < 20; ++i) {
    g.Clear();
    g.AccumulateScalar(0, 0.0);
    adam.Step(g, param.data());
  }
  EXPECT_LT(param[0], 10.0f);
  EXPECT_GT(param[0], 0.0f);
}

TEST(SparseAdamTest, FirstStepMagnitudeIsLr) {
  // Adam's bias-corrected first step is ≈ lr * sign(grad).
  std::vector<float> param = {0.0f};
  SparseAdam adam(1, 0.01, 0.0);
  GradBuffer g;
  g.AccumulateScalar(0, 123.0);
  adam.Step(g, param.data());
  EXPECT_NEAR(param[0], -0.01, 1e-5);
}

TEST(SparseAdamTest, SnapshotRestoreRoundTrip) {
  std::vector<float> param = {0.0f};
  SparseAdam adam(1, 0.1, 0.0);
  GradBuffer g;
  g.AccumulateScalar(0, 1.0);
  adam.Step(g, param.data());
  const SparseAdam::State snap = adam.Snapshot();
  const float param_snap = param[0];
  // Diverge...
  for (int i = 0; i < 5; ++i) adam.Step(g, param.data());
  EXPECT_NE(adam.step_count(), 1u);
  // ...and roll back.
  adam.Restore(snap);
  param[0] = param_snap;
  EXPECT_EQ(adam.step_count(), 1u);
  // Deterministic continuation: two restored copies evolve identically.
  std::vector<float> p2 = {param_snap};
  SparseAdam adam2(1, 0.1, 0.0);
  adam2.Restore(snap);
  adam.Step(g, param.data());
  adam2.Step(g, p2.data());
  EXPECT_EQ(param[0], p2[0]);
}

std::vector<uint32_t> Bits(const std::vector<float>& v) {
  std::vector<uint32_t> out(v.size());
  if (!v.empty()) std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

// Monitoring must not fork the update: a step with StepStats leaves the
// parameters and both moments bit-identical to one without, and its three
// sums equal an element-order recomputation from the rows before/after.
TEST(SparseAdamTest, StepStatsLeaveUpdateBitIdentical) {
  constexpr size_t kParams = 200;
  std::vector<float> plain(kParams), monitored(kParams);
  for (size_t i = 0; i < kParams; ++i) {
    plain[i] = static_cast<float>(std::sin(0.37 * i) * 2.0);
  }
  monitored = plain;
  SparseAdam adam_plain(kParams, 0.05, 0.01);
  SparseAdam adam_monitored(kParams, 0.05, 0.01);
  GradBuffer g;
  for (int step = 0; step < 12; ++step) {
    g.Clear();
    // Rows of several widths (1 = an α scalar, 64 = a typical dim) at
    // step-dependent offsets, with one row accumulated twice.
    std::vector<float> vec(64);
    for (size_t i = 0; i < vec.size(); ++i) {
      vec[i] = static_cast<float>(std::cos(0.11 * i + step));
    }
    g.Accumulate(3 + step, 64, 0.5, vec.data());
    g.Accumulate(100, 17, -1.25, vec.data());
    g.AccumulateScalar(199, 0.3 * (step - 5));
    g.Accumulate(3 + step, 64, 0.25, vec.data());
    g.Accumulate(130 + step % 3, 5, 2.0, vec.data() + 7);

    const std::vector<float> before = monitored;
    SparseAdam::StepStats stats;
    adam_plain.Step(g, plain.data());
    adam_monitored.Step(g, monitored.data(), &stats);
    ASSERT_EQ(Bits(plain), Bits(monitored)) << "step " << step;

    SparseAdam::StepStats want;
    g.ForEach([&](size_t offset, const float*, size_t len) {
      for (size_t i = offset; i < offset + len; ++i) {
        const double b = before[i];
        const double a = monitored[i];
        want.sum_update_sq += (a - b) * (a - b);
        want.sum_param_sq_before += b * b;
        want.sum_param_sq_after += a * a;
      }
    });
    EXPECT_EQ(stats.sum_update_sq, want.sum_update_sq);
    EXPECT_EQ(stats.sum_param_sq_before, want.sum_param_sq_before);
    EXPECT_EQ(stats.sum_param_sq_after, want.sum_param_sq_after);
    EXPECT_GT(stats.sum_update_sq, 0.0);
  }
  const SparseAdam::State state_plain = adam_plain.Snapshot();
  const SparseAdam::State state_monitored = adam_monitored.Snapshot();
  EXPECT_EQ(Bits(state_plain.m), Bits(state_monitored.m));
  EXPECT_EQ(Bits(state_plain.v), Bits(state_monitored.v));
}

}  // namespace
}  // namespace supa
