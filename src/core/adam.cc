#include "core/adam.h"

#include <atomic>
#include <cassert>
#include <cmath>

#include "util/simd.h"

namespace supa {

namespace {
/// Initial slot-table size; must be a power of two.
constexpr size_t kInitialSlots = 64;
}  // namespace

uint32_t RowIndex::FindOrInsert(size_t offset, uint32_t len, bool* inserted) {
  if (table_.empty()) Rehash(kInitialSlots);
  // Grow at 50% load so probe chains stay short.
  if ((entries_.size() + 1) * 2 > table_.size()) Rehash(table_.size() * 2);

  size_t slot = Hash(offset) & mask_;
  while (true) {
    const uint32_t id_plus1 = table_[slot];
    if (id_plus1 == 0) {
      const uint32_t id = static_cast<uint32_t>(entries_.size());
      table_[slot] = id + 1;
      entries_.push_back(Entry{offset, len, static_cast<uint32_t>(slot)});
      *inserted = true;
      return id;
    }
    const Entry& e = entries_[id_plus1 - 1];
    if (e.offset == offset) {
      assert(e.len == len);
      *inserted = false;
      return id_plus1 - 1;
    }
    slot = (slot + 1) & mask_;
  }
}

void RowIndex::Rehash(size_t new_slots) {
  table_.assign(new_slots, 0);
  mask_ = new_slots - 1;
  for (uint32_t id = 0; id < entries_.size(); ++id) {
    size_t slot = Hash(entries_[id].offset) & mask_;
    while (table_[slot] != 0) slot = (slot + 1) & mask_;
    table_[slot] = id + 1;
    entries_[id].slot = static_cast<uint32_t>(slot);
  }
}

void RowIndex::Clear() {
  // Reset only the slots that are in use — O(entries), not O(table).
  for (const Entry& e : entries_) table_[e.slot] = 0;
  entries_.clear();
}

float* GradBuffer::Row(size_t offset, size_t len) {
  bool inserted = false;
  const uint32_t id =
      index_.FindOrInsert(offset, static_cast<uint32_t>(len), &inserted);
  if (inserted) {
    pos_.push_back(data_.size());
    data_.resize(data_.size() + len, 0.0f);
  }
  return data_.data() + pos_[id];
}

void GradBuffer::Accumulate(size_t offset, size_t len, double alpha,
                            const float* vec) {
  simd::Axpy(alpha, vec, Row(offset, len), len);
}

void GradBuffer::AccumulateScalar(size_t offset, double g) {
  float* row = Row(offset, 1);
  row[0] += static_cast<float>(g);
}

void GradBuffer::Clear() {
  index_.Clear();
  pos_.clear();
  data_.clear();
}

SparseAdam::SparseAdam(size_t num_params, double lr, double weight_decay,
                       double beta1, double beta2, double eps)
    : lr_(lr),
      weight_decay_(weight_decay),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      m_(num_params, 0.0f),
      v_(num_params, 0.0f) {}

void SparseAdam::Step(const GradBuffer& grads, float* params,
                      StepStats* stats) {
  ++step_;
  const double t = static_cast<double>(step_);
  const simd::AdamCoefficients c{beta1_, beta2_, 1.0 - std::pow(beta1_, t),
                                 1.0 - std::pow(beta2_, t), eps_,
                                 weight_decay_, lr_};
  grads.ForEach([&](size_t offset, const float* g, size_t len) {
    MarkDirty(offset, static_cast<uint32_t>(len));
    float* w = params + offset;
    // Monitored steps run the same kernel, bracketed by a copy of the row,
    // so the norms come from the values it read and wrote.
    if (stats != nullptr) row_before_.assign(w, w + len);
    simd::AdamRow(g, m_.data() + offset, v_.data() + offset, w, len, c);
    if (stats == nullptr) return;
    for (size_t i = 0; i < len; ++i) {
      const double before = row_before_[i];
      const double after = w[i];
      const double change = after - before;
      stats->sum_update_sq += change * change;
      stats->sum_param_sq_before += before * before;
      stats->sum_param_sq_after += after * after;
    }
  });
}

void SparseAdam::Restore(const State& state) {
  m_ = state.m;
  v_ = state.v;
  step_ = state.step;
  // A state from another epoch or optimizer (or a file) may differ from
  // the live one on rows the tracker never saw: force a full base.
  if (state.ckpt_epoch != ckpt_epoch_) MarkAllCheckpointDirty();
}

uint64_t SparseAdam::NextCheckpointEpoch() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace supa
