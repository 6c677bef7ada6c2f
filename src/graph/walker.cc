#include "graph/walker.h"

#include <algorithm>
#include <span>

namespace supa {

bool Walker::SampleAdmissible(NodeId v, EdgeTypeMask mask,
                              NodeTypeId dst_type, Rng& rng,
                              Neighbor* out) const {
  // Reservoir sampling over the capped window keeps this one pass and
  // allocation-free. The generator runs on a local copy, so its state stays
  // in registers for the whole scan and is written back once; the node-type
  // table is read through a pointer taken once. The draws, the pick and the
  // final generator state equal those of drawing on `rng` per neighbor.
  const std::span<const Neighbor> window = store_->Neighbors(v);
  const NodeTypeId* node_types = store_->shared_node_types()->data();
  Rng local = rng;
  const Neighbor* pick = nullptr;
  size_t seen = 0;
  for (const Neighbor& nb : window) {
    if (!MaskContains(mask, nb.edge_type)) continue;
    if (node_types[nb.node] != dst_type) continue;
    ++seen;
    if (local.Index(seen) == 0) pick = &nb;
  }
  rng = local;
  if (pick == nullptr) return false;
  *out = *pick;
  return true;
}

Walk Walker::SampleMetapathWalk(NodeId start, const MetapathSchema& schema,
                                size_t walk_len, Rng& rng) const {
  Walk walk;
  walk.start = start;
  if (walk_len > 1) walk.steps.reserve(walk_len - 1);
  WalkMetapath(start, schema, walk_len, rng,
               [&](const WalkStep& step) { walk.steps.push_back(step); });
  return walk;
}

size_t Walker::SampleMetapathWalkInto(NodeId start,
                                      const MetapathSchema& schema,
                                      size_t walk_len, Rng& rng,
                                      WalkBuffer* out) const {
  out->BeginWalk(start);
  const size_t hops =
      WalkMetapath(start, schema, walk_len, rng,
                   [out](const WalkStep& step) { out->PushStep(step); });
  if (hops == 0) {
    out->AbortWalk();
  } else {
    out->CommitWalk();
  }
  return hops;
}

Walk Walker::SampleUniformWalk(NodeId start, size_t walk_len,
                               Rng& rng) const {
  Walk walk;
  walk.start = start;
  walk.steps.reserve(walk_len > 0 ? walk_len - 1 : 0);
  NodeId cur = start;
  for (size_t hop = 0; hop + 1 < walk_len; ++hop) {
    auto window = store_->Neighbors(cur);
    if (window.empty()) break;
    const Neighbor& nb = window[rng.Index(window.size())];
    walk.steps.push_back(WalkStep{nb.node, nb.edge_type, nb.time});
    cur = nb.node;
  }
  return walk;
}

Walk Walker::SampleNode2vecWalk(NodeId start, size_t walk_len, double p,
                                double q, Rng& rng) const {
  Walk walk;
  walk.start = start;
  if (walk_len <= 1) return walk;
  walk.steps.reserve(walk_len - 1);

  NodeId prev = kInvalidNode;
  NodeId cur = start;
  std::vector<double> weights;
  for (size_t hop = 0; hop + 1 < walk_len; ++hop) {
    auto window = store_->Neighbors(cur);
    if (window.empty()) break;
    Neighbor chosen;
    if (prev == kInvalidNode) {
      chosen = window[rng.Index(window.size())];
    } else {
      // Second-order bias: 1/p to return, 1 for common neighbors of prev,
      // 1/q otherwise. Membership test is a linear scan of prev's window,
      // which is bounded by the neighbor cap in capped settings.
      auto prev_window = store_->Neighbors(prev);
      weights.clear();
      weights.reserve(window.size());
      for (const Neighbor& nb : window) {
        double w;
        if (nb.node == prev) {
          w = 1.0 / p;
        } else {
          bool shared = std::any_of(
              prev_window.begin(), prev_window.end(),
              [&](const Neighbor& pn) { return pn.node == nb.node; });
          w = shared ? 1.0 : 1.0 / q;
        }
        weights.push_back(w);
      }
      chosen = window[rng.Weighted(weights)];
    }
    walk.steps.push_back(WalkStep{chosen.node, chosen.edge_type, chosen.time});
    prev = cur;
    cur = chosen.node;
  }
  return walk;
}

}  // namespace supa
