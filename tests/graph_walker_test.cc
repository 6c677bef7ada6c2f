#include "graph/walker.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace supa {
namespace {

// Bipartite User-Item graph with two relations.
struct Fixture {
  Schema schema;
  std::unique_ptr<DynamicGraph> graph;
  NodeTypeId user, item;
  EdgeTypeId click, buy;

  Fixture() {
    user = schema.AddNodeType("User");
    item = schema.AddNodeType("Item");
    click = schema.AddEdgeType("click");
    buy = schema.AddEdgeType("buy");
    // 3 users (0-2), 4 items (3-6).
    graph = std::make_unique<DynamicGraph>(
        schema, std::vector<NodeTypeId>{0, 0, 0, 1, 1, 1, 1});
    // clicks
    EXPECT_TRUE(graph->AddEdge(0, 3, click, 1.0).ok());
    EXPECT_TRUE(graph->AddEdge(1, 3, click, 2.0).ok());
    EXPECT_TRUE(graph->AddEdge(1, 4, click, 3.0).ok());
    EXPECT_TRUE(graph->AddEdge(2, 5, click, 4.0).ok());
    // buys
    EXPECT_TRUE(graph->AddEdge(0, 4, buy, 5.0).ok());
    EXPECT_TRUE(graph->AddEdge(2, 6, buy, 6.0).ok());
  }
};

TEST(WalkerMetapathTest, RespectsTypeConstraints) {
  Fixture f;
  auto mp = MetapathSchema::Parse("User -{click}-> Item -{click}-> User",
                                  f.schema);
  ASSERT_TRUE(mp.ok());
  Walker walker(*f.graph);
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    Walk w = walker.SampleMetapathWalk(0, mp.value(), 5, rng);
    EXPECT_EQ(w.start, 0u);
    for (size_t i = 0; i < w.steps.size(); ++i) {
      // Position alternates Item, User, Item, User.
      const NodeTypeId expected = (i % 2 == 0) ? f.item : f.user;
      EXPECT_EQ(f.graph->NodeType(w.steps[i].node), expected);
      EXPECT_EQ(w.steps[i].via_type, f.click);  // only clicks allowed
    }
  }
}

TEST(WalkerMetapathTest, WrongHeadTypeYieldsEmptyWalk) {
  Fixture f;
  auto mp = MetapathSchema::Parse("User -{click}-> Item -{click}-> User",
                                  f.schema);
  ASSERT_TRUE(mp.ok());
  Walker walker(*f.graph);
  Rng rng(2);
  Walk w = walker.SampleMetapathWalk(3 /*item*/, mp.value(), 5, rng);
  EXPECT_TRUE(w.steps.empty());
}

TEST(WalkerMetapathTest, StopsWhenNoAdmissibleNeighbor) {
  Fixture f;
  // Item 6 has only a buy edge; a click-only schema cannot leave it.
  auto mp = MetapathSchema::Parse("Item -{click}-> User -{click}-> Item",
                                  f.schema);
  ASSERT_TRUE(mp.ok());
  Walker walker(*f.graph);
  Rng rng(3);
  Walk w = walker.SampleMetapathWalk(6, mp.value(), 5, rng);
  EXPECT_TRUE(w.steps.empty());
}

TEST(WalkerMetapathTest, MultiEdgeTypeMask) {
  Fixture f;
  auto mp = MetapathSchema::Parse(
      "User -{click,buy}-> Item -{click,buy}-> User", f.schema);
  ASSERT_TRUE(mp.ok());
  Walker walker(*f.graph);
  Rng rng(4);
  std::set<EdgeTypeId> seen;
  for (int trial = 0; trial < 300; ++trial) {
    Walk w = walker.SampleMetapathWalk(0, mp.value(), 3, rng);
    for (const auto& s : w.steps) seen.insert(s.via_type);
  }
  // User 0 has both a click (item 3) and a buy (item 4): both types appear.
  EXPECT_TRUE(seen.contains(f.click));
  EXPECT_TRUE(seen.contains(f.buy));
}

TEST(WalkerMetapathTest, WalkLenOneHasNoSteps) {
  Fixture f;
  auto mp = MetapathSchema::Parse("User -{click}-> Item -{click}-> User",
                                  f.schema);
  ASSERT_TRUE(mp.ok());
  Walker walker(*f.graph);
  Rng rng(5);
  EXPECT_TRUE(walker.SampleMetapathWalk(0, mp.value(), 1, rng).steps.empty());
  EXPECT_TRUE(walker.SampleMetapathWalk(0, mp.value(), 0, rng).steps.empty());
}

TEST(WalkerMetapathTest, HonorsNeighborCap) {
  Fixture f;
  auto mp = MetapathSchema::Parse("User -{click}-> Item -{click}-> User",
                                  f.schema);
  ASSERT_TRUE(mp.ok());
  // User 1 clicked item 3 (t=2) then item 4 (t=3). Cap 1 => only item 4
  // visible.
  f.graph->set_neighbor_cap(1);
  Walker walker(*f.graph);
  Rng rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    Walk w = walker.SampleMetapathWalk(1, mp.value(), 2, rng);
    ASSERT_EQ(w.steps.size(), 1u);
    EXPECT_EQ(w.steps[0].node, 4u);
  }
}

TEST(WalkerUniformTest, CoversAllNeighbors) {
  Fixture f;
  Walker walker(*f.graph);
  Rng rng(7);
  std::set<NodeId> first_hops;
  for (int trial = 0; trial < 300; ++trial) {
    Walk w = walker.SampleUniformWalk(1, 2, rng);
    ASSERT_EQ(w.steps.size(), 1u);
    first_hops.insert(w.steps[0].node);
  }
  EXPECT_EQ(first_hops, (std::set<NodeId>{3, 4}));
}

TEST(WalkerUniformTest, IsolatedNodeYieldsEmptyWalk) {
  Schema s;
  s.AddNodeType("N");
  s.AddEdgeType("e");
  DynamicGraph g(s, {0, 0});
  Walker walker(g);
  Rng rng(8);
  EXPECT_TRUE(walker.SampleUniformWalk(0, 5, rng).steps.empty());
}

TEST(WalkerNode2vecTest, LowPEncouragesReturning) {
  // Chain graph 0-1-2. With p tiny, returning to the previous node
  // dominates; with p huge, the walker pushes outward.
  Schema s;
  s.AddNodeType("N");
  s.AddEdgeType("e");
  DynamicGraph g(s, {0, 0, 0});
  ASSERT_TRUE(g.AddEdge(0, 1, 0, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 0, 2.0).ok());
  Walker walker(g);

  int returns_low_p = 0;
  int returns_high_p = 0;
  Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    Walk w = walker.SampleNode2vecWalk(0, 3, /*p=*/0.01, /*q=*/1.0, rng);
    if (w.steps.size() == 2 && w.steps[1].node == 0) ++returns_low_p;
    Walk w2 = walker.SampleNode2vecWalk(0, 3, /*p=*/100.0, /*q=*/1.0, rng);
    if (w2.steps.size() == 2 && w2.steps[1].node == 0) ++returns_high_p;
  }
  EXPECT_GT(returns_low_p, returns_high_p + 100);
}

TEST(WalkerNode2vecTest, WalkStaysOnGraph) {
  Fixture f;
  Walker walker(*f.graph);
  Rng rng(10);
  for (int trial = 0; trial < 100; ++trial) {
    Walk w = walker.SampleNode2vecWalk(0, 6, 1.0, 0.5, rng);
    NodeId prev = w.start;
    for (const auto& step : w.steps) {
      // Each hop must be an actual edge.
      bool found = false;
      for (const auto& nb : f.graph->AllNeighbors(prev)) {
        if (nb.node == step.node && nb.edge_type == step.via_type) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found);
      prev = step.node;
    }
  }
}

// ---- Reservoir equivalence ------------------------------------------------

// The textbook one-pass reservoir scan, drawing on the caller's generator
// once per admissible neighbor, written against the public store API. The
// walker's scan must reproduce its hops and its generator state exactly.
struct ReferenceStats {
  size_t inadmissible = 0;    // neighbors skipped by the mask or dst type
  size_t empty_hops = 0;      // hops with no admissible neighbor
  size_t truncated_hops = 0;  // hops whose window the cap η shortened
};

bool ReferenceSampleAdmissible(const store::GraphStore& store, NodeId v,
                               EdgeTypeMask mask, NodeTypeId dst_type,
                               Rng& rng, Neighbor* out,
                               ReferenceStats* stats) {
  const auto window = store.Neighbors(v);
  if (window.size() < store.Degree(v)) ++stats->truncated_hops;
  size_t seen = 0;
  for (const Neighbor& nb : window) {
    if (!MaskContains(mask, nb.edge_type) ||
        store.NodeType(nb.node) != dst_type) {
      ++stats->inadmissible;
      continue;
    }
    ++seen;
    if (rng.Index(seen) == 0) *out = nb;
  }
  if (seen == 0) ++stats->empty_hops;
  return seen > 0;
}

std::vector<WalkStep> ReferenceWalk(const store::GraphStore& store,
                                    NodeId start,
                                    const MetapathSchema& schema,
                                    size_t walk_len, Rng& rng,
                                    ReferenceStats* stats) {
  std::vector<WalkStep> steps;
  if (walk_len <= 1 || store.NodeType(start) != schema.head()) return steps;
  NodeId cur = start;
  for (size_t hop = 0; hop + 1 < walk_len; ++hop) {
    const MetapathStep& constraint = schema.StepAt(hop);
    Neighbor nb;
    if (!ReferenceSampleAdmissible(store, cur, constraint.edge_types,
                                   constraint.dst_type, rng, &nb, stats)) {
      break;
    }
    steps.push_back(WalkStep{nb.node, nb.edge_type, nb.time});
    cur = nb.node;
  }
  return steps;
}

void ExpectSameState(const Rng& got, const Rng& want) {
  const Rng::State a = got.state();
  const Rng::State b = want.state();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.s[i], b.s[i]) << "word " << i;
  EXPECT_EQ(a.has_cached_gaussian, b.has_cached_gaussian);
}

TEST(WalkerReservoirTest, MatchesReferenceScanOnRandomMultiplexGraphs) {
  // Types: 0 User, 1 Item, 2 Shop; edges: 0 click, 1 buy, 2 fav. Endpoints
  // and edge types are drawn independently, so many neighbors fail the
  // mask or the destination type.
  Schema schema;
  schema.AddNodeType("User");
  schema.AddNodeType("Item");
  schema.AddNodeType("Shop");
  schema.AddEdgeType("click");
  schema.AddEdgeType("buy");
  schema.AddEdgeType("fav");
  const EdgeTypeMask click = EdgeTypeBit(0);
  const EdgeTypeMask buy = EdgeTypeBit(1);
  const EdgeTypeMask fav = EdgeTypeBit(2);
  struct Case {
    MetapathSchema path;
    size_t walk_len;
  };
  const std::vector<Case> cases = {
      {MetapathSchema(0, {{click | buy, 1}, {click | buy, 0}}), 5},
      {MetapathSchema(0, {{click, 1}, {buy, 0}}), 4},
      {MetapathSchema(1, {{fav, 2}, {fav | click, 1}}), 3},
      {MetapathSchema(2, {{click | buy | fav, 0}}), 2},
  };

  ReferenceStats stats;
  size_t removed = 0;
  size_t walks = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng build(seed);
    const size_t num_nodes = 40 + build.Index(20);
    std::vector<NodeTypeId> types(num_nodes);
    for (auto& t : types) t = static_cast<NodeTypeId>(build.Index(3));
    DynamicGraph graph(schema, types);
    struct Added {
      NodeId u, v;
      EdgeTypeId r;
    };
    std::vector<Added> added;
    // The last four nodes get no edges at all.
    for (int e = 0; e < 400; ++e) {
      const auto u = static_cast<NodeId>(build.Index(num_nodes - 4));
      const auto v = static_cast<NodeId>(build.Index(num_nodes - 4));
      if (u == v) continue;
      const auto r = static_cast<EdgeTypeId>(build.Index(3));
      ASSERT_TRUE(graph.AddEdge(u, v, r, static_cast<double>(e)).ok());
      added.push_back({u, v, r});
    }
    // Remove a fifth of the edges, so windows close up over the gaps and
    // (under a cap) older neighbors slide back into view.
    for (size_t i = 0; i < added.size() / 5; ++i) {
      const Added& a = added[build.Index(added.size())];
      if (graph.RemoveEdge(a.u, a.v, a.r).ok()) ++removed;
    }
    graph.set_neighbor_cap(seed % 3 == 0 ? 0 : 3 + seed % 5);

    Walker walker(graph);
    Rng rng(seed * 7919);
    Rng ref_rng = rng;
    WalkBuffer buffer;
    for (const Case& c : cases) {
      for (NodeId start = 0; start < num_nodes; ++start) {
        buffer.Clear();
        const size_t hops =
            walker.SampleMetapathWalkInto(start, c.path, c.walk_len, rng,
                                          &buffer);
        const std::vector<WalkStep> want = ReferenceWalk(
            graph.store(), start, c.path, c.walk_len, ref_rng, &stats);
        ASSERT_EQ(hops, want.size()) << "seed " << seed << " start " << start;
        if (hops > 0) {
          const WalkBuffer::Span& span = buffer.walk(0);
          const std::vector<WalkStep> got(buffer.steps_of(span),
                                          buffer.steps_of(span) + hops);
          EXPECT_EQ(got, want) << "seed " << seed << " start " << start;
        }
        ExpectSameState(rng, ref_rng);
        ++walks;
      }
    }
  }
  // The sweep must actually reach every branch of the scan.
  EXPECT_GT(walks, 1000u);
  EXPECT_GT(removed, 100u);
  EXPECT_GT(stats.inadmissible, 1000u);
  EXPECT_GT(stats.empty_hops, 50u);
  EXPECT_GT(stats.truncated_hops, 100u);
}

}  // namespace
}  // namespace supa
