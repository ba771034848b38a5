#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <vector>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/datasets.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

using SsspParam = std::tuple<std::string, AdvanceStrategy, bool>;

class SsspSweep : public ::testing::TestWithParam<SsspParam> {};

TEST_P(SsspSweep, MatchesDijkstra) {
  const auto& [ds, strategy, use_pq] = GetParam();
  const Csr g = build_dataset(ds, /*shrink=*/5);
  const VertexId source = 0;
  const auto oracle = serial::dijkstra(g, source);

  simt::Device dev;
  QueryOptions opts;
  opts.strategy = strategy;
  opts.use_priority_queue = use_pq;
  const SsspResult r = Engine(dev, g).sssp(source, opts);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.dist[v], oracle[v]) << "vertex " << v;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SsspSweep,
    ::testing::Combine(
        ::testing::Values("soc-orkut-s", "roadnet-s", "rgg-s"),
        ::testing::Values(AdvanceStrategy::kTwc,
                          AdvanceStrategy::kLoadBalanced,
                          AdvanceStrategy::kAuto),
        ::testing::Bool()),
    [](const auto& info) {
      const std::string ds = std::get<0>(info.param);
      std::string name = ds.substr(0, ds.find('-'));
      name += std::string("_") + to_string(std::get<1>(info.param)) +
              (std::get<2>(info.param) ? "_nearfar" : "_plain");
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name;
    });

TEST(Sssp, DeltaSweepAllAgree) {
  const Csr g = testing::random_graph(1024, 4096, 5);
  const auto oracle = serial::dijkstra(g, 7);
  simt::Device dev;
  for (std::uint32_t delta : {1u, 8u, 64u, 256u, 100000u}) {
    QueryOptions opts;
    opts.delta = delta;
    const SsspResult r = Engine(dev, g).sssp(7, opts);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      ASSERT_EQ(r.dist[v], oracle[v]) << "delta " << delta << " v " << v;
  }
}

TEST(Sssp, PathGraphDistancesAreWeightPrefixSums) {
  EdgeList el = path_graph(6);
  for (std::size_t i = 0; i < el.edges.size(); ++i)
    el.edges[i].weight = static_cast<Weight>(i + 1);
  BuildOptions b;
  b.symmetrize = true;
  const Csr g = build_csr(el, b);
  simt::Device dev;
  const SsspResult r = Engine(dev, g).sssp(0);
  std::uint32_t acc = 0;
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(r.dist[v], acc);
    acc += static_cast<std::uint32_t>(v + 1);
  }
}

TEST(Sssp, UnreachableStaysInfinity) {
  EdgeList el;
  el.num_vertices = 3;
  el.edges = {{0, 1, 4}};
  const Csr g = testing::undirected_symw(el);
  simt::Device dev;
  const SsspResult r = Engine(dev, g).sssp(0);
  EXPECT_EQ(r.dist[2], kInfinity);
}

TEST(Sssp, PredecessorsFormShortestPathTree) {
  const Csr g = testing::random_graph(256, 1024, 17);
  simt::Device dev;
  const SsspResult r = Engine(dev, g).sssp(0);
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (r.dist[v] == kInfinity) continue;
    const VertexId p = r.pred[v];
    ASSERT_NE(p, kInvalidVertex);
    // dist[v] == dist[p] + w(p, v) for the recorded predecessor edge.
    const auto nbrs = g.neighbors(p);
    const auto ws = g.edge_weights(p);
    bool ok = false;
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      if (nbrs[i] == v && r.dist[p] + ws[i] == r.dist[v]) ok = true;
    EXPECT_TRUE(ok) << "vertex " << v;
  }
}

TEST(Sssp, RequiresWeights) {
  EdgeList el = path_graph(4);
  BuildOptions b;
  b.symmetrize = true;
  Csr g = build_csr(el, b);
  // Strip weights by rebuilding without them.
  Csr unweighted(g.num_vertices(),
                 {g.row_offsets().begin(), g.row_offsets().end()},
                 {g.col_indices().begin(), g.col_indices().end()});
  simt::Device dev;
  EXPECT_THROW(Engine(dev, unweighted).sssp(0), CheckError);
}

TEST(Sssp, AutoDeltaGatesOnDegree) {
  // Below average degree 8 the bucket is about a warp's worth of
  // relaxations wide (32 x mean weight 32.5 / avg degree); at or above it,
  // mean weight x avg degree / 8. Only an edgeless graph declines (0).
  BuildOptions b;
  b.symmetrize = true;
  const Csr sparse = build_csr(path_graph(64), b);  // 126 arcs, 64 vertices
  EXPECT_EQ(sssp_auto_delta(sparse),
            static_cast<std::uint32_t>(32 * 32.5 * 64 / 126));
  const Csr road = build_dataset("roadnet-s", /*shrink=*/1);
  EXPECT_EQ(sssp_auto_delta(road), 333u);
  const Csr dense = build_csr(complete_graph(64), b);  // avg degree 63
  EXPECT_EQ(sssp_auto_delta(dense), static_cast<std::uint32_t>(32.5 * 63 / 8));

  EdgeList none;
  none.num_vertices = 16;
  EXPECT_EQ(sssp_auto_delta(build_csr(none, BuildOptions{})), 0u);

  // One arc over 5M vertices: 1040 x 5M exceeds u32 — clamps, no wrap.
  const VertexId n = 5'000'000;
  std::vector<EdgeId> offsets(n + 1, 1);
  offsets[0] = 0;
  const Csr sparsest(n, std::move(offsets), std::vector<VertexId>{1});
  EXPECT_EQ(sssp_auto_delta(sparsest),
            std::numeric_limits<std::uint32_t>::max());
}

TEST(Sssp, StaleFarPileEntriesPromoteByCurrentDistance) {
  // A vertex banked far can (a) be appended to the far pile repeatedly as
  // its distance keeps improving above the cutoff, and (b) improve below
  // the cutoff through a longer path *while sitting in the pile* — the
  // stale entries then promote by the improved distance (the re-split
  // consults current dist; the relax guard at sssp.cpp's RelaxFunctor
  // tolerates the leftover duplicates). Distances must still be exact.
  EdgeList el;
  el.num_vertices = 10;
  // Unit-weight chain 0..8 keeps near work alive for many levels.
  for (VertexId v = 0; v + 1 < 9; ++v) el.edges.push_back(Edge{v, v + 1, 1});
  el.edges.push_back(Edge{0, 9, 50});  // banked far at round 1 (dist 50)
  el.edges.push_back(Edge{1, 9, 45});  // re-banked at round 2 (dist 46)
  el.edges.push_back(Edge{8, 9, 1});   // improves to 9 while still banked
  const Csr g = build_csr(el, BuildOptions{});  // directed: exact control
  const auto oracle = serial::dijkstra(g, 0);
  ASSERT_EQ(oracle[9], 9u);
  simt::Device dev;
  QueryOptions opts;
  opts.delta = 4;  // force a fine near/far schedule
  const SsspResult r = Engine(dev, g).sssp(0, opts);
  EXPECT_EQ(r.dist, oracle);
  // The far pile really was exercised (both heavy relaxations banked).
  EXPECT_GE(r.pq_stats.far_total, 2u);
  EXPECT_GT(r.pq_stats.splits, 1u);

  // Batched mirror: same graph, lane 0 from source 0 — the bit-matrix far
  // bank clears the stale bit on promotion instead of keeping duplicates.
  const VertexId sources[] = {0, 1};
  QueryOptions bopts;
  bopts.delta = 4;
  const BatchSsspResult batch = Engine(dev, g).batch_sssp(sources, bopts);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(batch.dist_at(v, 0), oracle[v]) << "vertex " << v;
}

TEST(Sssp, AutoDeltaMatchesPlainFrontierDistances) {
  // use_priority_queue with delta 0 means "auto"; on a low-degree graph it
  // now sizes a bucket rather than declining, and must agree with the
  // plain frontier path on every distance.
  const Csr g = build_dataset("roadnet-s", /*shrink=*/5);
  simt::Device dev;
  QueryOptions auto_opts;  // use_priority_queue = true, delta = 0
  const SsspResult a = Engine(dev, g).sssp(0, auto_opts);
  QueryOptions off;
  off.use_priority_queue = false;
  const SsspResult b = Engine(dev, g).sssp(0, off);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(b.pq_stats, PriorityQueueStats{});
}

TEST(Sssp, AutoDeltaOnUniformWeightGraphs) {
  // All-equal weights collapse the distance distribution the mean-weight
  // sizing assumes — both extremes (all 1, all 64) must still be exact,
  // single-query and batched, with the auto schedule engaged.
  BuildOptions b;
  b.symmetrize = true;
  const Csr base = build_csr(rmat(9, 12, 3), b);  // avg degree ~24: engages
  simt::Device dev;
  for (const Weight w : {Weight{1}, Weight{64}}) {
    const Csr g = with_random_weights(base, /*seed=*/5, w, w);
    ASSERT_GT(sssp_auto_delta(g), 0u);
    const auto oracle = serial::dijkstra(g, 1);
    const SsspResult r = Engine(dev, g).sssp(1);  // auto delta
    EXPECT_EQ(r.dist, oracle) << "uniform weight " << w;
    const VertexId sources[] = {1, 3, 1};
    QueryOptions bopts;
    bopts.delta = 8;  // small graph: force the per-lane schedule on
    const BatchSsspResult batch = Engine(dev, g).batch_sssp(sources, bopts);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(batch.dist_at(v, 0), oracle[v])
          << "uniform weight " << w << " vertex " << v;
      EXPECT_EQ(batch.dist_at(v, 2), oracle[v])
          << "duplicate-source lane, weight " << w << " vertex " << v;
    }
  }
}

TEST(Sssp, NearFarReducesWorkOnRoadNetworks) {
  const Csr g = build_dataset("roadnet-s", /*shrink=*/3);
  simt::Device dev;
  QueryOptions with_pq, without_pq;
  with_pq.use_priority_queue = true;
  with_pq.delta = 64;  // a fixed, finer bucket than the auto sizing
  without_pq.use_priority_queue = false;
  const auto a = Engine(dev, g).sssp(0, with_pq);
  const auto b = Engine(dev, g).sssp(0, without_pq);
  // Delta-stepping's whole point: fewer wasted relaxations than the
  // Bellman-Ford-style frontier (Davidson et al.).
  EXPECT_LT(a.summary.edges_processed, b.summary.edges_processed);
}

TEST(Sssp, AutoScheduleEngagesOnRoadNetworks) {
  // The auto delta engages the near/far schedule on a low-degree graph,
  // saves relaxations over the unsplit frontier, and runs each round as
  // advance + fused claim/split: no filter launch, at most two launches
  // per iteration plus one per priority-level re-split.
  const Csr g = build_dataset("roadnet-s", /*shrink=*/3);
  ASSERT_LT(g.num_edges(), 8ull * g.num_vertices());
  const auto oracle = serial::dijkstra(g, 0);
  simt::Device dev;
  dev.set_profiling(true);
  Engine eng(dev, g);
  const SsspResult a = eng.sssp(0);
  EXPECT_EQ(a.dist, oracle);
  EXPECT_GT(a.pq_stats.splits, 0u);
  std::uint64_t filters = 0;
  for (const auto& k : dev.kernel_log()) filters += k.name == "filter";
  EXPECT_EQ(filters, 0u);
  // Every round runs one claim_split; the remaining splits are re-splits.
  ASSERT_GE(a.pq_stats.splits, a.summary.iterations);
  const std::uint64_t resplits = a.pq_stats.splits - a.summary.iterations;
  EXPECT_LE(a.summary.counters.kernel_launches,
            2ull * a.summary.iterations + resplits);

  QueryOptions off;
  off.use_priority_queue = false;
  const SsspResult b = eng.sssp(0, off);
  EXPECT_EQ(b.dist, oracle);
  EXPECT_LT(a.summary.edges_processed, b.summary.edges_processed);
}

}  // namespace
}  // namespace grx
