#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/datasets.hpp"
#include "test_common.hpp"
#include "util/rng.hpp"

namespace grx {
namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

class PrDatasetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PrDatasetTest, MatchesPowerIteration) {
  const Csr g = build_dataset(GetParam(), /*shrink=*/5);
  const auto oracle = serial::pagerank(g, 0.85, 20);
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;  // no frontier pruning: exact match to the oracle
  opts.max_iterations = 20;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  EXPECT_TRUE(testing::near_vectors(r.rank, oracle, 1e-10));
}

INSTANTIATE_TEST_SUITE_P(Datasets, PrDatasetTest,
                         ::testing::Values("soc-orkut-s", "kron-s",
                                           "roadnet-s"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(Pagerank, SumsToOne) {
  const Csr g = build_dataset("hollywood-s", /*shrink=*/5);
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  EXPECT_NEAR(sum(r.rank), 1.0, 1e-9);
}

TEST(Pagerank, StarGraphClosedForm) {
  // Undirected star, d = damping, n-1 leaves: by symmetry all leaves equal
  // and center + (n-1) leaf = 1. Center: c = (1-d)/n + d * (n-1) * l_share
  // where each leaf sends all its rank to the center.
  const std::uint32_t n = 11;
  const Csr g = testing::undirected(star_graph(n));
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;
  opts.max_iterations = 200;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  const double d = 0.85;  // PageRank's damping factor
  // Fixed point: center = (1-d)/n + d * (sum of leaves), each leaf
  // = (1-d)/n + d * center/(n-1).
  const double leaf = (1.0 - d) / n * (1.0 + d) / (1.0 - d * d * 1.0);
  (void)leaf;  // closed form below via linear solve:
  // center = (1-d)/n + d*L where L = total leaf mass
  // L = (n-1)*[(1-d)/n + d*center/(n-1)] = (n-1)(1-d)/n + d*center
  // => center = (1-d)/n + d[(n-1)(1-d)/n + d*center]
  const double center =
      ((1.0 - d) / n + d * (n - 1) * (1.0 - d) / n) / (1.0 - d * d);
  EXPECT_NEAR(r.rank[0], center, 1e-9);
  for (VertexId v = 1; v < n; ++v)
    EXPECT_NEAR(r.rank[v], (1.0 - center) / (n - 1), 1e-9);
}

TEST(Pagerank, UniformOnRegularGraph) {
  // On a cycle (2-regular), PageRank is exactly uniform.
  const Csr g = testing::undirected(cycle_graph(64));
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  for (VertexId v = 0; v < 64; ++v) EXPECT_NEAR(r.rank[v], 1.0 / 64, 1e-12);
}

TEST(Pagerank, DanglingMassRedistributed) {
  // Graph with isolated vertices: ranks must still sum to 1.
  EdgeList el;
  el.num_vertices = 10;
  el.edges = {{0, 1, 1}, {1, 2, 1}};
  const Csr g = testing::undirected(el);
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  EXPECT_NEAR(sum(r.rank), 1.0, 1e-9);
  const auto oracle = serial::pagerank(g, 0.85, 50);
  EXPECT_TRUE(testing::near_vectors(r.rank, oracle, 1e-10));
}

TEST(Pagerank, ConvergencePruningShrinksFrontier) {
  const Csr g = build_dataset("rgg-s", /*shrink=*/5);
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 1e-3;  // aggressive pruning
  opts.max_iterations = 50;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  ASSERT_GE(r.summary.per_iteration.size(), 2u);
  const auto& last = r.summary.per_iteration.back();
  const auto& first = r.summary.per_iteration.front();
  EXPECT_LT(last.input_size, first.input_size);
}

TEST(Pagerank, PrunedStillCloseToExact) {
  const Csr g = build_dataset("soc-orkut-s", /*shrink=*/6);
  const auto oracle = serial::pagerank(g, 0.85, 50);
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 1e-9;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  double l1 = 0.0;
  for (std::size_t v = 0; v < oracle.size(); ++v)
    l1 += std::abs(oracle[v] - r.rank[v]);
  EXPECT_LT(l1, 1e-2);  // pruning is approximate by design (Section 5.5)
}

TEST(Pagerank, DirectedGraphGathersOverTheTranspose) {
  // rmat without symmetrization is directed (with dangling vertices):
  // PageRank gathers over in-edges, so it needs the transpose.
  const Csr g = build_csr(rmat(10, 8, 11));
  ASSERT_FALSE(is_symmetric(g));
  const Csr gT = transpose(g);
  QueryOptions opts;
  opts.epsilon = 0.0;
  opts.max_iterations = 20;
  simt::Device dev;
  const PagerankResult r = Engine(dev, g, gT).pagerank(opts);
  EXPECT_EQ(r.rank, serial::pagerank(g, 0.85, 20));

  // Without the transpose the engine refuses instead of gathering over
  // out-edges.
  simt::Device bare_dev;
  Engine bare(bare_dev, g);
  EXPECT_THROW(bare.pagerank(opts), CheckError);
}

TEST(Pagerank, PrunedIterationsGatherOnlyFrontierInEdges) {
  // Every vertex has in-degree exactly kIn while out-degrees vary, so
  // ranks (and convergence times) differ but the in-degree sum over any
  // frontier is kIn times its size.
  constexpr VertexId kN = 2000;
  constexpr std::uint64_t kIn = 3;
  Rng rng(5);
  EdgeList el;
  el.num_vertices = kN;
  for (VertexId v = 0; v < kN; ++v) {
    VertexId picked[kIn];
    for (std::uint64_t k = 0; k < kIn; ++k) {
      VertexId u;
      do {
        u = static_cast<VertexId>(rng.next_below(kN));
      } while (u == v || std::find(picked, picked + k, u) != picked + k);
      picked[k] = u;
      el.edges.push_back(Edge{u, v, 1});
    }
  }
  const Csr g = build_csr(el);
  const Csr gT = transpose(g);
  for (VertexId v = 0; v < kN; ++v) ASSERT_EQ(gT.degree(v), kIn);

  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 1e-3;
  const PagerankResult r = Engine(dev, g, gT).pagerank(opts);
  const auto& its = r.summary.per_iteration;
  ASSERT_GE(its.size(), 2u);
  EXPECT_EQ(its.front().input_size, kN);
  std::uint64_t partial = 0;  // iterations over a proper, non-empty subset
  for (std::size_t i = 0; i < its.size(); ++i) {
    EXPECT_EQ(its[i].edges_processed, kIn * its[i].input_size)
        << "iteration " << i;
    if (i > 0) EXPECT_LE(its[i].input_size, its[i - 1].input_size);
    partial += its[i].input_size > 0 && its[i].input_size < kN;
  }
  EXPECT_LT(its.back().edges_processed, its.front().edges_processed);
  EXPECT_GE(partial, 2u);
}

TEST(Pagerank, HigherDegreeGetsMoreRankOnChain) {
  // On a path, interior vertices (degree 2) outrank endpoints (degree 1).
  const Csr g = testing::undirected(path_graph(8));
  simt::Device dev;
  QueryOptions opts;
  opts.epsilon = 0.0;
  const PagerankResult r = Engine(dev, g).pagerank(opts);
  EXPECT_GT(r.rank[3], r.rank[0]);
  EXPECT_GT(r.rank[4], r.rank[7]);
}

}  // namespace
}  // namespace grx
