#include <gtest/gtest.h>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/datasets.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

class CcDatasetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CcDatasetTest, MatchesUnionFind) {
  const Csr g = build_dataset(GetParam(), /*shrink=*/5);
  const auto oracle = serial::connected_components(g);
  simt::Device dev;
  const CcResult r = Engine(dev, g).cc();
  EXPECT_TRUE(testing::same_partition(r.component, oracle));
  EXPECT_EQ(r.num_components, serial::count_components(oracle));
}

INSTANTIATE_TEST_SUITE_P(Datasets, CcDatasetTest,
                         ::testing::Values("soc-orkut-s", "kron-s", "rgg-s",
                                           "roadnet-s"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(Cc, LabelsAreCanonicalMinIds) {
  EdgeList el;
  el.num_vertices = 6;
  el.edges = {{4, 5, 1}, {1, 2, 1}};
  const Csr g = testing::undirected(el);
  simt::Device dev;
  const CcResult r = Engine(dev, g).cc();
  EXPECT_EQ(r.component[0], 0u);
  EXPECT_EQ(r.component[1], 1u);
  EXPECT_EQ(r.component[2], 1u);
  EXPECT_EQ(r.component[3], 3u);
  EXPECT_EQ(r.component[4], 4u);
  EXPECT_EQ(r.component[5], 4u);
  EXPECT_EQ(r.num_components, 4u);
}

TEST(Cc, DirectedGraphGathersBothDirections) {
  // Arcs listed only from the higher id: weak components need the reverse
  // direction too, which the transpose supplies.
  EdgeList el;
  el.num_vertices = 6;
  el.edges = {{5, 2, 1}, {4, 1, 1}};
  const Csr g = build_csr(el);
  ASSERT_FALSE(is_symmetric(g));
  const std::vector<VertexId> oracle = serial::connected_components(g);
  ASSERT_EQ(serial::count_components(oracle), 4u);
  simt::Device dev;
  const CcResult r = Engine(dev, g, transpose(g)).cc();
  EXPECT_EQ(r.component, oracle);
  EXPECT_EQ(r.num_components, 4u);

  // Without the transpose the engine refuses instead of dropping arcs.
  simt::Device bare_dev;
  Engine bare(bare_dev, g);
  EXPECT_THROW(bare.cc(), CheckError);
}

TEST(Cc, SingleComponent) {
  const Csr g = testing::undirected(cycle_graph(64));
  simt::Device dev;
  const CcResult r = Engine(dev, g).cc();
  EXPECT_EQ(r.num_components, 1u);
  for (VertexId v = 0; v < 64; ++v) EXPECT_EQ(r.component[v], 0u);
}

TEST(Cc, AllIsolated) {
  EdgeList el;
  el.num_vertices = 16;
  const Csr g = build_csr(el);
  simt::Device dev;
  const CcResult r = Engine(dev, g).cc();
  EXPECT_EQ(r.num_components, 16u);
}

TEST(Cc, ManySmallComponents) {
  // 100 disjoint triangles.
  EdgeList el;
  el.num_vertices = 300;
  for (std::uint32_t t = 0; t < 100; ++t) {
    const std::uint32_t b = 3 * t;
    el.edges.push_back({b, b + 1, 1});
    el.edges.push_back({b + 1, b + 2, 1});
    el.edges.push_back({b + 2, b, 1});
  }
  const Csr g = testing::undirected(el);
  simt::Device dev;
  const CcResult r = Engine(dev, g).cc();
  EXPECT_EQ(r.num_components, 100u);
  for (std::uint32_t t = 0; t < 100; ++t) {
    EXPECT_EQ(r.component[3 * t], 3 * t);
    EXPECT_EQ(r.component[3 * t + 1], 3 * t);
    EXPECT_EQ(r.component[3 * t + 2], 3 * t);
  }
}

TEST(Cc, LongChainNeedsManyJumps) {
  // A path exercises deep pointer-jumping trees.
  const Csr g = testing::undirected(path_graph(2000));
  simt::Device dev;
  const CcResult r = Engine(dev, g).cc();
  EXPECT_EQ(r.num_components, 1u);
  for (VertexId v = 0; v < 2000; ++v) ASSERT_EQ(r.component[v], 0u);
}

TEST(Cc, EveryEdgeEndpointsShareLabel) {
  const Csr g = testing::undirected(erdos_renyi(1024, 1500, 9));
  simt::Device dev;
  const CcResult r = Engine(dev, g).cc();
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (VertexId u : g.neighbors(v))
      ASSERT_EQ(r.component[v], r.component[u]);
}

}  // namespace
}  // namespace grx
