// The grx::Engine façade contract (docs/api.md):
//
//  1. Transpose guard — HITS/SALSA on a directed graph demand an explicit
//     transpose instead of silently treating the graph as its own.
//  2. Steady-state allocation freedom — a warm Engine serving a repeated
//     query into a reused result object performs ZERO heap allocations:
//     every Problem buffer, operator workspace, priority pile, lane
//     matrix, and the result's own vectors are capacity-reused. Asserted
//     against a process-wide operator-new counter (the bench_micro
//     instrumentation pattern), not inferred from timings.
//  3. Determinism — integer-valued results (and SSSP's schedule stats) are
//     byte-identical across host thread counts, and a warm Engine returns
//     the same results as a cold one (workspace reuse and cross-primitive
//     interleaving never leak state between queries). Under one host
//     thread every primitive is bit-deterministic, so warm-vs-cold is
//     asserted byte-identical for every query, floating-point scores
//     included.
#include <gtest/gtest.h>
#include <omp.h>

#include "api/engine.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"

// This TU owns the binary's operator-new replacement: the zero
// steady-state-allocation contract is asserted against real allocator
// calls for the whole binary including libgrx (tests/alloc_probe.hpp).
#define GRX_ALLOC_PROBE_IMPLEMENT
#include "test_common.hpp"

namespace grx {
namespace {

using testing::allocations_during;
using testing::ThreadRestorer;
using testing::undirected_symw;

/// The shared serving graph: a symmetric weighted power-law CSR (weights
/// symmetric per undirected edge, as SSSP correctness requires).
const Csr& serving_graph() {
  static const Csr g = undirected_symw(rmat(10, 8, 2016));
  return g;
}

constexpr VertexId kSrc = 1;

// --- 1. transpose guard -----------------------------------------------------

TEST(EngineParity, DirectedGraphsRequireExplicitTranspose) {
  // rmat without symmetrization is directed: the single-graph constructor
  // must refuse to treat it as its own transpose rather than silently
  // returning wrong HITS/SALSA scores.
  BuildOptions bo;
  const Csr g = build_csr(rmat(8, 8, 7), bo);
  ASSERT_FALSE(is_symmetric(g));
  const Csr gT = transpose(g);
  simt::Device dev;
  Engine bare(dev, g);
  EXPECT_THROW(bare.hits(), CheckError);
  EXPECT_THROW(bare.salsa(), CheckError);

  // With the transpose supplied — at construction or on rebind — the
  // queries run, and both routes agree byte for byte.
  ThreadRestorer tr;
  omp_set_num_threads(1);
  simt::Device edev;
  Engine eng(edev, g, gT);
  const HitsResult eh = eng.hits();
  bare.rebind(g, gT);
  const HitsResult rh = bare.hits();
  EXPECT_EQ(eh.hub, rh.hub);
  EXPECT_EQ(eh.authority, rh.authority);
  EXPECT_EQ(eng.salsa().authority, bare.salsa().authority);
}

// --- 2. steady-state allocation freedom -------------------------------------

// Each case: one cold enact sizes the Problem pools, a second sizes the
// reused result object, and from then on the query must allocate NOTHING —
// not one heap allocation per enact, independent of BSP iteration count.
// This is the acceptance bar for BFS, SSSP, BC, CC, and PageRank, and is
// held by every other primitive too.

TEST(EngineSteadyState, BfsAllocFree) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions q;
  q.direction = Direction::kOptimal;  // exercise the pull bitmap pool too
  BfsResult r;
  eng.bfs(kSrc, r, q);
  eng.bfs(kSrc, r, q);
  EXPECT_EQ(allocations_during([&] { eng.bfs(kSrc, r, q); }), 0u);
  EXPECT_FALSE(r.depth.empty());
}

TEST(EngineSteadyState, SsspAllocFree) {
  // The power-law serving graph and a low-degree road graph: both run the
  // auto near/far schedule (fused claim + split) by default.
  const Csr road = build_dataset("roadnet-s", /*shrink=*/3);
  for (const Csr* g : {&serving_graph(), &road}) {
    simt::Device dev;
    Engine eng(dev, *g);
    SsspResult r;
    eng.sssp(kSrc, r);
    eng.sssp(kSrc, r);
    EXPECT_EQ(allocations_during([&] { eng.sssp(kSrc, r); }), 0u)
        << g->num_vertices() << " vertices";
    // The near/far schedule must actually have run for this to mean much.
    EXPECT_GT(r.pq_stats.splits, 0u) << g->num_vertices() << " vertices";
  }
}

TEST(EngineSteadyState, BcAllocFree) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  BcResult r;
  eng.bc(kSrc, r);
  eng.bc(kSrc, r);
  EXPECT_EQ(allocations_during([&] { eng.bc(kSrc, r); }), 0u);
  EXPECT_FALSE(r.bc_values.empty());
}

TEST(EngineSteadyState, CcAllocFree) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  CcResult r;
  eng.cc(r);
  eng.cc(r);
  EXPECT_EQ(allocations_during([&] { eng.cc(r); }), 0u);
  EXPECT_GT(r.num_components, 0u);
}

TEST(EngineSteadyState, PagerankAllocFree) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  PagerankResult r;
  eng.pagerank(r);
  eng.pagerank(r);
  EXPECT_EQ(allocations_during([&] { eng.pagerank(r); }), 0u);
  EXPECT_FALSE(r.rank.empty());
}

TEST(EngineSteadyState, RemainingPrimitivesAllocFree) {
  const Csr& g = serving_graph();
  simt::Device dev;
  Engine eng(dev, g);
  ColoringResult col;
  MisResult mis;
  MstResult mst;
  HitsResult hits;
  SalsaResult salsa;
  for (int warm = 0; warm < 2; ++warm) {
    eng.coloring(col);
    eng.mis(mis);
    eng.mst(mst);
    eng.hits(hits);
    eng.salsa(salsa);
  }
  EXPECT_EQ(allocations_during([&] { eng.coloring(col); }), 0u);
  EXPECT_EQ(allocations_during([&] { eng.mis(mis); }), 0u);
  EXPECT_EQ(allocations_during([&] { eng.mst(mst); }), 0u);
  EXPECT_EQ(allocations_during([&] { eng.hits(hits); }), 0u);
  EXPECT_EQ(allocations_during([&] { eng.salsa(salsa); }), 0u);
}

TEST(EngineSteadyState, BatchBfsAllocFree) {
  const Csr& g = serving_graph();
  const std::vector<VertexId> sources = testing::scattered_sources(g, 64);
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions q;
  q.direction = Direction::kOptimal;
  BatchBfsResult r;
  eng.batch_bfs(sources, r, q);
  eng.batch_bfs(sources, r, q);
  EXPECT_EQ(allocations_during([&] { eng.batch_bfs(sources, r, q); }), 0u);
  EXPECT_EQ(r.num_lanes, 64u);
}

TEST(EngineSteadyState, BatchSsspNearConstantAllocs) {
  const Csr& g = serving_graph();
  const std::vector<VertexId> sources = testing::scattered_sources(g, 64);
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions q;
  q.delta = 8;  // force the per-lane near/far schedule
  BatchSsspResult r;
  eng.batch_sssp(sources, r, q);
  eng.batch_sssp(sources, r, q);
  // The per-lane stats vector is moved out to the caller each enact
  // (take_lane_stats), so the steady state is a small constant — never
  // proportional to iterations or priority levels.
  EXPECT_LE(allocations_during([&] { eng.batch_sssp(sources, r, q); }), 4u);
  EXPECT_EQ(r.num_lanes, 64u);
}

// --- 3. determinism ----------------------------------------------------------

TEST(EngineDeterminism, WarmEngineMatchesColdEngine) {
  ThreadRestorer tr;
  omp_set_num_threads(1);
  const Csr& g = serving_graph();
  const std::vector<VertexId> sources = testing::scattered_sources(g, 64);
  // Every `cold` query runs on a fresh temporary Engine — the one-shot
  // form `Engine(dev, g).bfs(src)`.
  simt::Device wdev, cdev;
  Engine warm(wdev, g);
  // Interleave queries on `warm` so every shared workspace has been
  // through other primitives before the measured repeats.
  (void)warm.bfs(kSrc);
  (void)warm.sssp(kSrc);
  (void)warm.cc();
  (void)warm.pagerank();
  (void)warm.batch_sssp(sources);
  (void)warm.bc_batched(sources);
  (void)warm.bfs((kSrc + 5) % g.num_vertices());

  // --- single-source traversal ---
  QueryOptions q;
  q.direction = Direction::kOptimal;
  const BfsResult wb = warm.bfs(kSrc, q);
  const BfsResult cb = Engine(cdev, g).bfs(kSrc, q);
  EXPECT_EQ(wb.depth, cb.depth);
  EXPECT_EQ(wb.pred, cb.pred);
  EXPECT_EQ(wb.summary.iterations, cb.summary.iterations);
  EXPECT_EQ(wb.summary.edges_processed, cb.summary.edges_processed);

  const SsspResult wsr = warm.sssp(kSrc);
  const SsspResult csr = Engine(cdev, g).sssp(kSrc);
  EXPECT_EQ(wsr.dist, csr.dist);
  EXPECT_EQ(wsr.pred, csr.pred);
  EXPECT_EQ(wsr.pq_stats, csr.pq_stats);
  EXPECT_EQ(wsr.summary.iterations, csr.summary.iterations);

  const BcResult wbc = warm.bc(kSrc);
  const BcResult cbc = Engine(cdev, g).bc(kSrc);
  EXPECT_EQ(wbc.bc_values, cbc.bc_values);
  EXPECT_EQ(wbc.sigma, cbc.sigma);
  EXPECT_EQ(wbc.depth, cbc.depth);

  // --- whole-graph analytics ---
  const CcResult wcc = warm.cc();
  const CcResult ccc = Engine(cdev, g).cc();
  EXPECT_EQ(wcc.component, ccc.component);
  EXPECT_EQ(wcc.num_components, ccc.num_components);
  EXPECT_EQ(wcc.summary.edges_processed, ccc.summary.edges_processed);

  const PagerankResult wpr = warm.pagerank();
  const PagerankResult cpr = Engine(cdev, g).pagerank();
  EXPECT_EQ(wpr.rank, cpr.rank);
  EXPECT_EQ(wpr.summary.iterations, cpr.summary.iterations);

  const ColoringResult wcol = warm.coloring();
  const ColoringResult ccol = Engine(cdev, g).coloring();
  EXPECT_EQ(wcol.color, ccol.color);
  EXPECT_EQ(wcol.num_colors, ccol.num_colors);

  const MisResult wmis = warm.mis();
  const MisResult cmis = Engine(cdev, g).mis();
  EXPECT_EQ(wmis.in_set, cmis.in_set);
  EXPECT_EQ(wmis.set_size, cmis.set_size);

  const MstResult wmst = warm.mst();
  const MstResult cmst = Engine(cdev, g).mst();
  EXPECT_EQ(wmst.total_weight, cmst.total_weight);
  EXPECT_EQ(wmst.edges, cmst.edges);
  EXPECT_EQ(wmst.num_components, cmst.num_components);

  const HitsResult wh = warm.hits();
  const HitsResult ch = Engine(cdev, g).hits();
  EXPECT_EQ(wh.hub, ch.hub);
  EXPECT_EQ(wh.authority, ch.authority);

  const SalsaResult wsa = warm.salsa();
  const SalsaResult csa = Engine(cdev, g).salsa();
  EXPECT_EQ(wsa.hub, csa.hub);
  EXPECT_EQ(wsa.authority, csa.authority);

  // --- batched multi-source queries ---
  const BatchBfsResult wbb = warm.batch_bfs(sources);
  const BatchBfsResult cbb = Engine(cdev, g).batch_bfs(sources);
  EXPECT_EQ(wbb.depth, cbb.depth);
  EXPECT_EQ(wbb.summary.iterations, cbb.summary.iterations);

  const BatchSsspResult wbs = warm.batch_sssp(sources);
  const BatchSsspResult cbs = Engine(cdev, g).batch_sssp(sources);
  EXPECT_EQ(wbs.dist, cbs.dist);
  EXPECT_EQ(wbs.delta, cbs.delta);
  EXPECT_EQ(wbs.lane_stats, cbs.lane_stats);

  const BatchReachabilityResult wr = warm.batch_reachability(sources);
  const BatchReachabilityResult cr =
      Engine(cdev, g).batch_reachability(sources);
  ASSERT_EQ(wr.visited.words_per_vertex(), cr.visited.words_per_vertex());
  std::size_t reach_diff = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (std::uint32_t w = 0; w < wr.visited.words_per_vertex(); ++w)
      reach_diff += wr.visited.row(v)[w] != cr.visited.row(v)[w];
  EXPECT_EQ(reach_diff, 0u);

  const BatchBcForwardResult wf = warm.batch_bc_forward(sources);
  const BatchBcForwardResult cf = Engine(cdev, g).batch_bc_forward(sources);
  EXPECT_EQ(wf.depth, cf.depth);
  EXPECT_EQ(wf.sigma, cf.sigma);

  EXPECT_EQ(warm.bc_batched(sources), Engine(cdev, g).bc_batched(sources));
  EXPECT_EQ(warm.bc_sampled(4, 99), Engine(cdev, g).bc_sampled(4, 99));
}

TEST(EngineDeterminism, ResultsIdenticalAcrossThreadCounts) {
  ThreadRestorer tr;
  const Csr& g = serving_graph();
  const std::vector<VertexId> sources = testing::scattered_sources(g, 64);

  omp_set_num_threads(1);
  simt::Device rdev;
  Engine ref(rdev, g);
  const BfsResult rb = ref.bfs(kSrc);
  const SsspResult rs = ref.sssp(kSrc);
  const CcResult rc = ref.cc();
  const ColoringResult rcol = ref.coloring();
  const MisResult rmis = ref.mis();
  const MstResult rmst = ref.mst();
  const BatchSsspResult rbs = ref.batch_sssp(sources);

  for (int threads : {2, 8}) {
    omp_set_num_threads(threads);
    simt::Device dev;
    Engine eng(dev, g);
    EXPECT_EQ(eng.bfs(kSrc).depth, rb.depth) << threads << " threads";
    const SsspResult s = eng.sssp(kSrc);
    EXPECT_EQ(s.dist, rs.dist) << threads << " threads";
    EXPECT_EQ(s.pq_stats, rs.pq_stats) << threads << " threads";
    EXPECT_EQ(eng.cc().component, rc.component) << threads << " threads";
    EXPECT_EQ(eng.coloring().color, rcol.color) << threads << " threads";
    EXPECT_EQ(eng.mis().in_set, rmis.in_set) << threads << " threads";
    const MstResult m = eng.mst();
    EXPECT_EQ(m.total_weight, rmst.total_weight) << threads << " threads";
    EXPECT_EQ(m.edges, rmst.edges) << threads << " threads";
    const BatchSsspResult bs = eng.batch_sssp(sources);
    EXPECT_EQ(bs.dist, rbs.dist) << threads << " threads";
    EXPECT_EQ(bs.lane_stats, rbs.lane_stats) << threads << " threads";
  }
}

// --- 4. options reach every advance -----------------------------------------

TEST(EngineOptions, LbThresholdReachesSsspAndBc) {
  // Under kLoadBalanced, lb_node_edge_threshold picks the edge-chunked
  // mapping (frontier >= threshold) or the node-chunked one. Every advance
  // of single-query SSSP and BC (forward and backward) must honour it.
  const Csr g = build_dataset("roadnet-s", /*shrink=*/3);
  simt::Device dev;
  dev.set_profiling(true);
  Engine eng(dev, g);
  const auto launched = [&](const char* name) {
    std::uint64_t n = 0;
    for (const auto& k : dev.kernel_log()) n += k.name == name;
    return n;
  };
  for (const std::uint32_t threshold : {1u, 1u << 30}) {
    QueryOptions opts;
    opts.strategy = AdvanceStrategy::kLoadBalanced;
    opts.lb_node_edge_threshold = threshold;
    const char* want = threshold == 1 ? "advance_lb_edges" : "advance_lb_nodes";
    const char* other =
        threshold == 1 ? "advance_lb_nodes" : "advance_lb_edges";
    eng.sssp(kSrc, opts);
    EXPECT_GT(launched(want), 0u) << "sssp, threshold " << threshold;
    EXPECT_EQ(launched(other), 0u) << "sssp, threshold " << threshold;
    eng.bc(kSrc, opts);
    EXPECT_GT(launched(want), 0u) << "bc, threshold " << threshold;
    EXPECT_EQ(launched(other), 0u) << "bc, threshold " << threshold;
  }
}

}  // namespace
}  // namespace grx
