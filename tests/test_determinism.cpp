// Determinism guarantees of the two-phase output assembler: advance and
// filter outputs are byte-identical regardless of how many host threads ran
// the kernel (per-chunk staging + scan placement, no per-thread drain
// order), and all push strategies emit the same frontier in the same order
// (accepted edges sorted by frontier position, then CSR edge index).
#include <gtest/gtest.h>
#include <omp.h>

#include <string>
#include <vector>

#include "api/engine.hpp"
#include "baselines/serial/serial.hpp"
#include "core/advance.hpp"
#include "core/filter.hpp"
#include "core/priority_queue.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "test_common.hpp"

namespace grx {
namespace {

struct NullProblem {
  std::vector<std::pair<VertexId, VertexId>> edges;  // for filter_edges
  std::pair<VertexId, VertexId> edge_endpoints(std::uint32_t e) const {
    return edges[e];
  }
};

/// Stateless accept decisions: repeated runs (across thread counts and
/// strategies) see identical functor behavior, so any output difference can
/// only come from the assembly path itself.
struct StatelessFunctor {
  static bool cond_edge(VertexId, VertexId dst, EdgeId, NullProblem&) {
    return ((dst * 2654435761u) >> 29) != 0;  // deterministic ~87% accept
  }
  static void apply_edge(VertexId, VertexId, EdgeId, NullProblem&) {}
  static bool is_unvisited(VertexId v, NullProblem&) {
    return ((v * 40503u) & 3u) != 0;  // deterministic ~75% "unvisited"
  }
  static bool cond_vertex(VertexId v, NullProblem&) {
    return ((v * 2246822519u) >> 30) != 0;
  }
  static void apply_vertex(VertexId, NullProblem&) {}
};

std::vector<std::uint32_t> every_kth_vertex(const Csr& g, std::uint32_t k) {
  std::vector<std::uint32_t> out;
  for (VertexId v = 0; v < g.num_vertices(); v += k) out.push_back(v);
  return out;
}

class ThreadRestorer {
 public:
  ThreadRestorer() : saved_(omp_get_max_threads()) {}
  ~ThreadRestorer() { omp_set_num_threads(saved_); }

 private:
  int saved_;
};

std::vector<Csr> test_graphs() {
  std::vector<Csr> gs;
  gs.push_back(testing::undirected(rmat(11, 16, 5)));        // power-law
  gs.push_back(testing::undirected(erdos_renyi(2048, 16384, 9)));  // uniform
  return gs;
}

std::vector<std::uint32_t> run_advance(const Csr& g,
                                       const std::vector<std::uint32_t>& seed,
                                       AdvanceStrategy strategy,
                                       Direction dir = Direction::kPush) {
  simt::Device dev;
  NullProblem p;
  Frontier in, out;
  in.assign(seed);
  AdvanceConfig cfg;
  cfg.strategy = strategy;
  cfg.direction = dir;
  AdvanceWorkspace ws;
  advance<StatelessFunctor>(dev, g, in, out, p, cfg, ws);
  return out.items();
}

constexpr AdvanceStrategy kAllStrategies[] = {
    AdvanceStrategy::kThreadFine, AdvanceStrategy::kTwc,
    AdvanceStrategy::kLoadBalanced, AdvanceStrategy::kAuto};

TEST(Determinism, AdvanceIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  for (const Csr& g : test_graphs()) {
    const auto seed = every_kth_vertex(g, 3);
    for (AdvanceStrategy s : kAllStrategies) {
      omp_set_num_threads(1);
      const auto ref = run_advance(g, seed, s);
      ASSERT_FALSE(ref.empty());
      for (int threads : {4, 16}) {
        omp_set_num_threads(threads);
        EXPECT_EQ(run_advance(g, seed, s), ref)
            << to_string(s) << " with " << threads << " threads";
      }
    }
  }
}

TEST(Determinism, AdvanceIdenticalAcrossStrategies) {
  // All push strategies place accepted edges at their (frontier position,
  // edge index) rank, so the emitted frontier is identical — not just as a
  // set, but element for element.
  for (const Csr& g : test_graphs()) {
    const auto seed = every_kth_vertex(g, 3);
    const auto ref = run_advance(g, seed, AdvanceStrategy::kThreadFine);
    ASSERT_FALSE(ref.empty());
    for (AdvanceStrategy s :
         {AdvanceStrategy::kTwc, AdvanceStrategy::kLoadBalanced,
          AdvanceStrategy::kAuto}) {
      EXPECT_EQ(run_advance(g, seed, s), ref) << to_string(s);
    }
  }
}

TEST(Determinism, AdvanceLbNodeAndEdgeChunkingAgree) {
  // Force both LB mappings across the node/edge threshold boundary.
  for (const Csr& g : test_graphs()) {
    const auto seed = every_kth_vertex(g, 2);
    simt::Device dev;
    NullProblem p;
    Frontier in, out_nodes, out_edges;
    in.assign(seed);
    AdvanceConfig cfg;
    cfg.strategy = AdvanceStrategy::kLoadBalanced;
    AdvanceWorkspace ws;
    cfg.lb_node_edge_threshold = 0xffffffffu;  // always chunk by nodes
    advance<StatelessFunctor>(dev, g, in, out_nodes, p, cfg, ws);
    cfg.lb_node_edge_threshold = 0;  // always chunk by edges
    advance<StatelessFunctor>(dev, g, in, out_edges, p, cfg, ws);
    EXPECT_EQ(out_nodes.items(), out_edges.items());
  }
}

TEST(Determinism, PullAdvanceIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  for (const Csr& g : test_graphs()) {
    const auto seed = every_kth_vertex(g, 3);
    omp_set_num_threads(1);
    const auto ref =
        run_advance(g, seed, AdvanceStrategy::kAuto, Direction::kPull);
    ASSERT_FALSE(ref.empty());
    for (int threads : {4, 16}) {
      omp_set_num_threads(threads);
      EXPECT_EQ(run_advance(g, seed, AdvanceStrategy::kAuto, Direction::kPull),
                ref)
          << threads << " threads";
    }
  }
}

TEST(Determinism, FilterPreservesInputOrder) {
  ThreadRestorer restore;
  const Csr g = testing::undirected(rmat(11, 16, 5));
  const auto in = every_kth_vertex(g, 1);
  // Reference: a serial copy_if over the input.
  std::vector<std::uint32_t> ref;
  NullProblem p;
  for (std::uint32_t v : in)
    if (StatelessFunctor::cond_vertex(v, p)) ref.push_back(v);
  for (int threads : {1, 4, 16}) {
    omp_set_num_threads(threads);
    simt::Device dev;
    std::vector<std::uint32_t> out;
    FilterWorkspace ws;
    filter_vertices<StatelessFunctor>(dev, in, out, p, FilterConfig{}, ws);
    EXPECT_EQ(out, ref) << threads << " threads";
  }
}

TEST(Determinism, FilterEdgesPreservesInputOrder) {
  ThreadRestorer restore;
  NullProblem p;
  for (std::uint32_t e = 0; e < 4096; ++e)
    p.edges.emplace_back(e % 61, (e * 7) % 61);
  struct KeepDifferent {
    static bool cond_edge(VertexId s, VertexId d, EdgeId, NullProblem&) {
      return s != d;
    }
    static void apply_edge(VertexId, VertexId, EdgeId, NullProblem&) {}
  };
  std::vector<std::uint32_t> in(p.edges.size());
  for (std::uint32_t i = 0; i < in.size(); ++i) in[i] = i;
  std::vector<std::uint32_t> ref;
  for (std::uint32_t e : in)
    if (p.edges[e].first != p.edges[e].second) ref.push_back(e);
  for (int threads : {1, 4, 16}) {
    omp_set_num_threads(threads);
    simt::Device dev;
    std::vector<std::uint32_t> out;
    FilterWorkspace ws;
    filter_edges<KeepDifferent>(dev, in, out, p, ws);
    EXPECT_EQ(out, ref) << threads << " threads";
  }
}

TEST(Determinism, DedupFilterNeverDropsDistinctVertices) {
  // The history cull is best-effort under parallelism (racing duplicates
  // may slip through — never the reverse): every distinct vertex survives
  // at every thread count, and a serial pass with a table covering the id
  // space culls duplicates exactly.
  ThreadRestorer restore;
  std::vector<std::uint32_t> in;
  for (std::uint32_t i = 0; i < 20000; ++i) in.push_back((i * 97u) % 4096u);
  std::vector<std::uint32_t> expected(in.begin(), in.end());
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  struct PassAll {
    static bool cond_vertex(VertexId, NullProblem&) { return true; }
    static void apply_vertex(VertexId, NullProblem&) {}
  };
  FilterConfig cfg;
  cfg.dedup_heuristic = true;
  cfg.history_bits = 12;  // table covers ids [0, 4096)
  NullProblem p;
  for (int threads : {1, 4, 16}) {
    omp_set_num_threads(threads);
    simt::Device dev;
    FilterWorkspace ws;
    std::vector<std::uint32_t> out;
    const FilterStats s = filter_vertices<PassAll>(dev, in, out, p, cfg, ws);
    // Survivors + culled account for every input; nothing vanishes.
    EXPECT_EQ(out.size() + s.culled_by_history, in.size())
        << threads << " threads";
    std::sort(out.begin(), out.end());
    if (threads == 1) {
      EXPECT_EQ(out, expected);  // serial + covering table: exact cull
    } else {
      // Parallel: every distinct vertex still present at least once.
      out.erase(std::unique(out.begin(), out.end()), out.end());
      EXPECT_EQ(out, expected) << threads << " threads";
    }
  }
}

TEST(Determinism, SplitNearFarPreservesInputOrder) {
  ThreadRestorer restore;
  std::vector<std::uint32_t> items(5000);
  for (std::uint32_t i = 0; i < items.size(); ++i)
    items[i] = (i * 2654435761u) >> 16;
  auto is_near = [](std::uint32_t v) { return (v & 1u) == 0; };
  std::vector<std::uint32_t> ref_near, ref_far{777u};  // far pile appends
  for (std::uint32_t v : items)
    (is_near(v) ? ref_near : ref_far).push_back(v);
  for (int threads : {1, 4, 16}) {
    omp_set_num_threads(threads);
    simt::Device dev;
    std::vector<std::uint32_t> near, far{777u};
    split_near_far(dev, items, near, far, is_near);
    EXPECT_EQ(near, ref_near) << threads << " threads";
    EXPECT_EQ(far, ref_far) << threads << " threads";
  }
}

// --- batched traversal ------------------------------------------------------
//
// The batch engine's lane updates are commutative (OR, equal-value depth
// stores, atomicMin), so batched *results* must be byte-identical across
// host thread counts AND equal, lane for lane, to B independent
// single-query runs. B > 64 exercises the multi-word mask path.

using testing::scattered_sources;

TEST(Determinism, BatchBfsIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  // Direction-optimal (legal: test_graphs() are symmetrized), so both the
  // push advance and the batch pull step are exercised.
  QueryOptions bopts;
  bopts.direction = Direction::kOptimal;
  for (const Csr& g : test_graphs()) {
    const auto sources = scattered_sources(g, 67);
    omp_set_num_threads(1);
    simt::Device dev;
    Engine eng(dev, g);
    const BatchBfsResult ref = eng.batch_bfs(sources, bopts);
    // Per-lane cross-check against independent single-query runs.
    QueryOptions opts;
    opts.record_predecessors = false;
    for (std::uint32_t q = 0; q < ref.num_lanes; ++q) {
      const BfsResult single = eng.bfs(sources[q], opts);
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        ASSERT_EQ(ref.depth_at(v, q), single.depth[v])
            << "lane " << q << " vertex " << v;
    }
    for (int threads : {4, 16}) {
      omp_set_num_threads(threads);
      const BatchBfsResult run = eng.batch_bfs(sources, bopts);
      EXPECT_EQ(run.depth, ref.depth) << threads << " threads";
      EXPECT_EQ(run.summary.iterations, ref.summary.iterations)
          << threads << " threads";
    }
  }
}

TEST(Determinism, BatchSsspIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  for (const Csr& g : test_graphs()) {
    const auto sources = scattered_sources(g, 67);
    omp_set_num_threads(1);
    simt::Device dev;
    Engine eng(dev, g);
    const BatchSsspResult ref = eng.batch_sssp(sources);
    for (std::uint32_t q = 0; q < ref.num_lanes; ++q) {
      const SsspResult single = eng.sssp(sources[q]);
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        ASSERT_EQ(ref.dist_at(v, q), single.dist[v])
            << "lane " << q << " vertex " << v;
    }
    for (int threads : {4, 16}) {
      omp_set_num_threads(threads);
      const BatchSsspResult run = eng.batch_sssp(sources);
      EXPECT_EQ(run.dist, ref.dist) << threads << " threads";
    }
  }
}

TEST(Determinism, BatchBcForwardIdenticalAcrossThreadCounts) {
  // Sigma values are integer counts stored in doubles, so the atomic adds
  // commute exactly and the forward pass is byte-deterministic too.
  ThreadRestorer restore;
  const Csr g = testing::undirected(rmat(10, 16, 5));
  const auto sources = scattered_sources(g, 67);
  omp_set_num_threads(1);
  simt::Device dev;
  Engine eng(dev, g);
  const BatchBcForwardResult ref = eng.batch_bc_forward(sources);
  for (int threads : {4, 16}) {
    omp_set_num_threads(threads);
    const BatchBcForwardResult run = eng.batch_bc_forward(sources);
    EXPECT_EQ(run.depth, ref.depth) << threads << " threads";
    EXPECT_EQ(run.sigma, ref.sigma) << threads << " threads";
  }
}

// --- priority-frontier SSSP --------------------------------------------------
//
// The near/far schedule adds scheduling state (cutoffs, piles, per-lane
// levels) on top of the assembler guarantees. Pile membership is a pure
// function of post-advance distances and cutoffs, and all tallies are
// commutative sums/mins, so distances, iteration counts, and the schedule
// stats themselves must be byte-identical across 1/2/8 host threads and
// across every advance strategy.

// PageRank gathers each vertex's in-neighbor contributions in CSR order,
// which is the order the serial power iteration accumulates them in: with
// pruning off the ranks are the oracle's bytes at any thread count.
// (shrink 4 keeps every graph above the device's serial-launch cutoff, so
// the multi-thread runs really fan out.)
TEST(Determinism, PagerankByteEqualToOracleAcrossThreadCounts) {
  ThreadRestorer restore;
  for (const char* name : {"soc-orkut-s", "kron-s", "roadnet-s"}) {
    const Csr g = build_dataset(name, /*shrink=*/4);
    const std::vector<double> oracle = serial::pagerank(g, 0.85, 20);
    QueryOptions opts;
    opts.epsilon = 0.0;
    opts.max_iterations = 20;
    for (int threads : {1, 2, 8}) {
      omp_set_num_threads(threads);
      simt::Device dev;
      Engine eng(dev, g);
      EXPECT_EQ(eng.pagerank(opts).rank, oracle)
          << name << ", " << threads << " threads";
    }
  }
}

// CC's rounds read the round-start labels and write second arrays (the
// hook minimum, double-buffered pointer jumping), so its labels, work
// counts, launches and device time are the same at any thread count. It
// runs no advance, so the advance strategy must not move them either.
TEST(Determinism, CcIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  for (const char* name : {"soc-orkut-s", "roadnet-s"}) {
    const Csr g = build_dataset(name, /*shrink=*/4);
    const std::vector<VertexId> oracle = serial::connected_components(g);
    omp_set_num_threads(1);
    simt::Device ref_dev;
    const CcResult ref = Engine(ref_dev, g).cc();
    ASSERT_EQ(ref.component, oracle) << name;
    ASSERT_GT(ref.summary.iterations, 1u) << name;
    for (int threads : {1, 2, 8}) {
      omp_set_num_threads(threads);
      for (AdvanceStrategy s :
           {AdvanceStrategy::kThreadFine, AdvanceStrategy::kTwc,
            AdvanceStrategy::kLoadBalanced, AdvanceStrategy::kAuto}) {
        QueryOptions opts;
        opts.strategy = s;
        simt::Device dev;
        const CcResult run = Engine(dev, g).cc(opts);
        const std::string at = std::string(name) + ", " +
                               std::to_string(threads) + " threads, " +
                               to_string(s);
        EXPECT_EQ(run.component, oracle) << at;
        EXPECT_EQ(run.summary.iterations, ref.summary.iterations) << at;
        EXPECT_EQ(run.summary.edges_processed, ref.summary.edges_processed)
            << at;
        EXPECT_EQ(run.summary.counters.kernel_launches,
                  ref.summary.counters.kernel_launches)
            << at;
        EXPECT_EQ(run.summary.device_time_ms, ref.summary.device_time_ms)
            << at;
      }
    }
  }
}

TEST(Determinism, SsspNearFarIdenticalAcrossThreadCounts) {
  ThreadRestorer restore;
  for (const Csr& g : test_graphs()) {
    QueryOptions opts;
    opts.delta = 16;  // force a fine schedule (many splits)
    omp_set_num_threads(1);
    simt::Device dev;
    Engine eng(dev, g);
    const SsspResult ref = eng.sssp(3, opts);
    ASSERT_GT(ref.pq_stats.splits, 0u);
    for (int threads : {2, 8}) {
      omp_set_num_threads(threads);
      const SsspResult run = eng.sssp(3, opts);
      EXPECT_EQ(run.dist, ref.dist) << threads << " threads";
      EXPECT_EQ(run.pq_stats, ref.pq_stats) << threads << " threads";
      EXPECT_EQ(run.summary.iterations, ref.summary.iterations)
          << threads << " threads";
    }
  }
}

TEST(Determinism, SsspNearFarIdenticalAcrossStrategies) {
  for (const Csr& g : test_graphs()) {
    simt::Device dev;
    Engine eng(dev, g);
    QueryOptions opts;
    opts.delta = 16;
    opts.strategy = AdvanceStrategy::kThreadFine;
    const SsspResult ref = eng.sssp(3, opts);
    for (AdvanceStrategy s :
         {AdvanceStrategy::kTwc, AdvanceStrategy::kLoadBalanced,
          AdvanceStrategy::kAuto}) {
      opts.strategy = s;
      const SsspResult run = eng.sssp(3, opts);
      EXPECT_EQ(run.dist, ref.dist) << to_string(s);
      EXPECT_EQ(run.pq_stats, ref.pq_stats) << to_string(s);
    }
  }
}

TEST(Determinism, BatchSsspNearFarIdenticalAcrossThreadCounts) {
  // B = 67 exercises the multi-word mask path through the claim+split and
  // wake kernels; per-lane stats must match cell for cell, not just the
  // distance matrix.
  ThreadRestorer restore;
  for (const Csr& g : test_graphs()) {
    const auto sources = scattered_sources(g, 67);
    QueryOptions bopts;
    bopts.delta = 16;
    omp_set_num_threads(1);
    simt::Device dev;
    Engine eng(dev, g);
    const BatchSsspResult ref = eng.batch_sssp(sources, bopts);
    ASSERT_EQ(ref.lane_stats.size(), sources.size());
    std::uint64_t total_splits = 0;
    for (const PriorityQueueStats& s : ref.lane_stats)
      total_splits += s.splits;
    ASSERT_GT(total_splits, 0u);
    // Per-lane ground truth: every lane equals its single-query run.
    for (std::uint32_t q = 0; q < ref.num_lanes; ++q) {
      const SsspResult single = eng.sssp(sources[q]);
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        ASSERT_EQ(ref.dist_at(v, q), single.dist[v])
            << "lane " << q << " vertex " << v;
    }
    for (int threads : {2, 8}) {
      omp_set_num_threads(threads);
      const BatchSsspResult run = eng.batch_sssp(sources, bopts);
      EXPECT_EQ(run.dist, ref.dist) << threads << " threads";
      EXPECT_EQ(run.lane_stats, ref.lane_stats) << threads << " threads";
      EXPECT_EQ(run.summary.iterations, ref.summary.iterations)
          << threads << " threads";
    }
  }
}

TEST(Determinism, BatchSsspNearFarIdenticalAcrossStrategies) {
  const Csr g = testing::undirected(rmat(11, 16, 5));
  const auto sources = scattered_sources(g, 67);
  simt::Device dev;
  Engine eng(dev, g);
  QueryOptions bopts;
  bopts.delta = 16;
  bopts.strategy = AdvanceStrategy::kThreadFine;
  const BatchSsspResult ref = eng.batch_sssp(sources, bopts);
  for (AdvanceStrategy s :
       {AdvanceStrategy::kTwc, AdvanceStrategy::kLoadBalanced,
        AdvanceStrategy::kAuto}) {
    bopts.strategy = s;
    const BatchSsspResult run = eng.batch_sssp(sources, bopts);
    EXPECT_EQ(run.dist, ref.dist) << to_string(s);
    EXPECT_EQ(run.lane_stats, ref.lane_stats) << to_string(s);
    EXPECT_EQ(run.summary.iterations, ref.summary.iterations)
        << to_string(s);
  }
}

// --- vector backend axis -----------------------------------------------------
//
// The lane-word kernels (simt/vec.hpp) promise byte parity across
// backends: kScalar is the reference semantics, and every vector path must
// reproduce its frontiers, labels, per-lane schedule stats, iteration
// counts, and even the pull probe counts (edges_processed feeds the cost
// model) bit for bit. B = 67 keeps the multi-word mask path in play.

constexpr simt::VecBackend kVecRequests[] = {
    simt::VecBackend::kAvx2, simt::VecBackend::kAvx512,
    simt::VecBackend::kAuto};

TEST(Determinism, BatchResultsIdenticalAcrossVecBackends) {
  for (const Csr& g : test_graphs()) {
    const auto sources = scattered_sources(g, 67);
    simt::Device dev;
    Engine eng(dev, g);
    QueryOptions sopts;
    sopts.direction = Direction::kOptimal;  // exercise the batch pull step
    sopts.delta = 16;                       // and the claim-split/wake path
    sopts.vec = simt::VecBackend::kScalar;
    const BatchBfsResult bfs_ref = eng.batch_bfs(sources, sopts);
    const BatchSsspResult sssp_ref = eng.batch_sssp(sources, sopts);
    const BatchReachabilityResult reach_ref =
        eng.batch_reachability(sources, sopts);
    const BatchBcForwardResult bc_ref = eng.batch_bc_forward(sources, sopts);
    ASSERT_EQ(bfs_ref.backend, simt::VecBackend::kScalar);
    for (const simt::VecBackend req : kVecRequests) {
      QueryOptions o = sopts;
      o.vec = req;
      const BatchBfsResult bfs = eng.batch_bfs(sources, o);
      EXPECT_EQ(bfs.backend, simt::resolve_backend(req)) << to_string(req);
      EXPECT_EQ(bfs.depth, bfs_ref.depth) << to_string(req);
      EXPECT_EQ(bfs.summary.iterations, bfs_ref.summary.iterations)
          << to_string(req);
      EXPECT_EQ(bfs.summary.edges_processed, bfs_ref.summary.edges_processed)
          << to_string(req);
      const BatchSsspResult sssp = eng.batch_sssp(sources, o);
      EXPECT_EQ(sssp.dist, sssp_ref.dist) << to_string(req);
      EXPECT_EQ(sssp.lane_stats, sssp_ref.lane_stats) << to_string(req);
      EXPECT_EQ(sssp.delta, sssp_ref.delta) << to_string(req);
      EXPECT_EQ(sssp.summary.iterations, sssp_ref.summary.iterations)
          << to_string(req);
      const BatchReachabilityResult reach = eng.batch_reachability(sources, o);
      for (VertexId v = 0; v < g.num_vertices(); ++v)
        for (std::uint32_t w = 0; w < reach.visited.words_per_vertex(); ++w)
          ASSERT_EQ(reach.visited.row(v)[w], reach_ref.visited.row(v)[w])
              << to_string(req) << " vertex " << v << " word " << w;
      const BatchBcForwardResult bc = eng.batch_bc_forward(sources, o);
      EXPECT_EQ(bc.depth, bc_ref.depth) << to_string(req);
      EXPECT_EQ(bc.sigma, bc_ref.sigma) << to_string(req);
    }
  }
}

TEST(Determinism, WorkspaceReuseMatchesFreshWorkspace) {
  // Pooled workspaces must be invisible to results: running a second,
  // different advance on a reused workspace gives the same output as a
  // fresh one.
  const Csr g = testing::undirected(rmat(11, 16, 5));
  const auto big = every_kth_vertex(g, 2);
  const auto small = every_kth_vertex(g, 17);
  AdvanceWorkspace reused;
  simt::Device dev;
  NullProblem p;
  AdvanceConfig cfg;
  Frontier in, out;
  in.assign(big);
  advance<StatelessFunctor>(dev, g, in, out, p, cfg, reused);
  in.assign(small);
  advance<StatelessFunctor>(dev, g, in, out, p, cfg, reused);
  EXPECT_EQ(out.items(), run_advance(g, small, AdvanceStrategy::kAuto));
}

}  // namespace
}  // namespace grx
