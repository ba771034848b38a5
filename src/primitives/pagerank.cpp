#include "primitives/pagerank.hpp"

#include <cmath>

#include "core/compute.hpp"
#include "core/filter.hpp"
#include "core/program.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

struct DistributeFunctor {
  /// Scatter the contribution delta to dst. Returns false: PageRank's
  /// advance emits no output frontier (collect_outputs = false).
  static bool cond_edge(VertexId src, VertexId dst, EdgeId, PrProblem& p) {
    const double delta =
        p.rank[src] / static_cast<double>(p.g->degree(src)) - p.sent[src];
    if (delta != 0.0) simt::atomic_add(p.incoming[dst], delta);
    return false;
  }
  static void apply_edge(VertexId, VertexId, EdgeId, PrProblem&) {}
  /// Filter: keep vertices that have not converged.
  static bool cond_vertex(VertexId v, PrProblem& p) {
    return !p.converged[v];
  }
  static void apply_vertex(VertexId, PrProblem&) {}
};

/// PageRank as an operator program: distribute-advance, two compute steps
/// (sent bookkeeping, rank update + convergence test), prune-filter.
struct PrProgram {
  PrProblem& p;
  const PagerankOptions& opts;
  AdvanceConfig acfg;
  FilterConfig fcfg;
  std::uint32_t iter = 0;

  void init(OpContext& c) {
    const Csr& g = c.graph();
    const auto n = g.num_vertices();
    p.g = &g;
    p.rank.assign(n, 1.0 / n);
    p.incoming.assign(n, 0.0);
    p.sent.assign(n, 0.0);
    p.converged.assign(n, 0);
    p.epsilon = opts.epsilon;

    acfg.strategy = opts.strategy;
    acfg.idempotent = true;  // atomicAdd cost is charged via the cost model
    acfg.collect_outputs = false;
    iter = 0;

    c.frontier().assign_iota(n);
  }

  bool converged(OpContext& c) {
    return c.frontier().empty() || iter >= opts.max_iterations;
  }

  IterationStats step(OpContext& c) {
    const Csr& g = c.graph();
    const auto n = g.num_vertices();
    const AdvanceStats a = c.advance<DistributeFunctor>(p, acfg);
    // Record what each active vertex has now distributed in total.
    c.compute(p, [&](std::uint32_t v, PrProblem& prob) {
      if (g.degree(v))
        prob.sent[v] = prob.rank[v] / static_cast<double>(g.degree(v));
    });

    // Dangling mass: vertices with no edges spread uniformly.
    double dangling = 0.0;
    for (VertexId v = 0; v < n; ++v)
      if (g.degree(v) == 0) dangling += p.rank[v];
    c.dev().charge_pass("pr_dangling", n, simt::CostModel::kCoalesced);

    // PageRank update + convergence test (fused compute over all).
    const double base =
        (1.0 - opts.damping) / n + opts.damping * dangling / n;
    c.compute_all(n, p, [&](std::uint32_t v, PrProblem& prob) {
      const double next = base + opts.damping * prob.incoming[v];
      if (p.epsilon > 0.0 &&
          std::abs(next - prob.rank[v]) < p.epsilon * (1.0 / n))
        prob.converged[v] = 1;
      prob.rank[v] = next;
    });

    c.filter_frontier<DistributeFunctor>(p, fcfg);
    const IterationStats s{0, c.frontier().size(), c.staged().size(),
                           a.edges_processed, false};
    if (opts.epsilon > 0.0) c.promote();
    ++iter;
    return s;
  }
};

}  // namespace

void PrEnactor::enact(const Csr& g, const PagerankOptions& opts,
                      PagerankResult& out) {
  GRX_CHECK(g.num_vertices() > 0);
  PrProgram prog{problem_, opts, {}, {}};
  enact_program(g, prog, out.summary);
  out.rank = problem_.rank;
}

}  // namespace grx
