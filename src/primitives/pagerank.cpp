#include "primitives/pagerank.hpp"

#include <cmath>

#include "core/compute.hpp"
#include "core/filter.hpp"
#include "core/program.hpp"

namespace grx {
namespace {

/// The random-surfer damping factor (the paper's and every baseline's 0.85).
constexpr double kDamping = 0.85;

/// Filter: keep vertices that have not converged.
struct PruneFunctor {
  static bool cond_vertex(VertexId v, PrProblem& p) { return !p.converged[v]; }
  static void apply_vertex(VertexId, PrProblem&) {}
};

/// PageRank as an operator program: contribution compute, gather-reduce
/// over the transpose, rank-update compute, prune-filter.
struct PrProgram {
  PrProblem& p;
  const Csr& gT;
  const QueryOptions& opts;
  FilterConfig fcfg;
  std::uint32_t iter = 0;

  void init(OpContext& c) {
    const auto n = c.graph().num_vertices();
    p.rank.assign(n, 1.0 / n);
    p.sent.assign(n, 0.0);
    p.converged.assign(n, 0);
    p.epsilon = opts.epsilon;
    iter = 0;

    c.frontier().assign_iota(n);
  }

  bool converged(OpContext& c) {
    return c.frontier().empty() || iter >= opts.max_iterations;
  }

  IterationStats step(OpContext& c) {
    const Csr& g = c.graph();
    const auto n = g.num_vertices();

    // Dangling mass: vertices with no edges spread uniformly.
    double dangling = 0.0;
    for (VertexId v = 0; v < n; ++v)
      if (g.degree(v) == 0) dangling += p.rank[v];
    c.dev().charge_pass("pr_dangling", n, simt::CostModel::kCoalesced);
    const double base =
        (1.0 - kDamping) / n + kDamping * dangling / n;

    // What each active vertex sends along every out-edge this round.
    c.compute(p, [&](std::uint32_t v, PrProblem& prob) {
      if (g.degree(v))
        prob.sent[v] = prob.rank[v] / static_cast<double>(g.degree(v));
    });

    // Pull: sum the in-neighbors' contributions, in transpose row order.
    c.neighbor_reduce<double>(
        gT, p.gathered, p, 0.0,
        [](VertexId, VertexId u, EdgeId, PrProblem& prob) {
          return prob.sent[u];
        },
        [](double a, double b) { return a + b; });

    // Rank update + convergence test over the frontier (gathered[i]
    // belongs to frontier item i).
    const auto& items = c.frontier().items();
    c.compute_all(static_cast<std::uint32_t>(items.size()), p,
                  [&](std::uint32_t i, PrProblem& prob) {
                    const VertexId v = items[i];
                    const double next =
                        base + kDamping * prob.gathered[i];
                    if (prob.epsilon > 0.0 &&
                        std::abs(next - prob.rank[v]) <
                            prob.epsilon * (1.0 / n))
                      prob.converged[v] = 1;
                    prob.rank[v] = next;
                  });

    // A frontier holds no duplicates, so a full one is every vertex.
    std::uint64_t edges = gT.num_edges();
    if (items.size() != n) {
      edges = 0;
      for (const VertexId v : items) edges += gT.degree(v);
    }
    IterationStats s{0, items.size(), items.size(), edges, false};
    // Without pruning nothing ever converges: skip the no-op filter.
    if (opts.epsilon > 0.0) {
      c.filter_frontier<PruneFunctor>(p, fcfg);
      s.output_size = c.staged().size();
      c.promote();
    }
    ++iter;
    return s;
  }
};

}  // namespace

void PrEnactor::enact(const Csr& g, const Csr& gT, const QueryOptions& opts,
                      PagerankResult& out) {
  GRX_CHECK(g.num_vertices() > 0);
  GRX_CHECK(g.num_vertices() == gT.num_vertices());
  GRX_CHECK(g.num_edges() == gT.num_edges());
  PrProgram prog{problem_, gT, opts, {}};
  enact_program(g, opts, prog, out.summary);
  out.rank = problem_.rank;
}

}  // namespace grx
