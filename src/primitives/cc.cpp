#include "primitives/cc.hpp"

#include <algorithm>
#include <numeric>

#include "core/program.hpp"
#include "util/timer.hpp"

namespace grx {
namespace {

constexpr std::uint64_t kNoProposer = 0xFFFFFFFFu;
constexpr CcProblem::Span kNoLabel{0xFFFFFFFFu, 0};

/// Keeps an active vertex that saw a label other than its own; one whose
/// neighbours all share its label keeps it so, as equal labels relabel alike.
struct MixedFunctor {
  static bool cond_vertex(VertexId v, CcProblem& p) { return p.mixed[v]; }
  static void apply_vertex(VertexId, CcProblem&) {}
};

/// Pointer doubling by each hooked root's designated proposer (least id
/// proposing its least label): read buffer `cur`, write the other with the
/// proposer kept, so an entry that stopped moving is equal in both.
struct JumpFunctor {
  static bool cond_vertex(VertexId v, CcProblem& p) {
    const VertexId r = p.comp[v];
    const std::vector<std::uint64_t>& from = p.jump[p.cur];
    if ((from[r] & kNoProposer) != v) return false;
    const std::uint64_t up = from[r] >> 32, next = from[up] >> 32;
    p.jump[p.cur ^ 1][r] = (next << 32) | v;
    return next != up;
  }
  static void apply_vertex(VertexId, CcProblem&) {}
};

/// CC as an operator program: one step is one round (see cc.hpp).
struct CcProgram {
  CcProblem& p;
  const Csr& gT;
  std::vector<std::uint32_t>& jf;
  std::vector<std::uint32_t>& njf;

  void init(OpContext& c) {
    const VertexId n = c.graph().num_vertices();
    p.comp.resize(n);
    std::iota(p.comp.begin(), p.comp.end(), VertexId{0});
    p.jump[0].resize(n);
    for (VertexId v = 0; v < n; ++v)
      p.jump[0][v] = (std::uint64_t{v} << 32) | kNoProposer;
    p.jump[1] = p.jump[0];
    p.mixed.resize(n);
    c.frontier().assign_iota(n);
  }

  bool converged(OpContext& c) { return c.frontier().empty(); }

  IterationStats step(OpContext& c) {
    const Csr& g = c.graph();
    const bool directed = &gT != &g;
    using Span = CcProblem::Span;
    const auto label = [](VertexId, VertexId u, EdgeId, CcProblem& q) {
      return Span{q.comp[u], q.comp[u]};
    };
    const auto widen = [](Span a, Span b) {
      return Span{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
    };
    c.neighbor_reduce<Span>(p.span, p, kNoLabel, label, widen);
    if (directed)
      c.neighbor_reduce<Span>(gT, p.span_t, p, kNoLabel, label, widen);

    // Hook: propose the least neighbour label to the star root. The min
    // over (label, proposer) is the same whichever write lands first.
    const auto& items = c.frontier().items();
    c.dev().for_each("cc_hook", items.size(), [&](simt::Lane& lane,
                                                  std::size_t i) {
      const VertexId v = items[i];
      const Span s = directed ? widen(p.span[i], p.span_t[i]) : p.span[i];
      lane.load_coalesced(2);  // gathered span read + flag write
      lane.load_scattered();   // own label read
      const VertexId r = p.comp[v];
      p.mixed[v] = s.lo < r || s.hi > r;
      if (s.lo >= r) return;
      lane.atomic();
      simt::atomic_min(p.jump[p.cur][r], (std::uint64_t{s.lo} << 32) | v);
    });

    std::uint64_t arcs = 0;
    for (const VertexId v : items)
      arcs += g.degree(v) + (directed ? gT.degree(v) : 0);
    c.filter_frontier<MixedFunctor>(p);
    const auto& next = c.staged().items();
    if (!next.empty()) {  // a vertex saw another label: some root hooked
      c.filter_into<JumpFunctor>(next, jf, p);
      for (p.cur ^= 1; !jf.empty(); p.cur ^= 1) {
        c.filter_into<JumpFunctor>(jf, njf, p);
        jf.swap(njf);
      }
      c.compute_all(g.num_vertices(), p, [](std::uint32_t v, CcProblem& q) {
        q.comp[v] = static_cast<VertexId>(q.jump[q.cur][q.comp[v]] >> 32);
      });
    }
    const IterationStats s{0, items.size(), next.size(), arcs, false};
    c.promote();
    return s;
  }
};

}  // namespace

void CcEnactor::enact(const Csr& g, const Csr& gT, const QueryOptions& opts,
                      CcResult& out) {
  GRX_CHECK(g.num_vertices() == gT.num_vertices());
  GRX_CHECK(g.num_edges() == gT.num_edges());
  Timer wall;
  begin_enact(opts);
  CcProgram prog{problem_, gT, jf_, njf_};
  const std::uint64_t arcs = run_program(g, prog);
  out.component.swap(problem_.comp);  // both keep their capacity
  out.num_components = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (out.component[v] == v) out.num_components++;
  finish_into(out.summary, arcs, wall.elapsed_ms());
}

}  // namespace grx
