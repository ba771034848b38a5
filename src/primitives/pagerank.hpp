// PageRank (Section 5.5): the frontier starts as all vertices; each
// iteration is one advance (scatter rank/degree to neighbors with
// atomicAdd) plus one filter (drop vertices whose rank has converged).
#pragma once

#include "core/advance.hpp"
#include "core/enactor.hpp"
#include "graph/csr.hpp"

namespace grx {

struct PagerankOptions {
  AdvanceStrategy strategy = AdvanceStrategy::kAuto;
  double damping = 0.85;
  /// Per-vertex convergence threshold for frontier pruning. 0 disables
  /// pruning (every vertex iterates to max_iterations — the mode used for
  /// oracle comparison and for per-iteration timing, as in Table 3 where
  /// "all PageRank times are normalized to one iteration").
  double epsilon = 1e-6;
  std::uint32_t max_iterations = 50;
};

struct PagerankResult {
  std::vector<double> rank;  ///< sums to 1 over all vertices
  EnactSummary summary;
};

// Delta-residual formulation: every vertex v keeps `sent[v]`, the
// contribution (rank/degree) it last pushed; the advance pushes only the
// *change* into a persistent per-vertex accumulator `incoming`. When the
// filter prunes a converged vertex from the frontier (Section 5.5), its
// last contribution stays in its neighbors' accumulators, so the pruning
// error is bounded by epsilon rather than by the vertex's whole rank.
struct PrProblem {
  const Csr* g = nullptr;
  std::vector<double> rank;
  std::vector<double> incoming;  // persistent sum of neighbor contributions
  std::vector<double> sent;      // last contribution distributed per vertex
  std::vector<std::uint8_t> converged;
  double epsilon = 0.0;
};

/// Persistent PageRank enactor with a pooled Problem; repeated enactments
/// on one graph allocate nothing in steady state with a reused result.
class PrEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  void enact(const Csr& g, const PagerankOptions& opts, PagerankResult& out);

 private:
  PrProblem problem_;
};

}  // namespace grx
