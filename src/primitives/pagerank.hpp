// PageRank (Section 5.5): the frontier starts as all vertices; each
// iteration gathers rank/degree over every frontier vertex's in-neighbors
// with the neighbor-reduce operator (Section 7's gather-reduce, no
// atomics) and then filters out vertices whose rank has converged.
#pragma once

#include "core/enactor.hpp"
#include "graph/csr.hpp"

namespace grx {

struct PagerankResult {
  std::vector<double> rank;  ///< sums to 1 over all vertices
  EnactSummary summary;
};

// Pull formulation: every vertex v keeps `sent[v]`, its current
// contribution rank[v]/out-degree(v). Each iteration a frontier vertex
// gathers the sum of `sent` over its in-neighbors (a neighbor-reduce over
// the transpose, visiting them in ascending id order, the order the serial
// power iteration accumulates in) and updates its own rank. When the filter
// prunes a converged vertex from the frontier (Section 5.5), it keeps its
// last rank and contribution; the contribution lags the rank by one
// update, which the convergence test bounds by epsilon/n.
struct PrProblem {
  std::vector<double> rank;
  std::vector<double> sent;      // rank / out-degree per vertex
  std::vector<double> gathered;  // neighbor-reduce output, frontier-aligned
  std::vector<std::uint8_t> converged;
  double epsilon = 0.0;
};

/// Persistent PageRank enactor with a pooled Problem; repeated enactments
/// on one graph allocate nothing in steady state with a reused result.
class PrEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  /// Runs PageRank on `g`; `gT` must be its transpose (pass `g` itself for
  /// a symmetric graph).
  void enact(const Csr& g, const Csr& gT, const QueryOptions& opts,
             PagerankResult& out);

 private:
  PrProblem problem_;
};

}  // namespace grx
