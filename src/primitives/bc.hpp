// Betweenness centrality (Section 5.3), Brandes's two-phase formulation:
// a forward BFS accumulating shortest-path counts (sigma), then a backward
// sweep over the stored per-level frontiers accumulating dependencies
// (delta) — both expressed as Gunrock advance steps with fused compute.
#pragma once

#include "core/advance.hpp"
#include "core/enactor.hpp"
#include "graph/csr.hpp"
#include "util/bitset.hpp"

namespace grx {

struct BatchBcForwardResult;  // core/batch_enactor.hpp

struct BcResult {
  std::vector<double> bc_values;   ///< per-vertex centrality (one source)
  std::vector<double> sigma;       ///< shortest-path counts
  std::vector<std::uint32_t> depth;
  EnactSummary summary;
};

/// Per-graph persistent BC state (the Problem): depth/sigma/delta labels
/// and the discovery bitset, pooled across enactments.
struct BcProblem {
  std::vector<std::uint32_t> depth;
  std::vector<double> sigma;
  std::vector<double> delta;
  AtomicBitset visited;
  std::uint32_t iteration = 0;
};

/// Persistent BC enactor: pooled forward Problem, per-level frontier
/// store, and the backward-sweep scratch shared with the source-batched
/// path. Steady-state repeated queries allocate nothing with a reused
/// result.
class BcEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  void enact(const Csr& g, VertexId source, const QueryOptions& opts,
             BcResult& out);

  /// Backward half of source-batched BC: reconstructs lane `lane`'s
  /// per-level frontiers from the batched forward result (vertices bucketed
  /// by depth) and runs the standard backward sweep, folding dependencies
  /// into `acc`. Results match the single-source backward pass because the
  /// batched forward produces the identical depth/sigma per lane.
  void backward_accumulate(const Csr& g, const BatchBcForwardResult& fwd,
                           std::uint32_t lane, VertexId source,
                           const QueryOptions& opts, std::vector<double>& acc);

 private:
  BcProblem problem_;
  /// Forward levels, one frontier snapshot per BFS depth; slots (and their
  /// capacity) are reused across enactments — num_levels_ tracks use.
  std::vector<std::vector<std::uint32_t>> levels_;
  std::uint32_t num_levels_ = 0;
  // Batched-backward scratch: problem slices, level buckets, the level
  // frontier — pooled so across the B lanes of a batch only the first
  // call allocates.
  BcProblem bwd_problem_;
  std::vector<std::vector<std::uint32_t>> bwd_levels_;
  Frontier bwd_level_{FrontierKind::kVertex};
};

}  // namespace grx
