// Connected components (Section 5.4): Soman et al.'s hooking + pointer
// jumping as a Jacobi schedule over a shrinking active-vertex frontier. A
// round gathers each active vertex's (min, max) neighbour label (pull
// neighbor-reduce), hooks star roots to their least proposed label, jumps
// pointers from the hooked roots only, relabels, and drops vertices whose
// neighbours share their label. Reads see the round's start state and
// writes land in a second array, so labels, counts and device time do not
// depend on the host thread count.
#pragma once

#include "core/enactor.hpp"
#include "graph/csr.hpp"

namespace grx {

struct CcResult {
  std::vector<VertexId> component;  ///< canonical: min vertex id in component
  std::uint32_t num_components = 0;
  EnactSummary summary;
};

/// Per-graph persistent CC state (the Problem), pooled across enactments
/// and re-sized in place. `jump` entries hold (parent << 32) | designated
/// proposer; only current roots' entries are read, and a root's stay
/// (id, none) in both buffers until it hooks.
struct CcProblem {
  struct Span { VertexId lo, hi; };  // least, greatest neighbour label
  std::vector<VertexId> comp;  // round-start label: a root, comp[root]==root
  std::vector<std::uint64_t> jump[2];  // hook target + pointer doubling
  unsigned cur = 0;                    // buffer with the newest pointers
  std::vector<std::uint8_t> mixed;     // active vertex saw another label
  std::vector<Span> span, span_t;      // gathers, frontier-aligned
};

class CcEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  /// Labels the weak components of `g`; `gT` must be its transpose (pass
  /// `g` itself for a symmetric graph, which gathers over one CSR only).
  void enact(const Csr& g, const Csr& gT, const QueryOptions& opts,
             CcResult& out);

 private:
  CcProblem problem_;
  std::vector<std::uint32_t> jf_, njf_;  // pointer-jump frontier pair
};

}  // namespace grx
