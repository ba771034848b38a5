// Neighborhood gather-reduce operator — the paper's first named piece of
// future work (Section 7): "a new gather-reduce operator on neighborhoods
// associated with vertices in the current frontier both fits nicely into
// Gunrock's abstraction and will significantly improve performance"
// compared to expressing reductions through atomics in an advance.
//
// For each frontier vertex v, computes
//     out[v] = reduce(init, map(v, u, e) for each incident edge (v,u,e))
// as a segmented reduction with no atomics. The mapping is static: warp w
// owns frontier items [32w, 32w+32) and sweeps their segments in turn, so
// unlike the LB advance there is no edge-balanced partition — a hub's
// segment lengthens its warp alone. Each segment is reduced in CSR edge
// order on one host thread, so results do not depend on the thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/frontier.hpp"
#include "graph/csr.hpp"
#include "simt/device.hpp"
#include "simt/primitives.hpp"

namespace grx {

/// Result values are written to out[i] for frontier item i (dense, aligned
/// with the input frontier order; prior contents are destroyed). `out`'s
/// capacity is retained across calls, so callers that keep it alive across
/// BSP iterations (as the primitives do) pay no steady-state allocations —
/// the same pooling discipline as the advance and filter workspaces.
///
/// `map(src, dst, e, prob) -> T`; `reduce(T, T) -> T`.
template <typename T, typename P, typename MapFn, typename ReduceFn>
void neighbor_reduce(simt::Device& dev, const Csr& g, const Frontier& in,
                     std::vector<T>& out, P& prob, T init, MapFn&& map,
                     ReduceFn&& reduce) {
  using CM = simt::CostModel;
  GRX_CHECK(in.kind() == FrontierKind::kVertex);
  const auto& items = in.items();
  out.assign(items.size(), init);
  if (items.empty()) return;

  // Segmented reduction at warp granularity: each warp owns 32 segments,
  // sweeping them cooperatively — coalesced edge reads, no atomics, one
  // coalesced result write per segment.
  const std::size_t num_warps =
      (items.size() + CM::kWarpSize - 1) / CM::kWarpSize;
  dev.for_each_warp("neighbor_reduce", num_warps, [&](simt::Warp& w) {
    const std::size_t base = w.id() * CM::kWarpSize;
    const std::size_t lanes =
        std::min<std::size_t>(CM::kWarpSize, items.size() - base);
    w.load_coalesced(static_cast<unsigned>(lanes));  // segment offsets
    std::uint64_t edges = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      const VertexId v = items[base + l];
      T acc = init;
      const EdgeId end = g.row_end(v);
      for (EdgeId e = g.row_start(v); e < end; ++e) {
        acc = reduce(acc, map(v, g.col_index(e), e, prob));
        ++edges;
      }
      out[base + l] = acc;
    }
    w.bulk(edges, CM::kCoalesced);                   // edge sweep
    w.load_coalesced(static_cast<unsigned>(lanes));  // result write
  });
}

}  // namespace grx
