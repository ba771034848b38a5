// Filter: choose a subset of the current frontier (Section 4.1).
//
// Two shapes, matching the paper's uses:
//  * filter_vertices — CondVertex/ApplyVertex over a vertex frontier, with
//    optional cheap duplicate-culling heuristics for idempotent primitives
//    (a history hash table: "a series of inexpensive heuristics to reduce,
//    but not eliminate, redundant entries", Section 4.5);
//  * filter_edges — CondEdge over an *edge* frontier (MST's Boruvka rounds
//    operate on edges; the problem supplies endpoint lookup).
//
// Operator contracts and dedup semantics: docs/operators.md.
#pragma once

#include <cstdint>
#include <vector>

#include "core/frontier.hpp"
#include "core/functor.hpp"
#include "simt/atomic.hpp"
#include "simt/device.hpp"
#include "simt/primitives.hpp"

namespace grx {

struct FilterConfig {
  /// Enable the history-hash duplicate-culling heuristic (idempotent mode).
  bool dedup_heuristic = false;
  /// History table size (power of two). 64K entries ~ Gunrock's default.
  /// Callers may clamp this to the smallest power of two covering |V| (the
  /// BFS enactor does), which eliminates collision misses — the cull then
  /// misses only racing concurrent duplicates.
  std::uint32_t history_bits = 16;
};

struct FilterStats {
  std::uint64_t inputs = 0;
  std::uint64_t outputs = 0;
  std::uint64_t culled_by_history = 0;
};

/// Scratch persisting across filter calls: the dedup history table and the
/// two-phase output-assembly pools. History entries are generation-stamped
/// ((generation << 32) | vertex), so `new_generation()` invalidates the
/// whole table in O(1) at enactment start — a vertex seen by a *previous*
/// enact() on the same workspace can never cull one from a fresh traversal.
struct FilterWorkspace {
  std::vector<std::uint64_t> history;
  std::uint32_t generation = 1;  ///< starts at 1: the zero fill never matches
  simt::ChunkedOutput out;
  std::vector<std::uint32_t> warp_culled;  ///< dedup-cull counts per warp

  void new_generation() { ++generation; }
};

/// Charges the stream-compaction flag pass of the filter kernel (the
/// count/scan/scatter of the output queue is charged by scatter_into).
/// Fused into the filter kernel itself, so no separate launch is paid.
inline void simt_compact_charge(simt::Device& dev, std::size_t n) {
  dev.charge_pass("filter_compact", n, simt::CostModel::kCoalesced,
                  /*fused=*/true);
}

/// Vertex-frontier filter. Keeps v iff cond_vertex(v); runs apply_vertex on
/// survivors. Output preserves input order (deterministic across thread
/// counts): each warp stages its survivors compactly, a scan places them.
template <typename F, typename P>
  requires VertexFunctor<F, P>
FilterStats filter_vertices(simt::Device& dev,
                            const std::vector<std::uint32_t>& in,
                            std::vector<std::uint32_t>& out, P& prob,
                            const FilterConfig& cfg, FilterWorkspace& ws) {
  constexpr std::size_t kWarp = simt::CostModel::kWarpSize;
  FilterStats stats;
  stats.inputs = in.size();

  const std::uint32_t mask = (1u << cfg.history_bits) - 1;
  if (cfg.dedup_heuristic &&
      ws.history.size() != static_cast<std::size_t>(mask) + 1) {
    ws.history.assign(static_cast<std::size_t>(mask) + 1, 0);
  }
  const std::uint64_t tag =
      static_cast<std::uint64_t>(ws.generation) << 32;

  const std::size_t num_warps = (in.size() + kWarp - 1) / kWarp;
  ws.out.begin(num_warps, num_warps * kWarp);
  if (ws.warp_culled.size() < num_warps) ws.warp_culled.resize(num_warps);
  dev.for_each("filter", in.size(), [&](simt::Lane& lane, std::size_t i) {
    const std::size_t warp = i / kWarp;
    if (i % kWarp == 0) {
      ws.out.counts[warp] = 0;
      ws.warp_culled[warp] = 0;
    }
    const std::uint32_t v = in[i];
    lane.load_coalesced();  // queue read
    if (cfg.dedup_heuristic) {
      // Best-effort duplicate cull (paper Section 4.5: "reduce, but not
      // eliminate, redundant entries"): plain load/store keeps the common
      // non-duplicate path free of locked RMWs — racing occurrences of the
      // same vertex may all slip through, but a distinct vertex is never
      // wrongly dropped, so enabling primitives must be idempotent. The
      // cull is exact only for a serial pass with a table covering the id
      // space.
      lane.alu(2);
      const std::uint32_t slot = v & mask;
      const std::uint64_t entry = tag | v;
      if (simt::atomic_load(ws.history[slot]) == entry) {
        ws.warp_culled[warp]++;  // warp-local tally, reduced after the pass
        return;
      }
      simt::atomic_store(ws.history[slot], entry);
    }
    lane.load_scattered();  // per-vertex problem-data read
    if (F::cond_vertex(v, prob)) {
      F::apply_vertex(v, prob);
      ws.out.scratch[warp * kWarp + ws.out.counts[warp]++] = v;
    }
  });
  simt::scatter_into(dev, ws.out, num_warps, out,
                     [](std::size_t c) { return c * kWarp; });
  simt_compact_charge(dev, in.size());
  stats.outputs = out.size();
  if (cfg.dedup_heuristic)
    for (std::size_t w = 0; w < num_warps; ++w)
      stats.culled_by_history += ws.warp_culled[w];
  return stats;
}

/// Edge-frontier filter. P must provide
/// `std::pair<VertexId, VertexId> edge_endpoints(std::uint32_t e) const`.
/// Output preserves input order, like filter_vertices.
template <typename F, typename P>
  requires EdgeFunctor<F, P> &&
           requires(P& p, std::uint32_t e) { p.edge_endpoints(e); }
FilterStats filter_edges(simt::Device& dev,
                         const std::vector<std::uint32_t>& in,
                         std::vector<std::uint32_t>& out, P& prob,
                         FilterWorkspace& ws) {
  constexpr std::size_t kWarp = simt::CostModel::kWarpSize;
  FilterStats stats;
  stats.inputs = in.size();
  const std::size_t num_warps = (in.size() + kWarp - 1) / kWarp;
  ws.out.begin(num_warps, num_warps * kWarp);
  dev.for_each("filter_edges", in.size(), [&](simt::Lane& lane,
                                              std::size_t i) {
    const std::size_t warp = i / kWarp;
    if (i % kWarp == 0) ws.out.counts[warp] = 0;
    const std::uint32_t e = in[i];
    lane.load_coalesced();   // queue read
    lane.load_scattered();   // endpoint component reads
    const auto [s, d] = prob.edge_endpoints(e);
    if (F::cond_edge(s, d, e, prob)) {
      F::apply_edge(s, d, e, prob);
      ws.out.scratch[warp * kWarp + ws.out.counts[warp]++] = e;
    }
  });
  simt::scatter_into(dev, ws.out, num_warps, out,
                     [](std::size_t c) { return c * kWarp; });
  simt_compact_charge(dev, in.size());
  stats.outputs = out.size();
  return stats;
}

}  // namespace grx
