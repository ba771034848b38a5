// QueryOptions: the one options type a query carries, from the grx::Engine
// façade down to every enactor (BfsEnactor::enact, BatchEnactor::bfs, ...).
//
// Callers hold one options object across heterogeneous queries (a serving
// loop does not branch on primitive kind to configure a request); each
// enactor reads the fields it consumes and ignores the rest. Defaults are
// the tuned values, so `engine.bfs(src)` runs the paper's configuration.
#pragma once

#include <cstdint>

#include "core/advance.hpp"
#include "core/cancel.hpp"
#include "simt/vec.hpp"

namespace grx {

struct QueryOptions {
  // --- traversal (advance-based primitives, single-source and batched) ---
  AdvanceStrategy strategy = AdvanceStrategy::kAuto;
  /// BFS / reachability traversal direction. kPull and kOptimal require a
  /// symmetric CSR: the pull step probes the graph's own rows as incoming
  /// edges, so the direction-agnostic kPush is the default. SSSP and BC
  /// are push-only and ignore it.
  Direction direction = Direction::kPush;
  /// Paper Section 4.4's LB node/edge crossover. Read by BFS and by the
  /// batched enacts, which scale it down by the batch width.
  std::uint32_t lb_node_edge_threshold =
      AdvanceConfig{}.lb_node_edge_threshold;
  /// Beamer's push->pull switch: pull once the frontier's edge volume
  /// exceeds |E|/pull_alpha (kOptimal only).
  double pull_alpha = AdvanceConfig{}.pull_alpha;

  // --- BFS ---
  /// Idempotent advance: plain reads/writes, duplicates tolerated,
  /// filter-side heuristic dedup. Non-idempotent uses an atomic claim.
  bool idempotent = true;
  bool record_predecessors = true;

  // --- SSSP (single-source and batched) ---
  /// Enable the near/far priority schedule. 0 delta means "auto": the
  /// shared sssp_auto_delta sizing (from mean weight and avg degree; low-
  /// degree graphs get a warp-wide bucket, only an edgeless graph stays
  /// unsplit). Batched SSSP scales it by the batch width and leaves the
  /// schedule off below avg degree 8 or 4096 vertices.
  bool use_priority_queue = true;
  std::uint32_t delta = 0;

  // --- batched kernels ---
  /// Vector backend for the batched lane-word kernels (simt/vec.hpp):
  /// kAuto picks the best CPU-supported path at enact time; kScalar forces
  /// the reference loops. Results are byte-identical across backends.
  simt::VecBackend vec = simt::VecBackend::kAuto;

  // --- PageRank ---
  /// Per-vertex convergence threshold for frontier pruning. 0 disables
  /// pruning (every vertex iterates to max_iterations — the mode used for
  /// oracle comparison and for per-iteration timing, as in Table 3 where
  /// "all PageRank times are normalized to one iteration").
  double epsilon = 1e-6;
  std::uint32_t max_iterations = 50;

  // --- MIS / coloring ---
  std::uint64_t seed = 2016;

  // --- serving-layer result cache (server queries only) ---
  /// Per-query opt-in to the server's epoch-keyed result cache
  /// (ServerOptions::cache; api/result_cache.hpp). With caching enabled
  /// on the server, `true` lets this query be served from — and its
  /// result published to — the cache, and lets it share one enact with
  /// identical in-flight queries (singleflight). `false` forces a
  /// dedicated computation and keeps the result out of the cache.
  /// Ignored by direct Engine queries and by a server whose cache is
  /// disabled. Never part of the fuse-compat key: it does not change
  /// result bytes, so differing `cache` flags may still fuse.
  bool cache = true;

  // --- robustness (all queries) ---
  /// Cooperative stop handle: every enactor arms itself with this token
  /// at begin_enact, and the iteration loops check it between BSP
  /// rounds — a cancel() or an expired deadline stops the enactment with
  /// CancelledError / DeadlineExceededError, leaving the enactor warm and
  /// immediately reusable. Inert by default (one branch per round).
  /// Server callers set deadlines on QueryRequest instead; the server
  /// overwrites this field with its own per-enact token (docs/api.md,
  /// "Failure semantics").
  CancelToken cancel;
};

}  // namespace grx
