// Single-source shortest path (Sections 4.1 and 5.2).
//
// Per iteration: advance relaxes all frontier-incident edges with an
// atomicMin; then, with the two-level near/far priority frontier on
// (delta-stepping, Davidson et al. — see core/priority_queue.hpp), one
// fused kernel claims each improved vertex once and routes it near or far
// by its distance, deferring long-distance work. With the queue off a
// filter removes redundant vertex ids instead.
#pragma once

#include "core/advance.hpp"
#include "core/enactor.hpp"
#include "core/priority_queue.hpp"
#include "graph/csr.hpp"

namespace grx {

struct SsspResult {
  std::vector<std::uint32_t> dist;  ///< kInfinity where unreachable
  std::vector<VertexId> pred;
  /// Near/far schedule counters; all-zero when the queue was disabled
  /// (use_priority_queue == false, or an edgeless graph under auto delta).
  PriorityQueueStats pq_stats;
  EnactSummary summary;
};

/// Per-graph persistent SSSP state (the Problem): distance labels, the
/// deterministic enqueue-time label snapshot, predecessors, and the
/// filter's claim marks — pooled across enactments.
struct SsspProblem {
  const Csr* g = nullptr;
  std::vector<std::uint32_t> dist;
  /// Enqueue-time labels: the distance each frontier vertex carried when
  /// it was enqueued, stamped once per iteration. Relaxing from the label
  /// instead of the live distance makes every round's improvement set a
  /// pure function of round-start state — frontier schedules and
  /// PriorityQueueStats are byte-identical across host thread counts
  /// (Davidson's worklist-with-labels discipline). A vertex re-improved
  /// mid-round is re-enqueued and relaxes again with the fresher label.
  std::vector<std::uint32_t> labels;
  std::vector<VertexId> pred;
  /// Iteration tag per vertex: filter keeps the first occurrence of a
  /// vertex per iteration (the paper's output_queue_id dedup).
  std::vector<std::uint32_t> mark;
  std::uint32_t iteration = 0;
};

/// Persistent SSSP enactor: pooled Problem plus the near/far priority
/// frontier. Steady-state repeated queries (via grx::Engine or a held
/// enactor) allocate nothing when the result object is reused.
class SsspEnactor : public EnactorBase {
 public:
  using EnactorBase::EnactorBase;

  void enact(const Csr& g, VertexId source, const QueryOptions& opts,
             SsspResult& out);

 private:
  SsspProblem problem_;
  PriorityFrontier pq_;  ///< near/far schedule state, pooled
};

/// The delta sizing shared by single-query and batched SSSP, from the mean
/// edge weight (the paper's weights are uniform in [1, 64], mean 32.5) and
/// the average degree d. At d >= 8: 32.5 x d / 8, the standard
/// delta-stepping bucket width. Below 8 (road-like, high-diameter graphs):
/// warp width x 32.5 / d, a bucket holding about a warp's worth of
/// relaxations — these graphs waste the most work in an unsplit frontier.
/// Clamped to [1, UINT32_MAX]; 0 (queue off) only for an edgeless graph.
/// Batched SSSP scales the dense value and keeps its own low-degree
/// decline (batch.cpp, batch_scale_delta).
std::uint32_t sssp_auto_delta(const Csr& g);

}  // namespace grx
