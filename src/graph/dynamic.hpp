// Streaming mutable graphs: a delta-log-over-CSR design where readers run
// wait-free against immutable epoch-stamped snapshots while a single
// writer applies batched edge updates.
//
// Layout. A DynamicGraph holds
//   base_   — a canonical CSR (neighbors sorted by destination, one entry
//             per (src,dst) pair) representing the graph as of the last
//             compaction,
//   delta_  — a per-vertex sorted map of overrides since base_:
//             dst -> weight (insert/upsert) or dst -> tombstone (delete),
//   head    — the newest published snapshot: an immutable, fully
//             materialised Csr stamped with its epoch.
//
// apply_updates(batch) folds the batch into delta_, materialises a fresh
// CSR by a per-vertex two-pointer merge of base_ and delta_ (O(n + m + Δ),
// no global re-sort), publishes it as the new head, and retires the old
// head through core/epoch.hpp's EpochReclaimer. Every `compact_every`
// batches (or on an explicit compact() call) the delta log is folded
// away: base_ becomes a copy of the head's CSR and delta_ is cleared —
// the visible graph is unchanged, so compaction never publishes an epoch.
//
// Readers call snapshot(): pin an epoch, load the head, and get a
// SnapshotView whose csr() is a plain `const Csr&` — enactors, operators
// and the serial oracles run on it unmodified. The snapshot a view holds
// is freed only after every reader that could see it has released its
// pin (see epoch.hpp for the reclamation argument). A view pinned at
// epoch e also keeps *later-retired* snapshots alive until released —
// reclamation is conservative, never premature.
//
// Update semantics (per direction):
//   insert (u, v, w): upsert — the single (u,v) edge exists afterwards
//                     with weight w (counted as an insert if absent, a
//                     weight update if present).
//   delete (u, v):    the (u,v) edge is absent afterwards (counted as
//                     ignored if it was already absent).
// With options.symmetric, each update is applied in both directions
// (self-loops once) so undirected graphs stay undirected. The vertex set
// is fixed at construction; endpoints are bounds-checked. Snapshots
// always materialise weights (unweighted base edges get weight 1), so
// weighted primitives (SSSP) are always legal on a dynamic graph.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/epoch.hpp"
#include "graph/csr.hpp"
#include "util/common.hpp"

namespace grx {

/// One edge mutation. `insert == true` upserts (src, dst) with `weight`;
/// `insert == false` deletes (src, dst) (weight ignored).
struct EdgeUpdate {
  VertexId src = 0;
  VertexId dst = 0;
  Weight weight = 1;
  bool insert = true;

  static EdgeUpdate insert_edge(VertexId src, VertexId dst,
                                Weight weight = 1) {
    return EdgeUpdate{src, dst, weight, true};
  }
  static EdgeUpdate remove_edge(VertexId src, VertexId dst) {
    return EdgeUpdate{src, dst, 0, false};
  }
};

struct DynamicGraphOptions {
  /// Apply every update in both directions (mirror of a self-loop is
  /// itself, applied once). Keeps undirected graphs undirected; the base
  /// graph must be symmetric (checked at construction, CheckError).
  bool symmetric = false;
  /// Fold the delta log into the base CSR every N applied batches;
  /// 0 disables automatic compaction (compact() still works).
  std::uint32_t compact_every = 8;
  /// Maximum simultaneously pinned SnapshotViews (reader slots in the
  /// reclaimer). snapshot() throws CheckError beyond this.
  std::uint32_t max_readers = 128;
};

/// Counters for tests, ServerStats, and the bench mutation arm. A
/// consistent point-in-time reading (all fields loaded relaxed; the
/// writer updates them under its mutex).
struct DynamicGraphStats {
  Epoch epoch = 0;                     ///< newest published epoch
  std::uint64_t batches_applied = 0;   ///< apply_updates() calls
  std::uint64_t edges_inserted = 0;    ///< per direction actually applied
  std::uint64_t edges_removed = 0;     ///< per direction actually applied
  std::uint64_t weight_updates = 0;    ///< upserts that hit an existing edge
  std::uint64_t updates_ignored = 0;   ///< deletes of absent edges
  std::uint64_t compactions = 0;
  std::uint64_t snapshots_created = 0;  ///< includes the epoch-0 snapshot
  std::uint64_t snapshots_freed = 0;
  std::uint64_t live_snapshots = 0;    ///< created - freed (head + retired-pending)
  std::uint64_t delta_edges = 0;       ///< override entries since last compaction
  std::uint64_t compact_us_total = 0;  ///< wall time spent folding the log
  std::uint64_t compact_us_max = 0;    ///< largest single fold (compaction pause)
};

namespace detail {
/// An immutable published generation of the graph.
struct GraphSnapshot {
  Epoch epoch = 0;
  Csr graph;
};
}  // namespace detail

class DynamicGraph;

/// A pinned, immutable view of one epoch's graph. RAII: the underlying
/// snapshot cannot be reclaimed while any view of it (or an older epoch)
/// is alive. Movable, non-copyable; release() is idempotent. csr() is
/// the full existing CSR interface — hand it to Engine, enactors, or the
/// serial oracles unmodified.
class SnapshotView {
 public:
  SnapshotView() = default;
  SnapshotView(SnapshotView&&) noexcept = default;
  SnapshotView& operator=(SnapshotView&&) noexcept = default;
  SnapshotView(const SnapshotView&) = delete;
  SnapshotView& operator=(const SnapshotView&) = delete;

  bool valid() const { return snap_ != nullptr; }
  Epoch epoch() const {
    GRX_CHECK_MSG(snap_ != nullptr, "epoch() on an empty SnapshotView");
    return snap_->epoch;
  }
  const Csr& csr() const {
    GRX_CHECK_MSG(snap_ != nullptr, "csr() on an empty SnapshotView");
    return snap_->graph;
  }

  /// Drop the pin early (the destructor does the same).
  void release() {
    snap_ = nullptr;
    pin_.release();
  }

 private:
  friend class DynamicGraph;
  SnapshotView(EpochReclaimer<detail::GraphSnapshot>::Pin pin,
               const detail::GraphSnapshot* snap)
      : pin_(std::move(pin)), snap_(snap) {}

  EpochReclaimer<detail::GraphSnapshot>::Pin pin_;
  const detail::GraphSnapshot* snap_ = nullptr;
};

/// Single-writer, many-reader mutable graph. See the file comment for the
/// design; thread contract:
///   - snapshot(), epoch(), stats(), num_vertices() — any thread,
///     wait-free against the writer.
///   - apply_updates(), compact(), collect() — serialised internally by a
///     writer mutex (callable from any thread, one at a time).
/// The DynamicGraph must outlive every SnapshotView taken from it.
class DynamicGraph {
 public:
  /// Copies `base` as epoch 0, canonicalising it first (neighbors sorted
  /// by destination; multiple copies of a (src,dst) pair collapse to the
  /// last one in CSR order). An already-canonical base (anything from
  /// build_csr with sort_neighbors + dedup) is taken as-is.
  explicit DynamicGraph(const Csr& base, DynamicGraphOptions options = {});
  ~DynamicGraph();

  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;

  VertexId num_vertices() const { return n_; }
  const DynamicGraphOptions& options() const { return options_; }

  /// Newest published epoch (0 = the construction snapshot).
  Epoch epoch() const { return reclaimer_.current(); }

  /// Pin the newest snapshot. Wait-free with respect to the writer;
  /// throws CheckError if max_readers views are already pinned.
  SnapshotView snapshot() const;

  /// Apply one batch of updates and publish the result as a new epoch
  /// (even an all-no-op batch publishes — epochs count batches, which
  /// keeps replay bookkeeping trivial). Returns the new epoch. Runs
  /// compaction afterwards when compact_every is due, and opportunistic
  /// reclamation always.
  Epoch apply_updates(std::span<const EdgeUpdate> updates);

  /// Fold the delta log into the base CSR now. The visible graph and
  /// epoch are unchanged. No-op when the delta log is empty.
  void compact();

  /// Free retired snapshots no pinned reader can see. apply_updates()
  /// does this opportunistically; call it directly after releasing a
  /// long-held view to make "bounded live snapshots" immediate.
  /// Returns how many snapshots were freed.
  std::size_t collect();

  DynamicGraphStats stats() const;

 private:
  // Sorted per-vertex overrides: dst -> weight, nullopt = tombstone.
  using VertexDelta = std::map<VertexId, std::optional<Weight>>;

  bool edge_exists(VertexId src, VertexId dst) const;  // base_ + delta_
  void apply_one(VertexId src, VertexId dst, Weight weight, bool insert);
  // Merge base_ + delta_ into a fresh canonical weighted CSR.
  Csr materialize() const;
  void fold_delta_locked();  // compaction body; caller holds writer_mu_

  VertexId n_ = 0;
  DynamicGraphOptions options_;

  mutable EpochReclaimer<detail::GraphSnapshot> reclaimer_;
  // Newest snapshot: owned by head_owner_, readers reach it via head_.
  std::atomic<const detail::GraphSnapshot*> head_{nullptr};
  std::unique_ptr<const detail::GraphSnapshot> head_owner_;

  // Writer state, all guarded by writer_mu_.
  mutable std::mutex writer_mu_;
  Csr base_;
  std::unordered_map<VertexId, VertexDelta> delta_;
  std::uint32_t batches_since_compact_ = 0;

  // Counters (relaxed atomics: written by the writer under writer_mu_,
  // read from any thread via stats()).
  std::atomic<std::uint64_t> batches_applied_{0};
  std::atomic<std::uint64_t> edges_inserted_{0};
  std::atomic<std::uint64_t> edges_removed_{0};
  std::atomic<std::uint64_t> weight_updates_{0};
  std::atomic<std::uint64_t> updates_ignored_{0};
  std::atomic<std::uint64_t> compactions_{0};
  std::atomic<std::uint64_t> snapshots_created_{0};
  std::atomic<std::uint64_t> snapshots_freed_{0};
  std::atomic<std::uint64_t> delta_edges_{0};
  std::atomic<std::uint64_t> compact_us_total_{0};
  std::atomic<std::uint64_t> compact_us_max_{0};
};

}  // namespace grx
