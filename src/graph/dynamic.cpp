#include "graph/dynamic.hpp"

#include <algorithm>
#include <utility>

#include "util/timer.hpp"
#include "verify/sched.hpp"

namespace grx {
namespace {

// Canonical weighted copy of `base`: per-vertex neighbors sorted by
// destination, one entry per (src, dst) pair (later copies in CSR order
// win), weights always materialised (1 for unweighted edges) so every
// snapshot derived from it supports weighted primitives.
Csr canonical_weighted(const Csr& base) {
  const VertexId n = base.num_vertices();
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  std::vector<VertexId> cols;
  std::vector<Weight> weights;
  cols.reserve(base.num_edges());
  weights.reserve(base.num_edges());

  std::vector<std::pair<VertexId, Weight>> row;
  for (VertexId v = 0; v < n; ++v) {
    row.clear();
    for (EdgeId e = base.row_start(v); e < base.row_end(v); ++e) {
      row.emplace_back(base.col_index(e), base.weight(e));
    }
    std::stable_sort(row.begin(), row.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i + 1 < row.size() && row[i + 1].first == row[i].first) {
        continue;  // a later copy of this (v, dst) pair wins
      }
      cols.push_back(row[i].first);
      weights.push_back(row[i].second);
    }
    offsets[v + 1] = cols.size();
  }
  return Csr(n, std::move(offsets), std::move(cols), std::move(weights));
}

}  // namespace

DynamicGraph::DynamicGraph(const Csr& base, DynamicGraphOptions options)
    : n_(base.num_vertices()),
      options_(options),
      reclaimer_(options.max_readers),
      base_(canonical_weighted(base)) {
  GRX_CHECK_MSG(!options_.symmetric || is_symmetric(base_),
                "DynamicGraphOptions::symmetric requires a symmetric base "
                "graph");
  auto snap = std::make_unique<detail::GraphSnapshot>();
  snap->epoch = 0;
  snap->graph = base_;
  verify::sched_store(head_, snap.get(), std::memory_order_seq_cst);
  head_owner_ = std::move(snap);
  // mo: relaxed — monitoring counter for stats(); no synchronization.
  verify::sched_store(snapshots_created_, 1, std::memory_order_relaxed);
}

DynamicGraph::~DynamicGraph() {
  // The reclaimer's destructor checks no reader is still pinned and frees
  // everything retired; head_owner_ frees the newest snapshot.
}

SnapshotView DynamicGraph::snapshot() const {
  // Pin first, then load the head: the validated announcement guarantees
  // the loaded snapshot (and anything newer it is replaced by) retires at
  // an epoch above our announcement, so it outlives this view.
  auto pin = reclaimer_.pin();
  const detail::GraphSnapshot* snap =
      verify::sched_load(head_, std::memory_order_seq_cst);
  return SnapshotView(std::move(pin), snap);
}

bool DynamicGraph::edge_exists(VertexId src, VertexId dst) const {
  auto dit = delta_.find(src);
  if (dit != delta_.end()) {
    auto eit = dit->second.find(dst);
    if (eit != dit->second.end()) return eit->second.has_value();
  }
  const auto nbrs = base_.neighbors(src);
  return std::binary_search(nbrs.begin(), nbrs.end(), dst);
}

void DynamicGraph::apply_one(VertexId src, VertexId dst, Weight weight,
                             bool insert) {
  GRX_CHECK_MSG(src < n_ && dst < n_, "EdgeUpdate endpoint out of range");
  if (insert) {
    if (edge_exists(src, dst)) {
      // mo: relaxed — monitoring counter for stats(); no synchronization.
      verify::sched_fetch_add(weight_updates_, 1, std::memory_order_relaxed);
    } else {
      // mo: relaxed — monitoring counter for stats(); no synchronization.
      verify::sched_fetch_add(edges_inserted_, 1, std::memory_order_relaxed);
    }
    delta_[src][dst] = weight;
  } else {
    if (edge_exists(src, dst)) {
      // mo: relaxed — monitoring counter for stats(); no synchronization.
      verify::sched_fetch_add(edges_removed_, 1, std::memory_order_relaxed);
      delta_[src][dst] = std::nullopt;  // tombstone overrides base_
    } else {
      // mo: relaxed — monitoring counter for stats(); no synchronization.
      verify::sched_fetch_add(updates_ignored_, 1, std::memory_order_relaxed);
    }
  }
}

namespace {

// Two-pointer merge of one vertex's base adjacency (sorted, unique) with
// its delta overrides (sorted map). Emits the vertex's post-delta
// adjacency in destination order: base edges not overridden keep their
// weight, upserts replace or splice in, tombstones drop out.
template <typename Emit>
void merge_vertex(const Csr& base, VertexId v,
                  const std::map<VertexId, std::optional<Weight>>* delta,
                  Emit&& emit) {
  EdgeId i = base.row_start(v);
  const EdgeId end = base.row_end(v);
  if (delta == nullptr) {
    for (; i < end; ++i) emit(base.col_index(i), base.weight(i));
    return;
  }
  auto it = delta->begin();
  const auto dend = delta->end();
  while (i < end && it != dend) {
    const VertexId b = base.col_index(i);
    if (b < it->first) {
      emit(b, base.weight(i));
      ++i;
    } else if (b == it->first) {
      if (it->second.has_value()) emit(b, *it->second);  // else: tombstone
      ++i;
      ++it;
    } else {
      if (it->second.has_value()) emit(it->first, *it->second);
      ++it;
    }
  }
  for (; i < end; ++i) emit(base.col_index(i), base.weight(i));
  for (; it != dend; ++it) {
    if (it->second.has_value()) emit(it->first, *it->second);
  }
}

}  // namespace

Csr DynamicGraph::materialize() const {
  // O(n + m + delta): per-vertex merge, no global re-sort. Vertices with
  // no delta entry copy their base row verbatim.
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n_) + 1, 0);
  for (VertexId v = 0; v < n_; ++v) {
    auto dit = delta_.find(v);
    const VertexDelta* dv = dit == delta_.end() ? nullptr : &dit->second;
    EdgeId count = 0;
    merge_vertex(base_, v, dv, [&](VertexId, Weight) { ++count; });
    offsets[v + 1] = offsets[v] + count;
  }
  const EdgeId m = offsets[n_];
  std::vector<VertexId> cols(m);
  std::vector<Weight> weights(m);
  for (VertexId v = 0; v < n_; ++v) {
    auto dit = delta_.find(v);
    const VertexDelta* dv = dit == delta_.end() ? nullptr : &dit->second;
    EdgeId w = offsets[v];
    merge_vertex(base_, v, dv, [&](VertexId dst, Weight weight) {
      cols[w] = dst;
      weights[w] = weight;
      ++w;
    });
  }
  return Csr(n_, std::move(offsets), std::move(cols), std::move(weights));
}

void DynamicGraph::fold_delta_locked() {
  Timer timer;
  // The head already equals base + delta, so folding is: adopt the head's
  // materialised CSR as the new base and clear the log. The visible graph
  // is unchanged — compaction never publishes an epoch.
  base_ = head_owner_->graph;
  delta_.clear();
  // mo: relaxed — monitoring counter for stats(); no synchronization.
  verify::sched_store(delta_edges_, 0, std::memory_order_relaxed);
  batches_since_compact_ = 0;
  // mo: relaxed — monitoring counter for stats(); no synchronization.
  verify::sched_fetch_add(compactions_, 1, std::memory_order_relaxed);
  const auto us = static_cast<std::uint64_t>(timer.elapsed_ms() * 1000.0);
  // mo: relaxed — monitoring counter for stats(); no synchronization.
  verify::sched_fetch_add(compact_us_total_, us, std::memory_order_relaxed);
  // mo: relaxed — monitoring high-water mark; writer-serialised, so the
  // read-compare-store needs no atomicity beyond the word itself.
  if (us > verify::sched_load(compact_us_max_, std::memory_order_relaxed)) {
    verify::sched_store(compact_us_max_, us, std::memory_order_relaxed);
  }
}

Epoch DynamicGraph::apply_updates(std::span<const EdgeUpdate> updates) {
  std::lock_guard<std::mutex> lock(writer_mu_);

  for (const EdgeUpdate& u : updates) {
    apply_one(u.src, u.dst, u.weight, u.insert);
    if (options_.symmetric && u.src != u.dst) {
      apply_one(u.dst, u.src, u.weight, u.insert);
    }
  }
  std::uint64_t delta_edges = 0;
  for (const auto& [v, dv] : delta_) delta_edges += dv.size();
  // mo: relaxed — monitoring counter for stats(); no synchronization.
  verify::sched_store(delta_edges_, delta_edges, std::memory_order_relaxed);

  // Publish: make the new snapshot reachable, advance the epoch, retire
  // the old head at the post-advance epoch (no reader announcing >= it
  // can still obtain the old pointer — see core/epoch.hpp).
  auto snap = std::make_unique<detail::GraphSnapshot>();
  snap->epoch = reclaimer_.current() + 1;
  snap->graph = materialize();
  const detail::GraphSnapshot* published = snap.get();
  verify::sched_store(head_, published, std::memory_order_seq_cst);
  const Epoch retire_at = reclaimer_.advance();
  reclaimer_.retire(std::move(head_owner_), retire_at);
  head_owner_ = std::move(snap);
  // mo: relaxed — monitoring counter for stats(); no synchronization.
  verify::sched_fetch_add(batches_applied_, 1, std::memory_order_relaxed);
  // mo: relaxed — monitoring counter for stats(); no synchronization.
  verify::sched_fetch_add(snapshots_created_, 1, std::memory_order_relaxed);

  ++batches_since_compact_;
  if (options_.compact_every != 0 &&
      batches_since_compact_ >= options_.compact_every && !delta_.empty()) {
    fold_delta_locked();
  }

  // mo: relaxed — monitoring counter for stats(); no synchronization.
  verify::sched_fetch_add(snapshots_freed_, reclaimer_.collect(),
                          std::memory_order_relaxed);
  return published->epoch;
}

void DynamicGraph::compact() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (delta_.empty()) {
    batches_since_compact_ = 0;
    return;
  }
  fold_delta_locked();
}

std::size_t DynamicGraph::collect() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const std::size_t freed = reclaimer_.collect();
  // mo: relaxed — monitoring counter for stats(); no synchronization.
  verify::sched_fetch_add(snapshots_freed_, freed, std::memory_order_relaxed);
  return freed;
}

DynamicGraphStats DynamicGraph::stats() const {
  DynamicGraphStats s;
  s.epoch = reclaimer_.current();
  const auto rd = [](const std::atomic<std::uint64_t>& c) {
    // mo: relaxed — monitoring counter snapshot; torn cross-counter views
    // are acceptable, each word is atomic on its own.
    return verify::sched_load(c, std::memory_order_relaxed);
  };
  s.batches_applied = rd(batches_applied_);
  s.edges_inserted = rd(edges_inserted_);
  s.edges_removed = rd(edges_removed_);
  s.weight_updates = rd(weight_updates_);
  s.updates_ignored = rd(updates_ignored_);
  s.compactions = rd(compactions_);
  s.snapshots_created = rd(snapshots_created_);
  s.snapshots_freed = rd(snapshots_freed_);
  s.live_snapshots = s.snapshots_created - s.snapshots_freed;
  s.delta_edges = rd(delta_edges_);
  s.compact_us_total = rd(compact_us_total_);
  s.compact_us_max = rd(compact_us_max_);
  return s;
}

}  // namespace grx
