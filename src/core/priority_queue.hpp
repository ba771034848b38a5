// Two-level near/far priority frontier (Section 4.5).
//
// Generalizes Davidson et al.'s delta-stepping worklist: a user-supplied
// priority predicate splits the output frontier into a "near" slice
// (processed next) and a "far" pile (deferred). When near is exhausted the
// priority level advances and the far pile is re-split.
//
// Two frontier shapes share this file (and the split-operator contract in
// docs/operators.md):
//
//  * PriorityFrontier — the single-query shape: the far pile is a plain
//    vertex vector, one global cutoff. Each round's claim filter is fused
//    into its split (`claim_split`); level re-splits of the far pile run
//    `split_near_far`. Both emit through the count -> scan -> scatter
//    assembler.
//  * LanePriorityFrontier — the batched (MS-query) shape: near/far
//    membership is a per-(vertex, lane) bit in LaneMatrix rows (mirroring
//    core/batch_frontier.hpp), every lane owns an independent cutoff, and
//    lanes advance their priority level independently — a lane that drains
//    its near pile re-splits its far bits the same iteration instead of
//    stalling behind the rest of the batch.
//
// Both keep the pipeline guarantees: all staging is pooled (zero
// steady-state allocations) and every split emits through the two-phase
// assembler, so pile contents are deterministic across host thread counts.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/batch_frontier.hpp"
#include "simt/atomic.hpp"
#include "util/aligned.hpp"
#include "simt/device.hpp"
#include "simt/primitives.hpp"
#include "simt/vec.hpp"

namespace grx {

/// Work-distribution counters of one query's (or one lane's) near/far
/// schedule. `splits` counts priority-level advances plus initial splits;
/// `near_total` / `far_total` count pile *entries* — a vertex deferred far
/// and later promoted near contributes to both.
struct PriorityQueueStats {
  std::uint64_t splits = 0;
  std::uint64_t near_total = 0;
  std::uint64_t far_total = 0;

  bool operator==(const PriorityQueueStats&) const = default;
};

/// Pooled staging for split_near_far — owned by the enactor so the
/// re-split loop allocates nothing in steady state.
struct SplitWorkspace {
  simt::ChunkedOutput near_stage;
  simt::ChunkedOutput far_stage;
};

namespace detail {

enum class Pile : std::uint8_t { kNear, kFar, kDrop };

/// The split kernel shared by split_near_far and the fused claim + split:
/// `route(lane, item)` charges the lane and picks the item's pile. Near
/// items replace `near`, far items are appended to `far`, dropped items
/// go nowhere. Two-phase assembly like advance/filter: each warp stages
/// its picks compactly, a scan places the slices, so both piles preserve
/// input order regardless of thread count. Charged as one launch plus a
/// scan and two scatters (a GPU split-compaction).
template <typename RouteFn>
void route_piles(simt::Device& dev, const std::vector<std::uint32_t>& items,
                 std::vector<std::uint32_t>& near,
                 std::vector<std::uint32_t>& far, RouteFn&& route,
                 SplitWorkspace& ws, PriorityQueueStats* stats) {
  constexpr std::size_t kWarp = simt::CostModel::kWarpSize;
  const std::size_t num_warps = (items.size() + kWarp - 1) / kWarp;
  const std::size_t far_before = far.size();
  ws.near_stage.begin(num_warps, num_warps * kWarp);
  ws.far_stage.begin(num_warps, num_warps * kWarp);
  dev.for_each("pq_split", items.size(), [&](simt::Lane& lane,
                                             std::size_t i) {
    const std::size_t warp = i / kWarp;
    if (i % kWarp == 0) {
      ws.near_stage.counts[warp] = 0;
      ws.far_stage.counts[warp] = 0;
    }
    const std::uint32_t v = items[i];
    const Pile pile = route(lane, v);
    if (pile == Pile::kDrop) return;
    auto& stage = pile == Pile::kNear ? ws.near_stage : ws.far_stage;
    stage.scratch[warp * kWarp + stage.counts[warp]++] = v;
  });
  simt::scatter_into(dev, ws.near_stage, num_warps, near,
                     [](std::size_t c) { return c * kWarp; });
  simt::scatter_into(dev, ws.far_stage, num_warps, far,
                     [](std::size_t c) { return c * kWarp; },
                     /*keep_prefix=*/far_before);
  if (stats) {
    stats->splits++;
    stats->near_total += near.size();
    stats->far_total += far.size() - far_before;
  }
}

}  // namespace detail

/// Splits `items` by `is_near(item)`: near items to `near` (replaced), the
/// rest appended to `far`, both in input order (detail::route_piles).
template <typename Fn>
void split_near_far(simt::Device& dev, const std::vector<std::uint32_t>& items,
                    std::vector<std::uint32_t>& near,
                    std::vector<std::uint32_t>& far, Fn&& is_near,
                    SplitWorkspace& ws,
                    PriorityQueueStats* stats = nullptr) {
  detail::route_piles(
      dev, items, near, far,
      [&](simt::Lane& lane, std::uint32_t v) {
        lane.load_coalesced();  // queue read
        lane.load_scattered();  // priority read, priced as in claim_split
        lane.alu();             // cutoff compare
        return is_near(v) ? detail::Pile::kNear : detail::Pile::kFar;
      },
      ws, stats);
}

/// Convenience overload with a one-shot workspace, for callers off the
/// steady-state path.
template <typename Fn>
void split_near_far(simt::Device& dev, const std::vector<std::uint32_t>& items,
                    std::vector<std::uint32_t>& near,
                    std::vector<std::uint32_t>& far, Fn&& is_near,
                    PriorityQueueStats* stats = nullptr) {
  SplitWorkspace ws;
  split_near_far(dev, items, near, far, std::forward<Fn>(is_near), ws, stats);
}

/// Single-query priority frontier: owns the far pile, the cutoff/level
/// state, the pooled split staging, and the schedule stats. The enactor
/// drives it with a priority callback (SSSP passes the vertex's current
/// distance); `delta == 0` disables the queue entirely (`enabled()` is
/// false and the enactor falls back to plain frontier rotation).
///
/// Buffer capacity survives `begin()` — a pooled PriorityFrontier inside an
/// enactor allocates nothing in steady state.
class PriorityFrontier {
 public:
  /// Starts a new enactment: level 1 (cutoff = delta), empty far pile,
  /// zeroed stats. Capacity is retained.
  void begin(std::uint32_t delta) {
    delta_ = delta;
    cutoff_ = delta;
    far_.clear();
    still_far_.clear();
    stats_ = {};
  }

  bool enabled() const { return delta_ != 0; }
  bool far_empty() const { return far_.empty(); }
  std::uint64_t cutoff() const { return cutoff_; }
  const PriorityQueueStats& stats() const { return stats_; }

  /// Fused claim + split over the *raw* advance output `raw` (duplicates
  /// allowed), one launch in place of a filter pass and a split pass: each
  /// item runs `claim(v)` (the caller's first-claim-of-(vertex, iteration)
  /// test), and every winner with priority(v) below the cutoff goes to
  /// `near` (replaced), the rest join the far pile. The far pile is a
  /// plain vector, so a vertex re-improved while deferred may appear twice
  /// — re-splits consult the *current* priority, so stale entries promote
  /// (or stay deferred) correctly and the next claim dedups them. Piles are
  /// emitted through the assembler, so their membership is a pure function
  /// of the claim winners and the post-advance priorities.
  template <typename ClaimFn, typename PriorityFn>
  void claim_split(simt::Device& dev, const std::vector<std::uint32_t>& raw,
                   std::vector<std::uint32_t>& near, ClaimFn&& claim,
                   PriorityFn&& priority) {
    detail::route_piles(
        dev, raw, near, far_,
        [&](simt::Lane& lane, std::uint32_t v) {
          lane.load_coalesced();  // queue read
          lane.load_scattered();  // claim-tag read/CAS
          if (!claim(v)) return detail::Pile::kDrop;
          lane.load_scattered();  // winner's priority read
          lane.alu();             // cutoff compare
          return priority(v) < cutoff_ ? detail::Pile::kNear
                                       : detail::Pile::kFar;
        },
        ws_, &stats_);
  }

  /// Near pile drained: advance the priority level (cutoff += delta per
  /// step) re-splitting the far pile until near work appears or the far
  /// pile empties (Section 4.5's two-level schedule).
  template <typename PriorityFn>
  void advance_level(simt::Device& dev, std::vector<std::uint32_t>& near,
                     PriorityFn&& priority) {
    while (near.empty() && !far_.empty()) {
      cutoff_ += delta_;
      split_near_far(
          dev, far_, near, still_far_,
          [&](std::uint32_t v) { return priority(v) < cutoff_; }, ws_,
          &stats_);
      far_.swap(still_far_);
      still_far_.clear();
    }
  }

 private:
  std::uint32_t delta_ = 0;
  std::uint64_t cutoff_ = 0;
  std::vector<std::uint32_t> far_;       ///< deferred pile (may hold dups)
  std::vector<std::uint32_t> still_far_; ///< re-split staging, pooled
  SplitWorkspace ws_;
  PriorityQueueStats stats_;
};

/// Per-lane near/far priority frontier for the batched SSSP engine.
///
/// Near membership for lane q lives as bit q in the batch frontier's `cur`
/// rows (the lanes the next relaxation round will process); far membership
/// is bit q of this frontier's own LaneMatrix. Every lane owns an
/// independent cutoff on the shared delta grid. Per iteration the enactor
/// calls:
///
///  * `claim_split` — one fused kernel over the *raw* advance output:
///    first claim of (vertex, iteration) wins (the batch claim filter,
///    fused in — no separate filter launch), then the winner's improved
///    lane bits (staged in the `next` matrix) are split per lane against
///    the per-lane cutoffs: near bits stay in `next` (becoming the next
///    round's `cur` after rotation), far bits are banked here, and the
///    near-active vertices are emitted through the two-phase assembler. A
///    banked (vertex, lane) bit whose distance later improves below the
///    cutoff is promoted near *and its far bit cleared* — the bit-matrix
///    analog of the single-query far pile's stale entries.
///  * `advance_drained` — lanes with banked far work but no near bit
///    anywhere in the new frontier jump their cutoff past their tracked
///    minimum deferred distance (the multi-step `cutoff += delta` loop
///    collapsed into one grid-aligned jump) and wake the now-near bits
///    directly into `cur`, appending newly activated vertices to the union
///    frontier. A drained lane therefore rejoins the very next round
///    instead of stalling the batch. Per-lane minimums are maintained
///    incrementally (banking and wake-survivor tallies), so no extra
///    min-gather pass runs; a stale (too-low) minimum degrades to the
///    classic one-delta step, never to a wrong wake.
///
/// Determinism: pile membership is a pure function of post-advance
/// distances (deterministic atomicMin outcomes) and the per-lane cutoffs,
/// all emission goes through the assembler, and the tallies are
/// commutative sums/mins — distances, iteration counts, and per-lane
/// stats are byte-identical across host thread counts and advance
/// strategies.
///
/// All buffers (far matrix, pile list, staging, tallies) are pooled: a
/// LanePriorityFrontier held by a BatchEnactor allocates nothing in steady
/// state.
class LanePriorityFrontier {
 public:
  /// Per-thread cell-counter stride (one cache line apart).
  static constexpr std::size_t kCellStride = 8;

  /// Cutoff sentinel admitting every finite distance (flushed lane).
  static constexpr std::uint64_t kFlushedCutoff =
      static_cast<std::uint64_t>(kInfinity);

  /// Starts a new enactment over `num_vertices` x `num_lanes` lane cells
  /// with per-lane initial cutoff `delta` (level 1). `delta == 0` disables
  /// the schedule; no buffers are touched. `backend` selects the lane-word
  /// kernels for the split/wake inner loops (resolved, never kAuto —
  /// results are byte-identical across backends).
  void begin(VertexId num_vertices, std::uint32_t num_lanes,
             std::uint32_t delta,
             simt::VecBackend backend = simt::VecBackend::kScalar) {
    delta_ = delta;
    if (!enabled()) return;
    vb_ = backend;
    b_ = num_lanes;
    wpv_ = (num_lanes + kLanesPerWord - 1) / kLanesPerWord;
    flush_below_ = num_vertices / 4;
    peak_pile_ = 0;
    far_.reset(num_vertices, num_lanes);
    in_far_.assign(num_vertices, 0);
    far_list_.clear();
    cutoff_.assign(b_, delta);
    // u32 mirror of the per-lane cutoffs for the vector compare: delta is
    // u32 so no lane starts wide; the bump loop maintains both mirrors.
    cutoff32_.assign(b_, delta);
    cutoff_wide_.assign(wpv_, 0);
    stats_.assign(b_, PriorityQueueStats{});
    near_mask_.assign(wpv_, 0);
    far_mask_.assign(wpv_, 0);
    drained_.assign(wpv_, 0);
    bumped_.assign(wpv_, 0);
    far_min_.assign(b_, kInfinity);
    const std::size_t threads =
        static_cast<std::size_t>(omp_get_max_threads());
    tally_near_.assign(threads * b_, 0);
    tally_far_.assign(threads * b_, 0);
    tally_min_.assign(threads * b_, kInfinity);
    cell_counts_.assign(threads * kCellStride, 0);
  }

  bool enabled() const { return delta_ != 0; }

  /// True iff no lane has banked far work (exact after every
  /// `advance_drained` rebuild; between rebuilds it may briefly
  /// overestimate, costing at most one empty sweep — never a missed one).
  bool far_empty() const {
    for (const std::uint64_t w : far_mask_)
      if (w) return false;
    return true;
  }

  /// Fused claim + split over the raw advance output `raw` (duplicates
  /// allowed): the first claim of (vertex, `tag`) in `mark` wins; each
  /// winner's improved lane bits in `next` are split against the per-lane
  /// cutoffs (near bits stay in `next`, far bits banked, stale bank bits
  /// of promoted lanes cleared) and the near-active winners replace
  /// `out` (assembler order). Near cells also commit their enqueue-time
  /// label to `snap` — the distance the next round's relaxation reads, so
  /// per-round improvement sets are scheduling-independent. `serial`
  /// elides the claim CAS when one host thread runs the kernel, exactly
  /// like the batch problems' serial flag.
  void claim_split(simt::Device& dev,
                   const std::vector<std::uint32_t>& raw, LaneMatrix& next,
                   const std::uint32_t* dist, std::uint32_t* snap,
                   std::vector<std::uint32_t>& mark, std::uint32_t tag,
                   bool serial, std::vector<std::uint32_t>& out) {
    constexpr std::size_t kWarp = simt::CostModel::kWarpSize;
    const std::size_t num_warps = (raw.size() + kWarp - 1) / kWarp;
    near_stage_.begin(num_warps, num_warps * kWarp);
    far_stage_.begin(num_warps, num_warps * kWarp);
    grow_warp_or(num_warps);
    const std::size_t far_before = far_list_.size();
    dev.for_each("batch_pq_split", raw.size(), [&](simt::Lane& lane,
                                                   std::size_t i) {
      const std::size_t warp = i / kWarp;
      if (i % kWarp == 0) {
        near_stage_.counts[warp] = 0;
        far_stage_.counts[warp] = 0;
        std::fill_n(warp_near_or_.begin() + warp * wpv_, wpv_,
                    std::uint64_t{0});
        std::fill_n(warp_far_or_.begin() + warp * wpv_, wpv_,
                    std::uint64_t{0});
      }
      const VertexId v = raw[i];
      lane.load_coalesced();   // queue read
      lane.load_scattered();   // claim-tag read/CAS
      if (serial) {
        if (mark[v] == tag) return;  // duplicate this iteration
        mark[v] = tag;
      } else {
        const std::uint32_t old = simt::atomic_load(mark[v]);
        if (old == tag) return;
        if (simt::atomic_cas(mark[v], old, tag) != old) return;
      }
      std::uint64_t* nxt = next.row(v);
      std::uint64_t* bank = far_.row(v);
      const std::size_t base = static_cast<std::size_t>(v) * b_;
      const std::size_t tid =
          static_cast<std::size_t>(omp_get_thread_num()) * b_;
      lane.load_scattered(wpv_);  // next-row read + writeback
      std::uint64_t checks = 0;
      bool any_near = false;
      bool any_far = false;
      const std::size_t ctid =
          static_cast<std::size_t>(omp_get_thread_num()) * kCellStride;
      for (std::uint32_t w = 0; w < wpv_; ++w) {
        const std::uint64_t bits = nxt[w];
        if (!bits) continue;
        const std::uint32_t lane_base = w * kLanesPerWord;
        std::uint64_t nearw = 0;
        if (vb_ != simt::VecBackend::kScalar) {
          // Vector form of the ctz loop below: one masked u32 compare
          // against the cutoff mirror decides the whole word (wide
          // cutoffs — > u32 max — admit every distance via the per-word
          // wide mask), then masked kernels commit the enqueue labels and
          // the per-lane tallies. Safe in parallel mode too: the claim
          // filter gives this thread exclusive ownership of v's rows, and
          // dist is read-only here.
          checks += static_cast<std::uint64_t>(__builtin_popcountll(bits));
          const std::uint32_t* drow = dist + base + lane_base;
          nearw = simt::lt_bounds_u32(vb_, drow,
                                      cutoff32_.data() + lane_base, bits) |
                  (bits & cutoff_wide_[w]);
          simt::masked_copy_u32(vb_, snap + base + lane_base, drow, nearw);
          simt::masked_inc_u64(vb_, tally_near_.data() + tid + lane_base,
                               nearw);
          const std::uint64_t fw = bits & ~nearw;
          simt::masked_inc_u64(vb_, tally_far_.data() + tid + lane_base, fw);
          simt::masked_min_u32(vb_, tally_min_.data() + tid + lane_base,
                               drow, fw);
        } else {
          std::uint64_t scan = bits;
          do {
            const auto q = static_cast<std::uint32_t>(__builtin_ctzll(scan));
            scan &= scan - 1;
            ++checks;
            const std::uint32_t d = dist[base + lane_base + q];
            if (d < cutoff_[lane_base + q]) {
              nearw |= 1ull << q;
              snap[base + lane_base + q] = d;  // enqueue-time label
              tally_near_[tid + lane_base + q]++;
            } else {
              tally_far_[tid + lane_base + q]++;
              tally_min_[tid + lane_base + q] =
                  std::min(tally_min_[tid + lane_base + q], d);
            }
          } while (scan);
        }
        const std::uint64_t farw = bits & ~nearw;
        nxt[w] = nearw;
        // Bank new far bits; drop bank bits promoted near (stale entries).
        bank[w] = (bank[w] | farw) & ~nearw;
        warp_near_or_[warp * wpv_ + w] |= nearw;
        warp_far_or_[warp * wpv_ + w] |= farw;
        any_near |= nearw != 0;
        any_far |= farw != 0;
      }
      // Per-lane dist checks are priced warp-parallel through the fused
      // cell pass below — the same rate batch_lane_relax prices the relax
      // kernel's per-(vertex, lane) cells, so both sides of the schedule
      // comparison use one convention.
      cell_counts_[ctid] += checks;
      if (any_near)
        near_stage_.scratch[warp * kWarp + near_stage_.counts[warp]++] = v;
      if (any_far && !in_far_[v]) {
        in_far_[v] = 1;
        far_stage_.scratch[warp * kWarp + far_stage_.counts[warp]++] = v;
      }
    });
    charge_cell_pass(dev);
    simt::scatter_into(dev, near_stage_, num_warps, out,
                       [](std::size_t c) { return c * kWarp; });
    simt::scatter_into(dev, far_stage_, num_warps, far_list_,
                       [](std::size_t c) { return c * kWarp; },
                       /*keep_prefix=*/far_before);
    // Lanes with near work in the new frontier / newly banked far bits;
    // fold the newly banked minimums into the per-lane tracker.
    std::fill(near_mask_.begin(), near_mask_.end(), std::uint64_t{0});
    for (std::size_t c = 0; c < num_warps; ++c)
      for (std::uint32_t w = 0; w < wpv_; ++w) {
        near_mask_[w] |= warp_near_or_[c * wpv_ + w];
        far_mask_[w] |= warp_far_or_[c * wpv_ + w];
      }
    fold_min_tallies();
  }

  /// Advances every drained lane (banked far work, no near bit in the new
  /// frontier) to its next productive priority level and wakes the
  /// now-near bits into `cur`, appending newly activated vertices to
  /// `frontier`. One sweep over the far pile moves bits, compacts the
  /// pile, and re-tallies surviving minimums (pooled staging + the
  /// assembler throughout).
  void advance_drained(simt::Device& dev, LaneMatrix& cur,
                       const std::uint32_t* dist, std::uint32_t* snap,
                       std::vector<std::uint32_t>& frontier) {
    bool any_drained = false;
    for (std::uint32_t w = 0; w < wpv_; ++w) {
      drained_[w] = far_mask_[w] & ~near_mask_[w];
      any_drained |= drained_[w] != 0;
    }
    if (far_list_.empty()) {
      // Every banked vertex is listed, so an empty pile means the mask is
      // a pure overestimate — correct it so far_empty() goes true and the
      // enactor's drain loop terminates.
      std::fill(far_mask_.begin(), far_mask_.end(), std::uint64_t{0});
      return;
    }
    if (!any_drained) return;

    // Cutoff jump past each drained lane's tracked minimum: the new band
    // is [m, m + delta) — anchored at the actual minimum rather than the
    // delta grid, so every wake admits a full delta-width of work instead
    // of the partial band a grid-aligned step would leave (the
    // single-query `while (near empty) cutoff += delta` collapsed into
    // one full-width step). The tracked minimum is a lower bound — a
    // promoted bit can leave it stale-low — so the jump never skips work;
    // at worst it wakes nothing, the sweep below re-tallies the exact
    // minimums, and the next call is productive (the enactor keeps
    // calling while its frontier is empty and far work remains).
    // Tail flush: once the pile has passed its peak and drained to a
    // quarter of the graph (and half its own peak — a pile still filling
    // up is not a tail), band-by-band waking costs a launch-bound round
    // per delta of remaining distance for little deferral benefit — wake
    // everything and let the loop finish plain rounds on the remainder.
    // (The auto heuristic only enables the schedule on dense low-diameter
    // graphs, where the pile covering < |V|/4 really is the tail.)
    peak_pile_ = std::max(peak_pile_, far_list_.size());
    const bool flush = far_list_.size() <= flush_below_ &&
                       far_list_.size() <= peak_pile_ / 2;
    bool any_bumped = false;
    for (std::uint32_t w = 0; w < wpv_; ++w) {
      bumped_[w] = 0;
      std::uint64_t bits = flush ? far_mask_[w] : drained_[w];
      const std::uint32_t lane_base = w * kLanesPerWord;
      while (bits) {
        const auto q = lane_base +
                       static_cast<std::uint32_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        const std::uint32_t m = far_min_[q];
        if (m == kInfinity) continue;  // mask overestimate: no real bits
        cutoff_[q] = flush ? kFlushedCutoff
                           : std::max(cutoff_[q] + delta_,
                                      static_cast<std::uint64_t>(m) + delta_);
        // Keep the vector-compare mirrors in step: clamp to u32 and mark
        // lanes whose true cutoff exceeds the clamp (those admit every
        // distance, which the wide mask encodes exactly).
        constexpr std::uint64_t kU32Max = 0xFFFFFFFFull;
        cutoff32_[q] = static_cast<std::uint32_t>(
            std::min(cutoff_[q], kU32Max));
        if (cutoff_[q] > kU32Max)
          cutoff_wide_[w] |= 1ull << (q - lane_base);
        stats_[q].splits++;
        bumped_[w] |= 1ull << (q - lane_base);
        any_bumped = true;
      }
    }
    if (!any_bumped) {
      // Every drained lane was a stale overestimate; correct the mask.
      for (std::uint32_t w = 0; w < wpv_; ++w) far_mask_[w] &= ~drained_[w];
      return;
    }

    // Pass 2: wake bits below the new cutoffs into `cur`, append newly
    // activated vertices to the union frontier, compact the pile.
    constexpr std::size_t kWarp = simt::CostModel::kWarpSize;
    const std::size_t num_warps = (far_list_.size() + kWarp - 1) / kWarp;
    near_stage_.begin(num_warps, num_warps * kWarp);
    far_stage_.begin(num_warps, num_warps * kWarp);
    grow_warp_or(num_warps);
    dev.for_each("batch_pq_wake", far_list_.size(), [&](simt::Lane& lane,
                                                        std::size_t i) {
      const std::size_t warp = i / kWarp;
      if (i % kWarp == 0) {
        near_stage_.counts[warp] = 0;
        far_stage_.counts[warp] = 0;
        std::fill_n(warp_far_or_.begin() + warp * wpv_, wpv_,
                    std::uint64_t{0});
      }
      const VertexId v = far_list_[i];
      std::uint64_t* bank = far_.row(v);
      std::uint64_t* cr = cur.row(v);
      const std::size_t base = static_cast<std::size_t>(v) * b_;
      const std::size_t tid =
          static_cast<std::size_t>(omp_get_thread_num()) * b_;
      const std::size_t ctid =
          static_cast<std::size_t>(omp_get_thread_num()) * kCellStride;
      lane.load_coalesced();
      lane.load_scattered(wpv_);
      bool in_frontier = false;  // near bits already active for v?
      for (std::uint32_t w = 0; w < wpv_; ++w) in_frontier |= cr[w] != 0;
      std::uint64_t checks = 0;
      bool woke = false;
      bool keep = false;
      for (std::uint32_t w = 0; w < wpv_; ++w) {
        std::uint64_t cand = bank[w] & bumped_[w];
        const std::uint32_t lane_base = w * kLanesPerWord;
        std::uint64_t moved = 0;
        if (vb_ != simt::VecBackend::kScalar) {
          // Vector wake: same cutoff compare as claim_split; survivors
          // re-tally the bumped lane's minimum (exact after the fold).
          // Row ownership is exclusive (far_list_ holds each vertex once).
          if (cand) {
            checks +=
                static_cast<std::uint64_t>(__builtin_popcountll(cand));
            const std::uint32_t* drow = dist + base + lane_base;
            moved = simt::lt_bounds_u32(vb_, drow,
                                        cutoff32_.data() + lane_base,
                                        cand) |
                    (cand & cutoff_wide_[w]);
            simt::masked_copy_u32(vb_, snap + base + lane_base, drow,
                                  moved);
            simt::masked_inc_u64(vb_, tally_near_.data() + tid + lane_base,
                                 moved);
            simt::masked_min_u32(vb_, tally_min_.data() + tid + lane_base,
                                 drow, cand & ~moved);
          }
        } else {
          while (cand) {
            const auto q = static_cast<std::uint32_t>(__builtin_ctzll(cand));
            cand &= cand - 1;
            ++checks;
            const std::uint32_t d = dist[base + lane_base + q];
            if (d < cutoff_[lane_base + q]) {
              moved |= 1ull << q;
              snap[base + lane_base + q] = d;  // enqueue-time label
              tally_near_[tid + lane_base + q]++;
            } else {
              // Survivor: re-tally the bumped lane's minimum (exact again
              // after the fold below).
              tally_min_[tid + lane_base + q] =
                  std::min(tally_min_[tid + lane_base + q], d);
            }
          }
        }
        if (moved) {
          cr[w] |= moved;
          bank[w] &= ~moved;
          woke = true;
        }
        warp_far_or_[warp * wpv_ + w] |= bank[w];
        keep |= bank[w] != 0;
      }
      cell_counts_[ctid] += checks;  // priced by the fused cell pass
      if (woke && !in_frontier)
        near_stage_.scratch[warp * kWarp + near_stage_.counts[warp]++] = v;
      if (keep) {
        far_stage_.scratch[warp * kWarp + far_stage_.counts[warp]++] = v;
      } else {
        in_far_[v] = 0;
      }
    });
    charge_cell_pass(dev);
    simt::scatter_into(dev, near_stage_, num_warps, frontier,
                       [](std::size_t c) { return c * kWarp; },
                       /*keep_prefix=*/frontier.size());
    far_next_.clear();
    simt::scatter_into(dev, far_stage_, num_warps, far_next_,
                       [](std::size_t c) { return c * kWarp; });
    far_list_.swap(far_next_);
    // Exact far mask rebuild from the surviving bank rows.
    std::fill(far_mask_.begin(), far_mask_.end(), std::uint64_t{0});
    for (std::size_t c = 0; c < num_warps; ++c)
      for (std::uint32_t w = 0; w < wpv_; ++w)
        far_mask_[w] |= warp_far_or_[c * wpv_ + w];
    // Bumped lanes' minimums moved out; rebuild them from the survivor
    // tallies (lanes that kept no survivors correctly reset to infinity).
    for (std::uint32_t w = 0; w < wpv_; ++w) {
      std::uint64_t bits = bumped_[w];
      const std::uint32_t lane_base = w * kLanesPerWord;
      while (bits) {
        const auto q = lane_base +
                       static_cast<std::uint32_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        far_min_[q] = kInfinity;
      }
    }
    fold_min_tallies();
  }

  /// Folds the per-thread tallies into the per-lane stats and returns them
  /// (moved out; `begin()` re-initializes for the next enactment).
  std::vector<PriorityQueueStats> take_lane_stats() {
    const std::size_t threads = tally_near_.size() / (b_ ? b_ : 1);
    for (std::size_t t = 0; t < threads; ++t)
      for (std::uint32_t q = 0; q < b_; ++q) {
        stats_[q].near_total += tally_near_[t * b_ + q];
        stats_[q].far_total += tally_far_[t * b_ + q];
      }
    return std::move(stats_);
  }

 private:
  void grow_warp_or(std::size_t num_warps) {
    if (warp_near_or_.size() < num_warps * wpv_)
      warp_near_or_.resize(num_warps * wpv_);
    if (warp_far_or_.size() < num_warps * wpv_)
      warp_far_or_.resize(num_warps * wpv_);
  }

  /// Per-(vertex, lane) dist checks of the split/wake kernels (one
  /// coalesced read step, one coalesced enqueue-label write step per 32
  /// lane-contiguous cells), priced as one fused warp-parallel pass — the
  /// same convention as the relax kernel's batch_lane_relax cell pass.
  void charge_cell_pass(simt::Device& dev) {
    std::uint64_t cells = 0;
    for (std::size_t t = 0; t < cell_counts_.size(); t += kCellStride) {
      cells += cell_counts_[t];
      cell_counts_[t] = 0;
    }
    dev.charge_pass("batch_pq_cells", cells,
                    2 * simt::CostModel::kCoalesced + simt::CostModel::kAlu,
                    /*fused=*/true);
  }

  /// Mins the per-thread minimum tallies into `far_min_` and resets them.
  /// Min folds commute, so the tracker is thread-count independent.
  void fold_min_tallies() {
    const std::size_t threads = tally_min_.size() / b_;
    for (std::size_t t = 0; t < threads; ++t)
      for (std::uint32_t q = 0; q < b_; ++q) {
        far_min_[q] = std::min(far_min_[q], tally_min_[t * b_ + q]);
        tally_min_[t * b_ + q] = kInfinity;
      }
  }

  std::uint32_t delta_ = 0;
  std::uint32_t b_ = 0;
  std::uint32_t wpv_ = 0;
  simt::VecBackend vb_ = simt::VecBackend::kScalar;  ///< resolved backend
  std::size_t flush_below_ = 0;           ///< tail-flush pile threshold
  std::size_t peak_pile_ = 0;             ///< largest pile seen this enact
  LaneMatrix far_;                        ///< far membership bank
  std::vector<std::uint8_t> in_far_;      ///< vertex present in far_list_
  std::vector<std::uint32_t> far_list_;   ///< vertices with banked bits
  std::vector<std::uint32_t> far_next_;   ///< pile rebuild staging
  aligned_vector<std::uint64_t> cutoff_;     ///< per-lane priority cutoff
  aligned_vector<std::uint32_t> cutoff32_;  ///< u32 cutoff mirror (clamped)
  aligned_vector<std::uint64_t> cutoff_wide_;  ///< per-word: cutoff > u32 max
  std::vector<PriorityQueueStats> stats_; ///< per-lane schedule stats
  aligned_vector<std::uint64_t> near_mask_;  ///< lanes near-active this round
  aligned_vector<std::uint64_t> far_mask_;   ///< lanes with banked far work
  aligned_vector<std::uint64_t> drained_;    ///< far work, no near work
  aligned_vector<std::uint64_t> bumped_;     ///< lanes whose cutoff advanced
  std::vector<std::uint32_t> far_min_;    ///< per-lane min banked distance
  aligned_vector<std::uint64_t> tally_near_; ///< per-thread near counters
  aligned_vector<std::uint64_t> tally_far_;  ///< per-thread far counters
  aligned_vector<std::uint32_t> tally_min_;  ///< per-thread min-dist tallies
  aligned_vector<std::uint64_t> cell_counts_; ///< per-thread cell-pass tallies
  simt::ChunkedOutput near_stage_;
  simt::ChunkedOutput far_stage_;
  aligned_vector<std::uint64_t> warp_near_or_;
  aligned_vector<std::uint64_t> warp_far_or_;
};

}  // namespace grx
