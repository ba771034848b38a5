// Virtual SIMT device: kernel launches, warps, lanes, and cost accounting.
//
// Engines execute *real* work (the functors run and produce real results) on
// the host, while the device model charges cycles per warp-step exactly as a
// lockstep SIMD machine would: a warp-step costs the maximum over its lanes,
// idle lanes burn their slots, kernel launches pay fixed overhead. See
// cost_model.hpp for the rationale.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "simt/cost_model.hpp"
#include "simt/counters.hpp"
#include "util/common.hpp"

namespace grx::simt {

/// Per-lane cost accumulator handed to `Device::for_each` functors.
/// A lane's charges are "cycles this lane keeps its warp busy if it is the
/// critical lane"; the warp then costs the max over its 32 lanes.
class Lane {
 public:
  /// Raw cycle charge.
  void charge(std::uint64_t cycles) { cycles_ += cycles; }
  /// One ALU step.
  void alu(std::uint64_t n = 1) { cycles_ += n * CostModel::kAlu; }
  /// Lane's share of a warp-coalesced memory transaction.
  void load_coalesced(std::uint64_t n = 1) { cycles_ += n * CostModel::kCoalesced; }
  /// Scattered access: the lane pays for a serialized transaction.
  void load_scattered(std::uint64_t n = 1) { cycles_ += n * CostModel::kScattered; }
  /// Atomic read-modify-write.
  void atomic(std::uint64_t n = 1) { cycles_ += n * CostModel::kAtomic; }

  std::uint64_t cycles() const { return cycles_; }

 private:
  std::uint64_t cycles_ = 0;
};

/// Cost accumulator for warp-programs (`Device::for_each_warp`), where the
/// engine itself decides how work maps onto lanes. One `step()` is one SIMT
/// instruction batch: the warp advances `cycles`, with `active_lanes` of the
/// 32 doing useful work (the rest are divergence waste).
class Warp {
 public:
  explicit Warp(std::size_t id) : id_(id) {}

  void step(unsigned active_lanes, std::uint64_t cycles) {
    GRX_CHECK(active_lanes <= CostModel::kWarpSize);
    cycles_ += cycles;
    active_lane_cycles_ +=
        static_cast<std::uint64_t>(active_lanes) * cycles;
  }

  /// Bulk charge for analytically-computed phases: `k` work items processed
  /// cooperatively at `cycles_per_step` per 32-wide step. Cycles are
  /// ceil(k/32) steps; idle tail lanes burn their slots.
  void bulk(std::uint64_t k, std::uint64_t cycles_per_step) {
    constexpr auto W = CostModel::kWarpSize;
    cycles_ += (k + W - 1) / W * cycles_per_step;
    active_lane_cycles_ += k * cycles_per_step;
  }

  /// Raw charge where the caller computed both totals (e.g. the per-thread
  /// fine-grained advance: cycles = max lane work, active = sum lane work).
  void charge(std::uint64_t cycles, std::uint64_t active_lane_cycles) {
    GRX_CHECK(active_lane_cycles <=
              cycles * static_cast<std::uint64_t>(CostModel::kWarpSize));
    cycles_ += cycles;
    active_lane_cycles_ += active_lane_cycles;
  }

  // Convenience wrappers mirroring Lane's helpers.
  void alu(unsigned active = CostModel::kWarpSize) { step(active, CostModel::kAlu); }
  void load_coalesced(unsigned active = CostModel::kWarpSize) {
    step(active, CostModel::kCoalesced);
  }
  void load_scattered(unsigned active = CostModel::kWarpSize) {
    step(active, CostModel::kScattered);
  }
  void atomic(unsigned active = CostModel::kWarpSize) {
    step(active, CostModel::kAtomic);
  }

  std::size_t id() const { return id_; }
  std::uint64_t cycles() const { return cycles_; }
  std::uint64_t active_lane_cycles() const { return active_lane_cycles_; }

 private:
  std::size_t id_;
  std::uint64_t cycles_ = 0;
  std::uint64_t active_lane_cycles_ = 0;
};

/// The virtual device. One instance per engine run; counters accumulate
/// across kernel launches until reset().
class Device {
 public:
  Device() = default;

  void reset() {
    counters_ = {};
    log_.clear();
  }

  const DeviceCounters& counters() const { return counters_; }

  /// When profiling, every launch appends a KernelStats record.
  void set_profiling(bool on) { profiling_ = on; }
  const std::vector<KernelStats>& kernel_log() const { return log_; }

  /// Below this many warps a kernel runs on the calling thread: entering an
  /// OpenMP parallel region costs a fixed ~0.3-1us, which dwarfs the work of
  /// a tiny launch (the host-side analog of a latency-bound GPU launch).
  /// High-diameter graphs issue hundreds of such tiny launches per run.
  static constexpr std::size_t kSerialLaunchWarps = 32;

  /// Serial-vs-OpenMP dispatch for reduction-free host-side chunk loops
  /// (output scatters and similar library passes) sharing the same
  /// threshold as kernel launches. Loops needing OpenMP reductions (the
  /// cost-accounting launch below, the degree gather) stay hand-written —
  /// reduction clauses cannot be abstracted over a callable.
  template <typename Fn>
  static void parallel_chunks(std::size_t n, Fn&& fn) {
    if (n <= kSerialLaunchWarps) {
      for (std::size_t c = 0; c < n; ++c) fn(c);
    } else {
#pragma omp parallel for schedule(static)
      for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(n); ++c)
        fn(static_cast<std::size_t>(c));
    }
  }

  /// Launch a kernel of `n` logical threads, one work item per lane, warps
  /// formed from 32 consecutive items. `fn(Lane&, std::size_t i)`.
  template <typename Fn>
  void for_each(const char* name, std::size_t n, Fn&& fn) {
    constexpr unsigned W = CostModel::kWarpSize;
    const std::size_t num_warps = (n + W - 1) / W;
    launch(name, num_warps, /*omp_chunk=*/64, [&](std::size_t w) {
      const std::size_t base = w * W;
      const unsigned lanes =
          static_cast<unsigned>(std::min<std::size_t>(W, n - base));
      std::uint64_t warp_max = 0, warp_sum = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        Lane lane;
        fn(lane, base + l);
        // Every live lane costs at least one issue slot.
        const std::uint64_t c = lane.cycles() + CostModel::kAlu;
        warp_max = std::max(warp_max, c);
        warp_sum += c;
      }
      return std::pair{warp_max, warp_sum};
    });
  }

  /// Launch `num_warps` warp-programs; the engine maps work onto lanes
  /// itself via Warp::step. Used by TWC / load-balanced advance where work
  /// assignment is not one-item-per-lane.
  template <typename Fn>
  void for_each_warp(const char* name, std::size_t num_warps, Fn&& fn) {
    launch(name, num_warps, /*omp_chunk=*/16, [&](std::size_t w) {
      Warp warp(w);
      fn(warp);
      return std::pair{warp.cycles(), warp.active_lane_cycles()};
    });
  }

  /// Charge a uniform, fully-coalesced device pass over `n` items at
  /// `cycles_per_warp_step` (all 32 lanes active) without running host code.
  /// Used for bookkeeping passes (memsets, scans) whose host-side work is
  /// done by the library, not a user functor. When `fused` is true the pass
  /// is a sub-phase of an enclosing kernel (no launch counted and no launch
  /// latency paid) — e.g. the LB advance's sorted search and output scatter
  /// live inside the traversal kernel in Gunrock proper.
  void charge_pass(const char* name, std::size_t n,
                   std::uint64_t cycles_per_warp_step, bool fused = false) {
    constexpr unsigned W = CostModel::kWarpSize;
    const std::size_t num_warps = (n + W - 1) / W;
    const std::uint64_t total = num_warps * cycles_per_warp_step;
    finish_kernel(name, num_warps, total, cycles_per_warp_step,
                  total * CostModel::kWarpSize, !fused);
  }

 private:
  /// Shared launch dispatch: runs `run_warp(w) -> {cycles, active_cycles}`
  /// over all warps — serially below kSerialLaunchWarps, under OpenMP
  /// (dynamic schedule, `omp_chunk` warps per grab) above — accumulating
  /// the kernel's cost totals either way.
  template <typename RunWarp>
  void launch(const char* name, std::size_t num_warps, int omp_chunk,
              RunWarp&& run_warp) {
    std::uint64_t total = 0, active = 0, crit = 0;
    if (num_warps <= kSerialLaunchWarps) {
      for (std::size_t w = 0; w < num_warps; ++w) {
        const auto [cycles, active_cycles] = run_warp(w);
        total += cycles;
        active += active_cycles;
        crit = std::max(crit, cycles);
      }
    } else {
#pragma omp parallel for schedule(dynamic, omp_chunk) \
    reduction(+ : total, active) reduction(max : crit)
      for (std::ptrdiff_t w = 0; w < static_cast<std::ptrdiff_t>(num_warps);
           ++w) {
        const auto [cycles, active_cycles] =
            run_warp(static_cast<std::size_t>(w));
        total += cycles;
        active += active_cycles;
        crit = std::max(crit, cycles);
      }
    }
    finish_kernel(name, num_warps, total, crit, active);
  }

  void finish_kernel(const char* name, std::uint64_t warps,
                     std::uint64_t total_warp_cycles,
                     std::uint64_t max_warp_cycles,
                     std::uint64_t active_lane_cycles,
                     bool count_launch = true);

  DeviceCounters counters_;
  bool profiling_ = false;
  std::vector<KernelStats> log_;
};

}  // namespace grx::simt
