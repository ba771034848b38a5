// Cost model for the virtual SIMT device.
//
// The paper's experiments ran on an NVIDIA K40c. This repo has no GPU, so
// all "GPU" engines (Gunrock core, GAS/Medusa baselines, hardwired analogs)
// execute on a virtual SIMT device that *counts* the quantities Gunrock's
// claims are actually about:
//
//   * warp divergence   — a warp-step costs the max over its 32 lanes, so an
//                         unbalanced advance is charged for its idle lanes;
//   * memory behaviour  — coalesced accesses are cheap per lane, scattered
//                         ones are charged per transaction;
//   * atomics           — serialized, so contended updates cost more;
//   * kernel launches   — fixed overhead per launch, which is exactly the
//                         fusion argument of Section 4.3 (GAS engines launch
//                         3-4 kernels per iteration, Gunrock fuses to 1-2).
//
// Simulated device time for one kernel is
//     max(critical_warp_cycles, total_warp_cycles / (SMs * issue_width))
// i.e. a kernel can finish no faster than its longest warp (small-frontier
// iterations on road networks stay latency-bound) and no faster than the
// machine's aggregate warp-issue throughput (big frontiers are
// throughput-bound). Launch overhead is added per kernel.
//
// The constants below are derived from the K40c: 15 SMX, 4 warp schedulers
// per SMX, 745 MHz, ~288 GB/s DRAM. They set the absolute scale only; the
// paper-table benches compare *shapes* (ratios, crossovers), which are
// invariant to uniform rescaling.
#pragma once

#include <cstdint>

namespace grx::simt {

struct CostModel {
  /// SIMD width of a warp (CUDA's fixed 32).
  static constexpr unsigned kWarpSize = 32;
  /// CTA (thread block) size used by all engines, in threads.
  static constexpr unsigned kCtaSize = 256;
  /// Streaming multiprocessors on the device (K40c: 15 SMX).
  static constexpr unsigned kNumSm = 15;
  /// Warp instructions issued per SM per cycle (4 schedulers).
  static constexpr unsigned kIssuePerSm = 4;
  /// Core clock in GHz (K40c boost: 0.875, base 0.745; we use base).
  static constexpr double kClockGhz = 0.745;

  // --- per-warp-step costs, in cycles -----------------------------------
  /// Plain ALU step.
  static constexpr std::uint64_t kAlu = 1;
  /// Warp-coalesced 32-lane load/store (one 128B transaction, amortized).
  static constexpr std::uint64_t kCoalesced = 8;
  /// Scattered (per-lane transaction) load/store for a full warp.
  static constexpr std::uint64_t kScattered = 32;
  /// Atomic RMW for a full warp with low contention.
  static constexpr std::uint64_t kAtomic = 24;
  /// Extra serialization per additional lane hitting the *same* address.
  static constexpr std::uint64_t kAtomicConflict = 8;

  /// Fixed kernel launch overhead in microseconds (driver + dispatch).
  /// Measured launch latencies on Kepler are 3-8 us. We charge 1 us: the
  /// dataset analogs are ~1/64 the paper's edge counts, so the physical
  /// 5 us would put *every* run in the latency-bound regime, which the
  /// paper's full-size scale-free inputs are not. 1 us keeps the
  /// compute-to-overhead balance of each topology class (scale-free:
  /// throughput-bound; road/rgg: latency-bound) at analog scale.
  /// Scale this with the inputs if you change dataset sizes.
  static constexpr double kLaunchUs = 1.0;

  /// Cycles available per microsecond across the whole device.
  static constexpr double device_cycles_per_us() {
    return kClockGhz * 1e3 * kNumSm * kIssuePerSm;
  }
};

}  // namespace grx::simt
