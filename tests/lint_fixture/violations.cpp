// Synthetic violation fixture for `tools/grx_lint --self-test`.
//
// Every line tagged `lint-expect: <rule>` seeds exactly one violation the
// lint MUST report; the self-test fails on any miss AND on any extra
// finding, so this file also pins down what the lint must NOT flag (the
// "clean" section at the bottom). The self-test runs this file as if it
// were simultaneously an enact-path file, a lane-matrix file, a cache
// file, a src/core/ or src/primitives/ file, and outside the seam
// directories — every rule armed at once.
//
// This file is never compiled; it only needs to look like C++.
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace fixture {

struct Shared {
  std::atomic<int> counter{0};  // declaring std::atomic is fine
  std::atomic<std::uint64_t> word{0};
};

inline int raw_ops(Shared& s) {
  int v = s.counter.load();                             // lint-expect: raw-atomic
  s.counter.store(v + 1);                               // lint-expect: raw-atomic
  s.word.fetch_add(1, std::memory_order_relaxed);       // lint-expect: raw-atomic lint-expect: mo-comment
  int expected = 0;
  s.counter.compare_exchange_strong(expected, 2);       // lint-expect: raw-atomic
  __atomic_thread_fence(__ATOMIC_SEQ_CST);              // lint-expect: raw-atomic
  std::uint64_t raw = 0;
  std::atomic_ref<std::uint64_t> ref(raw);              // lint-expect: raw-atomic
  return v;
}

inline void unexplained_order(std::atomic<int>& flag) {
  // A weaker-than-seq_cst order with no rationale tag anywhere nearby —
  // an ordinary comment like this one does not count.
  flag.store(1, std::memory_order_release);  // grx-lint: allow(raw-atomic) lint-expect: mo-comment
}

inline void explained_order(std::atomic<int>& flag) {
  // mo: release — fixture example of a properly documented weak order.
  flag.store(1, std::memory_order_release);  // grx-lint: allow(raw-atomic)
}

inline void hot_loop_allocations() {
  int* leak = new int[64];                              // lint-expect: enact-alloc
  void* buf = malloc(256);                              // lint-expect: enact-alloc
  auto owned = std::make_unique<int>(7);                // lint-expect: enact-alloc
  auto shared = std::make_shared<int>(9);               // lint-expect: enact-alloc
  (void)leak; (void)buf; (void)owned; (void)shared;
}

struct LaneMatrix {
  std::vector<std::uint64_t> words;                     // lint-expect: lane-align
  void kernel() {
    std::uint64_t tmp[8];                               // lint-expect: lane-align
    alignas(16) std::uint64_t weak[4];                  // lint-expect: lane-align
    (void)tmp; (void)weak;
  }
};

struct CacheEntryFixture {
  std::shared_ptr<int> mutable_entry;                   // lint-expect: cache-immutable
  const LaneMatrix* pooled_state;                       // lint-expect: cache-immutable
  LaneMatrix* engine_buffer = nullptr;                  // lint-expect: cache-immutable
};

struct BfsOptions {                                    // lint-expect: options-struct
  bool idempotent = true;
};
struct BatchOptions;                                   // lint-expect: options-struct

// ---- clean section: none of this may be flagged -----------------------------

// The one options type, and names that merely end in "Options".
struct QueryOptions {
  bool cache = true;
};
inline void takes_options(const QueryOptions&) {}

struct CleanCacheEntry {
  // The blessed shape: an immutable snapshot that owns its bytes.
  std::shared_ptr<const int> snapshot;
};

struct CleanLanes {
  // aligned_vector and alignas(>=32) stack words are the blessed shapes.
  alignas(64) std::uint64_t staging[8]{};
  alignas(32) std::uint64_t avx2_tmp[4]{};
};

inline int clean_code(Shared& s) {
  // Mentioning s.counter.load() in a comment is not an operation.
  // String literals are not code either:
  const char* doc = "call .load() and new int[] and malloc()";
  // A suppressed raw op (e.g. a platform shim) stays quiet:
  return s.counter.load() + (doc != nullptr);  // grx-lint: allow(raw-atomic)
}

}  // namespace fixture
