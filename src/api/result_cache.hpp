// grx::ResultCache — the serving layer's epoch-keyed memo table.
//
// A bounded, sharded-lock LRU plus a singleflight (in-flight dedup)
// registry, generic over the key, the cached value, and the waiter handle
// the server parks on a pending computation. grx::Server instantiates it
// over (ServingCacheKey, QueryResult, Pending): the key is the exact
// fingerprint the batch coalescer fuses on — (graph epoch, query kind,
// source, fuse-compat options) — which is what makes memoization sound
// here: the repo's determinism contract says a served result is
// byte-identical to a recompute of the same key, so a cache hit IS the
// recompute (docs/api.md, "The result cache").
//
// Two tiers of win:
//
//  * Hits: lookup()/probe() return the published value and the requester
//    never touches an engine.
//
//  * Singleflight: the first prober of an uncached key becomes the OWNER
//    (it runs the enact); every identical prober that arrives while the
//    computation is in flight is ATTACHED — its waiter handle parks in
//    the registry, and the owner's publish() hands all parked waiters
//    back for demux fan-out. One enact, N tickets. abort() covers the
//    owner's failure paths (cooperative stop, worker death) so no waiter
//    is ever stranded.
//
// Immutability contract (enforced by grx_lint's [cache-immutable] rule):
// entries are immutable snapshots held as shared_ptr<const Value> — a
// published value owns its payload outright and is never a pointer into
// a worker's pooled engine state, so a hit handed to one client cannot
// alias buffers a later enact will overwrite. Readers copy out of the
// shared snapshot; the snapshot itself is never mutated after publish().
//
// Invalidation is the caller's policy, epoch-precise by construction:
// the epoch is part of the key, so a graph publish makes prior-epoch
// entries unreachable immediately; evict_if() is the piggybacked sweep
// that actually frees them (grx::Server runs it on the apply_updates
// path, mirroring the snapshot-reclamation collect).
//
// Threading: every public method is thread-safe. State is partitioned
// into kShards independently locked segments selected by the key hash;
// a method takes exactly one shard mutex and no other lock, so the cache
// composes with the server's queue/stats/ticket mutexes without ordering
// constraints (the shard mutex is always a leaf).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/common.hpp"

namespace grx {

template <typename Key, typename Value, typename Waiter,
          typename Hash = std::hash<Key>>
class ResultCache {
 public:
  /// Lock shards. More shards, less contention; each costs one mutex and
  /// two small hash maps.
  static constexpr std::uint32_t kShards = 8;

  /// How probe() classified the caller.
  enum class Probe : std::uint8_t {
    kHit,       ///< value returned; waiter untouched
    kAttached,  ///< waiter parked on an in-flight computation of this key
    kOwner,     ///< caller must compute, then publish() or abort() the key
  };

  /// What publish() hands back to the owner.
  struct Publication {
    std::vector<Waiter> waiters;  ///< parked while the owner computed
    std::size_t evicted = 0;      ///< LRU entries dropped by the insert
  };

  /// `max_entries` is the global entry bound, split evenly across shards
  /// (each shard evicts its own least-recently-used entry past its slice
  /// of the budget).
  explicit ResultCache(std::uint32_t max_entries) {
    const std::uint32_t cap = std::max<std::uint32_t>(1, max_entries);
    per_shard_cap_ = std::max<std::uint32_t>(1, cap / kShards);
    shards_.reserve(kShards);
    for (std::uint32_t i = 0; i < kShards; ++i)
      shards_.push_back(std::make_unique<Shard>());
  }

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Read-only probe (the server's submit-side fast path): the published
  /// snapshot for `k`, or null. Touches the LRU on hit.
  std::shared_ptr<const Value> lookup(const Key& k) {
    Shard& s = shard_of(k);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.map.find(k);
    if (it == s.map.end()) return nullptr;
    s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
    return it->second.value;
  }

  /// Dequeue-side probe. kHit: `hit` is set, `w` untouched. kAttached:
  /// `w` was moved into the in-flight registry — the key's owner will
  /// receive it from publish()/abort(). kOwner: the caller is now
  /// responsible for computing `k` and MUST eventually publish() or
  /// abort() it, or attached waiters leak.
  Probe probe(const Key& k, Waiter& w, std::shared_ptr<const Value>& hit) {
    Shard& s = shard_of(k);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.map.find(k);
    if (it != s.map.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
      hit = it->second.value;
      return Probe::kHit;
    }
    auto fit = s.inflight.find(k);
    if (fit != s.inflight.end()) {
      fit->second.push_back(std::move(w));
      return Probe::kAttached;
    }
    s.inflight.emplace(k, std::vector<Waiter>{});
    return Probe::kOwner;
  }

  /// Owner-side completion: optionally stores `v` (store=false for
  /// results that must never be cached, e.g. the requester opted out),
  /// closes the in-flight entry, and returns every waiter parked on it.
  /// Tolerates a key whose in-flight entry is already gone (an earlier
  /// abort swept it): the publication is then just an insert.
  Publication publish(const Key& k, std::shared_ptr<const Value> v,
                      bool store) {
    Publication out;
    Shard& s = shard_of(k);
    std::lock_guard<std::mutex> lk(s.mu);
    auto fit = s.inflight.find(k);
    if (fit != s.inflight.end()) {
      out.waiters = std::move(fit->second);
      s.inflight.erase(fit);
    }
    if (store && v != nullptr && s.map.find(k) == s.map.end()) {
      s.lru.push_front(k);
      s.map.emplace(k, Entry{std::move(v), s.lru.begin()});
      while (s.map.size() > per_shard_cap_) {
        s.map.erase(s.lru.back());
        s.lru.pop_back();
        ++out.evicted;
      }
    }
    return out;
  }

  /// Owner-side failure: drops the in-flight entry without publishing a
  /// value and returns the parked waiters so the owner can fail them by
  /// their own contracts. No-op (empty result) if the key is not in
  /// flight — abort after publish is safe.
  std::vector<Waiter> abort(const Key& k) {
    Shard& s = shard_of(k);
    std::lock_guard<std::mutex> lk(s.mu);
    auto fit = s.inflight.find(k);
    if (fit == s.inflight.end()) return {};
    std::vector<Waiter> ws = std::move(fit->second);
    s.inflight.erase(fit);
    return ws;
  }

  /// The invalidation sweep: drops every stored entry whose key matches
  /// `stale` (e.g. key.epoch < newest). In-flight registrations are NOT
  /// touched — their owners publish into an unreachable slot that the
  /// next sweep or LRU pressure reclaims. Returns the eviction count.
  template <typename Pred>
  std::size_t evict_if(Pred stale) {
    std::size_t evicted = 0;
    for (auto& sp : shards_) {
      Shard& s = *sp;
      std::lock_guard<std::mutex> lk(s.mu);
      for (auto it = s.lru.begin(); it != s.lru.end();) {
        if (stale(*it)) {
          s.map.erase(*it);
          it = s.lru.erase(it);
          ++evicted;
        } else {
          ++it;
        }
      }
    }
    return evicted;
  }

  /// Stored entries across all shards (gauge; shards locked in turn).
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& sp : shards_) {
      std::lock_guard<std::mutex> lk(sp->mu);
      n += sp->map.size();
    }
    return n;
  }

 private:
  struct Entry {
    std::shared_ptr<const Value> value;  ///< immutable published snapshot
    typename std::list<Key>::iterator lru_it;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Key> lru;  ///< front = most recently used
    std::unordered_map<Key, Entry, Hash> map;
    std::unordered_map<Key, std::vector<Waiter>, Hash> inflight;
  };

  Shard& shard_of(const Key& k) {
    return *shards_[Hash{}(k) % shards_.size()];
  }

  /// unique_ptr elements: shards hold a mutex (immovable) and must stay
  /// address-stable while other threads hold references into them.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint32_t per_shard_cap_ = 1;
};

}  // namespace grx
