#include "api/server.hpp"

#include <omp.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "verify/sched.hpp"

namespace grx {

// --- QueryTicket -------------------------------------------------------------

struct QueryTicket::State {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  QueryOutcome outcome = QueryOutcome::kPending;
  QueryResult result;
  std::exception_ptr error;
};

bool QueryTicket::ready() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lk(state_->m);
  return state_->done;
}

bool QueryTicket::wait_for(std::chrono::microseconds timeout) const {
  GRX_CHECK_MSG(valid(),
                "wait_for on an empty or already-consumed QueryTicket");
  std::unique_lock<std::mutex> lk(state_->m);
  return state_->cv.wait_for(lk, timeout, [&] { return state_->done; });
}

QueryOutcome QueryTicket::outcome() const {
  if (!state_) return QueryOutcome::kPending;
  std::lock_guard<std::mutex> lk(state_->m);
  return state_->outcome;
}

QueryResult QueryTicket::get() {
  GRX_CHECK_MSG(valid(), "get() on an empty or already-consumed QueryTicket");
  std::shared_ptr<State> s = std::move(state_);
  std::unique_lock<std::mutex> lk(s->m);
  s->cv.wait(lk, [&] { return s->done; });
  if (s->error) std::rethrow_exception(s->error);
  return std::move(s->result);
}

std::optional<QueryResult> QueryTicket::try_get() {
  GRX_CHECK_MSG(valid(),
                "try_get() on an empty or already-consumed QueryTicket");
  {
    std::lock_guard<std::mutex> lk(state_->m);
    if (!state_->done) return std::nullopt;
  }
  return get();
}

void Server::fulfill(const std::shared_ptr<QueryTicket::State>& s,
                     QueryResult&& r) {
  {
    std::lock_guard<std::mutex> lk(s->m);
    s->result = std::move(r);
    s->outcome = QueryOutcome::kOk;
    s->done = true;
  }
  s->cv.notify_all();
}

void Server::fulfill_error(const std::shared_ptr<QueryTicket::State>& s,
                           QueryOutcome outcome, std::exception_ptr e) {
  {
    std::lock_guard<std::mutex> lk(s->m);
    if (s->done) return;  // never clobber a ticket already resolved
    s->error = std::move(e);
    s->outcome = outcome;
    s->done = true;
  }
  s->cv.notify_all();
}

namespace {

/// May `a` and `b` share one batched enact? Same primitive, and the same
/// canonicalized options fingerprint (FuseOptionsKey: every field the
/// batched engine consumes) — anything else would silently serve one of
/// them with the other's configuration. Deadlines, tokens, and the cache
/// opt-out do NOT gate fusion: they are per-lane concerns the demux path
/// resolves (late flag / cancel at the enact boundary / skip-publish).
bool fuse_compatible(const QueryRequest& a, const QueryRequest& b) {
  return a.kind == b.kind &&
         fuse_options_key(a.kind, a.opts) == fuse_options_key(b.kind, b.opts);
}

/// The result cache key for `req` served on `epoch`: the fuse fingerprint
/// plus (epoch, kind, source). Whole-graph kinds normalize source to 0 —
/// their results are source-independent.
ServingCacheKey cache_key_of(const QueryRequest& req, Epoch epoch) {
  ServingCacheKey k;
  k.epoch = epoch;
  k.kind = req.kind;
  k.source = coalescable(req.kind) ? req.source : 0;
  k.opts = fuse_options_key(req.kind, req.opts);
  return k;
}

}  // namespace

// --- Server ------------------------------------------------------------------

/// Per-worker private world: device, engine, and pooled result objects so
/// the steady-state serving path allocates only the per-ticket demux
/// vectors it hands to callers. Device + engine live behind unique_ptr so
/// the watchdog can rebuild them after a mid-enact death.
struct Server::Worker {
  explicit Worker(Server& srv) { rebuild(srv); }

  /// Fresh device + engine. After an exception escaped an enact the old
  /// engine's pooled problem state is mid-enact garbage with no invariants
  /// to salvage; a respawned worker starts from a clean world. The engine
  /// always binds the graph as its own transpose: CC and PageRank, the
  /// kinds that read the transpose, are admitted at submit only on a
  /// symmetric graph, so workers never re-check symmetry.
  void rebuild(Server& srv) {
    engine.reset();
    dev = std::make_unique<simt::Device>();
    if (srv.dyn_ != nullptr) {
      // Bind to the current snapshot just to construct the engine. The
      // temporary pin is released immediately: before every enact,
      // execute() compares the freshly pinned view's epoch against
      // bound_epoch and rebinds when it moved — and while the epoch has
      // NOT moved, the bound snapshot is still the head and thus alive.
      SnapshotView v = srv.dyn_->snapshot();
      bound_epoch = v.epoch();
      engine = std::make_unique<Engine>(*dev, v.csr(), v.csr());
    } else {
      engine = std::make_unique<Engine>(*dev, *srv.g_, *srv.g_);
    }
  }

  std::unique_ptr<simt::Device> dev;
  std::unique_ptr<Engine> engine;
  std::thread thread;

  /// Dynamic mode: the snapshot pinned at dequeue time, serving the whole
  /// current batch; released after execute() so an idle worker never
  /// blocks reclamation. Invalid (never pinned) on a static server.
  SnapshotView view;
  /// Dynamic mode: the epoch this worker's engine is currently bound to.
  Epoch bound_epoch = 0;

  /// The in-flight batch, owned by this worker's thread. Lives here (not
  /// on worker_loop's stack) so the watchdog can fail its unresolved
  /// tickets when an exception unwinds the loop.
  std::vector<Pending> batch;

  std::vector<VertexId> sources;  ///< lane -> source of the current batch
  /// member -> lane of the current batch. Duplicate (source, fuse-key)
  /// members collapse onto one lane at batch build, so an enact never
  /// spends two lanes computing the same thing; demux fans the shared
  /// lane out to every collapsed ticket.
  std::vector<std::uint32_t> lane_of;
  /// In-flight cache keys this worker owns (registered by consult_cache,
  /// closed by publish on the demux path or abort on every failure path).
  /// Lives on the worker (not execute()'s stack) so the watchdog can
  /// strand-proof the parked waiters after a mid-enact death.
  struct OwnedKey {
    std::uint32_t member;  ///< index into the compacted batch
    ServingCacheKey key;
  };
  std::vector<OwnedKey> owned;
  BatchBfsResult bfs;
  BatchSsspResult sssp;
  BatchReachabilityResult reach;
  BatchBcForwardResult bcf;
  CcResult cc;
  PagerankResult pr;
};

Server::Server(const Csr& g, const ServerOptions& opts) : opts_(opts) {
  g_ = &g;
  n_ = g.num_vertices();
  weighted_ = g.has_weights();
  start();
}

Server::Server(DynamicGraph& g, const ServerOptions& opts) : opts_(opts) {
  dyn_ = &g;
  n_ = g.num_vertices();
  weighted_ = true;  // snapshots always materialize weights
  symmetric_ = g.options().symmetric;
  start();
}

void Server::start() {
  if (opts_.num_workers == 0)
    opts_.num_workers = std::max(1u, std::thread::hardware_concurrency());
  if (opts_.cache.enabled)
    cache_ = std::make_unique<Cache>(opts_.cache.max_entries);
  workers_.reserve(opts_.num_workers);
  for (std::uint32_t i = 0; i < opts_.num_workers; ++i)
    workers_.push_back(std::make_unique<Worker>(*this));
  // Engines constructed before any thread starts: the spawns below
  // publish them (and the shared read-only graph) to the workers.
  for (auto& w : workers_)
    w->thread = std::thread([this, worker = w.get()] { worker_main(*worker); });
}

Server::~Server() { stop(); }

void Server::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
  space_cv_.notify_all();  // blocked submitters must wake to fail
  // Serialize the joins: stop() is documented thread-safe (and races the
  // destructor), but std::thread::join itself is not — the second caller
  // must wait here, then see joinable() == false.
  std::lock_guard<std::mutex> jl(join_mu_);
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

QueryTicket Server::submit(const QueryRequest& req) {
  const bool single_source =
      req.kind != QueryKind::kCc && req.kind != QueryKind::kPagerank;
  if (single_source)
    GRX_CHECK_MSG(req.source < n_, "query source out of range");
  if (req.kind == QueryKind::kSssp)
    GRX_CHECK_MSG(weighted_,
                  "SSSP submitted to a server over an unweighted graph");
  // CC and PageRank gather over the transpose, and workers bind the graph
  // as its own (Worker::rebuild): admit them only on a symmetric graph. A
  // symmetric DynamicGraph stays symmetric — its constructor checks the
  // base and every update is mirrored.
  if (req.kind == QueryKind::kCc || req.kind == QueryKind::kPagerank) {
    if (g_ != nullptr)
      std::call_once(symmetric_once_,
                     [this] { symmetric_ = is_symmetric(*g_); });
    GRX_CHECK_MSG(symmetric_,
                  "CC or PageRank submitted to a server over a directed graph "
                  "(a dynamic graph must be DynamicGraphOptions::symmetric)");
  }

  // Compose the query's robustness envelope once, at admission: the
  // effective deadline (request budget, else the server default) and the
  // server-owned token — a child of any client token, so the server can
  // attach its deadline and fault hooks without mutating client state.
  Pending p;
  p.req = req;
  // kNoDeadline short-circuits the default: before the sentinel existed,
  // 0 doubled as "use the server default", so a client could not request
  // an unlimited budget once default_deadline_us was configured.
  std::uint32_t budget_us = 0;
  if (req.deadline_us != QueryRequest::kNoDeadline)
    budget_us =
        req.deadline_us != 0 ? req.deadline_us : opts_.default_deadline_us;
  if (budget_us != 0 && budget_us != QueryRequest::kNoDeadline) {
    p.has_deadline = true;
    p.deadline = std::chrono::steady_clock::now() +
                 std::chrono::microseconds(budget_us);
  }
  if (req.cancel.valid())
    p.token = CancelToken::child_of(req.cancel);
  else if (p.has_deadline)
    p.token = CancelToken::make();
  if (p.token.valid() && p.has_deadline) p.token.set_deadline(p.deadline);

  QueryTicket t;
  t.state_ = std::make_shared<QueryTicket::State>();
  p.state = t.state_;

  // Submit-side cache consult (lookup only — singleflight attach happens
  // at dequeue): a hit resolves the ticket right here in the submitting
  // thread, never touching the queue, so hot-source hits are immune to
  // admission pressure. The probed epoch is the newest published one —
  // exactly what a worker dequeuing this query now would pin.
  if (cache_ != nullptr && req.opts.cache) {
    const Epoch head = dyn_ != nullptr ? dyn_->epoch() : 0;
    if (auto hit = cache_->lookup(cache_key_of(req, head))) {
      {
        // Same bump-before-resolve discipline as the queue path: stats()
        // never shows more resolved queries than submitted ones.
        std::unique_lock<std::mutex> lk(mu_);
        GRX_CHECK_MSG(!stopped_, "submit on a stopped grx::Server");
        std::lock_guard<std::mutex> sl(stats_mu_);
        stats_.queries_submitted++;
      }
      if (p.token.cancelled()) {
        resolve_cancelled(p);
      } else {
        QueryResult r(*hit);
        resolve_served(p, std::move(r), /*late=*/false, /*cache_hit=*/true);
      }
      return t;
    }
  }

  {
    std::unique_lock<std::mutex> lk(mu_);
    GRX_CHECK_MSG(!stopped_, "submit on a stopped grx::Server");
    if (opts_.max_queue > 0 && queue_.size() >= opts_.max_queue) {
      if (opts_.admission == AdmissionPolicy::kReject) {
        std::lock_guard<std::mutex> sl(stats_mu_);
        stats_.rejected++;
        throw RejectedError("submission rejected: queue full (" +
                            std::to_string(opts_.max_queue) + " queued)");
      }
      // kBlock: wait for a worker to free a slot (back-pressure), bounded
      // by the admission timeout if one is configured.
      auto has_space = [&] {
        return stopped_ || queue_.size() < opts_.max_queue;
      };
      if (opts_.admission_timeout_us == 0) {
        space_cv_.wait(lk, has_space);
      } else if (!space_cv_.wait_for(
                     lk,
                     std::chrono::microseconds(opts_.admission_timeout_us),
                     has_space)) {
        std::lock_guard<std::mutex> sl(stats_mu_);
        stats_.rejected++;
        throw RejectedError(
            "submission rejected: admission timed out waiting for a queue "
            "slot");
      }
      if (stopped_) {
        std::lock_guard<std::mutex> sl(stats_mu_);
        stats_.rejected++;
        throw RejectedError(
            "submission rejected: server stopped while awaiting admission");
      }
    }
    {
      // Submitted is bumped before the queue push (still under mu_, so a
      // worker cannot serve the query first): stats() never shows more
      // resolved queries than submitted ones.
      std::lock_guard<std::mutex> sl(stats_mu_);
      stats_.queries_submitted++;
    }
    queue_.push_back(std::move(p));
  }
  // notify_all, not _one: a worker mid-coalesce-window must wake to fuse
  // the arrival even while an idle worker also wakes to check the queue.
  cv_.notify_all();
  return t;
}

QueryTicket Server::submit_bfs(VertexId source, const QueryOptions& opts) {
  return submit({QueryKind::kBfs, source, opts});
}
QueryTicket Server::submit_sssp(VertexId source, const QueryOptions& opts) {
  return submit({QueryKind::kSssp, source, opts});
}
QueryTicket Server::submit_reachability(VertexId source,
                                        const QueryOptions& opts) {
  return submit({QueryKind::kReachability, source, opts});
}
QueryTicket Server::submit_bc_forward(VertexId source,
                                      const QueryOptions& opts) {
  return submit({QueryKind::kBcForward, source, opts});
}
QueryTicket Server::submit_cc(const QueryOptions& opts) {
  return submit({QueryKind::kCc, 0, opts});
}
QueryTicket Server::submit_pagerank(const QueryOptions& opts) {
  return submit({QueryKind::kPagerank, 0, opts});
}

Epoch Server::apply_updates(std::span<const EdgeUpdate> updates) {
  GRX_CHECK_MSG(dyn_ != nullptr,
                "apply_updates on a static-graph grx::Server");
  {
    std::lock_guard<std::mutex> lk(mu_);
    GRX_CHECK_MSG(!stopped_, "apply_updates on a stopped grx::Server");
  }
  // The graph's writer mutex serializes concurrent mutators; in-flight
  // queries keep serving their pinned snapshots untouched.
  const Epoch e = dyn_->apply_updates(updates);
  // The publish already made prior-epoch cache entries unreachable (the
  // epoch is in the key); this sweep — piggybacked on the same path that
  // collects superseded snapshots — actually frees them. Quiet epochs
  // cost nothing: no publish, no sweep.
  std::size_t swept = 0;
  if (cache_ != nullptr)
    swept = cache_->evict_if(
        [e](const ServingCacheKey& k) { return k.epoch < e; });
  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.update_batches++;
    stats_.updates_applied += updates.size();
    stats_.cache_evictions += swept;
  }
  return e;
}

ServerStats Server::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    s = stats_;  // one guarded struct copy: fields mutually consistent
  }
  if (dyn_ != nullptr) {
    // Graph-derived gauges read at snapshot time (the graph has its own
    // atomics; serving counters above stay mutually consistent).
    const DynamicGraphStats d = dyn_->stats();
    s.graph_epoch = d.epoch;
    s.compactions = d.compactions;
    s.snapshots_live = d.live_snapshots;
  }
  if (cache_ != nullptr) s.cache_entries = cache_->size();
  return s;
}

// --- outcome resolution ------------------------------------------------------
//
// Exactly-once discipline: each resolve_* bumps its counter (outcome
// already decided), fulfills the ticket, then drops Pending::state — so
// the watchdog can sweep a half-resolved batch without double-counting.
// Counters precede fulfillment: a client that has collected its tickets
// observes stats() covering them.

void Server::resolve_served(Pending& p, QueryResult&& r, bool late,
                            bool cache_hit) {
  r.late = late;
  {
    // cache_hits rides the same critical section as queries_served: the
    // two counters move together, so no stats() snapshot can show a hit
    // that is not also a served query (the double-count hazard a
    // separate bump would open).
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.queries_served++;
    if (late) stats_.late++;
    if (cache_hit) stats_.cache_hits++;
  }
  fulfill(p.state, std::move(r));
  p.state.reset();
}

void Server::resolve_shed(Pending& p) {
  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.shed++;
  }
  fulfill_error(p.state, QueryOutcome::kDeadlineExceeded,
                std::make_exception_ptr(DeadlineExceededError(
                    "query shed: deadline passed before an enact slot was "
                    "available")));
  p.state.reset();
}

void Server::resolve_cancelled(Pending& p) {
  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.cancelled++;
  }
  fulfill_error(p.state, QueryOutcome::kCancelled,
                std::make_exception_ptr(
                    CancelledError("query cancelled by its CancelToken")));
  p.state.reset();
}

void Server::resolve_deadline(Pending& p) {
  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.deadline_exceeded++;
  }
  fulfill_error(p.state, QueryOutcome::kDeadlineExceeded,
                std::make_exception_ptr(DeadlineExceededError(
                    "query deadline exceeded (stopped between rounds)")));
  p.state.reset();
}

void Server::resolve_worker_failed(Pending& p, const std::string& why) {
  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.worker_failures++;
  }
  fulfill_error(
      p.state, QueryOutcome::kWorkerFailed,
      std::make_exception_ptr(WorkerFailedError(
          "worker died mid-enact (worker respawned, query lost): " + why)));
  p.state.reset();
}

void Server::resolve_stopped(std::vector<Pending>& batch,
                             QueryOutcome fallback) {
  // A cooperative stop ended the whole enact; classify each member by its
  // OWN state (its token may have tripped for a different reason than the
  // enact-wide one), falling back to what stopped the enact.
  const auto now = std::chrono::steady_clock::now();
  for (Pending& p : batch) {
    if (!p.state) continue;
    if (p.token.cancelled())
      resolve_cancelled(p);
    else if (p.has_deadline && now >= p.deadline)
      resolve_deadline(p);
    else if (fallback == QueryOutcome::kCancelled)
      resolve_cancelled(p);
    else
      resolve_deadline(p);
  }
}

// --- result cache ------------------------------------------------------------

void Server::consult_cache(Worker& w, std::vector<Pending>& batch,
                           Epoch serving_epoch) {
  if (cache_ == nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  std::uint64_t attached = 0;
  std::uint64_t misses = 0;
  std::size_t live = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    if (!p.req.opts.cache) {
      // Opted out: computes on its own lane, result never published.
      if (live != i) batch[live] = std::move(p);
      ++live;
      continue;
    }
    const ServingCacheKey key = cache_key_of(p.req, serving_epoch);
    std::shared_ptr<const QueryResult> hit;
    switch (cache_->probe(key, p, hit)) {
      case Cache::Probe::kHit: {
        // Pre-enact triage ran moments ago, but honor a cancel or an
        // expiry that landed since — the hit follows the same late
        // semantics as any served query, and a cancelled requester is
        // never handed a value (its hit is not counted: cache_hits
        // stays a subset of queries_served).
        if (p.token.cancelled()) {
          resolve_cancelled(p);
        } else {
          QueryResult r(*hit);
          resolve_served(p, std::move(r), p.has_deadline && now > p.deadline,
                         /*cache_hit=*/true);
        }
        break;
      }
      case Cache::Probe::kAttached:
        // p moved into the in-flight registry; the key's owner resolves
        // it at demux (or its failure path).
        ++attached;
        break;
      case Cache::Probe::kOwner:
        w.owned.push_back({static_cast<std::uint32_t>(live), key});
        if (live != i) batch[live] = std::move(p);
        ++live;
        ++misses;
        break;
    }
  }
  batch.resize(live);
  if (attached != 0 || misses != 0) {
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.dedup_attached += attached;
    stats_.cache_misses += misses;
  }
}

void Server::abort_owned(Worker& w, std::vector<Pending>& batch) {
  if (cache_ == nullptr || w.owned.empty()) return;
  for (const Worker::OwnedKey& o : w.owned) {
    std::vector<Pending> ws = cache_->abort(o.key);
    for (Pending& p : ws) batch.push_back(std::move(p));
  }
  w.owned.clear();
}

// --- worker ------------------------------------------------------------------

bool Server::epoch_stale(const Worker& w) const {
  return dyn_ != nullptr && w.view.valid() &&
         dyn_->epoch() != w.view.epoch();
}

void Server::drain_compatible(Worker& w, std::vector<Pending>& batch) {
  // The epoch is part of the fuse-compat key: once the graph publishes
  // past the batch's pinned snapshot, no further query may join — fused
  // members always share one snapshot, and a query is never fused onto a
  // snapshot older than the newest at its fuse time.
  const bool stale = epoch_stale(w);
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < kMaxBatch;) {
    if (fuse_compatible(batch.front().req, it->req)) {
      if (stale) {
        std::lock_guard<std::mutex> sl(stats_mu_);
        stats_.epoch_fuse_splits++;
        return;
      }
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::worker_main(Worker& w) {
  // Pin this worker's kernel width if asked: omp_set_num_threads is a
  // per-thread ICV, so it must run on the worker thread itself.
  if (opts_.omp_threads_per_worker != 0)
    omp_set_num_threads(static_cast<int>(opts_.omp_threads_per_worker));

  // The watchdog. worker_loop returns only on graceful shutdown; any
  // exception reaching here is a worker death (an enact threw something
  // outside the cooperative-stop contract — bad_alloc, a foreign
  // exception, an injected crash). Fail ONLY this worker's unresolved
  // in-flight tickets, rebuild its world, keep serving: one poisoned
  // query must not take the server down.
  for (;;) {
    try {
      worker_loop(w);
      return;
    } catch (...) {
      std::string why = "unknown exception";
      try {
        throw;
      } catch (const std::exception& e) {
        why = e.what();
      } catch (...) {
      }
      // Waiters parked on this worker's in-flight cache keys die with it
      // (their computation is gone): pull them into the batch so the
      // sweep below fails them too — no ticket is ever stranded.
      abort_owned(w, w.batch);
      for (Pending& p : w.batch)
        if (p.state) resolve_worker_failed(p, why);
      w.batch.clear();
      w.view.release();  // a dying worker must not pin a snapshot forever
      {
        std::lock_guard<std::mutex> sl(stats_mu_);
        stats_.worker_respawns++;
      }
      w.rebuild(*this);
    }
  }
}

void Server::worker_loop(Worker& w) {
  std::vector<Pending>& batch = w.batch;
  for (;;) {
    batch.clear();
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return stopped_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopped and fully drained
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    if (opts_.max_queue > 0) space_cv_.notify_one();

    // Dynamic mode: pin the newest snapshot NOW, at dequeue — the whole
    // batch (this query and everything fused into it) serves this epoch.
    if (dyn_ != nullptr) w.view = dyn_->snapshot();

    if (opts_.coalesce && coalescable(batch.front().req.kind)) {
      const std::size_t pre = batch.size();
      drain_compatible(w, batch);
      if (opts_.max_queue > 0 && batch.size() != pre) space_cv_.notify_all();
      if (opts_.coalesce_window_us > 0 && !stopped_ && !epoch_stale(w)) {
        // Adaptive close: the batch ships at whichever comes first — the
        // window expires, the lanes fill, the EARLIEST member deadline
        // arrives (holding a batch open past a member's budget would shed
        // it for the coalescer's own convenience), or shutdown begins.
        // Every submit notifies, so arrivals inside the window fuse
        // immediately — and can only pull the close earlier.
        const auto window_close =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(opts_.coalesce_window_us);
        auto close_at = [&] {
          auto c = window_close;
          for (const Pending& p : batch)
            if (p.has_deadline && p.deadline < c) c = p.deadline;
          return c;
        };
        auto close = close_at();
        while (batch.size() < kMaxBatch && !stopped_) {
          if (cv_.wait_until(lk, close) == std::cv_status::timeout) {
            const std::size_t n = batch.size();
            drain_compatible(w, batch);  // final sweep at the close
            if (opts_.max_queue > 0 && batch.size() != n)
              space_cv_.notify_all();
            break;
          }
          const std::size_t n = batch.size();
          drain_compatible(w, batch);
          if (opts_.max_queue > 0 && batch.size() != n)
            space_cv_.notify_all();
          // A publish closed this batch's epoch: nothing more can fuse,
          // so holding the window open would only add latency.
          if (epoch_stale(w)) break;
          close = close_at();
        }
      }
    }
    lk.unlock();
    execute(w, batch);
    batch.clear();
    w.view.release();  // idle workers never block snapshot reclamation
  }
}

void Server::execute(Worker& w, std::vector<Pending>& batch) {
  // Pre-enact triage: honor client cancels and shed past-budget queries
  // before they occupy lanes, compacting survivors in place.
  const auto now = std::chrono::steady_clock::now();
  std::size_t live = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    if (p.token.cancelled()) {
      resolve_cancelled(p);
    } else if (p.has_deadline && now >= p.deadline) {
      resolve_shed(p);
    } else {
      if (live != i) batch[live] = std::move(p);
      ++live;
    }
  }
  batch.resize(live);
  if (batch.empty()) return;

  const QueryKind kind = batch.front().req.kind;
  Epoch serving_epoch = 0;
  if (dyn_ != nullptr) serving_epoch = w.view.epoch();

  // Dequeue-side cache consult: resolves hits, parks duplicates of
  // in-flight keys (their owner fans the result out at demux), registers
  // this worker as owner of the fresh misses. May empty the batch — a
  // window full of hits and attached duplicates costs no enact at all.
  w.owned.clear();
  consult_cache(w, batch, serving_epoch);
  if (batch.empty()) return;

  const auto members = static_cast<std::uint32_t>(batch.size());

  // Dynamic mode: serve this batch against the snapshot pinned at dequeue
  // time, rebinding the pooled engine when the epoch moved since the last
  // enact. The rebind is a pointer swap — pooled buffers re-size per
  // enact, so steady state stays allocation-free while the edge count
  // does not grow past its high-water mark. The snapshot is bound as its
  // own transpose, as in Worker::rebuild.
  if (dyn_ != nullptr && serving_epoch != w.bound_epoch) {
    w.engine->rebind(w.view.csr(), w.view.csr());
    w.bound_epoch = serving_epoch;
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.epoch_rebinds++;
  }

  // Lane assignment with duplicate collapse: members sharing a source
  // (fuse compatibility already guarantees identical options) share one
  // lane — an enact never computes the same (source, fuse-key) twice.
  // With the cache on, duplicates were already parked by consult_cache;
  // this catches the cache-off path and opted-out duplicates.
  std::uint32_t lanes = members;
  if (coalescable(kind)) {
    w.sources.clear();
    w.lane_of.resize(members);
    std::uint64_t collapsed = 0;
    for (std::uint32_t q = 0; q < members; ++q) {
      const VertexId s = batch[q].req.source;
      std::uint32_t lane = static_cast<std::uint32_t>(w.sources.size());
      for (std::uint32_t l = 0; l < w.sources.size(); ++l) {
        if (w.sources[l] == s) {
          lane = l;
          ++collapsed;
          break;
        }
      }
      if (lane == w.sources.size()) w.sources.push_back(s);
      w.lane_of[q] = lane;
    }
    lanes = static_cast<std::uint32_t>(w.sources.size());
    if (collapsed != 0) {
      std::lock_guard<std::mutex> sl(stats_mu_);
      stats_.dedup_attached += collapsed;
    }
  }

  // The enact-wide stop token. Solo: the query's own token (client-cancel
  // linkage and deadline intact — the enact stops cooperatively between
  // rounds). Fused: the members share one enact, so it may stop early
  // only once EVERY member's budget has passed (deadline = max over
  // members); an individual member past its own budget is served `late`
  // at demux. Waiters parked on owned keys never extend the enact — they
  // follow the same late semantics as fused lanes.
  CancelToken enact_token;
  if (members == 1) {
    enact_token = batch.front().token;
  } else {
    bool all_deadlines = true;
    auto max_deadline = batch.front().deadline;
    for (const Pending& p : batch) {
      if (!p.has_deadline) {
        all_deadlines = false;
        break;
      }
      if (p.deadline > max_deadline) max_deadline = p.deadline;
    }
    if (all_deadlines) enact_token = CancelToken::with_deadline(max_deadline);
  }

  // Deterministic fault injection rides the same token (api/faults.hpp):
  // the enact index is drawn in execution order.
  // mo: relaxed — unique-id draw; only atomicity matters, no payload is
  // published through it.
  const std::uint64_t enact_idx =
      verify::sched_fetch_add(enact_counter_, 1, std::memory_order_relaxed);
  if (opts_.faults) {
    const FaultSpec f = opts_.faults->draw(enact_idx);
    if (f.kind != FaultKind::kNone) {
      if (!enact_token.valid()) enact_token = CancelToken::make();
      arm_fault(f, enact_token);
    }
  }

  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.enacts++;
    if (members >= 2) stats_.coalesced_queries += members;
    if (lanes > stats_.max_lanes) stats_.max_lanes = lanes;
  }

  QueryOptions opts = batch.front().req.opts;
  opts.cancel = enact_token;

  try {
    if (coalescable(kind)) {
      const std::span<const VertexId> srcs(w.sources);
      switch (kind) {
        case QueryKind::kBfs:
          w.engine->batch_bfs(srcs, w.bfs, opts);
          break;
        case QueryKind::kSssp:
          w.engine->batch_sssp(srcs, w.sssp, opts);
          break;
        case QueryKind::kReachability:
          w.engine->batch_reachability(srcs, w.reach, opts);
          break;
        case QueryKind::kBcForward:
          w.engine->batch_bc_forward(srcs, w.bcf, opts);
          break;
        default:
          break;
      }
    } else {
      if (kind == QueryKind::kCc)
        w.engine->cc(w.cc, opts);
      else  // kPagerank
        w.engine->pagerank(w.pr, opts);
    }

    // Demux. For each member: build its lane's payload, resolve its own
    // ticket, then — if this worker owns the member's cache key —
    // publish the payload (making it hit-able and closing the in-flight
    // entry) and fan it out to every waiter that attached while the
    // enact ran. Waiters append to `batch` before resolution so any
    // exception mid-fan-out leaves them visible to the watchdog sweep.
    const auto after = std::chrono::steady_clock::now();
    for (std::uint32_t q = 0; q < members; ++q) {
      QueryResult base;
      base.kind = kind;
      base.epoch = serving_epoch;
      switch (kind) {
        case QueryKind::kBfs:
          w.bfs.extract_lane(w.lane_of[q], base.depth);
          break;
        case QueryKind::kSssp:
          w.sssp.extract_lane(w.lane_of[q], base.dist);
          break;
        case QueryKind::kReachability:
          w.reach.extract_lane(w.lane_of[q], base.reachable);
          break;
        case QueryKind::kBcForward:
          w.bcf.extract_lane(w.lane_of[q], base.depth, base.sigma);
          break;
        case QueryKind::kCc:
          base.component = w.cc.component;
          break;
        case QueryKind::kPagerank:
          base.rank = w.pr.rank;
          break;
      }

      // This worker owns the member's cache key iff consult_cache made
      // it the singleflight owner (cache on, query not opted out).
      std::size_t owned_at = w.owned.size();
      for (std::size_t o = 0; o < w.owned.size(); ++o)
        if (w.owned[o].member == q) owned_at = o;

      // The published snapshot: normalized per-delivery flags, payload
      // shared (immutably) by the cache and every attached waiter.
      std::shared_ptr<const QueryResult> payload;
      if (owned_at != w.owned.size()) {
        auto pay = std::make_shared<QueryResult>(base);
        pay->batch_lanes = 0;
        pay->cached = true;
        pay->late = false;
        payload = std::move(pay);
      }

      {
        Pending& p = batch[q];
        // A client cancel that landed mid-enact could not stop this
        // fused member alone; the contract is Cancelled at the next
        // boundary — which is now. The computed value still publishes
        // below: the VALUE is exact regardless of who asked for it
        // (only failure outcomes are never cached).
        if (p.token.cancelled()) {
          resolve_cancelled(p);
        } else {
          base.batch_lanes = lanes;
          resolve_served(p, std::move(base),
                         p.has_deadline && after > p.deadline);
        }
      }  // `p` dies here: the waiter fan-out below may grow `batch`

      if (owned_at != w.owned.size()) {
        Cache::Publication pub =
            cache_->publish(w.owned[owned_at].key, payload, /*store=*/true);
        if (pub.evicted != 0) {
          std::lock_guard<std::mutex> sl(stats_mu_);
          stats_.cache_evictions += pub.evicted;
        }
        // The key is closed: the watchdog must not abort it anymore.
        w.owned[owned_at] = w.owned.back();
        w.owned.pop_back();
        const std::size_t wstart = batch.size();
        for (Pending& pw : pub.waiters) batch.push_back(std::move(pw));
        for (std::size_t wi = wstart; wi < batch.size(); ++wi) {
          Pending& pw = batch[wi];
          if (pw.token.cancelled()) {
            resolve_cancelled(pw);
          } else {
            QueryResult r(*payload);
            resolve_served(pw, std::move(r),
                           pw.has_deadline && after > pw.deadline);
          }
        }
      }
    }
    w.owned.clear();
  } catch (const CancelledError&) {
    // Clean cooperative stop: the engine unwound at a round boundary and
    // its pooled state resets on the next begin_enact — the worker is
    // healthy. Classify members — and the waiters parked on this
    // worker's owned keys, whose computation just stopped with it —
    // individually.
    abort_owned(w, batch);
    resolve_stopped(batch, QueryOutcome::kCancelled);
  } catch (const DeadlineExceededError&) {
    abort_owned(w, batch);
    resolve_stopped(batch, QueryOutcome::kDeadlineExceeded);
  }
  // Anything else (bad_alloc, a foreign exception, an injected crash) is
  // a worker death: it propagates to worker_main's watchdog, which
  // aborts the owned keys and fails the batch's unresolved tickets (the
  // parked waiters included), then respawns this worker.
}

}  // namespace grx
