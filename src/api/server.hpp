// grx::Server — the concurrent query-serving layer over grx::Engine.
//
// The Engine (api/engine.hpp) is deliberately exclusive: one graph's
// pooled Problem state, one in-flight query. A serving workload — many
// client threads firing traversal queries at one shared graph — needs a
// layer that owns the concurrency so the engines never have to:
//
//   grx::Server server(graph);              // worker pool + coalescer
//   grx::QueryTicket t = server.submit_bfs(user);   // any thread, any time
//   ... // do other work, submit more queries
//   grx::QueryResult r = t.get();           // blocks until served
//
// The pieces (docs/architecture.md, "The serving layer"):
//
//  * A thread-safe submission front with bounded admission: submit()
//    enqueues onto an MPMC queue and returns a QueryTicket — a
//    future-style handle the result is later demuxed into. The queue can
//    be capped (ServerOptions::max_queue); a full queue either rejects
//    the submission (RejectedError, in the submitting thread) or blocks
//    it until a slot frees or an admission timeout passes — overload
//    back-pressure instead of unbounded memory growth.
//
//  * A worker pool, engine-per-worker: each worker thread owns its own
//    simt::Device + Engine bound to the shared (read-only) graph. Problem
//    state therefore needs no locks, the Engine's zero-steady-state-
//    allocation contract holds per worker, and the only synchronization
//    in the system is the queue and the ticket handoff. A watchdog wraps
//    every worker: if a worker dies on an exception mid-enact, only that
//    worker's in-flight tickets fail (WorkerFailedError) and the worker
//    is respawned with a fresh Device + Engine — the server keeps
//    serving. tests/test_server.cpp + test_faults.cpp prove the surface
//    race-free under ThreadSanitizer.
//
//  * An adaptive batch coalescer: same-primitive single-source queries
//    (BFS / SSSP / reachability / BC-forward) with fuse-compatible
//    options that arrive within `coalesce_window` of each other are fused
//    into ONE BatchEnactor lane-matrix enact — up to kMaxBatch (64)
//    lanes, one shared edge scan — and demuxed back to their tickets via
//    the batch results' extract_lane hooks. A batch closes at whichever
//    comes first: the window expires, the lanes fill, the EARLIEST MEMBER
//    DEADLINE arrives (a batch is never held open past a member's
//    budget), or shutdown begins. Because batch lanes are provably equal
//    to solo runs, coalescing changes throughput, never results.
//
//  * An epoch-keyed result cache with in-flight dedup (optional,
//    ServerOptions::cache; api/result_cache.hpp): a bounded sharded LRU
//    keyed on (graph epoch, query kind, source, fuse-compat options) —
//    the same key the coalescer fuses on. Hits resolve tickets without
//    an enact; identical queries already in flight are attached to the
//    pending enact (singleflight) and fan out at demux, so a fused batch
//    never spends two lanes on one (source, options) pair. A graph
//    publish makes prior-epoch entries unreachable (the epoch is in the
//    key) and the apply_updates path sweeps them. Determinism makes this
//    sound: a cached result is byte-identical to the recompute.
//
//  * Deadlines and cooperative cancellation: a query may carry a deadline
//    budget and/or a client CancelToken (QueryRequest). Queries already
//    past budget are SHED before occupying an enact slot; running queries
//    check the token between BSP rounds (core/cancel.hpp) and stop with a
//    typed outcome — the ticket resolves with CancelledError /
//    DeadlineExceededError instead of blocking forever. A fused lane that
//    cannot stop alone is served past its own budget and flagged `late`.
//    Full contract: docs/api.md, "Failure semantics".
//
//  * A streaming-graph mode: constructed over a grx::DynamicGraph
//    (graph/dynamic.hpp) instead of a Csr, the server serves queries
//    concurrently with live edge insert/delete batches entering through
//    apply_updates(). A worker pins the newest snapshot at dequeue time
//    and serves the whole batch against it — the graph epoch joins the
//    fuse-compat key, so fused lanes always share one snapshot — then
//    releases the pin, letting epoch-based reclamation free superseded
//    snapshots. QueryResult::epoch names the snapshot served.
//
// Determinism / oracle contract: each served QueryResult is byte-identical
// to what a serial, single-thread Engine would return for that request
// evaluated on the epoch the query pinned (static servers: the one graph)
// (FP-valued whole-graph queries require pinning the workers' OpenMP
// width, see ServerOptions::omp_threads_per_worker). Shutdown is graceful:
// stop() — or the destructor — rejects new submissions, drains every
// accepted query (serving, shedding, or failing each one — no ticket is
// ever abandoned), and joins the pool. Deterministic fault injection
// (ServerOptions::faults, api/faults.hpp) drives every failure path above
// under test.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/faults.hpp"
#include "api/result_cache.hpp"
#include "core/cancel.hpp"
#include "graph/dynamic.hpp"

namespace grx {

/// The query kinds the server serves. The four single-source traversal
/// kinds are coalescable (lane-fusable into one batched enact); the
/// whole-graph kinds always run solo on a worker's engine.
enum class QueryKind : std::uint8_t {
  kBfs,           ///< hop distances from `source` (depth)
  kSssp,          ///< shortest-path distances from `source` (dist)
  kReachability,  ///< reachable-from-`source` flags (reachable)
  kBcForward,     ///< Brandes forward pass: levels + sigma (depth, sigma)
  kCc,            ///< connected components (component) — never coalesced
  kPagerank,      ///< PageRank scores (rank) — never coalesced
};

/// True for the single-source kinds the coalescer may fuse.
constexpr bool coalescable(QueryKind k) {
  return k == QueryKind::kBfs || k == QueryKind::kSssp ||
         k == QueryKind::kReachability || k == QueryKind::kBcForward;
}

/// How a ticket resolved (QueryTicket::outcome). kPending until done.
enum class QueryOutcome : std::uint8_t {
  kPending,           ///< not yet resolved (or ticket invalid/consumed)
  kOk,                ///< served with a value (possibly late, see result)
  kCancelled,         ///< client CancelToken tripped (CancelledError)
  kDeadlineExceeded,  ///< shed or stopped past budget (DeadlineExceededError)
  kWorkerFailed,      ///< worker died mid-enact (WorkerFailedError)
};

/// One query as submitted: what to run, from where, how — plus the
/// robustness contract it wants.
struct QueryRequest {
  QueryKind kind = QueryKind::kBfs;
  VertexId source = 0;  ///< ignored by the whole-graph kinds
  QueryOptions opts;    ///< same surface as Engine queries
  /// Explicitly unlimited: no deadline even when the server configures
  /// ServerOptions::default_deadline_us. (0 keeps meaning "use the
  /// server default" for back-compat — before this sentinel existed, a
  /// client could not opt out of a configured default at all.)
  static constexpr std::uint32_t kNoDeadline = 0xffffffffu;
  /// Deadline budget in microseconds, measured from submit(). 0 = the
  /// server default (ServerOptions::default_deadline_us; none if that is
  /// unset); kNoDeadline = explicitly none. Past-budget queries are shed
  /// before enacting or stopped between rounds; a fused lane that cannot
  /// stop alone is served `late` instead.
  std::uint32_t deadline_us = 0;
  /// Optional client cancellation handle: create with CancelToken::make(),
  /// keep a copy, submit, cancel() any time. A solo query stops between
  /// rounds; a fused or not-yet-started query resolves Cancelled at its
  /// next boundary. (QueryOptions::cancel is ignored by the server — the
  /// server composes its own per-enact token from this field.)
  CancelToken cancel;
};

/// The served result. Only the fields of the request's kind are filled
/// (see QueryKind); the rest stay empty. Traversal results are per-vertex
/// vectors — exactly the bytes a serial Engine oracle produces for the
/// same request, regardless of worker interleaving or coalescing.
struct QueryResult {
  QueryKind kind = QueryKind::kBfs;
  std::vector<std::uint32_t> depth;     ///< kBfs / kBcForward levels
  std::vector<std::uint32_t> dist;      ///< kSssp
  std::vector<std::uint8_t> reachable;  ///< kReachability (0/1 per vertex)
  std::vector<double> sigma;            ///< kBcForward path counts
  std::vector<VertexId> component;      ///< kCc
  std::vector<double> rank;             ///< kPagerank
  /// Lanes in the enact that served this query (1 == ran solo; 0 == no
  /// enact of its own — served from the result cache or attached to
  /// another query's enact): the coalescer's per-query fingerprint, for
  /// observability and tests.
  std::uint32_t batch_lanes = 0;
  /// True when this query did not run its own computation: the payload
  /// came from the result cache (hit) or from another query's enact it
  /// was attached to (singleflight). Bytes are identical either way —
  /// that is the determinism contract that makes the cache sound.
  bool cached = false;
  /// True when the query was served after its own deadline (a fused lane
  /// cannot stop alone; the value is still exact). Counted in
  /// ServerStats::late.
  bool late = false;
  /// The graph epoch this query was served against: the snapshot the
  /// worker pinned at dequeue time (0 for a static-graph server, which
  /// only ever has epoch 0). The oracle contract under live mutation is
  /// per-epoch: the result is byte-equal to a serial Engine run on THIS
  /// epoch's graph.
  Epoch epoch = 0;
};

/// The options fingerprint two queries must share to be interchangeable:
/// exactly the QueryOptions fields the serving path reads for the kind
/// (the batched enacts of primitives/batch.cpp for the coalescable kinds,
/// PrEnactor for PageRank, nothing for CC). Fields the kind ignores stay
/// zeroed, so they can neither block fusion nor split cache keys. The
/// coalescer fuses queries whose FuseOptionsKey (and kind) match; the
/// result cache keys on the same fingerprint plus (epoch, kind, source) —
/// by construction a cached entry is exactly what a fused lane for the
/// same request computes.
struct FuseOptionsKey {
  // Read by every batched enact (the coalescable kinds).
  AdvanceStrategy strategy = AdvanceStrategy::kAuto;
  std::uint32_t lb_node_edge_threshold = 0;
  simt::VecBackend vec = simt::VecBackend::kAuto;
  // BFS / reachability; pull_alpha only under Direction::kOptimal.
  Direction direction = Direction::kPush;
  double pull_alpha = 0;
  // SSSP; delta only with the priority queue on.
  bool use_priority_queue = false;
  std::uint32_t delta = 0;
  // PageRank.
  double epsilon = 0;
  std::uint32_t max_iterations = 0;

  friend bool operator==(const FuseOptionsKey&,
                         const FuseOptionsKey&) = default;
};

/// Canonicalizes `opts` for `kind` (see FuseOptionsKey).
inline FuseOptionsKey fuse_options_key(QueryKind kind,
                                       const QueryOptions& opts) {
  FuseOptionsKey k;
  if (coalescable(kind)) {
    k.strategy = opts.strategy;
    k.lb_node_edge_threshold = opts.lb_node_edge_threshold;
    k.vec = opts.vec;
  }
  switch (kind) {
    case QueryKind::kBfs:
    case QueryKind::kReachability:
      k.direction = opts.direction;
      if (opts.direction == Direction::kOptimal)
        k.pull_alpha = opts.pull_alpha;
      break;
    case QueryKind::kSssp:
      k.use_priority_queue = opts.use_priority_queue;
      if (opts.use_priority_queue) k.delta = opts.delta;
      break;
    case QueryKind::kPagerank:
      k.epsilon = opts.epsilon;
      k.max_iterations = opts.max_iterations;
      break;
    case QueryKind::kBcForward:  // the shared batched fields only
    case QueryKind::kCc:         // reads no option
      break;
  }
  return k;
}

/// The result cache's full key: one served result is addressed by the
/// graph epoch it was computed on, the query kind, the source (0 for the
/// whole-graph kinds, whose results are source-independent), and the
/// canonicalized options. The epoch in the key is the invalidation
/// mechanism: a publish makes every prior-epoch entry unreachable.
struct ServingCacheKey {
  Epoch epoch = 0;
  QueryKind kind = QueryKind::kBfs;
  VertexId source = 0;
  FuseOptionsKey opts;

  friend bool operator==(const ServingCacheKey&,
                         const ServingCacheKey&) = default;
};

struct ServingCacheKeyHash {
  std::size_t operator()(const ServingCacheKey& k) const {
    // fnv1a-style fold over the scalar fields; equality is exact field
    // comparison, so a collision only costs a probe, never correctness.
    std::size_t h = 1469598103934665603ull;
    auto mix = [&h](std::size_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(static_cast<std::size_t>(k.epoch));
    mix(static_cast<std::size_t>(k.kind));
    mix(static_cast<std::size_t>(k.source));
    mix(static_cast<std::size_t>(k.opts.strategy));
    mix(k.opts.lb_node_edge_threshold);
    mix(static_cast<std::size_t>(k.opts.vec));
    mix(static_cast<std::size_t>(k.opts.direction));
    mix(std::hash<double>{}(k.opts.pull_alpha));
    mix(static_cast<std::size_t>(k.opts.use_priority_queue));
    mix(k.opts.delta);
    mix(std::hash<double>{}(k.opts.epsilon));
    mix(k.opts.max_iterations);
    return h;
  }
};

/// Future-style handle to an in-flight query. Obtained from
/// Server::submit; get() blocks until a worker resolves it (valid across
/// — and after — the server's lifetime: shutdown drains all accepted
/// queries first). One-shot: get() moves the result out.
class QueryTicket {
 public:
  QueryTicket() = default;

  // Move-only, like the result it wraps: a copy sharing the state would
  // let a second get() silently observe the moved-from (empty) result.
  QueryTicket(QueryTicket&&) = default;
  QueryTicket& operator=(QueryTicket&&) = default;
  QueryTicket(const QueryTicket&) = delete;
  QueryTicket& operator=(const QueryTicket&) = delete;

  bool valid() const { return state_ != nullptr; }

  /// Non-blocking readiness poll.
  bool ready() const;

  /// Blocks until resolved or `timeout` passes; true iff resolved. Never
  /// consumes the ticket — poll-with-budget for clients that must not
  /// risk an indefinite block (e.g. a worker died: the watchdog resolves
  /// its tickets, and wait_for observes that without hanging).
  bool wait_for(std::chrono::microseconds timeout) const;

  /// How the query resolved; kPending while in flight (and on an invalid
  /// or already-consumed ticket). Non-consuming: check before get() to
  /// branch without handling exceptions.
  QueryOutcome outcome() const;

  /// Blocks until resolved, then moves the result out (invalidating the
  /// ticket). Rethrows the typed failure (CancelledError,
  /// DeadlineExceededError, WorkerFailedError — all CheckError) if the
  /// query did not produce a value.
  QueryResult get();

  /// Non-blocking get: std::nullopt while in flight (ticket stays
  /// valid); otherwise consumes the ticket exactly like get() — returns
  /// the value or rethrows the typed failure.
  std::optional<QueryResult> try_get();

 private:
  friend class Server;
  struct State;
  std::shared_ptr<State> state_;
};

/// Configuration of the server's result cache (api/result_cache.hpp).
/// Off by default; sound to enable on any server because served results
/// are deterministic functions of the cache key. Per-query opt-out:
/// QueryOptions::cache = false.
struct ResultCacheOptions {
  bool enabled = false;
  /// Global LRU entry bound, split across the cache's lock shards. Each
  /// entry holds one per-vertex result vector, so budget ~ max_entries *
  /// n * 4 bytes.
  std::uint32_t max_entries = 4096;
};

/// What submit() does when the bounded queue is full.
enum class AdmissionPolicy : std::uint8_t {
  kReject,  ///< throw RejectedError immediately (shed load at the door)
  kBlock,   ///< block until a slot frees or admission_timeout_us passes
};

struct ServerOptions {
  /// Worker threads, each owning a private Device + Engine. 0 = one per
  /// hardware thread (at least 1).
  std::uint32_t num_workers = 0;
  /// Master switch for the batch coalescer. Off: every query runs solo.
  /// A fused enact carries at most Server::kMaxBatch lanes.
  bool coalesce = true;
  /// How long a worker holding a partial batch waits for more
  /// fuse-compatible arrivals, in microseconds. 0 = drain-only: fuse
  /// whatever is already queued, never delay a query. A member deadline
  /// earlier than the window closes the batch early regardless.
  std::uint32_t coalesce_window_us = 200;
  /// OpenMP threads each worker's kernels may use. 0 = leave the
  /// runtime's default (beware oversubscription: workers multiply).
  /// 1 pins workers' kernels serial — required for byte-identical
  /// FP-valued results (PageRank) against a single-thread oracle.
  std::uint32_t omp_threads_per_worker = 0;

  // --- bounded admission / overload policy ---
  /// Cap on queued (accepted, not yet executing) queries. 0 = unbounded
  /// (the pre-robustness behavior). Under overload a bounded queue keeps
  /// memory flat and tail latency of admitted queries bounded.
  std::uint32_t max_queue = 0;
  /// Full-queue behavior (only meaningful with max_queue > 0).
  AdmissionPolicy admission = AdmissionPolicy::kReject;
  /// kBlock: longest a submitter waits for a slot before RejectedError.
  /// 0 = wait indefinitely (until a slot frees or the server stops).
  std::uint32_t admission_timeout_us = 0;
  /// Deadline budget applied to requests that do not carry their own.
  /// 0 = none. A request opts out of a configured default with
  /// QueryRequest::kNoDeadline.
  std::uint32_t default_deadline_us = 0;

  /// Epoch-keyed result cache + in-flight dedup. Disabled by default.
  ResultCacheOptions cache;

  /// Deterministic fault injection (api/faults.hpp): each enact draws
  /// FaultSpec i from the plan (i = enact index in execution order) and
  /// arms it on the enact's cancel token. Test/bench harness only; null
  /// in production.
  std::shared_ptr<const FaultPlan> faults;
};

/// Aggregate serving counters (monotonic since construction). Snapshot
/// via stats() — one mutex-guarded struct copy, so the fields are
/// mutually consistent; per-query counters are bumped after the outcome
/// is decided and before the ticket is fulfilled, so a client that has
/// collected its tickets observes stats covering them, and a query is
/// never reported served if it subsequently failed.
///
/// Accounting identity (quiescent, e.g. after stop()):
///   queries_submitted == queries_served + shed + cancelled
///                        + deadline_exceeded + worker_failures
/// `rejected` counts submissions that never produced a ticket (thrown in
/// the submitting thread) and is outside the identity; `late` is a
/// subset of queries_served.
///
/// The cache extends the identity without new outcome terms: a cache hit
/// and a dedup-attached ticket each resolve through the usual outcome
/// counters exactly once (hits under `served`; attached tickets under
/// served / cancelled / deadline by their own state at demux). So
/// `cache_hits` is a subset of queries_served (bumped in the same
/// stats_mu_ critical section as queries_served — a snapshot can never
/// show more hits than served queries), `dedup_attached` annotates
/// tickets also counted once under the identity, and every cache-probed
/// query is classified exactly one of hit / attached / miss-owner.
struct ServerStats {
  std::uint64_t queries_submitted = 0;  ///< accepted (a ticket exists)
  std::uint64_t queries_served = 0;     ///< resolved with a value
  std::uint64_t enacts = 0;             ///< engine enactments started
  std::uint64_t coalesced_queries = 0;  ///< queries in a >=2-lane enact
  std::uint64_t rejected = 0;           ///< refused at admission (no ticket)
  std::uint64_t shed = 0;               ///< dropped past-budget pre-enact
  std::uint64_t cancelled = 0;          ///< resolved CancelledError
  std::uint64_t deadline_exceeded = 0;  ///< stopped mid-enact past budget
  std::uint64_t worker_failures = 0;    ///< tickets failed by a dying worker
  std::uint64_t late = 0;               ///< served after their own deadline
  std::uint64_t worker_respawns = 0;    ///< watchdog worker rebuilds
  std::uint32_t max_lanes = 0;          ///< widest fused batch so far

  // --- result cache / dedup counters (all 0 with the cache disabled,
  // --- except dedup_attached, which also counts in-batch lane collapse)
  std::uint64_t cache_hits = 0;    ///< served straight from the cache
  /// Probes that found neither an entry nor an in-flight computation:
  /// the prober became the key's owner and ran the enact.
  std::uint64_t cache_misses = 0;
  /// Tickets that rode another query's computation: parked on an
  /// in-flight key (singleflight, cross-worker or within a batch) or
  /// collapsed onto a duplicate (source, fuse-key) lane at batch build.
  /// Each still resolves exactly once under the identity above.
  std::uint64_t dedup_attached = 0;
  std::uint64_t cache_evictions = 0;  ///< LRU pressure + epoch sweeps
  std::uint64_t cache_entries = 0;    ///< stored entries at stats() time

  // --- streaming-graph counters (all 0 on a static-graph server) ---
  std::uint64_t update_batches = 0;   ///< apply_updates() calls accepted
  std::uint64_t updates_applied = 0;  ///< individual EdgeUpdates accepted
  /// Coalesce drains cut short because the graph epoch moved mid-window
  /// (fused batch members must share an epoch — see docs/architecture.md,
  /// "Streaming graphs").
  std::uint64_t epoch_fuse_splits = 0;
  /// Worker engine rebinds to a newer snapshot (at most one per epoch per
  /// worker — an idle epoch costs nothing).
  std::uint64_t epoch_rebinds = 0;
  std::uint64_t graph_epoch = 0;     ///< newest published epoch at stats()
  std::uint64_t compactions = 0;     ///< delta-log folds so far
  std::uint64_t snapshots_live = 0;  ///< head + retired-but-pinned snapshots
};

class Server {
 public:
  /// Lane cap per fused enact: 64 lanes fill exactly one lane-mask word
  /// per vertex, the sweet spot (at most BatchEnactor::kMaxLanes).
  static constexpr std::uint32_t kMaxBatch = 64;
  static_assert(kMaxBatch <= BatchEnactor::kMaxLanes);

  /// Binds the pool to `g` (captured by reference; must outlive the
  /// server) and starts the workers. SSSP submissions require a weighted
  /// graph, CC and PageRank submissions a symmetric one (they gather over
  /// in-edges and the server holds no transpose); both are checked at
  /// submit, not at a worker, so misuse fails in the submitting thread.
  explicit Server(const Csr& g, const ServerOptions& opts = {});

  /// Serve a live, mutable graph (captured by reference; must outlive the
  /// server). Every query pins the newest snapshot at dequeue time and is
  /// byte-equal to a serial oracle on that epoch's graph; mutations enter
  /// through apply_updates(). Snapshots always carry weights, so SSSP is
  /// always admissible on a dynamic server; CC and PageRank are admissible
  /// when the graph is DynamicGraphOptions::symmetric.
  explicit Server(DynamicGraph& g, const ServerOptions& opts = {});

  /// Graceful: stop(), which drains every accepted query.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues a query from any thread. Throws CheckError if the server is
  /// stopped, the source is out of range, or the kind needs weights the
  /// graph lacks; throws RejectedError (also a CheckError) if bounded
  /// admission refuses the query. An accepted query whose budget expires
  /// while it queues is shed by the worker-side triage: its ticket
  /// resolves with DeadlineExceededError (it is never silently dropped).
  QueryTicket submit(const QueryRequest& req);

  // Convenience fronts over submit().
  QueryTicket submit_bfs(VertexId source, const QueryOptions& opts = {});
  QueryTicket submit_sssp(VertexId source, const QueryOptions& opts = {});
  QueryTicket submit_reachability(VertexId source,
                                  const QueryOptions& opts = {});
  QueryTicket submit_bc_forward(VertexId source,
                                const QueryOptions& opts = {});
  QueryTicket submit_cc(const QueryOptions& opts = {});
  QueryTicket submit_pagerank(const QueryOptions& opts = {});

  /// The mutation front (dynamic-graph servers only; throws CheckError on
  /// a static server or after stop()). Applies one batch of edge updates
  /// and publishes a new epoch; queries already dequeued keep serving
  /// their pinned snapshot, queries dequeued afterwards see the new one.
  /// Callable from any thread; batches are serialized by the graph's
  /// writer mutex. Accounted in ServerStats::update_batches /
  /// updates_applied (admission accounting separate from the query path).
  Epoch apply_updates(std::span<const EdgeUpdate> updates);

  /// True when this server fronts a DynamicGraph.
  bool dynamic() const { return dyn_ != nullptr; }

  /// Rejects new submissions, resolves everything already accepted
  /// (serving, shedding, or failing each ticket), joins the pool.
  /// Idempotent; called by the destructor.
  void stop();

  std::uint32_t num_workers() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

  ServerStats stats() const;

 private:
  /// A submitted query waiting in the MPMC queue: the request, the ticket
  /// state its result will be demuxed into, and its robustness envelope
  /// (effective deadline + the server-side cancel token wrapping any
  /// client token).
  struct Pending {
    QueryRequest req;
    std::shared_ptr<QueryTicket::State> state;
    CancelToken token;  ///< server-owned; child of req.cancel when given
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
  };
  struct Worker;

  void start();
  void worker_main(Worker& w);
  void worker_loop(Worker& w);
  /// Moves every queued request fuse-compatible with `batch.front()` into
  /// `batch` (up to kMaxBatch). On a dynamic server the graph epoch joins
  /// the fuse-compat key: if the graph moved past the batch's pinned
  /// epoch, draining stops (counted in ServerStats::epoch_fuse_splits) —
  /// fused members always share one snapshot, and a query is never fused
  /// onto a snapshot older than the newest at its fuse time. Caller holds
  /// the queue mutex.
  void drain_compatible(Worker& w, std::vector<Pending>& batch);
  /// True when the dynamic graph has published past `w`'s pinned epoch.
  bool epoch_stale(const Worker& w) const;
  void execute(Worker& w, std::vector<Pending>& batch);

  /// The dequeue-side cache consult: resolves hits, parks attachable
  /// duplicates on in-flight keys, registers this worker as owner of the
  /// fresh misses (recorded in Worker::owned), and compacts `batch` down
  /// to the members that must enact. No-op with the cache disabled.
  void consult_cache(Worker& w, std::vector<Pending>& batch,
                     Epoch serving_epoch);
  /// Drops every in-flight key this worker still owns and moves the
  /// parked waiters into `batch`, so the caller's failure path resolves
  /// them under the same contract as the batch members (cooperative-stop
  /// classification or watchdog worker-failure sweep).
  void abort_owned(Worker& w, std::vector<Pending>& batch);

  // Outcome resolution: counters first (under stats_mu_, outcome already
  // decided), fulfillment second. fulfill_* never clobber a resolved
  // ticket.
  /// `cache_hit` bumps ServerStats::cache_hits in the same critical
  /// section as queries_served: the two can never be observed torn.
  void resolve_served(Pending& p, QueryResult&& r, bool late,
                      bool cache_hit = false);
  void resolve_stopped(std::vector<Pending>& batch, QueryOutcome fallback);
  void resolve_shed(Pending& p);
  void resolve_cancelled(Pending& p);
  void resolve_deadline(Pending& p);
  void resolve_worker_failed(Pending& p, const std::string& why);

  /// Publishes a result (or failure) into a ticket and wakes its waiter.
  static void fulfill(const std::shared_ptr<QueryTicket::State>& s,
                      QueryResult&& r);
  static void fulfill_error(const std::shared_ptr<QueryTicket::State>& s,
                            QueryOutcome outcome, std::exception_ptr e);

  const Csr* g_ = nullptr;       ///< static mode; null on a dynamic server
  DynamicGraph* dyn_ = nullptr;  ///< dynamic mode; null on a static server
  VertexId n_ = 0;               ///< vertex count (fixed in both modes)
  bool weighted_ = false;        ///< SSSP admissible (always on dynamic)
  /// CC and PageRank admissible: the graph is its own transpose. Dynamic
  /// mode reads DynamicGraphOptions::symmetric; static mode checks the
  /// graph once, at the first CC or PageRank submit.
  bool symmetric_ = false;
  std::once_flag symmetric_once_;
  ServerOptions opts_;

  std::mutex mu_;
  std::condition_variable cv_;        ///< queue non-empty / stopping
  std::condition_variable space_cv_;  ///< queue slot freed (kBlock waiters)
  std::deque<Pending> queue_;
  bool stopped_ = false;
  std::mutex join_mu_;  ///< serializes concurrent stop()/destruction joins

  std::vector<std::unique_ptr<Worker>> workers_;

  /// Enact index feeding FaultPlan::draw — execution order, not
  /// submission order.
  std::atomic<std::uint64_t> enact_counter_{0};

  /// The result cache (null when ServerOptions::cache.enabled is false).
  /// Waiters parked in its singleflight registry are full Pending
  /// envelopes: whoever receives them back (publish/abort) resolves the
  /// tickets under the same exactly-once discipline as batch members.
  using Cache =
      ResultCache<ServingCacheKey, QueryResult, Pending, ServingCacheKeyHash>;
  std::unique_ptr<Cache> cache_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace grx
