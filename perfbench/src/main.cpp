// perfbench — the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--git-sha <sha>] [--src-hash <hash>]
//
// One process runs one workload. Both workloads go through the same
// phases, so every run reports every metric:
//
//   setup    graph generation, CSR build, Engine/Server construction and
//            warm-up — repeated kSetupReps times, the median is setup_s;
//   engine   a closed loop with one caller over the workload's engine
//            graph (the social or the road analog): passes of BFS, SSSP,
//            BC, CC and PageRank through grx::Engine, a fresh seeded
//            source per pass;
//   serve    an open loop through grx::Server::submit on the power-law
//            bench graph at the nominal rate, then a closed loop holding
//            kInFlight requests outstanding (the capacity phase); on
//            serve-churn a writer thread applies paced update batches
//            through Server::apply_updates meanwhile;
//   update   back-to-back Server::apply_updates calls on the dynamic
//            server over the served graph, idle by then.
//
// Every engine result is checked against baselines/serial, and a seeded
// sample of served results (cache hits included) against serial runs on
// the epoch each result names, rebuilt by replaying the update log. The
// checks run outside the timed regions. The last line of stdout is the
// result object; with --trace 0 it carries the end-to-end metrics, with
// --trace 1 the per-layer ones.
#include <sys/resource.h>
#include <unistd.h>

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/server.hpp"
#include "baselines/serial/serial.hpp"
#include "graph/builder.hpp"
#include "graph/datasets.hpp"
#include "graph/dynamic.hpp"
#include "graph/generators.hpp"
#include "simt/device.hpp"
#include "simt/vec.hpp"
#include "support.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE "unknown"
#endif

namespace perfbench {
namespace {

using grx::Csr;
using grx::EdgeUpdate;
using grx::QueryKind;
using grx::VertexId;

// --- fixed harness settings ---------------------------------------------------

constexpr int kSetupReps = 5;             ///< setup_s is the median of these
constexpr int kEngineOmpThreads = 2;      ///< the engine phase's one caller
constexpr std::uint32_t kWorkers = 2;     ///< server workers, 1 OpenMP thread each
constexpr std::uint32_t kPrIterations = 10;
constexpr std::size_t kWindow = 500;      ///< requests per latency window
constexpr std::size_t kUpdateWindow = 500;  ///< update calls per latency window
constexpr std::int64_t kPollNs = 100'000;  ///< load generator: longest sleep

constexpr const char* kPrims[5] = {"bfs", "sssp", "bc", "cc", "pagerank"};
constexpr const char* kCallSpans[5] = {"engine.bfs", "engine.sssp", "engine.bc",
                                       "engine.cc", "engine.pagerank"};

/// Kernels whose simulated time the traced run reports by name; anything
/// else the five primitives launch is summed under "other".
constexpr const char* kKernels[] = {
    "advance_lb_edges", "advance_lb_nodes", "advance_pull",
    "advance_thread_fine", "advance_twc", "assemble_scan",
    "assemble_scatter", "compute", "compute_all", "count_scan", "filter",
    "filter_compact", "filter_edges", "frontier_bitmap", "gather_degrees",
    "lb_search", "pq_split", "pr_dangling", "scan", "sssp_labels"};

enum class GraphSource { kSocial, kRoad };

// Settings both workloads share. Served traffic is a 9:1 BFS:SSSP mix on
// the power-law bench graph at kNominalQps, far below capacity: latency
// there is mostly service time. At 500 q/s two SSSPs (about 10 ms each)
// often overlap on the two workers, and that queueing multiplied changes
// in host speed into the p99 (spread 0.16-0.29 over seeds, against 0.06
// at 250 q/s).
constexpr double kEngineShare = 0.25;   ///< of --seconds: engine phase
constexpr double kNominalShare = 0.5;   ///< of --seconds: nominal rate
constexpr double kCapacityShare = 0.2;  ///< of --seconds: capacity phase
constexpr double kNominalQps = 250;
constexpr std::uint32_t kBfsPerSssp = 9;
constexpr double kSloMs = 500;          ///< the fixed latency limit on p99
/// Requests outstanding in the capacity phase. On the sizing box the
/// throughput rose with it up to about here (serve-uniform 5.3k, 7.2k,
/// 8.6k, 9.9k q/s at 128, 256, 512, 1024; serve-churn level from 512)
/// while the p99 stayed near 200 ms, well inside the limit.
constexpr std::size_t kInFlight = 1024;
// Churn and hot pool as in bench_server's mutation and cache arms: about
// 1% of the edges per second in batches every 5 ms; Zipf(1.1) draws over
// 64 hot sources.
constexpr double kChurnPerSecond = 0.01;  ///< share of the edges updated per second
constexpr double kWriterPeriodMs = 5;     ///< serve-churn writer pace
constexpr std::size_t kHotSources = 64;
constexpr double kZipfExponent = 1.1;
constexpr std::uint32_t kProbeUpdates = 4000;  ///< update phase, back to back

struct WorkloadSpec {
  const char* name;
  GraphSource engine_graph;  ///< graph of the engine phase
  /// Engine passes whose exact counts and device time are reported: enough
  /// sources that device_ms varies little with the seed (a road pass costs
  /// about a third of a social one).
  std::uint32_t counted;
  bool churn;  ///< serve a DynamicGraph beside a paced writer, Zipf sources
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"serve-uniform", GraphSource::kSocial, 16, false},
      {"serve-churn", GraphSource::kRoad, 64, true},
  };
  return specs;
}

// --- arguments and environment ------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string src_hash = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>] [--git-sha <sha>] "
               "[--src-hash <hash>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !val.empty();
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end && *end == '\0' && a.seconds > 0 && a.seconds <= 600;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      a.trace = val == "1";
    } else if (key == "--out") {
      a.out_dir = val;
    } else if (key == "--git-sha") {
      a.git_sha = val;
    } else if (key == "--src-hash") {
      a.src_hash = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  return a;
}

/// Refuses to measure anything but an optimized, uninstrumented build.
void require_release_build() {
  bool sanitized = std::strcmp(PERFBENCH_SANITIZE, "OFF") != 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  sanitized = true;
#endif
#endif
  bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
  release = false;
#endif
  if (!release || sanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to record from a %s build (sanitize=%s); "
                 "configure with -DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZE);
    std::exit(3);
  }
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string env_json(const Args& a, const WorkloadSpec& w) {
  const auto vec = grx::simt::resolve_backend(grx::simt::VecBackend::kAuto);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "\"nproc\": %ld, \"omp_threads_engine\": %d, "
                "\"server_workers\": %u, \"omp_threads_per_worker\": 1, "
                "\"load_threads\": %d, ",
                sysconf(_SC_NPROCESSORS_ONLN), kEngineOmpThreads, kWorkers,
                w.churn ? 2 : 1);
  return std::string("{\"workload\": ") + json_str(a.workload) +
         ", \"seed\": " + std::to_string(a.seed) + ", \"trace\": " +
         (a.trace ? "1" : "0") + ", " + buf +
         "\"vec_backend\": " + json_str(grx::simt::to_string(vec)) +
         ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_str(PERFBENCH_COMPILER) +
         ", \"git_sha\": " + json_str(a.git_sha) +
         ", \"src_hash\": " + json_str(a.src_hash) + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- inputs ---------------------------------------------------------------------

Csr build_engine_graph(GraphSource src) {
  return grx::build_dataset(src == GraphSource::kSocial ? "soc-orkut-s"
                                                        : "roadnet-s",
                            1);
}

/// The power-law bench graph every workload serves.
Csr build_serving_graph() {
  grx::BuildOptions bo;
  bo.symmetrize = true;
  return grx::with_random_weights(grx::build_csr(grx::rmat(13, 16, 11), bo),
                                  /*seed=*/7);
}

std::vector<VertexId> non_isolated(const Csr& g) {
  std::vector<VertexId> vs;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) > 0) vs.push_back(v);
  return vs;
}

/// The served query stream: kind and source of request i, from the seed.
class Traffic {
 public:
  Traffic(const WorkloadSpec& w, const std::vector<VertexId>& pool_from,
          std::uint64_t seed)
      : rng_(seed ^ 0x5eedf00dULL), zipf_(w.churn) {
    if (zipf_) {
      grx::Rng pick(seed ^ 0x407ULL);
      for (std::size_t i = 0; i < kHotSources; ++i)
        pool_.push_back(pool_from[pick.next_below(pool_from.size())]);
      double sum = 0;
      for (std::size_t r = 1; r <= kHotSources; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
        cdf_.push_back(sum);
      }
      for (double& c : cdf_) c /= sum;
    } else {
      pool_ = pool_from;
    }
  }

  std::pair<QueryKind, VertexId> next() {
    const QueryKind kind =
        rng_.next_below(kBfsPerSssp + 1) == 0 ? QueryKind::kSssp : QueryKind::kBfs;
    std::size_t idx = 0;
    if (zipf_) {
      const double u = rng_.next_double();
      idx = static_cast<std::size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      idx = std::min(idx, pool_.size() - 1);
    } else {
      idx = rng_.next_below(pool_.size());
    }
    return {kind, pool_[idx]};
  }

 private:
  grx::Rng rng_;
  bool zipf_;
  std::vector<VertexId> pool_;
  std::vector<double> cdf_;
};

/// Fixed-size update batches: half inserts of random pairs with random
/// weights, half deletes of edges of the base graph.
class UpdateStream {
 public:
  UpdateStream(const Csr& g, std::uint32_t batch, std::uint64_t seed)
      : g_(g), batch_(batch), rng_(seed ^ 0xc4a11ULL), sources_(non_isolated(g)) {}

  std::vector<EdgeUpdate> next() {
    std::vector<EdgeUpdate> b;
    b.reserve(batch_);
    const VertexId n = g_.num_vertices();
    while (b.size() < batch_) {
      if (rng_.next_below(2) == 0) {
        const auto u = static_cast<VertexId>(rng_.next_below(n));
        const auto v = static_cast<VertexId>(rng_.next_below(n));
        if (u == v) continue;
        b.push_back(EdgeUpdate::insert_edge(u, v, rng_.next_in(1, 64)));
      } else {
        const VertexId u = sources_[rng_.next_below(sources_.size())];
        const auto nbrs = g_.neighbors(u);
        b.push_back(EdgeUpdate::remove_edge(u, nbrs[rng_.next_below(nbrs.size())]));
      }
    }
    return b;
  }

 private:
  const Csr& g_;
  std::uint32_t batch_;
  grx::Rng rng_;
  std::vector<VertexId> sources_;
};

// --- the world one run measures -----------------------------------------------------

/// The coalescer keeps its defaults (200 us window, 64 lanes, as in
/// bench_server). The cache holds 512 results: at most 512 x 8192 x 4 B =
/// 16 MB on the served graph, and four epochs' worth of serve-churn's hot
/// keys (64 sources x 2 kinds), so capacity never limits its hits.
grx::ServerOptions server_options() {
  grx::ServerOptions so;
  so.num_workers = kWorkers;
  so.omp_threads_per_worker = 1;
  so.coalesce = true;
  so.max_queue = 16384;
  so.admission = grx::AdmissionPolicy::kReject;
  so.default_deadline_us = static_cast<std::uint32_t>(4 * kSloMs * 1000);
  so.cache.enabled = true;
  so.cache.max_entries = 512;
  return so;
}

grx::QueryOptions bfs_options() {
  grx::QueryOptions o;
  o.direction = grx::Direction::kOptimal;
  o.idempotent = true;
  return o;
}

/// Served queries use the engine phase's BFS options; SSSP the defaults.
grx::QueryOptions served_options(QueryKind kind) {
  return kind == QueryKind::kBfs ? bfs_options() : grx::QueryOptions{};
}

grx::QueryOptions pagerank_options() {
  grx::QueryOptions o;
  o.max_iterations = kPrIterations;
  o.epsilon = 0.0;
  return o;
}

/// Everything a run measures, built by setup(). Member order is teardown
/// order in reverse: servers stop before the engines and graphs they use.
struct World {
  Csr eg;  ///< the engine phase's graph
  Csr g;   ///< the served (and updated) graph
  std::unique_ptr<grx::DynamicGraph> dyn;
  std::unique_ptr<grx::simt::Device> dev;
  std::unique_ptr<grx::Engine> engine;
  std::unique_ptr<grx::Server> dyn_server;     ///< owns updates (and churn reads)
  std::unique_ptr<grx::Server> static_server;  ///< reads of static workloads
  grx::Server* serve = nullptr;
  double graph_build_s = 0;
};

void warm_up(World& world) {
  grx::Engine& e = *world.engine;
  const VertexId s = non_isolated(world.eg).front();
  (void)e.bfs(s, bfs_options());
  (void)e.sssp(s);
  (void)e.bc(s);
  (void)e.cc();
  (void)e.pagerank(pagerank_options());
  const std::vector<VertexId> sources = non_isolated(world.g);
  std::vector<grx::QueryTicket> ts;
  for (std::size_t i = 0; i < 2 * 64; ++i) {
    const QueryKind k = i % (kBfsPerSssp + 1) == 0 ? QueryKind::kSssp
                                                   : QueryKind::kBfs;
    grx::QueryRequest r;
    r.kind = k;
    r.source = sources[i % sources.size()];
    r.opts = served_options(k);
    r.opts.cache = false;  // warm the engines, not the cache
    ts.push_back(world.serve->submit(r));
  }
  for (auto& t : ts) (void)t.get();
}

std::unique_ptr<World> setup(const WorkloadSpec& w) {
  auto world = std::make_unique<World>();
  const std::int64_t t0 = now_ns();
  world->eg = build_engine_graph(w.engine_graph);
  world->g = build_serving_graph();
  world->graph_build_s = ns_to_ms(now_ns() - t0) / 1e3;
  grx::DynamicGraphOptions dopt;
  dopt.symmetric = true;
  dopt.compact_every = 8;
  world->dyn = std::make_unique<grx::DynamicGraph>(world->g, dopt);
  world->dev = std::make_unique<grx::simt::Device>();
  world->engine = std::make_unique<grx::Engine>(*world->dev, world->eg);
  const grx::ServerOptions so = server_options();
  world->dyn_server = std::make_unique<grx::Server>(*world->dyn, so);
  if (w.churn) {
    world->serve = world->dyn_server.get();
  } else {
    world->static_server = std::make_unique<grx::Server>(world->g, so);
    world->serve = world->static_server.get();
  }
  warm_up(*world);
  return world;
}

// --- correctness ------------------------------------------------------------------

struct Verdict {
  bool ok = true;
  std::string first_error;
  std::uint64_t checked = 0;

  void fail(const std::string& what) {
    if (ok) first_error = what;
    ok = false;
  }
};

/// Elementwise |a - b| <= max(abs, rel * |b|).
bool near(const std::vector<double>& a, const std::vector<double>& b,
          double rel, double abs) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::abs(a[i] - b[i]) > std::max(abs, rel * std::abs(b[i])))
      return false;
  return true;
}

/// Serial oracle results on one graph, timed (the timings are the
/// baselines.serial layer's metrics). The source-free results are kept.
struct Oracles {
  const Csr* g = nullptr;
  std::vector<VertexId> cc;
  std::vector<double> pr;
  std::vector<double> ms[5];  ///< serial wall per call, by primitive

  template <typename F>
  auto timed(int prim, F&& f) {
    const std::int64_t t0 = now_ns();
    auto r = f();
    ms[prim].push_back(ns_to_ms(now_ns() - t0));
    return r;
  }
  std::vector<std::uint32_t> bfs_of(VertexId s) {
    return timed(0, [&] { return grx::serial::bfs(*g, s); });
  }
  std::vector<std::uint32_t> sssp_of(VertexId s) {
    return timed(1, [&] { return grx::serial::dijkstra(*g, s); });
  }
  std::vector<double> bc_of(VertexId s) {
    return timed(2, [&] { return grx::serial::brandes_bc(*g, s); });
  }
  /// `fresh` recomputes (and times) the source-free results again.
  const std::vector<VertexId>& cc_of(bool fresh) {
    if (cc.empty() || fresh)
      cc = timed(3, [&] { return grx::serial::connected_components(*g); });
    return cc;
  }
  const std::vector<double>& pr_of(bool fresh) {
    if (pr.empty() || fresh)
      pr = timed(4, [&] {
        return grx::serial::pagerank(*g, 0.85, kPrIterations);
      });
    return pr;
  }
};

// --- engine phase -------------------------------------------------------------------

struct PrimStats {
  std::vector<double> wall_ms;   ///< call wall, every call
  std::vector<double> self_ms;   ///< call wall - EnactSummary::host_wall_ms
  // Exact counts over the first `counted` passes.
  std::uint64_t iterations = 0, edges = 0, launches = 0;
  std::uint64_t warp_cycles = 0, active_lane_cycles = 0;
  double device_ms = 0, host_wall_ms = 0;
  std::uint32_t calls = 0;
};

struct EngineRun {
  PrimStats prim[5];
  std::vector<double> pass_ms;
  std::vector<double> traced_pass_ms, untraced_pass_ms;
  double counted_device_ms = 0;  ///< summed over the counted passes
  std::map<std::string, double> kernel_us;  ///< counted passes, traced run
  std::uint64_t calls = 0;
  std::uint64_t reconcile_violations = 0;
};

EngineRun run_engine_phase(World& world, const std::vector<VertexId>& pool,
                           std::uint64_t seed, std::uint32_t counted_passes,
                           double budget_s, bool trace, Oracles& oracle,
                           Verdict& verdict, SpanLog& spans) {
  EngineRun run;
  grx::Engine& e = *world.engine;
  grx::simt::Device& dev = *world.dev;
  grx::BfsResult bfs;
  grx::SsspResult sssp;
  grx::BcResult bc;
  grx::CcResult cc;
  grx::PagerankResult pr;
  const grx::QueryOptions bopt = bfs_options();
  const grx::QueryOptions popt = pagerank_options();
  double spent_s = 0;
  // Every pass draws a fresh source, so per-call medians average over many
  // sources and depend little on the seed.
  grx::Rng sources(seed ^ 0xe1e1ULL);
  for (std::uint32_t pass = 0; pass < counted_passes || spent_s < budget_s;
       ++pass) {
    const bool counted = pass < counted_passes;
    // The traced run records spans and the kernel log on the counted
    // passes and on every other pass after them; the untraced passes in
    // between give the tracing overhead.
    const bool traced = trace && (counted || pass % 2 == 0);
    dev.set_profiling(traced);
    const VertexId s = pool[sources.next_below(pool.size())];
    const std::int64_t pass_t0 = now_ns();
    std::uint64_t pass_span = 0;
    double pass_device_ms = 0;
    for (int p = 0; p < 5; ++p) {
      const std::int64_t t0 = now_ns();
      const grx::EnactSummary* sum = nullptr;
      switch (p) {
        case 0: e.bfs(s, bfs, bopt); sum = &bfs.summary; break;
        case 1: e.sssp(s, sssp); sum = &sssp.summary; break;
        case 2: e.bc(s, bc); sum = &bc.summary; break;
        case 3: e.cc(cc); sum = &cc.summary; break;
        default: e.pagerank(pr, popt); sum = &pr.summary; break;
      }
      const std::int64_t t1 = now_ns();
      const double wall = ns_to_ms(t1 - t0);
      PrimStats& ps = run.prim[p];
      ps.wall_ms.push_back(wall);
      ps.self_ms.push_back(wall - sum->host_wall_ms);
      pass_device_ms += sum->device_time_ms;
      ++run.calls;
      if (traced) {
        if (pass_span == 0) pass_span = spans.open("engine.pass", 0, 0, pass_t0);
        spans.add(kCallSpans[p], pass_span, 0, t0, t1);
        if (wall + 1e-6 < sum->host_wall_ms) ++run.reconcile_violations;
      }
      if (counted) {
        ps.iterations += sum->iterations;
        ps.edges += sum->edges_processed;
        ps.launches += sum->counters.kernel_launches;
        ps.warp_cycles += sum->counters.total_warp_cycles;
        ps.active_lane_cycles += sum->counters.active_lane_cycles;
        ps.device_ms += sum->device_time_ms;
        ps.host_wall_ms += sum->host_wall_ms;
        ++ps.calls;
        if (traced)
          for (const auto& k : dev.kernel_log()) run.kernel_us[k.name] += k.time_us;
      }
    }
    const double pass_ms = ns_to_ms(now_ns() - pass_t0);
    spent_s += pass_ms / 1e3;
    run.pass_ms.push_back(pass_ms);
    if (counted) {
      run.counted_device_ms += pass_device_ms;
    } else {
      (traced ? run.traced_pass_ms : run.untraced_pass_ms).push_back(pass_ms);
    }
    if (pass_span != 0) spans.close(pass_span, now_ns());

    // Outside the timed region: every result against the serial oracle.
    verdict.checked += 5;
    if (bfs.depth != oracle.bfs_of(s)) verdict.fail("engine bfs mismatch");
    if (sssp.dist != oracle.sssp_of(s)) verdict.fail("engine sssp mismatch");
    // The test suite's tolerances: BC within 1e-6 absolute, widened to
    // 1e-6 relative for large scores (its sums associate differently);
    // PageRank within 1e-10 absolute.
    if (!near(bc.bc_values, oracle.bc_of(s), 1e-6, 1e-6))
      verdict.fail("engine bc mismatch");
    if (cc.component != oracle.cc_of(counted)) verdict.fail("engine cc mismatch");
    if (!near(pr.rank, oracle.pr_of(counted), 0, 1e-10))
      verdict.fail("engine pagerank mismatch");
  }
  dev.set_profiling(false);
  return run;
}

// --- serve phase ----------------------------------------------------------------------

/// The nominal-rate phase, open loop: requests go out at due times fixed
/// in advance.
struct Nominal {
  std::uint64_t sent = 0, ok = 0, failed = 0;
  /// Medians over consecutive windows of kWindow requests (in due order)
  /// of each window's p50 / p99: a short stall moves one window, not the
  /// figure. Failures count as misses.
  double win_p50_ms = 0, win_p99_ms = 0;
  // Per-query layer timings: generator lag (due -> submit), the submit
  // call, and the wait from submit return to the ticket seen ready.
  std::vector<double> lag_ms, submit_us, wait_ms;
};

/// The capacity phase, closed loop: kInFlight requests outstanding, each
/// answer releasing the next request.
struct Capacity {
  std::uint64_t sent = 0, ok = 0, failed = 0;
  /// Answers within the latency limit per second: the interquartile mean
  /// over the phase's half-second windows (by time seen ready), the first
  /// window, which fills the pipeline, left out.
  double goodput_qps = 0;
  double p99_ms = 0;  ///< submit -> ready; failures count as misses
};

/// A sampled served result, kept as a digest of its payload until the
/// oracle check.
struct Sample {
  QueryKind kind;
  VertexId source;
  grx::Epoch epoch;
  std::uint64_t digest;
};

struct ServeRun {
  Nominal nominal;
  Capacity capacity;
  grx::ServerStats nominal_stats;  ///< counters over the nominal phase
  std::vector<Sample> samples;
  std::uint64_t cached_samples = 0;
  std::uint64_t reconcile_violations = 0;

  /// Seeded sample of served results, cache hits favoured, kept for the
  /// oracle check after the phase.
  void maybe_sample(std::uint64_t id, QueryKind kind, VertexId source,
                    const grx::QueryResult& r, std::uint64_t seed) {
    if (((id * 0x9E3779B97F4A7C15ULL) ^ seed) % 61 != 0 &&
        !(r.cached && cached_samples < 64))
      return;
    cached_samples += r.cached ? 1 : 0;
    samples.push_back({kind, source, r.epoch,
                       digest(kind == QueryKind::kBfs ? r.depth : r.dist)});
  }
};

grx::ServerStats stats_delta(const grx::ServerStats& a, const grx::ServerStats& b) {
  grx::ServerStats d = b;
  d.queries_submitted -= a.queries_submitted;
  d.queries_served -= a.queries_served;
  d.enacts -= a.enacts;
  d.coalesced_queries -= a.coalesced_queries;
  d.rejected -= a.rejected;
  d.shed -= a.shed;
  d.cancelled -= a.cancelled;
  d.deadline_exceeded -= a.deadline_exceeded;
  d.worker_failures -= a.worker_failures;
  d.late -= a.late;
  d.cache_hits -= a.cache_hits;
  d.cache_misses -= a.cache_misses;
  d.dedup_attached -= a.dedup_attached;
  d.cache_evictions -= a.cache_evictions;
  d.epoch_fuse_splits -= a.epoch_fuse_splits;
  d.epoch_rebinds -= a.epoch_rebinds;
  return d;
}

grx::QueryRequest request(QueryKind kind, VertexId source) {
  grx::QueryRequest req;
  req.kind = kind;
  req.source = source;
  req.opts = served_options(kind);
  return req;
}

/// Sends `count` requests at `rate` (due times fixed in advance, open
/// loop) from this thread, stamps each ticket when it is seen ready, and
/// returns once every ticket has resolved.
Nominal run_nominal(grx::Server& server, Traffic& traffic, double rate,
                    std::uint64_t count, std::uint64_t& next_query, bool trace,
                    SpanLog& spans, ServeRun& run, std::uint64_t seed) {
  struct InFlight {
    grx::QueryTicket ticket;
    std::uint64_t id;
    std::int64_t due, sub0, sub1;
    QueryKind kind;
    VertexId source;
  };
  Nominal nom;
  std::vector<InFlight> open;
  open.reserve(2048);
  std::vector<std::pair<std::int64_t, double>> done_lat;  // (due, ms)
  done_lat.reserve(count);
  const double period_ns = 1e9 / rate;
  const std::int64_t start = now_ns() + 1'000'000;
  std::uint64_t sent = 0;
  while (sent < count || !open.empty()) {
    std::int64_t now = now_ns();
    while (sent < count) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(static_cast<double>(sent) * period_ns);
      if (due > now) break;
      const auto [kind, src] = traffic.next();
      const std::uint64_t id = ++next_query;
      const std::int64_t s0 = now_ns();
      ++sent;
      try {
        grx::QueryTicket t = server.submit(request(kind, src));
        const std::int64_t s1 = now_ns();
        open.push_back({std::move(t), id, due, s0, s1, kind, src});
      } catch (const grx::RejectedError&) {
        ++nom.failed;
        done_lat.emplace_back(due, 1e300);
      }
      nom.lag_ms.push_back(ns_to_ms(s0 - due));
      now = now_ns();
    }
    for (std::size_t i = 0; i < open.size();) {
      if (!open[i].ticket.ready()) {
        ++i;
        continue;
      }
      const std::int64_t ready = now_ns();
      InFlight f = std::move(open[i]);
      open[i] = std::move(open.back());
      open.pop_back();
      const double lat = ns_to_ms(ready - f.due);
      if (f.ticket.outcome() == grx::QueryOutcome::kOk) {
        const grx::QueryResult r = f.ticket.get();
        ++nom.ok;
        done_lat.emplace_back(f.due, lat);
        run.maybe_sample(f.id, f.kind, f.source, r, seed);
      } else {
        ++nom.failed;
        done_lat.emplace_back(f.due, 1e300);
        try {
          (void)f.ticket.get();
        } catch (const grx::CheckError&) {
        }
      }
      nom.submit_us.push_back(ns_to_ms(f.sub1 - f.sub0) * 1e3);
      nom.wait_ms.push_back(ns_to_ms(ready - f.sub1));
      if (trace) {
        const std::uint64_t q =
            spans.add("query", 0, f.id, f.due, ready);
        spans.add("loadgen.lag", q, f.id, f.due, f.sub0);
        spans.add("server.submit", q, f.id, f.sub0, f.sub1);
        spans.add("server.wait", q, f.id, f.sub1, ready);
        // The three child spans must tile the query's latency exactly.
        if ((f.sub0 - f.due) + (f.sub1 - f.sub0) + (ready - f.sub1) !=
            ready - f.due)
          ++run.reconcile_violations;
      }
    }
    // Poll: sleep at most kPollNs, never past the next due time. Blocking
    // on one ticket would stamp the others late; spinning would take a
    // core from the workers.
    const std::int64_t until_due =
        sent < count ? start +
                           static_cast<std::int64_t>(
                               static_cast<double>(sent) * period_ns) -
                           now_ns()
                     : kPollNs;
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::clamp<std::int64_t>(until_due, 0, kPollNs)));
  }
  nom.sent = sent;
  std::sort(done_lat.begin(), done_lat.end());
  std::vector<double> by_due;
  for (const auto& d : done_lat) by_due.push_back(d.second);
  nom.win_p50_ms = windowed_percentile(by_due, kWindow, 50);
  nom.win_p99_ms = windowed_percentile(by_due, kWindow, 99);
  return nom;
}

/// Keeps kInFlight requests outstanding for `seconds` (each answer seen
/// ready is replaced by the next request at once), then waits for the
/// last ones. Answers slower than the limit, and failures, are not
/// counted as goodput.
Capacity run_capacity(grx::Server& server, Traffic& traffic, double seconds,
                      std::uint64_t& next_query, ServeRun& run,
                      std::uint64_t seed) {
  struct InFlight {
    grx::QueryTicket ticket;
    std::uint64_t id;
    std::int64_t sub;
    QueryKind kind;
    VertexId source;
  };
  Capacity cap;
  std::vector<InFlight> open;
  open.reserve(kInFlight);
  std::vector<double> lat;
  const auto windows =
      static_cast<std::size_t>(std::max(2.0, std::floor(2 * seconds)));
  const std::int64_t window_ns = static_cast<std::int64_t>(seconds * 1e9) /
                                 static_cast<std::int64_t>(windows);
  std::vector<std::uint64_t> good(windows, 0);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + window_ns * static_cast<std::int64_t>(windows);
  for (;;) {
    if (now_ns() < end) {
      while (open.size() < kInFlight) {
        const auto [kind, src] = traffic.next();
        const std::uint64_t id = ++next_query;
        ++cap.sent;
        try {
          open.push_back({server.submit(request(kind, src)), id, now_ns(), kind, src});
        } catch (const grx::RejectedError&) {
          ++cap.failed;
          lat.push_back(1e300);
          break;  // try again after the next sweep
        }
      }
    } else if (open.empty()) {
      break;
    }
    bool any = false;
    for (std::size_t i = 0; i < open.size();) {
      if (!open[i].ticket.ready()) {
        ++i;
        continue;
      }
      any = true;
      const std::int64_t ready = now_ns();
      InFlight f = std::move(open[i]);
      open[i] = std::move(open.back());
      open.pop_back();
      if (f.ticket.outcome() == grx::QueryOutcome::kOk) {
        const grx::QueryResult r = f.ticket.get();
        const double l = ns_to_ms(ready - f.sub);
        ++cap.ok;
        lat.push_back(l);
        if (l <= kSloMs && ready < end)
          ++good[static_cast<std::size_t>((ready - start) / window_ns)];
        run.maybe_sample(f.id, f.kind, f.source, r, seed);
      } else {
        ++cap.failed;
        lat.push_back(1e300);
        try {
          (void)f.ticket.get();
        } catch (const grx::CheckError&) {
        }
      }
    }
    if (!any) std::this_thread::sleep_for(std::chrono::nanoseconds(kPollNs));
  }
  std::vector<double> per_s;
  for (std::size_t k = 1; k < windows; ++k)
    per_s.push_back(static_cast<double>(good[k]) * 1e9 / static_cast<double>(window_ns));
  cap.goodput_qps = interquartile_mean(per_s);
  cap.p99_ms = percentile(lat, 99);
  return cap;
}

/// Open-loop serving at the nominal rate, then the closed-loop capacity
/// phase. `in_nominal` is set while the nominal rate runs, so the writer
/// beside serve-churn can tell its nominal-rate calls from those made
/// while the server is saturated.
ServeRun run_serve_phase(World& world, double seconds, Traffic& traffic,
                         std::uint64_t& next_query, bool trace, SpanLog& spans,
                         std::uint64_t seed, std::atomic<bool>& in_nominal) {
  ServeRun run;
  grx::Server& server = *world.serve;
  const auto nominal_count = static_cast<std::uint64_t>(
      std::max(1000.0, kNominalQps * seconds * kNominalShare));
  const grx::ServerStats before = server.stats();
  in_nominal.store(true, std::memory_order_release);
  run.nominal = run_nominal(server, traffic, kNominalQps, nominal_count,
                            next_query, trace, spans, run, seed);
  in_nominal.store(false, std::memory_order_release);
  run.nominal_stats = stats_delta(before, server.stats());
  // Spans cover the nominal phase only: the capacity phase answers
  // hundreds of thousands of requests.
  run.capacity = run_capacity(server, traffic, seconds * kCapacityShare,
                              next_query, run, seed);
  return run;
}

// --- updates ----------------------------------------------------------------------------

struct UpdateLog {
  std::vector<std::pair<grx::Epoch, std::vector<EdgeUpdate>>> batches;
  std::vector<double> measured_ms;  ///< latency of calls begun while measuring
  std::uint64_t calls = 0, failed = 0;
};

/// Update writer: one apply_updates call every `period_ms` (0 = back to
/// back) until `stop` is set, or until the log holds `max_calls` calls
/// when nonzero. Calls
/// begun while `measure` is set have their latency recorded.
void run_writer(grx::Server& server, UpdateStream& stream, double period_ms,
                std::uint64_t max_calls, const std::atomic<bool>& stop,
                const std::atomic<bool>& measure, UpdateLog& log, bool trace,
                SpanLog& spans) {
  omp_set_num_threads(1);
  const auto period = std::chrono::nanoseconds(
      static_cast<std::int64_t>(period_ms * 1e6));
  auto next = Clock::now();
  while (!stop.load(std::memory_order_acquire) &&
         (max_calls == 0 || log.calls < max_calls)) {
    std::vector<EdgeUpdate> batch = stream.next();
    const bool measured = measure.load(std::memory_order_acquire);
    const std::int64_t t0 = now_ns();
    grx::Epoch epoch = 0;
    try {
      epoch = server.apply_updates(batch);
    } catch (const grx::CheckError&) {
      ++log.failed;
      continue;
    }
    const std::int64_t t1 = now_ns();
    ++log.calls;
    if (measured) log.measured_ms.push_back(ns_to_ms(t1 - t0));
    if (trace) spans.add("server.apply_updates", 0, 0, t0, t1);
    log.batches.emplace_back(epoch, std::move(batch));
    if (period.count() > 0) {
      next += period;
      std::this_thread::sleep_until(next);
    }
  }
}

/// Replays the update log epoch by epoch and checks each sampled served
/// result against serial runs on its own epoch's graph, then the final
/// published snapshot against the replay.
void check_served(const Csr& base, const UpdateLog& log,
                  std::vector<Sample>& samples, grx::DynamicGraph* dyn,
                  Verdict& verdict) {
  std::sort(samples.begin(), samples.end(), [](const Sample& a, const Sample& b) {
    return a.epoch < b.epoch;
  });
  ReplayGraph replay(base);
  std::size_t next_batch = 0;
  grx::Epoch at = 0;
  Csr current;
  const Csr* g = &base;
  for (const Sample& s : samples) {
    if (s.epoch != at) {
      while (next_batch < log.batches.size() &&
             log.batches[next_batch].first <= s.epoch) {
        replay.apply(log.batches[next_batch].second);
        at = log.batches[next_batch].first;
        ++next_batch;
      }
      if (at != s.epoch) {
        verdict.fail("served result names an epoch the update log never published");
        return;
      }
      current = replay.csr();
      g = &current;
    }
    ++verdict.checked;
    if (s.kind == QueryKind::kBfs) {
      if (s.digest != digest(grx::serial::bfs(*g, s.source)))
        verdict.fail("served bfs mismatch at epoch " + std::to_string(at));
    } else if (s.digest != digest(grx::serial::dijkstra(*g, s.source))) {
      verdict.fail("served sssp mismatch at epoch " + std::to_string(at));
    }
  }
  if (dyn == nullptr) return;
  while (next_batch < log.batches.size()) replay.apply(log.batches[next_batch++].second);
  const grx::SnapshotView head = dyn->snapshot();
  const Csr want = replay.csr();
  const Csr& got = head.csr();
  ++verdict.checked;
  if (!std::equal(got.row_offsets().begin(), got.row_offsets().end(),
                  want.row_offsets().begin(), want.row_offsets().end()) ||
      !std::equal(got.col_indices().begin(), got.col_indices().end(),
                  want.col_indices().begin(), want.col_indices().end()) ||
      !std::equal(got.weights().begin(), got.weights().end(),
                  want.weights().begin(), want.weights().end()))
    verdict.fail("final snapshot differs from the replayed update log");
}

// --- report -----------------------------------------------------------------------------

void write_spans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"query\": " << s.query
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}\n";
    }
  }
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : workloads())
    if (args.workload == w.name) spec = &w;
  if (spec == nullptr) usage(("unknown workload " + args.workload).c_str());
  const WorkloadSpec& w = *spec;
  omp_set_num_threads(kEngineOmpThreads);

  // --- setup, repeated; the last world is the one measured.
  std::vector<double> setup_s, build_s;
  std::unique_ptr<World> world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world.reset();
    const std::int64_t t0 = now_ns();
    world = setup(w);
    setup_s.push_back(ns_to_ms(now_ns() - t0) / 1e3);
    build_s.push_back(world->graph_build_s);
  }
  const Csr& g = world->g;

  Verdict verdict;
  SpanLog main_spans(0), writer_spans(1ULL << 40);
  if (args.trace) main_spans.reserve(1 << 16);
  Oracles oracle;
  oracle.g = &world->eg;

  // --- engine phase
  EngineRun eng = run_engine_phase(*world, non_isolated(world->eg), args.seed,
                                   w.counted, args.seconds * kEngineShare,
                                   args.trace, oracle, verdict, main_spans);

  // --- serve phase (with the writer beside it on serve-churn)
  Traffic traffic(w, non_isolated(g), args.seed);
  const auto batch = static_cast<std::uint32_t>(
      std::max(1.0, kChurnPerSecond * static_cast<double>(g.num_edges()) *
                        kWriterPeriodMs / 1e3));
  UpdateStream updates(g, batch, args.seed);
  UpdateLog ulog;
  std::uint64_t next_query = 0;
  std::atomic<bool> stop_writer{false}, in_nominal{false};
  std::thread writer;
  if (w.churn)
    writer = std::thread([&] {
      run_writer(*world->dyn_server, updates, kWriterPeriodMs, 0, stop_writer,
                 in_nominal, ulog, args.trace, writer_spans);
    });
  ServeRun serve;
  try {
    serve = run_serve_phase(*world, args.seconds, traffic, next_query,
                            args.trace, main_spans, args.seed, in_nominal);
  } catch (...) {
    stop_writer.store(true, std::memory_order_release);
    if (writer.joinable()) writer.join();
    throw;
  }
  stop_writer.store(true, std::memory_order_release);
  if (writer.joinable()) writer.join();

  // --- update phase: back-to-back calls on the dynamic server, idle now
  // (on serve-churn the same server that took the churn beside its reads)
  const std::vector<double> beside_reads_ms = std::move(ulog.measured_ms);
  ulog.measured_ms.clear();
  {
    const std::atomic<bool> never{false}, always{true};
    run_writer(*world->dyn_server, updates, 0.0, ulog.calls + kProbeUpdates,
               never, always, ulog, args.trace, writer_spans);
  }
  world->dyn_server->stop();
  if (world->static_server) world->static_server->stop();
  const grx::ServerStats dstats = world->dyn_server->stats();
  world->dyn->collect();
  const grx::DynamicGraphStats gstats = world->dyn->stats();

  // Every measured phase is over; the checks below build graphs of their
  // own, so the run's peak is read before them.
  const double run_peak_rss_mb = peak_rss_mb();

  // --- correctness of served results and of the update path
  const std::int64_t check_t0 = now_ns();
  check_served(g, ulog, serve.samples, world->dyn.get(), verdict);
  const double check_s = ns_to_ms(now_ns() - check_t0) / 1e3;
  if (eng.reconcile_violations + serve.reconcile_violations > 0)
    verdict.fail("trace spans do not reconcile with the measured latencies");

  // --- metrics
  Metrics m;
  const Nominal& nominal = serve.nominal;
  const Capacity& cap = serve.capacity;
  const std::uint64_t attempted =
      eng.calls + nominal.sent + cap.sent + ulog.calls + ulog.failed;
  const std::uint64_t failed = nominal.failed + cap.failed + ulog.failed;
  if (!args.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", run_peak_rss_mb, "MB");
    for (int p = 0; p < 5; ++p)
      m.set(std::string(kPrims[p]) + "_ms", median(eng.prim[p].wall_ms), "ms");
    m.set("pass_p50_ms", percentile(eng.pass_ms, 50), "ms");
    m.set("pass_p90_ms", percentile(eng.pass_ms, 90), "ms");
    m.set("device_ms", eng.counted_device_ms / w.counted, "ms_device");
    m.set("max_qps_at_slo", cap.goodput_qps, "1/s");
    m.set("update_p99_ms", windowed_percentile(ulog.measured_ms, kUpdateWindow, 99),
          "ms");
  } else {
    m.set("graph.build_s", median(build_s), "s");
    m.set("graph.epochs", static_cast<double>(gstats.epoch), "count");
    m.set("graph.compactions", static_cast<double>(gstats.compactions), "count");
    m.set("graph.compact_pause_max_ms", gstats.compact_us_max / 1e3, "ms");
    m.set("graph.live_snapshots_after_drain",
          static_cast<double>(gstats.live_snapshots), "count");
    double kernel_other = 0;
    std::set<std::string> named(std::begin(kKernels), std::end(kKernels));
    for (const auto& [name, us] : eng.kernel_us)
      if (!named.count(name)) kernel_other += us;
    for (const char* k : kKernels) {
      const auto it = eng.kernel_us.find(k);
      m.set(std::string("simt.kernel.") + k + ".time_us",
            it == eng.kernel_us.end() ? 0.0 : it->second / w.counted, "us_device");
    }
    m.set("simt.kernel.other.time_us", kernel_other / w.counted, "us_device");
    for (int p = 0; p < 5; ++p) {
      const PrimStats& ps = eng.prim[p];
      const std::string n = kPrims[p];
      const double calls = ps.calls;
      m.set("simt." + n + ".kernel_launches", ps.launches / calls, "count");
      m.set("simt." + n + ".warp_efficiency",
            ps.warp_cycles ? static_cast<double>(ps.active_lane_cycles) /
                                 (32.0 * static_cast<double>(ps.warp_cycles))
                           : 1.0,
            "ratio");
      m.set("core." + n + ".iterations", ps.iterations / calls, "count");
      m.set("core." + n + ".edges", ps.edges / calls, "count");
      m.set("core." + n + ".ns_per_edge",
            ps.edges ? ps.host_wall_ms * 1e6 / static_cast<double>(ps.edges) : 0,
            "ns");
      m.set("core." + n + ".us_per_iteration",
            ps.iterations ? ps.host_wall_ms * 1e3 / static_cast<double>(ps.iterations)
                          : 0,
            "us");
      m.set("engine." + n + ".self_ms", median(ps.self_ms), "ms");
      const double serial_ms = median(oracle.ms[p]);
      m.set("serial." + n + "_ms", serial_ms, "ms");
      m.set("engine." + n + ".vs_serial",
            serial_ms > 0 ? median(ps.wall_ms) / serial_ms : 0, "ratio");
    }
    const grx::ServerStats& s = serve.nominal_stats;
    const double submitted = std::max<double>(1.0, s.queries_submitted);
    m.set("server.submit_us.p50", percentile(nominal.submit_us, 50), "us");
    m.set("server.submit_us.p99", percentile(nominal.submit_us, 99), "us");
    m.set("server.wait_ms.p50", percentile(nominal.wait_ms, 50), "ms");
    m.set("server.wait_ms.p99", percentile(nominal.wait_ms, 99), "ms");
    m.set("server.enacts", static_cast<double>(s.enacts), "count");
    m.set("server.lanes_per_enact",
          s.enacts ? static_cast<double>(s.queries_served - s.cache_hits -
                                         s.dedup_attached) /
                         static_cast<double>(s.enacts)
                   : 0,
          "count");
    m.set("server.max_lanes", static_cast<double>(s.max_lanes), "count");
    m.set("server.rejected", static_cast<double>(s.rejected), "count");
    m.set("server.shed", static_cast<double>(s.shed), "count");
    m.set("server.deadline_exceeded", static_cast<double>(s.deadline_exceeded),
          "count");
    m.set("server.late", static_cast<double>(s.late), "count");
    const grx::ServerStats& epoch_stats = w.churn ? s : dstats;
    m.set("server.epoch_fuse_splits",
          static_cast<double>(epoch_stats.epoch_fuse_splits), "count");
    m.set("server.epoch_rebinds", static_cast<double>(epoch_stats.epoch_rebinds),
          "count");
    m.set("cache.hit_ratio", static_cast<double>(s.cache_hits) / submitted, "ratio");
    m.set("cache.reuse_ratio",
          static_cast<double>(s.cache_hits + s.dedup_attached) / submitted, "ratio");
    m.set("cache.evictions", static_cast<double>(s.cache_evictions), "count");
    m.set("loadgen.lag_p99_ms", percentile(nominal.lag_ms, 99), "ms");
    // The nominal p50 (~1 ms) is mostly host wake-up latency, and the p99
    // is the tail of SSSPs that lost their core for a while; both move
    // several-fold with the load of other tenants, so they are reported
    // here rather than gated as end-to-end figures.
    m.set("lat_p50_ms", nominal.win_p50_ms, "ms");
    m.set("lat_p99_ms", nominal.win_p99_ms, "ms");
    m.set("loadgen.nominal.sent", static_cast<double>(nominal.sent), "count");
    m.set("loadgen.nominal.ok", static_cast<double>(nominal.ok), "count");
    m.set("loadgen.nominal.failed", static_cast<double>(nominal.failed), "count");
    m.set("loadgen.capacity.sent", static_cast<double>(cap.sent), "count");
    m.set("loadgen.capacity.ok", static_cast<double>(cap.ok), "count");
    m.set("loadgen.capacity.failed", static_cast<double>(cap.failed), "count");
    m.set("loadgen.capacity.p99_ms", cap.p99_ms, "ms");
    m.set("trace.overhead",
          eng.untraced_pass_ms.empty() || eng.traced_pass_ms.empty()
              ? 0
              : median(eng.traced_pass_ms) / median(eng.untraced_pass_ms) - 1,
          "ratio");
    // The writer's calls beside serve-churn's nominal-rate reads (none on
    // serve-uniform). Their p99 is set by contention with the readers and
    // moved with the host's load from run to run; update_p99_ms is taken on
    // the idle server instead.
    m.set("server.update_beside_reads_p99_ms",
          beside_reads_ms.empty()
              ? 0
              : windowed_percentile(beside_reads_ms, kUpdateWindow, 99),
          "ms");
    m.set("fail_ratio", static_cast<double>(failed) / static_cast<double>(attempted),
          "ratio");
  }

  // --- record: environment stamp, serving detail, spans
  const std::string env = env_json(args, w);
  std::printf("{\"env\": %s}\n", env.c_str());
  char serving[400];
  std::snprintf(
      serving, sizeof serving,
      "{\"nominal\": {\"rate\": %g, \"sent\": %llu, \"ok\": %llu, "
      "\"failed\": %llu, \"p50_ms\": %.4f, \"p99_ms\": %.4f}, "
      "\"capacity\": {\"in_flight\": %zu, \"sent\": %llu, \"ok\": %llu, "
      "\"failed\": %llu, \"goodput_qps\": %.1f, \"p99_ms\": %.4f}}",
      kNominalQps, static_cast<unsigned long long>(nominal.sent),
      static_cast<unsigned long long>(nominal.ok),
      static_cast<unsigned long long>(nominal.failed), nominal.win_p50_ms,
      nominal.win_p99_ms, kInFlight, static_cast<unsigned long long>(cap.sent),
      static_cast<unsigned long long>(cap.ok),
      static_cast<unsigned long long>(cap.failed), cap.goodput_qps, cap.p99_ms);
  std::printf("{\"serving\": %s, \"engine_passes\": %zu, \"checked\": %llu, "
              "\"served_check_s\": %.1f, \"served_arcs\": %llu, "
              "\"update_batch\": %u, \"update_calls\": %zu}\n",
              serving, eng.pass_ms.size(),
              static_cast<unsigned long long>(verdict.checked), check_s,
              static_cast<unsigned long long>(g.num_edges()), batch,
              static_cast<std::size_t>(ulog.calls));
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    std::ofstream rec(stem + ".json");
    std::string kernels = "{";
    for (const auto& [name, us] : eng.kernel_us)
      kernels += (kernels.size() > 1 ? ", \"" : "\"") + name +
                 "\": " + std::to_string(us / w.counted);
    rec << "{\"env\": " << env << ", \"serving\": " << serving
        << ", \"kernel_us_per_pass\": " << kernels << "}, \"metrics\": "
        << m.json() << "}\n";
    if (args.trace) write_spans(stem + ".spans.jsonl", {&main_spans, &writer_spans});
  }
  if (!verdict.ok)
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
                 verdict.first_error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              verdict.ok ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
  return verdict.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::require_release_build();
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
