#include "api/engine.hpp"

#include "util/rng.hpp"

namespace grx {

// --- single-source traversal queries ----------------------------------------

void Engine::bfs(VertexId source, BfsResult& out, const QueryOptions& opts) {
  EnactScope scope(*this);
  bfs_.enact(*g_, source, opts, out);
}
BfsResult Engine::bfs(VertexId source, const QueryOptions& opts) {
  BfsResult out;
  bfs(source, out, opts);
  return out;
}

void Engine::sssp(VertexId source, SsspResult& out,
                  const QueryOptions& opts) {
  EnactScope scope(*this);
  sssp_.enact(*g_, source, opts, out);
}
SsspResult Engine::sssp(VertexId source, const QueryOptions& opts) {
  SsspResult out;
  sssp(source, out, opts);
  return out;
}

void Engine::bc(VertexId source, BcResult& out, const QueryOptions& opts) {
  EnactScope scope(*this);
  bc_.enact(*g_, source, opts, out);
}
BcResult Engine::bc(VertexId source, const QueryOptions& opts) {
  BcResult out;
  bc(source, out, opts);
  return out;
}

// --- whole-graph analytics ---------------------------------------------------

void Engine::cc(CcResult& out, const QueryOptions& opts) {
  EnactScope scope(*this);
  require_transpose();
  cc_.enact(*g_, *gT_, opts, out);
}
CcResult Engine::cc(const QueryOptions& opts) {
  CcResult out;
  cc(out, opts);
  return out;
}

void Engine::pagerank(PagerankResult& out, const QueryOptions& opts) {
  EnactScope scope(*this);
  require_transpose();
  pr_.enact(*g_, *gT_, opts, out);
}
PagerankResult Engine::pagerank(const QueryOptions& opts) {
  PagerankResult out;
  pagerank(out, opts);
  return out;
}

void Engine::coloring(ColoringResult& out, const QueryOptions& opts) {
  EnactScope scope(*this);
  coloring_.enact(*g_, opts, out);
}
ColoringResult Engine::coloring(const QueryOptions& opts) {
  ColoringResult out;
  coloring(out, opts);
  return out;
}

void Engine::mis(MisResult& out, const QueryOptions& opts) {
  EnactScope scope(*this);
  mis_.enact(*g_, opts, out);
}
MisResult Engine::mis(const QueryOptions& opts) {
  MisResult out;
  mis(out, opts);
  return out;
}

void Engine::mst(MstResult& out, const QueryOptions& opts) {
  EnactScope scope(*this);
  mst_.enact(*g_, opts, out);
}
MstResult Engine::mst(const QueryOptions& opts) {
  MstResult out;
  mst(out, opts);
  return out;
}

void Engine::require_transpose() {
  if (transpose_explicit_ || symmetry_verified_) return;
  GRX_CHECK_MSG(is_symmetric(*g_),
                "Engine::cc/pagerank/hits/salsa on a directed graph requires "
                "the transpose constructor Engine(dev, g, transpose)");
  symmetry_verified_ = true;
}

void Engine::hits(HitsResult& out, const QueryOptions& opts) {
  EnactScope scope(*this);
  require_transpose();
  hits_.enact(*g_, *gT_, opts, out);
}
HitsResult Engine::hits(const QueryOptions& opts) {
  HitsResult out;
  hits(out, opts);
  return out;
}

void Engine::salsa(SalsaResult& out, const QueryOptions& opts) {
  EnactScope scope(*this);
  require_transpose();
  salsa_.enact(*g_, *gT_, opts, out);
}
SalsaResult Engine::salsa(const QueryOptions& opts) {
  SalsaResult out;
  salsa(out, opts);
  return out;
}

// --- batched multi-source queries -------------------------------------------

void Engine::batch_bfs(std::span<const VertexId> sources,
                       BatchBfsResult& out, const QueryOptions& opts) {
  EnactScope scope(*this);
  batch_.bfs(*g_, sources, opts, out);
}
BatchBfsResult Engine::batch_bfs(std::span<const VertexId> sources,
                                 const QueryOptions& opts) {
  BatchBfsResult out;
  batch_bfs(sources, out, opts);
  return out;
}

void Engine::batch_sssp(std::span<const VertexId> sources,
                        BatchSsspResult& out, const QueryOptions& opts) {
  EnactScope scope(*this);
  batch_.sssp(*g_, sources, opts, out);
}
BatchSsspResult Engine::batch_sssp(std::span<const VertexId> sources,
                                   const QueryOptions& opts) {
  BatchSsspResult out;
  batch_sssp(sources, out, opts);
  return out;
}

void Engine::batch_reachability(std::span<const VertexId> sources,
                                BatchReachabilityResult& out,
                                const QueryOptions& opts) {
  EnactScope scope(*this);
  batch_.reachability(*g_, sources, opts, out);
}
BatchReachabilityResult Engine::batch_reachability(
    std::span<const VertexId> sources, const QueryOptions& opts) {
  BatchReachabilityResult out;
  batch_reachability(sources, out, opts);
  return out;
}

void Engine::batch_bc_forward(std::span<const VertexId> sources,
                              BatchBcForwardResult& out,
                              const QueryOptions& opts) {
  EnactScope scope(*this);
  batch_.bc_forward(*g_, sources, opts, out);
}
BatchBcForwardResult Engine::batch_bc_forward(
    std::span<const VertexId> sources, const QueryOptions& opts) {
  BatchBcForwardResult out;
  batch_bc_forward(sources, out, opts);
  return out;
}

// --- composite BC paths -----------------------------------------------------

void Engine::bc_batched(std::span<const VertexId> sources,
                        std::vector<double>& out, const QueryOptions& opts) {
  EnactScope scope(*this);
  out.assign(g_->num_vertices(), 0.0);
  if (sources.empty()) return;
  // Lane-packed forward pass, then one backward sweep per source folded
  // into `out`.
  batch_.bc_forward(*g_, sources, opts, bc_fwd_);
  for (std::uint32_t q = 0; q < bc_fwd_.num_lanes; ++q)
    bc_.backward_accumulate(*g_, bc_fwd_, q, sources[q], opts, out);
}
std::vector<double> Engine::bc_batched(std::span<const VertexId> sources,
                                       const QueryOptions& opts) {
  std::vector<double> out;
  bc_batched(sources, out, opts);
  return out;
}

void Engine::bc_sampled(std::uint32_t num_sources, std::uint64_t seed,
                        std::vector<double>& out, const QueryOptions& opts) {
  EnactScope scope(*this);
  out.assign(g_->num_vertices(), 0.0);
  Rng rng(seed);
  for (std::uint32_t s = 0; s < num_sources; ++s) {
    const auto src = static_cast<VertexId>(rng.next_below(g_->num_vertices()));
    bc_.enact(*g_, src, opts, bc_tmp_);
    for (VertexId v = 0; v < g_->num_vertices(); ++v)
      out[v] += bc_tmp_.bc_values[v];
  }
}
std::vector<double> Engine::bc_sampled(std::uint32_t num_sources,
                                       std::uint64_t seed,
                                       const QueryOptions& opts) {
  std::vector<double> out;
  bc_sampled(num_sources, seed, out, opts);
  return out;
}

}  // namespace grx
