#include "graph/csr.hpp"

#include <algorithm>
#include <utility>

namespace grx {

Csr::Csr(VertexId num_vertices, std::vector<EdgeId> row_offsets,
         std::vector<VertexId> col_indices, std::vector<Weight> weights)
    : n_(num_vertices),
      m_(col_indices.size()),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)),
      weights_(std::move(weights)) {
  validate();
}

void Csr::validate() const {
  GRX_CHECK_MSG(row_offsets_.size() == static_cast<std::size_t>(n_) + 1,
                "row_offsets must have n+1 entries");
  GRX_CHECK_MSG(row_offsets_.front() == 0, "row_offsets[0] must be 0");
  GRX_CHECK_MSG(row_offsets_.back() == m_,
                "row_offsets[n] must equal the edge count");
  for (VertexId v = 0; v < n_; ++v)
    GRX_CHECK_MSG(row_offsets_[v] <= row_offsets_[v + 1],
                  "row_offsets must be nondecreasing");
  for (VertexId c : col_indices_)
    GRX_CHECK_MSG(c < n_, "column index out of range");
  GRX_CHECK_MSG(weights_.empty() || weights_.size() == col_indices_.size(),
                "weights must be empty or one per edge");
}

std::uint32_t Csr::max_degree() const {
  std::uint32_t best = 0;
  for (VertexId v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

Csr transpose(const Csr& g) {
  const VertexId n = g.num_vertices();
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) offsets[g.col_index(e) + 1]++;
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  std::vector<VertexId> cols(g.num_edges());
  std::vector<Weight> weights(g.has_weights() ? g.num_edges() : 0);
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const EdgeId slot = cursor[nbrs[i]]++;
      cols[slot] = v;
      if (g.has_weights()) weights[slot] = g.edge_weights(v)[i];
    }
  }
  return Csr(n, std::move(offsets), std::move(cols), std::move(weights));
}

namespace {

bool rows_ascending(const Csr& g) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    if (!std::is_sorted(nbrs.begin(), nbrs.end())) return false;
  }
  return true;
}

/// Sort-based check for graphs with unsorted neighbor lists.
bool is_symmetric_sorted_pairs(const Csr& g) {
  using Pair = std::pair<VertexId, VertexId>;
  std::vector<Pair> fwd, rev;
  fwd.reserve(g.num_edges());
  rev.reserve(g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (VertexId u : g.neighbors(v)) {
      fwd.emplace_back(v, u);
      rev.emplace_back(u, v);
    }
  std::sort(fwd.begin(), fwd.end());
  std::sort(rev.begin(), rev.end());
  return fwd == rev;
}

}  // namespace

bool is_symmetric(const Csr& g) {
  if (!rows_ascending(g)) return is_symmetric_sorted_pairs(g);
  // Cursor walk: visiting sources in ascending order, the reverse entries
  // of row u arrive in ascending source order — exactly row u's own order
  // when the graph is symmetric. So each edge (v, u) must match the next
  // unmatched entry of row u. Every edge consuming a distinct entry of
  // the same total count makes the match a bijection onto the reversed
  // edges, multiplicities (parallel edges, self-loops) included.
  std::vector<EdgeId> cursor(g.row_offsets().begin(),
                             g.row_offsets().end() - 1);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    for (VertexId u : g.neighbors(v)) {
      EdgeId& next = cursor[u];
      if (next == g.row_end(u) || g.col_index(next) != v) return false;
      ++next;
    }
  return true;
}

}  // namespace grx
