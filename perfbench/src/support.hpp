// Measurement plumbing for the perfbench harness: a monotonic clock,
// sample sets with nearest-rank percentiles, an in-memory span recorder,
// the metric map printed as the result line, and an independent replay
// of the benchmark's own edge-update log (the per-epoch oracle graph).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/dynamic.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. With n = 1000, p99 leaves 10 samples above.
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

inline double median(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> s = xs;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/// The mean of the middle half of the samples (a quarter trimmed from
/// each end; at least one sample kept).
inline double interquartile_mean(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t cut = xs.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < xs.size() - cut; ++i) sum += xs[i];
  return sum / static_cast<double>(xs.size() - 2 * cut);
}

/// The median, over consecutive windows of about `window` samples (in the
/// order given), of each window's p-th percentile: a short stall moves one
/// window, not the figure.
inline double windowed_percentile(const std::vector<double>& xs,
                                  std::size_t window, double p) {
  const std::size_t windows = std::max<std::size_t>(1, xs.size() / window);
  std::vector<double> per;
  for (std::size_t k = 0; k < windows; ++k)
    per.push_back(percentile(
        std::vector<double>(xs.begin() + k * xs.size() / windows,
                            xs.begin() + (k + 1) * xs.size() / windows),
        p));
  return median(per);
}

/// 64-bit FNV-1a over a result vector's bytes (and its length). Sampled
/// served results are kept as this digest, not as copies, so the check
/// adds next to nothing to the process's memory.
inline std::uint64_t digest(const std::vector<std::uint32_t>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (std::uint32_t x : xs)
    for (int b = 0; b < 32; b += 8) mix((x >> b) & 0xffU);
  const auto n = static_cast<std::uint64_t>(xs.size());
  for (int b = 0; b < 64; b += 8) mix((n >> b) & 0xffU);
  return h;
}

/// One timed interval at a layer boundary. `query` is shared by every span
/// of one served request (0 for spans outside a request); `parent` is the
/// id of the enclosing span (0 for a root).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t query = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans held in memory for one thread and written out at the end. Ids are
/// unique across recorders: each recorder owns a disjoint id range.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t id_base) : base_(id_base) {}

  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::uint64_t query, std::int64_t start_ns,
                    std::int64_t end_ns) {
    spans_.push_back({name, base_ + spans_.size() + 1, parent, query,
                      start_ns, end_ns});
    return spans_.back().id;
  }

  /// A span whose end is not known yet (its children are recorded first).
  std::uint64_t open(const char* name, std::uint64_t parent,
                     std::uint64_t query, std::int64_t start_ns) {
    return add(name, parent, query, start_ns, start_ns);
  }
  void close(std::uint64_t id, std::int64_t end_ns) {
    spans_[id - base_ - 1].end_ns = end_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::uint64_t base_;
  std::vector<Span> spans_;
};

/// The result line's metric map: name -> (value, unit), printed sorted.
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    values_[name] = {std::isfinite(value) ? value : 0.0, unit};
  }

  std::string json() const {
    std::string out = "{";
    bool first = true;
    char buf[64];
    for (const auto& [name, vu] : values_) {
      if (!first) out += ", ";
      first = false;
      std::snprintf(buf, sizeof buf, "%.17g", vu.first);
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             vu.second + "\"}";
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// The benchmark's own model of the mutable graph, kept apart from
/// grx::DynamicGraph so the per-epoch oracle does not share its code:
/// per-vertex sorted (dst, weight) lists with the documented update
/// semantics — insert upserts, delete removes, both applied in each
/// direction of an undirected graph.
class ReplayGraph {
 public:
  explicit ReplayGraph(const grx::Csr& base) : adj_(base.num_vertices()) {
    for (grx::VertexId u = 0; u < base.num_vertices(); ++u) {
      const auto nbrs = base.neighbors(u);
      const auto ws = base.edge_weights(u);
      auto& row = adj_[u];
      row.reserve(nbrs.size());
      for (std::size_t i = 0; i < nbrs.size(); ++i)
        row.emplace_back(nbrs[i], ws[i]);
      std::sort(row.begin(), row.end());
    }
  }

  void apply(const std::vector<grx::EdgeUpdate>& batch) {
    for (const grx::EdgeUpdate& u : batch) {
      apply_one(u.src, u.dst, u.weight, u.insert);
      if (u.src != u.dst) apply_one(u.dst, u.src, u.weight, u.insert);
    }
  }

  grx::Csr csr() const {
    const auto n = static_cast<grx::VertexId>(adj_.size());
    std::vector<grx::EdgeId> offsets(n + 1, 0);
    for (grx::VertexId u = 0; u < n; ++u)
      offsets[u + 1] = offsets[u] + adj_[u].size();
    std::vector<grx::VertexId> cols;
    std::vector<grx::Weight> ws;
    cols.reserve(offsets[n]);
    ws.reserve(offsets[n]);
    for (const auto& row : adj_) {
      for (const auto& [v, w] : row) {
        cols.push_back(v);
        ws.push_back(w);
      }
    }
    return grx::Csr(n, std::move(offsets), std::move(cols), std::move(ws));
  }

 private:
  void apply_one(grx::VertexId u, grx::VertexId v, grx::Weight w,
                 bool insert) {
    auto& row = adj_[u];
    auto it = std::lower_bound(
        row.begin(), row.end(), v,
        [](const std::pair<grx::VertexId, grx::Weight>& e, grx::VertexId d) {
          return e.first < d;
        });
    const bool present = it != row.end() && it->first == v;
    if (insert) {
      if (present) {
        it->second = w;
      } else {
        row.insert(it, {v, w});
      }
    } else if (present) {
      row.erase(it);
    }
  }

  std::vector<std::vector<std::pair<grx::VertexId, grx::Weight>>> adj_;
};

}  // namespace perfbench
