// Edge-list graph representation (the input format for builders and the
// native format for Gunrock's edge-centric operators, e.g. MST's Borůvka
// rounds).
#pragma once

#include <vector>

#include "util/common.hpp"

namespace grx {

struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  Weight weight = 1;

  friend bool operator==(const Edge&, const Edge&) = default;
};

struct EdgeList {
  VertexId num_vertices = 0;
  std::vector<Edge> edges;

  std::size_t size() const { return edges.size(); }
};

}  // namespace grx
