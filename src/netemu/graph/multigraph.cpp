#include "netemu/graph/multigraph.hpp"

#include <algorithm>
#include <stdexcept>

namespace netemu {

std::uint64_t Multigraph::max_degree() const noexcept {
  std::uint64_t m = 0;
  for (std::uint64_t d : degree_) m = std::max(m, d);
  return m;
}

std::uint64_t Multigraph::min_degree() const noexcept {
  if (degree_.empty()) return 0;
  std::uint64_t m = degree_[0];
  for (std::uint64_t d : degree_) m = std::min(m, d);
  return m;
}

std::uint32_t Multigraph::multiplicity(Vertex u, Vertex v) const noexcept {
  const Channel c = arc_index(u, v);
  return c == kNoChannel ? 0 : arcs_[c].mult;
}

Multigraph Multigraph::scaled(std::uint32_t x) const {
  MultigraphBuilder b(num_vertices());
  for (const Edge& e : edges_) {
    b.add_edge(e.u, e.v, e.mult * x);
  }
  return std::move(b).build();
}

Multigraph Multigraph::simple() const {
  MultigraphBuilder b(num_vertices());
  for (const Edge& e : edges_) {
    b.add_edge(e.u, e.v, 1);
  }
  return std::move(b).build();
}

Multigraph MultigraphBuilder::build() && {
  // Merge parallel insertions of the same pair.
  std::sort(raw_.begin(), raw_.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  std::vector<Edge> merged;
  merged.reserve(raw_.size());
  for (const Edge& e : raw_) {
    if (e.mult == 0) continue;
    if (!merged.empty() && merged.back().u == e.u && merged.back().v == e.v) {
      merged.back().mult += e.mult;
    } else {
      merged.push_back(e);
    }
  }

  Multigraph g;
  g.edges_ = std::move(merged);
  g.degree_.assign(n_, 0);
  g.offsets_.assign(n_ + 1, 0);

  std::vector<std::size_t> fanout(n_, 0);
  for (const Edge& e : g.edges_) {
    ++fanout[e.u];
    ++fanout[e.v];
    g.degree_[e.u] += e.mult;
    g.degree_[e.v] += e.mult;
    g.total_mult_ += e.mult;
  }
  for (std::size_t v = 0; v < n_; ++v) {
    g.offsets_[v + 1] = g.offsets_[v] + fanout[v];
  }
  g.arcs_.resize(g.offsets_[n_]);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (std::uint32_t i = 0; i < g.edges_.size(); ++i) {
    const Edge& e = g.edges_[i];
    g.arcs_[cursor[e.u]++] = Arc{e.v, e.mult, i};
    g.arcs_[cursor[e.v]++] = Arc{e.u, e.mult, i};
  }
  return g;
}

}  // namespace netemu
