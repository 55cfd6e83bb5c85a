#pragma once
// Undirected multigraph with integer edge multiplicities.
//
// This is the single graph type of the paper: a *network multigraph* when
// vertices are processors and edges are wires, and a *communication / traffic
// multigraph* when edges are messages with multiplicity equal to relative
// frequency.  E(G) — the paper's "number of simple edges" — is the sum of
// multiplicities over all edges.
//
// Multigraph is immutable after construction; build with MultigraphBuilder.
// Storage is CSR (offset array + arc array) so neighbor scans are contiguous,
// which matters for the BFS-heavy kernels (all-pairs witnesses, routing).
// Each vertex's arcs are sorted by head.  An arc's index in the CSR is its
// *channel* id: one direction of an edge, the numbering routers emit and
// the packet simulator runs on.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace netemu {

using Vertex = std::uint32_t;
inline constexpr Vertex kNoVertex = static_cast<Vertex>(-1);

/// Channel id: an arc's index in Multigraph's CSR.  The channels leaving v
/// are arc_begin(v) .. arc_begin(v + 1) - 1, in neighbors(v) order.
using Channel = std::uint32_t;
inline constexpr Channel kNoChannel = static_cast<Channel>(-1);

/// One undirected edge in canonical (u < v) orientation.
struct Edge {
  Vertex u = 0;
  Vertex v = 0;
  std::uint32_t mult = 1;
};

/// One direction of an edge as seen from a vertex's adjacency list.
struct Arc {
  Vertex to = 0;
  std::uint32_t mult = 1;
  std::uint32_t edge = 0;  ///< index into edges()
};

class Multigraph {
 public:
  Multigraph() = default;

  std::size_t num_vertices() const noexcept { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// Number of distinct vertex pairs with at least one edge.
  std::size_t num_edges() const noexcept { return edges_.size(); }

  /// E(G): total edge multiplicity (the paper's "simple edges").
  std::uint64_t total_multiplicity() const noexcept { return total_mult_; }

  /// Degree counting multiplicities.
  std::uint64_t degree(Vertex v) const noexcept { return degree_[v]; }

  /// Number of distinct neighbors.
  std::size_t num_neighbors(Vertex v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  /// v's arcs, sorted by head.
  std::span<const Arc> neighbors(Vertex v) const noexcept {
    return {arcs_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Number of channels: two per distinct vertex pair.
  std::size_t num_arcs() const noexcept { return arcs_.size(); }

  /// Channel id of v's first arc.
  Channel arc_begin(Vertex v) const noexcept {
    return static_cast<Channel>(offsets_[v]);
  }

  const Arc& arc(Channel c) const noexcept { return arcs_[c]; }

  /// Channel u -> v, kNoChannel if the pair has no edge.  O(lg deg(u)):
  /// a binary search of u's arcs, inline because routers call it per hop.
  Channel arc_index(Vertex u, Vertex v) const noexcept {
    const Arc* const first = arcs_.data() + offsets_[u];
    const Arc* const last = arcs_.data() + offsets_[u + 1];
    const Arc* const it = std::lower_bound(
        first, last, v, [](const Arc& a, Vertex head) { return a.to < head; });
    if (it == last || it->to != v) return kNoChannel;
    return static_cast<Channel>(it - arcs_.data());
  }

  std::span<const Edge> edges() const noexcept { return edges_; }
  const Edge& edge(std::uint32_t e) const noexcept { return edges_[e]; }

  std::uint64_t max_degree() const noexcept;
  std::uint64_t min_degree() const noexcept;

  /// Multiplicity of the (u, v) pair, 0 if absent.  O(lg deg(u)).
  std::uint32_t multiplicity(Vertex u, Vertex v) const noexcept;

  /// The paper's xG: every multiplicity scaled by x.
  Multigraph scaled(std::uint32_t x) const;

  /// Same vertex set and edge pairs, all multiplicities forced to 1.
  Multigraph simple() const;

 private:
  friend class MultigraphBuilder;

  std::vector<std::size_t> offsets_;   // n+1
  std::vector<Arc> arcs_;              // 2 * num_edges()
  std::vector<Edge> edges_;            // canonical u < v
  std::vector<std::uint64_t> degree_;  // weighted degree per vertex
  std::uint64_t total_mult_ = 0;
};

/// Accumulating builder: add_edge on the same pair sums multiplicities.
class MultigraphBuilder {
 public:
  explicit MultigraphBuilder(std::size_t num_vertices)
      : n_(num_vertices) {}

  std::size_t num_vertices() const noexcept { return n_; }

  /// Self-loops are rejected: the paper's machines have none, and collapse()
  /// accounts for loops explicitly before reaching the builder.
  void add_edge(Vertex u, Vertex v, std::uint32_t mult = 1) {
    assert(u != v && "self-loops are not representable");
    assert(u < n_ && v < n_);
    if (u > v) std::swap(u, v);
    raw_.push_back(Edge{u, v, mult});
  }

  /// Deduplicates, sorts, and freezes into CSR form.  Edges are sorted by
  /// (u, v) with u < v, so every vertex's arcs come out sorted by head.
  Multigraph build() &&;

 private:
  std::size_t n_;
  std::vector<Edge> raw_;
};

}  // namespace netemu
