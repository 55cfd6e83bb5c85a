// Unit tests for the graph subsystem: Multigraph, algorithms, collapse, io.

#include <gtest/gtest.h>

#include "netemu/graph/algorithms.hpp"
#include "netemu/graph/collapse.hpp"
#include "netemu/graph/io.hpp"
#include "netemu/graph/multigraph.hpp"

namespace netemu {
namespace {

Multigraph path_graph(std::size_t n) {
  MultigraphBuilder b(n);
  for (Vertex v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return std::move(b).build();
}

Multigraph cycle_graph(std::size_t n) {
  MultigraphBuilder b(n);
  for (Vertex v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  b.add_edge(static_cast<Vertex>(n - 1), 0);
  return std::move(b).build();
}

TEST(Multigraph, EmptyGraph) {
  Multigraph g = MultigraphBuilder(0).build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.total_multiplicity(), 0u);
}

TEST(Multigraph, BuilderMergesParallelInsertions) {
  MultigraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0, 2);  // reversed orientation merges too
  b.add_edge(1, 2);
  Multigraph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.total_multiplicity(), 4u);
  EXPECT_EQ(g.multiplicity(0, 1), 3u);
  EXPECT_EQ(g.multiplicity(1, 0), 3u);
  EXPECT_EQ(g.multiplicity(0, 2), 0u);
}

TEST(Multigraph, ZeroMultiplicityInsertionsAreDropped) {
  MultigraphBuilder b(2);
  b.add_edge(0, 1, 0);
  Multigraph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Multigraph, DegreesCountMultiplicity) {
  MultigraphBuilder b(3);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 1);
  Multigraph g = std::move(b).build();
  EXPECT_EQ(g.degree(0), 5u);
  EXPECT_EQ(g.degree(1), 6u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.max_degree(), 6u);
  EXPECT_EQ(g.min_degree(), 1u);
}

TEST(Multigraph, NeighborsAndArcEdgeIndices) {
  Multigraph g = path_graph(3);
  const auto nb = g.neighbors(1);
  ASSERT_EQ(nb.size(), 2u);
  for (const Arc& a : nb) {
    const Edge& e = g.edge(a.edge);
    EXPECT_TRUE((e.u == 1 && e.v == a.to) || (e.v == 1 && e.u == a.to));
  }
}

TEST(Multigraph, ArcsSortedByHeadAreChannelIds) {
  // Edges inserted in scrambled order and orientation: every vertex's arcs
  // still come out sorted by head, and arc_index finds each one's CSR slot.
  MultigraphBuilder b(6);
  b.add_edge(5, 0);
  b.add_edge(3, 1, 2);
  b.add_edge(0, 3);
  b.add_edge(4, 3);
  b.add_edge(1, 0);
  b.add_edge(3, 2);
  b.add_edge(3, 5);
  const Multigraph g = std::move(b).build();
  ASSERT_EQ(g.num_arcs(), 2 * g.num_edges());
  for (Vertex u = 0; u < 6; ++u) {
    const auto arcs = g.neighbors(u);
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(arcs[i - 1].to, arcs[i].to) << u;
      }
      const Channel c = g.arc_begin(u) + static_cast<Channel>(i);
      EXPECT_EQ(g.arc_index(u, arcs[i].to), c);
      EXPECT_EQ(&g.arc(c), &arcs[i]);
    }
    EXPECT_EQ(g.arc_begin(u + 1) - g.arc_begin(u), arcs.size());
  }
  EXPECT_EQ(g.arc_index(0, 2), kNoChannel);
  EXPECT_EQ(g.arc_index(4, 5), kNoChannel);
  EXPECT_EQ(g.multiplicity(1, 3), 2u);
  EXPECT_EQ(g.multiplicity(2, 4), 0u);
}

TEST(Multigraph, ScaledMultipliesEveryEdge) {
  Multigraph g = path_graph(4).scaled(3);
  EXPECT_EQ(g.total_multiplicity(), 9u);
  EXPECT_EQ(g.multiplicity(1, 2), 3u);
}

TEST(Multigraph, SimpleResetsMultiplicities) {
  MultigraphBuilder b(2);
  b.add_edge(0, 1, 7);
  Multigraph g = std::move(b).build().simple();
  EXPECT_EQ(g.multiplicity(0, 1), 1u);
}

TEST(Algorithms, BfsDistancesOnPath) {
  Multigraph g = path_graph(5);
  const auto d = bfs_distances(g, 0);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(d[i], i);
}

TEST(Algorithms, BfsDistancesDisconnected) {
  MultigraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  Multigraph g = std::move(b).build();
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_FALSE(is_connected(g));
}

TEST(Algorithms, ShortestPathEndpointsAndAdjacency) {
  Multigraph g = cycle_graph(8);
  const auto p = shortest_path(g, 1, 5);
  ASSERT_EQ(p.size(), 5u);  // distance 4 either way
  EXPECT_EQ(p.front(), 1u);
  EXPECT_EQ(p.back(), 5u);
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    EXPECT_GT(g.multiplicity(p[i], p[i + 1]), 0u);
  }
}

TEST(Algorithms, ShortestPathTrivial) {
  Multigraph g = path_graph(3);
  const auto p = shortest_path(g, 2, 2);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], 2u);
}

TEST(Algorithms, DiameterOfPathAndCycle) {
  EXPECT_EQ(diameter_exact(path_graph(10)), 9u);
  EXPECT_EQ(diameter_exact(cycle_graph(10)), 5u);
  EXPECT_EQ(diameter_exact(cycle_graph(11)), 5u);
}

TEST(Algorithms, DoubleSweepExactOnPath) {
  Prng rng(1);
  EXPECT_EQ(diameter_double_sweep(path_graph(17), rng), 16u);
}

TEST(Algorithms, DoubleSweepLowerBoundsDiameter) {
  Prng rng(2);
  const Multigraph g = cycle_graph(20);
  EXPECT_LE(diameter_double_sweep(g, rng), diameter_exact(g));
  EXPECT_GE(diameter_double_sweep(g, rng), diameter_exact(g) / 2);
}

TEST(Algorithms, AvgDistancePath3) {
  // Path 0-1-2: distances (0,1)=1 (0,2)=2 (1,2)=1 -> mean over ordered = 8/6.
  EXPECT_NEAR(avg_distance_exact(path_graph(3)), 8.0 / 6.0, 1e-12);
}

TEST(Algorithms, AvgDistanceSampledAgreesWithExact) {
  Prng rng(3);
  const Multigraph g = cycle_graph(64);
  const double exact = avg_distance_exact(g);
  const double sampled = avg_distance_sampled(g, rng, 64);  // all sources
  EXPECT_NEAR(sampled, exact, 1e-9);
}

TEST(Algorithms, EccentricityCenterVsEnd) {
  Multigraph g = path_graph(9);
  EXPECT_EQ(eccentricity(g, 4), 4u);
  EXPECT_EQ(eccentricity(g, 0), 8u);
}

TEST(Algorithms, DegreeStats) {
  const DegreeStats s = degree_stats(path_graph(4));
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 2u);
  EXPECT_NEAR(s.mean, 1.5, 1e-12);
}

TEST(Collapse, QuotientAndDroppedLoops) {
  // Path 0-1-2-3 collapsed into {0,1} and {2,3}.
  Multigraph g = path_graph(4);
  const CollapseResult r = collapse(g, {0, 0, 1, 1}, 2);
  EXPECT_EQ(r.quotient.num_vertices(), 2u);
  EXPECT_EQ(r.quotient.multiplicity(0, 1), 1u);
  EXPECT_EQ(r.dropped_loop_multiplicity, 2u);
  EXPECT_EQ(r.load[0], 2u);
  EXPECT_EQ(r.load[1], 2u);
}

TEST(Collapse, ParallelEdgesAccumulate) {
  // Cycle of 4 collapsed to two super-vertices of opposite corners.
  Multigraph g = cycle_graph(4);
  const CollapseResult r = collapse(g, {0, 1, 0, 1}, 2);
  EXPECT_EQ(r.quotient.multiplicity(0, 1), 4u);
  EXPECT_EQ(r.dropped_loop_multiplicity, 0u);
}

TEST(Io, EdgeListRoundTrip) {
  MultigraphBuilder b(5);
  b.add_edge(0, 4, 2);
  b.add_edge(1, 3);
  Multigraph g = std::move(b).build();
  const Multigraph g2 = from_edge_list(to_edge_list(g));
  EXPECT_EQ(g2.num_vertices(), 5u);
  EXPECT_EQ(g2.multiplicity(0, 4), 2u);
  EXPECT_EQ(g2.multiplicity(1, 3), 1u);
  EXPECT_EQ(g2.total_multiplicity(), g.total_multiplicity());
}

TEST(Io, RejectsMalformedEdgeList) {
  EXPECT_THROW(from_edge_list(""), std::invalid_argument);
  EXPECT_THROW(from_edge_list("3\n0 5 1\n"), std::invalid_argument);
  EXPECT_THROW(from_edge_list("3\n1 1 1\n"), std::invalid_argument);
}

TEST(Io, DotContainsEdges) {
  Multigraph g = path_graph(3);
  const std::string dot = to_dot(g, "P");
  EXPECT_NE(dot.find("graph P"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2"), std::string::npos);
}

}  // namespace
}  // namespace netemu
