// Focused tests for paths the broader suites exercise only incidentally:
// cache behavior, option plumbing, degenerate sizes, and output formats.

#include <gtest/gtest.h>

#include <numeric>

#include "netemu/bandwidth/empirical.hpp"
#include "netemu/graph/io.hpp"
#include "netemu/routing/bfs_router.hpp"
#include "netemu/routing/throughput.hpp"
#include "netemu/topology/factory.hpp"
#include "netemu/topology/generators.hpp"
#include "netemu/util/table.hpp"

namespace netemu {
namespace {

std::vector<Vertex> iota_procs(std::size_t n) {
  std::vector<Vertex> p(n);
  std::iota(p.begin(), p.end(), 0u);
  return p;
}

TEST(BfsRouterCache, PastBudgetRoutesMatchUnbounded) {
  Prng rng(1);
  const Machine m = make_ccc(4);  // 64 vertices
  // Budget for exactly one distance field: 64 entries * 2 bytes.  One
  // destination keeps its field; every other one is recomputed per route.
  BfsRouter bounded(m, true, 64 * sizeof(std::uint16_t));
  BfsRouter unbounded(m, true);
  for (int round = 0; round < 2; ++round) {
    for (Vertex dst = 0; dst < 16; ++dst) {
      const Vertex src = (7 * dst + 13 * round + 1) % 64;
      Prng same = rng;
      const auto path = bounded.route(src, dst, rng);
      EXPECT_TRUE(path_is_valid(m.graph, path, src, dst));
      EXPECT_EQ(path, unbounded.route(src, dst, same)) << src << "->" << dst;
    }
  }
}

TEST(BfsRouterCache, ThrowsOnUnreachable) {
  Prng rng(2);
  MultigraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  Machine m;
  m.graph = std::move(b).build();
  BfsRouter router(m);
  EXPECT_THROW(router.route(0, 3, rng), std::runtime_error);
}

TEST(Throughput, GrowsBatchUntilMakespanFloor) {
  Prng rng(3);
  const Machine m = make_hypercube(6);  // fast machine, tiny batches drain
  const auto traffic = TrafficDistribution::symmetric(iota_procs(64));
  const auto router = make_default_router(m);
  ThroughputOptions opt;
  opt.messages_per_processor = 1;
  opt.min_makespan = 200;
  opt.trials = 1;
  const ThroughputResult r = measure_throughput(m, *router, traffic, rng, opt);
  // The meter must have grown the batch well past 64 messages.
  EXPECT_GE(r.messages, 2048u);
  EXPECT_GE(r.last.makespan, 200u);
}

TEST(Throughput, RespectsMaxMessagesCap) {
  Prng rng(4);
  const Machine m = make_hypercube(5);
  const auto traffic = TrafficDistribution::symmetric(iota_procs(32));
  const auto router = make_default_router(m);
  ThroughputOptions opt;
  opt.messages_per_processor = 1;
  opt.min_makespan = 1u << 30;  // unreachable floor
  opt.max_messages = 2048;
  opt.trials = 1;
  const ThroughputResult r = measure_throughput(m, *router, traffic, rng, opt);
  EXPECT_EQ(r.messages, 2048u);
}

TEST(MeasureBeta, WeakCapsTightenFluxBound) {
  Prng rng(5);
  const Machine weak = make_hypercube(6);
  Machine strong = weak;
  strong.forward_cap.clear();
  BetaMeasureOptions opt;
  opt.throughput.trials = 1;
  const BetaBounds bw = measure_beta(weak, rng, opt);
  const BetaBounds bs = measure_beta(strong, rng, opt);
  // Same wires, same cut — but the weak flux bound counts node ports.
  EXPECT_EQ(bw.cut_upper, bs.cut_upper);
  EXPECT_LT(bw.flux_upper, bs.flux_upper);
}

TEST(Table, PadsShortRowsAndGrowsWide) {
  Table t({"a"});
  t.add_row({"1", "2", "3"});
  t.add_row({});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| 1 | 2 | 3 |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Dot, MultiplicityLabels) {
  MultigraphBuilder b(2);
  b.add_edge(0, 1, 4);
  const std::string dot = to_dot(std::move(b).build());
  EXPECT_NE(dot.find("[label=\"x4\"]"), std::string::npos);
}

TEST(Factory, DimensionalFamiliesHonorK) {
  Prng rng(6);
  for (unsigned k = 1; k <= 3; ++k) {
    const Machine m = make_machine(Family::kMesh, 512, k, rng);
    EXPECT_EQ(m.dims, k);
    EXPECT_EQ(m.shape.size(), k);
  }
}

TEST(Factory, TinyTargetsStillLegal) {
  Prng rng(7);
  for (Family f : all_families()) {
    const Machine m = make_machine(f, 8, 2, rng);
    EXPECT_GE(m.graph.num_vertices(), 2u) << family_name(f);
  }
}

TEST(Machine, ProcessorAccessorsAgree) {
  Prng rng(8);
  const Machine bus = make_global_bus(5);
  EXPECT_EQ(bus.num_processors(), 5u);
  EXPECT_EQ(bus.processor(2), 2u);
  const Machine mesh = make_mesh({3, 3});
  EXPECT_EQ(mesh.num_processors(), 9u);
  EXPECT_EQ(mesh.processor(7), 7u);  // identity when processors empty
}

TEST(Simple, DropIsolatedMultiplicitySemantics) {
  // scaled() then simple() round-trips the support.
  MultigraphBuilder b(3);
  b.add_edge(0, 1, 2);
  b.add_edge(1, 2, 5);
  const Multigraph g = std::move(b).build();
  const Multigraph s = g.scaled(7).simple();
  EXPECT_EQ(s.num_edges(), g.num_edges());
  EXPECT_EQ(s.total_multiplicity(), 2u);
}

TEST(PacketSim, RandomArbitrationIsSeedDeterministic) {
  Prng rng1(99), rng2(99);
  const Machine m = make_mesh({4, 4});
  const auto router = make_default_router(m);
  std::vector<std::vector<Vertex>> paths;
  Prng prng(5);
  for (int i = 0; i < 200; ++i) {
    const Vertex u = static_cast<Vertex>(prng.below(16));
    Vertex v = static_cast<Vertex>(prng.below(16));
    if (u == v) v = (v + 1) % 16;
    paths.push_back(router->route(u, v, prng));
  }
  PacketSimulator sim(m, Arbitration::kRandom);
  const BatchStats a = sim.run_batch(paths, rng1);
  const BatchStats b = sim.run_batch(paths, rng2);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
}

TEST(QuasiSymmetric, DeterministicUnderSubsetSeed) {
  const auto d1 =
      TrafficDistribution::quasi_symmetric(iota_procs(32), 0.4, 1234);
  const auto d2 =
      TrafficDistribution::quasi_symmetric(iota_procs(32), 0.4, 1234);
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = 0; j < 32; ++j) {
      if (i != j) {
        EXPECT_EQ(d1.pair_allowed(i, j), d2.pair_allowed(i, j));
      }
    }
  }
}

TEST(Generators, MinimumSizes) {
  // The smallest legal instance of each parametric generator stands up.
  EXPECT_EQ(make_linear_array(1).graph.num_vertices(), 1u);
  EXPECT_EQ(make_ring(3).graph.num_edges(), 3u);
  EXPECT_EQ(make_tree(1).graph.num_vertices(), 3u);
  EXPECT_EQ(make_x_tree(1).graph.num_edges(), 3u);
  EXPECT_EQ(make_mesh({2}).graph.num_edges(), 1u);
  EXPECT_EQ(make_butterfly(1).graph.num_vertices(), 4u);
  EXPECT_EQ(make_debruijn(2).graph.num_vertices(), 4u);
  EXPECT_EQ(make_ccc(2).graph.num_vertices(), 8u);
  EXPECT_EQ(make_hypercube(1).graph.num_edges(), 1u);
  EXPECT_EQ(make_mesh_of_trees(1, 2).graph.num_vertices(), 3u);
  EXPECT_EQ(make_multigrid(1, 2).graph.num_vertices(), 3u);
  EXPECT_EQ(make_pyramid(1, 2).graph.num_vertices(), 3u);
}

TEST(Generators, PyramidVsMultigridDiffer) {
  // Same vertex count, different wiring: the pyramid links every fine cell
  // to a parent; the multigrid only the corner cells.
  const Machine p = make_pyramid(2, 8);
  const Machine m = make_multigrid(2, 8);
  EXPECT_EQ(p.graph.num_vertices(), m.graph.num_vertices());
  EXPECT_GT(p.graph.num_edges(), m.graph.num_edges());
}

TEST(WeakPPN, RootSerializesPrefixTraffic) {
  Prng rng(9);
  const Machine m = make_weak_ppn(4);
  const auto traffic = TrafficDistribution::symmetric(m.processors);
  const auto router = make_default_router(m);
  ThroughputOptions opt;
  opt.trials = 1;
  const double rate = measure_throughput(m, *router, traffic, rng, opt).rate;
  // Θ(1): the root edge pair bounds everything.
  EXPECT_LT(rate, 6.0);
  EXPECT_GT(rate, 0.5);
}

}  // namespace
}  // namespace netemu
