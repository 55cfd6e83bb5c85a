// Golden-value and differential regression tests for the packet simulator.
//
// Every rewrite of PacketSimulator::run_batch is required to be
// bit-identical to the original per-tick-allocation implementation: same
// paths + same seed must give the same BatchStats.  Two tests pin that
// contract down: recorded goldens on real machine shapes, and a naive
// reference simulator compared on hundreds of seeded random multigraphs.
//
// Also covered here: prepare()-vs-append() equivalence (the route-reuse
// path of batch doubling), thread-count invariance of the parallel trial
// loop in measure_throughput, and recorded plan_query answers for every
// router, which pin each router's walks and rng draws end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "netemu/routing/bfs_router.hpp"
#include "netemu/routing/packet_sim.hpp"
#include "netemu/routing/throughput.hpp"
#include "netemu/service/planner.hpp"
#include "netemu/topology/generators.hpp"
#include "netemu/util/hash.hpp"
#include "netemu/util/prng.hpp"
#include "netemu/util/thread_pool.hpp"

namespace netemu {
namespace {

// Exactly the path-generation scheme the goldens were captured with: a
// spreading BFS router over a dedicated Prng, 4n random (src, dst) pairs.
std::vector<std::vector<Vertex>> golden_paths(const Machine& m,
                                              std::size_t count,
                                              std::uint64_t seed) {
  Prng rng(seed);
  BfsRouter router(m, /*spread=*/true);
  const std::size_t n = m.graph.num_vertices();
  std::vector<std::vector<Vertex>> paths;
  paths.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Vertex src = static_cast<Vertex>(rng.below(n));
    const Vertex dst = static_cast<Vertex>(rng.below(n));
    paths.push_back(router.route(src, dst, rng));
  }
  return paths;
}

struct GoldenRow {
  const char* topology;
  Arbitration arbitration;
  bool capped;  // forward_cap = 1 on every node; false = the machine's own
  std::uint64_t makespan;
  std::uint64_t delivered;
  std::uint64_t total_hops;
  std::uint64_t static_congestion;
  double avg_latency;
};

// Captured from the pre-rewrite simulator at commit 42ecf76 (paths: scheme
// above with seed 12345; simulation rng seed 777 per run).  The fattree4
// (multi-wire channels), hypercube5 (weak: forward_cap 1 everywhere),
// bus16 (hub forward_cap 1, leaves unlimited) and linear16 rows were
// captured the same way from the counting-sort simulator that preceded the
// queue kernel.
const GoldenRow kGolden[] = {
    {"mesh8x8", Arbitration::kFarthestFirst, false, 17, 256, 1342, 17,
     8.97265625},
    {"mesh8x8", Arbitration::kFifo, false, 22, 256, 1342, 17, 8.33984375},
    {"mesh8x8", Arbitration::kRandom, false, 21, 256, 1342, 17, 8.14453125},
    {"mesh8x8", Arbitration::kFarthestFirst, true, 50, 256, 1342, 17,
     25.02734375},
    {"mesh8x8", Arbitration::kFifo, true, 54, 256, 1342, 17, 19.5546875},
    {"mesh8x8", Arbitration::kRandom, true, 57, 256, 1342, 17, 19.21484375},
    {"butterfly3", Arbitration::kFarthestFirst, false, 16, 128, 436, 16,
     5.9453125},
    {"butterfly3", Arbitration::kFifo, false, 18, 128, 436, 16, 5.5703125},
    {"butterfly3", Arbitration::kRandom, false, 17, 128, 436, 16, 5.5859375},
    {"butterfly3", Arbitration::kFarthestFirst, true, 29, 128, 436, 16,
     15.578125},
    {"butterfly3", Arbitration::kFifo, true, 31, 128, 436, 16, 11.78125},
    {"butterfly3", Arbitration::kRandom, true, 29, 128, 436, 16, 11.671875},
    {"tree5", Arbitration::kFarthestFirst, false, 62, 252, 1618, 61,
     31.769841269841269},
    {"tree5", Arbitration::kFifo, false, 66, 252, 1618, 61,
     26.734126984126984},
    {"tree5", Arbitration::kRandom, false, 66, 252, 1618, 61,
     26.793650793650794},
    {"tree5", Arbitration::kFarthestFirst, true, 156, 252, 1618, 61,
     86.678571428571431},
    {"tree5", Arbitration::kFifo, true, 159, 252, 1618, 61,
     66.523809523809518},
    {"tree5", Arbitration::kRandom, true, 160, 252, 1618, 61,
     66.376984126984127},
    {"fattree4", Arbitration::kFarthestFirst, false, 10, 124, 619, 32,
     5.685483870967742},
    {"fattree4", Arbitration::kFifo, false, 12, 124, 619, 32,
     5.637096774193548},
    {"fattree4", Arbitration::kRandom, false, 12, 124, 619, 32,
     5.629032258064516},
    {"hypercube5", Arbitration::kFarthestFirst, false, 18, 128, 328, 6,
     9.2578125},
    {"hypercube5", Arbitration::kFifo, false, 18, 128, 328, 6, 7.75},
    {"hypercube5", Arbitration::kRandom, false, 20, 128, 328, 6, 7.390625},
    {"bus16", Arbitration::kFarthestFirst, false, 57, 68, 115, 8,
     24.661764705882351},
    {"bus16", Arbitration::kFifo, false, 57, 68, 115, 8, 24.5},
    {"bus16", Arbitration::kRandom, false, 57, 68, 115, 8, 24.5},
    {"linear16", Arbitration::kFarthestFirst, false, 23, 64, 402, 23,
     12.40625},
    {"linear16", Arbitration::kFifo, false, 30, 64, 402, 23, 11.140625},
    {"linear16", Arbitration::kRandom, false, 28, 64, 402, 23, 10.9375},
};

Machine golden_machine(const std::string& name) {
  if (name == "mesh8x8") return make_mesh({8, 8});
  if (name == "butterfly3") return make_butterfly(3);
  if (name == "fattree4") return make_fat_tree(4);
  if (name == "hypercube5") return make_hypercube(5);
  if (name == "bus16") return make_global_bus(16);
  if (name == "linear16") return make_linear_array(16);
  return make_tree(5);
}

TEST(SimGolden, BatchStatsMatchPreRewriteSimulator) {
  // Build each topology's paths once; the goldens reuse them across the
  // capped/uncapped and arbitration variants (exactly as captured).
  std::string built_for;
  std::vector<std::vector<Vertex>> paths;
  for (const GoldenRow& row : kGolden) {
    Machine m = golden_machine(row.topology);
    const std::size_t n = m.graph.num_vertices();
    if (built_for != row.topology) {
      paths = golden_paths(m, 4 * n, 12345);
      built_for = row.topology;
    }
    if (row.capped) m.forward_cap.assign(n, 1);

    PacketSimulator sim(m, row.arbitration);
    Prng rng(777);
    const BatchStats s = sim.run_batch(paths, rng);
    SCOPED_TRACE(std::string(row.topology) + "/" +
                 arbitration_name(row.arbitration) +
                 (row.capped ? "/capped" : "/uncapped"));
    EXPECT_EQ(s.makespan, row.makespan);
    EXPECT_EQ(s.delivered, row.delivered);
    EXPECT_EQ(s.total_hops, row.total_hops);
    EXPECT_EQ(s.static_congestion, row.static_congestion);
    EXPECT_DOUBLE_EQ(s.avg_latency, row.avg_latency);
  }
}

TEST(SimGolden, PrepareAndAppendAgree) {
  const Machine m = make_mesh({8, 8});
  const auto paths = golden_paths(m, 4 * m.graph.num_vertices(), 12345);
  PacketSimulator sim(m);

  const auto prepared = sim.prepare(paths);

  // Append path-by-path (the batch-doubling top-up route) and via a split
  // prefix + suffix; both must match prepare() on every observable.
  PacketSimulator::PreparedBatch grown;
  grown = sim.prepare({});
  for (const auto& p : paths) sim.append(grown, p);
  EXPECT_EQ(grown.size(), prepared.size());
  EXPECT_EQ(grown.total_hops(), prepared.total_hops());
  EXPECT_EQ(grown.static_congestion(), prepared.static_congestion());

  auto half = sim.prepare(std::vector<std::vector<Vertex>>(
      paths.begin(), paths.begin() + static_cast<long>(paths.size() / 2)));
  for (std::size_t i = paths.size() / 2; i < paths.size(); ++i) {
    sim.append(half, paths[i]);
  }
  EXPECT_EQ(half.size(), prepared.size());
  EXPECT_EQ(half.static_congestion(), prepared.static_congestion());

  Prng rng_a(777), rng_b(777), rng_c(777);
  const BatchStats a = sim.run_batch(prepared, rng_a);
  const BatchStats b = sim.run_batch(grown, rng_b);
  const BatchStats c = sim.run_batch(half, rng_c);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(SimGolden, AppendChannelsMatchesVertexAppend) {
  // The hot path (route_channels + append_channels) builds the same batch
  // as flattening the vertex walks of the same draws.
  const Machine m = make_mesh({8, 8});
  const std::size_t n = m.graph.num_vertices();
  const auto paths = golden_paths(m, 4 * n, 12345);
  PacketSimulator sim(m);
  const auto prepared = sim.prepare(paths);

  Prng rng(12345);
  BfsRouter router(m, /*spread=*/true);
  PacketSimulator::PreparedBatch batch;
  std::vector<Channel> channels;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const Vertex src = static_cast<Vertex>(rng.below(n));
    const Vertex dst = static_cast<Vertex>(rng.below(n));
    channels.clear();
    router.route_channels(src, dst, rng, channels);
    sim.append_channels(batch, channels);
  }
  EXPECT_EQ(batch.size(), prepared.size());
  EXPECT_EQ(batch.total_hops(), prepared.total_hops());
  EXPECT_EQ(batch.static_congestion(), prepared.static_congestion());
  Prng rng_a(777), rng_b(777);
  EXPECT_EQ(sim.run_batch(batch, rng_a), sim.run_batch(prepared, rng_b));
}

TEST(SimGolden, RunBatchIsSeedDeterministic) {
  // Same prepared batch + same seed => identical stats, including the
  // random arbitration policy (whose keys come from the passed rng).
  const Machine m = make_butterfly(3);
  const auto paths = golden_paths(m, 4 * m.graph.num_vertices(), 4242);
  for (const Arbitration a :
       {Arbitration::kFarthestFirst, Arbitration::kFifo,
        Arbitration::kRandom}) {
    PacketSimulator sim(m, a);
    const auto batch = sim.prepare(paths);
    Prng r1(9), r2(9);
    EXPECT_EQ(sim.run_batch(batch, r1), sim.run_batch(batch, r2));
  }
}

// --------------------------------------------------------------------------
// Differential test against a naive reference simulator.

// The model of packet_sim.hpp, one tick at a time and nothing clever: every
// undelivered message requests its next channel, each channel keeps its
// `multiplicity` best requests, each node with a finite forward_cap keeps
// that many of its channels' winners, and the survivors advance.  "Best" is
// the policy's strict order: more hops left (farthest-first), the drawn key
// (random) or nothing (fifo), ties to the smaller message index.
BatchStats reference_run(const Machine& m, Arbitration arb,
                         const std::vector<std::vector<Vertex>>& paths,
                         Prng& rng) {
  using Channel = std::pair<Vertex, Vertex>;
  const std::size_t count = paths.size();
  std::vector<std::uint32_t> key(count, 0);
  if (arb == Arbitration::kRandom) {
    for (auto& k : key) k = static_cast<std::uint32_t>(rng());
  }
  std::vector<std::size_t> left(count);  // hops still to go
  BatchStats s;
  s.delivered = count;
  std::map<Channel, std::uint64_t> load;
  std::size_t undelivered = 0;
  for (std::size_t i = 0; i < count; ++i) {
    left[i] = paths[i].empty() ? 0 : paths[i].size() - 1;
    s.total_hops += left[i];
    if (left[i] > 0) ++undelivered;
    for (std::size_t j = 0; j < left[i]; ++j) {
      s.static_congestion = std::max(
          s.static_congestion, ++load[Channel{paths[i][j], paths[i][j + 1]}]);
    }
  }
  const auto before = [&](std::size_t a, std::size_t b) {
    if (arb == Arbitration::kFarthestFirst && left[a] != left[b]) {
      return left[a] > left[b];
    }
    if (arb == Arbitration::kRandom && key[a] != key[b]) {
      return key[a] < key[b];
    }
    return a < b;
  };
  std::uint64_t latency_sum = 0;
  for (std::uint64_t tick = 1; undelivered > 0; ++tick) {
    std::map<Channel, std::vector<std::size_t>> by_channel;
    for (std::size_t i = 0; i < count; ++i) {
      if (left[i] == 0) continue;
      const std::size_t at = paths[i].size() - 1 - left[i];
      by_channel[Channel{paths[i][at], paths[i][at + 1]}].push_back(i);
    }
    std::map<Vertex, std::vector<std::size_t>> by_node;
    for (auto& [ch, req] : by_channel) {
      std::sort(req.begin(), req.end(), before);
      req.resize(std::min<std::size_t>(
          req.size(), m.graph.multiplicity(ch.first, ch.second)));
      by_node[ch.first].insert(by_node[ch.first].end(), req.begin(),
                               req.end());
    }
    std::vector<std::size_t> winners;
    for (auto& [v, req] : by_node) {
      std::sort(req.begin(), req.end(), before);
      if (!m.forward_cap.empty() && m.forward_cap[v] != kUnlimitedForward) {
        req.resize(std::min<std::size_t>(req.size(), m.forward_cap[v]));
      }
      winners.insert(winners.end(), req.begin(), req.end());
    }
    for (const std::size_t i : winners) {  // advance only after selection
      if (--left[i] > 0) continue;
      latency_sum += tick;
      s.makespan = tick;
      --undelivered;
    }
  }
  s.avg_latency = count == 0 ? 0.0
                             : static_cast<double>(latency_sum) /
                                   static_cast<double>(count);
  return s;
}

struct DiffCase {
  Machine machine;
  std::vector<std::vector<Vertex>> paths;
};

// Seeded random multigraphs: edge multiplicities 1-3, per-node forward_cap
// from {1, 2, 3, unlimited}, random-walk paths (revisits allowed) with
// zero-hop and empty paths, light and heavy batches.  One case in three is
// all single wires with no node caps, the unit-capacity machines that
// dominate real use.
std::vector<DiffCase> differential_cases() {
  Prng gen(20260517);
  const std::uint32_t caps[] = {1, 2, 3, kUnlimitedForward};
  std::vector<DiffCase> cases(240);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const bool unit = c % 3 == 0;
    const std::size_t n = 2 + gen.below(9);
    MultigraphBuilder b(n);
    std::set<std::pair<Vertex, Vertex>> edges;
    const auto add = [&](Vertex u, Vertex v) {
      if (u == v || !edges.insert({std::min(u, v), std::max(u, v)}).second) {
        return;
      }
      b.add_edge(u, v, unit ? 1 : 1 + static_cast<std::uint32_t>(gen.below(3)));
    };
    for (Vertex v = 1; v < n; ++v) add(static_cast<Vertex>(gen.below(v)), v);
    for (std::size_t e = gen.below(2 * n); e > 0; --e) {
      add(static_cast<Vertex>(gen.below(n)), static_cast<Vertex>(gen.below(n)));
    }
    Machine& m = cases[c].machine;
    m.graph = std::move(b).build();
    if (!unit && gen.below(4) != 0) {
      m.forward_cap.resize(n);
      for (auto& cap : m.forward_cap) cap = caps[gen.below(4)];
    }

    auto& paths = cases[c].paths;
    paths.resize(1 + gen.below(gen.below(2) ? 8 : 400));
    for (auto& p : paths) {
      if (gen.below(16) == 0) continue;  // empty path: zero hops
      p.push_back(static_cast<Vertex>(gen.below(n)));
      for (std::size_t h = gen.below(8); h > 0; --h) {
        const auto arcs = m.graph.neighbors(p.back());
        p.push_back(arcs[gen.below(arcs.size())].to);
      }
    }
  }
  return cases;
}

TEST(SimGolden, RunBatchMatchesNaiveReference) {
  const auto cases = differential_cases();
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (const Arbitration a : {Arbitration::kFarthestFirst,
                                Arbitration::kFifo, Arbitration::kRandom}) {
      SCOPED_TRACE("case " + std::to_string(c) + "/" + arbitration_name(a));
      const std::uint64_t seed = 3 * c + static_cast<std::uint64_t>(a);
      Prng r1(seed), r2(seed);
      const BatchStats got =
          PacketSimulator(cases[c].machine, a).run_batch(cases[c].paths, r1);
      const BatchStats want =
          reference_run(cases[c].machine, a, cases[c].paths, r2);
      EXPECT_EQ(got.makespan, want.makespan);
      EXPECT_EQ(got.delivered, want.delivered);
      EXPECT_EQ(got.total_hops, want.total_hops);
      EXPECT_EQ(got.static_congestion, want.static_congestion);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.avg_latency),
                std::bit_cast<std::uint64_t>(want.avg_latency));
    }
  }
}

TEST(SimGolden, DifferentialCasesCoverBothKernels) {
  const auto cases = differential_cases();
  // run_batch picks the sweep or the domain queues per batch; the reference
  // comparison above locks both only if both are picked, on unit-capacity
  // batches in particular (the only ones the sweep may run).
  std::size_t sweep = 0, unit_queues = 0, queues = 0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const PacketSimulator sim(cases[c].machine);
    if (sim.uses_sweep(sim.prepare(cases[c].paths))) {
      ++sweep;
    } else {
      ++queues;
      unit_queues += c % 3 == 0 ? 1 : 0;
    }
  }
  EXPECT_GE(sweep, 20u);
  EXPECT_GE(unit_queues, 20u);
  EXPECT_GE(queues, 100u);
}

// --------------------------------------------------------------------------
// Thread-count invariance of the parallel trial loop.

ThroughputResult measure_with_threads(const Machine& m, std::size_t threads,
                                      unsigned trials) {
  ThreadPool pool(threads);
  BfsRouter router(m, /*spread=*/true);
  std::vector<Vertex> procs(m.graph.num_vertices());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    procs[i] = static_cast<Vertex>(i);
  }
  const auto traffic = TrafficDistribution::symmetric(std::move(procs));
  ThroughputOptions opt;
  opt.trials = trials;
  opt.pool = &pool;
  Prng rng(31337);
  return measure_throughput(m, router, traffic, rng, opt);
}

TEST(SimGolden, ThroughputIsThreadCountInvariant) {
  const Machine m = make_mesh({8, 8});
  const ThroughputResult serial = [&] {
    BfsRouter router(m, /*spread=*/true);
    std::vector<Vertex> procs(m.graph.num_vertices());
    for (std::size_t i = 0; i < procs.size(); ++i) {
      procs[i] = static_cast<Vertex>(i);
    }
    const auto traffic = TrafficDistribution::symmetric(std::move(procs));
    ThroughputOptions opt;
    opt.trials = 6;
    opt.pool = nullptr;  // strictly serial reference order
    Prng rng(31337);
    return measure_throughput(m, router, traffic, rng, opt);
  }();
  ASSERT_EQ(serial.trial_rates.size(), 6u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE(threads);
    const ThroughputResult r = measure_with_threads(m, threads, 6);
    EXPECT_EQ(r.trial_rates, serial.trial_rates);
    EXPECT_EQ(r.rate, serial.rate);
    EXPECT_EQ(r.rate_min, serial.rate_min);
    EXPECT_EQ(r.rate_max, serial.rate_max);
    EXPECT_EQ(r.messages, serial.messages);
    EXPECT_EQ(r.last, serial.last);
    EXPECT_EQ(r.total_ticks, serial.total_ticks);
  }
}

// --------------------------------------------------------------------------
// Cooperative cancellation: a token must never perturb the simulation it
// does not stop, and must stop one promptly when it fires.

TEST(SimGolden, NeverFiringCancelTokenIsBitIdentical) {
  // An armed-but-never-firing token takes the real amortized-check branch
  // on every quantum boundary; the stats must still match the goldens
  // exactly — cancellation checks may not draw randomness or reorder work.
  CancelSource source;
  source.set_deadline_after_ms(3'600'000);
  const CancelToken token = source.token();

  std::string built_for;
  std::vector<std::vector<Vertex>> paths;
  for (const GoldenRow& row : kGolden) {
    Machine m = golden_machine(row.topology);
    const std::size_t n = m.graph.num_vertices();
    if (built_for != row.topology) {
      paths = golden_paths(m, 4 * n, 12345);
      built_for = row.topology;
    }
    if (row.capped) m.forward_cap.assign(n, 1);

    PacketSimulator sim(m, row.arbitration);
    Prng rng(777);
    const BatchStats s = sim.run_batch(paths, rng, token);
    SCOPED_TRACE(std::string(row.topology) + "/" +
                 arbitration_name(row.arbitration) +
                 (row.capped ? "/capped" : "/uncapped"));
    EXPECT_EQ(s.makespan, row.makespan);
    EXPECT_EQ(s.delivered, row.delivered);
    EXPECT_EQ(s.total_hops, row.total_hops);
    EXPECT_EQ(s.static_congestion, row.static_congestion);
    EXPECT_DOUBLE_EQ(s.avg_latency, row.avg_latency);
  }
}

TEST(SimGolden, ThroughputWithNeverFiringTokenIsBitIdentical) {
  const Machine m = make_mesh({8, 8});
  const ThroughputResult plain = measure_with_threads(m, 4, 6);

  CancelSource source;
  source.set_deadline_after_ms(3'600'000);
  ThreadPool pool(4);
  BfsRouter router(m, /*spread=*/true);
  router.set_cancel_token(source.token());
  std::vector<Vertex> procs(m.graph.num_vertices());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    procs[i] = static_cast<Vertex>(i);
  }
  const auto traffic = TrafficDistribution::symmetric(std::move(procs));
  ThroughputOptions opt;
  opt.trials = 6;
  opt.pool = &pool;
  opt.cancel = source.token();
  Prng rng(31337);
  const ThroughputResult r = measure_throughput(m, router, traffic, rng, opt);

  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.trials_completed, 6u);
  EXPECT_EQ(r.trial_rates, plain.trial_rates);
  EXPECT_EQ(r.rate, plain.rate);
  EXPECT_EQ(r.last, plain.last);
  EXPECT_EQ(r.total_ticks, plain.total_ticks);
}

TEST(SimGolden, PreCancelledBatchNeverStartsSimulating) {
  const Machine m = make_mesh({4, 4});
  const auto paths = golden_paths(m, 32, 7);
  PacketSimulator sim(m);
  const auto batch = sim.prepare(paths);
  CancelSource source;
  source.request_cancel();
  Prng rng(1);
  const std::uint64_t before = simulated_ticks_total();
  EXPECT_THROW(sim.run_batch(batch, rng, source.token()), CancelledError);
  EXPECT_EQ(simulated_ticks_total(), before);  // zero ticks simulated
}

TEST(SimGolden, CancelStopsALongRunningBatchEarly) {
  // A capped tree serializes all cross-root traffic through one edge, so a
  // big batch runs for tens of thousands of ticks (still tens of
  // milliseconds on the per-hop queue kernel) — long enough that the cancel
  // below always lands while the simulation is still going.
  Machine m = make_tree(5);
  const std::size_t n = m.graph.num_vertices();
  m.forward_cap.assign(n, 1);
  const auto paths = golden_paths(m, 1000 * n, 12345);
  PacketSimulator sim(m);
  const auto batch = sim.prepare(paths);

  CancelSource source;
  std::atomic<bool> threw{false};
  std::thread runner([&] {
    Prng rng(777);
    try {
      sim.run_batch(batch, rng, source.token());
    } catch (const CancelledError&) {
      threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto t0 = std::chrono::steady_clock::now();
  source.request_cancel();
  runner.join();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_TRUE(threw.load());
  // One check quantum is 4096 ticks; even with slack for scheduling, the
  // unwind is far quicker than the seconds the full batch would take.
  EXPECT_LT(stop_ms, 2000);
}

TEST(SimGolden, SimulatedTicksCounterAdvances) {
  const Machine m = make_mesh({4, 4});
  const auto paths = golden_paths(m, 32, 7);
  PacketSimulator sim(m);
  const auto batch = sim.prepare(paths);
  const std::uint64_t before = simulated_ticks_total();
  Prng rng(1);
  const BatchStats s = sim.run_batch(batch, rng);
  EXPECT_GE(simulated_ticks_total() - before, s.makespan);
}

// --------------------------------------------------------------------------
// Answer goldens for every router.  The rows above pin BfsRouter walks
// only; the algebraic routers' walks and rng draws reach an answer through
// measure_throughput alone.  Each row holds the 64-bit FNV-1a hashes of the
// plan_query answer bytes of a small estimate (n = 64, 2 trials, seed 11)
// under every router choice and arbitration, recorded before routers
// emitted channel ids.  A reordered draw changes the batch and so the
// answer.

struct AnswerRow {
  const char* family;        ///< parse_family spelling ("Mesh3" = k 3)
  std::uint64_t hash[3][3];  ///< [default, bfs, valiant][arbitration]
};

const AnswerRow kAnswers[] = {
    {"LinearArray",
     {{0xa8003139ef85d97d, 0xb6a0cf2ff0d091ff, 0x48d0d90c398d2d22},
      {0x11d87899afb4c95a, 0x8be50af3686229ed, 0x63c369407864e94f},
      {0x2ae99c12623a2f7e, 0x36748fffe1e9de0f, 0x3bf4e7aeb0678e89}}},
    {"Ring",
     {{0xf9852339f44d62cd, 0x1c52b2f0f7c804b8, 0x4505e843f5d563a4},
      {0xf66eff670cf038d0, 0xd869c1f0e446f137, 0x5e4911d06fea237d},
      {0xe9085c4bad3ea77a, 0x3f38c86d9222c99e, 0xb842ce3532bb84ba}}},
    {"GlobalBus",
     {{0x6fcfbcd28663545d, 0xb513f8cc63ddfbef, 0x31d959c8a4a89c9a},
      {0x64d9f96925803638, 0x10a029ca1602fac6, 0x98e48e525958c059},
      {0x00b47b490b157db1, 0xebdc19f30aa8015c, 0xb7861a34b39443db}}},
    {"Tree",
     {{0x50cf42d4080481ef, 0x42b7629e29fd3d92, 0xc8655011faea8edf},
      {0x9073c99c2f5ec0f5, 0x30b0c21ecba7d10d, 0x044649f4d5abea3c},
      {0x90aa22c63e9ca2b0, 0x80595bdce7b056e9, 0x4505675edf3f76ca}}},
    {"FatTree",
     {{0x58ecff4e75dd54fd, 0x8a3d1866af4a871a, 0x9404467d68f29fa8},
      {0x5c1dbfa927e1f06c, 0x80c34707c9d0b2fb, 0x61b9f3d9f06269d1},
      {0x39f0fb065a309010, 0x6f2f97ba362b2113, 0xd4f8f026962eb906}}},
    {"WeakPPN",
     {{0x338fcde5b45acc95, 0x80503ad8f9faa138, 0xa30c600cedf2054f},
      {0x0f644895d00e136b, 0x45960771fb08b12e, 0xea1142e4dfabc9cc},
      {0xd4bf8a8eb72607ad, 0x7e0513a0a6418aed, 0x3c6ca900f8b80663}}},
    {"XTree",
     {{0x734e407d6e03ad05, 0x064dccbd3e9f2534, 0x4196ff2274c2c3bf},
      {0x9d34320260a40d71, 0x053c58f6d78fb795, 0xd58dc8cad48583c8},
      {0xff23173d3b6d45c0, 0xe4f83a740ceae9d9, 0xfd3c22df8298f4cb}}},
    {"Mesh2",
     {{0xf30019884c21a77e, 0xc6628cd79738c1ef, 0xb683ba091cd45e30},
      {0x679757f8f02ba4b0, 0x6ffb5b5171f81064, 0xdf4a9f17c3083f39},
      {0xbd60469ca03579bc, 0xdf974f2036e5399d, 0x31596e7ab7d5ea70}}},
    {"Mesh3",
     {{0x7fe9aa9647190299, 0xf3e930d8f5ba8c70, 0x5e1a3a7900786dad},
      {0xa3459e9d6628f674, 0x7882799d6600733a, 0x7b3de0bb24bb43f9},
      {0xd0181829b5cf9926, 0x9617bb39b3af5f89, 0xa3bfc85005dd5bd4}}},
    {"Torus2",
     {{0xe5c06fd3b308d9ae, 0xb31109d5d335df6d, 0x7ddcefbb686fd74f},
      {0xa7e8f7f7f52da6e2, 0xa8188a919b8e3610, 0x927f2956ddc801b9},
      {0x839785321321f436, 0x64acb7803aef771a, 0x79d0e8db86de3acf}}},
    {"Torus3",
     {{0xfd2207f80b1b3b5c, 0x4665151f340b5ead, 0x9c4d38ec80f213f5},
      {0x74ca70819d81cdf5, 0x4f78c3e702e99531, 0x1768c23976054681},
      {0x1716930591be6e62, 0x38b3d45277813afe, 0x441170c91ae49ae9}}},
    {"XGrid2",
     {{0x4bbbceab125ac160, 0x681ba8f062bcd65c, 0x9ea4dec8ce969d14},
      {0xe11a594094e52e37, 0xb1a9b3ae5548e636, 0x3022a3277a11b5c6},
      {0x27b625140ccaa872, 0x9a2892d398e9a61a, 0x633dc070bf6181d4}}},
    {"XGrid3",
     {{0x159d2905fafe14b8, 0xbbbbb006fd0dfe10, 0x6e243e5c379d3bfd},
      {0x33c3bc7dd19738ca, 0x11016f76e1c4a760, 0x4ad853de693e6aa0},
      {0x624fb31affc1db7c, 0x6f2d7a39c864e5f9, 0xee1e199928ae1725}}},
    {"MeshOfTrees2",
     {{0x782e2db6e4f4286c, 0xc9a78487d77ce924, 0x7c959a53516b9efe},
      {0x782e2db6e4f4286c, 0xc9a78487d77ce924, 0x7c959a53516b9efe},
      {0x0545fa9047f68a94, 0x2872cbe9254193c8, 0x49dd8f174a72084d}}},
    {"Multigrid2",
     {{0x86fece5a1b608a47, 0xa54ffe877a7fc46f, 0xb3eb296e67fc6f41},
      {0xb97110134e086102, 0x6ff725dfceaaecfc, 0xf2e18f9ed98ef2ee},
      {0xcf6a571c479a20e4, 0xe41369585c9be6da, 0x0edc1d8eea14f09f}}},
    {"Multigrid3",
     {{0xe6dabb229440d623, 0xf89405e1ebe71e6e, 0x8e3e24ecad036fd2},
      {0x46779d2ac1c2f9ee, 0x74e3ef6ceb659c42, 0x3c5f25aab1b59c6f},
      {0x2caf244c4cf15413, 0xfd2e18016a59cdbd, 0x9b18608f6e39bbc7}}},
    {"Pyramid2",
     {{0x70358129f249333b, 0xb9e6844753cb1bfb, 0x054e5534d8b7b9fd},
      {0x177f375b4afb3dd1, 0xa0cc287fdbc6f0b6, 0x2ab3f3b9d6d128a5},
      {0x096ceb4da9ba51f0, 0xf510aa1720e05196, 0xeb409d87c723eadb}}},
    {"Pyramid3",
     {{0x1fe2d1c1a53118bf, 0xbdfe8bed55cbcce2, 0x8c54e85062cab176},
      {0x65db165e7440fc3d, 0x1cfef246d56b3587, 0xfa1f050be52e2a41},
      {0x656c3f0004f5a42f, 0xd33aba10957c9181, 0x577a6a9fc5cdca8b}}},
    {"Butterfly",
     {{0x40935d7e94287ecd, 0x1993a961ef9acedc, 0x052e7e8ede1cdbf5},
      {0x021f0dfa1c8ab9ff, 0x00bd6cd94cec5ff7, 0x516768d26cc13687},
      {0x3edecd4eb7b2464e, 0x094e833b38be9d05, 0x687a62e4b9b192d6}}},
    {"WrappedButterfly",
     {{0xe89f817e97ea2fc8, 0x4063bebf2ae06bd7, 0x2e942a8db2e73905},
      {0xe89f817e97ea2fc8, 0x4063bebf2ae06bd7, 0x2e942a8db2e73905},
      {0xfcb14b5631a5eb46, 0xa007cabf969d675f, 0xba5927d84e215a8b}}},
    {"DeBruijn",
     {{0x8a0df5cf47c94221, 0xc5f44a6c0d733d01, 0x00070ddf5d4b0443},
      {0x25c1d5a4dd04a152, 0x09cf2f568673e459, 0x6eae8199089ee40a},
      {0xb5520b85beacb6b0, 0xc220b283076cc61e, 0x035f75c9bccacb24}}},
    {"ShuffleExchange",
     {{0x4d3415231fe60fda, 0xaa24e9b9b99afbf0, 0xc5655d7fca0a62cc},
      {0x6a021a1753632687, 0xe52351958cce276c, 0x80c721f3586105ad},
      {0x77d55fb7e94fabef, 0xe8de0d511a4383f2, 0x48498ee2f52275ff}}},
    {"CCC",
     {{0x8a88a6908c9270f3, 0x11d08399c2ee39a2, 0xe8eea2c26c602683},
      {0x8a88a6908c9270f3, 0x11d08399c2ee39a2, 0xe8eea2c26c602683},
      {0x8106700f73450a8a, 0x9b52dfeb2b0c0e87, 0x00d4609175e07dae}}},
    {"Hypercube",
     {{0xf0e7966d04ff725f, 0x72c5be6c2423f51f, 0xb4929c2758963db9},
      {0xf2d0f0eaf32852d6, 0x5e9bd65041ad8ded, 0xed9dcc4028a52884},
      {0xb38e8d372a9ca4d0, 0x33a68556da055c4c, 0xe9fe914f7f580ef7}}},
    {"Multibutterfly",
     {{0xb570cfa5f9dd6e29, 0x7f3676a95ef5ec22, 0x91525ce2805521e0},
      {0xf50170ec7f2ce565, 0x4642b53c2dfe1fb6, 0xcce5b158d253fb89},
      {0x86f03c99d645048e, 0x8b1852d3a01ba3e0, 0x893739cc0dd69833}}},
    {"Expander",
     {{0x64b5c0ca08ba0ba0, 0x3257e580eb33fe92, 0x2286aab8b3d404fa},
      {0x64b5c0ca08ba0ba0, 0x3257e580eb33fe92, 0x2286aab8b3d404fa},
      {0x7582db2d1ca6aacc, 0x4ca81927e126a53b, 0x28ad46b9da4e0c9d}}},
};

constexpr RouterChoice kRouterChoices[] = {
    RouterChoice::kDefault, RouterChoice::kBfs, RouterChoice::kValiant};
constexpr Arbitration kArbitrations[] = {
    Arbitration::kFarthestFirst, Arbitration::kFifo, Arbitration::kRandom};

// Names the row in test listings (the default prints its bytes, pointer
// included).
void PrintTo(const AnswerRow& row, std::ostream* os) { *os << row.family; }

class AnswerGolden : public ::testing::TestWithParam<AnswerRow> {};

TEST_P(AnswerGolden, PlanQueryBytesMatchRecorded) {
  const AnswerRow& row = GetParam();
  const auto spec = parse_family(row.family);
  ASSERT_TRUE(spec.has_value());
  std::uint64_t actual[3][3];
  for (int r = 0; r < 3; ++r) {
    for (int a = 0; a < 3; ++a) {
      Query q;
      q.kind = QueryKind::kEstimate;
      q.family = spec->family;
      q.k = spec->k.value_or(2);
      q.n = 64;
      q.trials = 2;
      q.seed = 11;
      q.router = kRouterChoices[r];
      q.arbitration = kArbitrations[a];
      const std::string answer = plan_query(q).dump();
      actual[r][a] = fnv1a64(answer);
      EXPECT_EQ(actual[r][a], row.hash[r][a])
          << router_choice_name(q.router) << "/"
          << arbitration_name(q.arbitration) << ": " << answer;
    }
  }
  if (HasFailure()) {
    std::string line = std::string("row now reads {\"") + row.family + "\", {";
    for (int r = 0; r < 3; ++r) {
      line += r == 0 ? "{" : ", {";
      for (int a = 0; a < 3; ++a) {
        line += (a == 0 ? "0x" : ", 0x") + hex64(actual[r][a]);
      }
      line += "}";
    }
    ADD_FAILURE() << line << "}}";
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryFamily, AnswerGolden, ::testing::ValuesIn(kAnswers),
    [](const ::testing::TestParamInfo<AnswerRow>& info) {
      return std::string(info.param.family);
    });

}  // namespace
}  // namespace netemu
