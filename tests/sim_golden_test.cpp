// Golden-value and differential regression tests for the packet simulator.
//
// Every rewrite of PacketSimulator::run_batch is required to be
// bit-identical to the original per-tick-allocation implementation: same
// paths + same seed must give the same BatchStats.  Two tests pin that
// contract down: recorded goldens on real machine shapes, and a naive
// reference simulator compared on hundreds of seeded random multigraphs.
//
// Also covered here: prepare()-vs-append() equivalence (the route-reuse
// path of batch doubling) and thread-count invariance of the parallel
// trial loop in measure_throughput.

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
#include "netemu/topology/generators.hpp"
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

}  // namespace
}  // namespace netemu
