// google-benchmark microbenchmarks of the simulator kernels themselves:
// BFS, router path generation, packet-simulation ticks, KL bisection,
// Fiedler iteration.  These time the *infrastructure*, not the paper's
// claims; they exist so performance regressions in the kernels are visible.
//
// Regression-harness mode (docs/PERF.md): `micro_sim --baseline [--out
// BENCH_sim.json] [--reps N] [--smoke] [--threads 1,2,8]` times route,
// flatten and run_batch on fixed topology × arbitration cases, checks that
// identical seeds give identical results at every requested thread count,
// and writes a machine-readable BENCH_sim.json so every PR has a tracked
// perf trajectory.  Exits nonzero on a determinism violation.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "netemu/cut/bisection.hpp"
#include "netemu/cut/spectral.hpp"
#include "netemu/graph/algorithms.hpp"
#include "netemu/routing/bfs_router.hpp"
#include "netemu/routing/packet_sim.hpp"
#include "netemu/routing/throughput.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/topology/generators.hpp"
#include "netemu/util/json.hpp"

namespace {

using namespace netemu;

void BM_BfsDistances(benchmark::State& state) {
  const Machine m = make_mesh({static_cast<std::uint32_t>(state.range(0)),
                               static_cast<std::uint32_t>(state.range(0))});
  Vertex src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_distances(m.graph, src));
    src = (src + 7) % m.graph.num_vertices();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m.graph.num_vertices()));
}
BENCHMARK(BM_BfsDistances)->Arg(16)->Arg(32)->Arg(64);

void BM_RouterPath(benchmark::State& state) {
  Prng rng(1);
  const Machine m = make_debruijn(static_cast<unsigned>(state.range(0)));
  const auto router = make_default_router(m);
  const std::size_t n = m.graph.num_vertices();
  std::vector<Channel> channels;
  for (auto _ : state) {
    const Vertex u = static_cast<Vertex>(rng.below(n));
    const Vertex v = static_cast<Vertex>(rng.below(n));
    channels.clear();
    router->route_channels(u, v, rng, channels);
    benchmark::DoNotOptimize(channels.data());
  }
}
BENCHMARK(BM_RouterPath)->Arg(8)->Arg(12);

void BM_BfsRouterCachedPath(benchmark::State& state) {
  Prng rng(2);
  const Machine m = make_ccc(static_cast<unsigned>(state.range(0)));
  BfsRouter router(m);
  const std::size_t n = m.graph.num_vertices();
  // Warm one destination so steady-state path walks are measured.
  std::vector<Channel> channels;
  router.route_channels(0, static_cast<Vertex>(n - 1), rng, channels);
  for (auto _ : state) {
    const Vertex u = static_cast<Vertex>(rng.below(n));
    channels.clear();
    router.route_channels(u, static_cast<Vertex>(n - 1), rng, channels);
    benchmark::DoNotOptimize(channels.data());
  }
}
BENCHMARK(BM_BfsRouterCachedPath)->Arg(6)->Arg(8);

void BM_PacketBatch(benchmark::State& state) {
  Prng rng(3);
  const auto side = static_cast<std::uint32_t>(state.range(0));
  const Machine m = make_mesh({side, side});
  const std::size_t n = m.graph.num_vertices();
  std::vector<Vertex> procs(n);
  for (std::size_t i = 0; i < n; ++i) procs[i] = static_cast<Vertex>(i);
  const auto traffic = TrafficDistribution::symmetric(procs);
  const auto router = make_default_router(m);
  std::vector<std::vector<Vertex>> paths;
  for (const Message& msg : traffic.batch(8 * n, rng)) {
    paths.push_back(router->route(msg.src, msg.dst, rng));
  }
  PacketSimulator sim(m);
  const auto batch = sim.prepare(paths);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run_batch(batch, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(paths.size()));
}
BENCHMARK(BM_PacketBatch)->Arg(8)->Arg(16)->Arg(32);

void BM_KlBisection(benchmark::State& state) {
  Prng rng(4);
  const auto side = static_cast<std::uint32_t>(state.range(0));
  const Machine m = make_mesh({side, side});
  for (auto _ : state) {
    benchmark::DoNotOptimize(kl_bisection(m.graph, rng, 4));
  }
}
BENCHMARK(BM_KlBisection)->Arg(8)->Arg(16);

void BM_Fiedler(benchmark::State& state) {
  Prng rng(5);
  const auto side = static_cast<std::uint32_t>(state.range(0));
  const Machine m = make_mesh({side, side});
  for (auto _ : state) {
    benchmark::DoNotOptimize(fiedler_value(m.graph, rng, 500));
  }
}
BENCHMARK(BM_Fiedler)->Arg(8)->Arg(16);

void BM_ThroughputMeasurement(benchmark::State& state) {
  Prng rng(6);
  const Machine m = make_mesh({16, 16});
  std::vector<Vertex> procs(256);
  for (std::size_t i = 0; i < 256; ++i) procs[i] = static_cast<Vertex>(i);
  const auto traffic = TrafficDistribution::symmetric(procs);
  const auto router = make_default_router(m);
  ThroughputOptions opt;
  opt.trials = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        measure_throughput(m, *router, traffic, rng, opt));
  }
}
BENCHMARK(BM_ThroughputMeasurement);

// ---------------------------------------------------------------------------
// Regression-harness ("--baseline") mode.
// ---------------------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Time route, flatten and run_batch on one topology × arbitration case:
/// `messages` random (src, dst) pairs routed by a spreading BFS router.
/// Route and flatten are the calls measure_throughput's route_into makes:
/// route_channels, then append_channels.
Json run_case(const char* topo_name, const Machine& machine, Arbitration arb,
              std::size_t messages, int reps) {
  const std::size_t n = machine.graph.num_vertices();
  const PacketSimulator sim(machine, arb);
  BfsRouter router(machine, /*spread=*/true);

  // Route: the same seeded pairs every rep, appended to one flat channel
  // list.  An untimed first pass fills the router's distance-field table,
  // so the reps time steady-state routing, as a calibrated trial sees it.
  std::vector<Channel> flat;
  std::vector<std::size_t> offsets;
  const auto route_all = [&] {
    flat.clear();
    offsets.assign(1, 0);
    Prng rng(999);
    for (std::size_t i = 0; i < messages; ++i) {
      const Vertex src = static_cast<Vertex>(rng.below(n));
      const Vertex dst = static_cast<Vertex>(rng.below(n));
      router.route_channels(src, dst, rng, flat);
      offsets.push_back(flat.size());
    }
  };
  route_all();
  // Flatten: every message's channels into the batch.
  PacketSimulator::PreparedBatch batch;
  const auto flatten_all = [&] {
    batch = sim.prepare({});
    batch.reserve(messages, flat.size());
    const std::span<const Channel> all(flat);
    for (std::size_t i = 0; i < messages; ++i) {
      sim.append_channels(batch,
                          all.subspan(offsets[i], offsets[i + 1] - offsets[i]));
    }
  };

  std::vector<double> route_ms, flatten_ms, wall_ms;
  BatchStats stats;
  double total_s = 0.0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = SteadyClock::now();
    route_all();
    route_ms.push_back(seconds_since(t0) * 1e3);
    t0 = SteadyClock::now();
    flatten_all();
    flatten_ms.push_back(seconds_since(t0) * 1e3);
    Prng rng(777);  // per-rep reset: every rep simulates identical work
    t0 = SteadyClock::now();
    stats = sim.run_batch(batch, rng);
    const double s = seconds_since(t0);
    wall_ms.push_back(s * 1e3);
    total_s += s;
  }

  const double ticks = static_cast<double>(stats.makespan);
  const double reps_d = static_cast<double>(reps);
  const double hops = static_cast<double>(stats.total_hops);
  const double wall_p50 = scope::exact_quantile(wall_ms, 0.50);
  const double route_p50 = scope::exact_quantile(route_ms, 0.50);
  const double flatten_p50 = scope::exact_quantile(flatten_ms, 0.50);
  Json c = Json::object();
  c["topology"] = topo_name;
  c["arbitration"] = arbitration_name(arb);
  c["vertices"] = n;
  c["messages"] = messages;
  c["total_hops"] = stats.total_hops;
  c["kernel"] = sim.uses_sweep(batch) ? "sweep" : "queues";
  c["makespan"] = stats.makespan;
  c["rate"] = stats.rate();
  c["wall_ms_p50"] = wall_p50;
  c["wall_ms_p95"] = scope::exact_quantile(wall_ms, 0.95);
  c["ticks_per_sec"] = ticks * reps_d / total_s;
  // Simulated message-ticks per wall second.  The queue kernel does not
  // visit waiting messages, so this rises with less work, not faster work;
  // ns_per_hop is the kernel-neutral unit, and visits_per_hop is the
  // work per hop the per-tick sweep would do.
  c["msg_ticks_per_sec"] =
      ticks * static_cast<double>(messages) * reps_d / total_s;
  c["visits_per_hop"] =
      static_cast<double>(messages) * stats.avg_latency / hops;
  c["ns_per_hop"] = wall_p50 * 1e6 / hops;
  c["route_ms_p50"] = route_p50;
  c["flatten_ms_p50"] = flatten_p50;
  c["route_ns_per_hop"] = route_p50 * 1e6 / hops;
  c["flatten_ns_per_hop"] = flatten_p50 * 1e6 / hops;
  return c;
}

struct TrialRun {
  std::vector<double> rates;
  BatchStats last;
  double wall_s = 0.0;
};

TrialRun run_estimate(const Machine& machine, unsigned trials,
                      std::size_t threads) {
  ThreadPool pool(threads);
  BfsRouter router(machine, /*spread=*/true);
  std::vector<Vertex> procs(machine.graph.num_vertices());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    procs[i] = static_cast<Vertex>(i);
  }
  const auto traffic = TrafficDistribution::symmetric(std::move(procs));
  ThroughputOptions opt;
  opt.trials = trials;
  opt.pool = &pool;
  Prng rng(4242);
  const auto t0 = SteadyClock::now();
  const ThroughputResult r =
      measure_throughput(machine, router, traffic, rng, opt);
  TrialRun out;
  out.wall_s = seconds_since(t0);
  out.rates = r.trial_rates;
  out.last = r.last;
  return out;
}

int run_baseline(const std::string& out_path, int reps, bool smoke,
                 const std::vector<std::size_t>& thread_counts) {
  Json doc = Json::object();
  doc["schema"] = "netemu-bench-sim/1";
  doc["smoke"] = smoke;

  struct Topo {
    const char* name;
    Machine machine;
    std::size_t messages;  // 0: 8 per vertex
  };
  // Light-wait rows (mesh, butterfly: about three message-visits per hop)
  // and heavy-wait rows (tree, and mesh8x8 at an estimate's calibrated
  // batch size: 20-70), so the rows sit on both sides of the kernel
  // choice.
  std::vector<Topo> topos;
  if (smoke) {
    topos.push_back({"mesh16x16", make_mesh({16, 16}), 0});
    topos.push_back({"butterfly4", make_butterfly(4), 0});
    topos.push_back({"tree7", make_tree(7), 0});
  } else {
    topos.push_back({"mesh32x32", make_mesh({32, 32}), 0});
    topos.push_back({"butterfly6", make_butterfly(6), 0});
    topos.push_back({"tree9", make_tree(9), 0});
  }
  topos.push_back({"mesh8x8", make_mesh({8, 8}), 8192});

  Json cases = Json::array();
  const Arbitration arbs[] = {Arbitration::kFarthestFirst, Arbitration::kFifo,
                              Arbitration::kRandom};
  for (const Topo& t : topos) {
    const std::size_t messages =
        t.messages != 0 ? t.messages : 8 * t.machine.num_vertices();
    for (const Arbitration a : arbs) {
      cases.items().push_back(run_case(t.name, t.machine, a, messages, reps));
      std::fprintf(stderr, "baseline: %s/%s done\n", t.name,
                   arbitration_name(a));
    }
  }
  doc["run_batch"] = std::move(cases);

  // Determinism: a multi-trial estimate must be bit-identical at every
  // thread count (the acceptance gate CI enforces).
  const Machine& det_machine = topos.front().machine;
  const unsigned det_trials = 8;
  bool deterministic = true;
  Json det = Json::object();
  Json det_threads = Json::array();
  TrialRun reference;
  Json scaling = Json::object();
  std::vector<double> best_wall(thread_counts.size(), 0.0);
  // Timing discipline for a shared/CI box: run a few reps of every thread
  // count, interleaved (so slowly-drifting background load penalizes all
  // counts alike instead of whichever ran last), and keep each count's
  // fastest wall — a single timing is too noisy to gate a speedup ratio on.
  const int scale_reps = smoke ? 2 : 3;
  for (int rep = 0; rep < scale_reps; ++rep) {
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      const std::size_t threads = thread_counts[i];
      TrialRun run = run_estimate(det_machine, det_trials, threads);
      if (rep == 0 || run.wall_s < best_wall[i]) best_wall[i] = run.wall_s;
      if (rep > 0) continue;
      det_threads.items().emplace_back(threads);
      if (i == 0) {
        reference = std::move(run);
        continue;
      }
      if (run.rates != reference.rates || !(run.last == reference.last)) {
        deterministic = false;
        std::fprintf(
            stderr, "DETERMINISM VIOLATION: %zu threads disagrees with %zu\n",
            threads, thread_counts[0]);
      }
    }
  }
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "wall_s_threads_%zu", thread_counts[i]);
    scaling[key] = best_wall[i];
  }
  // Parallel efficiency relative to the first (serial) thread count.  The
  // CI bench-smoke job gates speedup_threads_8 >= 1.0: more worker threads
  // must never make an estimate slower (on a 1-core box the pool degrades
  // to the serial loop, so the ratio sits at ~1.0 there too).
  for (std::size_t i = 1; i < thread_counts.size(); ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "speedup_threads_%zu", thread_counts[i]);
    scaling[key] = best_wall[i] > 0.0 ? best_wall[0] / best_wall[i] : 0.0;
  }
  det["ok"] = deterministic;
  det["threads"] = std::move(det_threads);
  det["trials"] = det_trials;
  Json ref_rates = Json::array();
  for (const double r : reference.rates) ref_rates.items().emplace_back(r);
  det["trial_rates"] = std::move(ref_rates);
  doc["determinism"] = std::move(det);
  doc["estimate_scaling"] = std::move(scaling);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << doc.dump() << "\n";
  std::fprintf(stderr, "baseline: wrote %s (determinism %s)\n",
               out_path.c_str(), deterministic ? "ok" : "VIOLATED");
  return deterministic ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool baseline = false;
  std::string out_path = "BENCH_sim.json";
  int reps = 15;
  bool smoke = false;
  std::vector<std::size_t> thread_counts = {1, 2, 8};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline") {
      baseline = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      thread_counts.clear();
      const char* p = argv[++i];
      while (*p) {
        char* end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p) break;
        if (v > 0) thread_counts.push_back(static_cast<std::size_t>(v));
        p = (*end == ',') ? end + 1 : end;
      }
    }
  }
  if (baseline) {
    if (reps < 3) reps = 3;
    if (thread_counts.empty()) thread_counts = {1, 2, 8};
    return run_baseline(out_path, reps, smoke, thread_counts);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
