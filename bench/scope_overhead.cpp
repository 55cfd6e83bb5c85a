// scope_overhead: the <2% instrumentation gate (docs/SCOPE.md).
//
// netemu::scope is compiled-in everywhere — the tick-loop batch counters in
// packet_sim, the request/cache/histogram recording in the executor — so
// this harness proves the recording sites are cheap enough to leave on.
// It A/B-times the two hot paths the ISSUE names with instrumentation
// enabled vs. disabled (scope::set_enabled is the global kill switch that
// turns every record into a single relaxed load):
//
//   run_batch   — the micro_sim workload: repeated packet-simulation
//                 batches on a fixed mesh (counter adds per *batch*);
//   cache_hit   — a cache-hit hot loop: an in-process Server on an
//                 ephemeral port, one client connection replaying a
//                 fully-cached query through the real localhost socket
//                 (JSON parse -> query build -> executor cache hit ->
//                 response serialize per request, the stack every served
//                 cache hit runs).
//
// A third A/B gates cooperative cancellation the same way (docs/
// LIFECYCLE.md): run_batch with a null CancelToken (one pointer compare at
// each quantum boundary) vs an armed-but-never-firing one (the full
// deadline-latch check).  Both must stay within the 2% gate.
//
// Methodology: R PAIRED rounds — each pair runs both arms back-to-back
// (order alternating per pair, so drift cancels) and yields one
// enabled/disabled ratio; the statistic is the MEDIAN of the pair ratios.
// Pairing matters: adjacent rounds share the machine's frequency/cache
// state, so each ratio is clean even when absolute round times wander,
// and the median discards the odd preempted pair.  Rounds are timed on
// PROCESS CPU TIME (CLOCK_PROCESS_CPUTIME_ID), not wall time — it
// charges both the client and server side of every request while
// ignoring socket scheduling delays, which on shared CI runners are far
// larger than the 2% signal.  Overhead = median ratio - 1, gated at 2%.
//
//   $ scope_overhead            # full sizes
//   $ scope_overhead --smoke    # CI sizes (same 2% gate)
//
// Exits nonzero when either workload exceeds the gate.

#include <ctime>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "netemu/routing/bfs_router.hpp"
#include "netemu/routing/packet_sim.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/executor.hpp"
#include "netemu/service/query.hpp"
#include "netemu/service/server.hpp"
#include "netemu/topology/generators.hpp"
#include "netemu/util/table.hpp"

namespace {

using namespace netemu;
using SteadyClock = std::chrono::steady_clock;

constexpr double kGatePercent = 2.0;

/// CPU seconds consumed by the whole process (falls back to wall time
/// where the clock is unavailable).  Idle threads — the executor pool and
/// the server acceptor blocked between requests — contribute nothing.
double process_cpu_s() {
#ifdef CLOCK_PROCESS_CPUTIME_ID
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return std::chrono::duration<double>(
             SteadyClock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workload 1: run_batch (micro_sim's hot loop).
// ---------------------------------------------------------------------------

struct SimWorkload {
  Machine machine;
  PacketSimulator sim;
  PacketSimulator::PreparedBatch batch;

  SimWorkload(std::uint32_t side, std::size_t messages_per_proc)
      : machine(make_mesh({side, side})), sim(machine) {
    Prng rng(999);
    BfsRouter router(machine, /*spread=*/true);
    const std::size_t n = machine.graph.num_vertices();
    std::vector<std::vector<Vertex>> paths;
    paths.reserve(messages_per_proc * n);
    for (std::size_t i = 0; i < messages_per_proc * n; ++i) {
      const Vertex src = static_cast<Vertex>(rng.below(n));
      const Vertex dst = static_cast<Vertex>(rng.below(n));
      paths.push_back(router.route(src, dst, rng));
    }
    batch = sim.prepare(paths);
  }

  double round(int reps) const { return round(reps, CancelToken()); }

  double round(int reps, const CancelToken& cancel) const {
    const double t0 = process_cpu_s();
    for (int r = 0; r < reps; ++r) {
      Prng rng(777);  // identical work every rep
      BatchStats stats = sim.run_batch(batch, rng, cancel);
      (void)stats;
    }
    return process_cpu_s() - t0;
  }
};

// ---------------------------------------------------------------------------
// Workload 2: executor cache hits through a real socket.
// ---------------------------------------------------------------------------

struct ExecWorkload {
  QueryExecutor executor;
  Server server;
  Client client;
  std::string line;
  bool up = false;

  ExecWorkload()
      : executor(make_options()), server(executor, server_options()) {
    Query q;
    q.kind = QueryKind::kBandwidth;
    q.family = Family::kButterfly;
    q.n = 1024.0;
    line = query_to_json(q).dump();
    std::string error;
    if (!server.start(&error) || !client.connect(server.port(), &error)) {
      std::fprintf(stderr, "scope_overhead: %s\n", error.c_str());
      return;
    }
    // Warm the cache: the first request computes, every timed one hits.
    std::string warm;
    up = client.request_raw(line, warm) &&
         warm.find("\"ok\":true") != std::string::npos;
    if (!up) {
      std::fprintf(stderr, "scope_overhead: warmup request failed: %s\n",
                   warm.c_str());
    }
  }

  ~ExecWorkload() { server.stop(); }

  static QueryExecutor::Options make_options() {
    QueryExecutor::Options o;
    o.threads = 2;
    o.cache_file.clear();  // memory-only: no disk noise in the loop
    o.compute = [](const Query&, const CancelToken&) {
      Json j = Json::object();
      j["v"] = 1.0;
      return j;
    };
    return o;
  }

  static Server::Options server_options() {
    Server::Options o;
    o.port = 0;  // ephemeral
    return o;
  }

  double round(int iters) {
    std::string response;
    const double t0 = process_cpu_s();
    for (int i = 0; i < iters; ++i) {
      if (!client.request_raw(line, response) ||
          response.find("\"cache_hit\":true") == std::string::npos) {
        std::fprintf(stderr, "scope_overhead: request failed mid-round\n");
        return 1e300;  // poison the round, never the min
      }
    }
    return process_cpu_s() - t0;
  }
};

// ---------------------------------------------------------------------------
// A/B harness.
// ---------------------------------------------------------------------------

struct ArmResult {
  std::vector<double> enabled_s;   // per pair
  std::vector<double> disabled_s;  // per pair

  double median_enabled_s() const { return scope::exact_quantile(enabled_s, 0.5); }
  double median_disabled_s() const {
    return scope::exact_quantile(disabled_s, 0.5);
  }
  double overhead_percent() const {
    std::vector<double> ratios;
    ratios.reserve(enabled_s.size());
    for (std::size_t i = 0; i < enabled_s.size(); ++i) {
      ratios.push_back(enabled_s[i] / disabled_s[i]);
    }
    return (scope::exact_quantile(std::move(ratios), 0.5) - 1.0) * 100.0;
  }
};

/// Run `pairs` back-to-back (on, off) timings, alternating arm order each
/// pair; `set_arm(on)` selects which arm the next round runs.
template <typename SetArm, typename RoundFn>
ArmResult ab_pairs_with(int pairs, SetArm&& set_arm, RoundFn&& run_round) {
  ArmResult out;
  for (int r = 0; r < pairs; ++r) {
    const bool enabled_first = (r % 2 == 0);
    for (int pass = 0; pass < 2; ++pass) {
      const bool on = (pass == 0) == enabled_first;
      set_arm(on);
      const double s = run_round();
      (on ? out.enabled_s : out.disabled_s).push_back(s);
    }
  }
  return out;
}

/// The scope-instrumentation arm pair (set_enabled is the kill switch).
template <typename RoundFn>
ArmResult ab_pairs(int pairs, RoundFn&& run_round) {
  ArmResult out = ab_pairs_with(
      pairs, [](bool on) { scope::set_enabled(on); }, run_round);
  scope::set_enabled(true);  // never leave the process dark
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // Many SHORT pairs beat few long ones on a contended machine: a few ms
  // per slice keeps the two arms of a pair tightly correlated (same
  // frequency, same cache pressure), and the median over dozens of pair
  // ratios discards the preempted outliers.  Slices stay well above CPU
  // timer granularity (~1 us).
  const int sim_reps = smoke ? 20 : 4;
  const int exec_iters = smoke ? 500 : 1000;
  const int rounds = smoke ? 40 : 60;

  std::printf("==== scope_overhead: instrumentation A/B (gate %.1f%%) ====\n",
              kGatePercent);
  std::printf("mode: %s (%d paired rounds, median of pair ratios)\n\n",
              smoke ? "smoke" : "full", rounds);

  SimWorkload sim(smoke ? 12u : 24u, 8);
  ExecWorkload exec;
  if (!exec.up) return 2;
  // Untimed warmup round per workload: page in code + data.
  (void)sim.round(smoke ? 10 : 2);
  (void)exec.round(500);

  // A failing first reading is usually a burst of machine noise, not real
  // overhead: escalate by pooling more pairs (up to 3 batches) — noise
  // dilutes toward zero across batches, genuine overhead reproduces in
  // every one.
  const auto measure_by = [&](auto&& run_batch_of_pairs) {
    ArmResult r = run_batch_of_pairs();
    for (int batch = 1; batch < 3 && r.overhead_percent() > kGatePercent;
         ++batch) {
      std::printf("  reading %.2f%% over gate; pooling another %d pairs\n",
                  r.overhead_percent(), rounds);
      const ArmResult more = run_batch_of_pairs();
      r.enabled_s.insert(r.enabled_s.end(), more.enabled_s.begin(),
                         more.enabled_s.end());
      r.disabled_s.insert(r.disabled_s.end(), more.disabled_s.begin(),
                          more.disabled_s.end());
    }
    return r;
  };
  const auto measure = [&](auto&& run_round) {
    return measure_by([&] { return ab_pairs(rounds, run_round); });
  };
  const ArmResult sim_r = measure([&] { return sim.round(sim_reps); });
  const ArmResult exec_r = measure([&] { return exec.round(exec_iters); });

  // Cancellation arm pair: armed-but-never-firing token vs null token on
  // the same batch.  The armed arm takes the real deadline-latch branch at
  // every quantum boundary; the null arm is one pointer compare.
  CancelSource cancel_source;
  cancel_source.set_deadline_after_ms(3'600'000);
  const CancelToken armed = cancel_source.token();
  CancelToken current;  // the token the next round passes to run_batch
  const ArmResult cancel_r = measure_by([&] {
    return ab_pairs_with(
        rounds, [&](bool on) { current = on ? armed : CancelToken(); },
        [&] { return sim.round(sim_reps, current); });
  });

  Table table({"workload", "off ms", "on ms", "overhead", "gate"});
  int failures = 0;
  const auto row = [&](const char* name, const ArmResult& r) {
    const double pct = r.overhead_percent();
    const bool ok = pct <= kGatePercent;
    if (!ok) ++failures;
    table.add_row({name, Table::num(r.median_disabled_s() * 1e3, 2),
                   Table::num(r.median_enabled_s() * 1e3, 2),
                   Table::num(pct, 2) + "%", ok ? "PASS" : "FAIL"});
  };
  row("run_batch (micro_sim)", sim_r);
  row("cache_hit (socket)", exec_r);
  row("run_batch cancel token", cancel_r);
  table.print(std::cout);

  if (failures != 0) {
    std::printf("\nFAIL: instrumentation overhead exceeds %.1f%% on %d "
                "workload(s)\n",
                kGatePercent, failures);
    return 1;
  }
  std::printf("\nPASS: scope recording and cancel-check sites cost <= "
              "%.1f%% on every hot path\n",
              kGatePercent);
  return 0;
}
