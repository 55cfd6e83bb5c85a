// scatter_speedup: scatter-gather acceptance for the fleet front door
// (docs/SCATTER.md).  Starts FOUR real netemu_serve backends (one compute
// thread each, memory-only caches), fronts them with a FleetRouter, and
// times a 64-trial Mesh-k2 estimate two ways through the SAME router:
//
//   whole    — one backend computes all 64 trials (scatter disabled);
//   scatter  — the front door splits the sweep into 4 disjoint trial
//              ranges, one per backend, and merges the answers.
//
// Every timed run uses a fresh seed so both paths are measured cold (the
// sub-range cache keys differ from the whole-query key, so nothing leaks
// between modes).  Gates (exit nonzero on failure):
//   * bit-identity: the merged result document equals the single-backend
//     result for the same query, byte for byte;
//   * fan-out: the scatterer actually dispatched 4 sub-queries per run;
//   * speedup: median whole / median scatter >= --gate (default 2.5x) —
//     enforced only when the host has >= 4 CPUs; on smaller hosts the
//     backends share cores and the ratio is reported as cpu_capped
//     (informational), since parallel speedup is physically unavailable.
//
// Reproduce:  scatter_speedup [--trials 64] [--n 2048] [--reps 3]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "netemu/faultline/process.hpp"
#include "netemu/fleet/front_door.hpp"
#include "netemu/fleet/router.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

namespace {

constexpr std::size_t kBackends = 4;

Json estimate_query(double n, double trials, double seed) {
  Json q = Json::object();
  q["op"] = "estimate";
  q["family"] = "Mesh";
  q["k"] = 2;
  q["n"] = n;
  q["trials"] = trials;
  q["seed"] = seed;
  return q;
}

/// A copy of `q` carrying the [lo, hi) trial range.
Json ranged(const Json& q, unsigned lo, unsigned hi) {
  Json out = q;
  out["trial_lo"] = lo;
  out["trial_hi"] = hi;
  return out;
}

/// True when the query's 4 sub-ranges rendezvous to 4 DISTINCT backends.
/// Placement is content-hashed, so ~91% of seeds double up somewhere and
/// would serialize two shards on one single-threaded backend; the gate
/// measures the parallel split+merge, not placement luck, so the timed
/// seeds are screened for a one-shard-per-backend layout.
bool distinct_owners(const FleetRouter& router, const Json& q,
                     unsigned trials) {
  std::set<std::size_t> owners;
  for (unsigned i = 0; i < kBackends; ++i) {
    const auto lo = static_cast<unsigned>(
        std::uint64_t(i) * trials / kBackends);
    const auto hi = static_cast<unsigned>(
        std::uint64_t(i + 1) * trials / kBackends);
    owners.insert(router.rank_for(ranged(q, lo, hi))[0]);
  }
  return owners.size() == kBackends;
}

/// The next seed > `from` whose scatter spreads one shard per backend.
double next_scatter_seed(const FleetRouter& router, double n, double trials,
                         double from) {
  for (double seed = from + 1; seed < from + 4096; ++seed) {
    if (distinct_owners(router, estimate_query(n, trials, seed),
                        static_cast<unsigned>(trials))) {
      return seed;
    }
  }
  return from + 1;  // unreachable in practice; fall back to any seed
}

/// Time one query through a front door; returns wall ms, or -1 with the
/// response recorded in `*line_out` either way.
double timed_request(FleetFrontDoor& door, const Json& q,
                     std::string* line_out) {
  bool shutdown = false;
  const auto t0 = std::chrono::steady_clock::now();
  *line_out = door.handle_line(q.dump(), &shutdown);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  std::string perror;
  const Json doc = Json::parse(*line_out, &perror);
  if (!doc.is_object() || !doc["ok"].as_bool()) return -1.0;
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double n = static_cast<double>(cli.get_int("n", 2048));
  const double trials = static_cast<double>(cli.get_int("trials", 64));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const double gate = cli.get_double("gate", 2.5);
  const std::string serve_bin =
      cli.get("serve-bin", bench::default_serve_bin(cli.program()));
  const unsigned cores = std::thread::hardware_concurrency();
  const bool cpu_capped = cores < kBackends;

  bench::print_header("scatter speedup: 4 backends, 64-trial estimate");
  std::cout << "backend: " << serve_bin << "\n"
            << "estimate Mesh k=2 n=" << n << " trials=" << trials << ", "
            << reps << " reps/mode, " << cores << " cores"
            << (cpu_capped ? " (cpu_capped: speedup gate informational)" : "")
            << "\n\n";

  bench::Verdict verdict;

  // One compute thread per backend: the speedup must come from the fleet
  // running shards in parallel, not from a backend's own pool.
  std::vector<ManagedProcess> procs(kBackends);
  std::vector<std::uint16_t> ports(kBackends);
  for (std::size_t i = 0; i < kBackends; ++i) {
    bench::ServeSpawn spawn;
    spawn.threads = 1;
    std::string error;
    if (!bench::spawn_serve(procs[i], serve_bin, spawn, &ports[i], &error)) {
      std::cout << "CHECK FAILED: spawn backend " << i << ": " << error
                << "\n";
      return 1;
    }
  }

  FleetRouter::Options options;
  for (auto port : ports) options.backends.push_back({port, ""});
  options.health.failure_threshold = 3;
  options.health.open_cooldown_ms = 200;
  options.probe_interval_ms = 0;
  options.client.max_attempts = 2;
  options.client.base_backoff_ms = 1;
  options.client.max_backoff_ms = 20;
  options.client.attempt_timeout_ms = 120000;
  FleetRouter router(options);

  FleetFrontDoor::Options whole_options;
  whole_options.scatter.min_trials = 0;  // scatter disabled
  FleetFrontDoor whole_door(router, whole_options);

  FleetFrontDoor::Options scatter_options;
  scatter_options.scatter.min_trials = 2;
  scatter_options.scatter.max_ways = kBackends;
  scatter_options.scatter.straggler_factor = 0.0;  // measure the raw split
  FleetFrontDoor scatter_door(router, scatter_options);

  // Bit-identity first: same seed both ways (the sub-range cache keys are
  // distinct from the whole-query key, so the scatter still computes cold).
  {
    const Json q =
        estimate_query(n, trials, next_scatter_seed(router, n, trials, 0.0));
    std::string whole_line, scatter_line;
    verdict.check(timed_request(whole_door, q, &whole_line) >= 0,
                  "whole-path query answered ok");
    verdict.check(timed_request(scatter_door, q, &scatter_line) >= 0,
                  "scattered query answered ok");
    std::string e1, e2;
    const Json whole_doc = Json::parse(whole_line, &e1);
    const Json scatter_doc = Json::parse(scatter_line, &e2);
    verdict.check(scatter_doc["scattered"].as_uint() == kBackends,
                  "scatter split " + std::to_string(kBackends) + " ways");
    verdict.check(
        whole_doc["result"].dump() == scatter_doc["result"].dump(),
        "merged result bit-identical to the single-backend result");
  }

  // Timed reps: a fresh seed per run keeps every measurement a cold
  // compute; scatter seeds are screened for one-shard-per-backend layout.
  std::vector<double> whole_ms, scatter_ms;
  for (int r = 0; r < reps; ++r) {
    std::string line;
    const double ms = timed_request(
        whole_door, estimate_query(n, trials, 100000.0 + r), &line);
    verdict.check(ms >= 0, "whole rep " + std::to_string(r) + " ok");
    if (ms >= 0) whole_ms.push_back(ms);
  }
  const auto subs_before = scatter_door.scatter_stats().subqueries;
  double seed = 200000.0;
  for (int r = 0; r < reps; ++r) {
    seed = next_scatter_seed(router, n, trials, seed);
    std::string line;
    const double ms =
        timed_request(scatter_door, estimate_query(n, trials, seed), &line);
    verdict.check(ms >= 0, "scatter rep " + std::to_string(r) + " ok");
    if (ms >= 0) scatter_ms.push_back(ms);
  }
  const auto subs = scatter_door.scatter_stats().subqueries - subs_before;
  verdict.check(subs == kBackends * static_cast<std::uint64_t>(reps),
                "every timed scatter dispatched " +
                    std::to_string(kBackends) + " sub-queries");

  Table t({"mode", "reps", "median_ms", "best_ms"});
  const auto med = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
  };
  const auto best = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
  };
  t.add_row({"whole", Table::integer(std::int64_t(whole_ms.size())),
             Table::num(med(whole_ms), 1), Table::num(best(whole_ms), 1)});
  t.add_row({"scatter", Table::integer(std::int64_t(scatter_ms.size())),
             Table::num(med(scatter_ms), 1),
             Table::num(best(scatter_ms), 1)});
  t.print(std::cout);

  const double speedup =
      med(scatter_ms) > 0 ? med(whole_ms) / med(scatter_ms) : 0.0;
  std::cout << "\nspeedup: " << Table::num(speedup, 2) << "x (gate "
            << Table::num(gate, 1) << "x"
            << (cpu_capped ? ", waived: cpu_capped" : "") << ")\n";
  if (!cpu_capped) {
    verdict.check(speedup >= gate,
                  "scatter speedup >= " + Table::num(gate, 1) + "x (got " +
                      Table::num(speedup, 2) + "x)");
  }

  router.stop();
  for (auto& p : procs) p.terminate(2000);

  std::cout << "\n"
            << (verdict.failures() == 0 ? "BENCH PASS: scatter-gather speedup"
                                        : "BENCH FAIL")
            << "\n";
  return verdict.exit_code();
}
