// soak: the service's acceptance soaks in one runner.  `--scenario` picks
// one; it runs once per seed, and the run prints one results table, a
// CHECK FAILED line per failed gate, and SOAK PASS or SOAK FAIL (exit
// nonzero on any failure).  Every query asks about a unique size or seed,
// so each answer is checked against the request it answers.
//
//   soak --scenario kill9|drain|overload|faults [--seeds N] [--first-seed S]
//        [--requests R] [--hedge] [--p99-gate-ms MS] [--plan SPEC]
//        [--serve-bin PATH]
//
// Reproduce one seed exactly:  soak --scenario <s> --seeds 1 --first-seed <n>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "netemu/faultline/client_mix.hpp"
#include "netemu/faultline/fault_plan.hpp"
#include "netemu/faultline/injector.hpp"
#include "netemu/faultline/process.hpp"
#include "netemu/fleet/router.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/result_cache.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/cli.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/table.hpp"

using namespace netemu;

namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  std::uint64_t requests = 0;
  bool hedge = false;
  double p99_gate_ms = 0.0;
  std::optional<FaultPlan> plan;  ///< faults: --plan, for every seed
  std::string serve_bin;
};

/// One seed's outcome: its table row (between the seed and secs columns)
/// and its gates, or the harness failure (spawn, connect, ...) that voids
/// them.
struct SeedRun {
  std::vector<std::string> row;
  std::vector<std::pair<bool, std::string>> gates;
  std::string error;

  void gate(bool ok, std::string what) {
    gates.emplace_back(ok, std::move(what));
  }
};

std::string count(std::uint64_t v) {
  return Table::integer(static_cast<long long>(v));
}

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

std::string cache_path(const std::string& scenario, std::uint64_t seed,
                       std::size_t backend) {
  return "/tmp/netemu_soak_" + scenario + "_" + std::to_string(seed) + "_" +
         std::to_string(backend) + ".json";
}

void remove_cache(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

/// The unique-size query: a closed-form answer that echoes `n`, so an
/// answer to any other request cannot pass for this one's.
Json bandwidth_query(double n) {
  Json q = Json::object();
  q["op"] = "bandwidth";
  q["family"] = "Mesh";
  q["k"] = 2;
  q["n"] = n;
  return q;
}

/// Lost and wrong answers to unique-size queries, tallied from any thread.
struct Answers {
  std::atomic<std::uint64_t> lost{0};   ///< no ok response (must be 0)
  std::atomic<std::uint64_t> wrong{0};  ///< answered another size (must be 0)

  /// Tally the response `doc` (null: none arrived) to bandwidth_query(n).
  void check(const Json* doc, double n) {
    if (doc == nullptr || !(*doc)["ok"].as_bool()) {
      ++lost;
    } else if ((*doc)["result"]["n"].as_number() != n) {
      ++wrong;
    }
  }
};

/// One request straight to a backend, on a fresh connection.
std::optional<Json> ask(std::uint16_t port, const Json& q,
                        std::string* error) {
  Client client;
  client.set_target(port);
  return client.request(q, error);
}

// ----------------------------------------------------------- rolling fleet

constexpr std::size_t kBackends = 3;
constexpr int kStops = 2;  ///< scheduled stop/restart faults per seed

/// Three real netemu_serve backends (journaling caches) behind one
/// FleetRouter, stopped and restarted on process_fault_schedule while a
/// stream of unique-size queries flows through the router.  kill9 and
/// drain share it; they differ in how a backend stops and in when its stop
/// has run its course.
class RollingFleet {
 public:
  struct Backend {
    std::unique_ptr<ManagedProcess> proc;
    std::uint16_t port = 0;  ///< pinned after the first (ephemeral) bind
    std::string cache_file;
    bool stopped = false;  ///< from its scheduled stop until its restart
    bool settled = false;  ///< ... and the stop has run its course
    std::uint64_t restart_at = 0;  ///< request index its down window ends
    Clock::time_point stopped_at;
  };

  /// What a scenario does to backend `b`.
  struct Policy {
    /// Stop it: a scheduled fault found it serving.
    std::function<bool(std::size_t b, std::string* error)> stop;
    /// Has its stop run its course?  Asked before each request until it
    /// says yes; a stopped backend restarts only then, and only once its
    /// down window has passed.
    std::function<bool(std::size_t b)> settled;
    /// After each restart (optional).
    std::function<void(std::size_t b)> restarted;
  };

  RollingFleet(const std::string& scenario, std::uint64_t seed,
               const Config& config, std::vector<std::string> serve_args)
      : backends(kBackends),
        seed_(seed),
        config_(config),
        serve_args_(std::move(serve_args)) {
    for (std::size_t b = 0; b < kBackends; ++b) {
      backends[b].cache_file = cache_path(scenario, seed, b);
      remove_cache(backends[b].cache_file);
    }
  }

  ~RollingFleet() {
    if (router) router->stop();
    for (Backend& b : backends) {
      if (b.proc) b.proc->terminate(2000);
      remove_cache(b.cache_file);
    }
  }

  RollingFleet(const RollingFleet&) = delete;
  RollingFleet& operator=(const RollingFleet&) = delete;

  bool start(std::string* error) {
    for (std::size_t b = 0; b < kBackends; ++b) {
      if (!spawn(b, error)) return false;
    }
    FleetRouter::Options options;
    for (const Backend& b : backends) options.backends.push_back({b.port, ""});
    options.health.failure_threshold = 2;
    options.health.open_cooldown_ms = 200;
    options.probe_interval_ms = 50;
    options.client.max_attempts = 2;
    options.client.base_backoff_ms = 1;
    options.client.max_backoff_ms = 20;
    options.client.attempt_timeout_ms = 5000;
    options.hedge = config_.hedge;
    router = std::make_unique<FleetRouter>(options);
    return true;
  }

  /// Drive --requests queries through the router while walking the stop
  /// schedule; after the stream every stop still gets up to 5 s to settle,
  /// so each settled backend restarts.  Starts `out`'s row with the req,
  /// lost and wrong cells, and gates zero lost and zero wrong answers.
  bool run(const Policy& policy, SeedRun& out) {
    const std::vector<ProcessFault> schedule =
        process_fault_schedule(seed_, kBackends, config_.requests, kStops);
    std::size_t next_fault = 0;
    Answers answers;
    for (std::uint64_t i = 0; i < config_.requests; ++i) {
      for (std::size_t b = 0; b < kBackends; ++b) {
        if (!restart_if_due(b, i, policy, &out.error)) return false;
      }
      while (next_fault < schedule.size() &&
             schedule[next_fault].at_request <= i) {
        const ProcessFault& f = schedule[next_fault++];
        Backend& victim = backends[f.backend];
        if (victim.stopped) continue;
        victim.stopped = true;
        victim.settled = false;
        victim.stopped_at = Clock::now();
        victim.restart_at = f.at_request + f.down_for_requests;
        if (!policy.stop(f.backend, &out.error)) return false;
      }
      const double n = 4096 + static_cast<double>(seed_) * 1e6 +
                       static_cast<double>(i);
      const FleetRouter::Result r = router->request(bandwidth_query(n));
      answers.check(r.ok ? &r.doc : nullptr, n);
    }
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    for (std::size_t b = 0; b < kBackends; ++b) {
      while (backends[b].stopped && Clock::now() < deadline) {
        if (!restart_if_due(b, UINT64_MAX, policy, &out.error)) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    out.row = {count(config_.requests), count(answers.lost),
               count(answers.wrong)};
    out.gate(answers.lost == 0, "zero lost queries");
    out.gate(answers.wrong == 0, "zero wrong answers");
    return true;
  }

  std::uint64_t ejections(std::size_t b) const {
    return router->stats().backends[b].ejections;
  }

  std::vector<Backend> backends;
  std::unique_ptr<FleetRouter> router;

 private:
  /// Restart backend `b` if it is stopped, its stop has run its course and
  /// its down window ends by request `i`.
  bool restart_if_due(std::size_t b, std::uint64_t i, const Policy& policy,
                      std::string* error) {
    Backend& backend = backends[b];
    if (!backend.stopped) return true;
    if (!backend.settled) backend.settled = policy.settled(b);
    if (!backend.settled || backend.restart_at > i) return true;
    if (!spawn(b, error)) return false;
    if (policy.restarted) policy.restarted(b);
    return true;
  }

  /// Start (or restart) backend `b` and block until it prints its listen
  /// line.  The first start binds an ephemeral port; restarts pin it.
  bool spawn(std::size_t b, std::string* error) {
    Backend& backend = backends[b];
    backend.proc = std::make_unique<ManagedProcess>();
    backend.stopped = false;
    return bench::spawn_serve(*backend.proc, config_.serve_bin,
                              {.port = backend.port,
                               .cache_file = backend.cache_file,
                               .extra_args = serve_args_},
                              &backend.port, error);
  }

  const std::uint64_t seed_;
  const Config& config_;
  const std::vector<std::string> serve_args_;
};

// kill9: hard-kill (SIGKILL: no shutdown save, only the WAL survives) and
// restart backends of the rolling fleet mid-stream.  Gates per seed:
//   * zero lost queries: a down backend's traffic fails over to the next
//     rendezvous choice;
//   * zero wrong answers: no cross-wiring through failover or pools;
//   * the schedule killed a backend, and every kill got a warm check;
//   * crash recovery is WARM: after a kill -9 + restart, the backend's
//     FIRST repeat of a query it answered before the faults is a cache hit
//     (served from the WAL-replayed cache, not recomputed);
//   * the breaker worked: every kill shows up as an ejection.
SeedRun run_kill9(const Config& config, std::uint64_t seed) {
  SeedRun out;
  RollingFleet fleet("kill9", seed, config, {});
  if (!fleet.start(&out.error)) return out;

  // Warm phase: ask each backend directly for a query of its own, so its
  // cache — and its WAL — holds the result before any kill.
  std::vector<Json> warm_query;
  for (std::size_t b = 0; b < kBackends; ++b) {
    warm_query.push_back(bandwidth_query(
        8192 + static_cast<double>(seed) * 1e7 + static_cast<double>(b)));
    const auto doc = ask(fleet.backends[b].port, warm_query[b], &out.error);
    if (!doc || !(*doc)["ok"].as_bool()) {
      out.error = "warm query failed: " + out.error;
      return out;
    }
  }

  std::uint64_t kills = 0, warm_checks = 0, warm_failures = 0;
  std::vector<std::uint64_t> ejections_before(kBackends, 0);
  RollingFleet::Policy policy;
  policy.stop = [&](std::size_t b, std::string*) {
    ejections_before[b] = fleet.ejections(b);
    fleet.backends[b].proc->kill_hard();
    ++kills;
    return true;
  };
  // Down until the router has ejected it: a window of a few requests can
  // end before a second failure or a probe opens the breaker.  A breaker
  // that never opens fails the ejection gate once 2 s have passed.
  policy.settled = [&](std::size_t b) {
    return fleet.ejections(b) > ejections_before[b] ||
           ms_since(fleet.backends[b].stopped_at) >= 2000.0;
  };
  policy.restarted = [&](std::size_t b) {
    ++warm_checks;
    std::string error;
    const auto doc = ask(fleet.backends[b].port, warm_query[b], &error);
    if (!doc || !(*doc)["ok"].as_bool() || !(*doc)["cache_hit"].as_bool()) {
      ++warm_failures;
      std::cerr << "seed " << seed << ": backend " << b
                << " NOT warm after restart: " << (doc ? doc->dump() : error)
                << "\n";
    }
  };
  if (!fleet.run(policy, out)) return out;

  const FleetRouter::Stats stats = fleet.router->stats();
  std::uint64_t ejections = 0;
  for (const auto& b : stats.backends) ejections += b.ejections;
  out.row.insert(out.row.end(), {count(stats.failovers), count(ejections),
                                 count(kills),
                                 count(warm_checks - warm_failures)});
  out.gate(kills > 0, "schedule killed a backend");
  out.gate(warm_checks >= kills, "every kill got a recovery check");
  out.gate(warm_failures == 0,
           "restarted backends WAL-warm (cache_hit on first repeat)");
  out.gate(ejections >= kills, "breaker ejected every killed backend");
  return out;
}

// drain: stop backends of the rolling fleet gracefully, alternating SIGTERM
// and a wire {"op":"drain"}, the two ways into one drain sequence.  A
// stopped backend must DRAIN, not die: stop accepting, finish or cancel
// in-flight work within --drain-ms 1000, snapshot its cache, exit 0.
// Gates per seed:
//   * zero lost queries: traffic aimed at a draining backend fails over
//     (the draining executor sheds new flights); zero wrong answers;
//   * the schedule stopped a backend;
//   * every drain is CLEAN: exit status 0 — not 128+SIGTERM, not SIGKILL
//     after an overrun grace period;
//   * every drain is FAST: stop-to-exit under 2 seconds.
SeedRun run_drain(const Config& config, std::uint64_t seed) {
  SeedRun out;
  RollingFleet fleet("drain", seed, config, {"--drain-ms", "1000"});
  if (!fleet.start(&out.error)) return out;

  int sigterms = 0, drain_ops = 0, drained = 0, clean = 0;
  double worst_drain_ms = 0.0;
  RollingFleet::Policy policy;
  policy.stop = [&](std::size_t b, std::string* error) {
    RollingFleet::Backend& victim = fleet.backends[b];
    if ((sigterms + drain_ops) % 2 == 0) {
      ::kill(victim.proc->pid(), SIGTERM);
      ++sigterms;
      return true;
    }
    const auto reply =
        ask(victim.port, Json::parse(R"({"op":"drain"})"), error);
    if (!reply || !(*reply)["result"]["draining"].as_bool()) {
      *error = "backend refused the drain op";
      return false;
    }
    ++drain_ops;
    return true;
  };
  // A drain has run its course when the process exits.
  policy.settled = [&](std::size_t b) {
    RollingFleet::Backend& victim = fleet.backends[b];
    if (victim.proc->running()) return false;
    ++drained;
    if (victim.proc->exit_status() == 0) ++clean;
    worst_drain_ms = std::max(worst_drain_ms, ms_since(victim.stopped_at));
    return true;
  };
  if (!fleet.run(policy, out)) return out;

  out.row.insert(out.row.end(), {count(sigterms), count(drain_ops),
                                 count(drained), count(clean),
                                 Table::num(worst_drain_ms, 1)});
  out.gate(drained > 0, "schedule stopped a backend");
  out.gate(clean == drained, "every drained backend exited 0");
  out.gate(worst_drain_ms < 2000.0, "every drain finished under 2s");
  return out;
}

// ---------------------------------------------------------------- overload

constexpr double kEstimateN = 64;        // estimate graph size (mesh2, 8x8)
constexpr double kEstimateTrials = 8;    // per-query trials (brownout keeps 2)
constexpr std::size_t kGreedyConnections = 6;  // per greedy identity

/// One storm's tallies, shared by all its connections.
struct Storm {
  std::atomic<std::size_t> shed{0};  ///< overloaded errors
  std::mutex mutex;                  ///< guards the tallies of ok answers
  std::size_t well_ok = 0;    ///< ok responses (degraded included)
  std::size_t greedy_ok = 0;  ///< ... to greedy identities
  std::size_t degraded = 0;   ///< browned-out partials
  std::size_t wrong = 0;      ///< echo mismatch (must stay 0)
  std::size_t duplicate = 0;  ///< cache_hit answers (must be 0)
  std::vector<double> well_latency_ms;
  std::vector<double> degraded_seeds;  ///< rechecked after the storm
};

Json estimate_query(const std::string& client, double unique_seed) {
  Json q = bandwidth_query(kEstimateN);
  q["op"] = "estimate";
  q["trials"] = kEstimateTrials;
  q["seed"] = unique_seed;
  q["client"] = client;
  return q;
}

/// One storm connection: a closed loop until `stop`.  `seed_base` spaces
/// the unique-seed counters so no two connections (across phases and
/// seeds) ever collide.
void storm_connection(const ClientProfile& profile, double seed_base,
                      std::uint16_t port, const std::atomic<bool>& stop,
                      Storm& storm) {
  Prng prng(profile.seed);
  Client client;
  if (!client.connect(port)) return;
  std::string response_line;
  double next_seed = seed_base;
  while (!stop.load(std::memory_order_relaxed)) {
    const bool garbage =
        profile.kind == ClientKind::kMalformed && prng.below(4) != 0;
    const double unique_seed = garbage ? 0.0 : next_seed++;
    const std::string line =
        garbage ? malformed_request_line(prng)
                : estimate_query(profile.name, unique_seed).dump();
    const auto t0 = Clock::now();
    if (!client.request_raw(line, response_line)) {
      // Reconnect once; a drained/stopped backend leaves this failing and
      // the loop spins until the harness raises `stop`.
      if (!client.connect(port)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      continue;
    }
    const double ms = ms_since(t0);
    // Whatever the garbage was, the server answered a line: the gates only
    // require that it survives.
    if (garbage) continue;
    const Json response = Json::parse(response_line);
    if (response.is_object() && response["ok"].as_bool()) {
      const Json& result = response["result"];
      std::lock_guard<std::mutex> lock(storm.mutex);
      if (result["seed"].as_number() != unique_seed ||
          result["machine"]["n"].as_number() != kEstimateN) {
        ++storm.wrong;
      }
      if (response["cache_hit"].as_bool()) ++storm.duplicate;
      if (profile.kind == ClientKind::kWellBehaved) {
        ++storm.well_ok;
        storm.well_latency_ms.push_back(ms);
      } else if (profile.kind == ClientKind::kGreedy) {
        ++storm.greedy_ok;
      }
      if (response["degraded"].as_bool()) {
        ++storm.degraded;
        storm.degraded_seeds.push_back(unique_seed);
      }
    } else if (response.is_object() && response["overloaded"].as_bool()) {
      ++storm.shed;
      const auto hint = response["retry_after_ms"].as_uint();
      if (profile.honor_retry_after) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::min<std::uint64_t>(hint, 100)));
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(profile.think_ms));
  }
}

/// Storm with the mix (each greedy identity on kGreedyConnections
/// connections) until `done()`, polled every 10 ms, says to stop.
/// `phase_base` spaces the seed counters.
void run_storm(const std::vector<ClientProfile>& mix, std::uint16_t port,
               double phase_base, Storm& storm,
               const std::function<bool()>& done) {
  std::vector<const ClientProfile*> slots;
  for (const auto& p : mix) {
    slots.insert(slots.end(),
                 p.kind == ClientKind::kGreedy ? kGreedyConnections : 1, &p);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    // 1e7 seeds per connection, 1e9 per phase: collision-free and exact in
    // a double.
    const double seed_base = phase_base + static_cast<double>(s) * 1e7 + 1.0;
    threads.emplace_back([&, s, seed_base] {
      storm_connection(*slots[s], seed_base, port, stop, storm);
    });
  }
  while (!done()) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stop.store(true);
  for (auto& t : threads) t.join();
}

// overload: ONE netemu_serve with a deliberately small guard budget,
// stormed at several times its capacity by a heterogeneous client mix
// (netemu/faultline/client_mix.hpp): 4 well-behaved clients (think time,
// honour retry_after_ms), 2 greedy identities on 6 connections each (no
// think time, ignore every hint) and 1 malformed client (interleaves
// protocol garbage with real queries).  Every query is an `estimate` with
// a globally unique seed.  Gates per seed:
//   * fairness: well-behaved clients collectively keep >= 70% of their
//     per-identity fair share of served queries, greedy spam
//     notwithstanding;
//   * bounded tail: well-behaved p99 latency stays under --p99-gate-ms;
//   * zero wrong answers (the result echoes the seed), zero duplicate
//     results (a unique query never comes back cache_hit:true);
//   * brownout honesty: degraded responses are never served from cache —
//     re-requesting a formerly degraded query yields a fresh full answer;
//   * the backend survives the malformed client (still answers ping);
//   * a mid-storm SIGTERM drains CLEANLY: exit status 0, under 5 seconds,
//     while the storm is still firing.
SeedRun run_overload(const Config& config, std::uint64_t seed) {
  SeedRun out;
  // Small compute pool + small guard budget: the storm must actually
  // overload it.  A 0.2 client share caps any one identity at 20% of the
  // budget so two greedy identities cannot monopolize admission.
  ManagedProcess backend;
  std::uint16_t port = 0;
  if (!bench::spawn_serve(backend, config.serve_bin,
                          {.cache_file = {},  // memory-only
                           .extra_args = {"--guard-budget", "12",
                                          "--guard-share", "0.2",
                                          "--guard-target-p95-ms", "100",
                                          "--drain-ms", "2000"}},
                          &port, &out.error)) {
    return out;
  }
  const ClientMixSpec spec{
      .seed = seed, .well_behaved = 4, .greedy = 2, .malformed = 1,
      .think_ms = 2};
  const std::vector<ClientProfile> mix = make_client_mix(spec);

  // ---- Phase A: the measured 2.5 s storm. --------------------------------
  const double seed_phase = static_cast<double>(seed) * 1e10;
  const auto storm_end = Clock::now() + std::chrono::milliseconds(2500);
  Storm storm;
  run_storm(mix, port, seed_phase, storm,
            [&] { return Clock::now() >= storm_end; });
  const std::size_t well_ok = storm.well_ok, greedy_ok = storm.greedy_ok;
  // Fairness: the guard's DRR treats identities equally, so the
  // well-behaved identities' fair share of everything actually served is
  // well / (well + greedy).
  const double fair_fraction =
      static_cast<double>(spec.well_behaved) /
      static_cast<double>(spec.well_behaved + spec.greedy);
  const double served = static_cast<double>(well_ok + greedy_ok);
  const double well_share =
      served > 0.0 ? static_cast<double>(well_ok) / (served * fair_fraction)
                   : 0.0;
  const double well_p99_ms =
      well_ok == 0 ? 0.0
                   : scope::exact_quantile(std::move(storm.well_latency_ms),
                                           0.99);

  // ---- Phase B: quiet rechecks on the live backend. ----------------------
  const auto pong = ask(port, Json::parse(R"({"op":"ping"})"), nullptr);
  // Brownout honesty: a degraded partial must not have been cached, so
  // re-requesting it on an idle server yields a fresh FULL answer.
  std::size_t rechecked = 0, recheck_violations = 0;
  const std::size_t recheck = std::min<std::size_t>(storm.degraded, 5);
  for (std::size_t i = 0; i < recheck; ++i) {
    const auto doc =
        ask(port, estimate_query("recheck", storm.degraded_seeds[i]), nullptr);
    if (!doc || !(*doc)["ok"].as_bool()) continue;  // inconclusive, skip
    ++rechecked;
    if ((*doc)["cache_hit"].as_bool() && (*doc)["degraded"].as_bool()) {
      ++recheck_violations;
    }
  }

  // ---- Phase C: SIGTERM 300 ms into a new storm; the drain must be clean.
  const auto storm_start = Clock::now();
  std::optional<Clock::time_point> term_sent;
  Storm draining;
  run_storm(mix, port, seed_phase + 5e9, draining, [&] {
    if (!term_sent && ms_since(storm_start) >= 300.0) {
      term_sent = Clock::now();
      ::kill(backend.pid(), SIGTERM);
    }
    return term_sent && (!backend.running() || ms_since(*term_sent) >= 5000.0);
  });
  const double drain_ms = ms_since(*term_sent);
  const bool drain_clean = !backend.running() && backend.exit_status() == 0;
  backend.terminate(2000);

  out.row = {count(well_ok),          count(greedy_ok),
             Table::num(well_share, 2), Table::num(well_p99_ms, 1),
             count(storm.shed),        count(storm.degraded),
             count(storm.wrong),       count(storm.duplicate),
             Table::num(drain_ms, 1)};
  out.gate(well_ok > 0, "well-behaved clients made progress");
  out.gate(well_share >= 0.70, "well-behaved goodput >= 70% of fair share");
  out.gate(well_p99_ms <= config.p99_gate_ms,
           "well-behaved p99 bounded by --p99-gate-ms");
  out.gate(storm.wrong == 0, "zero wrong answers");
  out.gate(storm.duplicate == 0, "zero duplicate results");
  out.gate(recheck_violations == 0,
           "degraded responses never served from cache (" +
               std::to_string(rechecked) + " rechecked)");
  out.gate(pong && (*pong)["ok"].as_bool(),
           "backend survived the malformed client");
  out.gate(drain_clean, "mid-storm SIGTERM drained cleanly (exit 0, < 5 s)");
  return out;
}

// ------------------------------------------------------------------ faults

constexpr std::size_t kFaultClients = 4;

// faults: one deterministic fault plan per seed (connection drops, partial
// reads/writes, slow I/O, disk-write failures, torn cache files, worker
// stalls); the whole in-process stack — server sockets, client sockets,
// executor workers, cache persistence — runs through one injector while 4
// concurrent retrying clients issue unique-size queries.  Gates per seed:
//   * no lost, duplicated or cross-wired responses: every result echoes
//     the unique size it asked about;
//   * the plan injected faults;
//   * no deadlocks: the soak finishes (the watchdog reaps hung flights);
//   * no cache corruption: after the daemon (and its possibly torn final
//     save) shuts down, a fresh ResultCache loads the file without
//     crashing.
SeedRun run_faults(const Config& config, std::uint64_t seed) {
  SeedRun out;
  FaultPlan plan = config.plan ? *config.plan : FaultPlan::for_seed(seed);
  plan.seed = seed;
  const std::string cache_file = cache_path("faults", seed, 0);
  remove_cache(cache_file);

  FaultInjector injector(plan);
  Answers answers;
  std::atomic<std::uint64_t> retries{0};
  {
    QueryExecutor::Options exec_options;
    exec_options.threads = 4;
    exec_options.max_queue = 64;
    exec_options.hang_timeout_ms = 2000;
    exec_options.cache_file = cache_file;
    exec_options.faults = &injector;
    QueryExecutor executor(std::move(exec_options));
    Server server(executor_line_handler(executor),
                  {.port = 0, .faults = &injector});
    if (!server.start(&out.error)) return out;

    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kFaultClients; ++c) {
      threads.emplace_back([&, c] {
        Client client({.max_attempts = 12,
                       .base_backoff_ms = 1,
                       .max_backoff_ms = 50,
                       .attempt_timeout_ms = 5000,
                       .jitter_seed = seed * 1000 + c + 1});
        client.set_fault_injector(&injector);
        client.set_target(server.port());
        for (std::uint64_t i = 0; i < config.requests; ++i) {
          const double n = 4096 + static_cast<double>(seed) * 1000000 +
                           static_cast<double>(c) * 10000 +
                           static_cast<double>(i);
          const auto doc = client.request(bandwidth_query(n));
          answers.check(doc ? &*doc : nullptr, n);
          // Periodic saves shake the persistence path; they may fail or
          // tear, which is the point.
          if (i % 16 == 15) executor.save_cache();
        }
        retries.fetch_add(client.retries());
      });
    }
    for (auto& t : threads) t.join();
    server.stop();
  }  // executor destructor: final (possibly torn) cache save
  const FaultInjector::Counts faults = injector.counts();

  // Crash-recovery check: the loader must survive whatever the faults left
  // on disk; entries that fail their checksum are quarantined.
  ResultCache reloaded(1 << 16, cache_file);
  const bool loaded = reloaded.load();
  remove_cache(cache_file);

  out.row = {count(kFaultClients * config.requests), count(answers.lost),
             count(answers.wrong),         count(retries.load()),
             count(faults.total()),        count(faults.drops),
             count(faults.torn_writes),    count(faults.stalls),
             count(loaded ? reloaded.size() : 0),
             count(loaded ? reloaded.corrupt_entries() : 0)};
  out.gate(answers.lost == 0, "no lost responses");
  out.gate(answers.wrong == 0, "no duplicated or cross-wired responses");
  out.gate(faults.total() > 0, "plan injected faults");
  return out;
}

// -------------------------------------------------------------- scenarios

struct Scenario {
  const char* name;
  std::vector<std::string> columns;  ///< between "seed" and "secs"
  std::int64_t seeds;     ///< --seeds default
  std::int64_t requests;  ///< --requests default (0: not used)
  SeedRun (*run)(const Config&, std::uint64_t seed);
};

const Scenario kScenarios[] = {
    {"kill9",
     {"req", "lost", "wrong", "failovers", "ejections", "kills", "warm_ok"},
     3, 160, run_kill9},
    {"drain",
     {"req", "lost", "wrong", "sigterm", "drain_op", "drained", "clean",
      "worst_drain_ms"},
     3, 160, run_drain},
    {"overload",
     {"well ok", "greedy ok", "share", "p99 ms", "shed", "degraded", "wrong",
      "dup", "drain ms"},
     3, 0, run_overload},
    {"faults",
     {"req", "fail", "mismatch", "retries", "faults", "drops", "torn",
      "stalls", "reloaded", "quarantined"},
     10, 48, run_faults},
};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string name = cli.get("scenario");
  const Scenario* scenario = nullptr;
  for (const Scenario& s : kScenarios) {
    if (name == s.name) scenario = &s;
  }
  if (scenario == nullptr) {
    std::cerr << "soak: --scenario must be kill9, drain, overload or faults\n";
    return 2;
  }
  std::optional<FaultPlan> plan;
  if (cli.has("plan")) {
    std::string error;
    plan = FaultPlan::parse(cli.get("plan"), &error);
    if (!plan) {
      std::cerr << "soak: bad --plan: " << error << "\n";
      return 2;
    }
  }
  const Config config{
      .requests = static_cast<std::uint64_t>(
          cli.get_int("requests", scenario->requests)),
      .hedge = cli.has("hedge"),
      .p99_gate_ms = cli.get_double("p99-gate-ms", 2000.0),
      .plan = plan,
      .serve_bin =
          cli.get("serve-bin", bench::default_serve_bin(cli.program()))};
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int("seeds", scenario->seeds));
  const auto first_seed =
      static_cast<std::uint64_t>(cli.get_int("first-seed", 1));

  bench::print_header("soak --scenario " + name);
  std::cout << "seeds " << first_seed << ".." << (first_seed + seeds - 1);
  if (scenario->requests > 0) std::cout << ", --requests " << config.requests;
  std::cout << (config.hedge ? ", hedge on" : "") << "\n\n";

  std::vector<std::string> columns = scenario->columns;
  columns.insert(columns.begin(), "seed");
  columns.push_back("secs");
  Table t(columns);
  bench::Verdict verdict;
  for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
    const auto start = Clock::now();
    SeedRun r = scenario->run(config, seed);
    r.row.insert(r.row.begin(), count(seed));
    if (r.error.empty()) r.row.push_back(Table::num(ms_since(start) / 1e3, 2));
    t.add_row(r.row);

    const std::string tag = "seed " + std::to_string(seed);
    verdict.check(r.error.empty(), tag + ": harness ran (" +
                                       (r.error.empty() ? "ok" : r.error) +
                                       ")");
    for (const auto& [ok, what] : r.gates) verdict.check(ok, tag + ": " + what);
  }
  t.print(std::cout);
  std::cout << "\n"
            << (verdict.failures() == 0 ? "SOAK PASS: " + name : "SOAK FAIL")
            << "\n";
  return verdict.exit_code();
}
