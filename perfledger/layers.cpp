// perfledger per-layer replays (traced mode).  Each workload replays its
// requests while spans wrap the benchmark's own calls into each layer's
// public functions; the per-layer metrics are read off those spans.  Every
// answer is still checked: a replay returns false on a wrong one.

#include <cstdio>
#include <iostream>
#include <optional>

#include "netemu/fleet/front_door.hpp"
#include "netemu/fleet/router.hpp"
#include "netemu/routing/packet_sim.hpp"
#include "netemu/routing/router.hpp"
#include "netemu/routing/throughput.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/planner.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/query.hpp"
#include "netemu/service/result_cache.hpp"
#include "netemu/topology/factory.hpp"
#include "netemu/traffic/distribution.hpp"
#include "netemu/util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfledger {

using netemu::Json;

namespace {

/// Rounds over the hit key set (160 keys each).
constexpr int kHitRounds = 25;
/// Fixed replay inputs, independent of --seed, so the simulation counts
/// (sim.ticks, sim.messages) repeat exactly in every run.  Estimate replays
/// use query seeds 100.. and sweep replays scan from kReplaySeed; the timed
/// streams draw theirs from 1000 + a random 40-bit offset.
constexpr std::uint64_t kReplaySeed = 0x5EED;
constexpr std::uint64_t kEstimateReplays = 16;  ///< four of each shape
constexpr int kSweepReplays = 6;
constexpr int kPutsPerAnswer = 4;

double ms(double ns) { return ns / 1e6; }
double us(double ns) { return ns / 1e3; }

netemu::Query parse_query(const Json& doc) {
  std::string error;
  return *netemu::query_from_json(doc, &error);
}

/// The result document of a fleet answer tail
/// (',"ok":true,"result":<doc>,"served_by":"..."}').
std::string fleet_result(const std::string& tail) {
  const std::size_t end = tail.rfind(",\"served_by\":");
  return tail.substr(kResultMarker.size(), end - kResultMarker.size());
}

/// One estimate's simulation layers, timed call by call the way
/// plan_estimate and measure_throughput make them.
struct TrialProbe {
  double build_ns = 0;        ///< make_machine
  double calibration_ns = 0;  ///< measure_throughput, trials = 1
  double route_ns = 0;        ///< Router::route_append over one batch
  double flatten_ns = 0;      ///< PacketSimulator::append over one batch
  double run_ns = 0;          ///< PacketSimulator::run_batch
  double sweep_ns = 0;        ///< measure_throughput on the pool
  double hops = 0;
  double message_ticks = 0;   ///< messages x avg_latency of the batch

  double trial_ns() const { return route_ns + flatten_ns + run_ns; }
  double route_share() const {
    return (route_ns + flatten_ns) / trial_ns();
  }
};

TrialProbe probe_trial(SpanBuffer& buffer, std::uint64_t id,
                       const netemu::Query& q, netemu::ThreadPool* pool) {
  TrialProbe p;
  netemu::Prng rng(q.seed);
  std::optional<netemu::Machine> machine;
  p.build_ns = timed(buffer, "topology.build", id, [&] {
    machine.emplace(netemu::make_machine(
        q.family, static_cast<std::size_t>(q.n), q.k, rng));
  });
  const std::unique_ptr<netemu::Router> router =
      netemu::make_default_router(*machine);
  std::vector<netemu::Vertex> processors = machine->processors;
  if (processors.empty()) {
    for (std::size_t v = 0; v < machine->graph.num_vertices(); ++v) {
      processors.push_back(static_cast<netemu::Vertex>(v));
    }
  }
  const auto traffic =
      netemu::TrafficDistribution::symmetric(std::move(processors));

  netemu::ThroughputOptions calibrate;
  calibrate.trials = 1;
  calibrate.arbitration = q.arbitration;
  netemu::ThroughputResult calibrated;
  netemu::Prng calibrate_rng = rng;
  p.calibration_ns = timed(buffer, "throughput.calibration", id, [&] {
    calibrated = netemu::measure_throughput(*machine, *router, traffic,
                                            calibrate_rng, calibrate);
  });

  // One trial's batch at the calibrated size: route every message, then
  // flatten every path, then simulate — three spans instead of the
  // interleaved loop measure_throughput runs.
  netemu::Prng trial_rng = netemu::Prng::stream(q.seed, 1);
  const std::vector<netemu::Message> batch_messages =
      traffic.batch(calibrated.messages, trial_rng);
  std::vector<netemu::Vertex> flat;
  std::vector<std::size_t> offsets = {0};
  std::vector<netemu::Vertex> path;
  p.route_ns = timed(buffer, "routing.route", id, [&] {
    for (const netemu::Message& m : batch_messages) {
      router->route_append(m.src, m.dst, trial_rng, path);
      flat.insert(flat.end(), path.begin(), path.end());
      offsets.push_back(flat.size());
    }
  });
  const netemu::PacketSimulator sim(*machine, q.arbitration);
  netemu::PacketSimulator::PreparedBatch batch;
  p.flatten_ns = timed(buffer, "sim.flatten", id, [&] {
    batch.reserve(batch_messages.size(), flat.size());
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
      path.assign(flat.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
                  flat.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]));
      sim.append(batch, path);
    }
  });
  netemu::BatchStats stats;
  p.run_ns = timed(buffer, "sim.run_batch", id,
                   [&] { stats = sim.run_batch(batch, trial_rng); });
  p.hops = static_cast<double>(batch.total_hops());
  p.message_ticks = static_cast<double>(stats.delivered) * stats.avg_latency;

  if (pool != nullptr) {
    netemu::ThroughputOptions sweep;
    sweep.trials = q.trials;
    sweep.arbitration = q.arbitration;
    sweep.pool = pool;
    netemu::Prng sweep_rng = rng;
    p.sweep_ns = timed(buffer, "throughput.sweep", id, [&] {
      netemu::measure_throughput(*machine, *router, traffic, sweep_rng,
                                 sweep);
    });
  }
  return p;
}

/// Median over probes of f(probe).
template <class F>
double median_of(const std::vector<TrialProbe>& probes, F f) {
  std::vector<double> values;
  for (const TrialProbe& p : probes) values.push_back(f(p));
  return median(values);
}

netemu::FleetRouter::Options router_options(const Deployment& d) {
  // netemu_fleet's defaults, with background probing off as the workloads
  // run it (--probe-ms 0).
  netemu::FleetRouter::Options options;
  for (auto port : d.backend_ports) options.backends.push_back({port, ""});
  options.probe_interval_ms = 0;
  options.client.max_attempts = 2;
  options.client.attempt_timeout_ms = 10000;
  return options;
}

}  // namespace

// ------------------------------------------------------------------- hits

bool HitWorkload::replay(Deployment& d, Tracer& tracer,
                         std::vector<Metric>& out, std::ostream& log) {
  SpanBuffer& buffer = tracer.new_buffer();
  bool ok = true;
  std::string response;

  if (!fleet_) {
    // In-process twins of the daemon's hit path, warmed with its answers.
    netemu::ResultCache cache(4096);
    netemu::QueryExecutor::Options options;
    options.threads = 1;
    netemu::QueryExecutor executor(options);
    std::vector<std::string> results;
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      results.push_back(direct_result(tails_[k]));
      cache.put(keys_[k].key, results.back());
      executor.cache().put(keys_[k].key, results.back());
    }
    netemu::Client client;
    std::string error;
    if (!client.connect(d.entry_port, &error)) return false;

    std::vector<double> parse, canon, get, fast, rtt, plane;
    for (int round = 0; round < kHitRounds; ++round) {
      for (std::size_t k = 0; k < keys_.size(); ++k) {
        const std::uint64_t id = std::uint64_t(round) << 32 | k;
        const std::string& line = keys_[k].line;
        Span root(&buffer, "hit.replay", id);
        Json doc;
        std::optional<netemu::Query> q;
        std::uint64_t key = 0;
        std::optional<std::string> hit, fast_line;
        bool answered = false;
        parse.push_back(timed(buffer, "json.parse", id,
                              [&] { doc = Json::parse(line, &error); }));
        canon.push_back(timed(buffer, "query.canon", id, [&] {
          q = netemu::query_from_json(doc, &error);
          key = q ? q->cache_key() : 0;
        }));
        get.push_back(timed(buffer, "cache.get", id,
                            [&] { hit = cache.get_if_hit(key); }));
        fast.push_back(timed(buffer, "protocol.fast", id, [&] {
          fast_line = netemu::try_handle_request_line_fast(line, executor);
        }));
        rtt.push_back(timed(buffer, "io.rtt", id, [&] {
          answered = client.request_raw(line, response);
        }));
        plane.push_back(rtt.back() - fast.back());
        ok = ok && key == keys_[k].key && hit && *hit == results[k] &&
             fast_line && check(0, k, *fast_line) && answered &&
             check(0, k, response);
      }
    }
    out.push_back({"json.parse_us", us(median(parse)), "us"});
    out.push_back({"query.canon_us", us(median(canon)), "us"});
    out.push_back({"cache.get_us", us(median(get)), "us"});
    out.push_back({"protocol.fast_us", us(median(fast)), "us"});
    out.push_back({"io.rtt_us", us(median(rtt)), "us"});
    out.push_back({"io.plane_us", us(median(plane)), "us"});
    log << "replay hit_direct: " << rtt.size() << " requests, "
        << (ok ? "all answers matched" : "WRONG ANSWER") << "\n";
    return ok;
  }

  // The fleet hop, in-process: a FleetRouter and front door over the same
  // two backends, and a direct client per backend for the same keys.
  netemu::FleetRouter router(router_options(d));
  netemu::FleetFrontDoor::Options door_options;
  door_options.scatter.min_trials = 16;
  door_options.scatter.max_ways = 2;
  netemu::FleetFrontDoor door(router, door_options);
  std::vector<std::unique_ptr<netemu::Client>> direct;
  for (auto port : d.backend_ports) {
    direct.push_back(std::make_unique<netemu::Client>());
    std::string error;
    if (!direct.back()->connect(port, &error)) return false;
  }

  std::vector<double> route, hop, line_ns;
  for (int round = 0; round < kHitRounds; ++round) {
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      const std::uint64_t id = std::uint64_t(round) << 32 | k;
      const Request& e = keys_[k];
      const std::string result = fleet_result(tails_[k]);
      Span root(&buffer, "fleet.replay", id);
      netemu::FleetRouter::Result routed;
      bool answered = false;
      std::string door_line;
      route.push_back(timed(buffer, "fleet.route", id,
                            [&] { routed = router.request(e.doc); }));
      const double rtt = timed(buffer, "fleet.io.rtt", id, [&] {
        answered = direct[e.owner]->request_raw(e.line, response);
      });
      hop.push_back(route.back() - rtt);
      line_ns.push_back(timed(buffer, "front_door.line", id, [&] {
        bool shutdown = false;
        door_line = door.handle_line(e.line, &shutdown);
      }));
      ok = ok && routed.ok && routed.backend == e.owner &&
           routed.doc["cache_hit"].as_bool() &&
           routed.doc["result"].dump() == result && answered &&
           Json::parse(direct_result(response)).dump() == result &&
           check(0, k, door_line);
    }
  }
  const netemu::FleetRouter::Stats stats = router.stats();
  out.push_back({"fleet.route_us", us(median(route)), "us"});
  out.push_back({"fleet.hop_us", us(median(hop)), "us"});
  out.push_back({"front_door.line_us", us(median(line_ns)), "us"});
  out.push_back({"fleet.tries_per_request",
                 double(stats.requests + stats.failovers) /
                     double(stats.requests),
                 "count"});
  log << "replay fleet_hit: " << route.size() << " keys x 3 paths, "
      << (ok ? "all answers matched" : "WRONG ANSWER") << "\n";
  return ok;
}

// -------------------------------------------------------- cold estimates

bool EstimateWorkload::replay(Deployment& d, Tracer& tracer,
                              std::vector<Metric>& out, std::ostream& log) {
  SpanBuffer& buffer = tracer.new_buffer();
  netemu::Client client;
  std::string error;
  if (!client.connect(d.entry_port, &error)) return false;
  netemu::ThreadPool pool(kThreads);  // the daemon's pool size
  const std::string put_path = config_.run_dir + "/replay_put_cache.json";
  std::remove(put_path.c_str());
  std::remove((put_path + ".wal").c_str());
  bool ok = true;
  double ticks = 0, messages = 0;
  std::vector<TrialProbe> probes;
  std::vector<double> plan, overhead, put, efficiency;
  std::map<std::string, std::vector<double>> share;
  // A fresh benchmark process pays first-use costs (heap growth, page faults)
  // the long-running daemon has long paid: plan each shape once untimed.
  const auto replay_query = [](std::uint64_t i) {
    Json doc = query(0, i);
    doc["seed"] = double(100 + i);
    return doc;
  };
  for (std::size_t i = 0; i < mix().size(); ++i) {
    netemu::plan_query(parse_query(replay_query(kEstimateReplays + i)), &pool);
  }
  {
    netemu::ResultCache journaled(4096, put_path, /*journal=*/true);
    for (std::uint64_t i = 0; i < kEstimateReplays; ++i) {
      const Json doc = replay_query(i);
      const std::string line = doc.dump();
      const netemu::Query q = parse_query(doc);
      Span root(&buffer, "estimate.replay", i);
      std::string response, planned;
      bool answered = false;
      const double rtt = timed(buffer, "daemon.rtt", i, [&] {
        answered = client.request_raw(line, response);
      });
      // On a pool worker, as the daemon's executor runs it.
      plan.push_back(timed(buffer, "planner.plan", i, [&] {
        pool.submit([&] { planned = netemu::plan_query(q, &pool).dump(); });
        pool.wait_idle();
      }));
      overhead.push_back(rtt - plan.back());
      const std::string result = direct_result(response);
      ok = ok && answered && !result.empty() && result == planned;
      const Json answer = Json::parse(result);
      ticks += answer["simulated_ticks"].as_number();
      messages += answer["messages"].as_number();

      probes.push_back(probe_trial(buffer, i, q, &pool));
      const TrialProbe& p = probes.back();
      efficiency.push_back(double(q.trials) * p.trial_ns() /
                           (double(kThreads) * p.sweep_ns));
      share[mix()[i % mix().size()].label].push_back(p.route_share());
      for (int j = 0; j < kPutsPerAnswer; ++j) {
        put.push_back(timed(buffer, "cache.put", i, [&] {
          journaled.put(q.cache_key() + std::uint64_t(j), result);
        }));
      }
    }
  }
  std::remove(put_path.c_str());
  std::remove((put_path + ".wal").c_str());

  out.push_back({"topology.build_ms",
                 ms(median_of(probes, [](const TrialProbe& p) {
                   return p.build_ns;
                 })),
                 "ms"});
  out.push_back({"routing.route_ns_per_hop",
                 median_of(probes, [](const TrialProbe& p) {
                   return p.route_ns / p.hops;
                 }),
                 "ns"});
  out.push_back({"sim.flatten_ns_per_hop",
                 median_of(probes, [](const TrialProbe& p) {
                   return p.flatten_ns / p.hops;
                 }),
                 "ns"});
  out.push_back({"sim.tick_ns_per_msg_tick",
                 median_of(probes, [](const TrialProbe& p) {
                   return p.run_ns / p.message_ticks;
                 }),
                 "ns"});
  for (const Shape& s : mix()) {
    out.push_back({std::string("sim.route_share.") + s.label,
                   median(share[s.label]), "ratio"});
  }
  out.push_back({"throughput.calibration_ms",
                 ms(median_of(probes, [](const TrialProbe& p) {
                   return p.calibration_ns;
                 })),
                 "ms"});
  out.push_back({"throughput.parallel_eff", median(efficiency), "ratio"});
  out.push_back({"planner.plan_ms", ms(median(plan)), "ms"});
  out.push_back({"executor.overhead_ms", ms(median(overhead)), "ms"});
  out.push_back({"cache.put_us", us(median(put)), "us"});
  out.push_back({"sim.ticks", ticks, "count"});
  out.push_back({"sim.messages", messages, "count"});
  log << "replay estimate_cold: " << kEstimateReplays << " estimates, "
      << (ok ? "daemon answers equal in-process plan_query"
             : "WRONG ANSWER")
      << "\n";
  return ok;
}

// ------------------------------------------------------------- sweeps

bool SweepWorkload::replay(Deployment& d, Tracer& tracer,
                           std::vector<Metric>& out, std::ostream& log) {
  SpanBuffer& buffer = tracer.new_buffer();
  netemu::FleetRouter router(router_options(d));
  netemu::FleetFrontDoor::Options door_options;
  door_options.scatter.min_trials = kTrials;
  door_options.scatter.max_ways = 2;
  netemu::FleetFrontDoor door(router, door_options);

  bool ok = true;
  double ticks = 0, messages = 0;
  std::vector<double> sweep_ns, shard_max, shard_min;
  std::vector<TrialProbe> probes;
  std::uint64_t cursor = kReplaySeed;
  for (int j = 0; j < kSweepReplays; ++j) {
    const auto id = static_cast<std::uint64_t>(j);
    // A sweep through the front door, and a twin sweep (another cold seed
    // with the same layout) whose shards go out one at a time.
    const Json doc = sweep(&cursor, ids_);
    const Json twin = sweep(&cursor, ids_);
    Span root(&buffer, "sweep.replay", id);
    std::string line;
    sweep_ns.push_back(timed(buffer, "scatter.sweep", id, [&] {
      bool shutdown = false;
      line = door.handle_line(doc.dump(), &shutdown);
    }));
    const Json answer = Json::parse(line);
    ok = ok && answer["ok"].as_bool() && answer["scattered"].as_uint() == 2 &&
         !answer["degraded"].as_bool();
    ticks += answer["result"]["simulated_ticks"].as_number();
    messages += answer["result"]["messages"].as_number();

    double shard_ns[2] = {0, 0};
    for (unsigned s = 0; s < 2; ++s) {
      netemu::FleetRouter::Result r;
      shard_ns[s] = timed(buffer, "scatter.shard", id,
                          [&] { r = router.request(shard(twin, s)); });
      ok = ok && r.ok && r.doc["ok"].as_bool() && r.backend == s &&
           !r.doc["cache_hit"].as_bool();
    }
    shard_max.push_back(std::max(shard_ns[0], shard_ns[1]));
    shard_min.push_back(std::min(shard_ns[0], shard_ns[1]));
    probes.push_back(probe_trial(buffer, id, parse_query(twin), nullptr));
  }
  const netemu::Scatterer::Stats stats = door.scatter_stats();

  const double calibration = median_of(
      probes, [](const TrialProbe& p) { return p.calibration_ns; });
  out.push_back({"scatter.sweep_ms", ms(median(sweep_ns)), "ms"});
  out.push_back({"scatter.shard_ms_max", ms(median(shard_max)), "ms"});
  out.push_back({"scatter.shard_ms_min", ms(median(shard_min)), "ms"});
  out.push_back({"scatter.merge_overhead_ms",
                 ms(median(sweep_ns) - median(shard_max)), "ms"});
  out.push_back({"throughput.calibration_ms.sweep", ms(calibration), "ms"});
  out.push_back({"scatter.calibration_share",
                 calibration / median(shard_max), "ratio"});
  out.push_back({"routing.route_ns_per_hop.sweep",
                 median_of(probes, [](const TrialProbe& p) {
                   return p.route_ns / p.hops;
                 }),
                 "ns"});
  out.push_back({"sim.flatten_ns_per_hop.sweep",
                 median_of(probes, [](const TrialProbe& p) {
                   return p.flatten_ns / p.hops;
                 }),
                 "ns"});
  out.push_back({"sim.tick_ns_per_msg_tick.sweep",
                 median_of(probes, [](const TrialProbe& p) {
                   return p.run_ns / p.message_ticks;
                 }),
                 "ns"});
  out.push_back({"scatter.subqueries",
                 double(stats.subqueries) / double(stats.scatters), "count"});
  out.push_back({"scatter.straggler_retries",
                 double(stats.straggler_retries), "count"});
  out.push_back({"sim.ticks.sweep", ticks, "count"});
  out.push_back({"sim.messages.sweep", messages, "count"});
  log << "replay scatter_sweep: " << kSweepReplays << " sweeps, "
      << stats.straggler_retries << " straggler retries, "
      << (ok ? "every sweep scattered 2 ways" : "WRONG ANSWER") << "\n";
  return ok;
}

}  // namespace perfledger
