// Tests for netemu::scatter — the trial-range wire fields ("trial_lo" /
// "trial_hi"), ranged execution determinism (shards concatenate to the
// unsharded sweep, bit for bit), the fleet Scatterer's merge (golden
// bit-identity across 1/2/3/4-way scatter and cache-warm re-runs), and the
// partial-failure matrix (kill / shed / stall a backend at each phase:
// degraded partials are correctly ranged, never cached, never
// double-counted).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netemu/faultline/fault_plan.hpp"
#include "netemu/faultline/injector.hpp"
#include "netemu/fleet/front_door.hpp"
#include "netemu/fleet/router.hpp"
#include "netemu/fleet/scatter.hpp"
#include "netemu/guard/cost.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/query.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/json.hpp"

using namespace netemu;

namespace {

/// The estimate sweep every test scatters: small enough to run in
/// milliseconds, big enough to split 4 ways.
Json estimate_query(unsigned trials = 8, std::uint64_t seed = 7,
                    double n = 64) {
  Json q = Json::object();
  q["op"] = "estimate";
  q["family"] = "Mesh";
  q["k"] = 2;
  q["n"] = n;
  q["trials"] = trials;
  q["seed"] = seed;
  return q;
}

Json ranged(const Json& q, unsigned lo, unsigned hi) {
  // Rebuild field by field: Json copies share structure, so mutating a
  // copy of `q` would write the range into the caller's document too.
  Json out = Json::object();
  for (const auto& [k, v] : q.fields()) out[k] = v;
  out["trial_lo"] = lo;
  out["trial_hi"] = hi;
  return out;
}

/// Parse a response line, assert success, return the parsed document.
Json ok_doc(const std::string& line) {
  std::string error;
  Json doc = Json::parse(line, &error);
  EXPECT_TRUE(error.empty()) << error << " in " << line;
  EXPECT_TRUE(doc["ok"].as_bool(false)) << line;
  return doc;
}

/// The bit-identity comparand: the response's "result" document re-dumped.
/// (The envelope's "micros" differs run to run by design; the result must
/// not differ by a single byte.)
std::string result_dump(const std::string& line) {
  return ok_doc(line)["result"].dump();
}

/// A live in-process backend: executor + server on an ephemeral port.
struct TestBackend {
  QueryExecutor executor;
  std::unique_ptr<Server> server;

  TestBackend() = default;
  explicit TestBackend(QueryExecutor::Options options)
      : executor(std::move(options)) {}

  std::uint16_t start() {
    Server::Options options;
    options.port = 0;
    server = std::make_unique<Server>(executor, options);
    std::string error;
    EXPECT_TRUE(server->start(&error)) << error;
    return server->port();
  }
};

FleetRouter::Options fast_router_options(std::vector<std::uint16_t> ports) {
  FleetRouter::Options options;
  for (const auto port : ports) options.backends.push_back({port, ""});
  options.health.failure_threshold = 2;
  options.health.open_cooldown_ms = 50;
  options.probe_interval_ms = 0;  // deterministic: no background probes
  options.client.max_attempts = 2;
  options.client.base_backoff_ms = 1;
  options.client.max_backoff_ms = 5;
  options.client.attempt_timeout_ms = 5000;
  return options;
}

/// Single-node golden reference: the query handled by one plain executor,
/// exactly as netemu_serve would.
std::string reference_result(const Json& q) {
  QueryExecutor exec;
  return result_dump(handle_request_line(q.dump(), exec));
}

/// The sub-ranges a W-way scatter of `trials` produces (must mirror
/// Scatterer::scatter's split).
std::vector<std::pair<unsigned, unsigned>> split(unsigned trials, unsigned w) {
  std::vector<std::pair<unsigned, unsigned>> out;
  for (unsigned i = 0; i < w; ++i) {
    out.emplace_back(i * trials / w, (i + 1) * trials / w);
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------- wire fields

TEST(ScatterQuery, RangeRoundTripsThroughJson) {
  std::string error;
  const auto q = query_from_json(ranged(estimate_query(8), 2, 5), &error);
  ASSERT_TRUE(q.has_value()) << error;
  EXPECT_EQ(q->trial_lo, 2u);
  EXPECT_EQ(q->trial_hi, 5u);
  EXPECT_TRUE(q->has_trial_range());

  const Json doc = query_to_json(*q);
  EXPECT_EQ(doc["trial_lo"].as_int(-1), 2);
  EXPECT_EQ(doc["trial_hi"].as_int(-1), 5);
  const auto q2 = query_from_json(doc, &error);
  ASSERT_TRUE(q2.has_value()) << error;
  EXPECT_EQ(q2->cache_key(), q->cache_key());
}

TEST(ScatterQuery, RangeValidationRejectsBadBounds) {
  std::string error;
  EXPECT_FALSE(query_from_json(ranged(estimate_query(8), 3, 3), &error));
  EXPECT_FALSE(query_from_json(ranged(estimate_query(8), 5, 3), &error));
  EXPECT_FALSE(query_from_json(ranged(estimate_query(8), 0, 9), &error));
  Json neg = estimate_query(8);
  neg["trial_lo"] = -1;
  neg["trial_hi"] = 4;
  EXPECT_FALSE(query_from_json(neg, &error));
}

TEST(ScatterQuery, RangeOnNonEstimateOpIsRejected) {
  Json q = Json::object();
  q["op"] = "bandwidth";
  q["family"] = "Mesh";
  q["k"] = 2;
  q["n"] = 64;
  q["trial_lo"] = 0;
  q["trial_hi"] = 4;
  std::string error;
  EXPECT_FALSE(query_from_json(q, &error));
  EXPECT_NE(error.find("estimate"), std::string::npos) << error;
}

TEST(ScatterQuery, FullRangeNormalizesToThePlainCacheKey) {
  // [0, trials) is not a shard; it must share the plain query's content
  // address so scattered and unscattered runs share cache entries.
  std::string error;
  const auto plain = query_from_json(estimate_query(8), &error);
  const auto full = query_from_json(ranged(estimate_query(8), 0, 8), &error);
  const auto shard = query_from_json(ranged(estimate_query(8), 0, 4), &error);
  ASSERT_TRUE(plain && full && shard) << error;
  EXPECT_FALSE(full->has_trial_range());
  EXPECT_EQ(full->cache_key(), plain->cache_key());
  EXPECT_EQ(full->canonical_string(), plain->canonical_string());
  EXPECT_NE(shard->cache_key(), plain->cache_key());
  EXPECT_NE(shard->canonical_string().find("trial_lo"), std::string::npos);
}

TEST(ScatterQuery, RangedCostChargesTheCalibrationSurcharge) {
  // Every shard reruns the calibration pass (trial 0), so a shard with
  // lo > 0 is charged one extra trial; the shards of a split always cost
  // at least the whole.
  std::string error;
  const auto full = query_from_json(estimate_query(16, 7, 4096), &error);
  const auto head = query_from_json(ranged(estimate_query(16, 7, 4096), 0, 8),
                                    &error);
  const auto tail = query_from_json(ranged(estimate_query(16, 7, 4096), 8, 16),
                                    &error);
  ASSERT_TRUE(full && head && tail) << error;
  const std::uint64_t c_full = guard::query_cost(*full);
  const std::uint64_t c_head = guard::query_cost(*head);
  const std::uint64_t c_tail = guard::query_cost(*tail);
  EXPECT_GE(c_head + c_tail, c_full);
  EXPECT_GT(c_tail, c_head);  // lo > 0 pays for its calibration rerun
  EXPECT_LT(c_head, c_full);  // but a shard is cheaper than the whole
}

// ------------------------------------------------- ranged execution (1 node)

TEST(ScatterRange, ShardsConcatenateToTheUnshardedSweep) {
  QueryExecutor exec;
  const Json q = estimate_query(6);
  const Json full = ok_doc(handle_request_line(q.dump(), exec))["result"];
  const Json a = ok_doc(handle_request_line(ranged(q, 0, 3).dump(), exec))
      ["result"];
  const Json b = ok_doc(handle_request_line(ranged(q, 3, 6).dump(), exec))
      ["result"];

  // Shard results carry their range and the FULL sweep's trial count.
  EXPECT_EQ(a["trial_lo"].as_int(-1), 0);
  EXPECT_EQ(a["trial_hi"].as_int(-1), 3);
  EXPECT_EQ(b["trial_lo"].as_int(-1), 3);
  EXPECT_EQ(b["trials"].as_int(-1), 6);

  // Rates concatenate bit-identically: trial t's Prng substream depends
  // only on (seed, t), and every shard re-derives the same calibrated m.
  ASSERT_EQ(a["trial_rates"].items().size(), 3u);
  ASSERT_EQ(b["trial_rates"].items().size(), 3u);
  for (unsigned t = 0; t < 6; ++t) {
    const Json& shard = t < 3 ? a : b;
    EXPECT_EQ(shard["trial_rates"].items()[t % 3].dump(),
              full["trial_rates"].items()[t].dump())
        << "trial " << t;
  }
  // The calibrated batch size is identical, and tick totals partition:
  // the lo == 0 shard owns the calibration ticks.
  EXPECT_EQ(a["messages"].dump(), full["messages"].dump());
  EXPECT_EQ(b["messages"].dump(), full["messages"].dump());
  EXPECT_EQ(a["simulated_ticks"].as_number() + b["simulated_ticks"].as_number(),
            full["simulated_ticks"].as_number());
}

TEST(ScatterRange, SubRangesAreCachedIndependently) {
  QueryExecutor exec;
  const Json q = estimate_query(6);
  EXPECT_FALSE(
      ok_doc(handle_request_line(ranged(q, 3, 6).dump(), exec))["cache_hit"]
          .as_bool(true));
  const Json warm = ok_doc(handle_request_line(ranged(q, 3, 6).dump(), exec));
  EXPECT_TRUE(warm["cache_hit"].as_bool(false));
  // The other shard and the whole sweep are distinct content addresses.
  EXPECT_FALSE(
      ok_doc(handle_request_line(ranged(q, 0, 3).dump(), exec))["cache_hit"]
          .as_bool(true));
  EXPECT_FALSE(
      ok_doc(handle_request_line(q.dump(), exec))["cache_hit"].as_bool(true));
  // An explicit [0, trials) range IS the whole sweep — cache hit.
  EXPECT_TRUE(
      ok_doc(handle_request_line(ranged(q, 0, 6).dump(), exec))["cache_hit"]
          .as_bool(false));
}

// --------------------------------------------------- fleet scatter (golden)

TEST(FleetScatter, BitIdenticalAcrossWaysAndCacheWarm) {
  const Json q = estimate_query(8);
  const std::string golden = reference_result(q);

  TestBackend backends[4];
  std::vector<std::uint16_t> ports;
  for (auto& b : backends) ports.push_back(b.start());
  FleetRouter router(fast_router_options(ports));

  bool shutdown = false;
  std::uint64_t scattered_total = 0;
  for (unsigned ways = 1; ways <= 4; ++ways) {
    FleetFrontDoor::Options door_options;
    door_options.scatter.min_trials = 4;
    door_options.scatter.max_ways = ways;
    FleetFrontDoor door(router, door_options);
    // Every door here scatters over the one router, whose registry holds
    // the netemu_scatter_* counters: read this door's share as a delta.
    const Scatterer::Stats before = door.scatter_stats();

    const std::string line = door.handle_line(q.dump(), &shutdown);
    EXPECT_EQ(result_dump(line), golden) << "ways=" << ways;
    const Json doc = ok_doc(line);
    if (ways == 1) {
      // max_ways 1 cannot scatter: the query routes whole to one backend.
      EXPECT_TRUE(doc["scattered"].is_null());
      EXPECT_TRUE(doc["served_by"].is_string());
      EXPECT_EQ(door.scatter_stats().scatters, before.scatters);
    } else {
      EXPECT_EQ(doc["scattered"].as_int(-1), static_cast<int>(ways));
      EXPECT_FALSE(doc["degraded"].as_bool(false));
      const Scatterer::Stats stats = door.scatter_stats();
      EXPECT_EQ(stats.scatters - before.scatters, 1u);
      EXPECT_EQ(stats.subqueries - before.subqueries, ways);
      EXPECT_EQ(stats.merged_full - before.merged_full, 1u);
      EXPECT_EQ(stats.merged_degraded, 0u);
      scattered_total += ways;

      // Cache-warm re-run: every shard is already content-addressed on its
      // backend, so the re-scatter is all cache hits — and byte-identical.
      const std::string warm = door.handle_line(q.dump(), &shutdown);
      EXPECT_EQ(result_dump(warm), golden) << "warm ways=" << ways;
      EXPECT_TRUE(ok_doc(warm)["cache_hit"].as_bool(false))
          << "warm ways=" << ways;
      scattered_total += ways;
    }
  }

  // The router's registry started at zero: it counted exactly these
  // sub-queries, whatever else this process scattered.
  EXPECT_EQ(router.metrics().counter_value("netemu_scatter_subqueries_total"),
            scattered_total);
}

TEST(FleetScatter, SingleNodeAndScatteredRunsShareShardCacheEntries) {
  // A single-node run of one shard pre-warms exactly the cache entry the
  // scatterer's matching sub-query hits: same wire fields, same content
  // address, shared entry.
  const Json q = estimate_query(8);
  TestBackend backends[2];
  std::vector<std::uint16_t> ports;
  for (auto& b : backends) ports.push_back(b.start());
  FleetRouter router(fast_router_options(ports));

  // Warm both 2-way shards through the router's normal whole-query path
  // (explicit ranges never scatter — they ARE shards).
  for (const auto& [lo, hi] : split(8, 2)) {
    const FleetRouter::Result r = router.request(ranged(q, lo, hi));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.doc["cache_hit"].as_bool(true));
  }

  FleetFrontDoor::Options door_options;
  door_options.scatter.min_trials = 4;
  door_options.scatter.max_ways = 2;
  FleetFrontDoor door(router, door_options);
  bool shutdown = false;
  const Json doc = ok_doc(door.handle_line(q.dump(), &shutdown));
  EXPECT_EQ(doc["scattered"].as_int(-1), 2);
  EXPECT_TRUE(doc["cache_hit"].as_bool(false));  // both shards were warm
  EXPECT_EQ(doc["result"].dump(), reference_result(q));
}

TEST(FleetScatter, RecordsScatterAndMergeSpansUnderTheRequestTrace) {
  TestBackend backends[2];
  std::vector<std::uint16_t> ports;
  for (auto& b : backends) ports.push_back(b.start());
  FleetRouter router(fast_router_options(ports));
  FleetFrontDoor::Options door_options;
  door_options.scatter.min_trials = 4;
  door_options.scatter.max_ways = 2;
  FleetFrontDoor door(router, door_options);

  Json q = estimate_query(8, 11);
  q["trace"] = "00000000deadbeef";
  bool shutdown = false;
  const Json doc = ok_doc(door.handle_line(q.dump(), &shutdown));
  EXPECT_EQ(doc["trace"].as_string(), "00000000deadbeef");

  bool saw_scatter = false, saw_merge = false;
  for (const scope::Span& span :
       scope::TraceStore::global().get(scope::parse_trace_id(
           "00000000deadbeef"))) {
    saw_scatter = saw_scatter || span.name == "fleet.scatter";
    saw_merge = saw_merge || span.name == "fleet.merge";
  }
  EXPECT_TRUE(saw_scatter);
  EXPECT_TRUE(saw_merge);
}

TEST(FleetScatter, IneligibleQueriesRouteWhole) {
  TestBackend backends[2];
  std::vector<std::uint16_t> ports;
  for (auto& b : backends) ports.push_back(b.start());
  FleetRouter router(fast_router_options(ports));
  FleetFrontDoor::Options door_options;
  door_options.scatter.min_trials = 8;
  door_options.scatter.max_ways = 2;
  FleetFrontDoor door(router, door_options);
  bool shutdown = false;

  // Below min_trials: proxied whole.
  Json small = ok_doc(door.handle_line(estimate_query(4).dump(), &shutdown));
  EXPECT_TRUE(small["scattered"].is_null());
  EXPECT_TRUE(small["served_by"].is_string());

  // An explicit proper trial range is already a shard: proxied whole.
  Json shard =
      ok_doc(door.handle_line(ranged(estimate_query(8), 0, 4).dump(),
                              &shutdown));
  EXPECT_TRUE(shard["scattered"].is_null());
  EXPECT_EQ(shard["result"]["trial_hi"].as_int(-1), 4);
  EXPECT_EQ(door.scatter_stats().scatters, 0u);

  // An explicit FULL range normalizes to the plain query: scattered.
  Json full =
      ok_doc(door.handle_line(ranged(estimate_query(8), 0, 8).dump(),
                              &shutdown));
  EXPECT_EQ(full["scattered"].as_int(-1), 2);
  EXPECT_TRUE(full["result"]["trial_lo"].is_null());
}

// ------------------------------------------------- partial-failure matrix

namespace {

/// Owners of each W-way sub-query of `q`, per the router's rendezvous rank
/// (trace / deadline fields do not enter the route key, so the test can
/// predict placement exactly).
std::vector<std::size_t> sub_owners(const FleetRouter& router, const Json& q,
                                    unsigned trials, unsigned ways) {
  std::vector<std::size_t> owners;
  for (const auto& [lo, hi] : split(trials, ways)) {
    owners.push_back(router.rank_for(ranged(q, lo, hi))[0]);
  }
  return owners;
}

/// A seed whose W-way sub-queries land on W distinct backends, so a fault
/// injected at one backend hits exactly one sub-query.
Json query_with_distinct_owners(const FleetRouter& router, unsigned trials,
                                unsigned ways,
                                std::vector<std::size_t>* owners) {
  for (std::uint64_t seed = 1; seed < 512; ++seed) {
    Json q = estimate_query(trials, seed);
    *owners = sub_owners(router, q, trials, ways);
    std::vector<std::size_t> sorted = *owners;
    std::sort(sorted.begin(), sorted.end());
    if (std::unique(sorted.begin(), sorted.end()) == sorted.end()) return q;
  }
  ADD_FAILURE() << "no seed spreads " << ways << " sub-queries over "
                << ways << " backends";
  return estimate_query(trials, 1);
}

}  // namespace

TEST(FleetScatter, BackendKilledAtDispatchFailsOverToAFullResult) {
  TestBackend backends[3];
  std::vector<std::uint16_t> ports;
  for (auto& b : backends) ports.push_back(b.start());
  FleetRouter router(fast_router_options(ports));

  std::vector<std::size_t> owners;
  const Json q = query_with_distinct_owners(router, 9, 3, &owners);
  const std::string golden = reference_result(q);

  FleetFrontDoor::Options door_options;
  door_options.scatter.min_trials = 4;
  door_options.scatter.max_ways = 3;
  door_options.scatter.straggler_factor = 0;  // failover only, no hedging
  Server* victim = backends[owners[1]].server.get();
  door_options.scatter.phase_hook = [victim](const char* phase) {
    if (std::string(phase) == "dispatch") victim->stop();
  };
  FleetFrontDoor door(router, door_options);

  bool shutdown = false;
  const std::string line = door.handle_line(q.dump(), &shutdown);
  const Json doc = ok_doc(line);
  // The dead backend's sub-query failed over down the rendezvous order;
  // the merge is full and bit-identical.
  EXPECT_FALSE(doc["degraded"].as_bool(false));
  EXPECT_EQ(result_dump(line), golden);
  EXPECT_EQ(door.scatter_stats().merged_full, 1u);
  EXPECT_GE(router.stats().failovers, 1u);
}

TEST(FleetScatter, BackendKilledPreMergeStillMergesFull) {
  TestBackend backends[3];
  std::vector<std::uint16_t> ports;
  for (auto& b : backends) ports.push_back(b.start());
  FleetRouter router(fast_router_options(ports));

  std::vector<std::size_t> owners;
  const Json q = query_with_distinct_owners(router, 9, 3, &owners);
  const std::string golden = reference_result(q);

  FleetFrontDoor::Options door_options;
  door_options.scatter.min_trials = 4;
  door_options.scatter.max_ways = 3;
  Server* victim = backends[owners[2]].server.get();
  door_options.scatter.phase_hook = [victim](const char* phase) {
    // Every answer is already in hand; a backend dying now must not be
    // able to touch the merge.
    if (std::string(phase) == "pre-merge") victim->stop();
  };
  FleetFrontDoor door(router, door_options);

  bool shutdown = false;
  const std::string line = door.handle_line(q.dump(), &shutdown);
  EXPECT_FALSE(ok_doc(line)["degraded"].as_bool(false));
  EXPECT_EQ(result_dump(line), golden);
}

TEST(FleetScatter, StragglerRetryCoversAStalledBackend) {
  // One backend stalls every compute for far longer than the straggler
  // deadline; its sub-query is hedged to a different backend and the merge
  // still comes back full and bit-identical, before the stalled original
  // could have answered.
  //
  // The retry fires at 2 x the slowest healthy shard and then computes one
  // more shard, so it lands at 2-3 x the healthy shard time: a Debug
  // --coverage build on a loaded host takes 0.8 s a shard and pushes it
  // past any fixed bound.  Time healthy 3-trial shards first, on an
  // executor no backend shares, and scale the stall (and the bound) from
  // the slowest of them, leaving room for the shards to run slower side by
  // side than alone.
  double healthy_ms = 0.0;
  {
    QueryExecutor probe;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto t0 = std::chrono::steady_clock::now();
      ok_doc(handle_request_line(ranged(estimate_query(9, seed), 0, 3).dump(),
                                 probe));
      healthy_ms = std::max(
          healthy_ms, std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    }
  }
  const auto stall_ms = std::max<std::uint64_t>(
      2500, static_cast<std::uint64_t>(15.0 * healthy_ms));
  // 80% of the stall: the original cannot answer before stall_ms, so an
  // answer inside the bound came from the retry, with margin to spare.
  const std::uint64_t bound_ms = stall_ms * 4 / 5;

  FaultPlan stall;
  stall.stall_p = 1.0;
  stall.stall_ms = static_cast<std::uint32_t>(stall_ms);
  FaultInjector injector(stall);
  QueryExecutor::Options stalled_options;
  stalled_options.faults = &injector;

  // Backend 0 stalls every compute; pick a seed whose three sub-queries
  // land on three distinct backends, so exactly one sub hits the staller.
  TestBackend stalled(std::move(stalled_options));
  TestBackend healthy_a, healthy_b;
  const std::uint16_t p_stalled = stalled.start();
  const std::uint16_t p_a = healthy_a.start();
  const std::uint16_t p_b = healthy_b.start();
  FleetRouter fleet(fast_router_options({p_stalled, p_a, p_b}));

  std::vector<std::size_t> fleet_owners;
  Json fq = query_with_distinct_owners(fleet, 9, 3, &fleet_owners);
  const std::string fleet_golden = reference_result(fq);

  FleetFrontDoor::Options door_options;
  door_options.scatter.min_trials = 4;
  door_options.scatter.max_ways = 3;
  door_options.scatter.straggler_factor = 2.0;
  door_options.scatter.straggler_min_ms = 40;
  FleetFrontDoor door(fleet, door_options);

  bool shutdown = false;
  const auto start = std::chrono::steady_clock::now();
  const std::string line = door.handle_line(fq.dump(), &shutdown);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();

  EXPECT_EQ(result_dump(line), fleet_golden);
  EXPECT_FALSE(ok_doc(line)["degraded"].as_bool(false));
  const Scatterer::Stats stats = door.scatter_stats();
  EXPECT_EQ(stats.merged_full, 1u);
  // Exactly one sub-query hit the staller (distinct owners) and was hedged.
  EXPECT_GE(stats.straggler_retries, 1u);
  EXPECT_GE(
      fleet.metrics().counter_value("netemu_scatter_straggler_retries_total"),
      1u);
  // The retry answered well before the stall released the original.
  EXPECT_LT(static_cast<std::uint64_t>(ms), bound_ms)
      << "straggler retry did not rescue the scatter (healthy shard "
      << healthy_ms << " ms, stall " << stall_ms << " ms)";
}

TEST(FleetScatter, StalledShardDegradesToARangedPartialThatIsNeverCached) {
  // A stalled sub-query alone does not degrade the merge — the router just
  // fails it over to a healthy backend.  To force a genuine partial, EVERY
  // backend stalls every compute for 900 ms, two of the three shards are
  // pre-warmed (cache hits dodge the stall entirely), and the scatter runs
  // with a 200 ms per-sub deadline: the warm shards answer from cache, the
  // cold shard times out everywhere.
  FaultPlan stall;
  stall.stall_p = 1.0;
  stall.stall_ms = 900;
  FaultInjector injector(stall);

  std::vector<std::unique_ptr<TestBackend>> backends;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 3; ++i) {
    QueryExecutor::Options options;
    options.faults = &injector;
    backends.push_back(std::make_unique<TestBackend>(std::move(options)));
    ports.push_back(backends.back()->start());
  }
  FleetRouter router(fast_router_options(ports));

  const unsigned trials = 9;
  const Json q = estimate_query(trials);
  const std::string golden = reference_result(q);
  std::string parse_error;
  Json golden_doc = Json::parse(golden, &parse_error);
  ASSERT_TRUE(parse_error.empty()) << parse_error;

  // Pre-warm shards 0 and 2 with patient direct requests (the scatterer's
  // matching sub-queries share their content address, so they will hit
  // these entries); the middle shard stays cold.
  const auto shards = split(trials, 3);
  const std::size_t stalled_sub = 1;
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    const FleetRouter::Result r =
        router.request(ranged(q, shards[i].first, shards[i].second));
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(r.doc["ok"].as_bool(false)) << r.doc.dump();
  }

  // Tight per-sub deadline, retries off: the cold shard's backends all
  // answer "deadline exceeded" and the merge degrades to a partial.
  FleetFrontDoor::Options door_options;
  door_options.scatter.min_trials = 4;
  door_options.scatter.max_ways = 3;
  door_options.scatter.straggler_factor = 0;
  door_options.scatter.sub_deadline_ms = 200;
  FleetFrontDoor door(router, door_options);

  bool shutdown = false;
  const std::string line = door.handle_line(q.dump(), &shutdown);
  const Json doc = ok_doc(line);
  EXPECT_TRUE(doc["degraded"].as_bool(false));
  const Json& result = doc["result"];
  EXPECT_TRUE(result["degraded"].as_bool(false));

  // Correctly ranged: exactly the two warm shards' ranges, no trial
  // counted twice, and every reported rate bit-identical to the golden
  // sweep's rate for that trial index.
  const auto [miss_lo, miss_hi] = shards[stalled_sub];
  EXPECT_EQ(result["trials_completed"].as_int(-1),
            static_cast<int>(trials - (miss_hi - miss_lo)));
  ASSERT_EQ(result["trial_ranges"].items().size(), 2u);
  std::vector<unsigned> covered;
  for (const Json& range : result["trial_ranges"].items()) {
    const unsigned lo = static_cast<unsigned>(range.items()[0].as_int(0));
    const unsigned hi = static_cast<unsigned>(range.items()[1].as_int(0));
    for (unsigned t = lo; t < hi; ++t) covered.push_back(t);
  }
  ASSERT_EQ(covered.size(), result["trial_rates"].items().size());
  EXPECT_EQ(std::set<unsigned>(covered.begin(), covered.end()).size(),
            covered.size())
      << "a trial was double-counted";
  for (std::size_t i = 0; i < covered.size(); ++i) {
    EXPECT_LT(covered[i], trials);
    EXPECT_TRUE(covered[i] < miss_lo || covered[i] >= miss_hi);
    EXPECT_EQ(result["trial_rates"].items()[i].dump(),
              golden_doc["trial_rates"].items()[covered[i]].dump())
        << "trial " << covered[i];
  }
  EXPECT_EQ(door.scatter_stats().merged_degraded, 1u);

  // Never cached: once the stall has drained, a patient re-scatter of the
  // SAME query comes back full and bit-identical — the degraded partial
  // poisoned no cache anywhere (backends refuse to cache degraded results;
  // the front door holds no cache at all).  Wait out the abandoned first
  // compute (its flight's cancel token fired when the last waiter left) so
  // the patient sub-query starts a fresh flight instead of joining a
  // doomed one.
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  FleetFrontDoor::Options patient_options;
  patient_options.scatter.min_trials = 4;
  patient_options.scatter.max_ways = 3;
  patient_options.scatter.straggler_factor = 0;
  patient_options.scatter.sub_deadline_ms = 10000;
  FleetFrontDoor patient(router, patient_options);
  const std::string full_line = patient.handle_line(q.dump(), &shutdown);
  EXPECT_FALSE(ok_doc(full_line)["degraded"].as_bool(false));
  EXPECT_EQ(result_dump(full_line), golden);
}

TEST(FleetScatter, AllBackendsSheddingFailsGracefully) {
  TestBackend backends[2];
  std::vector<std::uint16_t> ports;
  for (auto& b : backends) ports.push_back(b.start());
  for (auto& b : backends) b.executor.begin_drain();
  FleetRouter router(fast_router_options(ports));
  FleetFrontDoor::Options door_options;
  door_options.scatter.min_trials = 4;
  door_options.scatter.max_ways = 2;
  FleetFrontDoor door(router, door_options);

  bool shutdown = false;
  std::string error;
  const Json doc =
      Json::parse(door.handle_line(estimate_query(8).dump(), &shutdown),
                  &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_FALSE(doc["ok"].as_bool(true));
  EXPECT_NE(doc["error"].as_string().find("scatter failed"),
            std::string::npos)
      << doc.dump();
  EXPECT_EQ(doc["scattered"].as_int(-1), 2);
  EXPECT_EQ(door.scatter_stats().failed, 1u);
}

TEST(FleetScatter, DeadlineExpiriesLeaveHealthyBreakersClosed) {
  // A request's own deadline running out says nothing about the backend:
  // the caller gets the deadline error, and the breaker counts the expiry
  // as neither a success nor a failure.
  TestBackend backends[2];
  std::vector<std::uint16_t> ports;
  for (auto& b : backends) ports.push_back(b.start());
  FleetRouter router(fast_router_options(ports));
  FleetFrontDoor::Options door_options;
  door_options.scatter.min_trials = 4;
  door_options.scatter.max_ways = 2;
  door_options.scatter.straggler_factor = 0;
  door_options.scatter.sub_deadline_ms = 1;
  FleetFrontDoor door(router, door_options);

  bool shutdown = false;
  std::string error;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const Json doc = Json::parse(
        door.handle_line(estimate_query(8, seed, 4096).dump(), &shutdown),
        &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_FALSE(doc["ok"].as_bool(true)) << doc.dump();
  }

  Json bandwidth = Json::object();
  bandwidth["op"] = "bandwidth";
  bandwidth["family"] = "Mesh";
  bandwidth["k"] = 2;
  bandwidth["n"] = 256;
  ok_doc(door.handle_line(bandwidth.dump(), &shutdown));

  const Json fleet =
      ok_doc(door.handle_line(R"({"op":"fleet"})", &shutdown))["result"];
  ASSERT_EQ(fleet["backends"].items().size(), 2u) << fleet.dump();
  for (const Json& b : fleet["backends"].items()) {
    EXPECT_EQ(b["state"].as_string(), "closed") << fleet.dump();
    EXPECT_EQ(b["transport_failures"].as_uint(99), 0u) << fleet.dump();
  }
}
