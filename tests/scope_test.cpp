// Tests for netemu::scope — the metrics registry (counters, gauges,
// log-scale histograms and their quantiles), trace spans, the flight
// recorder, exposition, and the end-to-end guarantees the subsystem makes:
//  * TSan-clean concurrent recording while a reader snapshots;
//  * a traced query's span set is DETERMINISTIC — byte-identical span
//    name/note sequences across runs, including under a faultline plan;
//  * a query through the fleet front door is traceable end to end.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "netemu/faultline/fault_plan.hpp"
#include "netemu/faultline/injector.hpp"
#include "netemu/fleet/front_door.hpp"
#include "netemu/fleet/router.hpp"
#include "netemu/scope/exposition.hpp"
#include "netemu/scope/flight_recorder.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/service/executor.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/query.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/hash.hpp"
#include "netemu/util/json.hpp"

using namespace netemu;

// ----------------------------------------------------------------- counters

TEST(ScopeCounter, AddsAndSumsAcrossShards) {
  scope::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ScopeCounter, DisabledIsANoOp) {
  scope::Counter c;
  scope::set_enabled(false);
  c.add(100);
  scope::set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST(ScopeGauge, SetAndAdd) {
  scope::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

// --------------------------------------------------------------- histograms

TEST(ScopeHistogram, BucketBoundsContainTheirValues) {
  // Every positive normal value must land in a bucket whose [lower, upper)
  // range contains it — the invariant quantile interpolation relies on.
  const double values[] = {1e-3,  0.01, 0.5,  1.0,    1.0001, 1.5,
                           2.0,   3.0,  10.0, 1024.0, 1e6,    1e10,
                           1e13,  7.77, std::exp2(0.125),     // sub boundary
                           std::exp2(10.0) - 1e-6, std::exp2(10.0)};
  for (const double v : values) {
    const std::size_t b = scope::Histogram::bucket_of(v);
    ASSERT_GE(b, 1u) << v;
    ASSERT_LE(b, scope::Histogram::kBuckets - 2) << v;
    EXPECT_LE(scope::Histogram::bucket_lower(b), v) << v;
    EXPECT_GT(scope::Histogram::bucket_upper(b), v) << v;
  }
}

TEST(ScopeHistogram, SpecialValuesLandInUnderAndOverflow) {
  using H = scope::Histogram;
  EXPECT_EQ(H::bucket_of(0.0), 0u);
  EXPECT_EQ(H::bucket_of(-1.0), 0u);
  EXPECT_EQ(H::bucket_of(-0.0), 0u);
  EXPECT_EQ(H::bucket_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(H::bucket_of(1e-300), 0u);  // far below 2^kMinExp
  EXPECT_EQ(H::bucket_of(std::numeric_limits<double>::denorm_min()), 0u);
  EXPECT_EQ(H::bucket_of(std::numeric_limits<double>::infinity()),
            H::kBuckets - 1);
  EXPECT_EQ(H::bucket_of(1e300), H::kBuckets - 1);  // above 2^kMaxExp
}

TEST(ScopeHistogram, BucketOfMatchesTheLogFormula) {
  // The bit-twiddled bucket_of must agree with the definition
  // floor(log2(v) * kSubBuckets) on values away from boundaries.
  using H = scope::Histogram;
  for (int i = 0; i < 4000; ++i) {
    const double v = std::exp2(-9.9 + i * 0.01337);  // spans the full range
    const std::size_t b = H::bucket_of(v);
    const double idx = std::floor(std::log2(v) * H::kSubBuckets) -
                       static_cast<double>(H::kMinExp) * H::kSubBuckets;
    if (idx < 0.0 || idx >= static_cast<double>(H::kBuckets - 2)) continue;
    // At an exact boundary the libm formula may round either way; the
    // bucket-bound invariant (tested above) is the authoritative check.
    const double frac = std::abs(idx - std::round(idx));
    if (frac < 1e-9) continue;
    EXPECT_EQ(b, static_cast<std::size_t>(idx) + 1) << "v=" << v;
  }
}

TEST(ScopeHistogram, QuantilesTrackExactWithinBucketError) {
  scope::Histogram h;
  std::vector<double> samples;
  // Deterministic pseudo-uniform values over ~3 decades.
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    const double v = 10.0 + static_cast<double>(x % 1000000u) / 100.0;
    samples.push_back(v);
    h.observe(v);
  }
  const scope::Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, samples.size());
  for (const double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
    const double approx = snap.quantile(q);
    const double exact = scope::exact_quantile(samples, q);
    EXPECT_NEAR(approx / exact, 1.0, 0.05)
        << "q=" << q << " approx=" << approx << " exact=" << exact;
  }
}

TEST(ScopeHistogram, QuantileIsMonotoneInQ) {
  scope::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i * i));
  const auto snap = h.snapshot();
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double cur = snap.quantile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
}

TEST(ScopeHistogram, EmptyAndMeanBehaviour) {
  scope::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.snapshot().mean(), 0.0);
  h.observe(10.0);
  h.observe(30.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.snapshot().mean(), 20.0);
}

TEST(ScopeExactQuantile, SmallSampleSemantics) {
  EXPECT_DOUBLE_EQ(scope::exact_quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(scope::exact_quantile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(scope::exact_quantile({7.0}, 1.0), 7.0);
  EXPECT_DOUBLE_EQ(scope::exact_quantile({5, 1, 3, 2, 4}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(scope::exact_quantile({5, 1, 3, 2, 4}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(scope::exact_quantile({5, 1, 3, 2, 4}, 1.0), 5.0);
}

// ----------------------------------------------------------------- registry

TEST(ScopeRegistry, RegisterOnceLookupAfter) {
  scope::Registry reg;
  scope::Counter& a = reg.counter("x_total", "help");
  scope::Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);
  a.inc();
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "x_total");
  EXPECT_EQ(snap[0].help, "help");
  EXPECT_EQ(snap[0].counter, 1u);
}

TEST(ScopeRegistry, KindMismatchThrows) {
  scope::Registry reg;
  reg.counter("metric_a");
  EXPECT_THROW(reg.gauge("metric_a"), std::logic_error);
  EXPECT_THROW(reg.histogram("metric_a"), std::logic_error);
}

TEST(ScopeRegistry, SnapshotIsSortedByName) {
  scope::Registry reg;
  reg.counter("zzz");
  reg.gauge("aaa");
  reg.histogram("mmm");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "aaa");
  EXPECT_EQ(snap[1].name, "mmm");
  EXPECT_EQ(snap[2].name, "zzz");
}

// ------------------------------------------------- concurrency (TSan gate)

TEST(ScopeConcurrency, WritersAndReaderAreRaceFree) {
  // N writer threads hammer a counter, a gauge, a histogram, the flight
  // recorder, and a trace store while the main thread snapshots everything.
  // Under TSan this is the data-race gate; everywhere it checks totals.
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  scope::Registry reg;
  scope::Counter& counter = reg.counter("hammer_total");
  scope::Gauge& gauge = reg.gauge("hammer_gauge");
  scope::Histogram& hist = reg.histogram("hammer_us");
  scope::TraceStore store(64);
  scope::FlightRecorder& recorder = scope::FlightRecorder::global();
  const std::uint64_t base_events = recorder.total();

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)reg.snapshot();
      (void)hist.snapshot().quantile(0.95);
      (void)counter.value();
      (void)recorder.recent(32);
      (void)store.get(1);
      (void)scope::flight_recorder_to_json(8);
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        counter.inc();
        gauge.set(static_cast<double>(i));
        hist.observe(static_cast<double>(t * kIters + i + 1));
        if (i % 100 == 0) {
          recorder.record(scope::FlightRecorder::Kind::kInfo,
                          static_cast<std::uint64_t>(t + 1), "hammer");
          store.add(static_cast<std::uint64_t>(t + 1),
                    scope::Span{"hammer", 0, 1, ""});
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(recorder.total() - base_events,
            static_cast<std::uint64_t>(kThreads) * (kIters / 100));
}

// -------------------------------------------------------------- trace spans

TEST(ScopeTrace, ParseTraceIdRoundTripsAndRejectsGarbage) {
  const std::uint64_t id = scope::mint_trace_id();
  EXPECT_NE(id, 0u);
  EXPECT_EQ(scope::parse_trace_id(hex64(id)), id);
  EXPECT_EQ(scope::parse_trace_id("0x" + hex64(id)), id);
  EXPECT_EQ(scope::parse_trace_id("ff"), 0xffu);  // short ids tolerated
  EXPECT_EQ(scope::parse_trace_id(""), 0u);
  EXPECT_EQ(scope::parse_trace_id("not-hex"), 0u);
  EXPECT_EQ(scope::parse_trace_id("12345678901234567"), 0u);  // too long
}

TEST(ScopeTrace, MintedIdsAreUnique) {
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) ids.insert(scope::mint_trace_id());
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(ScopeTrace, SpanTimerRecordsIntoTheStoreInOrder) {
  scope::TraceStore store(8);
  const std::uint64_t tid = 42;
  {
    scope::SpanTimer outer(tid, "outer", &store);
    {
      scope::SpanTimer inner(tid, "inner", &store);
      inner.set_note("n1");
    }
    scope::SpanTimer cancelled(tid, "cancelled", &store);
    cancelled.cancel();
  }
  const auto spans = store.get(tid);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].note, "n1");
  EXPECT_EQ(spans[1].name, "outer");
}

TEST(ScopeTrace, ZeroTraceIdRecordsNothing) {
  scope::TraceStore store(8);
  {
    scope::SpanTimer t(0, "ghost", &store);
    t.set_note("ignored");
  }
  store.add(0, scope::Span{"ghost", 0, 0, ""});
  EXPECT_EQ(store.size(), 0u);
}

TEST(ScopeTrace, StoreEvictsOldestTraces) {
  scope::TraceStore store(4);
  for (std::uint64_t id = 1; id <= 6; ++id) {
    store.add(id, scope::Span{"s", 0, 0, ""});
  }
  EXPECT_EQ(store.size(), 4u);
  EXPECT_FALSE(store.contains(1));
  EXPECT_FALSE(store.contains(2));
  EXPECT_TRUE(store.contains(3));
  EXPECT_TRUE(store.contains(6));
}

// ---------------------------------------------------------- flight recorder

TEST(ScopeFlightRecorder, RecordsEventsInOrderWithTruncation) {
  scope::FlightRecorder& rec = scope::FlightRecorder::global();
  const std::uint64_t before = rec.total();
  rec.record(scope::FlightRecorder::Kind::kBreaker, 7, "short");
  const std::string long_detail(300, 'x');
  rec.record(scope::FlightRecorder::Kind::kShed, 8, long_detail);
  const auto events = rec.recent();
  ASSERT_GE(events.size(), 2u);
  const auto& a = events[events.size() - 2];
  const auto& b = events[events.size() - 1];
  EXPECT_EQ(a.kind, scope::FlightRecorder::Kind::kBreaker);
  EXPECT_EQ(a.trace_id, 7u);
  EXPECT_EQ(a.detail, "short");
  EXPECT_EQ(b.kind, scope::FlightRecorder::Kind::kShed);
  EXPECT_LT(b.detail.size(), scope::FlightRecorder::kDetailBytes);
  EXPECT_EQ(b.detail, long_detail.substr(0, b.detail.size()));
  EXPECT_EQ(rec.total(), before + 2);
  EXPECT_LT(a.seq, b.seq);
}

TEST(ScopeFlightRecorder, KindNamesAreStable) {
  using K = scope::FlightRecorder::Kind;
  EXPECT_STREQ(scope::FlightRecorder::kind_name(K::kShed), "shed");
  EXPECT_STREQ(scope::FlightRecorder::kind_name(K::kBreaker), "breaker");
  EXPECT_STREQ(scope::FlightRecorder::kind_name(K::kWatchdog), "watchdog");
  EXPECT_STREQ(scope::FlightRecorder::kind_name(K::kHedge), "hedge");
}

// --------------------------------------------------------------- exposition

TEST(ScopeExposition, JsonShapeHasCountersGaugesHistograms) {
  scope::Registry reg;
  reg.counter("t_total").add(3);
  reg.gauge("t_gauge").set(1.5);
  scope::Histogram& h = reg.histogram("t_us");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const Json doc = scope::registry_to_json({&reg});
  EXPECT_EQ(doc["counters"]["t_total"].as_uint(), 3u);
  EXPECT_DOUBLE_EQ(doc["gauges"]["t_gauge"].as_number(), 1.5);
  const Json& hist = doc["histograms"]["t_us"];
  EXPECT_EQ(hist["count"].as_uint(), 100u);
  EXPECT_GT(hist["p50"].as_number(), 0.0);
  EXPECT_GE(hist["p99"].as_number(), hist["p50"].as_number());
}

TEST(ScopeExposition, PrometheusTextIsWellFormed) {
  scope::Registry reg;
  reg.counter("pm_total", "a counter").add(5);
  scope::Histogram& h = reg.histogram("pm_us", "a histogram");
  h.observe(3.0);
  h.observe(300.0);
  const std::string text = scope::registry_to_prometheus({&reg});
  EXPECT_NE(text.find("# TYPE pm_total counter"), std::string::npos);
  EXPECT_NE(text.find("pm_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pm_us histogram"), std::string::npos);
  EXPECT_NE(text.find("pm_us_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("pm_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("pm_us_sum 303"), std::string::npos);
}

// ----------------------------------------- golden span-set determinism

namespace {

QueryExecutor::Options traced_executor_options(bool journal,
                                               const std::string& cache_file,
                                               FaultInjector* faults) {
  QueryExecutor::Options o;
  o.threads = 1;
  o.cache_file = cache_file;
  o.load_cache = false;
  o.cache_journal = journal && !cache_file.empty();
  o.faults = faults;
  o.compute = [](const Query&, const CancelToken&) {
    Json j = Json::object();
    j["v"] = 1.0;
    return j;
  };
  return o;
}

Query traced_query(std::uint64_t tid) {
  Query q;
  q.kind = QueryKind::kBandwidth;
  q.family = Family::kTree;
  q.n = 255.0;
  q.trace_id = tid;
  return q;
}

/// "name(note)" sequence of a trace — the golden shape under test.
std::vector<std::string> span_signature(std::uint64_t tid) {
  std::vector<std::string> out;
  for (const auto& s : scope::TraceStore::global().get(tid)) {
    out.push_back(s.note.empty() ? s.name : s.name + "(" + s.note + ")");
  }
  return out;
}

}  // namespace

TEST(ScopeGolden, MissAndHitSpanSetsAreExactlyTheCatalog) {
  QueryExecutor executor(traced_executor_options(false, "", nullptr));

  const std::uint64_t miss_tid = scope::mint_trace_id();
  ASSERT_TRUE(executor.execute(traced_query(miss_tid)).ok);
  const std::vector<std::string> expect_miss = {
      "cache.probe(miss)", "queue.wait", "sim.run", "cache.put",
      "executor.execute"};
  EXPECT_EQ(span_signature(miss_tid), expect_miss);

  const std::uint64_t hit_tid = scope::mint_trace_id();
  ASSERT_TRUE(executor.execute(traced_query(hit_tid)).cache_hit);
  const std::vector<std::string> expect_hit = {"cache.probe(hit)",
                                               "executor.execute"};
  EXPECT_EQ(span_signature(hit_tid), expect_hit);
}

TEST(ScopeGolden, JournalingRenamesThePersistSpan) {
  const std::string cache = testing::TempDir() + "scope_golden_cache.json";
  std::remove(cache.c_str());
  std::remove((cache + ".wal").c_str());
  QueryExecutor executor(traced_executor_options(true, cache, nullptr));
  const std::uint64_t tid = scope::mint_trace_id();
  ASSERT_TRUE(executor.execute(traced_query(tid)).ok);
  const std::vector<std::string> expect = {
      "cache.probe(miss)", "queue.wait", "sim.run", "wal.append",
      "executor.execute"};
  EXPECT_EQ(span_signature(tid), expect);
}

TEST(ScopeGolden, SpanSetsAreDeterministicUnderAFaultPlan) {
  // Two fresh executors with the SAME fault-plan seed must produce
  // byte-identical span signatures for the same traced request sequence —
  // the property that makes a failed chaos soak reconstructable.
  const auto plan = FaultPlan::parse("seed=7,stall=1.0:1");
  ASSERT_TRUE(plan.has_value());
  std::vector<std::vector<std::string>> runs;
  for (int run = 0; run < 2; ++run) {
    FaultInjector injector(*plan);
    QueryExecutor executor(traced_executor_options(false, "", &injector));
    const std::uint64_t miss_tid = scope::mint_trace_id();
    ASSERT_TRUE(executor.execute(traced_query(miss_tid)).ok);
    const std::uint64_t hit_tid = scope::mint_trace_id();
    ASSERT_TRUE(executor.execute(traced_query(hit_tid)).cache_hit);
    auto sig = span_signature(miss_tid);
    const auto hit_sig = span_signature(hit_tid);
    sig.insert(sig.end(), hit_sig.begin(), hit_sig.end());
    runs.push_back(std::move(sig));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_FALSE(runs[0].empty());
}

// ------------------------------------------------- fleet end-to-end tracing

namespace {

/// A live in-process backend: executor + server on an ephemeral port.
struct TracedBackend {
  QueryExecutor executor;
  std::unique_ptr<Server> server;

  TracedBackend() : executor(traced_executor_options(false, "", nullptr)) {}

  std::uint16_t start() {
    Server::Options options;
    options.port = 0;
    server = std::make_unique<Server>(executor_line_handler(executor), options);
    std::string error;
    EXPECT_TRUE(server->start(&error)) << error;
    return server->port();
  }
};

}  // namespace

TEST(ScopeFleet, TracedQueryIsReconstructableThroughTheFrontDoor) {
  TracedBackend a, b;
  FleetRouter::Options options;
  options.backends.push_back({a.start(), ""});
  options.backends.push_back({b.start(), ""});
  options.probe_interval_ms = 0;
  options.client.max_attempts = 2;
  options.client.attempt_timeout_ms = 5000;
  FleetRouter router(options);
  FleetFrontDoor door(router);

  // "trace":true asks the front door to mint: the client cannot.
  Json q = Json::object();
  q["op"] = "bandwidth";
  q["family"] = "Hypercube";
  q["n"] = 4096;
  q["trace"] = true;
  bool shutdown = false;
  const Json response = Json::parse(door.handle_line(q.dump(), &shutdown));
  ASSERT_TRUE(response["ok"].as_bool()) << door.handle_line(q.dump(), nullptr);
  const std::string trace_hex = response["trace"].as_string();
  ASSERT_EQ(trace_hex.size(), 16u);
  EXPECT_FALSE(response["served_by"].as_string().empty());

  // Retrieve the merged span set under the single trace id.
  Json t = Json::object();
  t["op"] = "trace";
  t["id"] = trace_hex;
  const Json traced = Json::parse(door.handle_line(t.dump(), &shutdown));
  ASSERT_TRUE(traced["ok"].as_bool());
  ASSERT_TRUE(traced["result"]["found"].as_bool());
  std::set<std::string> names;
  std::set<std::string> fleet_sites;
  for (const Json& s : traced["result"]["spans"].items()) {
    names.insert(s["name"].as_string());
    if (s["name"].as_string() == "fleet.route") {
      fleet_sites.insert(s["site"].as_string());
    }
  }
  // Client send -> fleet route -> backend executor -> compute, one id.
  EXPECT_TRUE(names.count("fleet.route"));
  EXPECT_TRUE(names.count("executor.execute"));
  EXPECT_TRUE(names.count("cache.probe"));
  EXPECT_TRUE(names.count("sim.run"));
  EXPECT_TRUE(fleet_sites.count("fleet"));

  router.stop();
}

TEST(ScopeFleet, BreakerTransitionsLandInTheFlightRecorder) {
  // A backend that never existed: the breaker must open after the
  // configured failures and the transition must be reconstructable from
  // the flight recorder (satellite requirement: no stderr printf).
  TracedBackend alive;
  FleetRouter::Options options;
  options.backends.push_back({alive.start(), ""});
  options.backends.push_back({1, ""});  // nothing listens on port 1
  options.health.failure_threshold = 1;
  options.probe_interval_ms = 0;
  options.client.max_attempts = 1;
  options.client.base_backoff_ms = 1;
  options.client.max_backoff_ms = 2;
  options.client.attempt_timeout_ms = 500;
  FleetRouter router(options);

  const std::uint64_t before = scope::FlightRecorder::global().total();
  // Enough distinct content addresses that the dead backend ranks first for
  // at least one of them (each query picks independently at ~1/2).
  for (double n = 2; n <= 1048576; n *= 2) {
    Json q = Json::object();
    q["op"] = "bandwidth";
    q["family"] = "Ring";
    q["n"] = n;
    (void)router.request(q);
  }
  router.stop();

  bool saw_breaker_open = false;
  for (const auto& e : scope::FlightRecorder::global().recent()) {
    if (e.seq <= before) continue;
    if (e.kind == scope::FlightRecorder::Kind::kBreaker &&
        e.detail.find("-> open") != std::string::npos) {
      saw_breaker_open = true;
    }
  }
  EXPECT_TRUE(saw_breaker_open);
}

// ------------------------------------------------------- protocol trace op

TEST(ScopeProtocol, TraceOpReturnsSpansAndStatsExposesScope) {
  QueryExecutor executor(traced_executor_options(false, "", nullptr));
  const std::uint64_t tid = scope::mint_trace_id();
  Json q = Json::object();
  q["op"] = "bandwidth";
  q["family"] = "Mesh";
  q["k"] = 2;
  q["n"] = 256;
  q["trace"] = hex64(tid);
  const Json first = Json::parse(handle_request_line(q.dump(), executor));
  ASSERT_TRUE(first["ok"].as_bool());
  EXPECT_EQ(first["trace"].as_string(), hex64(tid));

  Json t = Json::object();
  t["op"] = "trace";
  t["id"] = hex64(tid);
  const Json traced = Json::parse(handle_request_line(t.dump(), executor));
  ASSERT_TRUE(traced["ok"].as_bool());
  EXPECT_TRUE(traced["result"]["found"].as_bool());
  EXPECT_GE(traced["result"]["spans"].items().size(), 2u);

  Json s = Json::object();
  s["op"] = "stats";
  const Json stats = Json::parse(handle_request_line(s.dump(), executor));
  ASSERT_TRUE(stats["ok"].as_bool());
  EXPECT_GT(stats["result"]["scope"]["epoch_unix_s"].as_uint(), 0u);
  Json p = Json::object();
  p["op"] = "stats";
  p["format"] = "prometheus";
  const Json prom = Json::parse(handle_request_line(p.dump(), executor));
  ASSERT_TRUE(prom["ok"].as_bool());
  EXPECT_NE(prom["result"]["text"].as_string().find("netemu_requests_total"),
            std::string::npos);
}

// ------------------------------------------------- per-instance isolation

namespace {

Json stats_op(QueryExecutor& exec, bool prometheus = false) {
  Json s = Json::object();
  s["op"] = "stats";
  if (prometheus) s["format"] = "prometheus";
  const Json doc = Json::parse(handle_request_line(s.dump(), exec));
  EXPECT_TRUE(doc["ok"].as_bool());
  return doc["result"];
}

/// The sample line `name value` of a counter in Prometheus text.
bool prometheus_has(const std::string& text, const std::string& name,
                    std::uint64_t value) {
  return text.find("\n" + name + " " + std::to_string(value) + "\n") !=
         std::string::npos;
}

}  // namespace

TEST(ScopeIsolation, TwoExecutorsCountApart) {
  QueryExecutor::Options options = traced_executor_options(false, "", nullptr);
  options.guard.adaptive = false;
  QueryExecutor a(options);
  QueryExecutor b(options);

  ASSERT_TRUE(a.execute(traced_query(0)).ok);
  ASSERT_TRUE(a.execute(traced_query(0)).cache_hit);
  ASSERT_TRUE(a.execute(traced_query(0)).cache_hit);
  ASSERT_TRUE(b.execute(traced_query(0)).ok);

  EXPECT_EQ(a.stats().requests, 3u);
  EXPECT_EQ(a.stats().cache_hits, 2u);
  EXPECT_EQ(a.stats().computed, 1u);
  EXPECT_EQ(b.stats().requests, 1u);
  EXPECT_EQ(b.stats().cache_hits, 0u);
  EXPECT_EQ(b.stats().computed, 1u);
  EXPECT_EQ(a.compute_times().samples, 1u);
  EXPECT_EQ(b.compute_times().samples, 1u);
  // The guard counts into its own executor's registry.
  EXPECT_EQ(a.metrics().counter_value("netemu_guard_admitted_total"), 1u);
  EXPECT_EQ(b.metrics().counter_value("netemu_guard_admitted_total"), 1u);

  // Each stats op reports its own executor, not the process.
  EXPECT_EQ(stats_op(a)["scope"]["counters"]["netemu_requests_total"]
                .as_uint(),
            3u);
  EXPECT_EQ(stats_op(b)["scope"]["counters"]["netemu_requests_total"]
                .as_uint(),
            1u);
  EXPECT_EQ(stats_op(b)["scope"]["histograms"]["netemu_execute_us"]["count"]
                .as_uint(),
            1u);
}

TEST(ScopeIsolation, TwoRoutersCountApart) {
  TracedBackend backend;
  FleetRouter::Options options;
  options.backends.push_back({backend.start(), ""});
  options.probe_interval_ms = 0;
  FleetRouter a(options);
  FleetRouter b(options);
  FleetFrontDoor door_a(a);

  Json q = Json::object();
  q["op"] = "bandwidth";
  q["family"] = "Mesh";
  q["k"] = 2;
  q["n"] = 256;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(a.request(q).ok);
  ASSERT_TRUE(b.request(q).ok);

  EXPECT_EQ(a.stats().requests, 3u);
  EXPECT_EQ(a.stats().answered, 3u);
  EXPECT_EQ(b.stats().requests, 1u);
  EXPECT_EQ(b.stats().answered, 1u);
  EXPECT_EQ(a.metrics().counter_value("netemu_fleet_requests_total"), 3u);
  EXPECT_EQ(b.metrics().counter_value("netemu_fleet_requests_total"), 1u);
  EXPECT_EQ(a.metrics().histogram("netemu_fleet_request_us").count(), 3u);
  EXPECT_EQ(b.metrics().histogram("netemu_fleet_request_us").count(), 1u);
  // A scatterer registers into its own router's registry only.
  EXPECT_EQ(door_a.scatter_stats().scatters, 0u);
  bool b_has_scatter = false;
  for (const auto& sample : b.metrics().snapshot()) {
    b_has_scatter |= sample.name.rfind("netemu_scatter_", 0) == 0;
  }
  EXPECT_FALSE(b_has_scatter);
}

TEST(ScopeIsolation, StatsOpPrometheusAndTypedReadAgree) {
  QueryExecutor::Options options = traced_executor_options(false, "", nullptr);
  options.compute = [](const Query& q, const CancelToken&) -> Json {
    if (q.n > 1000) throw std::runtime_error("boom");
    Json j = Json::object();
    j["v"] = q.n;
    return j;
  };
  QueryExecutor exec(options);
  Query q = traced_query(0);
  ASSERT_TRUE(exec.execute(q).ok);
  ASSERT_TRUE(exec.execute(q).cache_hit);
  q.n = 128;
  ASSERT_TRUE(exec.execute(q).ok);
  q.n = 4096;
  ASSERT_FALSE(exec.execute(q).ok);

  const QueryExecutor::Stats typed = exec.stats();
  const Json stats = stats_op(exec);
  const std::string text = stats_op(exec, true)["text"].as_string();
  const Json& counters = stats["scope"]["counters"];

  // Every counter the JSON exposes has the same sample in the text.
  for (const auto& [name, value] : counters.fields()) {
    EXPECT_TRUE(prometheus_has(text, name, value.as_uint())) << name;
  }
  // Every typed field equals its stats-op field and its counter.
  const struct {
    const char* field;
    const char* metric;
    std::uint64_t typed;
  } rows[] = {
      {"requests", "netemu_requests_total", typed.requests},
      {"cache_hits", "netemu_cache_hits_total", typed.cache_hits},
      {"computed", "netemu_computed_total", typed.computed},
      {"dedup_joins", "netemu_dedup_joins_total", typed.dedup_joins},
      {"rejected", "netemu_shed_total", typed.rejected},
      {"deadline_exceeded", "netemu_deadline_exceeded_total",
       typed.deadline_exceeded},
      {"errors", "netemu_compute_errors_total", typed.errors},
      {"hung", "netemu_watchdog_cancellations_total", typed.hung},
      {"stale_served", "netemu_stale_served_total", typed.stale_served},
      {"cancelled", "netemu_compute_cancelled_total", typed.cancelled},
  };
  for (const auto& row : rows) {
    EXPECT_EQ(stats[row.field].as_uint(), row.typed) << row.field;
    EXPECT_EQ(counters[row.metric].as_uint(), row.typed) << row.metric;
    EXPECT_TRUE(prometheus_has(text, row.metric, row.typed)) << row.metric;
  }
  EXPECT_EQ(stats["browned_out"].as_uint(), typed.browned_out);
  // The cache block's hits and misses are the executor's two counters,
  // counted once at the request's probe; the failed compute's stale-value
  // lookup is not a request and counts nowhere.
  const Json health = Json::parse(
      handle_request_line(R"({"op":"health"})", exec))["result"];
  for (const Json& block : {stats["cache"], health["cache"]}) {
    EXPECT_EQ(block["hits"].as_uint(), typed.cache_hits);
    EXPECT_EQ(block["misses"].as_uint(), typed.cache_misses);
  }
  EXPECT_EQ(counters["netemu_cache_misses_total"].as_uint(),
            typed.cache_misses);
  EXPECT_TRUE(prometheus_has(text, "netemu_cache_misses_total",
                             typed.cache_misses));
  EXPECT_EQ(typed.requests, 4u);
  EXPECT_EQ(typed.cache_hits, 1u);
  EXPECT_EQ(typed.cache_misses, 3u);
  EXPECT_EQ(typed.computed, 2u);
  EXPECT_EQ(typed.errors, 1u);
}
