// Tests for netemu::fleet — rendezvous placement, the circuit-breaker state
// machine, the ResultCache write-ahead journal (including a truncation
// sweep at every byte offset), and the FleetRouter against real in-process
// backends.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netemu/fleet/health.hpp"
#include "netemu/fleet/rendezvous.hpp"
#include "netemu/fleet/router.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/planner.hpp"
#include "netemu/service/result_cache.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/json.hpp"

using namespace netemu;

namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Json bandwidth_query(double n) {
  Json q = Json::object();
  q["op"] = "bandwidth";
  q["family"] = "Mesh";
  q["k"] = 2;
  q["n"] = n;
  return q;
}

}  // namespace

// ---------------------------------------------------------------- rendezvous

TEST(Rendezvous, RankIsADeterministicPermutation) {
  const std::vector<std::string> ids = {"a:1", "b:2", "c:3", "d:4"};
  for (std::uint64_t key = 0; key < 64; ++key) {
    const auto order = rendezvous_rank(key, ids);
    ASSERT_EQ(order.size(), ids.size());
    EXPECT_EQ(std::set<std::size_t>(order.begin(), order.end()).size(),
              ids.size());
    EXPECT_EQ(order, rendezvous_rank(key, ids));  // same inputs, same rank
    EXPECT_EQ(order[0], rendezvous_owner(key, ids));
  }
}

TEST(Rendezvous, RemovingABackendOnlyRemapsItsOwnKeys) {
  // The HRW property the fleet's warm caches depend on: dropping one
  // backend must not move any key it did not own.
  const std::vector<std::string> ids = {"a:1", "b:2", "c:3", "d:4"};
  for (std::size_t removed = 0; removed < ids.size(); ++removed) {
    std::vector<std::string> rest;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i != removed) rest.push_back(ids[i]);
    }
    for (std::uint64_t key = 0; key < 512; ++key) {
      const std::size_t before = rendezvous_owner(key, ids);
      const std::string& after = rest[rendezvous_owner(key, rest)];
      if (before != removed) {
        EXPECT_EQ(after, ids[before]) << "key " << key;
      }
    }
  }
}

TEST(Rendezvous, SpreadsKeysAcrossBackends) {
  const std::vector<std::string> ids = {"a:1", "b:2", "c:3"};
  std::vector<int> owned(ids.size(), 0);
  const int keys = 3000;
  for (std::uint64_t key = 0; key < keys; ++key) {
    ++owned[rendezvous_owner(key * 0x9E3779B97F4A7C15ULL, ids)];
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_GT(owned[i], keys / 6) << ids[i];  // within 2x of fair share
    EXPECT_LT(owned[i], keys / 2 + keys / 6) << ids[i];
  }
}

TEST(Rendezvous, EmptyFleetHasNoOwner) {
  EXPECT_EQ(rendezvous_owner(7, {}), static_cast<std::size_t>(-1));
  EXPECT_TRUE(rendezvous_rank(7, {}).empty());
}

// ------------------------------------------------------------ circuit breaker

TEST(BackendHealth, OpensAfterConsecutiveTransportFailures) {
  BackendHealth::Options o;
  o.failure_threshold = 3;
  o.open_cooldown_ms = 100;
  BackendHealth h(o);

  EXPECT_EQ(h.state(0), BackendHealth::State::kClosed);
  h.record_failure(1);
  h.record_failure(2);
  EXPECT_EQ(h.state(2), BackendHealth::State::kClosed);
  EXPECT_TRUE(h.allow(2));
  h.record_failure(3);  // third consecutive: eject
  EXPECT_EQ(h.state(3), BackendHealth::State::kOpen);
  EXPECT_FALSE(h.allow(3));
  EXPECT_EQ(h.ejections(), 1u);
}

TEST(BackendHealth, SuccessResetsTheConsecutiveCount) {
  BackendHealth::Options o;
  o.failure_threshold = 2;
  BackendHealth h(o);
  h.record_failure(1);
  h.record_success(2);  // streak broken
  h.record_failure(3);
  EXPECT_EQ(h.state(3), BackendHealth::State::kClosed);
  h.record_failure(4);
  EXPECT_EQ(h.state(4), BackendHealth::State::kOpen);
}

TEST(BackendHealth, HalfOpenAdmitsExactlyOneProbeThenCloses) {
  BackendHealth::Options o;
  o.failure_threshold = 1;
  o.open_cooldown_ms = 100;
  BackendHealth h(o);
  h.record_failure(10);  // open at t=10
  EXPECT_FALSE(h.allow(50));
  EXPECT_EQ(h.state(110), BackendHealth::State::kHalfOpen);
  EXPECT_TRUE(h.allow(110));    // the probe slot
  EXPECT_FALSE(h.allow(111));   // single-flight: no second probe
  h.record_success(120);
  EXPECT_EQ(h.state(120), BackendHealth::State::kClosed);
  EXPECT_TRUE(h.allow(121));
}

TEST(BackendHealth, FailedProbeReopensWithAFreshCooldown) {
  BackendHealth::Options o;
  o.failure_threshold = 1;
  o.open_cooldown_ms = 100;
  BackendHealth h(o);
  h.record_failure(0);  // open, cooldown until 100
  ASSERT_TRUE(h.allow(100));
  h.record_failure(150);  // probe failed: reopen, cooldown until 250
  EXPECT_EQ(h.state(200), BackendHealth::State::kOpen);
  EXPECT_FALSE(h.allow(200));
  EXPECT_EQ(h.state(250), BackendHealth::State::kHalfOpen);
  EXPECT_EQ(h.ejections(), 2u);
}

TEST(BackendHealth, ReleaseFreesTheProbeSlotAndCountsNothing) {
  BackendHealth::Options o;
  o.failure_threshold = 1;
  o.open_cooldown_ms = 100;
  BackendHealth h(o);
  h.record_failure(0);  // open, cooldown until 100
  ASSERT_TRUE(h.allow(100));   // the probe slot
  ASSERT_FALSE(h.allow(101));
  h.release(110);  // the probe's own deadline ran out: no verdict
  EXPECT_EQ(h.state(110), BackendHealth::State::kHalfOpen);
  EXPECT_TRUE(h.allow(111));  // the next probe may go
  EXPECT_EQ(h.ejections(), 1u);
  EXPECT_DOUBLE_EQ(h.window_failure_rate(), 1.0);  // only the first failure
}

TEST(BackendHealth, LateSuccessWhileOpenDoesNotCloseEarly) {
  BackendHealth::Options o;
  o.failure_threshold = 1;
  o.open_cooldown_ms = 100;
  BackendHealth h(o);
  h.record_failure(0);
  h.record_success(10);  // from a request already in flight at ejection
  EXPECT_EQ(h.state(10), BackendHealth::State::kOpen);
  EXPECT_FALSE(h.allow(50));
}

TEST(BackendHealth, CloseAfterSuccessesRequiresThatManyProbes) {
  BackendHealth::Options o;
  o.failure_threshold = 1;
  o.open_cooldown_ms = 10;
  o.close_after_successes = 2;
  BackendHealth h(o);
  h.record_failure(0);
  ASSERT_TRUE(h.allow(10));
  h.record_success(11);
  EXPECT_EQ(h.state(11), BackendHealth::State::kHalfOpen);
  ASSERT_TRUE(h.allow(12));  // slot freed by the success
  h.record_success(13);
  EXPECT_EQ(h.state(13), BackendHealth::State::kClosed);
}

TEST(BackendHealth, WindowFailureRateTracksRecentOutcomes) {
  BackendHealth::Options o;
  o.failure_threshold = 100;  // keep it closed
  o.window = 4;
  BackendHealth h(o);
  EXPECT_DOUBLE_EQ(h.window_failure_rate(), 0.0);
  h.record_failure(0);
  h.record_failure(1);
  h.record_success(2);
  h.record_success(3);
  EXPECT_DOUBLE_EQ(h.window_failure_rate(), 0.5);
  h.record_success(4);  // rolls the oldest failure out
  EXPECT_DOUBLE_EQ(h.window_failure_rate(), 0.25);
}

// ------------------------------------------------------- write-ahead journal

TEST(ResultCacheWal, PutsAreJournaledAndReplayedAfterACrash) {
  const std::string path = temp_path("netemu_wal_replay.json");
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  {
    ResultCache cache(8, path, /*journal=*/true);
    cache.put(0xaa, R"({"v":1})");
    cache.put(0xbb, R"({"v":2})");
    cache.put(0xaa, R"({"v":3})");  // overwrite: replay must keep the newer
    EXPECT_EQ(cache.wal_appends(), 3u);
    // No save(): simulates SIGKILL — the snapshot never happens.
  }
  ResultCache reloaded(8, path, /*journal=*/true);
  ASSERT_TRUE(reloaded.load());
  EXPECT_EQ(reloaded.wal_replayed(), 3u);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.get(0xaa).value_or(""), R"({"v":3})");
  EXPECT_EQ(reloaded.get(0xbb).value_or(""), R"({"v":2})");
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(ResultCacheWal, SaveResetsTheJournal) {
  const std::string path = temp_path("netemu_wal_reset.json");
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  {
    ResultCache cache(8, path, /*journal=*/true);
    cache.put(0x1, R"({"v":1})");
    ASSERT_TRUE(cache.save());
    // The entry now lives in the snapshot; the WAL must not replay it again
    // (a stale WAL would resurrect entries evicted after the snapshot).
    cache.put(0x2, R"({"v":2})");
  }
  ResultCache reloaded(8, path, /*journal=*/true);
  ASSERT_TRUE(reloaded.load());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.wal_replayed(), 1u);  // only the post-snapshot put
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(ResultCacheWal, ReplayedEntriesLandHotInTheLru) {
  const std::string path = temp_path("netemu_wal_hot.json");
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  {
    ResultCache cache(8, path, /*journal=*/true);
    ASSERT_TRUE(cache.save());  // snapshot of nothing
    for (std::uint64_t k = 1; k <= 4; ++k) {
      cache.put(k, R"({"v":)" + std::to_string(k) + "}");
    }
  }
  // Reload into a cache only big enough for half: the WAL's newest entries
  // must win the LRU fight.
  ResultCache reloaded(2, path, /*journal=*/true);
  ASSERT_TRUE(reloaded.load());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.get(4).has_value());
  EXPECT_TRUE(reloaded.get(3).has_value());
  EXPECT_FALSE(reloaded.get(1).has_value());
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(ResultCacheWal, TruncationSweepAtEveryByteOffset) {
  // A kill -9 can tear the WAL at any byte.  Whatever prefix survives, the
  // replayer must (a) never crash, (b) recover exactly the entries whose
  // content bytes are fully present, each byte-identical to what was put.
  const std::string path = temp_path("netemu_wal_sweep.json");
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  std::vector<std::pair<std::uint64_t, std::string>> entries;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    entries.emplace_back(
        i, R"({"beta":)" + std::to_string(i) + R"(,"pad":")" +
               std::string(8 * static_cast<std::size_t>(i), 'w') + R"("})");
  }
  {
    ResultCache cache(8, path, /*journal=*/true);
    for (const auto& [key, value] : entries) cache.put(key, value);
  }
  const std::string wal = read_file(path + ".wal");
  ASSERT_FALSE(wal.empty());

  // Content-byte end of each entry line (trailing '\n' not required).
  std::vector<std::size_t> content_ends;
  std::size_t line_start = wal.find('\n') + 1;  // skip the header line
  while (line_start < wal.size()) {
    std::size_t nl = wal.find('\n', line_start);
    if (nl == std::string::npos) nl = wal.size();
    content_ends.push_back(nl);
    line_start = nl + 1;
  }
  ASSERT_EQ(content_ends.size(), entries.size());

  const std::string cut_path = temp_path("netemu_wal_sweep_cut.json");
  std::remove(cut_path.c_str());  // no snapshot: recovery is WAL-only
  for (std::size_t cut = 0; cut <= wal.size(); ++cut) {
    write_file(cut_path + ".wal", wal.substr(0, cut));
    ResultCache reloaded(8, cut_path, /*journal=*/true);
    const bool loaded = reloaded.load();  // must never crash or throw
    std::size_t expected = 0;
    for (const std::size_t end : content_ends) expected += (end <= cut);
    EXPECT_EQ(reloaded.size(), expected) << "cut=" << cut;
    if (expected > 0) {
      EXPECT_TRUE(loaded) << "cut=" << cut;
      EXPECT_EQ(reloaded.wal_replayed(), expected) << "cut=" << cut;
    }
    for (const auto& [key, value] : entries) {
      const auto got = reloaded.get(key);
      if (got) {
        EXPECT_EQ(*got, value) << "cut=" << cut;
      }
    }
  }
  std::remove(cut_path.c_str());
  std::remove((cut_path + ".wal").c_str());
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

TEST(ResultCacheWal, DisabledJournalWritesNoWalFile) {
  const std::string path = temp_path("netemu_wal_off.json");
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  {
    ResultCache cache(8, path);  // journal off (the default)
    cache.put(0x1, R"({"v":1})");
    EXPECT_EQ(cache.wal_appends(), 0u);
  }
  EXPECT_TRUE(read_file(path + ".wal").empty());
  std::remove(path.c_str());
}

// --------------------------------------------------------------- fast client

TEST(ClientOutcome, ConnectRefusedFailsFastWithoutBackoff) {
  // Port 1 on localhost: nothing listens there, connect() refuses at once.
  Client::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_backoff_ms = 200;  // would cost >1s if the backoff loop ran
  Client client(policy);
  client.set_target(1);

  const auto start = std::chrono::steady_clock::now();
  const Client::RequestOutcome out = client.request_outcome(bandwidth_query(64));
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  EXPECT_FALSE(out.doc.has_value());
  EXPECT_EQ(out.failure, RequestFailure::kConnectRefused);
  EXPECT_EQ(out.attempts, 1);  // no retry schedule for a dead process
  EXPECT_LT(ms, 150);          // and no backoff sleep
  EXPECT_NE(client.last_connect_errno(), 0);
}

// ------------------------------------------------------------------- router

namespace {

/// A live in-process backend: executor + server on an ephemeral port.
struct TestBackend {
  QueryExecutor executor;
  std::unique_ptr<Server> server;

  std::uint16_t start() {
    Server::Options options;
    options.port = 0;
    server = std::make_unique<Server>(executor_line_handler(executor), options);
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

}  // namespace

TEST(FleetRouter, RoutesToTheRendezvousOwnerAndAnswers) {
  TestBackend a, b;
  const std::uint16_t pa = a.start();
  const std::uint16_t pb = b.start();
  FleetRouter router(fast_router_options({pa, pb}));

  for (int i = 0; i < 16; ++i) {
    const Json q = bandwidth_query(4096 + i);
    const FleetRouter::Result r = router.request(q);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.doc["ok"].as_bool());
    EXPECT_EQ(r.doc["result"]["n"].as_number(), 4096 + i);
    EXPECT_EQ(r.backend, router.rank_for(q)[0]);  // owner answered
    EXPECT_EQ(r.backends_tried, 1);
  }
  const FleetRouter::Stats s = router.stats();
  EXPECT_EQ(s.requests, 16u);
  EXPECT_EQ(s.answered, 16u);
  EXPECT_EQ(s.failovers, 0u);
}

TEST(FleetRouter, FailsOverWhenTheOwnerIsDownAndEjectsIt) {
  TestBackend a, b;
  const std::uint16_t pa = a.start();
  const std::uint16_t pb = b.start();
  FleetRouter router(fast_router_options({pa, pb}));

  // Find a query owned by backend 0, then kill backend 0.
  Json q = bandwidth_query(9000);
  for (int i = 0; router.rank_for(q)[0] != 0 && i < 100; ++i) {
    q = bandwidth_query(9001 + i);
  }
  ASSERT_EQ(router.rank_for(q)[0], 0u);
  a.server->stop();

  // Every request still answers — by the second choice.
  for (int i = 0; i < 4; ++i) {
    const FleetRouter::Result r = router.request(q);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.backend, 1u);
  }
  const FleetRouter::Stats s = router.stats();
  EXPECT_EQ(s.answered, 4u);
  EXPECT_GE(s.failovers, 1u);
  // Two consecutive refused connects open the breaker; later requests skip
  // the dead backend outright (failovers stop growing with every request).
  EXPECT_EQ(s.backends[0].state, BackendHealth::State::kOpen);
  EXPECT_GE(s.backends[0].refused, 2u);
  EXPECT_EQ(s.backends[0].ejections, 1u);
}

TEST(FleetRouter, RecoversAClosedBackendThroughHalfOpenProbes) {
  TestBackend a;
  const std::uint16_t pa = a.start();
  TestBackend b;
  const std::uint16_t pb = b.start();
  auto options = fast_router_options({pa, pb});
  options.health.open_cooldown_ms = 30;
  FleetRouter router(options);

  Json q = bandwidth_query(9200);
  for (int i = 0; router.rank_for(q)[0] != 0 && i < 100; ++i) {
    q = bandwidth_query(9201 + i);
  }
  a.server->stop();
  for (int i = 0; i < 3; ++i) router.request(q);  // trip the breaker
  ASSERT_EQ(router.stats().backends[0].state, BackendHealth::State::kOpen);

  // Bring the backend back on the SAME port and wait out the cooldown; the
  // next owner-keyed request is the half-open probe and closes the breaker.
  Server::Options so;
  so.port = pa;
  Server revived(executor_line_handler(a.executor), so);
  std::string error;
  ASSERT_TRUE(revived.start(&error)) << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(40));

  const FleetRouter::Result r = router.request(q);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.backend, 0u);
  EXPECT_EQ(router.stats().backends[0].state, BackendHealth::State::kClosed);
  revived.stop();
}

TEST(FleetRouter, DeadlineExpiryWhileHalfOpenLeavesTheBackendRecoverable) {
  TestBackend a;
  const std::uint16_t pa = a.start();
  auto options = fast_router_options({pa});
  options.health.open_cooldown_ms = 30;
  FleetRouter router(options);

  a.server->stop();
  for (int i = 0; i < 3; ++i) router.request(bandwidth_query(9400));
  ASSERT_EQ(router.stats().backends[0].state, BackendHealth::State::kOpen);

  // Back on the same port, behind a compute that holds one query past its
  // deadline (the executor answers only after deadline plus grace).
  constexpr double kSlowN = 9401;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  QueryExecutor::Options eo;
  eo.compute = [opened](const Query& q, const CancelToken& token) {
    if (q.n == kSlowN) opened.wait_for(std::chrono::seconds(5));
    return plan_query(q, nullptr, token);
  };
  QueryExecutor slow(std::move(eo));
  Server::Options so;
  so.port = pa;
  Server revived(executor_line_handler(slow), so);
  std::string error;
  ASSERT_TRUE(revived.start(&error)) << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_EQ(router.stats().backends[0].state,
            BackendHealth::State::kHalfOpen);

  // The half-open probe slot goes to a request whose own deadline runs out
  // on the backend: no verdict either way.
  Json late = bandwidth_query(kSlowN);
  late["deadline_ms"] = 200;
  FleetRouter::Result r = router.request(late);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("deadline budget exhausted"), std::string::npos)
      << r.error;
  FleetRouter::BackendStats s = router.stats().backends[0];
  EXPECT_EQ(s.state, BackendHealth::State::kHalfOpen);
  EXPECT_EQ(s.ejections, 1u);

  // The slot came back: the next request is the probe, and closes it.
  r = router.request(bandwidth_query(9400));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.backend, 0u);
  EXPECT_EQ(router.stats().backends[0].state, BackendHealth::State::kClosed);
  gate.set_value();
  revived.stop();
}

TEST(FleetRouter, ARaceSpendsOneDeadlineBudget) {
  // Both backends hold the query past its deadline.  Each round used to get
  // the whole budget, so the caller waited backends x deadline_ms.
  constexpr double kSlowN = 9501;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::vector<std::unique_ptr<QueryExecutor>> executors;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 2; ++i) {
    QueryExecutor::Options eo;
    eo.compute = [opened](const Query& q, const CancelToken& token) {
      if (q.n == kSlowN) opened.wait_for(std::chrono::seconds(5));
      return plan_query(q, nullptr, token);
    };
    executors.push_back(std::make_unique<QueryExecutor>(std::move(eo)));
    Server::Options so;
    so.port = 0;
    servers.push_back(std::make_unique<Server>(
        executor_line_handler(*executors.back()), so));
    std::string error;
    ASSERT_TRUE(servers.back()->start(&error)) << error;
    ports.push_back(servers.back()->port());
  }
  FleetRouter router(fast_router_options(ports));

  Json late = bandwidth_query(kSlowN);
  late["deadline_ms"] = 100;
  const auto start = std::chrono::steady_clock::now();
  const FleetRouter::Result r = router.request(late);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("deadline budget exhausted"), std::string::npos)
      << r.error;
  EXPECT_EQ(r.backends_tried, 1);  // no failover on a spent budget
  EXPECT_LT(ms, 200);              // within 2 x deadline_ms
  gate.set_value();
  for (auto& server : servers) server->stop();
}

TEST(FleetRouter, ServerSideErrorsAreAuthoritativeNoFailover) {
  TestBackend a, b;
  FleetRouter router(fast_router_options({a.start(), b.start()}));

  Json bad = Json::object();
  bad["op"] = "bandwidth";
  bad["family"] = "no-such-family";
  const FleetRouter::Result r = router.request(bad);
  ASSERT_TRUE(r.ok);  // a document arrived...
  EXPECT_FALSE(r.doc["ok"].as_bool());  // ...saying the query is bad
  EXPECT_EQ(r.backends_tried, 1);  // a second backend would say the same
}

TEST(FleetRouter, AllBackendsDownReportsAnActionableError) {
  TestBackend a;
  const std::uint16_t pa = a.start();
  a.server->stop();
  FleetRouter router(fast_router_options({pa}));

  FleetRouter::Result r = router.request(bandwidth_query(77));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no backend answered"), std::string::npos) << r.error;
  // After the breaker opens, the error names the real state of the fleet.
  router.request(bandwidth_query(78));
  r = router.request(bandwidth_query(79));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("circuit breakers open"), std::string::npos)
      << r.error;
}

TEST(FleetRouter, HedgedRequestsStillAnswerCorrectly) {
  TestBackend a, b;
  auto options = fast_router_options({a.start(), b.start()});
  options.hedge = true;
  options.hedge_fixed_ms = 1;  // hedge aggressively: both paths race
  FleetRouter router(options);

  for (int i = 0; i < 32; ++i) {
    const double n = 5000 + i;
    const FleetRouter::Result r = router.request(bandwidth_query(n));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.doc["ok"].as_bool());
    EXPECT_EQ(r.doc["result"]["n"].as_number(), n);
  }
  const FleetRouter::Stats s = router.stats();
  EXPECT_EQ(s.answered, 32u);
  EXPECT_GE(s.hedges_fired, s.hedges_won);
}

TEST(FleetRouter, StopWithHedgesInFlightJoinsCleanly) {
  TestBackend a, b;
  auto options = fast_router_options({a.start(), b.start()});
  options.hedge = true;
  options.hedge_fixed_ms = 0;  // adaptive, below min samples: no hedges yet
  options.probe_interval_ms = 10;
  FleetRouter router(options);
  for (int i = 0; i < 8; ++i) router.request(bandwidth_query(6000 + i));
  router.stop();  // must join the probe thread and drain attempts
  const FleetRouter::Stats s = router.stats();
  EXPECT_EQ(s.answered, 8u);
}
