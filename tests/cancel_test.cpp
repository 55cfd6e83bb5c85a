// Tests for cooperative cancellation and graceful drain (docs/LIFECYCLE.md):
// CancelToken semantics, the executor's flight CancelSource (deadline
// arming, last-waiter cancellation, the {"op":"cancel"} verb, drain mode),
// degraded partial results staying out of the cache, the client's single
// deadline budget across retries, and the fleet firing cancel at hedge
// losers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "netemu/fleet/router.hpp"
#include "netemu/service/client.hpp"
#include "netemu/service/executor.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/cancel.hpp"
#include "netemu/util/json.hpp"

using namespace netemu;

namespace {

Query estimate_query(double n, std::uint64_t seed = 1) {
  Query q;
  q.kind = QueryKind::kEstimate;
  q.n = n;
  q.seed = seed;
  return q;
}

/// Spin until `pred` holds or `ms` elapse; returns whether it held.
template <typename Pred>
bool eventually(Pred pred, std::uint64_t ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------- CancelToken

TEST(CancelToken, DefaultTokenIsInertAndFree) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check());
}

TEST(CancelToken, RequestCancelFiresEveryToken) {
  CancelSource source;
  const CancelToken a = source.token();
  const CancelToken b = source.token();
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(a.cancelled());
  source.request_cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_THROW(a.check(), CancelledError);
}

TEST(CancelToken, DeadlineLatchesIntoTheFlag) {
  CancelSource source;
  source.set_deadline_after_ms(1);
  const CancelToken token = source.token();
  EXPECT_TRUE(eventually([&] { return token.cancelled(); }, 2000));
  // Latched: once observed, the flag answer is immediate and stable.
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancel_requested());
}

TEST(CancelToken, ZeroDeadlineMeansNone) {
  CancelSource source;
  source.set_deadline_after_ms(0);
  const CancelToken token = source.token();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(token.cancelled());
}

// ------------------------------------------------------------------- executor

TEST(ExecutorCancel, DegradedPartialIsSurfacedAndNeverCached) {
  QueryExecutor::Options options;
  options.threads = 2;
  std::atomic<int> computes{0};
  options.compute = [&](const Query& q, const CancelToken&) {
    ++computes;
    // What plan_estimate returns when the deadline interrupted the sweep:
    // the completed trials, flagged.
    Json doc = Json::object();
    doc["n"] = q.n;
    doc["trials"] = 5;
    doc["trials_completed"] = 2;
    doc["degraded"] = true;
    return doc;
  };
  QueryExecutor exec(options);

  const Query q = estimate_query(64);
  const Response r1 = exec.execute(q);
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_TRUE(r1.degraded);
  EXPECT_NE(r1.result.find("\"degraded\":true"), std::string::npos);

  // A partial answer must not poison the content address: the same query
  // recomputes instead of hitting the cache.
  const Response r2 = exec.execute(q);
  ASSERT_TRUE(r2.ok);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_EQ(computes.load(), 2);

  const QueryExecutor::Stats s = exec.stats();
  EXPECT_EQ(s.cancelled, 2u);
  EXPECT_EQ(s.cache_hits, 0u);
}

TEST(ExecutorCancel, DegradedResponseLineCarriesTheFlag) {
  QueryExecutor::Options options;
  options.threads = 1;
  options.compute = [](const Query&, const CancelToken&) {
    Json doc = Json::object();
    doc["trials"] = 3;
    doc["trials_completed"] = 1;
    doc["degraded"] = true;
    return doc;
  };
  QueryExecutor exec(options);
  const std::string line = handle_request_line(
      R"({"op":"estimate","family":"mesh","n":64})", exec);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"degraded\":true"), std::string::npos) << line;
}

TEST(ExecutorCancel, UnwoundComputeCountsAsCancelled) {
  QueryExecutor::Options options;
  options.threads = 1;
  options.compute = [](const Query&, const CancelToken&) -> Json {
    throw CancelledError("unwound mid-simulation");
  };
  QueryExecutor exec(options);
  const Response r = exec.execute(estimate_query(64));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cancelled"), std::string::npos) << r.error;
  EXPECT_EQ(exec.stats().cancelled, 1u);
}

TEST(ExecutorCancel, LastDepartingWaiterCancelsTheCompute) {
  QueryExecutor::Options options;
  options.threads = 1;
  std::atomic<bool> saw_cancel{false};
  options.compute = [&](const Query&, const CancelToken& token) -> Json {
    // Cooperative compute: grinds until the flight's token fires (bounded
    // so a regression cannot hang the test).
    for (int i = 0; i < 20000; ++i) {
      if (token.cancelled()) {
        saw_cancel = true;
        throw CancelledError("stopped by flight token");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Json::object();
  };
  QueryExecutor exec(options);

  Query q = estimate_query(64);
  q.deadline_ms = 40;
  const Response r = exec.execute(q);
  // The flight's CancelSource is armed with the leader's deadline, and the
  // last departing waiter fires it as a backstop — either way the caller
  // gets an error, and the compute actually unwinds (reclaiming the
  // worker) instead of grinding to completion.
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(eventually([&] { return saw_cancel.load(); }));
  EXPECT_TRUE(eventually([&] { return exec.stats().cancelled == 1; }));
}

TEST(ExecutorCancel, CancelTraceFiresTheMatchingFlight) {
  QueryExecutor::Options options;
  options.threads = 1;
  std::atomic<bool> started{false};
  options.compute = [&](const Query&, const CancelToken& token) -> Json {
    started = true;
    for (int i = 0; i < 20000; ++i) {
      token.check();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Json::object();
  };
  QueryExecutor exec(options);

  Query q = estimate_query(64);
  q.trace_id = 0xabcdef12u;
  Response r;
  std::thread leader([&] { r = exec.execute(q); });
  ASSERT_TRUE(eventually([&] { return started.load(); }));

  EXPECT_FALSE(exec.cancel_trace(0x1111));  // unknown trace: no flight
  EXPECT_TRUE(exec.cancel_trace(0xabcdef12u));
  leader.join();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cancelled"), std::string::npos) << r.error;
  EXPECT_EQ(exec.stats().cancelled, 1u);
}

TEST(ExecutorCancel, DrainShedsNewFlightsButServesCacheHits) {
  QueryExecutor::Options options;
  options.threads = 1;
  options.compute = [](const Query& q, const CancelToken&) {
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor exec(options);

  const Query cached = estimate_query(64);
  ASSERT_TRUE(exec.execute(cached).ok);  // prime the cache

  EXPECT_FALSE(exec.draining());
  exec.begin_drain();
  EXPECT_TRUE(exec.draining());

  // New work is shed with the overloaded flag so a fleet fails it over...
  const Response shed = exec.execute(estimate_query(65));
  EXPECT_FALSE(shed.ok);
  EXPECT_TRUE(shed.overloaded);
  EXPECT_NE(shed.error.find("draining"), std::string::npos) << shed.error;

  // ...but answers the executor already has still serve.
  const Response hit = exec.execute(cached);
  EXPECT_TRUE(hit.ok);
  EXPECT_TRUE(hit.cache_hit);
}

// ----------------------------------------------------- drain during overload

TEST(DrainOverload, DrainingOutranksGuardShedsAndCarriesNoHint) {
  // A guarded executor mid-storm that starts draining must answer
  // "draining" (no retry hint — the server is going away, callers should
  // fail over), not a guard shed with a backoff hint that invites retries.
  QueryExecutor::Options options;
  options.threads = 1;
  options.guard.cost_budget = 1;  // the gate is trivially full once busy
  options.guard.adaptive = false;
  options.compute = [](const Query& q, const CancelToken&) {
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor exec(options);
  exec.begin_drain();

  const Response r = exec.execute(estimate_query(64));
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.overloaded);
  EXPECT_NE(r.error.find("draining"), std::string::npos) << r.error;
  EXPECT_EQ(r.retry_after_ms, 0u);
}

TEST(DrainOverload, QueuedUnstartedFlightsShedWhenDrainBegins) {
  // The executor queues leaders in the fair scheduler when every worker is
  // busy.  Drain exists to finish what is RUNNING: the queued-but-unstarted
  // flight must answer "draining" immediately instead of starting.
  QueryExecutor::Options options;
  options.threads = 1;  // one worker, so a second flight parks in the queue
  options.guard.adaptive = false;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> computes{0};
  options.compute = [&](const Query& q, const CancelToken&) {
    ++computes;
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor exec(options);

  Response running, queued;
  std::thread first([&] { running = exec.execute(estimate_query(64)); });
  ASSERT_TRUE(eventually([&] { return computes.load() == 1; }));
  std::thread second([&] { queued = exec.execute(estimate_query(65)); });
  ASSERT_TRUE(eventually([&] { return exec.pending() == 2; }));

  exec.begin_drain();
  // The queued flight answers now — before the gate opens, so it provably
  // never ran.
  second.join();
  EXPECT_FALSE(queued.ok);
  EXPECT_TRUE(queued.overloaded);
  EXPECT_NE(queued.error.find("draining"), std::string::npos) << queued.error;
  EXPECT_EQ(queued.retry_after_ms, 0u);
  EXPECT_EQ(computes.load(), 1);

  // The running flight is drain's whole point: it finishes and answers.
  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  first.join();
  EXPECT_TRUE(running.ok) << running.error;
  EXPECT_EQ(exec.stats().rejected, 1u);
}

// ------------------------------------------------------------------- protocol

TEST(ProtocolCancel, CancelOpValidatesItsTraceField) {
  QueryExecutor exec;
  EXPECT_NE(handle_request_line(R"({"op":"cancel"})", exec)
                .find("missing string field 'trace'"),
            std::string::npos);
  EXPECT_NE(handle_request_line(R"({"op":"cancel","trace":"zzz"})", exec)
                .find("nonzero hex64"),
            std::string::npos);
  // A well-formed id with no matching flight: fine, nothing to cancel.
  const std::string line =
      handle_request_line(R"({"op":"cancel","trace":"00000000000000ab"})",
                          exec);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"cancelled\":false"), std::string::npos) << line;
}

TEST(ProtocolCancel, DrainOpEntersDrainModeAndHealthReportsIt) {
  QueryExecutor exec;
  EXPECT_NE(handle_request_line(R"({"op":"health"})", exec).find("\"ok\""),
            std::string::npos);
  const std::string line = handle_request_line(R"({"op":"drain"})", exec);
  EXPECT_NE(line.find("\"draining\":true"), std::string::npos) << line;
  EXPECT_TRUE(exec.draining());
  EXPECT_NE(handle_request_line(R"({"op":"health"})", exec)
                .find("\"status\":\"draining\""),
            std::string::npos);
}

// ------------------------------------------------------- client budget

TEST(ClientBudget, RetriesDrawFromOneDeadlineBudget) {
  // A backend that always answers garbage: every attempt is a protocol
  // failure, so an unbudgeted client would burn the whole retry schedule.
  Server::Options so;
  so.port = 0;
  Server garbage(
      [](std::string, const std::string&, Reactor&, Server::Reply reply) {
        reply("not json");
      },
      so);
  std::string error;
  ASSERT_TRUE(garbage.start(&error)) << error;

  Client::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_backoff_ms = 60;
  policy.max_backoff_ms = 60;  // ~9 x 60ms of sleeping without a budget
  Client client(policy);
  client.set_target(garbage.port());

  Json q = Json::object();
  q["op"] = "bandwidth";
  q["family"] = "Mesh";
  q["n"] = 64;
  q["deadline_ms"] = 100;

  const auto start = std::chrono::steady_clock::now();
  const Client::RequestOutcome out = client.request_outcome(q);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  EXPECT_FALSE(out.doc.has_value());
  // The budget — not the attempt allowance — ended the request, well
  // before the 540ms the full backoff schedule would cost.
  EXPECT_LT(out.attempts, policy.max_attempts);
  EXPECT_NE(out.error.find("deadline budget exhausted"), std::string::npos)
      << out.error;
  EXPECT_LT(ms, 450);
  garbage.stop();
}

TEST(ClientBudget, SpentBudgetIsADeadlineOutcome) {
  // A backend that never answers: each attempt's socket timeout is what is
  // left of the budget, so the request runs out of time.  That is the
  // request's own deadline, not a transport failure of the backend, and a
  // fleet router must not hold it against the backend's breaker.
  Server::Options so;
  so.port = 0;
  Server silent(
      [](std::string, const std::string&, Reactor&, Server::Reply) {}, so);
  std::string error;
  ASSERT_TRUE(silent.start(&error)) << error;

  Client client;
  client.set_target(silent.port());
  Json q = Json::object();
  q["op"] = "bandwidth";
  q["family"] = "Mesh";
  q["n"] = 64;
  q["deadline_ms"] = 50;

  const Client::RequestOutcome out = client.request_outcome(q);
  EXPECT_FALSE(out.doc.has_value());
  EXPECT_EQ(out.failure, RequestFailure::kDeadline)
      << request_failure_name(out.failure) << ": " << out.error;
  EXPECT_NE(out.error.find("deadline budget exhausted"), std::string::npos)
      << out.error;
  silent.stop();
}

// ------------------------------------------------------------ fleet hedging

namespace {

struct CancelTestBackend {
  QueryExecutor::Options options;
  std::unique_ptr<QueryExecutor> executor;
  std::unique_ptr<Server> server;

  std::uint16_t start() {
    executor = std::make_unique<QueryExecutor>(options);
    Server::Options so;
    so.port = 0;
    server = std::make_unique<Server>(*executor, so);
    std::string error;
    EXPECT_TRUE(server->start(&error)) << error;
    return server->port();
  }
};

}  // namespace

TEST(FleetCancel, HedgeWinnerFiresCancelAtTheLoser) {
  // Backend 0 is pathologically slow but cooperative; backend 1 answers at
  // once.  A hedged request whose primary is the slow backend resolves via
  // the hedge, and the router must then fire {"op":"cancel"} at the loser
  // so its compute unwinds instead of running to completion.
  CancelTestBackend slow, fast;
  slow.options.threads = 2;
  slow.options.compute = [](const Query& q,
                            const CancelToken& token) -> Json {
    for (int i = 0; i < 4000; ++i) {
      token.check();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  fast.options.threads = 2;
  fast.options.compute = [](const Query& q, const CancelToken&) {
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  const std::uint16_t slow_port = slow.start();
  const std::uint16_t fast_port = fast.start();

  FleetRouter::Options options;
  options.backends.push_back({slow_port, ""});
  options.backends.push_back({fast_port, ""});
  options.probe_interval_ms = 0;
  options.client.max_attempts = 1;
  options.client.attempt_timeout_ms = 30000;
  options.hedge = true;
  options.hedge_fixed_ms = 10;
  FleetRouter router(options);

  // Find an estimate query the slow backend owns (distinct n values hash to
  // distinct content addresses, so a handful of tries always lands one).
  Json q = Json::object();
  q["op"] = "estimate";
  q["family"] = "mesh";
  int n = 64;
  for (; router.rank_for(q)[0] != 0 && n < 164; ++n) {
    q["n"] = n;
  }
  ASSERT_EQ(router.rank_for(q)[0], 0u);

  const FleetRouter::Result r = router.request(q);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.hedged);
  EXPECT_TRUE(r.hedge_won);
  EXPECT_EQ(r.backend, 1u);
  ASSERT_TRUE(r.cancel_fired);
  EXPECT_GE(router.stats().cancels_fired, 1u);

  // The loser's backend really stops: its compute throws CancelledError,
  // which its executor counts.
  EXPECT_TRUE(eventually(
      [&] { return slow.executor->stats().cancelled >= 1; }));
  router.stop();
}
