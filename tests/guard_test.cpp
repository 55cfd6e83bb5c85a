// Tests for netemu::guard overload protection (docs/GUARD.md): the query
// cost model, the backlog drain-rate estimator behind dynamic
// retry_after_ms, the Guard decision box (backlog / fair-share / rate-limit
// admission, brownout, AIMD limit adaptation, bounded client tracking), the
// weighted-DRR fair scheduler, and the executor integration (shed shapes,
// brownout responses staying out of the cache).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "netemu/guard/cost.hpp"
#include "netemu/guard/fair_queue.hpp"
#include "netemu/guard/guard.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/service/executor.hpp"
#include "netemu/util/json.hpp"
#include "netemu/util/thread_pool.hpp"

using namespace netemu;

namespace {

Query closed_form_query() {
  Query q;
  q.kind = QueryKind::kBandwidth;
  q.n = 1024;
  return q;
}

Query estimate_query(double n, unsigned trials) {
  Query q;
  q.kind = QueryKind::kEstimate;
  q.n = n;
  q.trials = trials;
  q.seed = 1;
  return q;
}

// A guard as a one-worker QueryExecutor builds it: the default max_queue
// count cap and the default 50 ms first retry hint.
constexpr std::size_t kMaxFlights = 64;
constexpr std::size_t kWorkers = 1;
constexpr std::uint64_t kRetryAfterMs = 50;

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

// ----------------------------------------------------------------- cost model

TEST(QueryCost, ClosedFormKindsCostOneUnit) {
  Query q = closed_form_query();
  EXPECT_EQ(guard::query_cost(q), 1u);
  q.kind = QueryKind::kMaxHost;
  EXPECT_EQ(guard::query_cost(q), 1u);
  q.kind = QueryKind::kBounds;
  q.n = 1e7;  // closed-form stays flat in n
  EXPECT_EQ(guard::query_cost(q), 1u);
}

TEST(QueryCost, EstimateScalesWithNodeTrials) {
  // One unit is ~1024 node-trials; cost is the ceiling, never below 1.
  EXPECT_EQ(guard::query_cost(estimate_query(64, 1)), 1u);
  EXPECT_EQ(guard::query_cost(estimate_query(1024, 1)), 1u);
  EXPECT_EQ(guard::query_cost(estimate_query(1024, 8)), 8u);
  EXPECT_EQ(guard::query_cost(estimate_query(10240, 8)), 80u);
  EXPECT_EQ(guard::query_cost(estimate_query(1025, 1)), 2u);  // ceil
  // Deterministic: the same query always costs the same.
  EXPECT_EQ(guard::query_cost(estimate_query(4096, 16)),
            guard::query_cost(estimate_query(4096, 16)));
}

// ----------------------------------------------------------------- drain rate

TEST(DrainRate, FallbackUntilFirstSample) {
  guard::DrainRate rate;
  EXPECT_FALSE(rate.has_samples());
  // A fresh estimator returns the configured constant unchanged — even the
  // clamps stay out of the way (tests pin the constant).
  EXPECT_EQ(rate.hint_ms(1000.0, 50), 50u);
  EXPECT_EQ(rate.hint_ms(0.0, 7), 7u);
}

TEST(DrainRate, HintScalesWithBacklogAndClamps) {
  guard::DrainRate rate;
  // 100 ms of wall time retired 10 units on 1 worker: 10 ms/unit.
  rate.note(100.0, 10, 1);
  ASSERT_TRUE(rate.has_samples());
  EXPECT_DOUBLE_EQ(rate.ms_per_unit(), 10.0);
  EXPECT_EQ(rate.hint_ms(50.0, 40), 500u);  // backlog x rate
  // Near-empty backlog floors at a quarter of the fallback...
  EXPECT_EQ(rate.hint_ms(0.5, 40), 10u);
  // ...and a monster backlog is capped so clients retry this decade.
  EXPECT_EQ(rate.hint_ms(1e9, 40), 10000u);
}

TEST(DrainRate, ParallelWorkersDrainFaster) {
  guard::DrainRate one, four;
  one.note(100.0, 10, 1);
  four.note(100.0, 10, 4);
  EXPECT_DOUBLE_EQ(four.ms_per_unit() * 4.0, one.ms_per_unit());
}

// ------------------------------------------------------------ guard admission

TEST(GuardAdmit, EmptyExecutorAdmitsAnything) {
  guard::Options opts;
  opts.cost_budget = 100;
  opts.adaptive = false;
  scope::Registry metrics;  // stands in for the executor's registry
  guard::Guard guard(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);

  // The biggest legal estimate must stay servable when nothing competes,
  // even though it alone exceeds the whole budget.
  const guard::Guard::Decision d =
      guard.admit("a", estimate_query(1e6, 1), 500);
  EXPECT_TRUE(d.admit);
  EXPECT_EQ(guard.pending_cost(), 500u);
  EXPECT_GT(guard.pressure(), 1.0);
  guard.complete("a", 500);
  EXPECT_EQ(guard.pending_cost(), 0u);
}

TEST(GuardAdmit, BacklogShedsOnceWorkIsPending) {
  guard::Options opts;
  opts.cost_budget = 100;
  opts.adaptive = false;
  scope::Registry metrics;
  guard::Guard guard(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);

  ASSERT_TRUE(guard.admit("a", closed_form_query(), 90).admit);
  const guard::Guard::Decision d =
      guard.admit("b", closed_form_query(), 20);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.reason, "cost budget full");
  // Backlog sheds carry the drain-rate hint: the fallback constant until
  // the first full compute has been timed.
  EXPECT_EQ(d.retry_after_ms, 50u);
  EXPECT_EQ(metrics.counter_value("netemu_guard_budget_full_total"), 1u);
  // The shed charged nothing: completing the admitted flight reopens.
  guard.complete("a", 90);
  EXPECT_TRUE(guard.admit("b", closed_form_query(), 20).admit);
}

TEST(GuardAdmit, FairShareCapsOneClientNotTheOthers) {
  guard::Options opts;
  opts.cost_budget = 100;
  opts.client_share = 0.5;  // one client may hold at most 50 units
  opts.adaptive = false;
  scope::Registry metrics;
  guard::Guard guard(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);

  ASSERT_TRUE(guard.admit("greedy", closed_form_query(), 40).admit);
  // Second query would put the same client at 80 > 50: shed...
  const guard::Guard::Decision d =
      guard.admit("greedy", closed_form_query(), 40);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.reason, "client over fair share");
  // ...while another client's identical query fits the global budget.
  EXPECT_TRUE(guard.admit("polite", closed_form_query(), 40).admit);
  EXPECT_EQ(metrics.counter_value("netemu_guard_share_exceeded_total"), 1u);
  guard.complete("greedy", 40);
  guard.complete("polite", 40);
}

TEST(GuardAdmit, AClientShedWhileHoldingWorkWaitsOutItsHint) {
  std::uint64_t now = 0;
  guard::Options opts;
  opts.cost_budget = 100;
  opts.client_share = 0.5;
  opts.adaptive = false;
  opts.clock_ms = [&now] { return now; };
  scope::Registry metrics;
  guard::Guard guard(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);

  ASSERT_TRUE(guard.admit("greedy", closed_form_query(), 40).admit);
  const guard::Guard::Decision over =
      guard.admit("greedy", closed_form_query(), 40);
  ASSERT_FALSE(over.admit);
  EXPECT_FALSE(over.held);  // the shed that starts a hold answers at once
  EXPECT_EQ(over.retry_after_ms, 50u);
  // Its flight completes, but asking again inside the hint is shed at once,
  // with what is left of the hint...
  guard.complete("greedy", 40);
  now += 20;
  const guard::Guard::Decision early =
      guard.admit("greedy", closed_form_query(), 40);
  EXPECT_FALSE(early.admit);
  EXPECT_TRUE(early.held);
  EXPECT_EQ(early.reason, "client over fair share");
  EXPECT_EQ(early.retry_after_ms, 30u);
  // ...while another client is admitted, and so is this one once the hint
  // has passed.
  EXPECT_TRUE(guard.admit("polite", closed_form_query(), 40).admit);
  now += 30;
  EXPECT_TRUE(guard.admit("greedy", closed_form_query(), 40).admit);
  EXPECT_EQ(metrics.counter_value("netemu_guard_share_exceeded_total"), 2u);
  // A client shed while it holds nothing is not held.
  const guard::Guard::Decision full =
      guard.admit("stranger", closed_form_query(), 40);
  EXPECT_EQ(full.reason, "cost budget full");
  EXPECT_FALSE(full.held);
}

TEST(GuardAdmit, RateLimitRefillsOverFakeTime) {
  std::uint64_t now = 0;
  guard::Options opts;
  opts.cost_budget = 1000;
  opts.rate_units_per_s = 10.0;  // burst defaults to 2 s of refill = 20
  opts.adaptive = false;
  opts.clock_ms = [&now] { return now; };
  scope::Registry metrics;
  guard::Guard guard(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);

  // The full burst admits; the 21st unit finds an empty bucket.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(guard.admit("a", closed_form_query(), 1).admit) << i;
  }
  const guard::Guard::Decision d = guard.admit("a", closed_form_query(), 1);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.reason, "client rate limited");
  // Token-refill hint: one unit at 10/s is 100 ms away.
  EXPECT_EQ(d.retry_after_ms, 100u);
  EXPECT_EQ(metrics.counter_value("netemu_guard_rate_limited_total"), 1u);

  now += 100;  // one token refills
  EXPECT_TRUE(guard.admit("a", closed_form_query(), 1).admit);
  // A different client has its own untouched bucket all along.
  EXPECT_TRUE(guard.admit("b", closed_form_query(), 1).admit);
}

TEST(GuardAdmit, ReleaseUnchargesWithoutControllerFeedback) {
  guard::Options opts;
  opts.cost_budget = 100;
  opts.adaptive = false;
  scope::Registry metrics;
  guard::Guard guard(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);
  ASSERT_TRUE(guard.admit("a", closed_form_query(), 60).admit);
  EXPECT_DOUBLE_EQ(guard.pressure(), 0.6);
  guard.release("a", 60);
  EXPECT_DOUBLE_EQ(guard.pressure(), 0.0);
  EXPECT_EQ(guard.pending_cost(), 0u);
}

TEST(GuardAdmit, CountCapComesFirstAndSharesThePressure) {
  guard::Options opts;
  opts.cost_budget = 100;
  opts.adaptive = false;
  scope::Registry metrics;
  guard::Guard guard(opts, metrics, /*max_flights=*/2, kWorkers,
                     kRetryAfterMs);

  // One pressure number over both limits: 1 of 2 flights outweighs 10 of
  // 100 cost units.
  ASSERT_TRUE(guard.admit("a", closed_form_query(), 10).admit);
  EXPECT_DOUBLE_EQ(guard.pressure(), 0.5);
  ASSERT_TRUE(guard.admit("b", closed_form_query(), 10).admit);
  EXPECT_DOUBLE_EQ(guard.pressure(), 1.0);

  // The cap counts flights, whatever they cost, and sheds with the
  // drain-rate hint (the fallback constant before any sample).
  const guard::Guard::Decision d = guard.admit("c", closed_form_query(), 1);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.reason, "admission queue full");
  EXPECT_EQ(d.retry_after_ms, 50u);
  EXPECT_EQ(metrics.counter_value("netemu_guard_admitted_total"), 2u);

  guard.complete("a", 10);
  EXPECT_EQ(guard.pending_flights(), 1u);
  EXPECT_TRUE(guard.admit("c", closed_form_query(), 1).admit);
}

TEST(GuardClients, IdleClientsEvictedPastTheCap) {
  guard::Options opts;
  opts.cost_budget = 100;
  opts.max_clients = 2;
  opts.adaptive = false;
  scope::Registry metrics;
  guard::Guard guard(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);

  ASSERT_TRUE(guard.admit("a", closed_form_query(), 1).admit);
  guard.complete("a", 1);
  ASSERT_TRUE(guard.admit("b", closed_form_query(), 1).admit);
  guard.complete("b", 1);
  // The third client evicts the least-recently-seen idle one: bounded map.
  ASSERT_TRUE(guard.admit("c", closed_form_query(), 1).admit);
  guard.complete("c", 1);
  EXPECT_LE(guard.clients_tracked(), 2u);
}

// -------------------------------------------------------------------- brownout

TEST(GuardBrownout, EstimatesDegradeAbovePressureThreshold) {
  guard::Options opts;
  opts.cost_budget = 100;
  opts.adaptive = false;  // pin the limit so pressure is exact
  scope::Registry metrics;
  guard::Guard guard(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);

  // 80/100 pending puts pressure past the 0.75 default (a closed-form
  // filler, so the brownout counter below counts only the victim)...
  ASSERT_TRUE(guard.admit("a", closed_form_query(), 80).admit);
  // ...so the next admitted estimate keeps ceil(8 x 0.25) = 2 trials.
  const guard::Guard::Decision d =
      guard.admit("b", estimate_query(1024, 8), 8);
  ASSERT_TRUE(d.admit);
  EXPECT_TRUE(d.brownout);
  EXPECT_EQ(d.trials, 2u);
  EXPECT_EQ(metrics.counter_value("netemu_guard_brownouts_total"), 1u);

  // Closed-form kinds never brown out — there is no sweep to shrink.
  const guard::Guard::Decision cf = guard.admit("c", closed_form_query(), 1);
  ASSERT_TRUE(cf.admit);
  EXPECT_FALSE(cf.brownout);
}

TEST(GuardBrownout, KillSwitchAndLowPressureServeTheFullSweep) {
  guard::Options opts;
  opts.cost_budget = 100;
  opts.adaptive = false;
  opts.brownout = false;  // kill switch
  scope::Registry metrics;
  guard::Guard off(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);
  ASSERT_TRUE(off.admit("a", closed_form_query(), 80).admit);
  EXPECT_FALSE(off.admit("b", estimate_query(1024, 8), 8).brownout);

  opts.brownout = true;
  guard::Guard calm(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);
  // Pressure 0.08 after charging: nowhere near the threshold.
  EXPECT_FALSE(calm.admit("a", estimate_query(1024, 8), 8).brownout);
}

TEST(GuardBrownout, LoneRequestOnAnIdleGuardKeepsItsFullSweep) {
  guard::Options opts;
  opts.cost_budget = 100;
  opts.adaptive = false;
  scope::Registry metrics;
  guard::Guard guard(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);

  // 0.8 of the limit, past the 0.75 threshold once charged — but nothing
  // else is pending.  An idle executor serves a lone request in full, as
  // the backlog check admits it whatever it costs.
  const guard::Guard::Decision d =
      guard.admit("a", estimate_query(1024, 8), 80);
  ASSERT_TRUE(d.admit);
  EXPECT_FALSE(d.brownout);
  EXPECT_EQ(metrics.counter_value("netemu_guard_brownouts_total"), 0u);
}

// ------------------------------------------------------------------------ AIMD

TEST(GuardAimd, LimitTracksTheLatencyTarget) {
  std::uint64_t now = 0;
  scope::Registry metrics;  // stands in for the executor's registry
  guard::Options opts;
  opts.cost_budget = 100;
  opts.target_p95_ms = 10.0;
  opts.adjust_interval_ms = 100;
  opts.adjust_min_samples = 8;
  opts.clock_ms = [&now] { return now; };
  guard::Guard guard(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);
  EXPECT_EQ(guard.effective_limit(), 100u);

  // `flights` completed flights, each having waited `wait_ms` for a worker.
  const auto complete = [&](int flights, double wait_ms) {
    for (int i = 0; i < flights; ++i) {
      ASSERT_TRUE(guard.admit("a", closed_form_query(), 1).admit);
      guard.complete("a", 1, -1.0, wait_ms);  // complete() runs the controller
    }
  };

  now = 150;
  complete(8, 50.0);  // p95 ~50 ms > 10 ms target: multiplicative decrease
  EXPECT_EQ(guard.effective_limit(), 70u);  // 100 x 0.7
  EXPECT_GE(metrics.counter_value("netemu_guard_limit_decreases_total"), 1u);

  now = 300;
  complete(8, 1.0);  // p95 below target: additive increase of 5% of the budget
  EXPECT_EQ(guard.effective_limit(), 75u);
  EXPECT_GE(metrics.counter_value("netemu_guard_limit_increases_total"), 1u);

  // A thin window keeps its samples: they vote with the next ones.
  now = 450;
  complete(3, 50.0);
  EXPECT_EQ(guard.effective_limit(), 75u);
  now = 600;
  complete(5, 50.0);
  EXPECT_EQ(guard.effective_limit(), 52u);  // 75 x 0.7
}

TEST(GuardAimd, ThinWindowsAndKillSwitchHoldTheLimit) {
  std::uint64_t now = 0;
  scope::Registry metrics;
  guard::Options opts;
  opts.cost_budget = 100;
  opts.adjust_interval_ms = 100;
  opts.adjust_min_samples = 8;
  opts.clock_ms = [&now] { return now; };

  {
    guard::Guard guard(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);
    now = 150;
    for (int i = 0; i < 3; ++i) {  // 3 < min_samples
      guard.admit("a", closed_form_query(), 1);
      guard.complete("a", 1, -1.0, 900.0);
    }
    EXPECT_EQ(guard.effective_limit(), 100u);  // thin window: no vote
  }
  {
    opts.adaptive = false;  // kill switch pins the limit outright
    guard::Guard guard(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);
    now += 1000;
    for (int i = 0; i < 20; ++i) {
      guard.admit("a", closed_form_query(), 1);
      guard.complete("a", 1, -1.0, 900.0);
    }
    EXPECT_EQ(guard.effective_limit(), 100u);
    EXPECT_EQ(metrics.counter_value("netemu_guard_limit_decreases_total"), 0u);
  }
}

// --------------------------------------------------------------- health block

TEST(GuardJson, HealthBlockCarriesTheDials) {
  guard::Options opts;
  opts.cost_budget = 100;
  opts.adaptive = false;
  scope::Registry metrics;
  guard::Guard guard(opts, metrics, kMaxFlights, kWorkers, kRetryAfterMs);
  ASSERT_TRUE(guard.admit("a", closed_form_query(), 25).admit);

  const Json doc = guard.to_json();
  EXPECT_TRUE(doc["enabled"].as_bool());
  EXPECT_EQ(doc["cost_budget"].as_uint(0), 100u);
  EXPECT_EQ(doc["limit"].as_uint(0), 100u);
  EXPECT_EQ(doc["pending_cost"].as_uint(99), 25u);
  EXPECT_DOUBLE_EQ(doc["pressure"].as_number(0.0), 0.25);
  EXPECT_EQ(doc["admitted"].as_uint(0), 1u);
  EXPECT_EQ(doc["clients"].as_uint(0), 1u);
  EXPECT_FALSE(doc["adaptive"].as_bool(true));
  guard.complete("a", 25);
}

// ------------------------------------------------------------- fair scheduler

TEST(FairScheduler, UncontendedSubmitRunsTheTask) {
  ThreadPool pool(1);
  guard::FairScheduler sched(pool);
  std::atomic<bool> ran{false};
  EXPECT_TRUE(sched.submit("a", 1, [&] { ran = true; }, nullptr));
  EXPECT_TRUE(eventually([&] { return ran.load(); }));
  EXPECT_TRUE(eventually([&] { return sched.running() == 0; }));
  EXPECT_EQ(sched.queued(), 0u);
}

TEST(FairScheduler, DrrInterleavesAFloodWithAMouse) {
  ThreadPool pool(1);  // strictly serial: dispatch order is observable
  guard::FairScheduler sched(pool);

  // Park the single worker so every later submit queues.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  sched.submit("warmup", 1,
               [&] {
                 std::unique_lock lock(gate_mutex);
                 gate_cv.wait(lock, [&] { return gate_open; });
               },
               nullptr);

  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto record = [&](const std::string& who) {
    return [&, who] {
      std::lock_guard lock(order_mutex);
      order.push_back(who);
    };
  };
  // The flood enqueues three tasks before the mouse's one arrives.
  for (int i = 0; i < 3; ++i) sched.submit("flood", 1, record("flood"), nullptr);
  sched.submit("mouse", 1, record("mouse"), nullptr);
  EXPECT_EQ(sched.queued(), 4u);

  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  ASSERT_TRUE(eventually([&] {
    std::lock_guard lock(order_mutex);
    return order.size() == 4;
  }));
  // DRR alternates clients: the mouse's single task runs after at most one
  // flood task, not behind the whole flood (a plain FIFO would run it last).
  std::lock_guard lock(order_mutex);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[1], "mouse") << order[0] << order[1] << order[2];
}

TEST(FairScheduler, ANewcomerAfterTheLastVisitGoesBeforeTheWrap) {
  // Round-robin order at the end of the ring: a client that arrives after
  // the last client's visit is visited next, before the ring wraps to the
  // front (so "a" cannot run twice in a row past "b").
  ThreadPool pool(1);  // strictly serial: dispatch order is observable
  guard::FairScheduler sched(pool);
  std::mutex mutex;
  std::condition_variable cv;
  int stage = 0;
  std::vector<std::string> order;
  const auto reach = [&](int s) {
    {
      std::lock_guard lock(mutex);
      stage = s;
    }
    cv.notify_all();
  };
  const auto await = [&](int s) {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return stage >= s; });
  };
  const auto record = [&](const std::string& who) {
    std::lock_guard lock(mutex);
    order.push_back(who);
  };
  sched.submit("holder", 1, [&] { await(1); }, nullptr);
  sched.submit("a", 1,
               [&] {
                 record("a1");
                 reach(2);
                 await(3);
               },
               nullptr);
  sched.submit("a", 1, [&] { record("a2"); }, nullptr);
  reach(1);
  await(2);  // a1 runs: "a" still queues a2 and was the last client visited
  sched.submit("b", 1, [&] { record("b"); }, nullptr);
  reach(3);
  ASSERT_TRUE(eventually([&] { return sched.queued() == 0; }));
  EXPECT_TRUE(eventually([&] { return sched.running() == 0; }));
  pool.shutdown();  // no pump may outlive the scheduler
  std::lock_guard lock(mutex);
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b", "a2"}));
}

TEST(FairScheduler, ShedQueuedAnswersEveryParkedTask) {
  ThreadPool pool(1);
  guard::FairScheduler sched(pool);

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  sched.submit("warmup", 1,
               [&] {
                 std::unique_lock lock(gate_mutex);
                 gate_cv.wait(lock, [&] { return gate_open; });
               },
               nullptr);

  std::atomic<int> ran{0}, shed{0};
  for (int i = 0; i < 3; ++i) {
    sched.submit("a", 1, [&] { ++ran; }, [&] { ++shed; });
  }
  EXPECT_EQ(sched.queued(), 3u);
  // Each dropped task answers through its shed callback, exactly once.
  EXPECT_EQ(sched.shed_queued(), 3u);
  EXPECT_EQ(shed.load(), 3);
  EXPECT_EQ(sched.queued(), 0u);

  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  EXPECT_TRUE(eventually([&] { return sched.running() == 0; }));
  EXPECT_EQ(ran.load(), 0);  // run and shed are mutually exclusive
}

TEST(FairScheduler, DrainedClientsAreForgotten) {
  // Client ids are per-connection peer tags, so connection churn under
  // contention must not grow the client map for the life of the process:
  // a client's queue is erased when it drains.
  ThreadPool pool(1);
  guard::FairScheduler sched(pool);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  sched.submit("holder", 1,
               [&] {
                 std::unique_lock lock(gate_mutex);
                 gate_cv.wait(lock, [&] { return gate_open; });
               },
               nullptr);

  constexpr int kClients = 10000;
  std::atomic<int> ran{0};
  for (int i = 0; i < kClients; ++i) {
    sched.submit("peer:127.0.0.1:" + std::to_string(i), 1, [&] { ++ran; },
                 nullptr);
  }
  EXPECT_EQ(sched.clients_tracked(), static_cast<std::size_t>(kClients));

  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  // Generous bound: 10,000 dispatches under a sanitizer build.
  EXPECT_TRUE(eventually([&] { return ran.load() == kClients; }, 120000));
  EXPECT_TRUE(eventually([&] { return sched.running() == 0; }, 120000));
  EXPECT_EQ(sched.queued(), 0u);
  EXPECT_EQ(sched.clients_tracked(), 0u);
  pool.shutdown();  // no pump may outlive the scheduler, even on a failure
}

TEST(FairScheduler, PoolRefusalRunsTheShedCallback) {
  ThreadPool pool(1);
  pool.shutdown();  // every submit from here on is rejected
  guard::FairScheduler sched(pool);
  std::atomic<bool> ran{false}, shed{false};
  sched.submit("a", 1, [&] { ran = true; }, [&] { shed = true; });
  EXPECT_TRUE(shed.load());  // inline, so no wait needed
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(sched.running(), 0u);
}

// ------------------------------------------------------- executor integration

TEST(ExecutorGuard, ShedResponsesCarryOverloadedAndAHint) {
  QueryExecutor::Options options;
  options.threads = 1;
  options.retry_after_hint_ms = 40;
  options.guard.cost_budget = 1;  // one closed-form unit fills the gate
  options.guard.adaptive = false;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  options.compute = [&](const Query& q, const CancelToken&) {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor exec(options);

  Response first;
  std::thread leader([&] { first = exec.execute(estimate_query(64, 1)); });
  ASSERT_TRUE(eventually([&] { return exec.pending() == 1; }));

  // Distinct query, same 1-unit cost: the budget is full, so it sheds in
  // the overloaded shape with the fallback hint (no drain samples yet).
  const Response shed = exec.execute(estimate_query(65, 1));
  EXPECT_FALSE(shed.ok);
  EXPECT_TRUE(shed.overloaded);
  EXPECT_NE(shed.error.find("cost budget full"), std::string::npos)
      << shed.error;
  EXPECT_EQ(shed.retry_after_ms, 40u);

  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  leader.join();
  EXPECT_TRUE(first.ok) << first.error;
  EXPECT_EQ(exec.stats().rejected, 1u);
}

TEST(ExecutorGuard, AHeldClientsShedAnswersWhenItsHoldEnds) {
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  QueryExecutor::Options options;
  options.threads = 1;
  options.retry_after_hint_ms = 200;
  options.guard.cost_budget = 1;  // one closed-form unit fills the gate
  options.guard.adaptive = false;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  options.compute = [&](const Query& q, const CancelToken&) {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor exec(options);

  Response first;
  std::thread leader([&] { first = exec.execute(estimate_query(64, 1)); });
  ASSERT_TRUE(eventually([&] { return exec.pending() == 1; }));

  // The same client asks again while its flight fills the budget: shed at
  // once with the 200 ms hint, which starts a hold...
  auto t0 = steady_clock::now();
  const Response first_shed = exec.execute(estimate_query(65, 1));
  EXPECT_TRUE(first_shed.overloaded);
  EXPECT_EQ(first_shed.retry_after_ms, 200u);
  EXPECT_LT(steady_clock::now() - t0, milliseconds(150));
  // ...and asking again inside it is answered when the hold ends.
  t0 = steady_clock::now();
  const Response held = exec.execute(estimate_query(66, 1));
  EXPECT_TRUE(held.overloaded);
  EXPECT_GE(steady_clock::now() - t0, milliseconds(100));
  // A client holding no work is shed at once.
  Query other = estimate_query(67, 1);
  other.client = "polite";
  t0 = steady_clock::now();
  const Response shed = exec.execute(other);
  EXPECT_TRUE(shed.overloaded);
  EXPECT_LT(steady_clock::now() - t0, milliseconds(150));

  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  leader.join();
  EXPECT_TRUE(first.ok) << first.error;
}

TEST(ExecutorGuard, HeldShedsAnswerWhenTheExecutorStops) {
  QueryExecutor::Options options;
  options.threads = 1;
  options.retry_after_hint_ms = 10000;  // a hold far longer than the test
  options.guard.cost_budget = 1;
  options.guard.adaptive = false;
  auto gate = std::make_shared<std::promise<void>>();
  const std::shared_future<void> gate_future = gate->get_future().share();
  options.compute = [gate_future](const Query& q, const CancelToken&) {
    gate_future.wait();
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  auto exec = std::make_unique<QueryExecutor>(options);

  Response first;
  std::thread leader([&] { first = exec->execute(estimate_query(64, 1)); });
  ASSERT_TRUE(eventually([&] { return exec->pending() == 1; }));
  EXPECT_TRUE(exec->execute(estimate_query(65, 1)).overloaded);  // holds
  std::promise<Response> held;
  exec->execute(estimate_query(66, 1),
                [&held](Response r) { held.set_value(std::move(r)); });
  std::future<Response> answer = held.get_future();
  EXPECT_EQ(answer.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);  // held, not shed at once

  const auto t0 = std::chrono::steady_clock::now();
  gate->set_value();
  leader.join();
  exec.reset();
  ASSERT_EQ(answer.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_TRUE(first.ok) << first.error;
  EXPECT_TRUE(answer.get().overloaded);
}

TEST(ExecutorGuard, WatchdogAbandonmentReleasesTheCharge) {
  // One charge, one release: the watchdog takes a hung flight out of the
  // flight map, and its guard charge leaves with it — the stuck compute
  // may never return.
  QueryExecutor::Options options;
  options.threads = 2;
  options.hang_timeout_ms = 60;
  options.guard.cost_budget = 1;  // the hung flight alone fills the budget
  options.guard.adaptive = false;
  auto gate = std::make_shared<std::promise<void>>();
  const std::shared_future<void> gate_future = gate->get_future().share();
  options.compute = [gate_future](const Query& q, const CancelToken&) {
    if (q.n == 64) gate_future.wait();  // ignores its token
    Json doc = Json::object();
    doc["n"] = q.n;
    return doc;
  };
  QueryExecutor exec(options);

  const Response hung = exec.execute(estimate_query(64, 1));
  EXPECT_NE(hung.error.find("hung"), std::string::npos) << hung.error;
  EXPECT_EQ(exec.overload_guard()->pending_cost(), 0u);

  // The next distinct query is admitted, not shed with "cost budget full".
  const Response next = exec.execute(estimate_query(65, 1));
  EXPECT_TRUE(next.ok) << next.error;

  gate->set_value();
}

TEST(ExecutorGuard, BrownoutAnswersDegradedAndIsNeverCached) {
  QueryExecutor::Options options;
  options.threads = 2;
  options.guard.cost_budget = 12;
  options.guard.adaptive = false;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  options.compute = [&](const Query& q, const CancelToken&) {
    if (q.n >= 1024) {  // the pressure flight parks until released
      std::unique_lock lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
    }
    Json doc = Json::object();
    doc["n"] = q.n;
    doc["trials"] = q.trials;  // echoes the (possibly reduced) sweep it ran
    return doc;
  };
  QueryExecutor exec(options);

  // Park an 8-unit estimate: 8/12 pending is below the 0.75 threshold...
  // (Distinct client identities, or the 0.5 fair-share cap fires first.)
  Query parked = estimate_query(1024, 8);
  parked.client = "a";
  Response big;
  std::thread leader([&] { big = exec.execute(parked); });
  ASSERT_TRUE(eventually([&] { return exec.pending() == 1; }));

  // ...until this 4-unit estimate charges 12/12 = 1.0: admitted, browned
  // out to ceil(8 x 0.25) = 2 trials, answered as a degraded partial of
  // the full request.
  Query wants_full = estimate_query(512, 8);
  wants_full.client = "b";
  const Response r = exec.execute(wants_full);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.degraded);
  EXPECT_NE(r.result.find("\"degraded\":true"), std::string::npos) << r.result;
  EXPECT_NE(r.result.find("\"brownout\":true"), std::string::npos) << r.result;
  EXPECT_NE(r.result.find("\"trials\":8"), std::string::npos) << r.result;
  EXPECT_NE(r.result.find("\"trials_completed\":2"), std::string::npos)
      << r.result;
  EXPECT_EQ(exec.stats().browned_out, 1u);

  {
    std::lock_guard lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  leader.join();
  ASSERT_TRUE(big.ok) << big.error;

  // The degraded partial must not poison the content address: asking again
  // on a calm executor recomputes the full sweep.
  const Response again = exec.execute(wants_full);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_FALSE(again.cache_hit);
  EXPECT_FALSE(again.degraded);
}
