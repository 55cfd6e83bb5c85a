#include "netemu/service/executor.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <vector>

#include "netemu/faultline/injector.hpp"
#include "netemu/guard/cost.hpp"
#include "netemu/scope/flight_recorder.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/service/planner.hpp"
#include "netemu/util/hash.hpp"

namespace netemu {

namespace {
using Clock = std::chrono::steady_clock;

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// The guard's options, its budget derived when unset: eight closed-form
/// units per queue slot, roomier than the count cap for cheap queries and
/// far tighter for heavy estimates, which is the point.
guard::Options admission_options(const QueryExecutor::Options& o) {
  guard::Options g = o.guard;
  if (g.cost_budget == 0) {
    g.cost_budget =
        8 * static_cast<std::uint64_t>(std::max<std::size_t>(1, o.max_queue));
  }
  return g;
}

}  // namespace

QueryExecutor::QueryExecutor() : QueryExecutor(Options()) {}

QueryExecutor::QueryExecutor(Options options)
    : options_(std::move(options)),
      m_{metrics_},
      cache_(options_.cache_capacity, options_.cache_file,
             options_.cache_journal),
      pool_(options_.threads),
      guard_(admission_options(options_), metrics_, options_.max_queue,
             pool_.size(), options_.retry_after_hint_ms),
      sched_(pool_) {
  if (!options_.compute) {
    // Pass the executor's own pool down so estimate trials run concurrently;
    // measure_throughput's collaborative loop makes that safe even though
    // the compute itself occupies a pool worker.
    options_.compute = [this](const Query& q, const CancelToken& cancel) {
      return plan_query(q, &pool_, cancel);
    };
  }
  if (options_.faults) cache_.set_fault_injector(options_.faults);
  if (options_.load_cache && !options_.cache_file.empty()) cache_.load();
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

QueryExecutor::~QueryExecutor() {
  // Queued-but-unstarted flights answer their waiters before the pool goes
  // away; flights already on a worker drain below, so every accepted
  // computation lands in the cache before it is persisted.  The watchdog
  // keeps firing deadlines and hang limits until the pool is idle.
  sched_.shed_queued();
  pool_.shutdown();
  {
    std::lock_guard lock(mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  watchdog_.join();
  if (!options_.cache_file.empty()) cache_.save();
}

void QueryExecutor::watchdog_loop() {
  struct Due {
    WaiterPtr waiter;
    Response response;
    const char* note;
  };
  std::unique_lock lock(mutex_);
  while (!watchdog_stop_ || !timers_.empty()) {
    if (timers_.empty()) {
      watchdog_cv_.wait(lock);
    } else if (!watchdog_stop_) {
      const Clock::time_point wake_at = timers_.begin()->first;
      watchdog_cv_.wait_until(lock, wake_at);
    }
    // Once stopping, every flight has published: what is left are held
    // sheds, and they answer now.
    const auto now = watchdog_stop_ ? Clock::time_point::max() : Clock::now();
    std::vector<Due> due;
    bool hung = false;
    while (!timers_.empty() && timers_.begin()->first <= now) {
      Timer t = std::move(timers_.begin()->second);
      timers_.erase(timers_.begin());
      if (!t.flight) {
        due.push_back({std::move(t.waiter), std::move(t.shed), "shed"});
        continue;
      }
      Flight& f = *t.flight;
      Response response;
      if (t.waiter) {
        // A waiter's deadline: it leaves the flight, which keeps running
        // for any other waiter (and still fills the cache).
        std::erase_if(f.waiters,
                      [&t](const auto& w) { return w.first == t.waiter; });
        m_.deadline_exceeded.inc();
        if (f.waiters.empty()) {
          // Nobody is listening any more: stop paying for this answer.
          f.cancel.request_cancel();
          scope::FlightRecorder::global().record(
              scope::FlightRecorder::Kind::kInfo, t.waiter->tid,
              "last waiter left: cancelling flight key=" + hex64(f.key));
        }
        response.error = "deadline exceeded after " +
                         std::to_string(t.waiter->deadline_ms) + " ms";
        due.push_back({std::move(t.waiter), std::move(response), "deadline"});
        continue;
      }
      // A hang limit.  Leaving the flight map releases the guard's charge,
      // here and only here: the stuck compute may never return.  Firing
      // the CancelSource makes a cooperative compute actually stop (within
      // one check quantum) instead of burning a worker until it finishes
      // into an abandoned flight.
      f.hang_timer.reset();
      std::vector<WaiterPtr> waiters;
      retire_locked(t.flight, waiters);
      guard_.release(f.client, f.cost);
      f.cancel.request_cancel();
      m_.hung.inc();
      scope::FlightRecorder::global().record(
          scope::FlightRecorder::Kind::kWatchdog, f.trace_id,
          "flight key=" + hex64(f.key) + " cancelled after " +
              std::to_string(options_.hang_timeout_ms) + " ms");
      hung = true;
      response.error = "query hung: cancelled by watchdog after " +
                       std::to_string(options_.hang_timeout_ms) + " ms";
      for (WaiterPtr& w : waiters) due.push_back({std::move(w), response, ""});
    }
    if (due.empty() && !hung) continue;
    // Answer outside the executor lock: `done` may take any lock of its
    // own, and the compute publishing these flights answers the same way.
    lock.unlock();
    if (hung) {
      scope::FlightRecorder::global().dump_once_to_stderr(
          "executor watchdog cancelled a hung flight");
    }
    for (Due& d : due) answer(*d.waiter, std::move(d.response), d.note);
    lock.lock();
  }
}

std::optional<Response> QueryExecutor::try_cached(const Query& q) {
  const auto start = Clock::now();
  return try_cached(q, q.cache_key(), start);
}

std::optional<Response> QueryExecutor::try_cached(const Query& q,
                                                  std::uint64_t key,
                                                  Clock::time_point start) {
  if (q.refresh) return std::nullopt;
  const std::uint64_t tid = q.trace_id;
  // Probe before committing to any accounting: a miss must leave every
  // counter untouched so the fallback execute() stays the single
  // authoritative accounting path.
  auto cached = cache_.get(key);
  if (!cached) return std::nullopt;

  scope::SpanTimer exec_span(tid, "executor.execute");
  m_.requests.inc();
  {
    scope::SpanTimer probe(tid, "cache.probe");
    probe.set_note("hit");
  }
  m_.cache_hits.inc();
  Response response;
  response.key = key;
  response.trace_id = tid;
  response.ok = true;
  response.cache_hit = true;
  response.result = std::move(*cached);
  response.micros = micros_since(start);
  m_.execute_us.observe(response.micros);
  return response;
}

Response QueryExecutor::execute(const Query& q) {
  auto answer = std::make_shared<std::promise<Response>>();
  std::future<Response> response = answer->get_future();
  execute(q, [answer](Response r) { answer->set_value(std::move(r)); });
  return response.get();
}

void QueryExecutor::execute(const Query& q,
                            std::function<void(Response)> done) {
  const std::uint64_t tid = q.trace_id;
  // The whole-residency span starts here and is recorded by answer(), just
  // before `done`, so it closes every trace's span list.
  const auto start = Clock::now();
  const std::uint64_t start_us = tid != 0 ? scope::now_us() : 0;
  const std::uint64_t key = q.cache_key();
  if (auto hit = try_cached(q, key, start)) return done(std::move(*hit));
  const std::uint64_t deadline_ms =
      q.deadline_ms > 0 ? q.deadline_ms : options_.default_deadline_ms;
  Waiter self{std::move(done), start, start_us, key, tid, deadline_ms};
  m_.requests.inc();
  // refresh=true forces a recompute: skip the cache read but keep every
  // other gate (single-flight, admission, deadline).
  if (!q.refresh) {
    m_.cache_misses.inc();
    if (tid != 0) {
      scope::TraceStore::global().add(
          tid, scope::Span{"cache.probe", start_us, scope::now_us() - start_us,
                           "miss"});
    }
  }

  const std::uint64_t cost = guard::query_cost(q);
  const std::string client =
      q.client.empty() ? std::string(guard::kAnonymousClient) : q.client;

  Response response;
  std::shared_ptr<Flight> flight;
  const char* note = nullptr;  // answered inline, with this span note
  unsigned brownout_trials = 0;  // 0 = serve the full sweep
  bool wake_watchdog = false;
  {
    std::lock_guard lock(mutex_);
    const auto it = flights_.find(key);
    std::optional<std::string> cached;
    if (it != flights_.end()) {
      m_.dedup_joins.inc();
      if (tid != 0) {
        // Recorded before the waiter is registered: from then on the
        // publishing worker may answer it, and executor.execute must stay
        // the trace's last span.
        scope::TraceStore::global().add(
            tid, scope::Span{"flight.join", scope::now_us(), 0,
                             "leader key=" + hex64(key)});
      }
      wake_watchdog = add_waiter_locked(it->second, std::move(self));
    } else if (!q.refresh && (cached = cache_.get(key))) {
      // A leader writes the cache before it unregisters its flight, so a
      // key that missed the probe above and has no flight now may have
      // landed in between: take it instead of computing it again.
      m_.cache_hits.inc();
      response.ok = true;
      response.cache_hit = true;
      response.result = std::move(*cached);
      note = "";
    } else if (draining_) {
      m_.shed.inc();
      scope::FlightRecorder::global().record(
          scope::FlightRecorder::Kind::kShed, tid,
          "draining: new flight refused key=" + hex64(key));
      note = "drain-shed";
      // Overloaded-shaped so clients back off and fleet front doors fail
      // over to a backend that is not going away.  No retry hint: this
      // server will not be less drained in retry_after_ms, the caller
      // should go elsewhere.
      response.error = "overloaded: draining";
      response.overloaded = true;
    } else if (const guard::Guard::Decision decision =
                   guard_.admit(client, q, cost);
               !decision.admit) {
      m_.shed.inc();
      scope::FlightRecorder::global().record(
          scope::FlightRecorder::Kind::kShed, tid,
          "shed (" + decision.reason + "): client=" + client +
              " cost=" + std::to_string(cost) + " key=" + hex64(key));
      response.error = "overloaded: " + decision.reason;
      response.overloaded = true;
      response.retry_after_ms = decision.retry_after_ms;
      if (decision.held) {
        // A held client's shed answers when its hold ends (or at its
        // deadline, if sooner), so its connections wait instead of
        // spinning on sheds.
        const auto timer = timers_.emplace(
            start + std::chrono::milliseconds(
                        std::min(decision.retry_after_ms, deadline_ms)),
            Timer{nullptr, std::make_shared<Waiter>(std::move(self)),
                  std::move(response)});
        wake_watchdog = timer == timers_.begin();
      } else {
        note = "shed";
      }
    } else {
      if (decision.brownout) brownout_trials = decision.trials;
      flight = std::make_shared<Flight>();
      flight->key = key;
      flight->trace_id = tid;
      flight->cost = cost;
      flight->client = client;
      // Arm the compute deadline now, before the task is submitted and the
      // token can be checked concurrently (CancelSource's arm contract).
      flight->cancel.set_deadline_after_ms(deadline_ms);
      if (options_.hang_timeout_ms > 0) {
        flight->hang_timer = timers_.emplace(
            self.start + std::chrono::milliseconds(options_.hang_timeout_ms),
            Timer{flight, nullptr, {}});
      }
      wake_watchdog = add_waiter_locked(flight, std::move(self)) ||
                      flight->hang_timer == timers_.begin();
      flights_[key] = flight;
    }
  }
  if (wake_watchdog) watchdog_cv_.notify_one();
  if (note) return answer(self, std::move(response), note);
  if (!flight) return;  // joined: the flight's publisher answers

  // The fair scheduler owns dispatch order (DRR across clients).  If the
  // task is shed before it starts (drain, shutdown), the flight's waiters
  // — this leader included — are answered through the shed callback.
  const std::uint64_t submit_us = scope::now_us();
  sched_.submit(
      client, cost,
      [this, flight, q, submit_us, brownout_trials] {
        run_flight(flight, q, submit_us, brownout_trials);
      },
      [this, flight] { shed_unstarted_flight(flight); });
}

void QueryExecutor::run_flight(const std::shared_ptr<Flight>& flight,
                               const Query& q, std::uint64_t submit_us,
                               unsigned brownout_trials) {
  const std::uint64_t key = flight->key;
  const std::uint64_t tid = flight->trace_id;
  // Admission-to-pickup latency: starts at submit, ends now that a worker
  // owns the task.  The guard's AIMD controller votes on it.
  const std::uint64_t waited_us = scope::now_us() - submit_us;
  if (tid != 0) {
    scope::TraceStore::global().add(
        tid, scope::Span{"queue.wait", submit_us, waited_us, ""});
  }
  if (options_.faults) options_.faults->on_compute();
  Response computed;
  const CancelToken token = flight->cancel.token();
  bool unwound = false;  // compute threw CancelledError (no result)
  Json doc;
  const auto compute_start = Clock::now();
  scope::SpanTimer sim_span(tid, "sim.run");
  try {
    // Brownout: run the reduced sweep under the ORIGINAL flight (cache key
    // unchanged) — the result document is patched below to look like a
    // degraded partial of the full request.
    Query run_query = q;
    if (brownout_trials > 0) run_query.trials = brownout_trials;
    doc = options_.compute(run_query, token);
    computed.result = doc.dump();
    computed.ok = true;
    computed.degraded = doc["degraded"].as_bool(false);
  } catch (const CancelledError& e) {
    computed.error = std::string("cancelled: ") + e.what();
    unwound = true;
  } catch (const std::exception& e) {
    computed.error = e.what();
  } catch (...) {
    computed.error = "unknown planner failure";
  }
  if (!computed.ok) sim_span.set_note(unwound ? "cancelled" : "error");
  else if (computed.degraded) sim_span.set_note("degraded");
  sim_span.finish();
  const double compute_micros = micros_since(compute_start);
  m_.compute_us.observe(compute_micros);
  if (unwound || computed.degraded) {
    // Reclaimed-CPU estimate: a degraded sweep that finished c of T trials
    // in E ms would have needed roughly E*(T-c)/c more; a full unwind
    // reclaims "the rest of something we know nothing about" — credit the
    // elapsed time as the scale of what was avoided.
    const double elapsed_ms = compute_micros / 1000.0;
    double reclaimed_ms = elapsed_ms;
    if (computed.degraded) {
      // A trial-range shard's sweep is its range width, not the full
      // request's trial count (docs/SCATTER.md).
      double total = doc["trials"].as_number(0.0);
      if (doc.contains("trial_hi")) {
        total = doc["trial_hi"].as_number(0.0) - doc["trial_lo"].as_number(0.0);
      }
      const double done_trials = doc["trials_completed"].as_number(0.0);
      reclaimed_ms =
          elapsed_ms * (total - done_trials) / std::max(done_trials, 1.0);
    }
    m_.cancelled.inc();
    m_.reclaimed_cpu_ms.add(
        static_cast<std::uint64_t>(std::max(0.0, reclaimed_ms)));
    if (tid != 0) {
      scope::TraceStore::global().add(
          tid, scope::Span{"sim.cancel", scope::now_us(), 0,
                           unwound ? "unwound"
                                   : "degraded " +
                                         doc["trials_completed"].dump() + "/" +
                                         doc["trials"].dump() + " trials"});
    }
  }
  // A failed recompute falls back to the previous cached value so a
  // transient planner fault degrades to slightly-stale instead of down.
  if (!computed.ok) {
    if (auto stale = cache_.get(key)) {
      computed.ok = true;
      computed.stale = true;
      computed.error.clear();
      computed.result = std::move(*stale);
    }
  }
  if (computed.stale) {
    m_.errors.inc();
    m_.stale_served.inc();
  } else if (computed.ok) {
    m_.computed.inc();
  } else {
    m_.errors.inc();
  }
  // A completed brownout answers as a degraded partial of the FULL request:
  // trials echoes what was asked, trials_completed what ran.  Set after the
  // cancellation accounting above — a brownout is a policy choice, not a
  // reclaimed compute.
  if (brownout_trials > 0 && computed.ok && !computed.stale &&
      !computed.degraded) {
    doc["trials_completed"] = doc["trials"];
    doc["trials"] = q.trials;
    doc["degraded"] = true;
    doc["brownout"] = true;
    computed.result = doc.dump();
    computed.degraded = true;
  }
  // Only full answers are cached: errors would poison the content address,
  // stale fallbacks are already there, and degraded partials (deadline cuts
  // and brownouts alike) answer the request that produced them while the
  // content address promises the full sweep.
  const bool full = computed.ok && !computed.stale && !computed.degraded;
  // The cache is written while the flight is still registered, so a request
  // for this key either joins the flight or hits the cache; none can slip
  // between the two and compute the key again.
  if (full) {
    scope::SpanTimer persist(
        tid, options_.cache_journal ? "wal.append" : "cache.put");
    cache_.put(key, computed.result);
  }
  std::vector<WaiterPtr> waiters;
  {
    std::lock_guard lock(mutex_);
    // A flight the watchdog abandoned had its charge released, and its
    // waiters answered, then.
    if (retire_locked(flight, waiters)) {
      guard_.complete(flight->client, flight->cost,
                      full ? compute_micros / 1000.0 : -1.0,
                      static_cast<double>(waited_us) / 1000.0);
    }
  }
  for (const WaiterPtr& w : waiters) answer(*w, computed);
}

QueryExecutor::Stats QueryExecutor::stats() const {
  return {.requests = m_.requests.value(),
          .cache_hits = m_.cache_hits.value(),
          .cache_misses = m_.cache_misses.value(),
          .computed = m_.computed.value(),
          .dedup_joins = m_.dedup_joins.value(),
          .rejected = m_.shed.value(),
          .deadline_exceeded = m_.deadline_exceeded.value(),
          .errors = m_.errors.value(),
          .hung = m_.hung.value(),
          .stale_served = m_.stale_served.value(),
          .cancelled = m_.cancelled.value(),
          .browned_out =
              metrics_.counter_value("netemu_guard_brownouts_total")};
}

bool QueryExecutor::cancel_trace(std::uint64_t trace_id) {
  if (trace_id == 0) return false;
  std::shared_ptr<Flight> target;
  {
    std::lock_guard lock(mutex_);
    for (const auto& [key, flight] : flights_) {
      if (flight->trace_id != trace_id) continue;
      // A dedup-joined flight is serving other clients; the canceller only
      // speaks for its own request, so leave shared work alone.
      if (flight->waiters.size() > 1) return false;
      target = flight;
      break;
    }
  }
  if (!target) return false;
  target->cancel.request_cancel();
  scope::FlightRecorder::global().record(
      scope::FlightRecorder::Kind::kInfo, trace_id,
      "cancel op: flight key=" + hex64(target->key) + " cancelled");
  return true;
}

std::size_t QueryExecutor::cancel_all() {
  std::vector<std::shared_ptr<Flight>> flights;
  {
    std::lock_guard lock(mutex_);
    flights.reserve(flights_.size());
    for (const auto& [key, flight] : flights_) flights.push_back(flight);
  }
  for (const auto& flight : flights) flight->cancel.request_cancel();
  return flights.size();
}

void QueryExecutor::shed_unstarted_flight(
    const std::shared_ptr<Flight>& flight) {
  bool was_draining = false;
  std::vector<WaiterPtr> waiters;
  {
    std::lock_guard lock(mutex_);
    was_draining = draining_;
    if (retire_locked(flight, waiters)) {
      guard_.release(flight->client, flight->cost);
    }
  }
  m_.shed.inc();
  scope::FlightRecorder::global().record(
      scope::FlightRecorder::Kind::kShed, flight->trace_id,
      "queued flight shed before start key=" + hex64(flight->key));
  Response response;
  response.overloaded = true;
  // Draining sheds carry no retry hint — this server is going away; the
  // caller should fail over, not wait.
  response.error =
      was_draining ? "overloaded: draining" : "executor shutting down";
  for (const WaiterPtr& w : waiters) answer(*w, response);
}

bool QueryExecutor::add_waiter_locked(const std::shared_ptr<Flight>& flight,
                                      Waiter waiter) {
  // Waiters linger a short grace past the deadline: the compute token fires
  // AT the deadline and a cooperative compute then needs up to one check
  // quantum plus publish time to hand back a degraded partial result —
  // without the grace the waiter would walk away moments before the partial
  // answer it paid for arrives.  (The cap keeps a hostile deadline_ms from
  // overflowing the clock.)
  const std::uint64_t ms =
      std::min<std::uint64_t>(waiter.deadline_ms, std::uint64_t{1} << 40);
  const auto when = waiter.start + std::chrono::milliseconds(
                                       ms + std::clamp<std::uint64_t>(
                                                ms / 8, 10, 250));
  auto shared = std::make_shared<Waiter>(std::move(waiter));
  const auto timer = timers_.emplace(when, Timer{flight, shared, {}});
  flight->waiters.emplace_back(std::move(shared), timer);
  return timer == timers_.begin();
}

bool QueryExecutor::retire_locked(const std::shared_ptr<Flight>& flight,
                                  std::vector<WaiterPtr>& waiters) {
  for (auto& [waiter, timer] : flight->waiters) {
    timers_.erase(timer);
    waiters.push_back(std::move(waiter));
  }
  flight->waiters.clear();
  const auto it = flights_.find(flight->key);
  if (it == flights_.end() || it->second != flight) return false;
  flights_.erase(it);
  if (flight->hang_timer) timers_.erase(*flight->hang_timer);
  flight->hang_timer.reset();
  return true;
}

void QueryExecutor::answer(Waiter& waiter, Response response,
                           const char* note) {
  response.key = waiter.key;
  response.trace_id = waiter.tid;  // a joiner keeps its own trace id
  response.micros = micros_since(waiter.start);
  m_.execute_us.observe(response.micros);
  if (waiter.tid != 0) {
    scope::TraceStore::global().add(
        waiter.tid,
        scope::Span{"executor.execute", waiter.start_us,
                    scope::now_us() - waiter.start_us, note});
  }
  const auto done = std::move(waiter.done);
  done(std::move(response));
}

void QueryExecutor::begin_drain() {
  {
    std::lock_guard lock(mutex_);
    if (draining_) return;
    draining_ = true;
  }
  // Queued-but-unstarted flights answer "draining" now instead of running:
  // drain exists to finish what is running, not to start new work.
  sched_.shed_queued();
  scope::FlightRecorder::global().record(scope::FlightRecorder::Kind::kInfo,
                                         0, "executor draining");
}

bool QueryExecutor::draining() const {
  std::lock_guard lock(mutex_);
  return draining_;
}

QueryExecutor::ComputeTimes QueryExecutor::compute_times() const {
  const scope::Histogram::Snapshot snap = m_.compute_us.snapshot();
  ComputeTimes t;
  t.samples = snap.count;
  t.p50_us = snap.quantile(0.50);
  t.p95_us = snap.quantile(0.95);
  t.p99_us = snap.quantile(0.99);
  return t;
}

std::size_t QueryExecutor::pending() const {
  return guard_.pending_flights();
}

std::size_t QueryExecutor::active_flights() const {
  std::lock_guard lock(mutex_);
  return flights_.size();
}

double QueryExecutor::uptime_seconds() const {
  return std::chrono::duration<double>(Clock::now() - started_).count();
}

}  // namespace netemu
