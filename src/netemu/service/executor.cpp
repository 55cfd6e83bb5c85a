#include "netemu/service/executor.hpp"

#include <algorithm>
#include <exception>
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
  if (options_.hang_timeout_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

QueryExecutor::~QueryExecutor() {
  {
    std::lock_guard lock(mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  // Queued-but-unstarted tasks answer their waiters before the pool goes
  // away; tasks already on a worker drain below.
  sched_.shed_queued();
  // Drain in-flight work first so every accepted computation lands in the
  // cache before it is persisted.
  pool_.shutdown();
  if (!options_.cache_file.empty()) cache_.save();
}

void QueryExecutor::watchdog_loop() {
  const auto timeout = std::chrono::milliseconds(
      std::max<std::uint64_t>(1, options_.hang_timeout_ms));
  const auto tick = std::chrono::milliseconds(std::clamp<std::uint64_t>(
      options_.hang_timeout_ms / 4, 1, 100));
  std::unique_lock lock(mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, tick, [this] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    const auto now = Clock::now();
    std::vector<std::shared_ptr<Flight>> hung;
    for (auto it = flights_.begin(); it != flights_.end();) {
      Flight& f = *it->second;
      if (!f.abandoned && now - f.started > timeout) {
        f.abandoned = true;
        // Fire the flight's CancelSource so a cooperative compute actually
        // stops (within one check quantum) instead of burning a worker
        // until it finishes into an abandoned flight.
        f.cancel.request_cancel();
        // Leaving the flight map releases the guard's charge, here and
        // only here: the stuck compute may never return.
        guard_.release(f.client, f.cost);
        hung.push_back(it->second);
        it = flights_.erase(it);
      } else {
        ++it;
      }
    }
    if (hung.empty()) continue;
    for (const auto& flight : hung) {
      m_.hung.inc();
      scope::FlightRecorder::global().record(
          scope::FlightRecorder::Kind::kWatchdog, flight->trace_id,
          "flight key=" + hex64(flight->key) + " cancelled after " +
              std::to_string(options_.hang_timeout_ms) + " ms");
    }
    scope::FlightRecorder::global().dump_once_to_stderr(
        "executor watchdog cancelled a hung flight");
    // Publish outside the executor lock: waiters take flight->mutex while
    // never holding mutex_, and the stuck compute task publishes the same
    // way when (if) it finishes — its publish is a no-op once done is set.
    lock.unlock();
    for (const auto& flight : hung) {
      {
        std::lock_guard flight_lock(flight->mutex);
        if (!flight->done) {
          flight->response.ok = false;
          flight->response.error =
              "query hung: cancelled by watchdog after " +
              std::to_string(options_.hang_timeout_ms) + " ms";
          flight->done = true;
        }
      }
      flight->cv.notify_all();
    }
    lock.lock();
  }
}

std::optional<Response> QueryExecutor::try_cached(const Query& q) {
  if (q.refresh) return std::nullopt;
  const auto start = Clock::now();
  const std::uint64_t key = q.cache_key();
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
  const auto start = Clock::now();
  const std::uint64_t key = q.cache_key();
  const std::uint64_t tid = q.trace_id;
  // Whole-residency span; destroyed (and recorded) last, after the waiter
  // has its answer, so it closes every trace's span list.
  scope::SpanTimer exec_span(tid, "executor.execute");
  m_.requests.inc();

  Response response;
  response.key = key;
  response.trace_id = tid;

  const auto finish = [&](Response& r) -> Response& {
    r.micros = micros_since(start);
    m_.execute_us.observe(r.micros);
    return r;
  };
  const auto hit = [&](std::string result) -> Response& {
    m_.cache_hits.inc();
    response.ok = true;
    response.cache_hit = true;
    response.result = std::move(result);
    return finish(response);
  };

  // refresh=true forces a recompute: skip the cache read but keep every
  // other gate (single-flight, admission, deadline).
  if (!q.refresh) {
    scope::SpanTimer probe(tid, "cache.probe");
    if (auto cached = cache_.get(key)) {
      probe.set_note("hit");
      probe.finish();
      return hit(std::move(*cached));
    }
    m_.cache_misses.inc();
    probe.set_note("miss");
    probe.finish();
  }

  const std::uint64_t deadline_ms =
      q.deadline_ms > 0 ? q.deadline_ms : options_.default_deadline_ms;
  const std::uint64_t cost = guard::query_cost(q);
  const std::string client = q.client.empty() ? std::string("anon") : q.client;

  std::shared_ptr<Flight> flight;
  bool leader = false;
  unsigned brownout_trials = 0;  // 0 = serve the full sweep
  {
    std::lock_guard lock(mutex_);
    const auto it = flights_.find(key);
    if (it != flights_.end()) {
      flight = it->second;
      ++flight->waiters;
      m_.dedup_joins.inc();
    } else {
      // A leader writes the cache before it unregisters its flight, so a
      // key that missed the probe above and has no flight now may have
      // landed in between: look once more, under the lock, instead of
      // computing it again.
      if (!q.refresh) {
        if (auto cached = cache_.get(key)) return hit(std::move(*cached));
      }
      if (draining_) {
        m_.shed.inc();
        scope::FlightRecorder::global().record(
            scope::FlightRecorder::Kind::kShed, tid,
            "draining: new flight refused key=" + hex64(key));
        exec_span.set_note("drain-shed");
        // Overloaded-shaped so clients back off and fleet front doors fail
        // over to a backend that is not going away.  No retry hint: this
        // server will not be less drained in retry_after_ms, the caller
        // should go elsewhere.
        response.error = "overloaded: draining";
        response.overloaded = true;
        return finish(response);
      }
      const guard::Guard::Decision decision = guard_.admit(client, q, cost);
      if (!decision.admit) {
        m_.shed.inc();
        scope::FlightRecorder::global().record(
            scope::FlightRecorder::Kind::kShed, tid,
            "shed (" + decision.reason + "): client=" + client +
                " cost=" + std::to_string(cost) + " key=" + hex64(key));
        exec_span.set_note("shed");
        response.error = "overloaded: " + decision.reason;
        response.overloaded = true;
        response.retry_after_ms = decision.retry_after_ms;
        return finish(response);
      }
      if (decision.brownout) brownout_trials = decision.trials;
      flight = std::make_shared<Flight>();
      flight->started = start;
      flight->key = key;
      flight->trace_id = tid;
      flight->cost = cost;
      flight->client = client;
      flight->waiters = 1;
      // Arm the compute deadline now, before the task is submitted and the
      // token can be checked concurrently (CancelSource's arm contract).
      flight->cancel.set_deadline_after_ms(deadline_ms);
      flights_[key] = flight;
      leader = true;
    }
  }
  if (!leader && tid != 0) {
    scope::TraceStore::global().add(
        tid, scope::Span{"flight.join", scope::now_us(), 0,
                         "leader key=" + hex64(key)});
  }

  if (leader) {
    const Query task_query = q;
    const std::uint64_t submit_us = scope::now_us();
    std::function<void()> task = [this, task_query, key, tid, submit_us,
                                  brownout_trials, flight] {
      if (tid != 0) {
        // Admission-to-pickup latency: starts at submit, ends now that a
        // worker owns the task.
        scope::TraceStore::global().add(
            tid, scope::Span{"queue.wait", submit_us,
                             scope::now_us() - submit_us, ""});
      }
      if (options_.faults) options_.faults->on_compute();
      Response computed;
      computed.key = key;
      computed.trace_id = tid;
      const CancelToken token = flight->cancel.token();
      bool unwound = false;  // compute threw CancelledError (no result)
      Json doc;
      const auto compute_start = Clock::now();
      scope::SpanTimer sim_span(tid, "sim.run");
      try {
        // Brownout: run the reduced sweep under the ORIGINAL flight (cache
        // key unchanged) — the result document is patched below to look
        // like a degraded partial of the full request.
        Query run_query = task_query;
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
        // Reclaimed-CPU estimate: a degraded sweep that finished c of T
        // trials in E ms would have needed roughly E*(T-c)/c more; a full
        // unwind reclaims "the rest of something we know nothing about" —
        // credit the elapsed time as the scale of what was avoided.
        const double elapsed_ms = compute_micros / 1000.0;
        double reclaimed_ms = elapsed_ms;
        if (computed.degraded) {
          // A trial-range shard's sweep is its range width, not the full
          // request's trial count (docs/SCATTER.md).
          double total = doc["trials"].as_number(0.0);
          if (doc.contains("trial_hi")) {
            total = doc["trial_hi"].as_number(0.0) -
                    doc["trial_lo"].as_number(0.0);
          }
          const double done_trials =
              doc["trials_completed"].as_number(0.0);
          reclaimed_ms = elapsed_ms * (total - done_trials) /
                         std::max(done_trials, 1.0);
        }
        m_.cancelled.inc();
        m_.reclaimed_cpu_ms.add(
            static_cast<std::uint64_t>(std::max(0.0, reclaimed_ms)));
        if (tid != 0) {
          scope::TraceStore::global().add(
              tid, scope::Span{"sim.cancel", scope::now_us(), 0,
                               unwound ? "unwound"
                                       : "degraded " +
                                             doc["trials_completed"].dump() +
                                             "/" + doc["trials"].dump() +
                                             " trials"});
        }
      }
      // A failed recompute falls back to the previous cached value so a
      // transient planner fault degrades to slightly-stale instead of down.
      if (!computed.ok && options_.serve_stale_on_error) {
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
      // A completed brownout answers as a degraded partial of the FULL
      // request: trials echoes what was asked, trials_completed what ran.
      // Set after the cancellation accounting above — a brownout is a
      // policy choice, not a reclaimed compute.
      if (brownout_trials > 0 && computed.ok && !computed.stale &&
          !computed.degraded) {
        doc["trials_completed"] = doc["trials"];
        doc["trials"] = task_query.trials;
        doc["degraded"] = true;
        doc["brownout"] = true;
        computed.result = doc.dump();
        computed.degraded = true;
      }
      // Only full answers are cached: errors would poison the content
      // address, stale fallbacks are already there, and degraded partials
      // (deadline cuts and brownouts alike) answer the request that
      // produced them while the content address promises the full sweep.
      const bool full = computed.ok && !computed.stale && !computed.degraded;
      // The cache is written while the flight is still registered, so a
      // request for this key either joins the flight or hits the cache;
      // none can slip between the two and compute the key again.
      if (full) {
        scope::SpanTimer persist(
            tid, options_.cache_journal ? "wal.append" : "cache.put");
        cache_.put(key, computed.result);
      }
      {
        std::lock_guard lock(mutex_);
        // A flight the watchdog abandoned had its charge released then.
        if (unregister_locked(flight)) {
          guard_.complete(flight->client, flight->cost,
                          full ? compute_micros / 1000.0 : -1.0);
        }
      }
      {
        std::lock_guard flight_lock(flight->mutex);
        // If the watchdog already published a "hung" error, the waiters are
        // gone; leave their response alone.
        if (!flight->done) {
          flight->response = std::move(computed);
          flight->done = true;
        }
      }
      flight->cv.notify_all();
    };
    // The fair scheduler owns dispatch order (DRR across clients).  If the
    // task is shed before it starts (drain, shutdown), the flight's waiters
    // — this leader included — get an overloaded response through the shed
    // callback and the wait below returns.
    sched_.submit(flight->client, cost, std::move(task),
                  [this, flight, key, tid] {
                    shed_unstarted_flight(flight, key, tid);
                  });
  }

  // Waiters linger a short grace past the deadline: the compute token fires
  // AT the deadline and a cooperative compute then needs up to one check
  // quantum plus publish time to hand back a degraded partial result —
  // without the grace the waiter would walk away moments before the partial
  // answer it paid for arrives.
  const auto grace = std::chrono::milliseconds(
      std::clamp<std::uint64_t>(deadline_ms / 8, 10, 250));
  {
    std::unique_lock flight_lock(flight->mutex);
    const bool done = flight->cv.wait_for(
        flight_lock, std::chrono::milliseconds(deadline_ms) + grace,
        [&flight] { return flight->done; });
    if (!done) {
      flight_lock.unlock();
      bool last_waiter = false;
      {
        std::lock_guard lock(mutex_);
        if (flight->waiters > 0) --flight->waiters;
        last_waiter = flight->waiters == 0;
      }
      m_.deadline_exceeded.inc();
      if (last_waiter) {
        // Nobody is listening for this answer any more: stop paying for it.
        flight->cancel.request_cancel();
        scope::FlightRecorder::global().record(
            scope::FlightRecorder::Kind::kInfo, tid,
            "last waiter left: cancelling flight key=" + hex64(key));
      }
      response.error = "deadline exceeded after " +
                       std::to_string(deadline_ms) + " ms";
      exec_span.set_note("deadline");
      return finish(response);
    }
    response = flight->response;
  }
  {
    std::lock_guard lock(mutex_);
    if (flight->waiters > 0) --flight->waiters;
  }
  response.key = key;
  response.trace_id = tid;  // a follower's response keeps its own trace id
  return finish(response);
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
      if (flight->waiters > 1) return false;
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
    const std::shared_ptr<Flight>& flight, std::uint64_t key,
    std::uint64_t tid) {
  bool was_draining = false;
  {
    std::lock_guard lock(mutex_);
    was_draining = draining_;
    if (unregister_locked(flight)) guard_.release(flight->client, flight->cost);
  }
  m_.shed.inc();
  scope::FlightRecorder::global().record(
      scope::FlightRecorder::Kind::kShed, tid,
      "queued flight shed before start key=" + hex64(key));
  {
    std::lock_guard flight_lock(flight->mutex);
    if (!flight->done) {
      flight->response.ok = false;
      flight->response.overloaded = true;
      // Draining sheds carry no retry hint — this server is going away;
      // the caller should fail over, not wait.
      flight->response.error =
          was_draining ? "overloaded: draining" : "executor shutting down";
      flight->done = true;
    }
  }
  flight->cv.notify_all();
}

bool QueryExecutor::unregister_locked(const std::shared_ptr<Flight>& flight) {
  const auto it = flights_.find(flight->key);
  if (it == flights_.end() || it->second != flight) return false;
  flights_.erase(it);
  return true;
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
