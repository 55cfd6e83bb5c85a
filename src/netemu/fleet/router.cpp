#include "netemu/fleet/router.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "netemu/fleet/rendezvous.hpp"
#include "netemu/scope/flight_recorder.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/service/query.hpp"
#include "netemu/util/hash.hpp"

namespace netemu {

namespace {

// The trace id a request document carries (0 = untraced).  The fleet reads
// it for its own spans/events and forwards the document untouched.
std::uint64_t doc_trace_id(const Json& request_doc) {
  return scope::parse_trace_id(request_doc["trace"].as_string());
}

}  // namespace

// Shared scoreboard for one hedged request: the primary and (maybe) hedge
// attempt threads race to deposit the first real answer.  Heap-allocated and
// shared_ptr-owned because the losing thread can outlive request().
struct FleetRouter::HedgeState {
  std::mutex m;
  std::condition_variable cv;
  int outstanding = 0;
  bool have_winner = false;
  std::size_t winner_index = 0;
  Attempt winner;
  bool have_loser = false;  ///< best non-winning attempt (sheds preferred)
  std::size_t loser_index = 0;
  Attempt loser;
};

FleetRouter::FleetRouter(Options options)
    : options_(std::move(options)),
      m_{metrics_},
      started_(std::chrono::steady_clock::now()) {
  // Sheds must surface to the router (which fails them over) instead of
  // being absorbed by the client's own retry_after sleep.
  options_.client.retry_overloaded = false;
  for (auto& cfg : options_.backends) {
    if (cfg.id.empty()) cfg.id = "127.0.0.1:" + std::to_string(cfg.port);
    auto b = std::make_unique<Backend>();
    b->config = cfg;
    b->health = BackendHealth(options_.health);
    ids_.push_back(cfg.id);
    backends_.push_back(std::move(b));
  }
  if (options_.probe_interval_ms > 0 && !backends_.empty()) {
    probe_thread_ = std::thread([this] { probe_loop(); });
  }
}

FleetRouter::~FleetRouter() { stop(); }

void FleetRouter::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  std::unique_lock<std::mutex> lock(mutex_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

std::uint64_t FleetRouter::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_)
          .count());
}

std::uint64_t FleetRouter::route_key(const Json& request_doc) const {
  // Route on the same content address the backend caches key on, so a key's
  // repeats land on the backend whose cache already holds its result.  Ops
  // that are not queries (stats, health, ...) hash their canonical dump.
  std::string error;
  if (auto q = query_from_json(request_doc, &error)) return q->cache_key();
  return fnv1a64(request_doc.dump());
}

std::vector<std::size_t> FleetRouter::rank_for(const Json& request_doc) const {
  return rendezvous_rank(route_key(request_doc), ids_);
}

std::vector<FleetRouter::BroadcastReply> FleetRouter::broadcast(
    const Json& request_doc) {
  std::vector<BroadcastReply> replies;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Attempt a = attempt(i, request_doc);
    if (a.responded) replies.push_back(BroadcastReply{i, std::move(a.doc)});
  }
  return replies;
}

std::optional<std::size_t> FleetRouter::next_allowed(
    const std::vector<std::size_t>& order, std::size_t& pos) {
  // Caller holds mutex_.  allow() is called here — immediately before the
  // attempt — so a half-open probe slot is only reserved for a backend that
  // will actually be tried.
  const std::uint64_t now = now_ms();
  while (pos < order.size()) {
    const std::size_t index = order[pos++];
    const bool allowed = backends_[index]->health.allow(now);
    // allow() may have lazily moved an expired-open breaker to half-open.
    note_breaker_locked(*backends_[index], now, 0);
    if (allowed) return index;
  }
  return std::nullopt;
}

FleetRouter::Attempt FleetRouter::attempt(std::size_t index,
                                          const Json& request_doc) {
  std::unique_ptr<Client> client;
  std::uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Backend& b = *backends_[index];
    ++b.requests;
    port = b.config.port;
    if (!b.idle.empty()) {
      client = std::move(b.idle.back());
      b.idle.pop_back();
    }
  }
  if (!client) {
    client = std::make_unique<Client>(options_.client);
    client->set_target(port);
  }

  Client::RequestOutcome outcome = client->request_outcome(request_doc);

  Attempt a;
  if (outcome.doc) {
    a.responded = true;
    a.shed = outcome.failure == RequestFailure::kOverloaded;
    a.doc = std::move(*outcome.doc);
  } else {
    a.failure = outcome.failure;
    a.error = outcome.error;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    Backend& b = *backends_[index];
    record_attempt_locked(b, a, now_ms(), doc_trace_id(request_doc));
    if (client->connected() && !stopping_ &&
        b.idle.size() < options_.pool_per_backend) {
      b.idle.push_back(std::move(client));
    }
  }
  return a;
}

void FleetRouter::record_attempt_locked(Backend& b, const Attempt& a,
                                        std::uint64_t now,
                                        std::uint64_t trace_id) {
  if (a.responded) {
    ++b.responses;
    if (a.shed) ++b.shed;
    // Any document — even a shed or a server-side error — proves the
    // transport and the process are alive.
    b.health.record_success(now);
  } else {
    ++b.transport_failures;
    if (a.failure == RequestFailure::kConnectRefused) ++b.refused;
    b.health.record_failure(now);
  }
  note_breaker_locked(b, now, trace_id);
}

void FleetRouter::note_breaker_locked(Backend& b, std::uint64_t now,
                                      std::uint64_t trace_id) const {
  const BackendHealth::State s = b.health.state(now);
  if (s == b.last_state) return;
  m_.breaker_transitions.inc();
  scope::FlightRecorder::global().record(
      scope::FlightRecorder::Kind::kBreaker, trace_id,
      "backend " + b.config.id + ": " +
          BackendHealth::state_name(b.last_state) + " -> " +
          BackendHealth::state_name(s));
  b.last_state = s;
}

std::optional<std::uint64_t> FleetRouter::hedge_delay_ms() const {
  if (!options_.hedge) return std::nullopt;
  if (options_.hedge_fixed_ms > 0) return options_.hedge_fixed_ms;
  const scope::Histogram::Snapshot latency = m_.request_us.snapshot();
  if (latency.count < options_.hedge_min_samples) return std::nullopt;
  const auto delay = static_cast<std::uint64_t>(
      std::ceil(latency.quantile(options_.hedge_percentile) / 1000.0));
  return std::clamp(delay, options_.hedge_min_delay_ms,
                    options_.hedge_max_delay_ms);
}

void FleetRouter::fire_cancel(std::size_t index, std::uint64_t trace_id) {
  Json cancel = Json::object();
  cancel["op"] = "cancel";
  cancel["trace"] = hex64(trace_id);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    ++inflight_;
  }
  m_.cancels_fired.inc();
  scope::FlightRecorder::global().record(
      scope::FlightRecorder::Kind::kHedge, trace_id,
      "cancel fired at loser " + ids_[index]);
  // Detached and best-effort: the winner's answer is already on its way
  // back, so nothing waits on this.  If the loser's query never started (or
  // already finished) the backend just answers {"cancelled":false}.
  std::thread([this, index, cancel] {
    attempt(index, cancel);
    std::lock_guard<std::mutex> lock(mutex_);
    --inflight_;
    inflight_cv_.notify_all();
  }).detach();
}

void FleetRouter::spawn_attempt(std::size_t index, const Json& request_doc,
                                std::shared_ptr<HedgeState> state) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++inflight_;
  }
  {
    std::lock_guard<std::mutex> sl(state->m);
    ++state->outstanding;
  }
  std::thread([this, index, request_doc, state] {
    Attempt a = attempt(index, request_doc);
    {
      std::lock_guard<std::mutex> sl(state->m);
      --state->outstanding;
      if (a.responded && !a.shed && !state->have_winner) {
        state->have_winner = true;
        state->winner_index = index;
        state->winner = std::move(a);
      } else if (!state->have_winner &&
                 (!state->have_loser ||
                  (a.responded && !state->loser.responded))) {
        // Keep the most informative non-answer: a shed document beats a
        // bare transport error (it carries the backend's retry hint).
        state->have_loser = true;
        state->loser_index = index;
        state->loser = std::move(a);
      }
    }
    state->cv.notify_all();
    {
      // Notify under the lock: stop() may be waiting to destroy the
      // router, and must not win the race while we are mid-notify.
      std::lock_guard<std::mutex> lock(mutex_);
      --inflight_;
      inflight_cv_.notify_all();
    }
  }).detach();
}

FleetRouter::Result FleetRouter::request(const Json& request_doc) {
  return request(request_doc, std::nullopt);
}

void FleetRouter::cancel_at(std::size_t index, std::uint64_t trace_id) {
  if (index >= backends_.size() || trace_id == 0) return;
  fire_cancel(index, trace_id);
}

std::size_t FleetRouter::available_backends() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t now = now_ms();
  std::size_t available = 0;
  for (const auto& bp : backends_) {
    Backend& b = *bp;
    if (b.health.state(now) != BackendHealth::State::kClosed) continue;
    if (options_.pressure_sink_threshold > 0.0 &&
        b.pressure >= options_.pressure_sink_threshold) {
      continue;
    }
    ++available;
  }
  return available;
}

FleetRouter::Result FleetRouter::request(
    const Json& request_doc, std::optional<std::size_t> exclude_backend) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t tid = doc_trace_id(request_doc);
  scope::SpanTimer route_span(tid, "fleet.route");
  m_.requests.inc();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++active_requests_;
  }
  // Balanced on every exit path (the fleet daemon's drain polls inflight()).
  struct ActiveGuard {
    FleetRouter* router;
    ~ActiveGuard() {
      std::lock_guard<std::mutex> lock(router->mutex_);
      --router->active_requests_;
    }
  } active_guard{this};

  std::vector<std::size_t> order =
      rendezvous_rank(route_key(request_doc), ids_);
  if (exclude_backend) {
    order.erase(std::remove(order.begin(), order.end(), *exclude_backend),
                order.end());
  }
  if (options_.pressure_sink_threshold > 0.0) {
    // Overload preference: backends whose last probe reported pressure at or
    // above the threshold sink to the back of the rendezvous order.  A
    // stable partition keeps the affinity ranking within each group, and a
    // sunk backend is still a candidate — under fleet-wide overload the
    // request degrades to the old behaviour instead of failing outright.
    std::lock_guard<std::mutex> lock(mutex_);
    std::stable_partition(order.begin(), order.end(), [&](std::size_t i) {
      return backends_[i]->pressure < options_.pressure_sink_threshold;
    });
  }

  Result out;
  std::string last_error;
  Attempt last_shed;  // returned if every candidate sheds
  std::size_t last_shed_backend = static_cast<std::size_t>(-1);
  std::size_t pos = 0;

  const auto finish_answered = [&](Attempt&& a, std::size_t responder) {
    out.ok = true;
    out.doc = std::move(a.doc);
    out.backend = responder;
    route_span.set_note("backend=" + ids_[responder] + " tried=" +
                        std::to_string(out.backends_tried));
    if (!a.shed) {
      m_.request_us.observe(std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
    m_.answered.inc();
    if (out.backends_tried > 1) {
      m_.failovers.add(static_cast<std::uint64_t>(out.backends_tried - 1));
    }
  };

  while (true) {
    std::optional<std::size_t> primary;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      primary = next_allowed(order, pos);
    }
    if (!primary) break;
    ++out.backends_tried;

    const std::optional<std::uint64_t> delay = hedge_delay_ms();
    Attempt a;
    std::size_t responder = *primary;

    if (delay) {
      // Hedging wants a trace id even for untraced callers: the cancel verb
      // that reclaims the losing backend's compute is keyed by it.  Json
      // copies share structure, so mint onto a shallow rebuild instead of
      // mutating a copy of the caller's document.
      Json hedge_doc = request_doc;
      std::uint64_t hedge_tid = tid;
      if (hedge_tid == 0) {
        hedge_tid = scope::mint_trace_id();
        hedge_doc = Json::object();
        for (const auto& [k, v] : request_doc.fields()) hedge_doc[k] = v;
        hedge_doc["trace"] = hex64(hedge_tid);
      }
      auto state = std::make_shared<HedgeState>();
      spawn_attempt(*primary, hedge_doc, state);
      std::size_t hedge_index = static_cast<std::size_t>(-1);
      std::uint64_t hedge_fired_us = 0;
      bool loser_running = false;
      std::unique_lock<std::mutex> sl(state->m);
      state->cv.wait_for(sl, std::chrono::milliseconds(*delay), [&] {
        return state->have_winner || state->outstanding == 0;
      });
      if (!state->have_winner && state->outstanding > 0) {
        // Primary is slow: fire the hedge at the next allowed choice.
        sl.unlock();
        std::optional<std::size_t> secondary;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          secondary = next_allowed(order, pos);
        }
        if (secondary) {
          hedge_index = *secondary;
          out.hedged = true;
          ++out.backends_tried;
          hedge_fired_us = scope::now_us();
          m_.hedges_fired.inc();
          scope::FlightRecorder::global().record(
              scope::FlightRecorder::Kind::kHedge, tid,
              "fired at " + ids_[*secondary] + " (primary " +
                  ids_[*primary] + " slower than " +
                  std::to_string(*delay) + " ms)");
          spawn_attempt(*secondary, hedge_doc, state);
        }
        sl.lock();
      }
      state->cv.wait(sl, [&] {
        return state->have_winner || state->outstanding == 0;
      });
      if (state->have_winner) {
        a = std::move(state->winner);
        responder = state->winner_index;
        // The other attempt may still be grinding through its query on the
        // losing backend — remember that while we hold the scoreboard lock.
        loser_running = state->outstanding > 0;
        if (responder == hedge_index) {
          out.hedge_won = true;
          m_.hedges_won.inc();
        }
      } else if (state->have_loser) {
        a = std::move(state->loser);
        responder = state->loser_index;
      }
      if (out.hedged) {
        const char* outcome = out.hedge_won ? "won" : "lost";
        scope::FlightRecorder::global().record(
            scope::FlightRecorder::Kind::kHedge, tid,
            std::string(outcome) + " (responder " +
                (responder < ids_.size() ? ids_[responder] : "none") + ")");
        if (tid != 0) {
          scope::TraceStore::global().add(
              tid, scope::Span{"fleet.hedge", hedge_fired_us,
                               scope::now_us() - hedge_fired_us, outcome});
        }
      }
      sl.unlock();
      if (out.hedged && loser_running) {
        // A winner answered while the other attempt is still in flight: tell
        // the losing backend to stop computing an answer nobody will read.
        const std::size_t loser =
            responder == hedge_index ? *primary : hedge_index;
        fire_cancel(loser, hedge_tid);
        out.cancel_fired = true;
      }
    } else {
      a = attempt(*primary, request_doc);
    }

    if (a.responded && !a.shed) {
      finish_answered(std::move(a), responder);
      return out;
    }
    if (a.responded) {
      last_shed = std::move(a);
      last_shed_backend = responder;
      last_error = "all candidates shed";
    } else if (!a.error.empty()) {
      last_error = ids_[responder] + ": " + a.error;
    } else {
      last_error = ids_[responder] + ": " + request_failure_name(a.failure);
    }
    // Transport failure or shed: fail over to the next rendezvous choice.
  }

  if (last_shed.responded) {
    // Every live candidate shed: surface the shed document (it carries the
    // backend's retry_after hint) rather than inventing an error.
    finish_answered(std::move(last_shed), last_shed_backend);
    return out;
  }

  out.error = out.backends_tried == 0
                  ? "no backend available (all circuit breakers open)"
                  : "no backend answered; last: " + last_error;
  route_span.set_note("unanswered tried=" +
                      std::to_string(out.backends_tried));
  m_.unanswered.inc();
  if (out.backends_tried > 1) {
    m_.failovers.add(static_cast<std::uint64_t>(out.backends_tried - 1));
  }
  return out;
}

void FleetRouter::probe_loop() {
  Json probe = Json::object();
  probe["op"] = "health";

  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    probe_cv_.wait_for(lock,
                       std::chrono::milliseconds(options_.probe_interval_ms),
                       [this] { return stopping_; });
    if (stopping_) return;
    std::vector<std::size_t> targets;
    const std::uint64_t now = now_ms();
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      Backend& b = *backends_[i];
      switch (b.health.state(now)) {
        case BackendHealth::State::kClosed:
          // Liveness probe: detect a dead backend before live traffic does.
          targets.push_back(i);
          break;
        case BackendHealth::State::kHalfOpen:
          // Recovery probe; allow() reserves the single half-open slot.
          if (b.health.allow(now)) targets.push_back(i);
          break;
        case BackendHealth::State::kOpen:
          break;
      }
    }
    for (std::size_t i : targets) ++backends_[i]->probes;
    lock.unlock();
    // Health answers double as pressure reports: the backend's guard (or,
    // guardless, its queue fullness) rides in result.pressure and feeds the
    // router's prefer-lower-pressure ordering.
    std::vector<std::pair<std::size_t, double>> pressures;
    for (std::size_t i : targets) {
      Attempt a = attempt(i, probe);
      if (a.responded && a.doc["ok"].as_bool()) {
        const Json& p = a.doc["result"]["pressure"];
        if (p.is_number()) pressures.emplace_back(i, p.as_number());
      }
    }
    lock.lock();
    for (const auto& [i, p] : pressures) backends_[i]->pressure = p;
  }
}

std::size_t FleetRouter::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_requests_;
}

FleetRouter::Stats FleetRouter::stats() const {
  Stats s;
  s.requests = m_.requests.value();
  s.answered = m_.answered.value();
  s.unanswered = m_.unanswered.value();
  s.failovers = m_.failovers.value();
  s.hedges_fired = m_.hedges_fired.value();
  s.hedges_won = m_.hedges_won.value();
  s.cancels_fired = m_.cancels_fired.value();
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t now = now_ms();
  for (const auto& bp : backends_) {
    Backend& b = *bp;  // unique_ptr does not propagate const to the pointee
    BackendStats bs;
    bs.id = b.config.id;
    bs.port = b.config.port;
    bs.state = b.health.state(now);
    bs.window_failure_rate = b.health.window_failure_rate();
    bs.requests = b.requests;
    bs.responses = b.responses;
    bs.shed = b.shed;
    bs.refused = b.refused;
    bs.transport_failures = b.transport_failures;
    bs.probes = b.probes;
    bs.ejections = b.health.ejections();
    bs.pressure = b.pressure;
    s.backends.push_back(std::move(bs));
  }
  return s;
}

Json fleet_stats_to_json(const FleetRouter::Stats& stats) {
  Json doc = Json::object();
  doc["requests"] = stats.requests;
  doc["answered"] = stats.answered;
  doc["unanswered"] = stats.unanswered;
  doc["failovers"] = stats.failovers;
  doc["hedges_fired"] = stats.hedges_fired;
  doc["hedges_won"] = stats.hedges_won;
  doc["cancels_fired"] = stats.cancels_fired;
  Json backends = Json::array();
  for (const auto& b : stats.backends) {
    Json e = Json::object();
    e["id"] = b.id;
    e["port"] = static_cast<std::uint64_t>(b.port);
    e["state"] = BackendHealth::state_name(b.state);
    e["window_failure_rate"] = b.window_failure_rate;
    e["requests"] = b.requests;
    e["responses"] = b.responses;
    e["shed"] = b.shed;
    e["refused"] = b.refused;
    e["transport_failures"] = b.transport_failures;
    e["probes"] = b.probes;
    e["ejections"] = b.ejections;
    e["pressure"] = b.pressure;
    backends.items().push_back(std::move(e));
  }
  doc["backends"] = std::move(backends);
  return doc;
}

}  // namespace netemu
