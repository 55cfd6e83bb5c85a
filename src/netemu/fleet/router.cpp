#include "netemu/fleet/router.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "netemu/fleet/rendezvous.hpp"
#include "netemu/scope/flight_recorder.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/service/exchange.hpp"
#include "netemu/util/hash.hpp"

namespace netemu {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// The trace id a request document carries (0 = untraced).  The fleet reads
// it for its own spans/events and forwards the document untouched.
std::uint64_t doc_trace_id(const Json& request_doc) {
  return scope::parse_trace_id(request_doc["trace"].as_string());
}

bool answered(const Client::RequestOutcome& a) {
  return a.doc.has_value() && a.failure != RequestFailure::kOverloaded;
}

}  // namespace

// This router's backend connections on one reactor.
struct FleetRouter::Lane final : Reactor::Local {
  Lane(Reactor& reactor, const Options& options, scope::Gauge& open)
      : pool(reactor, options.client, options.pool_per_backend, &open) {}
  ExchangePool pool;
};

// One race: rounds over the candidate order (failover), each round a
// primary exchange plus, when hedging, a second one fired by a timer.
// Owned through shared_ptr by its exchanges' callbacks and its hedge
// timer, so a losing leg that lands after the answer finds it alive.
struct FleetRouter::Race : std::enable_shared_from_this<Race> {
  Race(FleetRouter& owner, Reactor& on, std::uint64_t trace_id, Done then)
      : router(owner),
        reactor(on),
        tid(trace_id),
        hedge_tid(trace_id),
        route_span(trace_id, "fleet.route"),
        done(std::move(then)) {}

  ~Race() {
    if (finished) return;
    // Torn down with its reactor before an answer: it is no longer in
    // flight, and its residency is not a span worth keeping.
    route_span.cancel();
    std::lock_guard<std::mutex> lock(router.mutex_);
    --router.active_;
  }

  Race(const Race&) = delete;
  Race& operator=(const Race&) = delete;

  void next_round();
  void launch(std::size_t index);
  void on_hedge_timer(int of_round);
  void on_leg(int of_round, std::size_t index, Client::RequestOutcome a);
  void end_round(Client::RequestOutcome a, std::size_t responder);
  void give_up();
  void finish_answered(Client::RequestOutcome a, std::size_t responder);
  void complete();
  /// The line this round sends: hedging wants a trace id even for
  /// untraced callers, because the cancel verb that reclaims the losing
  /// backend's compute is keyed by it.
  const std::string& round_line();

  FleetRouter& router;
  Reactor& reactor;
  const std::uint64_t tid;
  std::uint64_t hedge_tid;  ///< tid, or the id minted for hedging
  Json doc;
  std::string line;        ///< doc, dumped once
  std::string hedge_line;  ///< doc plus a minted trace (untraced + hedging)
  std::uint64_t budget_ms = 0;
  std::vector<std::size_t> order;
  std::size_t pos = 0;
  const std::chrono::steady_clock::time_point t0 =
      std::chrono::steady_clock::now();
  scope::SpanTimer route_span;
  Result out;
  Done done;
  bool finished = false;

  // The round in flight; outcomes of an earlier round's legs are ignored.
  int round = 0;
  std::size_t primary = kNone;
  std::size_t hedge_index = kNone;
  int legs_running = 0;
  bool hedging = false;  ///< this round arms a hedge timer
  Reactor::Timer hedge_timer;
  std::uint64_t delay_ms = 0;
  std::uint64_t hedge_fired_us = 0;
  bool have_winner = false;
  std::size_t winner_index = kNone;
  Client::RequestOutcome winner;
  bool have_loser = false;  ///< best non-winning leg (sheds preferred)
  std::size_t loser_index = kNone;
  Client::RequestOutcome loser;

  // Across rounds: returned if every candidate sheds / fails.
  std::string last_error;
  Client::RequestOutcome last_shed;
  std::size_t last_shed_backend = kNone;
};

FleetRouter::FleetRouter(Options options)
    : options_(std::move(options)),
      m_{metrics_},
      started_(std::chrono::steady_clock::now()) {
  // Sheds must surface to the router (which fails them over) instead of
  // being absorbed by a retry after the backend's hint.
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

FleetRouter::~FleetRouter() {
  stop();
  // The idle loops' pools and any leftover exchanges go first: tearing a
  // race down takes mutex_.
  std::vector<std::unique_ptr<Reactor>> loops;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    loops.swap(idle_loops_);
  }
  loops.clear();
}

void FleetRouter::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
}

std::uint64_t FleetRouter::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_)
          .count());
}

std::uint64_t FleetRouter::route_key(const Json& request_doc,
                                     const std::optional<Query>& query) {
  // Route on the same content address the backend caches key on, so a key's
  // repeats land on the backend whose cache already holds its result.  Ops
  // that are not queries (stats, health, ...) hash their canonical dump.
  return query ? query->cache_key() : fnv1a64(request_doc.dump());
}

std::uint64_t FleetRouter::route_key(const Json& request_doc) {
  std::string error;
  return route_key(request_doc, query_from_json(request_doc, &error));
}

std::vector<std::size_t> FleetRouter::rank_for(const Json& request_doc) const {
  return rendezvous_rank(route_key(request_doc), ids_);
}

FleetRouter::Lane& FleetRouter::lane(Reactor& reactor) {
  return reactor.local<Lane>(this, [&] {
    return std::make_unique<Lane>(reactor, options_, m_.backend_connections);
  });
}

void FleetRouter::drive(
    const std::function<void(Reactor&, std::function<void()>)>& start) {
  std::unique_ptr<Reactor> loop;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!idle_loops_.empty()) {
      loop = std::move(idle_loops_.back());
      idle_loops_.pop_back();
    }
  }
  if (!loop) loop = std::make_unique<Reactor>();
  // What arrived while the loop sat idle first: a backend's hang-up drops
  // its pooled connection before this call could pick it.
  loop->turn(0);
  bool finished = false;
  start(*loop, [&finished] { finished = true; });
  const ExchangePool& pool = lane(*loop).pool;
  while (!finished || pool.unsent() > 0) loop->turn(-1);
  std::lock_guard<std::mutex> lock(mutex_);
  idle_loops_.push_back(std::move(loop));
}

void FleetRouter::exchange(Reactor& reactor, std::size_t index,
                           std::string line, std::uint64_t budget_ms,
                           std::uint64_t trace_id,
                           std::function<void(Client::RequestOutcome)> done) {
  std::uint16_t port = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Backend& b = *backends_[index];
    ++b.requests;
    port = b.config.port;
  }
  lane(reactor).pool.start(
      port, std::move(line), budget_ms,
      [this, index, trace_id, done = std::move(done)](Client::RequestOutcome a) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          record_attempt_locked(*backends_[index], a, now_ms(), trace_id);
        }
        done(std::move(a));
      });
}

void FleetRouter::record_attempt_locked(Backend& b,
                                        const Client::RequestOutcome& a,
                                        std::uint64_t now,
                                        std::uint64_t trace_id) {
  if (a.doc) {
    ++b.responses;
    if (a.failure == RequestFailure::kOverloaded) ++b.shed;
    // Any document — even a shed or a server-side error — proves the
    // transport and the process are alive.
    b.health.record_success(now);
  } else if (a.failure == RequestFailure::kDeadline) {
    // The request's own deadline ran out: the caller gets the deadline
    // error, the backend is neither credited nor blamed, and a half-open
    // probe slot the attempt held goes back to the next request or probe.
    b.health.release(now);
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

void FleetRouter::cancel_at(Reactor& reactor, std::size_t index,
                            std::uint64_t trace_id) {
  if (index >= backends_.size() || trace_id == 0) return;
  Json cancel = Json::object();
  cancel["op"] = "cancel";
  cancel["trace"] = hex64(trace_id);
  m_.cancels_fired.inc();
  scope::FlightRecorder::global().record(
      scope::FlightRecorder::Kind::kHedge, trace_id,
      "cancel fired at loser " + ids_[index]);
  // Best-effort: the winner's answer is already on its way back, so nothing
  // waits on this.  If the loser's query never started (or already
  // finished) the backend just answers {"cancelled":false}.
  exchange(reactor, index, cancel.dump(), 0, trace_id,
           [](Client::RequestOutcome) {});
}

void FleetRouter::cancel_at(std::size_t index, std::uint64_t trace_id) {
  drive([&](Reactor& loop, std::function<void()> finish) {
    cancel_at(loop, index, trace_id);
    finish();
  });
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

void FleetRouter::broadcast(
    Reactor& reactor, const Json& request_doc,
    std::function<void(std::vector<BroadcastReply>)> done) {
  // Every backend at once; the replies come back in backend order.
  struct Gather {
    Gather(FleetRouter& owner, std::size_t n,
           std::function<void(std::vector<BroadcastReply>)> then)
        : router(owner), docs(n), pending(n), done(std::move(then)) {
      std::lock_guard<std::mutex> lock(router.mutex_);
      ++router.active_;
    }
    ~Gather() {
      std::lock_guard<std::mutex> lock(router.mutex_);
      --router.active_;
    }
    Gather(const Gather&) = delete;
    Gather& operator=(const Gather&) = delete;
    FleetRouter& router;
    std::vector<std::optional<Json>> docs;
    std::size_t pending;
    std::function<void(std::vector<BroadcastReply>)> done;
  };
  auto gather =
      std::make_shared<Gather>(*this, backends_.size(), std::move(done));
  const auto reply = [](Gather& g) {
    std::vector<BroadcastReply> replies;
    for (std::size_t i = 0; i < g.docs.size(); ++i) {
      if (g.docs[i]) replies.push_back(BroadcastReply{i, std::move(*g.docs[i])});
    }
    auto then = std::move(g.done);
    then(std::move(replies));
  };
  if (backends_.empty()) {
    reply(*gather);
    return;
  }
  const std::string line = request_doc.dump();
  const std::uint64_t tid = doc_trace_id(request_doc);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    exchange(reactor, i, line, 0, tid,
             [gather, i, reply](Client::RequestOutcome a) {
               if (a.doc) gather->docs[i] = std::move(*a.doc);
               if (--gather->pending == 0) reply(*gather);
             });
  }
}

FleetRouter::Result FleetRouter::request(const Json& request_doc) {
  return request(request_doc, std::nullopt);
}

FleetRouter::Result FleetRouter::request(
    const Json& request_doc, std::optional<std::size_t> exclude_backend) {
  Result out;
  drive([&](Reactor& loop, std::function<void()> finish) {
    race(loop, request_doc, route_key(request_doc), exclude_backend,
         [&out, finish](Result r) {
           out = std::move(r);
           finish();
         });
  });
  return out;
}

void FleetRouter::race(Reactor& reactor, Json request_doc, std::uint64_t key,
                       std::optional<std::size_t> exclude_backend, Done done) {
  const Json& doc = request_doc;  // const reads: operator[] would insert
  auto r = std::make_shared<Race>(*this, reactor, doc_trace_id(doc),
                                  std::move(done));
  m_.requests.inc();
  r->budget_ms = doc["deadline_ms"].as_uint(0);
  r->line = doc.dump();
  r->doc = std::move(request_doc);
  r->order = rendezvous_rank(key, ids_);
  if (exclude_backend) {
    r->order.erase(
        std::remove(r->order.begin(), r->order.end(), *exclude_backend),
        r->order.end());
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++active_;
    if (options_.pressure_sink_threshold > 0.0) {
      // Overload preference: backends whose last probe reported pressure
      // at or above the threshold sink to the back of the rendezvous
      // order.  A stable partition keeps the affinity ranking within each
      // group, and a sunk backend is still a candidate — under fleet-wide
      // overload the request degrades to the old behaviour instead of
      // failing outright.
      std::stable_partition(r->order.begin(), r->order.end(),
                            [&](std::size_t i) {
                              return backends_[i]->pressure <
                                     options_.pressure_sink_threshold;
                            });
    }
  }
  r->next_round();
}

const std::string& FleetRouter::Race::round_line() {
  if (!hedging || tid != 0) return line;
  if (hedge_line.empty()) {
    // Json copies share structure, so mint onto a shallow rebuild instead
    // of mutating a copy of the caller's document.
    hedge_tid = scope::mint_trace_id();
    Json hedge_doc = Json::object();
    for (const auto& [k, v] : std::as_const(doc).fields()) hedge_doc[k] = v;
    hedge_doc["trace"] = hex64(hedge_tid);
    hedge_line = hedge_doc.dump();
  }
  return hedge_line;
}

void FleetRouter::Race::next_round() {
  std::optional<std::size_t> next;
  {
    std::lock_guard<std::mutex> lock(router.mutex_);
    next = router.next_allowed(order, pos);
  }
  if (!next) {
    give_up();
    return;
  }
  ++round;
  ++out.backends_tried;
  primary = *next;
  hedge_index = kNone;
  have_winner = have_loser = false;
  const std::optional<std::uint64_t> delay = router.hedge_delay_ms();
  hedging = delay.has_value();
  launch(primary);
  if (hedging) {
    delay_ms = *delay;
    hedge_timer = reactor.arm(
        std::chrono::milliseconds(delay_ms),
        [self = shared_from_this(), of_round = round] {
          self->hedge_timer = Reactor::Timer{};
          self->on_hedge_timer(of_round);
        });
  }
}

void FleetRouter::Race::launch(std::size_t index) {
  ++legs_running;
  router.exchange(reactor, index, round_line(), budget_ms, tid,
                  [self = shared_from_this(), of_round = round,
                   index](Client::RequestOutcome a) {
                    self->on_leg(of_round, index, std::move(a));
                  });
}

void FleetRouter::Race::on_hedge_timer(int of_round) {
  if (finished || of_round != round || have_winner || legs_running == 0) {
    return;
  }
  // The primary is slow: fire the hedge at the next allowed choice.
  std::optional<std::size_t> secondary;
  {
    std::lock_guard<std::mutex> lock(router.mutex_);
    secondary = router.next_allowed(order, pos);
  }
  if (!secondary) return;
  hedge_index = *secondary;
  out.hedged = true;
  ++out.backends_tried;
  hedge_fired_us = scope::now_us();
  router.m_.hedges_fired.inc();
  scope::FlightRecorder::global().record(
      scope::FlightRecorder::Kind::kHedge, tid,
      "fired at " + router.ids_[*secondary] + " (primary " +
          router.ids_[primary] + " slower than " + std::to_string(delay_ms) +
          " ms)");
  launch(*secondary);
}

void FleetRouter::Race::on_leg(int of_round, std::size_t index,
                               Client::RequestOutcome a) {
  if (finished || of_round != round) return;  // a settled round's loser
  --legs_running;
  if (answered(a) && !have_winner) {
    have_winner = true;
    winner_index = index;
    winner = std::move(a);
  } else if (!have_winner &&
             (!have_loser || (a.doc.has_value() && !loser.doc.has_value()))) {
    // Keep the most informative non-answer: a shed document beats a bare
    // transport error (it carries the backend's retry hint).
    have_loser = true;
    loser_index = index;
    loser = std::move(a);
  }
  if (!have_winner && legs_running > 0) return;  // the other leg may answer
  reactor.disarm(hedge_timer);

  // The other leg may still be grinding through its query on the losing
  // backend.
  const bool loser_running = have_winner && legs_running > 0;
  std::size_t responder = loser_index;
  Client::RequestOutcome result;
  if (have_winner) {
    responder = winner_index;
    result = std::move(winner);
    if (responder == hedge_index) {
      out.hedge_won = true;
      router.m_.hedges_won.inc();
    }
  } else {
    result = std::move(loser);
  }
  if (hedge_index != kNone) {
    const char* outcome = out.hedge_won ? "won" : "lost";
    scope::FlightRecorder::global().record(
        scope::FlightRecorder::Kind::kHedge, tid,
        std::string(outcome) + " (responder " +
            (responder < router.ids_.size() ? router.ids_[responder]
                                            : "none") +
            ")");
    if (tid != 0) {
      scope::TraceStore::global().add(
          tid, scope::Span{"fleet.hedge", hedge_fired_us,
                           scope::now_us() - hedge_fired_us, outcome});
    }
    if (loser_running) {
      // A winner answered while the other leg is still in flight: tell the
      // losing backend to stop computing an answer nobody will read.
      router.cancel_at(reactor, responder == hedge_index ? primary : hedge_index,
                       hedge_tid);
      out.cancel_fired = true;
    }
  }
  end_round(std::move(result), responder);
}

void FleetRouter::Race::end_round(Client::RequestOutcome a,
                                  std::size_t responder) {
  if (answered(a)) {
    finish_answered(std::move(a), responder);
    return;
  }
  if (a.doc) {
    last_shed = std::move(a);
    last_shed_backend = responder;
    last_error = "all candidates shed";
  } else if (!a.error.empty()) {
    last_error = router.ids_[responder] + ": " + a.error;
  } else {
    last_error =
        router.ids_[responder] + ": " + request_failure_name(a.failure);
  }
  // Transport failure or shed: fail over to the next rendezvous choice.
  next_round();
}

void FleetRouter::Race::give_up() {
  if (last_shed.doc) {
    // Every live candidate shed: surface the shed document (it carries the
    // backend's retry_after hint) rather than inventing an error.
    finish_answered(std::move(last_shed), last_shed_backend);
    return;
  }
  out.error = out.backends_tried == 0
                  ? "no backend available (all circuit breakers open)"
                  : "no backend answered; last: " + last_error;
  route_span.set_note("unanswered tried=" +
                      std::to_string(out.backends_tried));
  router.m_.unanswered.inc();
  if (out.backends_tried > 1) {
    router.m_.failovers.add(static_cast<std::uint64_t>(out.backends_tried - 1));
  }
  complete();
}

void FleetRouter::Race::finish_answered(Client::RequestOutcome a,
                                        std::size_t responder) {
  out.ok = true;
  out.doc = std::move(*a.doc);
  out.backend = responder;
  route_span.set_note("backend=" + router.ids_[responder] + " tried=" +
                      std::to_string(out.backends_tried));
  if (a.failure != RequestFailure::kOverloaded) {
    router.m_.request_us.observe(std::chrono::duration<double, std::micro>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count());
  }
  router.m_.answered.inc();
  if (out.backends_tried > 1) {
    router.m_.failovers.add(static_cast<std::uint64_t>(out.backends_tried - 1));
  }
  complete();
}

void FleetRouter::Race::complete() {
  finished = true;
  reactor.disarm(hedge_timer);
  route_span.finish();
  Done then = std::move(done);
  then(std::move(out));
  // Out of flight only once the caller has the answer in hand.
  std::lock_guard<std::mutex> lock(router.mutex_);
  --router.active_;
}

void FleetRouter::probe_loop() {
  Json probe = Json::object();
  probe["op"] = "health";
  const std::string probe_line = probe.dump();

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
    // Health answers double as pressure reports: the backend's admission
    // pressure rides in result.pressure and feeds the router's
    // prefer-lower-pressure ordering.  Every target at once.
    std::vector<std::pair<std::size_t, double>> pressures;
    std::size_t pending = targets.size();
    drive([&](Reactor& loop, std::function<void()> finish) {
      if (pending == 0) finish();
      for (std::size_t i : targets) {
        exchange(loop, i, probe_line, 0, 0,
                 [&pressures, &pending, finish, i](Client::RequestOutcome a) {
                   if (a.doc) {
                     const Json& doc = *a.doc;
                     const Json& p = doc["result"]["pressure"];
                     if (doc["ok"].as_bool() && p.is_number()) {
                       pressures.emplace_back(i, p.as_number());
                     }
                   }
                   if (--pending == 0) finish();
                 });
      }
    });
    lock.lock();
    for (const auto& [i, p] : pressures) backends_[i]->pressure = p;
  }
}

std::size_t FleetRouter::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
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
