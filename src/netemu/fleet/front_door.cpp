#include "netemu/fleet/front_door.hpp"

#include <optional>
#include <thread>
#include <utility>

#include "netemu/scope/exposition.hpp"
#include "netemu/scope/flight_recorder.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/query.hpp"
#include "netemu/util/hash.hpp"

namespace netemu {

namespace {

std::string error_line(const std::string& message) {
  Json doc = Json::object();
  doc["ok"] = false;
  doc["error"] = message;
  return doc.dump();
}

std::string ok_line(Json result) {
  Json doc = Json::object();
  doc["ok"] = true;
  doc["result"] = std::move(result);
  return doc.dump();
}

}  // namespace

FleetFrontDoor::FleetFrontDoor(FleetRouter& router, Options options)
    : router_(router),
      options_(options),
      scatterer_(router, options.scatter) {}

void FleetFrontDoor::handle_trace(Reactor& reactor, const Json& request,
                                  std::function<void(Answer)> done) {
  const Json& id = request["id"];
  if (!id.is_string()) {
    done({error_line("trace: missing string field 'id'")});
    return;
  }
  const std::uint64_t trace_id = scope::parse_trace_id(id.as_string());
  if (trace_id == 0) {
    done({error_line("trace: 'id' must be a nonzero hex64 id")});
    return;
  }

  // Merge order: the fleet's own spans first (the request reached us before
  // any backend), then each backend's, in backend order.  Timestamps are
  // per-process monotonic and NOT comparable across sites — the "site"
  // annotation is the cross-process ordering key.
  Json spans = Json::array();
  for (const scope::Span& span : scope::TraceStore::global().get(trace_id)) {
    Json s = scope::span_to_json(span);
    s["site"] = "fleet";
    spans.items().push_back(std::move(s));
  }

  Json fan = Json::object();
  fan["op"] = "trace";
  fan["id"] = hex64(trace_id);
  router_.broadcast(
      reactor, fan,
      [this, trace_id, spans = std::move(spans), done = std::move(done)](
          std::vector<FleetRouter::BroadcastReply> replies) mutable {
        for (const FleetRouter::BroadcastReply& reply : replies) {
          const Json& result = reply.doc["result"];
          if (!reply.doc["ok"].as_bool() || !result["found"].as_bool()) {
            continue;
          }
          const std::string& site =
              router_.options().backends[reply.backend].id;
          for (const Json& span : result["spans"].items()) {
            Json s = span;
            s["site"] = site;
            spans.items().push_back(std::move(s));
          }
        }
        Json result = Json::object();
        result["trace"] = hex64(trace_id);
        result["found"] = !spans.items().empty();
        result["spans"] = std::move(spans);
        done({ok_line(std::move(result))});
      });
}

std::string FleetFrontDoor::handle_line(const std::string& line,
                                        bool* shutdown_requested,
                                        bool* drain_requested,
                                        const std::string& peer) {
  Answer answer;
  router_.drive([&](Reactor& loop, std::function<void()> finish) {
    dispatch(loop, line, peer, drain_requested != nullptr,
             [&answer, finish](Answer a) {
               answer = std::move(a);
               finish();
             });
  });
  if (answer.shutdown && shutdown_requested) *shutdown_requested = true;
  if (answer.drain && drain_requested) *drain_requested = true;
  return std::move(answer.line);
}

void FleetFrontDoor::handle(Reactor& reactor, const std::string& line,
                            const std::string& peer,
                            std::function<void(Answer)> done) {
  dispatch(reactor, line, peer, true, std::move(done));
}

void FleetFrontDoor::dispatch(Reactor& reactor, const std::string& line,
                              const std::string& peer, bool drain_honored,
                              std::function<void(Answer)> done) {
  std::string parse_error;
  Json request = Json::parse(line, &parse_error);
  if (!parse_error.empty() || !request.is_object()) {
    done({protocol_error_line(parse_error.empty() ? "not an object"
                                                  : parse_error)});
    return;
  }

  // Read through const access: the mutable operator[] INSERTS a null
  // member, and a "trace":null field fails query validation on every
  // backend.
  const Json& as_const = request;
  const std::string& op = as_const["op"].as_string();
  if (op == "shutdown") {
    // Stops the front door only; backends are independent processes.
    Json result = Json::object();
    result["stopping"] = true;
    done({ok_line(std::move(result)), /*shutdown=*/true});
    return;
  }
  if (op == "drain") {
    // The front door holds no compute of its own; draining means "stop
    // accepting, let proxied requests land, go away" — the daemon runs that
    // once the flag is set.  Backends drain independently.
    Json result = Json::object();
    result["draining"] = drain_honored;
    done({ok_line(std::move(result)), false, /*drain=*/true});
    return;
  }
  if (op == "fleet") {
    Json result = fleet_stats_to_json(router_.stats());
    const Scatterer::Stats sc = scatterer_.stats();
    Json scatter = Json::object();
    scatter["scatters"] = sc.scatters;
    scatter["subqueries"] = sc.subqueries;
    scatter["straggler_retries"] = sc.straggler_retries;
    scatter["merged_full"] = sc.merged_full;
    scatter["merged_degraded"] = sc.merged_degraded;
    scatter["failed"] = sc.failed;
    result["scatter"] = std::move(scatter);
    done({ok_line(std::move(result))});
    return;
  }
  if (op == "events") {
    Json result = Json::object();
    result["total"] = scope::FlightRecorder::global().total();
    result["events"] = scope::flight_recorder_to_json();
    done({ok_line(std::move(result))});
    return;
  }
  if (op == "trace") {
    handle_trace(reactor, request, std::move(done));
    return;
  }

  // Trace minting: "trace":true (or trace_all) turns into a fresh id the
  // backends and the router's own spans will record under.
  const bool is_query = query_kind_from_name(op).has_value();
  if (as_const["trace"].is_bool()) {
    if (as_const["trace"].as_bool()) {
      request["trace"] = hex64(scope::mint_trace_id());
    } else {
      request.fields().erase("trace");
    }
  } else if (options_.trace_all && !as_const["trace"].is_string() &&
             is_query) {
    request["trace"] = hex64(scope::mint_trace_id());
  }

  // Client stamping: every backend sees the front door's source address, so
  // without this, all fleet traffic would collapse into one guard client.
  // Stamp the caller's connection tag unless the caller named itself.
  if (!peer.empty() && !as_const["client"].is_string() && is_query) {
    request["client"] = "peer:" + peer;
  }

  // Canonicalize once: the scatter decision and the route key both read
  // this query.  Big estimate sweeps scatter into trial-range sub-queries
  // across the backends and merge bit-identically (docs/SCATTER.md);
  // everything else routes whole.
  std::string query_error;
  const std::optional<Query> query = query_from_json(request, &query_error);
  if (query && scatterer_.eligible(*query)) {
    scatterer_.scatter(reactor, request, *query,
                       [done = std::move(done)](std::string merged) {
                         done({std::move(merged)});
                       });
    return;
  }
  const std::uint64_t key = FleetRouter::route_key(request, query);
  router_.race(reactor, std::move(request), key, std::nullopt,
               [this, done = std::move(done)](FleetRouter::Result r) {
                 done({response_line(std::move(r))});
               });
}

std::string FleetFrontDoor::response_line(FleetRouter::Result r) const {
  if (!r.ok) {
    Json doc = Json::object();
    doc["ok"] = false;
    doc["error"] = "fleet: " + r.error;
    doc["fleet_tried"] = static_cast<std::int64_t>(r.backends_tried);
    return doc.dump();
  }
  // Pass the backend's document through, annotated with who served it
  // (soak harnesses and curious clients both want to know).
  r.doc["served_by"] = router_.options().backends[r.backend].id;
  if (r.hedged) r.doc["hedged"] = r.hedge_won ? "won" : "lost";
  return r.doc.dump();
}

std::chrono::milliseconds drain_front_door(Server& server,
                                           const FleetRouter& router,
                                           std::chrono::milliseconds budget) {
  using SteadyClock = std::chrono::steady_clock;
  const auto started = SteadyClock::now();
  const auto deadline = started + budget;
  server.begin_drain();
  while (router.inflight() > 0 && SteadyClock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server.stop();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      SteadyClock::now() - started);
}

}  // namespace netemu
