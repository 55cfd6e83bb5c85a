#include "netemu/service/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "netemu/faultline/injector.hpp"
#include "netemu/routing/packet_sim.hpp"
#include "netemu/scope/exposition.hpp"
#include "netemu/scope/flight_recorder.hpp"
#include "netemu/scope/trace.hpp"
#include "netemu/util/hash.hpp"

namespace netemu {

namespace {

std::string error_line(const std::string& message) {
  Json doc = Json::object();
  doc["ok"] = false;
  doc["error"] = message;
  return doc.dump();
}

std::string stats_line(QueryExecutor& exec, const Json& request) {
  // {"op":"stats","format":"prometheus"} returns the text exposition as a
  // single JSON string (the line protocol cannot carry raw multi-line text);
  // a scrape proxy unwraps "text" and forwards it verbatim.
  if (request["format"].as_string() == "prometheus") {
    Json result = Json::object();
    result["format"] = "prometheus";
    result["text"] = scope::registry_to_prometheus(
        {&exec.metrics(), &scope::Registry::global()});
    Json doc = Json::object();
    doc["ok"] = true;
    doc["result"] = std::move(result);
    return doc.dump();
  }
  const QueryExecutor::Stats s = exec.stats();
  Json result = Json::object();
  result["requests"] = s.requests;
  result["cache_hits"] = s.cache_hits;
  result["computed"] = s.computed;
  result["dedup_joins"] = s.dedup_joins;
  result["rejected"] = s.rejected;
  result["deadline_exceeded"] = s.deadline_exceeded;
  result["errors"] = s.errors;
  result["hung"] = s.hung;
  result["stale_served"] = s.stale_served;
  result["cancelled"] = s.cancelled;
  result["browned_out"] = s.browned_out;
  Json cache = Json::object();
  cache["size"] = exec.cache().size();
  cache["capacity"] = exec.cache().capacity();
  cache["hits"] = s.cache_hits;
  cache["misses"] = s.cache_misses;
  result["cache"] = std::move(cache);
  result["uptime_s"] = exec.uptime_seconds();
  // Every scope metric this process serves with: the executor's own
  // (request counts and the compute / execute latency histograms netemu_top
  // renders tails from) beside the global simulator and I/O metrics.
  result["scope"] = scope::registry_to_json(
      {&exec.metrics(), &scope::Registry::global()});
  Json doc = Json::object();
  doc["ok"] = true;
  doc["result"] = std::move(result);
  return doc.dump();
}

std::string trace_line(const Json& request) {
  const Json& id = request["id"];
  if (!id.is_string()) return error_line("trace: missing string field 'id'");
  const std::uint64_t trace_id = scope::parse_trace_id(id.as_string());
  if (trace_id == 0) {
    return error_line("trace: 'id' must be a nonzero hex64 id");
  }
  Json doc = Json::object();
  doc["ok"] = true;
  doc["result"] = scope::trace_to_json(trace_id, scope::TraceStore::global());
  return doc.dump();
}

std::string events_line() {
  Json result = Json::object();
  result["total"] = scope::FlightRecorder::global().total();
  result["events"] = scope::flight_recorder_to_json();
  Json doc = Json::object();
  doc["ok"] = true;
  doc["result"] = std::move(result);
  return doc.dump();
}

std::string health_line(QueryExecutor& exec) {
  const QueryExecutor::Stats s = exec.stats();

  Json pool = Json::object();
  pool["threads"] = exec.pool().size();
  pool["pending"] = exec.pending();
  pool["max_queue"] = exec.options().max_queue;

  Json cache = Json::object();
  cache["size"] = exec.cache().size();
  cache["capacity"] = exec.cache().capacity();
  cache["hits"] = s.cache_hits;
  cache["misses"] = s.cache_misses;
  cache["corrupt_entries"] = exec.cache().corrupt_entries();
  cache["save_failures"] = exec.cache().save_failures();
  cache["persistent"] = !exec.cache().path().empty();

  Json shed = Json::object();
  shed["rejected"] = s.rejected;
  shed["retry_after_ms"] = exec.options().retry_after_hint_ms;

  Json flights = Json::object();
  flights["active"] = exec.active_flights();
  flights["hung"] = s.hung;
  flights["stale_served"] = s.stale_served;
  flights["cancelled"] = s.cancelled;

  // Per-query compute-time distribution (scope histogram over all computes)
  // plus cumulative simulation volume, so perf regressions show up in the
  // running daemon without external tooling.  Volume counters are paired
  // with the process epoch: a reader that sees epoch_unix_s change knows the
  // counters restarted from zero (reset-safe monotonicity).
  const QueryExecutor::ComputeTimes times = exec.compute_times();
  Json compute = Json::object();
  compute["p50_us"] = times.p50_us;
  compute["p95_us"] = times.p95_us;
  compute["p99_us"] = times.p99_us;
  compute["samples"] = times.samples;
  compute["sim_ticks_total"] = simulated_ticks_total();
  compute["sim_batches_total"] = simulated_batches_total();
  compute["sim_messages_total"] = simulated_messages_total();
  compute["epoch_unix_s"] = scope::process_epoch_unix_s();

  // Overload pressure for fleet routing: the guard's one number over both
  // of its limits (flights over max_queue, cost over the effective limit).
  // >= 1.0 means the admission gate is effectively closed.
  const double pressure = exec.pressure();

  Json result = Json::object();
  // Draining outranks overloaded: a drained backend is going away, and a
  // fleet probe that sees it should route new work elsewhere.
  result["status"] = exec.draining()    ? "draining"
                     : pressure >= 1.0 ? "overloaded"
                                       : "ok";
  result["pressure"] = pressure;
  result["guard"] = exec.overload_guard()->to_json();
  result["uptime_s"] = exec.uptime_seconds();
  result["pool"] = std::move(pool);
  result["cache"] = std::move(cache);
  result["shed"] = std::move(shed);
  result["flights"] = std::move(flights);
  result["compute"] = std::move(compute);

  Json doc = Json::object();
  doc["ok"] = true;
  doc["result"] = std::move(result);
  return doc.dump();
}

}  // namespace

std::string protocol_error_line(const std::string& message) {
  return error_line("protocol_error: " + message);
}

std::string response_to_line(const Response& r) {
  if (!r.ok) {
    Json doc = Json::object();
    doc["ok"] = false;
    doc["error"] = r.error;
    doc["key"] = hex64(r.key);
    doc["micros"] = r.micros;
    if (r.overloaded) {
      doc["overloaded"] = true;
      // A zero hint (draining sheds) is omitted: there is no useful wait —
      // the caller should fail over instead of retrying here.
      if (r.retry_after_ms != 0) doc["retry_after_ms"] = r.retry_after_ms;
    }
    if (r.trace_id != 0) doc["trace"] = hex64(r.trace_id);
    return doc.dump();
  }
  // Hand-assembled so the (hot) cached path splices the stored result text
  // instead of reparsing it.  r.result is a complete JSON document.
  std::string line = "{\"cache_hit\":";
  line += r.cache_hit ? "true" : "false";
  line += ",\"key\":\"";
  line += hex64(r.key);
  line += "\",\"micros\":";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", r.micros);
  line += buf;
  line += ",\"ok\":true,\"result\":";
  line += r.result;
  if (r.stale) line += ",\"stale\":true";
  // Top-level mirror of the result document's "degraded" marker so clients
  // can notice a partial answer without parsing the result body.
  if (r.degraded) line += ",\"degraded\":true";
  if (r.trace_id != 0) {
    line += ",\"trace\":\"";
    line += hex64(r.trace_id);
    line += "\"";
  }
  line += "}";
  return line;
}

namespace {

std::string ping_line() {
  Json doc = Json::object();
  doc["ok"] = true;
  Json result = Json::object();
  result["pong"] = true;
  doc["result"] = std::move(result);
  return doc.dump();
}

}  // namespace

std::optional<std::string> try_handle_request_line_fast(
    const std::string& line, QueryExecutor& exec) {
  std::string error;
  const Json request = Json::parse(line, &error);
  if (!error.empty()) return error_line("bad JSON: " + error);
  if (!request.is_object()) return error_line("request must be an object");

  const std::string& op = request["op"].as_string();
  if (op == "ping") return ping_line();
  if (op == "stats" || op == "health" || op == "trace" || op == "events" ||
      op == "cancel" || op == "drain" || op == "shutdown") {
    // Side-effecting or lock-taking: left to the caller, so this function
    // stays a pure parse + cache probe.
    return std::nullopt;
  }

  const auto query = query_from_json(request, &error);
  if (!query) return error_line(error);  // deterministic, non-blocking
  if (auto cached = exec.try_cached(*query)) {
    return response_to_line(*cached);
  }
  return std::nullopt;
}

namespace {

/// The answer to every line but a valid query: the response line, or
/// nullopt with the query (its default client stamped) in `query`.
std::optional<std::string> answer_unless_query(
    const std::string& line, QueryExecutor& exec, bool* shutdown_requested,
    const std::string& default_client, std::optional<Query>& query) {
  std::string error;
  const Json request = Json::parse(line, &error);
  if (!error.empty()) return error_line("bad JSON: " + error);
  if (!request.is_object()) return error_line("request must be an object");

  const std::string& op = request["op"].as_string();
  if (op == "ping") return ping_line();
  if (op == "stats") return stats_line(exec, request);
  if (op == "health") return health_line(exec);
  if (op == "trace") return trace_line(request);
  if (op == "events") return events_line();
  if (op == "cancel") {
    const Json& id = request["trace"];
    if (!id.is_string()) {
      return error_line("cancel: missing string field 'trace'");
    }
    const std::uint64_t trace_id = scope::parse_trace_id(id.as_string());
    if (trace_id == 0) {
      return error_line("cancel: 'trace' must be a nonzero hex64 id");
    }
    Json doc = Json::object();
    doc["ok"] = true;
    Json result = Json::object();
    result["cancelled"] = exec.cancel_trace(trace_id);
    doc["result"] = std::move(result);
    return doc.dump();
  }
  if (op == "drain") {
    // Shed new flights right away; the daemon (polling exec.draining())
    // then bounds the remaining in-flight work, snapshots the cache, and
    // exits.
    exec.begin_drain();
    Json doc = Json::object();
    doc["ok"] = true;
    Json result = Json::object();
    result["draining"] = true;
    doc["result"] = std::move(result);
    return doc.dump();
  }
  if (op == "shutdown") {
    if (shutdown_requested) *shutdown_requested = true;
    Json doc = Json::object();
    doc["ok"] = true;
    Json result = Json::object();
    result["stopping"] = shutdown_requested != nullptr;
    doc["result"] = std::move(result);
    return doc.dump();
  }

  query = query_from_json(request, &error);
  if (!query) return error_line(error);
  if (query->client.empty() && !default_client.empty()) {
    // Per-connection identity for the guard's fairness; truncated to the
    // wire field's own cap so a stamped identity obeys the same rules.
    query->client = default_client.substr(0, 64);
  }
  return std::nullopt;
}

}  // namespace

std::string handle_request_line(const std::string& line, QueryExecutor& exec,
                                bool* shutdown_requested,
                                const std::string& default_client) {
  std::optional<Query> query;
  if (auto answer = answer_unless_query(line, exec, shutdown_requested,
                                        default_client, query)) {
    return std::move(*answer);
  }
  return response_to_line(exec.execute(*query));
}

Server::LineHandler executor_line_handler(QueryExecutor& exec) {
  return [&exec](std::string line, const std::string& peer, Reactor&,
                 Server::Reply reply) {
    // The fast path first, as its own call: perfledger's protocol.fast_us
    // times exactly this function, so it must stay the daemon's real path.
    if (auto fast = try_handle_request_line_fast(line, exec)) {
      return reply(std::move(*fast));
    }
    bool shutdown = false;
    std::optional<Query> query;
    if (auto answer = answer_unless_query(line, exec, &shutdown,
                                          "peer:" + peer, query)) {
      return reply(std::move(*answer), shutdown);
    }
    exec.execute(*query, [reply](Response r) { reply(response_to_line(r)); });
  };
}

LineChannel::Status LineChannel::read_line_status(std::string& line,
                                                  std::size_t max_line) {
  line.clear();
  bool overlong = false;
  for (;;) {
    while (buffer_pos_ < buffer_.size()) {
      const char c = buffer_[buffer_pos_++];
      if (c == '\n') return overlong ? Status::kTooLong : Status::kOk;
      if (overlong) continue;  // discard the rest of the oversized line
      line += c;
      if (line.size() > max_line) {
        // Cap memory but keep consuming to the newline so the stream
        // resyncs and the caller can answer with a protocol error.
        line.clear();
        overlong = true;
      }
    }
    char chunk[4096];
    std::size_t want = sizeof(chunk);
    if (faults_ && faults_->on_io(want) == FaultInjector::IoFault::kDrop) {
      return Status::kError;
    }
    ssize_t got;
    do {
      got = ::read(fd_, chunk, want);
    } while (got < 0 && errno == EINTR);
    if (got == 0) {
      // Clean EOF only at a line boundary; mid-line it is a torn request.
      return line.empty() && !overlong ? Status::kEof : Status::kError;
    }
    if (got < 0) return Status::kError;
    buffer_.assign(chunk, static_cast<std::size_t>(got));
    buffer_pos_ = 0;
  }
}

bool LineChannel::write_line(const std::string& line) {
  std::string framed = line;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    std::size_t want = framed.size() - sent;
    if (faults_ && faults_->on_io(want) == FaultInjector::IoFault::kDrop) {
      return false;
    }
    // MSG_NOSIGNAL: a peer that reset the connection must surface as an
    // EPIPE error (retryable), not a process-killing SIGPIPE.  Non-socket
    // fds (pipes in tests) fall back to write().
    ssize_t wrote;
    do {
      wrote = ::send(fd_, framed.data() + sent, want, MSG_NOSIGNAL);
      if (wrote < 0 && errno == ENOTSOCK) {
        wrote = ::write(fd_, framed.data() + sent, want);
      }
    } while (wrote < 0 && errno == EINTR);
    if (wrote <= 0) return false;
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

}  // namespace netemu
