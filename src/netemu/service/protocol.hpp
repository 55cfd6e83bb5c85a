#pragma once
// Wire protocol: line-delimited JSON over a stream socket.
//
//   request-line  = JSON object, one line, '\n' terminated
//   response-line = JSON object, one line, '\n' terminated
//
// Request ops: the four query kinds ("bandwidth", "estimate", "max_host",
// "bounds" — see query.hpp for their fields) plus the control ops:
//   {"op":"ping"}      -> {"ok":true,"result":{"pong":true}}
//   {"op":"stats"}     -> executor + cache counters + scope registry
//                         snapshot; with "format":"prometheus" the result is
//                         {"format":"prometheus","text":"<exposition>"}
//   {"op":"health"}    -> pool / cache / shed / flight status report
//   {"op":"trace","id":"<hex64>"} -> span set recorded for that trace id
//                         (see scope/trace.hpp for the span catalog)
//   {"op":"events"}    -> recent flight-recorder events (postmortem ring)
//   {"op":"cancel","trace":"<hex64>"} -> fire the CancelSource of the flight
//                         carrying that trace id (hedge losers; impatient
//                         clients).  Declined — {"cancelled":false} — when no
//                         such flight exists or other waiters share it.
//   {"op":"drain"}     -> enter drain mode: the executor sheds new flights
//                         ("overloaded: draining"), running work finishes or
//                         is cancelled by the daemon's drain budget, then the
//                         daemon snapshots its cache and exits cleanly
//                         (docs/LIFECYCLE.md; SIGTERM does the same)
//   {"op":"shutdown"}  -> ack, then the daemon stops accepting
//
// Every response carries "ok"; successes carry "result", "cache_hit" and
// "micros" (plus "stale":true when served from cache after a recompute
// failure); failures carry "error" (plus "overloaded":true and
// "retry_after_ms" when shed by admission control).  Query requests may
// carry "trace":"<hex64>" — a scope trace id minted by the client (or by
// netemu_fleet on their behalf); it is echoed back on the response and spans
// recorded under it are retrievable via the trace op.  One connection may
// issue any number of requests; responses come back in request order.  A
// request line over the size cap gets a "protocol_error" response and the
// connection stays usable (the overlong line is discarded).

#include <cstdint>
#include <optional>
#include <string>

#include "netemu/service/executor.hpp"
#include "netemu/service/server.hpp"

namespace netemu {

class FaultInjector;

/// Reactor-inline fast path: answer `line` only when it needs no executor
/// lock — ping, malformed requests, and plain cache hits (via
/// QueryExecutor::try_cached).  Everything else — control ops, cache
/// misses, refresh queries — returns nullopt, and executor_line_handler
/// answers it on the shard or through the executor's callback form.  For
/// lines this function does answer, the response is byte-compatible with
/// handle_request_line's.
std::optional<std::string> try_handle_request_line_fast(
    const std::string& line, QueryExecutor& exec);

/// The daemon's line handler over an executor: the fast path first, then
/// the control ops on the shard, and every query through
/// QueryExecutor::execute(q, done) with "peer:<peer>" stamped as its
/// default client.  Nothing it does blocks the shard; the reply comes from
/// the shard, a pool worker or the executor's watchdog thread.
Server::LineHandler executor_line_handler(QueryExecutor& exec);

/// Handle one request line (without trailing newline) against an executor.
/// Returns the response line (without trailing newline).  If the request is
/// a shutdown op and `shutdown_requested` is non-null, sets it.  A drain op
/// puts the executor into drain mode immediately; the daemon sees
/// exec.draining() and runs its bounded drain sequence.
/// `default_client` is stamped onto query ops that carry no "client" field
/// (servers pass the connection's peer address), so the guard's per-client
/// fairness sees a stable identity even for clients that never set one.
std::string handle_request_line(const std::string& line, QueryExecutor& exec,
                                bool* shutdown_requested = nullptr,
                                const std::string& default_client = {});

/// Serialize a Response into the response document text.  `result` is
/// spliced in verbatim (it is already JSON), so the cached fast path never
/// reparses.
std::string response_to_line(const Response& r);

/// The response the server writes for an overlong request line.
std::string protocol_error_line(const std::string& message);

/// Buffered line IO over a file descriptor (socket or pipe).
class LineChannel {
 public:
  enum class Status {
    kOk,       ///< a complete line was read
    kEof,      ///< peer closed cleanly (0-byte read at a line boundary)
    kError,    ///< transport error (or injected connection drop)
    kTooLong,  ///< line exceeded max_line; discarded up to its newline
  };

  explicit LineChannel(int fd) : fd_(fd) {}

  /// Read up to and including the next '\n'; returns the line without it.
  /// Loops on EINTR and partial reads.  On kTooLong the rest of the
  /// offending line has been discarded, so the stream stays in sync and
  /// the caller may answer with protocol_error_line() and keep reading.
  Status read_line_status(std::string& line, std::size_t max_line = 1 << 20);

  /// Convenience wrapper: true only on Status::kOk.
  bool read_line(std::string& line, std::size_t max_line = 1 << 20) {
    return read_line_status(line, max_line) == Status::kOk;
  }

  /// Write line + '\n', looping on EINTR and short writes.  False on error.
  bool write_line(const std::string& line);

  /// Route this channel's reads/writes through a fault injector (chaos
  /// testing).  Not owned; must outlive the channel.  nullptr disables.
  void set_fault_injector(FaultInjector* injector) { faults_ = injector; }

  int fd() const { return fd_; }

 private:
  int fd_;
  FaultInjector* faults_ = nullptr;
  std::string buffer_;
  std::size_t buffer_pos_ = 0;
};

}  // namespace netemu
