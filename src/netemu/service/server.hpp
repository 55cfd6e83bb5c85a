#pragma once
// The planner daemon: a localhost TCP listener speaking the line protocol,
// served by a sharded epoll event loop (event_loop.cpp; docs/SERVICE.md
// "I/O plane").
//
// The listener is decoupled from what answers the lines: the executor
// constructor serves a QueryExecutor (handle_request_line), the handler
// constructor runs any LineHandler on the reactor shards — the fleet front
// door races each line over backend connections from the shard itself.
//
// One acceptor distributes non-blocking connections round-robin across
// `io_threads` reactor shards; each shard owns its fds with edge-triggered
// epoll and frames request lines incrementally from per-connection
// buffers.  Over an executor it serves the fast path (ping, cache hits)
// inline and offloads everything else to a bounded handler pool whose
// completions are posted back to the owning shard through an eventfd.  A
// LineHandler runs on the shard and answers through a Reply, now or later
// (watching other fds and arming timers on the shard's Reactor in
// between).  Either way one request per connection is in flight at a
// time.  Responses are coalesced into a per-connection output buffer
// bounded by `max_output_bytes` — a consumer that falls further behind
// than that is disconnected instead of growing the heap.  Thousands of
// mostly-idle connections cost two buffers each, not a kernel thread each.
//
// Lifecycle: start() binds and spawns, begin_drain() closes only the
// listener (live connections still get their responses), stop() shuts
// everything down and joins, and a shutdown op (a Reply with `shutdown`
// set) stops the server after its response flushes.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "netemu/service/executor.hpp"

namespace netemu {

class FaultInjector;
class Reactor;

class Server {
  class EventLoop;  // event_loop.cpp

 public:
  /// Answers one request: call it exactly once, on the shard's reactor
  /// (inside the handler or from a later callback there), with the
  /// response line (no trailing newline).  `shutdown` stops the server
  /// after the response flushes.  A reply for a connection that closed
  /// meanwhile is dropped.
  class Reply {
   public:
    void operator()(std::string response, bool shutdown = false) const;

   private:
    friend class EventLoop;
    Reply(EventLoop* loop, std::size_t shard, int fd, std::uint64_t gen)
        : loop_(loop), shard_(shard), fd_(fd), gen_(gen) {}
    EventLoop* loop_;
    std::size_t shard_;
    int fd_;
    std::uint64_t gen_;
  };

  /// Handle one request line on the shard that framed it.  `peer` is the
  /// connection's peer tag ("ip:port" from getpeername, "conn-<fd>" when
  /// that fails) — a stable per-connection identity handlers stamp onto
  /// queries that carry no "client" field, so guard fairness can tell
  /// callers apart without client cooperation.  The handler must not
  /// block: it answers through `reply`, and waits for anything else with
  /// `reactor` (watched fds, timers).
  using LineHandler =
      std::function<void(std::string line, const std::string& peer,
                         Reactor& reactor, Reply reply)>;

  struct Options {
    std::uint16_t port = 7464;  ///< 0 = ephemeral (see port() after start)
    int backlog = 256;
    std::size_t max_line = 1 << 20;  ///< request line cap (protocol_error)
    /// Fault injector applied to every connection's socket I/O (chaos
    /// testing).  Not owned; must outlive the server.  nullptr disables.
    FaultInjector* faults = nullptr;
    /// Reactor shards; 0 = hardware threads.
    std::size_t io_threads = 0;
    /// Threads running handle_request_line for every request the
    /// executor's fast path did not answer; 0 = max(8, 2 x hardware
    /// threads).  The executor's admission queue bounds real concurrency.
    /// A server over a LineHandler runs no such pool.
    std::size_t offload_threads = 0;
    /// Per-connection pending-output cap; a consumer further behind than
    /// this is disconnected (backpressure) instead of buffering unboundedly.
    std::size_t max_output_bytes = 8u << 20;
  };

  explicit Server(QueryExecutor& executor);  // all-default Options
  /// Serve an executor: ping and cache hits answer inline on the reactor
  /// shard, everything else runs handle_request_line on the offload pool
  /// with the connection's peer stamped as the default guard client.
  Server(QueryExecutor& executor, Options options);
  /// Serve a handler on the reactor shards (the fleet front door).
  Server(LineHandler handler, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the event loop.  False + *error on failure;
  /// last_errno() then holds the failing syscall's errno so callers can
  /// print actionable messages (EADDRINUSE: port taken).
  bool start(std::string* error = nullptr);

  /// errno of the syscall that failed the last start() (0 on success).
  int last_errno() const { return last_errno_; }

  /// Actual bound port (resolves port 0).
  std::uint16_t port() const { return port_; }

  /// Block until a client sends {"op":"shutdown"} or another thread calls
  /// stop().  Returns after the server is fully stopped.
  void wait();

  /// Idempotent full stop: close listener and connections, join threads.
  void stop();

  /// Drain: close the listener (no new connections) but leave every live
  /// connection untouched so in-flight responses are still delivered and
  /// late requests on open connections get their shed/answer.  Idempotent;
  /// follow with stop() once the drain budget elapses (docs/LIFECYCLE.md).
  void begin_drain();

  bool running() const;

 private:
  void request_stop();

  /// Set by the handler constructor: runs every line on its shard.
  LineHandler handler_;
  /// Set by the executor constructor: the reactor shards answer what
  /// try_handle_request_line_fast can (it never blocks) and offload the
  /// rest to handle_request_line.
  QueryExecutor* executor_ = nullptr;
  Options options_;
  std::unique_ptr<EventLoop> loop_;
  std::uint16_t port_ = 0;
  int last_errno_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool stopped_ = true;
};

}  // namespace netemu
