#pragma once
// The planner daemon: a localhost TCP listener speaking the line protocol,
// served by a sharded epoll event loop (event_loop.cpp; docs/SERVICE.md
// "I/O plane").
//
// The listener is decoupled from what answers the lines: every line goes to
// one LineHandler on the reactor shard that framed it (netemu_serve's is
// executor_line_handler, protocol.hpp; the fleet front door's races each
// line over backend connections).
//
// One acceptor distributes non-blocking connections round-robin across
// `io_threads` reactor shards; each shard owns its fds with edge-triggered
// epoll and frames request lines incrementally from per-connection
// buffers.  A handler answers through a Reply, now or later, from any
// thread; one request per connection is in flight at a time.  Responses
// are coalesced into a per-connection output buffer bounded at 8 MiB — a
// consumer that falls further behind than that is disconnected instead of
// growing the heap.  Thousands of mostly-idle connections cost two buffers
// each, not a kernel thread each.
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

namespace netemu {

class FaultInjector;
class Reactor;

class Server {
  class EventLoop;  // event_loop.cpp
  struct Mailbox;   // event_loop.cpp: a shard's cross-thread inbox

 public:
  /// Answers one request: call it exactly once, from any thread, with the
  /// response line (no trailing newline).  `shutdown` stops the server
  /// after the response flushes.  A reply inside the handler's own call is
  /// written in the same pass; a later one on the shard is posted to its
  /// reactor; one from another thread goes through the shard's inbox.  A
  /// reply for a connection that closed meanwhile, or one that arrives
  /// after stop() or after the Server is gone, is dropped.
  class Reply {
   public:
    void operator()(std::string response, bool shutdown = false) const;

   private:
    friend class EventLoop;
    Reply(std::shared_ptr<Mailbox> mailbox, int fd, std::uint64_t gen)
        : mailbox_(std::move(mailbox)), fd_(fd), gen_(gen) {}
    std::shared_ptr<Mailbox> mailbox_;
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
    std::size_t max_line = 1 << 20;  ///< request line cap (protocol_error)
    /// Fault injector applied to every connection's socket I/O (chaos
    /// testing).  Not owned; must outlive the server.  nullptr disables.
    FaultInjector* faults = nullptr;
    /// Reactor shards; 0 = hardware threads.
    std::size_t io_threads = 0;
  };

  /// Serve `handler` on the reactor shards.
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

  /// Runs every line on its shard.
  LineHandler handler_;
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
