// The sharded epoll event loop behind Server (docs/SERVICE.md "I/O plane").
//
// Topology: one acceptor thread (blocking accept on the listener, so
// begin_drain keeps its close-the-listener semantics) hands each new
// connection — made non-blocking, TCP_NODELAY — to a reactor shard chosen
// round-robin.  Each shard owns its connections exclusively: a Reactor
// (edge-triggered epoll set, timers, end-of-turn work) and a Mailbox (an
// eventfd plus a locked inbox) through which the acceptor delivers fds and
// other threads deliver replies.  Nothing else ever touches a connection,
// so per-connection state needs no locks.
//
// Data path per connection:
//   read until EAGAIN -> incremental '\n' framing into a request queue ->
//   serve queue head: overlong lines answer protocol_error; every other
//   line goes to the LineHandler on the shard, which answers through a
//   Reply (server.hpp).  At most ONE request is in flight per connection —
//   the line protocol promises in-order responses; a reply carries a
//   per-request generation -> responses append to a coalesced output
//   buffer flushed until EAGAIN, with EPOLLOUT (edge) re-arming the flush.
//   A connection whose un-flushed output exceeds kMaxOutputBytes is a slow
//   consumer and is disconnected (counted) instead of growing the heap.
//
// Fault injection (chaos tests) fires on every non-blocking read/write:
// kDrop closes the connection, a clamped length makes a short read/write,
// injected sleeps stall the shard.
//
// This file also holds Server itself: the lifecycle flags and wait() live
// in Server, the sockets and threads in its EventLoop.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netemu/faultline/injector.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/reactor.hpp"
#include "netemu/service/server.hpp"

namespace netemu {

namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr int kListenBacklog = 256;
/// Per-connection pending-output cap: a consumer further behind than this
/// is disconnected (backpressure) instead of buffering unboundedly.
constexpr std::size_t kMaxOutputBytes = 8u << 20;

/// One reply on its way to a connection.
struct Completion {
  int fd = -1;
  std::uint64_t gen = 0;
  std::string response;
  bool shutdown = false;
};

/// The Mailbox of the shard whose loop runs on this thread (null on every
/// other thread): a Reply made there needs neither the lock nor a wake.
thread_local const void* t_shard_mailbox = nullptr;

scope::Gauge& connections_gauge() {
  static scope::Gauge& g = scope::Registry::global().gauge(
      "netemu_connections_open", "Live connections across all I/O shards");
  return g;
}

scope::Counter& backpressure_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_backpressure_disconnects_total",
      "Connections dropped because pending output exceeded the cap");
  return c;
}

scope::Histogram& request_us_hist() {
  static scope::Histogram& h = scope::Registry::global().histogram(
      "netemu_io_request_us",
      "Request-to-response latency on the I/O plane (framing to enqueue)");
  return h;
}

double micros_since(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - start)
      .count();
}

/// Bind + listen on 127.0.0.1:options.port, resolve the actual port into
/// *port.  Returns the listening fd, or -1 with *error / *errno_out
/// describing the failing syscall.
int listen_loopback(const Server::Options& options, std::uint16_t* port,
                    std::string* error, int* errno_out) {
  const auto fail = [&](int fd, const std::string& msg) {
    if (errno_out) *errno_out = errno;
    if (error) *error = msg + ": " + std::strerror(errno);
    if (fd >= 0) ::close(fd);
    return -1;
  };

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail(fd, "socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail(fd, "bind 127.0.0.1:" + std::to_string(options.port));
  }
  if (::listen(fd, kListenBacklog) < 0) return fail(fd, "listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return fail(fd, "getsockname");
  }
  *port = ntohs(addr.sin_port);
  if (error) error->clear();
  if (errno_out) *errno_out = 0;
  return fd;
}

/// Peer tag for a connected socket: "ip:port" via getpeername, or
/// "conn-<fd>" when the syscall fails (torn sockets).
std::string peer_tag(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
      addr.sin_family == AF_INET) {
    char ip[INET_ADDRSTRLEN] = {};
    if (::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip))) {
      return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
    }
  }
  return "conn-" + std::to_string(fd);
}

}  // namespace

/// A shard's cross-thread inbox.  Every Reply the shard hands out shares
/// it, so a reply that outlives the shard — or the Server — still finds a
/// live mailbox (and eventfd) to be dropped by.
struct Server::Mailbox {
  ~Mailbox() {
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void wake() {
    if (wake_pending.exchange(true, std::memory_order_acq_rel)) {
      return;  // an undrained wake is already in flight
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(wake_fd, &one, sizeof(one));  // EAGAIN (full) is fine
  }

  EventLoop* const loop;  ///< dereferenced only on the shard's own thread
  const std::size_t shard;
  const int wake_fd = ::eventfd(0, EFD_NONBLOCK);
  /// True while an eventfd wake is already pending and undrained —
  /// producers skip the redundant write syscall (connection storms post
  /// thousands of inbox items; one wakeup drains them all).
  std::atomic<bool> wake_pending{false};

  std::mutex mutex;
  bool closed = false;        ///< stopped: nothing reads this inbox again
  std::vector<int> incoming;  ///< fds from the acceptor
  std::vector<Completion> completions;  ///< replies from other threads
};

class Server::EventLoop {
 public:
  explicit EventLoop(Server& server)
      : server_(server), options_(server.options_) {}

  ~EventLoop() { stop(); }

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Bind + listen + spawn threads.  On failure: false, *error set (when
  /// non-null), *errno_out = failing syscall's errno.
  bool start(std::string* error, int* errno_out) {
    const int fd = listen_loopback(options_, &port_, error, errno_out);
    if (fd < 0) return false;
    listen_fd_.store(fd);
    stopping_.store(false);  // from here on, stop() owns cleanup

    std::size_t shards = options_.io_threads;
    if (shards == 0) {
      shards = std::max(1u, std::thread::hardware_concurrency());
    }
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      auto shard = std::make_unique<Shard>();
      shard->index = s;
      shard->reactor = std::make_unique<Reactor>();
      shard->mailbox = std::make_shared<Mailbox>(this, s);
      if (shard->reactor->fd() < 0 || shard->mailbox->wake_fd < 0) {
        if (errno_out) *errno_out = errno;
        if (error) {
          *error = std::string(shard->reactor->fd() < 0 ? "epoll_create1"
                                                        : "eventfd") +
                   ": " + std::strerror(errno);
        }
        shards_.push_back(std::move(shard));  // stop() closes the partial set
        stop();
        return false;
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = shard->mailbox->wake_fd;
      ::epoll_ctl(shard->reactor->fd(), EPOLL_CTL_ADD, shard->mailbox->wake_fd,
                  &ev);
      // Per-shard loop histogram: a hot or stalled shard (a fault-injected
      // sleep, a burst of fast-path answers) shows up as its own tail.
      shard->loop_us = &scope::Registry::global().histogram(
          "netemu_io_loop_us_shard" + std::to_string(s),
          "Event-loop iteration time (work, not epoll_wait idle) on shard " +
              std::to_string(s));
      shards_.push_back(std::move(shard));
    }

    stopping_.store(false);
    for (auto& shard : shards_) {
      Shard* s = shard.get();
      s->thread = std::thread([this, s] { shard_loop(*s); });
    }
    accept_thread_ = std::thread([this] { accept_loop(); });
    return true;
  }

  std::uint16_t port() const { return port_; }

  /// Close the listener only; live connections keep serving.  Idempotent.
  void begin_drain() {
    const int fd = listen_fd_.exchange(-1);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
  }

  /// Full stop: close everything, join every thread.  Idempotent.
  void stop() {
    if (stopping_.exchange(true)) return;
    begin_drain();  // close the listener; the acceptor exits
    if (accept_thread_.joinable()) accept_thread_.join();
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) {
        shard->mailbox->wake();  // stopping_ is set; the loop exits on wake
        shard->thread.join();
      }
    }
    for (auto& shard : shards_) {
      // Close the mailbox first: a reply from another thread (a compute
      // finishing now, or after the Server is gone) is dropped from here
      // on.  Accepted fds the shard never got to register close with it.
      std::vector<int> incoming;
      {
        std::lock_guard lock(shard->mailbox->mutex);
        shard->mailbox->closed = true;
        incoming.swap(shard->mailbox->incoming);
        shard->mailbox->completions.clear();
      }
      for (const int fd : incoming) ::close(fd);
      for (auto& [fd, conn] : shard->conns) {
        ::close(fd);
        connections_gauge().add(-1.0);
      }
      shard->conns.clear();
      // Last: handlers' state on the shard (backend connections, pending
      // replies) goes with its reactor.
      shard->reactor.reset();
    }
  }

  /// Server::Reply's delivery on the shard's own thread: inside the
  /// handler's own call the reply is taken in the same pass
  /// (process_requests picks it up); later, it lands at the end of the
  /// current turn.
  void reply_on_shard(std::size_t shard_index, Completion done) {
    Shard& shard = *shards_[shard_index];
    if (done.gen == shard.answering) {
      shard.answering = 0;
      shard.answered = std::move(done);
      return;
    }
    shard.reactor->post([this, &shard, done = std::move(done)]() mutable {
      on_completion(shard, done);
    });
  }

 private:
  /// One request framed out of the input buffer, waiting for its response.
  struct PendingRequest {
    std::string line;
    bool overlong = false;  ///< exceeded max_line; answers protocol_error
    SteadyClock::time_point framed_at;
  };

  struct Conn {
    std::string peer;       ///< "ip:port" tag (guard client identity)
    std::string in;         ///< unparsed input tail
    bool discarding = false;  ///< inside an overlong line, pre-newline
    std::deque<PendingRequest> requests;
    /// Generation of the request the handler is answering (0: none).  A
    /// completion lands only if it carries this generation, which guards
    /// against fd reuse and a second reply alike.
    std::uint64_t in_flight = 0;
    SteadyClock::time_point in_flight_framed_at;
    std::string out;            ///< coalesced responses
    std::size_t out_pos = 0;    ///< flushed prefix of `out`
    bool read_closed = false;   ///< peer half-closed (EOF seen)
    bool close_after_flush = false;
    bool shutdown_after_flush = false;  ///< handler requested server stop
  };

  struct Shard {
    std::size_t index = 0;
    std::unique_ptr<Reactor> reactor;
    std::shared_ptr<Mailbox> mailbox;
    std::thread thread;
    scope::Histogram* loop_us = nullptr;

    // Owned by the shard thread only (no locks): fd -> connection.
    // unique_ptr keeps Conn* stable across rehashes.
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    std::uint64_t next_gen = 1;  ///< request generations, shard-unique
    /// The request whose handler is running right now (0: none), and the
    /// reply it gave from inside its own call.
    std::uint64_t answering = 0;
    std::optional<Completion> answered;
  };

  void accept_loop() {
    constexpr auto kAcceptBackoff = std::chrono::milliseconds(10);
    std::size_t next_shard = 0;
    for (;;) {
      const int listen_fd = listen_fd_.load();
      if (listen_fd < 0) return;  // drain/stop closed the listener
      // accept4 delivers the fd already non-blocking: two fcntl syscalls
      // fewer per connection than accept + F_GETFL/F_SETFL, which a
      // connection storm turns into a measurable accept-rate difference.
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        // While the listener is open every failure is transient — a full
        // fd table (EMFILE/ENFILE), kernel memory, an aborted handshake.
        // Back off and retry: waiting clients sit in the kernel backlog
        // until an fd frees up, instead of never being answered.
        if (errno != EINTR && listen_fd_.load() >= 0) {
          std::this_thread::sleep_for(kAcceptBackoff);
        }
        continue;
      }
      if (stopping_.load()) {
        ::close(fd);
        return;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Shard& shard = *shards_[next_shard];
      next_shard = (next_shard + 1) % shards_.size();
      {
        std::lock_guard lock(shard.mailbox->mutex);
        shard.mailbox->incoming.push_back(fd);
      }
      shard.mailbox->wake();
    }
  }

  void shard_loop(Shard& shard) {
    constexpr int kMaxEvents = 128;
    epoll_event events[kMaxEvents];
    Reactor& reactor = *shard.reactor;
    t_shard_mailbox = shard.mailbox.get();
    while (!stopping_.load()) {
      const int n = ::epoll_wait(reactor.fd(), events, kMaxEvents,
                                 reactor.wait_timeout_ms(-1));
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epoll fd gone: shutting down
      }
      const auto t0 = SteadyClock::now();
      bool woken = false;
      // Socket events first, inbox last: a connection closed in this batch
      // frees its fd, and a new accept may reuse the number — registering
      // newcomers after all socket events keeps stale events from aliasing
      // onto them (completions are additionally generation-checked).
      // Handlers' own fds (backend connections) go to the reactor.
      for (int i = 0; i < n; ++i) {
        if (reactor.dispatch(events[i])) continue;
        if (events[i].data.fd == shard.mailbox->wake_fd) {
          woken = true;
          continue;
        }
        on_socket_event(shard, events[i].data.fd, events[i].events);
      }
      if (woken) drain_inbox(shard);
      // Due timers, then deferred work — handlers' replies among it.
      reactor.run_due();
      shard.loop_us->observe(micros_since(t0));
    }
    t_shard_mailbox = nullptr;
  }

  void drain_inbox(Shard& shard) {
    Mailbox& box = *shard.mailbox;
    std::uint64_t drained = 0;
    [[maybe_unused]] ssize_t r = ::read(box.wake_fd, &drained, sizeof(drained));
    // Clear BEFORE swapping: a producer that enqueues after the swap must
    // see the flag down and raise a fresh wake; one that enqueued before it
    // is picked up by this very swap, so its skipped write loses nothing.
    box.wake_pending.store(false, std::memory_order_release);
    std::vector<int> incoming;
    std::vector<Completion> completions;
    {
      std::lock_guard lock(box.mutex);
      incoming.swap(box.incoming);
      completions.swap(box.completions);
    }
    for (Completion& c : completions) on_completion(shard, c);
    for (const int fd : incoming) register_conn(shard, fd);
  }

  void register_conn(Shard& shard, int fd) {
    auto conn = std::make_unique<Conn>();
    conn->peer = peer_tag(fd);
    Conn* c = conn.get();
    shard.conns.emplace(fd, std::move(conn));
    epoll_event ev{};
    // Registered once with both directions, edge-triggered: EPOLLOUT edges
    // only fire after a full->writable transition, which is exactly when a
    // flush stopped on EAGAIN needs re-arming; no EPOLL_CTL_MOD per write.
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(shard.reactor->fd(), EPOLL_CTL_ADD, fd, &ev) < 0) {
      shard.conns.erase(fd);
      ::close(fd);
      return;
    }
    connections_gauge().add(1.0);
    // The client may have written before we registered; with ET that edge
    // is already behind us, so poll the socket once by hand.
    on_readable(shard, fd, *c);
  }

  void on_socket_event(Shard& shard, int fd, std::uint32_t ev) {
    const auto it = shard.conns.find(fd);
    if (it == shard.conns.end()) return;  // closed earlier in this batch
    Conn& conn = *it->second;
    if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
      const bool hangup = (ev & (EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0;
      if (!on_readable(shard, fd, conn, hangup)) return;  // closed
    }
    if (ev & EPOLLOUT) {
      if (!try_flush(shard, fd, conn)) return;
    }
    finish_if_done(shard, fd, conn);
  }

  /// Read until EAGAIN, frame complete lines, serve what can be served.
  /// `hangup`: the event reported the peer's close.  False when the
  /// connection was closed.
  bool on_readable(Shard& shard, int fd, Conn& conn, bool hangup = false) {
    char chunk[16384];
    for (;;) {
      std::size_t want = sizeof(chunk);
      if (options_.faults &&
          options_.faults->on_io(want) == FaultInjector::IoFault::kDrop) {
        close_conn(shard, fd);
        return false;
      }
      ssize_t got;
      do {
        got = ::read(fd, chunk, want);
      } while (got < 0 && errno == EINTR);
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(shard, fd);
        return false;
      }
      if (got == 0) {
        conn.read_closed = true;
        break;
      }
      conn.in.append(chunk, static_cast<std::size_t>(got));
      // A short read drained the socket — unless the same edge reported
      // the peer's close: then read on to the EOF, because no later edge
      // will report it and the half-closed connection would never close.
      if (static_cast<std::size_t>(got) < want && !hangup) break;
    }
    frame_lines(conn);
    if (conn.read_closed) {
      // Half-close: answer every complete pipelined request, then close.
      // A partial trailing line is a torn request and gets no response.
      conn.in.clear();
      conn.close_after_flush = true;
    }
    if (!process_requests(shard, fd, conn)) return false;
    if (!try_flush(shard, fd, conn)) return false;
    return finish_if_done(shard, fd, conn);
  }

  /// Split `conn.in` into complete request lines (handling overlong-line
  /// discard mode) and queue them for processing.
  void frame_lines(Conn& conn) {
    std::size_t pos = 0;
    const std::string& in = conn.in;
    for (;;) {
      const std::size_t nl = in.find('\n', pos);
      if (nl == std::string::npos) break;
      if (conn.discarding) {
        // Tail of a line that already blew the cap: drop it, answer.
        conn.discarding = false;
        conn.requests.push_back(
            {std::string(), /*overlong=*/true, SteadyClock::now()});
      } else if (nl - pos > options_.max_line) {
        conn.requests.push_back(
            {std::string(), /*overlong=*/true, SteadyClock::now()});
      } else {
        conn.requests.push_back({in.substr(pos, nl - pos), false,
                                 SteadyClock::now()});
      }
      pos = nl + 1;
    }
    if (pos > 0) conn.in.erase(0, pos);
    // Cap memory on a newline-free firehose: drop the buffered prefix and
    // remember to answer protocol_error once the newline finally arrives.
    // In discard mode the whole remaining tail is pre-newline overlong
    // content, so it never needs buffering at all.
    if (conn.discarding) {
      conn.in.clear();
    } else if (conn.in.size() > options_.max_line) {
      conn.in.clear();
      conn.discarding = true;
    }
  }

  /// Serve queued requests in order.  Stops at the first request whose
  /// reply does not come inside the handler's own call (one in flight per
  /// connection keeps responses ordered).  False when the connection was
  /// closed.
  bool process_requests(Shard& shard, int fd, Conn& conn) {
    // Flush threshold inside a pipelined burst: keeps a long run of inline
    // answers from accumulating into one giant buffer (and from tripping
    // the slow-consumer cap when the peer is in fact keeping up).
    constexpr std::size_t kFlushChunk = 256u << 10;
    while (conn.in_flight == 0 && !conn.requests.empty()) {
      if (conn.out.size() - conn.out_pos >= kFlushChunk) {
        if (!try_flush(shard, fd, conn)) return false;
        if (conn.out.size() - conn.out_pos > kMaxOutputBytes) {
          backpressure_counter().inc();
          close_conn(shard, fd);
          return false;
        }
      }
      PendingRequest& req = conn.requests.front();
      if (req.overlong) {
        const bool ok = enqueue_response(
            shard, fd, conn,
            protocol_error_line("request line exceeds " +
                                std::to_string(options_.max_line) + " bytes"),
            req.framed_at);
        if (!ok) return false;
        conn.requests.pop_front();
        continue;
      }
      const std::uint64_t gen = shard.next_gen++;
      conn.in_flight = gen;
      conn.in_flight_framed_at = req.framed_at;
      std::string line = std::move(req.line);
      conn.requests.pop_front();
      shard.answering = gen;
      server_.handler_(std::move(line), conn.peer, *shard.reactor,
                       Reply(shard.mailbox, fd, gen));
      shard.answering = 0;
      if (!shard.answered) break;  // the reply comes later
      Completion done = std::move(*shard.answered);
      shard.answered.reset();
      if (!take_reply(shard, fd, conn, done)) return false;
    }
    return true;
  }

  void on_completion(Shard& shard, Completion& done) {
    const auto it = shard.conns.find(done.fd);
    if (it == shard.conns.end() || it->second->in_flight != done.gen) {
      return;  // connection closed (or fd reused) while the handler ran
    }
    Conn& conn = *it->second;
    if (!take_reply(shard, done.fd, conn, done)) return;
    if (!process_requests(shard, done.fd, conn)) return;
    if (!try_flush(shard, done.fd, conn)) return;
    finish_if_done(shard, done.fd, conn);
  }

  /// Answer the connection's in-flight request.  False when the
  /// connection was closed.
  bool take_reply(Shard& shard, int fd, Conn& conn, Completion& done) {
    conn.in_flight = 0;
    if (done.shutdown) {
      // Deliver the shutdown ack, then close the connection and stop the
      // server.
      conn.shutdown_after_flush = true;
      conn.close_after_flush = true;
    }
    return enqueue_response(shard, fd, conn, std::move(done.response),
                            conn.in_flight_framed_at);
  }

  /// Append one framed response to the output buffer, enforcing the
  /// slow-consumer cap.  False when the connection was closed.
  bool enqueue_response(Shard& shard, int fd, Conn& conn,
                        std::string response,
                        SteadyClock::time_point framed_at) {
    request_us_hist().observe(micros_since(framed_at));
    conn.out += response;
    conn.out += '\n';
    if (conn.out.size() - conn.out_pos > kMaxOutputBytes) {
      backpressure_counter().inc();
      close_conn(shard, fd);
      return false;
    }
    return true;
  }

  /// Write pending output until EAGAIN or empty.  False when the
  /// connection was closed.
  bool try_flush(Shard& shard, int fd, Conn& conn) {
    while (conn.out_pos < conn.out.size()) {
      std::size_t want = conn.out.size() - conn.out_pos;
      if (options_.faults &&
          options_.faults->on_io(want) == FaultInjector::IoFault::kDrop) {
        close_conn(shard, fd);
        return false;
      }
      ssize_t wrote;
      do {
        wrote = ::send(fd, conn.out.data() + conn.out_pos, want,
                       MSG_NOSIGNAL);
      } while (wrote < 0 && errno == EINTR);
      if (wrote < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return true;  // EPOLLOUT re-arms the flush
        }
        close_conn(shard, fd);
        return false;
      }
      conn.out_pos += static_cast<std::size_t>(wrote);
    }
    conn.out.clear();
    conn.out_pos = 0;
    return true;
  }

  /// Close-after-flush / shutdown-after-flush bookkeeping once the output
  /// buffer is empty.  False when the connection was closed.
  bool finish_if_done(Shard& shard, int fd, Conn& conn) {
    if (conn.out_pos < conn.out.size()) return true;  // still flushing
    if (conn.in_flight != 0 || !conn.requests.empty()) return true;
    if (conn.shutdown_after_flush) {
      conn.shutdown_after_flush = false;
      close_conn(shard, fd);
      server_.request_stop();
      return false;
    }
    if (conn.close_after_flush) {
      close_conn(shard, fd);
      return false;
    }
    return true;
  }

  void close_conn(Shard& shard, int fd) {
    const auto it = shard.conns.find(fd);
    if (it == shard.conns.end()) return;
    shard.conns.erase(it);  // epoll deregisters on close
    ::close(fd);
    connections_gauge().add(-1.0);
  }

  Server& server_;
  const Server::Options& options_;
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{true};
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

Server::Server(LineHandler handler, Options options)
    : handler_(std::move(handler)), options_(std::move(options)) {}

Server::~Server() { stop(); }

void Server::Reply::operator()(std::string response, bool shutdown) const {
  Mailbox& box = *mailbox_;
  if (t_shard_mailbox == &box) {
    // On the shard's own thread, so its loop is alive: no lock, no wake.
    box.loop->reply_on_shard(box.shard,
                             {fd_, gen_, std::move(response), shutdown});
    return;
  }
  {
    std::lock_guard lock(box.mutex);
    if (box.closed) return;  // stopped: no shard reads this inbox again
    box.completions.push_back({fd_, gen_, std::move(response), shutdown});
  }
  box.wake();
}

bool Server::start(std::string* error) {
  last_errno_ = 0;
  {
    std::lock_guard lock(mutex_);
    stop_requested_ = false;
    stopped_ = false;
  }
  loop_ = std::make_unique<EventLoop>(*this);
  if (!loop_->start(error, &last_errno_)) {
    loop_.reset();
    std::lock_guard lock(mutex_);
    stopped_ = true;
    return false;
  }
  port_ = loop_->port();
  return true;
}

void Server::request_stop() {
  {
    std::lock_guard lock(mutex_);
    if (stop_requested_) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void Server::begin_drain() {
  if (loop_) loop_->begin_drain();
}

void Server::wait() {
  {
    std::unique_lock lock(mutex_);
    stop_cv_.wait(lock, [this] { return stop_requested_ || stopped_; });
  }
  stop();
}

void Server::stop() {
  request_stop();
  {
    std::lock_guard lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  if (loop_) loop_->stop();
  stop_cv_.notify_all();
}

bool Server::running() const {
  std::lock_guard lock(mutex_);
  return !stopped_ && !stop_requested_;
}

}  // namespace netemu
