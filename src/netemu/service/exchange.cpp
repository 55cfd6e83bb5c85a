#include "netemu/service/exchange.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "netemu/faultline/injector.hpp"

namespace netemu {

namespace {

using Clock = Reactor::Clock;

/// Longest response line accepted (LineChannel's default cap).
constexpr std::size_t kMaxResponse = 1 << 20;

const char* const kTransportError = "transport failure (daemon gone?)";

}  // namespace

struct ExchangePool::Conn final : Reactor::Watcher {
  Conn(ExchangePool& owner, std::uint16_t to, int socket_fd)
      : pool(owner), port(to), fd(socket_fd) {}
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void on_event(std::uint32_t events) override {
    pool.on_conn_event(*this, events);
  }

  ExchangePool& pool;
  std::uint16_t port;
  int fd;
  bool connecting = false;
  Exchange* ex = nullptr;  ///< the exchange in flight; null while idle
  std::string out;         ///< request bytes not yet written
  std::size_t out_pos = 0;
  std::string in;          ///< response bytes read so far
};

struct ExchangePool::Exchange {
  std::uint64_t id = 0;
  std::uint16_t port = 0;
  std::string line;  ///< the request line with its '\n'
  std::uint64_t budget_ms = 0;
  Clock::time_point started;
  int attempt = 0;
  Conn* conn = nullptr;
  Reactor::Timer timer;   ///< the attempt's timeout, or the backoff
  bool sent = false;      ///< this attempt's line is fully written
  bool finished = false;  ///< the outcome is decided; done is posted
  Client::RequestOutcome out;
  Done done;

  std::uint64_t remaining_ms() const {
    const auto spent = std::chrono::duration_cast<std::chrono::milliseconds>(
                           Clock::now() - started)
                           .count();
    const auto spent_ms =
        static_cast<std::uint64_t>(std::max<long long>(0, spent));
    return spent_ms >= budget_ms ? 0 : budget_ms - spent_ms;
  }
};

ExchangePool::ExchangePool(Reactor& reactor, Client::RetryPolicy policy,
                           std::size_t idle_per_port,
                           scope::Gauge* open_connections)
    : reactor_(reactor),
      policy_(policy),
      idle_per_port_(idle_per_port),
      open_connections_(open_connections),
      jitter_(policy.jitter_seed != 0
                  ? policy.jitter_seed
                  : reinterpret_cast<std::uintptr_t>(this) ^
                        0x9E3779B97F4A7C15ULL) {
  if (policy_.max_attempts < 1) policy_.max_attempts = 1;
}

ExchangePool::~ExchangePool() {
  for (auto& [id, ex] : live_) reactor_.disarm(ex->timer);
  for (auto& [raw, conn] : conns_) {
    reactor_.unwatch(conn->fd);
    ::close(conn->fd);
    if (open_connections_) open_connections_->add(-1.0);
  }
}

void ExchangePool::start(std::uint16_t port, std::string line,
                         std::uint64_t budget_ms, Done done) {
  auto owned = std::make_unique<Exchange>();
  Exchange& ex = *owned;
  ex.id = next_id_++;
  ex.port = port;
  ex.line = std::move(line);
  ex.line += '\n';
  ex.budget_ms = budget_ms;
  ex.started = Clock::now();
  ex.done = std::move(done);
  ex.out.error = "not connected";
  ex.out.failure = RequestFailure::kTransport;
  live_.emplace(ex.id, std::move(owned));
  begin_attempt(ex);
}

std::size_t ExchangePool::unsent() const {
  std::size_t n = 0;
  for (const auto& [id, ex] : live_) n += !ex->finished && !ex->sent;
  return n;
}

void ExchangePool::begin_attempt(Exchange& ex) {
  ex.out.attempts = ++ex.attempt;
  ex.out.doc.reset();  // a shed being retried
  ex.sent = false;
  Conn* conn = nullptr;
  std::vector<Conn*>& idle = idle_[ex.port];
  if (!idle.empty()) {
    conn = idle.back();
    idle.pop_back();
  } else {
    int err = 0;
    conn = open(ex.port, &err);
    if (conn == nullptr) {
      ex.out.error = "connect 127.0.0.1:" + std::to_string(ex.port) + ": " +
                     std::strerror(err);
      if (err == ECONNREFUSED) {
        // The backend process is gone: another attempt would be refused
        // too, and a backoff only delays the caller's failover.
        ex.out.failure = RequestFailure::kConnectRefused;
        finish(ex);
      } else {
        ex.out.failure = RequestFailure::kTransport;
        retry_after(ex);
      }
      return;
    }
  }

  // The attempt's bound: the policy's timeout, capped by what is left of
  // the deadline budget (at least 1 ms, so a spent budget still times out).
  std::uint64_t timeout_ms = policy_.attempt_timeout_ms;
  if (ex.budget_ms > 0) {
    std::uint64_t cap = std::max<std::uint64_t>(ex.remaining_ms(), 1);
    if (timeout_ms > 0) cap = std::min(cap, timeout_ms);
    timeout_ms = cap;
  }
  if (timeout_ms > 0) {
    const std::uint64_t id = ex.id;
    ex.timer = reactor_.arm(std::chrono::milliseconds(timeout_ms),
                            [this, id, timeout_ms] {
                              const auto it = live_.find(id);
                              if (it == live_.end()) return;
                              it->second->timer = Reactor::Timer{};
                              on_timeout(*it->second, timeout_ms);
                            });
  }
  conn->ex = &ex;
  ex.conn = conn;
  conn->out = ex.line;
  conn->out_pos = 0;
  if (!conn->connecting && !flush(*conn)) {
    fail_attempt(*conn, RequestFailure::kTransport, kTransportError);
  }
}

void ExchangePool::retry_after(Exchange& ex, std::uint64_t hint_ms) {
  if (ex.attempt >= policy_.max_attempts) {
    finish(ex);
    return;
  }
  std::uint64_t cap = 0;
  if (ex.budget_ms > 0) {
    cap = ex.remaining_ms();
    if (cap == 0) {
      if (!ex.out.doc) ex.out.error += " (deadline budget exhausted)";
      finish(ex);
      return;
    }
  }
  // Exponential from the base (or the shed's hint), capped, plus up to 50%
  // jitter so a herd of retrying callers decorrelates; the deadline budget
  // wins over all of it.
  std::uint64_t ms = hint_ms;
  if (ms == 0) {
    ms = policy_.base_backoff_ms;
    for (int i = 0; i < ex.attempt - 1 && ms < policy_.max_backoff_ms; ++i) {
      ms *= 2;
    }
  }
  ms = std::min<std::uint64_t>(ms, policy_.max_backoff_ms);
  if (ms > 0) ms += jitter_.below(ms / 2 + 1);
  if (cap > 0) ms = std::min(ms, cap);
  const std::uint64_t id = ex.id;
  ex.timer = reactor_.arm(std::chrono::milliseconds(ms), [this, id] {
    const auto it = live_.find(id);
    if (it == live_.end()) return;
    it->second->timer = Reactor::Timer{};
    begin_attempt(*it->second);
  });
}

void ExchangePool::finish(Exchange& ex) {
  ex.finished = true;
  reactor_.disarm(ex.timer);
  const std::uint64_t id = ex.id;
  reactor_.post([this, id] {
    const auto it = live_.find(id);
    if (it == live_.end()) return;
    std::unique_ptr<Exchange> owned = std::move(it->second);
    live_.erase(it);
    owned->done(std::move(owned->out));
  });
}

void ExchangePool::on_conn_event(Conn& conn, std::uint32_t events) {
  if (conn.connecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      err = errno;
    }
    if (err != 0) {
      fail_attempt(conn,
                   err == ECONNREFUSED ? RequestFailure::kConnectRefused
                                       : RequestFailure::kTransport,
                   "connect 127.0.0.1:" + std::to_string(conn.port) + ": " +
                       std::strerror(err));
      return;
    }
    conn.connecting = false;
    events |= EPOLLOUT;  // write what was queued while connecting
  }
  if ((events & EPOLLOUT) && conn.ex != nullptr && !flush(conn)) {
    fail_attempt(conn, RequestFailure::kTransport, kTransportError);
    return;
  }
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) == 0) return;

  const bool hangup = (events & (EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0;
  bool eof = false;
  char chunk[16384];
  for (;;) {
    std::size_t want = sizeof(chunk);
    if (faults_ != nullptr &&
        faults_->on_io(want) == FaultInjector::IoFault::kDrop) {
      fail_attempt(conn, RequestFailure::kTransport, kTransportError);
      return;
    }
    const ssize_t got = ::read(conn.fd, chunk, want);
    if (got > 0) {
      conn.in.append(chunk, static_cast<std::size_t>(got));
      // A read short of `want` drained the socket (a short `want` did not:
      // the edge will not report the rest); keep reading only to see the
      // EOF a hang-up promises.
      if (static_cast<std::size_t>(got) < want && !hangup) break;
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    eof = true;  // orderly EOF or a reset
    break;
  }

  const std::size_t nl = conn.in.find('\n');
  if (nl != std::string::npos && conn.ex != nullptr) {
    std::string line = conn.in.substr(0, nl);
    conn.in.erase(0, nl + 1);
    on_response(conn, std::move(line), !eof && conn.in.empty());
    return;
  }
  if (conn.ex == nullptr) {
    // An idle connection has nothing to say: bytes or a hang-up on it end
    // it now rather than surprising the next exchange.
    if (eof || !conn.in.empty()) close(conn);
    return;
  }
  if (eof) {
    fail_attempt(conn, RequestFailure::kTransport, kTransportError);
  } else if (conn.in.size() > kMaxResponse) {
    fail_attempt(conn, RequestFailure::kTransport,
                 "response line exceeds " + std::to_string(kMaxResponse) +
                     " bytes");
  }
}

bool ExchangePool::flush(Conn& conn) {
  while (conn.out_pos < conn.out.size()) {
    std::size_t want = conn.out.size() - conn.out_pos;
    if (faults_ != nullptr &&
        faults_->on_io(want) == FaultInjector::IoFault::kDrop) {
      return false;
    }
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_pos, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;  // EPOLLOUT resumes
    }
    conn.out_pos += static_cast<std::size_t>(n);
  }
  conn.out.clear();
  conn.out_pos = 0;
  if (conn.ex != nullptr) conn.ex->sent = true;
  return true;
}

void ExchangePool::on_response(Conn& conn, std::string line, bool reusable) {
  Exchange& ex = *conn.ex;
  reactor_.disarm(ex.timer);
  conn.ex = nullptr;
  ex.conn = nullptr;
  std::string parse_error;
  Json doc = Json::parse(line, &parse_error);
  if (!parse_error.empty()) {
    // The stream may be desynced: retry on a fresh connection.
    close(conn);
    ex.out.error = "bad response: " + parse_error;
    ex.out.failure = RequestFailure::kProtocol;
    retry_after(ex);
    return;
  }
  if (reusable) {
    release(conn);
  } else {
    close(conn);
  }
  // A shed carries the backend's retry hint: with retry_overloaded the
  // exchange waits it out and asks again on the connection released above.
  // Otherwise, or with no retry left, the shed is the outcome and the
  // caller decides whether to fail it over.
  const Json& view = doc;  // reads must not insert null fields
  const bool shed = !view["ok"].as_bool() && view["overloaded"].as_bool();
  const std::uint64_t hint_ms = shed ? view["retry_after_ms"].as_uint(0) : 0;
  ex.out.doc = std::move(doc);
  ex.out.failure = shed ? RequestFailure::kOverloaded : RequestFailure::kNone;
  ex.out.error.clear();
  if (shed && policy_.retry_overloaded) {
    retry_after(ex, hint_ms);
  } else {
    finish(ex);
  }
}

void ExchangePool::fail_attempt(Conn& conn, RequestFailure failure,
                                std::string error) {
  Exchange* ex = conn.ex;
  close(conn);
  if (ex == nullptr) return;
  reactor_.disarm(ex->timer);
  ex->out.error = std::move(error);
  ex->out.failure = failure;
  if (failure == RequestFailure::kConnectRefused) {
    finish(*ex);
  } else {
    retry_after(*ex);
  }
}

void ExchangePool::on_timeout(Exchange& ex, std::uint64_t timeout_ms) {
  if (ex.conn != nullptr) close(*ex.conn);
  ex.out.error = "attempt timed out after " + std::to_string(timeout_ms) +
                 " ms";
  if (ex.budget_ms > 0 && ex.remaining_ms() == 0) {
    // The request ran out of time, the backend did not fail.
    ex.out.error += " (deadline budget exhausted)";
    ex.out.failure = RequestFailure::kDeadline;
    finish(ex);
    return;
  }
  ex.out.failure = RequestFailure::kTransport;
  retry_after(ex);
}

ExchangePool::Conn* ExchangePool::open(std::uint16_t port,
                                       int* connect_errno) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) {
    *connect_errno = errno;
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  bool connecting = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    // In progress is the normal answer of a non-blocking connect; the
    // outcome arrives as EPOLLOUT (SO_ERROR tells refused from connected).
    if (errno != EINPROGRESS && errno != EINTR) {
      *connect_errno = errno;
      ::close(fd);
      return nullptr;
    }
    connecting = true;
  }
  auto owned = std::make_unique<Conn>(*this, port, fd);
  owned->connecting = connecting;
  if (!reactor_.watch(fd, owned.get())) {
    *connect_errno = errno;
    ::close(fd);
    return nullptr;
  }
  Conn* conn = owned.get();
  conns_.emplace(conn, std::move(owned));
  if (open_connections_) open_connections_->add(1.0);
  return conn;
}

void ExchangePool::release(Conn& conn) {
  std::vector<Conn*>& idle = idle_[conn.port];
  if (idle.size() < idle_per_port_) {
    idle.push_back(&conn);
  } else {
    close(conn);
  }
}

void ExchangePool::close(Conn& conn) {
  if (conn.ex != nullptr) {
    conn.ex->conn = nullptr;
    conn.ex = nullptr;
  }
  reactor_.unwatch(conn.fd);
  ::close(conn.fd);
  std::vector<Conn*>& idle = idle_[conn.port];
  idle.erase(std::remove(idle.begin(), idle.end(), &conn), idle.end());
  const auto it = conns_.find(&conn);
  closed_.push_back(std::move(it->second));
  conns_.erase(it);
  if (open_connections_) open_connections_->add(-1.0);
  if (closed_.size() == 1) reactor_.post([this] { closed_.clear(); });
}

}  // namespace netemu
