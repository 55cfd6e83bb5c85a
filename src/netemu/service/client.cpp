#include "netemu/service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "netemu/service/protocol.hpp"

namespace netemu {

const char* request_failure_name(RequestFailure f) {
  switch (f) {
    case RequestFailure::kNone: return "none";
    case RequestFailure::kConnectRefused: return "connect_refused";
    case RequestFailure::kTransport: return "transport";
    case RequestFailure::kProtocol: return "protocol";
    case RequestFailure::kOverloaded: return "overloaded";
    case RequestFailure::kDeadline: return "deadline";
  }
  return "unknown";
}

Client::Client() : Client(RetryPolicy()) {}

Client::Client(RetryPolicy policy)
    : policy_(policy),
      jitter_(policy.jitter_seed != 0
                  ? policy.jitter_seed
                  : reinterpret_cast<std::uintptr_t>(this) ^
                        0x9E3779B97F4A7C15ULL) {
  if (policy_.max_attempts < 1) policy_.max_attempts = 1;
}

Client::~Client() { close(); }

void Client::close() {
  channel_.reset();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::set_fault_injector(FaultInjector* injector) {
  faults_ = injector;
  if (channel_) channel_->set_fault_injector(injector);
}

bool Client::connect(std::uint16_t port, std::string* error) {
  close();
  connect_errno_ = 0;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    connect_errno_ = errno;
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    connect_errno_ = errno;
    if (error) {
      *error = "connect 127.0.0.1:" + std::to_string(port) + ": " +
               std::strerror(errno);
    }
    close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A per-attempt socket timeout turns a hung server into a transport
  // failure the retry loop can handle, instead of blocking forever.
  apply_socket_timeout(policy_.attempt_timeout_ms);
  socket_timeout_overridden_ = false;
  port_ = port;
  if (error) error->clear();
  return true;
}

bool Client::reconnect(std::string* error) {
  if (port_ == 0) {
    if (error) *error = "not connected (no port to reconnect to)";
    return false;
  }
  return connect(port_, error);
}

void Client::backoff_sleep(int retry_index, std::uint64_t hint_ms,
                           std::uint64_t cap_ms) {
  // Exponential growth from the base, capped, plus up to 50% jitter so a
  // herd of retrying clients decorrelates.  A server-provided hint
  // (retry_after_ms) overrides the exponential schedule but keeps jitter.
  std::uint64_t ms = hint_ms;
  if (ms == 0) {
    ms = policy_.base_backoff_ms;
    for (int i = 0; i < retry_index && ms < policy_.max_backoff_ms; ++i) {
      ms *= 2;
    }
  }
  ms = std::min<std::uint64_t>(ms, policy_.max_backoff_ms);
  if (ms == 0) return;
  ms += jitter_.below(ms / 2 + 1);
  // The deadline budget wins over both the schedule and the server's hint:
  // sleeping past it just converts a slow failure into a late one.
  if (cap_ms > 0) ms = std::min(ms, cap_ms);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

void Client::apply_socket_timeout(std::uint64_t timeout_ms) {
  if (fd_ < 0) return;
  timeval tv{};  // zero-valued = no timeout (the socket default)
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<long>(timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool Client::request_raw(const std::string& request_line,
                         std::string& response_line) {
  if (fd_ < 0) return false;
  // A fresh LineChannel per request would lose buffered bytes between
  // requests; keep one per connection.
  if (!channel_) {
    channel_ = std::make_unique<LineChannel>(fd_);
    channel_->set_fault_injector(faults_);
  }
  if (!channel_->write_line(request_line)) return false;
  return channel_->read_line(response_line);
}

Client::RequestOutcome Client::request_outcome(const Json& request_doc) {
  const std::string request_line = request_doc.dump();
  std::string response_line;

  // A "deadline_ms" field is ONE budget for the whole request, retries
  // included — measured from here, so every backoff sleep and every
  // attempt's socket timeout draws from what is left of the window.
  const std::uint64_t budget_ms = request_doc["deadline_ms"].as_uint(0);
  const auto budget_start = std::chrono::steady_clock::now();
  const auto remaining_ms = [&]() -> std::uint64_t {
    const auto spent = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - budget_start)
                           .count();
    const auto spent_ms = static_cast<std::uint64_t>(std::max<long long>(
        0, static_cast<long long>(spent)));
    return spent_ms >= budget_ms ? 0 : budget_ms - spent_ms;
  };

  RequestOutcome out;
  out.error = "not connected";
  out.failure = RequestFailure::kTransport;

  for (int attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    out.attempts = attempt;
    // True when another attempt should run (counting the retry and backing
    // off first); false ends the request — either the attempt allowance or
    // the deadline budget ran out, the latter annotated in out.error.
    const auto retry_after = [&](std::uint64_t hint_ms) {
      if (attempt >= policy_.max_attempts) return false;
      std::uint64_t cap = 0;
      if (budget_ms > 0) {
        cap = remaining_ms();
        if (cap == 0) {
          out.error += " (deadline budget exhausted)";
          return false;
        }
      }
      ++retries_;
      backoff_sleep(attempt - 1, hint_ms, cap);
      return true;
    };
    if (fd_ < 0 && !reconnect(&out.error)) {
      if (connect_errno_ == ECONNREFUSED) {
        // The backend process is gone: more attempts against the same port
        // will also be refused, and a backoff sleep only delays the
        // caller's failover.  Fail fast.
        out.failure = RequestFailure::kConnectRefused;
        return out;
      }
      out.failure = RequestFailure::kTransport;
      if (retry_after(0)) continue;
      return out;
    }
    if (budget_ms > 0) {
      // Cap this attempt's socket timeout to the budget remainder so one
      // hung read cannot blow the whole deadline (a zero remainder still
      // arms 1 ms: a zero timeout would mean "block forever").
      std::uint64_t cap = std::max<std::uint64_t>(remaining_ms(), 1);
      if (policy_.attempt_timeout_ms > 0) {
        cap = std::min<std::uint64_t>(cap, policy_.attempt_timeout_ms);
      }
      apply_socket_timeout(cap);
      socket_timeout_overridden_ = true;
    } else if (socket_timeout_overridden_) {
      // A previous budgeted request shortened this connection's timeouts;
      // put the policy value back before an unbudgeted exchange.
      apply_socket_timeout(policy_.attempt_timeout_ms);
      socket_timeout_overridden_ = false;
    }
    if (!request_raw(request_line, response_line)) {
      close();  // the stream may be desynced; retry on a fresh connection
      if (budget_ms > 0 && remaining_ms() == 0) {
        // The socket timeout was the budget's remainder: the request ran
        // out of time, the backend did not fail.
        out.error = "attempt timed out (deadline budget exhausted)";
        out.failure = RequestFailure::kDeadline;
        return out;
      }
      out.error = "transport failure (daemon gone?)";
      out.failure = RequestFailure::kTransport;
      if (retry_after(0)) continue;
      return out;
    }
    std::string parse_error;
    Json doc = Json::parse(response_line, &parse_error);
    if (!parse_error.empty()) {
      out.error = "bad response: " + parse_error;
      out.failure = RequestFailure::kProtocol;
      close();
      if (retry_after(0)) continue;
      return out;
    }
    if (!doc["ok"].as_bool() && doc["overloaded"].as_bool()) {
      if (policy_.retry_overloaded) {
        // Shed by admission control: the connection is fine, the server is
        // just full.  Honor its hint, then try again without reconnecting.
        out.error = doc["error"].as_string();
        if (retry_after(doc["retry_after_ms"].as_uint(0))) continue;
      }
      // Final answer is a shed: hand the document back, flagged, so a
      // router can fail the query over to a less-loaded backend.
      out.doc = std::move(doc);
      out.failure = RequestFailure::kOverloaded;
      out.error.clear();
      return out;
    }
    out.doc = std::move(doc);
    out.failure = RequestFailure::kNone;
    out.error.clear();
    return out;
  }
  return out;
}

std::optional<Json> Client::request(const Json& request_doc,
                                    std::string* error) {
  RequestOutcome out = request_outcome(request_doc);
  if (out.doc) {
    if (error) error->clear();
    return std::move(out.doc);
  }
  if (error) {
    *error = out.error + " (after " + std::to_string(out.attempts) +
             (out.attempts == 1 ? " attempt)" : " attempts)");
  }
  return std::nullopt;
}

}  // namespace netemu
