#include "netemu/service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>

#include "netemu/service/exchange.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/reactor.hpp"

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

Client::Client(RetryPolicy policy) : policy_(policy) {
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
  if (pool_) pool_->set_fault_injector(injector);
}

bool Client::connect(std::uint16_t port, std::string* error) {
  close();
  port_ = port;
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
  // A send/recv timeout turns a hung server into a failed request_raw
  // instead of a caller blocked forever.
  timeval tv{};  // zero-valued = no timeout (the socket default)
  tv.tv_sec = static_cast<time_t>(policy_.attempt_timeout_ms / 1000);
  tv.tv_usec = static_cast<long>(policy_.attempt_timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (error) error->clear();
  return true;
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
  if (!pool_) {
    reactor_ = std::make_unique<Reactor>();
    pool_ = std::make_unique<ExchangePool>(*reactor_, policy_, 1);
    pool_->set_fault_injector(faults_);
  }
  // What arrived while the client sat idle first: a hang-up drops the
  // pooled connection before this request could pick it.
  reactor_->turn(0);
  std::optional<RequestOutcome> out;
  pool_->start(port_, request_doc.dump(), request_doc["deadline_ms"].as_uint(0),
               [&out](RequestOutcome outcome) { out = std::move(outcome); });
  while (!out) reactor_->turn(-1);
  retries_ += static_cast<std::uint64_t>(out->attempts - 1);
  connect_errno_ =
      out->failure == RequestFailure::kConnectRefused ? ECONNREFUSED : 0;
  return std::move(*out);
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
