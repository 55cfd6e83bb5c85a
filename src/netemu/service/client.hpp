#pragma once
// Client for the planner daemon.  Not thread-safe: one caller at a time.
//
// request() and request_outcome() run one ExchangePool exchange on a
// Reactor this client owns and turns on the calling thread until the
// outcome is in.  service/exchange.hpp, the one retry engine, has the
// rules: backoff and shed hints, the refused-connect fast fail, and the
// one deadline budget a request's "deadline_ms" gives all its attempts.
// Retrying is safe because every query op is idempotent — results are
// content-addressed, so a request whose response was lost re-reads the
// same address.
//
// The reactor and its one pooled connection are built by the first
// request*, never for a client that only speaks raw: connect() and
// request_raw() stay a blocking single-attempt path on one socket (the
// benches' hot loops), with attempt_timeout_ms as its send/recv timeout.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "netemu/util/json.hpp"

namespace netemu {

class ExchangePool;
class FaultInjector;
class LineChannel;
class Reactor;

/// Why a request failed at the transport level (RequestOutcome::failure).
/// The distinction matters to a multi-backend router: a refused connection
/// means the backend process is down — eject it and fail over immediately —
/// while a mid-request transport error may be transient and is worth the
/// retry/backoff loop.
enum class RequestFailure {
  kNone,            ///< a response document arrived (doc is set)
  kConnectRefused,  ///< backend down (ECONNREFUSED): failed fast, no backoff
  kTransport,       ///< connection lost / timed out mid-request
  kProtocol,        ///< response arrived but was not parseable JSON
  kOverloaded,      ///< final response was an admission-control shed
  kDeadline,        ///< the request's own deadline budget ran out: says
                    ///< nothing about the backend's health
};

const char* request_failure_name(RequestFailure f);

class Client {
 public:
  struct RetryPolicy {
    int max_attempts = 3;  ///< total attempts per request() (>= 1)
    std::uint32_t base_backoff_ms = 10;   ///< first retry delay
    std::uint32_t max_backoff_ms = 500;   ///< exponential growth cap
    std::uint32_t attempt_timeout_ms = 0; ///< bound on each attempt (and
                                          ///< the raw socket's send/recv
                                          ///< timeout); 0 = none
    bool retry_overloaded = true;  ///< retry shed responses after their hint
    std::uint64_t jitter_seed = 0; ///< 0 = derived per client
  };

  Client();
  explicit Client(RetryPolicy policy);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Open the raw connection to the daemon at 127.0.0.1:port (for
  /// request_raw) and make `port` the target of request*.  False + *error
  /// on failure.
  bool connect(std::uint16_t port, std::string* error = nullptr);

  /// Make `port` the target of request* without opening a raw connection;
  /// the first request* connects (and a refused connect fails fast).
  void set_target(std::uint16_t port) { port_ = port; }

  bool connected() const { return fd_ >= 0; }
  /// Close the raw connection.
  void close();

  /// errno of the last failed connect() (0 when it succeeded), or
  /// ECONNREFUSED when the last request*'s connection was refused.
  int last_connect_errno() const { return connect_errno_; }

  /// Send one request document, block for the response document, retrying
  /// per the policy.  Returns nullopt + *error when every attempt failed.
  std::optional<Json> request(const Json& request_doc,
                              std::string* error = nullptr);

  /// The structured result of one request(): the response document when any
  /// arrived (even a server-side error or a shed — those are authoritative),
  /// otherwise the transport-level failure kind.  A refused connection
  /// returns at once with kConnectRefused — no backoff, no further
  /// attempts — so a fleet router can eject the backend and fail over
  /// without eating the retry schedule.
  struct RequestOutcome {
    std::optional<Json> doc;
    RequestFailure failure = RequestFailure::kNone;
    std::string error;  ///< set when doc is absent
    int attempts = 0;   ///< attempts actually made
    bool ok() const { return doc && (*doc)["ok"].as_bool(); }
  };
  RequestOutcome request_outcome(const Json& request_doc);

  /// Raw variant: exchange pre-serialized lines over the connect()ed
  /// socket (the bench's hot loop).  Single attempt, no retries.
  bool request_raw(const std::string& request_line, std::string& response_line);

  /// Retries performed by request*() so far (after transport failures and
  /// after sheds both count).
  std::uint64_t retries() const { return retries_; }

  const RetryPolicy& policy() const { return policy_; }

  /// Route this client's socket I/O through a fault injector (chaos
  /// testing).  Not owned; must outlive the client.  nullptr disables.
  void set_fault_injector(FaultInjector* injector);

 private:
  RetryPolicy policy_;
  int fd_ = -1;             ///< the raw connection
  std::uint16_t port_ = 0;  ///< request* target (last connect / set_target)
  int connect_errno_ = 0;
  std::uint64_t retries_ = 0;
  FaultInjector* faults_ = nullptr;
  std::unique_ptr<LineChannel> channel_;  // persists read buffer across requests
  std::unique_ptr<Reactor> reactor_;      // built by the first request*
  std::unique_ptr<ExchangePool> pool_;    // declared after: destroyed first
};

}  // namespace netemu
