#pragma once
// Blocking client for the planner daemon: connect, send request documents,
// read response documents.  One Client per connection; not thread-safe
// (the protocol is request/response in order on one socket).
//
// Resilience: request() retries transport failures (connection drops, torn
// responses, per-attempt timeouts) on a fresh connection with exponential
// backoff + deterministic jitter, and honors the server's "overloaded"
// shedding responses (sleeping the suggested retry_after_ms before trying
// again).  Retrying is safe because every query op is idempotent — results
// are content-addressed, so a request whose response was lost re-reads the
// same address.  A refused connection is the exception: the backend process
// is down, so request() fails fast (kConnectRefused, no backoff) and lets
// the caller — typically a FleetRouter — fail over to another backend.
// request_raw() stays a single-attempt fast path.
//
// Deadline budget: a request document carrying "deadline_ms" gets ONE
// budget for the whole request() — retries included.  Every backoff sleep
// and per-attempt socket timeout draws from what is left of that window,
// and retrying stops when the budget is spent, instead of each attempt
// being granted the full allowance over again (which could stretch a
// 200 ms deadline into seconds of client-side retrying).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "netemu/util/json.hpp"
#include "netemu/util/prng.hpp"

namespace netemu {

class LineChannel;
class FaultInjector;

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
    std::uint32_t attempt_timeout_ms = 0; ///< per-attempt socket send/recv
                                          ///< timeout; 0 = none
    bool retry_overloaded = true;  ///< retry shed responses after their hint
    std::uint64_t jitter_seed = 0; ///< 0 = derived per client
  };

  Client();
  explicit Client(RetryPolicy policy);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to the daemon at 127.0.0.1:port.  False + *error on failure.
  /// The port is remembered so retries can reconnect.
  bool connect(std::uint16_t port, std::string* error = nullptr);

  /// Remember `port` as the reconnect target without connecting yet; the
  /// first request() connects lazily (and a refused connect fails fast).
  void set_target(std::uint16_t port) { port_ = port; }

  bool connected() const { return fd_ >= 0; }
  void close();

  /// errno of the last failed connect() (0 when it succeeded).
  int last_connect_errno() const { return connect_errno_; }

  /// Send one request document, block for the response document, retrying
  /// per the policy.  Returns nullopt + *error when every attempt failed.
  std::optional<Json> request(const Json& request_doc,
                              std::string* error = nullptr);

  /// The structured result of one request(): the response document when any
  /// arrived (even a server-side error or a shed — those are authoritative),
  /// otherwise the transport-level failure kind.  A refused connection
  /// returns immediately with kConnectRefused — no backoff sleep, no
  /// further attempts — so a fleet router can eject the backend and fail
  /// over without eating the retry schedule.
  struct RequestOutcome {
    std::optional<Json> doc;
    RequestFailure failure = RequestFailure::kNone;
    std::string error;  ///< set when doc is absent
    int attempts = 0;   ///< attempts actually made
    bool ok() const { return doc && (*doc)["ok"].as_bool(); }
  };
  RequestOutcome request_outcome(const Json& request_doc);

  /// Raw variant: exchange pre-serialized lines (the bench's hot loop).
  /// Single attempt, no retries.
  bool request_raw(const std::string& request_line, std::string& response_line);

  /// Transport-level retries performed by request() so far (reconnects and
  /// overload backoffs both count).
  std::uint64_t retries() const { return retries_; }

  const RetryPolicy& policy() const { return policy_; }

  /// Route this client's socket I/O through a fault injector (chaos
  /// testing).  Not owned; must outlive the client.  nullptr disables.
  void set_fault_injector(FaultInjector* injector);

 private:
  bool reconnect(std::string* error);
  /// Backoff before retry `retry_index`; `cap_ms` (when nonzero) bounds the
  /// sleep to the remaining deadline budget.
  void backoff_sleep(int retry_index, std::uint64_t hint_ms,
                     std::uint64_t cap_ms);
  /// (Re)arm SO_RCVTIMEO/SO_SNDTIMEO on the current socket; 0 clears them.
  void apply_socket_timeout(std::uint64_t timeout_ms);

  RetryPolicy policy_;
  Prng jitter_;
  int fd_ = -1;
  std::uint16_t port_ = 0;  ///< reconnect target (last connect / set_target)
  int connect_errno_ = 0;
  /// A deadline budget shortened this connection's socket timeouts; the
  /// next unbudgeted request must restore the policy value first.
  bool socket_timeout_overridden_ = false;
  std::uint64_t retries_ = 0;
  FaultInjector* faults_ = nullptr;
  std::unique_ptr<LineChannel> channel_;  // persists read buffer across requests
};

}  // namespace netemu
