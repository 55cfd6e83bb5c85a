#pragma once
// Reactor: one thread's epoll set, timers and end-of-turn work — what code
// running on an I/O shard needs to talk to other sockets without blocking.
// A Server shard drives one (docs/SERVICE.md "I/O plane"); a blocking
// caller can drive its own with turn() until its answer is in.
//
//   watch(fd)  edge-triggered input/output/hang-up events for an fd the
//              caller owns (a backend connection), until unwatch(fd)
//   arm(d)     a one-shot timer; disarm() before it fires cancels it
//   post(fn)   run fn at the end of the current turn, after every event
//              and due timer (deferred replies, deferred frees)
//   local<T>   per-owner state that lives and dies with the reactor
//              (a router's backend connection pool on this shard)
//
// Single-threaded: every method runs on the thread that drives the
// reactor.  Nothing sleeps except turn()'s epoll_wait, which never waits
// past the next timer and does not wait at all while work is posted.

#include <sys/epoll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace netemu {

class Reactor {
 public:
  using Clock = std::chrono::steady_clock;

  /// The owner of a watched fd.  The reactor does not own watchers; a
  /// watcher must unwatch its fd before it is destroyed.
  class Watcher {
   public:
    /// `events` is the epoll event mask (EPOLLIN, EPOLLOUT, EPOLLERR, ...).
    virtual void on_event(std::uint32_t events) = 0;

   protected:
    ~Watcher() = default;
  };

  /// An armed timer; a default-constructed Timer is not armed.
  struct Timer {
    Clock::time_point when{};
    std::uint64_t seq = 0;
    explicit operator bool() const { return seq != 0; }
  };

  /// State an owner keeps on one reactor (see local()).
  class Local {
   public:
    virtual ~Local() = default;
  };

  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// The epoll fd; -1 when epoll_create1 failed.
  int fd() const { return epoll_fd_; }

  /// Watch `fd` (edge-triggered EPOLLIN|EPOLLOUT|EPOLLRDHUP) until
  /// unwatch(fd).  False when epoll_ctl refused it.
  bool watch(int fd, Watcher* watcher);
  /// Stop delivering `fd`'s events; call before closing it.  Safe from
  /// inside any watcher's on_event, including the fd's own.
  void unwatch(int fd);

  Timer arm(Clock::duration after, std::function<void()> fire);
  /// Cancel `timer` if it has not fired; resets it.  Idempotent.
  void disarm(Timer& timer);

  /// Run `fn` at the end of the current turn.
  void post(std::function<void()> fn);

  /// One turn: wait up to `max_wait_ms` (-1: no limit) for events, never
  /// past the next timer and not at all while work is posted; dispatch
  /// watched fds' events; fire due timers; run posted work.
  void turn(int max_wait_ms);

  // turn() in pieces, for a loop that keeps fds of its own in this epoll
  // set (a Server shard registers its client connections with
  // epoll_event.data.fd and dispatches those itself).

  /// The epoll_wait timeout turn(max_wait_ms) would use.
  int wait_timeout_ms(int max_wait_ms) const;
  /// Deliver `ev` to its watcher.  False when `ev` is not a watched fd's
  /// event (it belongs to the caller); true when delivered or stale.
  bool dispatch(const epoll_event& ev);
  /// Fire due timers, then run posted work until none is left.
  void run_due();

  /// `owner`'s state on this reactor, created by `make()` (returning
  /// std::unique_ptr<T>, T derived from Local) on first use.  Destroyed
  /// with the reactor, before anything else it holds.
  template <class T, class Make>
  T& local(const void* owner, Make&& make) {
    for (auto& [key, state] : locals_) {
      if (key == owner) return static_cast<T&>(*state);
    }
    std::unique_ptr<T> made = make();
    T& ref = *made;
    locals_.emplace_back(owner, std::move(made));
    return ref;
  }

 private:
  struct Watched {
    Watcher* watcher = nullptr;
    std::uint32_t gen = 0;  ///< tags events: a reused fd drops stale ones
  };

  int epoll_fd_ = -1;
  std::unordered_map<int, Watched> watched_;
  std::uint32_t next_gen_ = 1;
  std::map<std::pair<Clock::time_point, std::uint64_t>, std::function<void()>>
      timers_;
  std::uint64_t next_timer_ = 1;
  std::vector<std::function<void()>> posted_;
  std::vector<std::pair<const void*, std::unique_ptr<Local>>> locals_;
};

}  // namespace netemu
