#include "netemu/service/reactor.hpp"

#include <unistd.h>

#include <algorithm>

namespace netemu {

namespace {

// Watched fds carry this bit in epoll_event.data.u64, above a 31-bit
// generation and the fd; a Server shard's own fds use data.fd and leave
// the upper half zero.
constexpr std::uint64_t kWatchedTag = std::uint64_t{1} << 63;
constexpr std::uint32_t kGenMask = 0x7FFFFFFFu;

}  // namespace

Reactor::Reactor() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {}

Reactor::~Reactor() {
  // Owners' state first: it may still unwatch, disarm and post.
  while (!locals_.empty()) locals_.pop_back();
  posted_.clear();
  timers_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool Reactor::watch(int fd, Watcher* watcher) {
  const std::uint32_t gen = next_gen_;
  next_gen_ = (next_gen_ + 1) & kGenMask;
  if (next_gen_ == 0) next_gen_ = 1;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.u64 = kWatchedTag | std::uint64_t{gen} << 32 |
                static_cast<std::uint32_t>(fd);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) return false;
  watched_[fd] = Watched{watcher, gen};
  return true;
}

void Reactor::unwatch(int fd) {
  if (watched_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

Reactor::Timer Reactor::arm(Clock::duration after, std::function<void()> fire) {
  Timer timer{Clock::now() + after, next_timer_++};
  timers_.emplace(std::make_pair(timer.when, timer.seq), std::move(fire));
  return timer;
}

void Reactor::disarm(Timer& timer) {
  if (!timer) return;
  timers_.erase(std::make_pair(timer.when, timer.seq));
  timer = Timer{};
}

void Reactor::post(std::function<void()> fn) { posted_.push_back(std::move(fn)); }

int Reactor::wait_timeout_ms(int max_wait_ms) const {
  if (!posted_.empty()) return 0;
  if (timers_.empty()) return max_wait_ms;
  const auto until = timers_.begin()->first.first - Clock::now();
  // Round up: waking a hair early would spin through empty turns.
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(until).count();
  const int timer_ms = static_cast<int>(std::clamp<long long>(ms, 0, 1 << 30));
  return max_wait_ms < 0 ? timer_ms : std::min(max_wait_ms, timer_ms);
}

bool Reactor::dispatch(const epoll_event& ev) {
  if ((ev.data.u64 & kWatchedTag) == 0) return false;
  const int fd = static_cast<int>(static_cast<std::uint32_t>(ev.data.u64));
  const auto gen = static_cast<std::uint32_t>(ev.data.u64 >> 32) & kGenMask;
  const auto it = watched_.find(fd);
  // Unwatched earlier in this batch, or the number now names a newer
  // watch: the event is stale.
  if (it == watched_.end() || it->second.gen != gen) return true;
  it->second.watcher->on_event(ev.events);
  return true;
}

void Reactor::run_due() {
  const auto now = Clock::now();
  while (!timers_.empty() && timers_.begin()->first.first <= now) {
    auto node = timers_.extract(timers_.begin());
    node.mapped()();
  }
  while (!posted_.empty()) {
    std::vector<std::function<void()>> batch;
    batch.swap(posted_);
    for (auto& fn : batch) fn();
  }
}

void Reactor::turn(int max_wait_ms) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents,
                             wait_timeout_ms(max_wait_ms));
  for (int i = 0; i < n; ++i) dispatch(events[i]);
  run_due();
}

}  // namespace netemu
