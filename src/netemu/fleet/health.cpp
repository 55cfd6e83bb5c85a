#include "netemu/fleet/health.hpp"

#include <algorithm>

namespace netemu {

const char* BackendHealth::state_name(State s) {
  switch (s) {
    case State::kClosed: return "closed";
    case State::kOpen: return "open";
    case State::kHalfOpen: return "half_open";
  }
  return "unknown";
}

BackendHealth::BackendHealth() : BackendHealth(Options()) {}

BackendHealth::BackendHealth(Options options) : options_(options) {
  options_.failure_threshold = std::max(1, options_.failure_threshold);
  options_.close_after_successes = std::max(1, options_.close_after_successes);
}

BackendHealth::State BackendHealth::state(std::uint64_t now_ms) {
  if (state_ == State::kOpen &&
      now_ms - opened_at_ms_ >= options_.open_cooldown_ms) {
    state_ = State::kHalfOpen;
    probe_inflight_ = false;
    half_open_successes_ = 0;
  }
  return state_;
}

bool BackendHealth::allow(std::uint64_t now_ms) {
  switch (state(now_ms)) {
    case State::kClosed:
      return true;
    case State::kOpen:
      return false;
    case State::kHalfOpen:
      if (probe_inflight_) return false;
      probe_inflight_ = true;
      return true;
  }
  return false;
}

void BackendHealth::to_open(std::uint64_t now_ms) {
  state_ = State::kOpen;
  opened_at_ms_ = now_ms;
  probe_inflight_ = false;
  half_open_successes_ = 0;
  ++ejections_;
}

void BackendHealth::record_success(std::uint64_t now_ms) {
  record_window(false);
  consecutive_failures_ = 0;
  if (state(now_ms) == State::kHalfOpen) {
    probe_inflight_ = false;
    if (++half_open_successes_ >= options_.close_after_successes) {
      state_ = State::kClosed;
    }
  }
  // A late success while open (from a request sent before the ejection)
  // does not close the breaker early: recovery goes through half-open.
}

void BackendHealth::record_failure(std::uint64_t now_ms) {
  record_window(true);
  switch (state(now_ms)) {
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        to_open(now_ms);
      }
      break;
    case State::kHalfOpen:
      // The probe failed: the backend is still bad; restart the cooldown.
      to_open(now_ms);
      break;
    case State::kOpen:
      // Late failure from a request already in flight at ejection time;
      // the cooldown keeps its original start (late failures must not be
      // able to hold the breaker open forever).
      break;
  }
}

void BackendHealth::release(std::uint64_t now_ms) {
  if (state(now_ms) == State::kHalfOpen) probe_inflight_ = false;
}

void BackendHealth::record_window(bool failure) {
  if (options_.window == 0) return;
  if (window_.size() < options_.window) {
    window_.push_back(failure);
    window_failures_ += failure;
    ++window_count_;
  } else {
    window_failures_ -= window_[window_next_];
    window_[window_next_] = failure;
    window_failures_ += failure;
  }
  window_next_ = (window_next_ + 1) % options_.window;
}

double BackendHealth::window_failure_rate() const {
  const std::size_t n = std::min(window_count_, window_.size());
  if (n == 0) return 0.0;
  return static_cast<double>(window_failures_) / static_cast<double>(n);
}

}  // namespace netemu
