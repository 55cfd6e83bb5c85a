#pragma once
// Weighted deficit-round-robin dispatch across per-client queues.
//
// The thread pool's FIFO is fair between tasks, not between clients: a
// client that enqueues 500 tasks owns the next 500 slots.  FairScheduler
// sits between the executor and the pool — each client gets its own FIFO,
// and a DRR pass over the active clients decides which queued task is
// submitted next, so a flood from one client waits behind one-per-round
// service of everybody else.  Single-flight is unaffected: the executor
// still deduplicates by cache key before anything reaches the scheduler,
// and a task runs exactly once on the same pool threads as before.

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "netemu/util/thread_pool.hpp"

namespace netemu::guard {

class FairScheduler {
 public:
  struct Options {
    /// Tasks handed to the pool at once.  0 = pool thread count: every
    /// worker stays busy, and the DRR choice happens at each completion.
    std::size_t max_concurrent = 0;
    /// Deficit added per client per round, in cost units.
    std::uint64_t quantum = 64;
  };

  FairScheduler(ThreadPool& pool, Options options);

  /// Queue one task for `client`.  `run` executes on a pool thread; `shed`
  /// runs (inline, at most once, never both) if shed_queued() drops the
  /// task before it starts or the pool refuses it at dispatch (shutdown).
  bool submit(const std::string& client, std::uint64_t cost,
              std::function<void()> run, std::function<void()> shed,
              double weight = 1.0);

  /// Drop every queued-but-unstarted task, running its shed callback
  /// inline.  Returns how many were dropped.  Used on drain: tasks already
  /// on a pool thread finish, queued ones answer "draining" immediately.
  std::size_t shed_queued();

  std::size_t queued() const;
  std::size_t running() const;
  /// Clients with queued tasks: a client's queue is erased when it drains.
  std::size_t clients_tracked() const;

 private:
  struct Task {
    std::uint64_t sched_cost;
    std::function<void()> run;
    std::function<void()> shed;
  };
  /// Exists while it has queued tasks, and is then a member of ring_.
  struct ClientQueue {
    std::deque<Task> tasks;
    double deficit = 0.0;
    double weight = 1.0;
  };

  void pump_locked(std::vector<Task>& out);
  void dispatch(std::vector<Task>& ready);
  void dispatch_one(Task&& task);

  ThreadPool& pool_;
  Options options_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, ClientQueue> clients_;
  std::vector<std::string> ring_;  ///< clients_' keys, round-robin order
  std::size_t ring_pos_ = 0;
  std::size_t queued_ = 0;
  std::size_t running_ = 0;
};

}  // namespace netemu::guard
