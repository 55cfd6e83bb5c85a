#pragma once
// Deficit-round-robin dispatch across per-client queues.
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
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "netemu/util/thread_pool.hpp"

namespace netemu::guard {

class FairScheduler {
 public:
  /// Hands the pool as many tasks at once as it has threads: every worker
  /// stays busy, and the DRR choice happens at each completion.
  explicit FairScheduler(ThreadPool& pool);

  /// Queue one task for `client`.  `run` executes on a pool thread; `shed`
  /// runs (inline, at most once, never both) if shed_queued() drops the
  /// task before it starts or the pool refuses it at dispatch (shutdown).
  bool submit(const std::string& client, std::uint64_t cost,
              std::function<void()> run, std::function<void()> shed);

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
    std::uint64_t deficit = 0;
  };

  void pump_locked(std::vector<Task>& out);
  void dispatch(std::vector<Task>& ready);
  void dispatch_one(Task&& task);

  ThreadPool& pool_;
  const std::size_t slots_;  ///< tasks handed to the pool at once

  mutable std::mutex mutex_;
  std::unordered_map<std::string, ClientQueue> clients_;
  /// clients_' keys in round-robin order: a list, so a drained client
  /// leaves from the middle in O(1) and erase yields the next one.
  std::list<std::string> ring_;
  /// The next client to visit; end() wraps to the front.
  std::list<std::string>::iterator ring_pos_ = ring_.end();
  std::size_t queued_ = 0;
  std::size_t running_ = 0;
};

}  // namespace netemu::guard
