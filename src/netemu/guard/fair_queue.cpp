#include "netemu/guard/fair_queue.hpp"

#include <algorithm>
#include <utility>

namespace netemu::guard {

namespace {
// A single queued task never needs more deficit than this many quanta, no
// matter its admission cost: DRR fairness only needs relative order, and an
// unbounded sched_cost would make the round loop spin for thousands of
// visits before a huge estimate dispatches.
constexpr std::uint64_t kMaxQuantaPerTask = 16;
}  // namespace

FairScheduler::FairScheduler(ThreadPool& pool, Options options)
    : pool_(pool), options_(options) {
  if (options_.max_concurrent == 0) {
    options_.max_concurrent = std::max<std::size_t>(1, pool_.size());
  }
  if (options_.quantum == 0) options_.quantum = 1;
}

bool FairScheduler::submit(const std::string& client, std::uint64_t cost,
                           std::function<void()> run,
                           std::function<void()> shed, double weight) {
  std::vector<Task> ready;
  bool fast = false;
  {
    std::lock_guard lock(mutex_);
    if (queued_ == 0 && running_ < options_.max_concurrent) {
      // Uncontended fast path: nothing queued and a slot free, so DRR
      // ordering is vacuous — skip the per-client queue machinery
      // entirely.  This keeps the guard near-free on an idle service.
      ++running_;
      fast = true;
    } else {
      const auto [it, fresh] = clients_.try_emplace(client);
      if (fresh) ring_.push_back(client);
      ClientQueue& q = it->second;
      q.weight = std::max(0.1, weight);
      Task t;
      t.sched_cost =
          std::min(std::max<std::uint64_t>(1, cost),
                   options_.quantum * kMaxQuantaPerTask);
      t.run = std::move(run);
      t.shed = std::move(shed);
      q.tasks.push_back(std::move(t));
      ++queued_;
      pump_locked(ready);
    }
  }
  if (fast) {
    Task t;
    t.sched_cost = 1;
    t.run = std::move(run);
    t.shed = std::move(shed);
    dispatch_one(std::move(t));
    return true;
  }
  dispatch(ready);
  return true;
}

void FairScheduler::pump_locked(std::vector<Task>& out) {
  // Deficit round robin over the ring of clients with queued tasks: each
  // visit earns the client quantum x weight; it dispatches from its FIFO
  // while the head task fits the deficit.  A drained client leaves the ring
  // and the map (forfeiting its deficit, so idleness is not bankable, and
  // costing nothing once gone — client ids are per-connection tags).
  // running_ is bumped as each task moves to `out`, so it alone tracks the
  // claimed slots.
  while (running_ < options_.max_concurrent && !ring_.empty()) {
    if (ring_pos_ >= ring_.size()) ring_pos_ = 0;
    const auto it = clients_.find(ring_[ring_pos_]);
    ClientQueue& q = it->second;
    q.deficit += static_cast<double>(options_.quantum) * q.weight;
    while (!q.tasks.empty() &&
           static_cast<double>(q.tasks.front().sched_cost) <= q.deficit &&
           running_ < options_.max_concurrent) {
      Task t = std::move(q.tasks.front());
      q.tasks.pop_front();
      --queued_;
      q.deficit -= static_cast<double>(t.sched_cost);
      ++running_;
      out.push_back(std::move(t));
    }
    if (q.tasks.empty()) {
      clients_.erase(it);
      ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(ring_pos_));
    } else {
      ++ring_pos_;
    }
  }
}

void FairScheduler::dispatch(std::vector<Task>& ready) {
  for (auto& task : ready) dispatch_one(std::move(task));
}

void FairScheduler::dispatch_one(Task&& task) {
  auto wrapped = [this, fn = std::move(task.run)]() {
    fn();
    std::vector<Task> next;
    {
      std::lock_guard lock(mutex_);
      --running_;
      pump_locked(next);
    }
    dispatch(next);
  };
  if (!pool_.submit(std::move(wrapped))) {
    // Pool is shutting down; the claimed slot never runs.  The task still
    // gets an answer: its shed callback runs inline on this thread.
    {
      std::lock_guard lock(mutex_);
      --running_;
    }
    if (task.shed) task.shed();
  }
}

std::size_t FairScheduler::shed_queued() {
  std::vector<std::function<void()>> sheds;
  {
    std::lock_guard lock(mutex_);
    for (auto& [name, q] : clients_) {
      for (auto& t : q.tasks) sheds.push_back(std::move(t.shed));
    }
    clients_.clear();
    ring_.clear();
    ring_pos_ = 0;
    queued_ = 0;
  }
  for (auto& shed : sheds) {
    if (shed) shed();
  }
  return sheds.size();
}

std::size_t FairScheduler::queued() const {
  std::lock_guard lock(mutex_);
  return queued_;
}

std::size_t FairScheduler::running() const {
  std::lock_guard lock(mutex_);
  return running_;
}

std::size_t FairScheduler::clients_tracked() const {
  std::lock_guard lock(mutex_);
  return clients_.size();
}

}  // namespace netemu::guard
