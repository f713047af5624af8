#include "exact/shard_executor.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "arch/swap_cost_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace qxmap::exact {

namespace {

/// Registry handles for the executor (docs/observability.md): the only
/// record of its work. Every executor in the process feeds the same
/// instruments.
struct ExecutorMetrics {
  obs::Counter& requests;
  obs::Counter& tasks_submitted;
  obs::Counter& tasks_executed;
  obs::Counter& tasks_failed;
  obs::Counter& threads_spawned;
  obs::Counter& steals;
  obs::Gauge& queue_depth;
  obs::Gauge& queue_depth_high_water;
  obs::Histogram& queue_wait_us;
  obs::Histogram& task_run_us;

  static ExecutorMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static ExecutorMetrics m{
        reg.counter("qxmap_executor_requests_total", "Task batches submitted"),
        reg.counter("qxmap_executor_tasks_submitted_total", "Shard tasks enqueued"),
        reg.counter("qxmap_executor_tasks_executed_total", "Shard tasks completed"),
        reg.counter("qxmap_executor_tasks_failed_total", "Shard tasks whose fn threw"),
        reg.counter("qxmap_executor_threads_spawned_total", "Worker threads ever spawned"),
        reg.counter("qxmap_executor_steals_total",
                    "Tasks executed by a thread other than their submitter"),
        reg.gauge("qxmap_executor_queue_depth", "Tasks queued and not yet started"),
        reg.gauge("qxmap_executor_queue_depth_high_water",
                  "Maximum queue depth observed since process start"),
        reg.histogram("qxmap_executor_queue_wait_us",
                      "Microseconds between task enqueue and execution start"),
        reg.histogram("qxmap_executor_task_run_us", "Microseconds spent inside a task fn"),
    };
    return m;
  }
};

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::size_t default_num_threads() {
  if (const char* env = std::getenv("QXMAP_EXECUTOR_THREADS")) {
    try {
      const long value = std::stol(env);
      if (value >= 0) return static_cast<std::size_t>(value);
    } catch (const std::exception&) {
      // Unparsable values fall through to the hardware default.
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

ShardExecutor::ShardExecutor(std::size_t num_threads) {
  // Shard tasks read the process-wide swaps(π) cache and publish trace
  // events / metrics. Touching those singletons here pins static-
  // destruction order: they are constructed before this executor, so they
  // are destroyed after the executor has drained and joined every thread
  // that could still reach them (the destructor drain runs tasks too).
  (void)arch::SwapCostCache::instance();
  (void)obs::TraceRecorder::instance();
  (void)ExecutorMetrics::get();
  const std::lock_guard<std::mutex> lock(mutex_);
  base_threads_ = num_threads;
  spawn_to(num_threads);
}

ShardExecutor::~ShardExecutor() {
  const std::lock_guard<std::mutex> resize(resize_mutex_);
  std::vector<std::thread> workers;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
    workers.swap(threads_);
    cv_.notify_all();
    // The destructing thread joins the drain so the no-abandoned-work
    // contract holds even for a zero-worker pool with nobody inside
    // run_to_completion. Tasks it cannot pick up (their request is at its
    // cap) finish on whoever is running them; their completions notify.
    // Also wait out threads still inside run_to_completion: they hold the
    // mutex and condition variable, which must not be destroyed under them.
    while (!queue_.empty() || busy_ > 0) {
      const auto it = find_eligible(nullptr);
      if (it != queue_.end()) {
        run_one(it, lock);
      } else {
        cv_.wait(lock);
      }
    }
  }
  cv_.notify_all();
  // Workers exit once the queue is empty; every submitted task has run (and
  // every run_to_completion waiter was released) by the time the last join
  // returns. Nothing is detached, nothing outlives the executor.
  for (auto& t : workers) t.join();
}

ShardExecutor& ShardExecutor::instance() {
  static ShardExecutor executor(default_num_threads());
  return executor;
}

std::shared_ptr<ShardExecutor::Request> ShardExecutor::submit(TaskFn fn, std::size_t num_tasks,
                                                              std::size_t max_concurrency) {
  if (num_tasks == 0) {
    throw std::invalid_argument("ShardExecutor::submit: empty task batch");
  }
  auto request = std::make_shared<Request>();
  request->fn = std::move(fn);
  request->cap = std::clamp<std::size_t>(max_concurrency, 1, num_tasks);
  request->remaining = num_tasks;
  request->submitter = std::this_thread::get_id();
  ExecutorMetrics& metrics = ExecutorMetrics::get();
  const std::uint64_t enqueue_ns = steady_ns();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ShardExecutor::submit: executor is shutting down");
    }
    request->seq = next_seq_++;
    for (std::size_t i = 0; i < num_tasks; ++i) {
      queue_.push_back(QueuedTask{i, enqueue_ns, request});
    }
    metrics.requests.inc();
    metrics.tasks_submitted.inc(num_tasks);
    metrics.queue_depth.set(static_cast<long long>(queue_.size()));
    metrics.queue_depth_high_water.set_max(static_cast<long long>(queue_.size()));
    // Honour the cap even on fewer cores (the old per-call pools simply
    // spawned cap threads): cap - 1 workers plus the submitting caller,
    // which executes its own tasks inside run_to_completion.
    spawn_to(std::max(base_threads_, request->cap - 1));
  }
  cv_.notify_all();
  return request;
}

void ShardExecutor::run_to_completion(const std::shared_ptr<Request>& request) {
  if (!request) throw std::invalid_argument("ShardExecutor::run_to_completion: null request");
  std::unique_lock<std::mutex> lock(mutex_);
  ++busy_;
  while (request->remaining > 0) {
    const auto it = find_eligible(request.get());
    if (it != queue_.end()) {
      run_one(it, lock);
      continue;
    }
    // Everything left of this request is in flight elsewhere (or capped);
    // task completions notify.
    cv_.wait(lock);
  }
  --busy_;
  const std::exception_ptr error = request->error;
  request->error = nullptr;
  // Notify *under* the lock: a destructor waiting on busy_ may destroy the
  // condition variable as soon as it can reacquire the mutex, so notifying
  // after unlock could touch a dead object.
  cv_.notify_all();
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ShardExecutor::set_num_threads(std::size_t n) {
  const std::lock_guard<std::mutex> resize(resize_mutex_);
  std::vector<std::thread> workers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    base_threads_ = n;
    if (n >= threads_.size()) {
      spawn_to(n);
      return;
    }
    // Shrinking: there is no way to stop a std::thread in place, so drain
    // and respawn. Workers exit once the queue is empty.
    stopping_ = true;
    workers.swap(threads_);
  }
  cv_.notify_all();
  for (auto& t : workers) t.join();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = false;
    spawn_to(n);
  }
  cv_.notify_all();
}

std::size_t ShardExecutor::num_threads() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return threads_.size();
}

void ShardExecutor::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    const auto it = find_eligible(nullptr);
    if (it != queue_.end()) {
      run_one(it, lock);
      continue;
    }
    if (stopping_ && queue_.empty()) return;
    // Either no work at all, or every queued task's request is at its cap
    // (their completions notify). When stopping with capped tasks left, the
    // in-flight tasks' completions re-wake us to finish the drain.
    cv_.wait(lock);
  }
}

ShardExecutor::Queue::iterator ShardExecutor::find_eligible(const Request* only) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (only != nullptr && it->request.get() != only) continue;
    if (it->request->in_flight < it->request->cap) return it;
  }
  return queue_.end();
}

void ShardExecutor::run_one(Queue::iterator it, std::unique_lock<std::mutex>& lock) {
  const QueuedTask task = *it;
  queue_.erase(it);
  ++task.request->in_flight;
  ExecutorMetrics& metrics = ExecutorMetrics::get();
  metrics.queue_depth.set(static_cast<long long>(queue_.size()));
  lock.unlock();
  const std::uint64_t start_ns = steady_ns();
  metrics.queue_wait_us.observe((start_ns - task.enqueue_ns) / 1000);
  std::exception_ptr error;
  {
    obs::Span span("executor.task", "executor");
    if (span.active()) {
      span.attr("request", static_cast<unsigned long long>(task.request->seq));
      span.attr("index", task.index);
      if (std::this_thread::get_id() != task.request->submitter) {
        obs::Span::instant("executor.steal", "executor");
      }
    }
    if (std::this_thread::get_id() != task.request->submitter) metrics.steals.inc();
    try {
      task.request->fn(task.index);
    } catch (...) {
      error = std::current_exception();
    }
  }
  metrics.task_run_us.observe((steady_ns() - start_ns) / 1000);
  metrics.tasks_executed.inc();
  if (error) metrics.tasks_failed.inc();
  lock.lock();
  --task.request->in_flight;
  --task.request->remaining;
  if (error && !task.request->error) task.request->error = error;
  // Wakes request waiters, workers blocked on this request's cap, and the
  // drain path. Coarse, but completions are solver-scale events.
  cv_.notify_all();
}

void ShardExecutor::spawn_to(std::size_t target) {
  while (threads_.size() < target) {
    threads_.emplace_back([this] { worker_loop(); });
    ExecutorMetrics::get().threads_spawned.inc();
  }
}

}  // namespace qxmap::exact
