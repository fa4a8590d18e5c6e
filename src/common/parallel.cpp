#include "common/parallel.h"

#include "common/env.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace primer {

namespace {

// True while the current thread is executing inside a parallel region —
// either as a pool worker or as the dispatching thread participating in its
// own loop.  Nested parallel_for calls check this and run inline.
thread_local bool tl_in_parallel = false;

// One dispatched loop: workers claim [begin, end) chunks via an atomic
// cursor, so the partition adapts to uneven chunk costs.
struct Task {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};
  std::size_t in_flight = 0;  // workers inside run_task (guarded by pool mutex)
  std::exception_ptr error;
  std::mutex error_mu;
};

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers) {
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  std::size_t workers() const { return workers_.size(); }

  // Blocks until body(lo, hi) has covered [begin, end).  The calling thread
  // participates, so the pool makes progress even with zero idle workers.
  void run(std::size_t begin, std::size_t end, std::size_t chunk,
           const std::function<void(std::size_t, std::size_t)>& body) {
    Task task;
    task.body = &body;
    task.begin = begin;
    task.end = end;
    task.chunk = chunk;
    task.next.store(begin, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu_);
      task_ = &task;
      ++generation_;
    }
    cv_.notify_all();
    run_task(task);
    {
      std::unique_lock<std::mutex> lk(mu_);
      done_cv_.wait(lk, [&] { return task.in_flight == 0; });
      task_ = nullptr;  // no worker can join a detached task
    }
    if (task.error) std::rethrow_exception(task.error);
  }

 private:
  static void run_task(Task& task) {
    const bool was_in_parallel = tl_in_parallel;
    tl_in_parallel = true;
    for (;;) {
      const std::size_t lo =
          task.next.fetch_add(task.chunk, std::memory_order_relaxed);
      if (lo >= task.end) break;
      const std::size_t hi = std::min(lo + task.chunk, task.end);
      try {
        (*task.body)(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lk(task.error_mu);
        if (!task.error) task.error = std::current_exception();
      }
    }
    tl_in_parallel = was_in_parallel;
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      Task* task = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] {
          return stop_ || (task_ != nullptr && generation_ != seen);
        });
        if (stop_) return;
        seen = generation_;
        task = task_;
        ++task->in_flight;
      }
      run_task(*task);
      {
        std::lock_guard<std::mutex> lk(mu_);
        --task->in_flight;
      }
      done_cv_.notify_one();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  Task* task_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

struct Executor {
  std::mutex mu;  // guards pool reconfiguration and serializes dispatches
  std::atomic<std::size_t> threads{1};  // lock-free for num_threads()
  std::unique_ptr<ThreadPool> pool;  // workers = threads - 1; null if serial
};

// PRIMER_THREADS clamps here: a typo such as 40000 must not start tens of
// thousands of pool threads.
constexpr std::uint64_t kMaxEnvThreads = 256;

std::size_t env_default_threads() {
  const std::uint64_t v = env_u64("PRIMER_THREADS", 1, 0, kMaxEnvThreads);
  if (v == 0) return hardware_threads();  // 0: match set_num_threads(0)
  return static_cast<std::size_t>(v);
}

Executor& executor() {
  static Executor* exec = [] {
    const std::size_t t = env_default_threads();
    auto* e = new Executor;
    e->threads.store(t, std::memory_order_relaxed);
    if (t > 1) e->pool = std::make_unique<ThreadPool>(t - 1);
    return e;
  }();
  return *exec;
}

void dispatch(std::size_t begin, std::size_t end, std::size_t grains,
              const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  if (tl_in_parallel) {  // nested region: run inline, never deadlock
    body(begin, end);
    return;
  }
  Executor& exec = executor();
  std::unique_lock<std::mutex> lk(exec.mu);
  const std::size_t threads = exec.threads.load(std::memory_order_relaxed);
  if (threads <= 1 || end - begin <= 1 || exec.pool == nullptr) {
    lk.unlock();
    body(begin, end);
    return;
  }
  // Oversubscribe chunks a little so an uneven iteration cannot leave the
  // other workers idle behind one straggler.
  const std::size_t n = end - begin;
  const std::size_t target = threads * grains;
  const std::size_t chunk = std::max<std::size_t>(1, n / target);
  exec.pool->run(begin, end, chunk, body);
}

}  // namespace

std::size_t hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t num_threads() {
  return executor().threads.load(std::memory_order_relaxed);
}

void set_num_threads(std::size_t n) {
  if (n == 0) n = hardware_threads();
  Executor& exec = executor();
  std::lock_guard<std::mutex> lk(exec.mu);
  if (n == exec.threads.load(std::memory_order_relaxed)) return;
  exec.pool.reset();
  exec.threads.store(n, std::memory_order_relaxed);
  if (n > 1) exec.pool = std::make_unique<ThreadPool>(n - 1);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  dispatch(begin, end, /*grains=*/4,
           [&](std::size_t lo, std::size_t hi) {
             for (std::size_t i = lo; i < hi; ++i) body(i);
           });
}

void parallel_for(std::size_t begin, std::size_t end,
                  std::size_t work_per_item,
                  const std::function<void(std::size_t)>& body) {
  if (begin < end && (end - begin) * work_per_item < kSerialGrain) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  parallel_for(begin, end, body);
}

void parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  dispatch(begin, end, /*grains=*/1, body);
}

void parallel_for_2d(std::size_t rows, std::size_t cols,
                     const std::function<void(std::size_t, std::size_t)>&
                         body) {
  if (rows == 0 || cols == 0) return;
  dispatch(0, rows * cols, /*grains=*/4,
           [&](std::size_t lo, std::size_t hi) {
             for (std::size_t i = lo; i < hi; ++i) {
               body(i / cols, i % cols);
             }
           });
}

}  // namespace primer
