// Small work-stealing thread pool for fanning independent solves.
//
// Design constraints, in priority order:
//   1. Determinism — parallel_for(n, body) invokes body(i) exactly once per
//      index; callers write results[i], so output ordering never depends on
//      scheduling. The pool guarantees nothing about *execution* order.
//   2. Load balance — indices are dealt to per-worker deques in contiguous
//      blocks; an idle worker pops from the front of its own deque and
//      steals from the back of a victim's, so uneven work (e.g. thermal
//      runaway points whose Newton loops run long) migrates automatically.
//   3. Simplicity — one job in flight at a time, mutex-guarded deques. The
//      tasks this pool exists for (steady-state solves, OFTEC runs) cost
//      milliseconds to seconds each, so queue overhead is irrelevant.
//
// The calling thread participates as a worker, so ThreadPool(1) runs the
// loop inline with zero synchronization. Nested parallel_for calls on the
// same pool degrade to inline execution instead of deadlocking.
//
// Thread count resolution: explicit argument, else the OFTEC_THREADS
// environment variable, else std::thread::hardware_concurrency().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace oftec::util {

class ThreadPool {
 public:
  /// `threads` = total workers including the calling thread; 0 → resolve via
  /// default_thread_count(). A pool of 1 spawns no background threads.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size() + 1;
  }

  /// OFTEC_THREADS environment variable if set (clamped to ≥ 1), else
  /// hardware concurrency, else 1.
  [[nodiscard]] static std::size_t default_thread_count();

  /// Invoke body(i) once for each i in [0, count), distributed over all
  /// workers; blocks until every index has completed. The first exception
  /// thrown by any body is rethrown here (remaining indices are skipped on
  /// a best-effort basis). Reentrant calls from inside a body run inline.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// True while the calling thread runs a body that some pool's
  /// parallel_for dealt to its participants. Any parallel_for called there
  /// runs inline, so callers can skip setting up parallel work (or a pool)
  /// that could not run in parallel.
  [[nodiscard]] static bool inside_parallel_body() noexcept;

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::size_t> indices;
  };

  /// One parallel_for invocation.
  struct Job {
    const std::function<void(std::size_t)>* body = nullptr;
    std::vector<std::unique_ptr<WorkerQueue>> queues;
    std::atomic<std::size_t> remaining{0};
    std::atomic<bool> cancelled{false};
    std::mutex error_mutex;
    std::exception_ptr error;
  };

  void worker_loop(std::size_t worker_id);
  /// Drain the job as participant `self`: own deque first, then steal.
  static void participate(Job& job, std::size_t self);
  static bool pop_or_steal(Job& job, std::size_t self, std::size_t& index);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_cv_;   // workers wait here for a new job
  std::condition_variable done_cv_;   // the submitter waits here
  std::shared_ptr<Job> job_;          // null when idle
  std::uint64_t job_seq_ = 0;
  bool stopping_ = false;
  std::mutex submit_mutex_;           // one parallel_for at a time
};

}  // namespace oftec::util
