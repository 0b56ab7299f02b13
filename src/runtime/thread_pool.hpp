// Shared-memory worker pool with one cost rule for every dispatch.
//
// Callers estimate the work of a range and ask chunks_for how many
// contiguous chunks it is worth: none below 20 us of work (waking a
// worker costs more than it hides), otherwise one per ~100 us, never
// more than the range has items or the pool has workers.  parallel_for
// then runs that many balanced chunks, one per worker, and on request
// reports the summed run time of the chunks so a caller can refine its
// estimate.
// A process-global pool is shared by all executors; the worker count
// defaults to the hardware concurrency and can be overridden with
// DACEPP_NUM_THREADS.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dace::rt {

/// Non-owning reference to a callable: a data pointer plus a trampoline.
/// Trivially copyable and never allocates, unlike std::function -- the
/// per-launch dispatch path uses it so a parallel map adds no heap
/// traffic.  The referenced callable must outlive every call (satisfied
/// here: parallel_for blocks until all workers finish).
template <typename Sig>
class function_ref;

template <typename R, typename... Args>
class function_ref<R(Args...)> {
 public:
  function_ref() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, function_ref> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  function_ref(F&& f)  // NOLINT: implicit by design, mirrors std::function
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// The cost rule: how many chunks `n` items of total work `cost_ns`
  /// are worth.  1 below 20 us, else ceil(cost_ns / 100 us), clamped to
  /// [1, min(n, num_threads())].
  int chunks_for(int64_t n, double cost_ns) const;

  /// Run body(begin, end) over [0, n) split into `chunks` balanced
  /// contiguous ranges handed to distinct workers, the calling thread
  /// included.  The count is clamped to [1, min(n, num_threads())], so
  /// no worker is ever woken for an empty range.  One chunk, and nested
  /// calls, run body(0, n) inline.  A call from another thread while the
  /// workers are busy runs its chunks one after another on that thread,
  /// so any number of external threads may call at once.  With `work_ns`
  /// given, stores the summed run time of the chunks in ns there: the
  /// work done, not the wall time it took.  The clock is read only then.
  void parallel_for(int64_t n, int chunks,
                    function_ref<void(int64_t, int64_t)> body,
                    int64_t* work_ns = nullptr);

  /// Process-global pool (DACEPP_NUM_THREADS or hardware concurrency).
  static ThreadPool& global();

 private:
  void worker_loop(int index);
  /// Dispatch job_ to workers [0, k); workers >= k skip the generation
  /// without touching the job.  Caller runs index 0 and blocks for the
  /// rest.  When another thread is already dispatching, the caller runs
  /// all k indices inline instead.  Precondition: k >= 2, not nested,
  /// num_threads_ > 1.
  void run_on(int k, function_ref<void(int)> body);

  int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex dispatch_mu_;  // held by the one caller owning the workers
  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  function_ref<void(int)> job_;  // worker index -> work
  uint64_t generation_ = 0;
  int active_ = 0;  // workers participating in the current generation
  int pending_ = 0;
  bool stop_ = false;
  static thread_local bool in_parallel_region_;
};

}  // namespace dace::rt
