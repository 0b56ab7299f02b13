#include "runtime/thread_pool.hpp"

#include <algorithm>

#include "common/env.hpp"

namespace dace::rt {

thread_local bool ThreadPool::in_parallel_region_ = false;

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  // Worker 0 is the calling thread; spawn the rest.
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(int index) {
  uint64_t seen = 0;
  for (;;) {
    function_ref<void(int)> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      // Generations dispatched to fewer workers than the pool holds are
      // acknowledged (seen advances) without running the job or touching
      // pending_ -- spectator workers go straight back to sleep.
      cv_start_.wait(lk, [&] {
        while (!stop_ && generation_ != seen && index >= active_)
          seen = generation_;
        return stop_ || generation_ != seen;
      });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    in_parallel_region_ = true;
    job(index);
    in_parallel_region_ = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::run_on(int k, function_ref<void(int)> body) {
  // One dispatch at a time: a second external caller (a simMPI rank, a
  // serve worker) that finds the workers busy runs its chunks inline on
  // its own thread instead of overwriting the in-flight generation.
  std::unique_lock<std::mutex> dispatch(dispatch_mu_, std::try_to_lock);
  if (!dispatch.owns_lock()) {
    for (int w = 0; w < k; ++w) body(w);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = body;
    active_ = k;
    pending_ = k - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  in_parallel_region_ = true;
  body(0);
  in_parallel_region_ = false;
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return pending_ == 0; });
}

void ThreadPool::run_on_all(function_ref<void(int)> body) {
  if (num_threads_ == 1 || in_parallel_region_) {
    for (int i = 0; i < num_threads_; ++i) body(i);
    return;
  }
  run_on(num_threads_, body);
}

void ThreadPool::parallel_for(int64_t n, int chunks,
                              function_ref<void(int64_t, int64_t)> body) {
  if (n <= 0) return;
  chunks = (int)std::min<int64_t>(chunks, n);  // never an empty range
  chunks = std::min(chunks, num_threads_);
  if (chunks <= 1 || num_threads_ == 1 || in_parallel_region_) {
    body(0, n);
    return;
  }
  // Balanced split: the first n % chunks ranges get one extra iteration,
  // so range sizes differ by at most one and none is empty.
  int64_t q = n / chunks, r = n % chunks;
  run_on(chunks, [&](int w) {
    int64_t b = w * q + std::min<int64_t>(w, r);
    int64_t e = b + q + (w < r ? 1 : 0);
    body(b, e);
  });
}

void ThreadPool::parallel_for(int64_t n,
                              function_ref<void(int64_t, int64_t)> body) {
  if (n <= 0) return;
  if (n < 2 * num_threads_) {  // historical inline threshold
    body(0, n);
    return;
  }
  parallel_for(n, num_threads_, body);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    unsigned hc = std::thread::hardware_concurrency();
    return (int)env::integer("DACEPP_NUM_THREADS", hc > 0 ? (int)hc : 1, 1,
                             INT32_MAX);
  }());
  return pool;
}

}  // namespace dace::rt
