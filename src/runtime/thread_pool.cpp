#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/env.hpp"
#include "common/obs.hpp"

namespace dace::rt {

namespace {

// Chunk grain: a chunk should carry about kChunkTargetNs of work, and
// work cheaper than kChunkMinNs in total is not worth a dispatch.
constexpr double kChunkTargetNs = 100000;
constexpr double kChunkMinNs = 20000;

}  // namespace

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

int ThreadPool::chunks_for(int64_t n, double cost_ns) const {
  if (cost_ns < kChunkMinNs) return 1;
  double chunks = std::ceil(cost_ns / kChunkTargetNs);
  double cap = (double)std::min<int64_t>(n, num_threads_);
  return (int)std::max(1.0, std::min(chunks, cap));
}

void ThreadPool::parallel_for(int64_t n, int chunks,
                              function_ref<void(int64_t, int64_t)> body,
                              int64_t* work_ns) {
  if (work_ns) *work_ns = 0;
  if (n <= 0) return;
  chunks = (int)std::min<int64_t>(chunks, n);  // never an empty range
  chunks = std::min(chunks, num_threads_);
  if (chunks <= 1 || in_parallel_region_) {
    int64_t t0 = work_ns ? obs::now_ns() : 0;
    body(0, n);
    if (work_ns) *work_ns = obs::now_ns() - t0;
    return;
  }
  // Balanced split: the first n % chunks ranges get one extra iteration,
  // so range sizes differ by at most one and none is empty.
  int64_t q = n / chunks, r = n % chunks;
  std::atomic<int64_t> work{0};
  run_on(chunks, [&](int w) {
    int64_t b = w * q + std::min<int64_t>(w, r);
    int64_t e = b + q + (w < r ? 1 : 0);
    int64_t t0 = work_ns ? obs::now_ns() : 0;
    body(b, e);
    if (work_ns)
      work.fetch_add(obs::now_ns() - t0, std::memory_order_relaxed);
  });
  if (work_ns) *work_ns = work.load(std::memory_order_relaxed);
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
