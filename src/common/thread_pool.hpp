// Fixed-size thread pool with parallel_for/parallel_map helpers. The
// experiment harnesses use it to evaluate independent work items
// concurrently (Fig. 2's 200 random configs, Fig. 6/7's workload sweeps,
// repeated-seed loops). All parallelism in the library is explicit.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/math_util.hpp"

namespace deepcat::common {

class ThreadPool {
 public:
  /// `num_threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; the returned future surfaces exceptions to the caller.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n), blocking until all complete.
  ///
  /// Work is block-partitioned into at most size() contiguous chunks — one
  /// task per worker, not one per index — and fn is invoked directly (no
  /// per-index std::function hop). Within a chunk, indices run in
  /// increasing order on a single worker thread.
  ///
  /// Thread-safety contract for `fn`: it is called concurrently from
  /// multiple worker threads with distinct indices. It must not mutate
  /// shared state without synchronization; writing to disjoint per-index
  /// slots (e.g. out[i]) is safe. For deterministic results independent of
  /// the pool size, derive all randomness from the index (see mix_seed in
  /// common/rng.hpp) instead of sharing an RNG across indices.
  ///
  /// Exceptions: a throwing chunk skips its own remaining indices, but the
  /// other chunks are never cancelled — all are awaited. If several chunks
  /// throw, the earliest-submitted chunk's exception is rethrown here.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    if (n == 1) {  // run inline: nothing to overlap, skip the queue
      fn(std::size_t{0});
      return;
    }
    const std::size_t chunks = std::min(n, size());
    const std::size_t per_chunk = ceil_div(n, chunks);
    std::vector<std::future<void>> futures;
    futures.reserve(chunks);
    for (std::size_t begin = 0; begin < n; begin += per_chunk) {
      const std::size_t end = std::min(n, begin + per_chunk);
      futures.push_back(submit([&fn, begin, end] {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      }));
    }
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Evaluates fn(i) for i in [0, n) on the pool and returns the results
/// indexed by i. Because each result lands in its own slot and fn should
/// depend only on i (per-index seeding), the returned vector is identical
/// for any pool size — the harness determinism guarantee rests on this.
template <typename Fn>
[[nodiscard]] auto parallel_map(ThreadPool& pool, std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> out(n);
  pool.parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace deepcat::common
