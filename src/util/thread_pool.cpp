#include "util/thread_pool.hpp"

#include <algorithm>

namespace capes::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // One parallel_for queues `threads` chunks; room for a few concurrent
  // callers up front keeps the ring from growing in the common case.
  chunks_.resize(4 * threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return stop_ || chunk_count_ > 0; });
    if (chunk_count_ == 0) return;  // stop_ with nothing queued
    const Chunk chunk = chunks_[chunk_head_];
    chunk_head_ = (chunk_head_ + 1) % chunks_.size();
    --chunk_count_;
    lock.unlock();
    run_chunk(*chunk.job, chunk.begin, chunk.end);
    lock.lock();
    // The caller may return (and drop its Job) as soon as pending hits
    // zero, so the job is not touched after this decrement.
    if (--chunk.job->pending == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run_chunk(Job& job, std::size_t begin, std::size_t end) {
  try {
    for (std::size_t i = begin; i < end; ++i) job.fn(i);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!job.first_error) job.first_error = std::current_exception();
  }
}

void ThreadPool::reserve_chunks(std::size_t more) {
  if (chunk_count_ + more <= chunks_.size()) return;
  // Unroll the ring into a buffer big enough for `more` extra chunks.
  std::vector<Chunk> grown(std::max(2 * chunks_.size(), chunk_count_ + more));
  for (std::size_t i = 0; i < chunk_count_; ++i) {
    grown[i] = chunks_[(chunk_head_ + i) % chunks_.size()];
  }
  chunks_ = std::move(grown);
  chunk_head_ = 0;
}

void ThreadPool::parallel_for(std::size_t n, IndexFn fn) {
  if (n == 0) return;
  const std::size_t nthreads = workers_.size() + 1;  // workers + caller
  const std::size_t chunk = (n + nthreads - 1) / nthreads;
  // Every chunk — including the caller's — runs under first-exception
  // capture, and the caller always waits for all queued chunks before
  // rethrowing, so no worker is left holding a dangling `fn`.
  Job job(fn);
  if (chunk < n) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Grow first: nothing may point at `job` if this throws.
      reserve_chunks((n - 1) / chunk);
      for (std::size_t begin = chunk; begin < n; begin += chunk) {
        chunks_[(chunk_head_ + chunk_count_) % chunks_.size()] = {
            &job, begin, std::min(n, begin + chunk)};
        ++chunk_count_;
        ++job.pending;
      }
    }
    cv_.notify_all();
  }
  run_chunk(job, 0, std::min(chunk, n));
  if (chunk < n) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&job] { return job.pending == 0; });
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace capes::util
