#pragma once
// Fixed-size worker pool used to parallelize GEMM panels and minibatch
// assembly. Follows the usual HPC pattern: create once, fan index ranges
// out with parallel_for, never detach threads (C++ Core Guidelines
// CP.23/CP.26).

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace capes::util {

/// Non-owning reference to a callable taking an index: two pointers, no
/// heap. The callable must outlive every call through the reference
/// (parallel_for blocks until done, so a lambda written in its argument
/// list is fine).
class IndexFn {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, IndexFn> &&
                std::is_invocable_v<F&, std::size_t>>>
  IndexFn(F&& f)  // implicit, like std::function
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, std::size_t i) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(i);
        }) {}

  void operator()(std::size_t i) const { call_(obj_, i); }

 private:
  void* obj_;
  void (*call_)(void*, std::size_t);
};

/// A minimal thread pool whose only work unit is a parallel_for chunk.
/// Destruction joins all workers.
class ThreadPool {
 public:
  /// Create `threads` workers; 0 means use hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(i) for i in [0, n) split into roughly even contiguous chunks
  /// across the pool (including the calling thread). Blocks until done,
  /// then rethrows the first exception any chunk threw. Allocation-free
  /// once the chunk ring has grown to the peak number of chunks in flight;
  /// safe to call from several threads at once.
  void parallel_for(std::size_t n, IndexFn fn);

 private:
  /// One parallel_for call; lives on the caller's stack.
  struct Job {
    explicit Job(IndexFn f) : fn(f) {}
    IndexFn fn;
    std::size_t pending = 0;  // queued or running worker chunks (mu_)
    std::exception_ptr first_error;  // (mu_)
  };
  struct Chunk {
    Job* job;
    std::size_t begin;
    std::size_t end;
  };

  void worker_loop();
  /// Runs [begin, end) of `job`, recording its first exception.
  void run_chunk(Job& job, std::size_t begin, std::size_t end);
  /// Makes room for `more` queued chunks (mu_ held).
  void reserve_chunks(std::size_t more);

  std::vector<std::thread> workers_;
  // Ring of parallel_for chunks: slots are reused, so steady-state
  // dispatch never touches the heap.
  std::vector<Chunk> chunks_;
  std::size_t chunk_head_ = 0;
  std::size_t chunk_count_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;       // work available / stop
  std::condition_variable done_cv_;  // some job's last chunk finished
  bool stop_ = false;
};

}  // namespace capes::util
