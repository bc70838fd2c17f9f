#include "exec/thread_pool.hpp"

#include <algorithm>
#include <cstring>

#include "obs/memory.hpp"
#include "obs/telemetry.hpp"

namespace grb {
namespace {

std::atomic<void (*)(std::thread::id)> g_thread_observer{nullptr};

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Polls `ready` until it holds (true) or ThreadPool::kSpinWindow has
// passed (false).  The clock is read every 64 polls.  Every 512 polls
// (≈10 µs) the spinner also yields the CPU: when another tenant holds a
// CPU, it must not keep the thread it waits for off this one for the
// whole window.  Yielding on every clock read is too often: it gives
// back most of what the window saves on ktruss.
template <class Ready>
bool spin_until(Ready ready) {
  if (ready()) return true;
  const auto deadline =
      std::chrono::steady_clock::now() + ThreadPool::kSpinWindow;
  for (unsigned polls = 1;; ++polls) {
    cpu_pause();
    if (ready()) return true;
    if (polls % 64 == 0) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      if (polls % 512 == 0) std::this_thread::yield();
    }
  }
}

}  // namespace

void set_thread_observer(void (*observer)(std::thread::id)) {
  g_thread_observer.store(observer, std::memory_order_release);
}

std::byte* ScratchArena::request(int slot, size_t bytes) {
  Buf& b = bufs_[slot];
  const bool hit = b.cap >= bytes;
  if (!hit) {
    size_t cap = std::max(bytes, b.cap * 2);
    // Raw new[]: default-initialized, no value-init memset on a buffer
    // the caller is about to overwrite anyway.
    b.data.reset(new std::byte[cap]);
    obs::arena_credit(b.cap);
    obs::arena_charge(cap);
    b.cap = cap;
  }
  b.zeroed = 0;
  if (obs::stats_enabled()) obs::arena_request(hit);
  return b.data.get();
}

std::byte* ScratchArena::request_zeroed(int slot, size_t bytes) {
  Buf& b = bufs_[slot];
  const bool hit = b.cap >= bytes && b.zeroed >= bytes;
  if (b.cap < bytes) {
    size_t cap = std::max(bytes, b.cap * 2);
    b.data.reset(new std::byte[cap]);
    obs::arena_credit(b.cap);
    obs::arena_charge(cap);
    b.cap = cap;
    b.zeroed = 0;
  }
  if (b.zeroed < bytes)
    std::memset(b.data.get() + b.zeroed, 0, bytes - b.zeroed);
  // Dirty until the caller restores the zeros (mark_zeroed).
  b.granted_zeroed = std::max(b.zeroed, bytes);
  b.zeroed = 0;
  if (obs::stats_enabled()) obs::arena_request(hit);
  return b.data.get();
}

void ScratchArena::mark_zeroed(int slot) {
  Buf& b = bufs_[slot];
  b.zeroed = b.granted_zeroed;
}

void ScratchArena::purge() {
  for (Buf& b : bufs_) {
    b.data.reset();
    obs::arena_credit(b.cap);
    b.cap = 0;
    b.zeroed = 0;
    b.granted_zeroed = 0;
  }
}

ScratchArena& thread_arena() {
  static thread_local ScratchArena arena;
  return arena;
}

ThreadPool::ThreadPool(int nthreads)
    : nthreads_(std::max(1, nthreads)), obs_id_(obs::next_pool_id()) {
  // nthreads_ - 1 workers; the caller of parallel_for is the last lane.
  for (int i = 1; i < nthreads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    // Moves workers still in their spin window on to mu_ at once.
    published_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::grab_and_run(Job& job, bool worker_lane) {
  Index i = job.next.fetch_add(job.chunk, std::memory_order_relaxed);
  if (i >= job.end) return false;
  Index hi = std::min(job.end, i + job.chunk);
  if (auto* obs = g_thread_observer.load(std::memory_order_acquire))
    obs(std::this_thread::get_id());
  const bool telemetry = obs::enabled();
  if (telemetry) {
    obs::pool_chunk(obs_id_, worker_lane);
    obs::pool_busy_enter(obs_id_);
  }
  (*job.body)(i, hi);
  if (telemetry) obs::pool_busy_exit(obs_id_);
  if (job.pending_chunks.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Taking mu_ orders the notify after the waiter's condition check, so
    // the last chunk's wakeup can never be lost.
    MutexLock lock(mu_);
    done_cv_.notify_all();
  }
  return true;
}

void ThreadPool::worker_loop() {
  uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    bool parked = false;
    bool quit = false;
    uint64_t park_t0 = 0;
    // Wait for the next job on the atomic first: a job published within
    // the window costs no futex wake.  Only then park on work_cv_.
    spin_until([&] {
      return published_.load(std::memory_order_acquire) != seen;
    });
    {
      // The wait condition is an explicit loop (not a predicate lambda)
      // so the capability analysis sees the guarded reads under mu_.
      CvLock lock(mu_);
      while (!shutdown_ && generation_ == seen) {
        // One park per idle episode, not per spurious wakeup.  The
        // counter bump happens after the lock is released: the park
        // hook can lazily allocate this pool's counter block and land
        // a trace event, neither of which belongs under mu_.
        parked = true;
        if (park_t0 == 0 && obs::enabled()) park_t0 = obs::now_ns();
        lock.wait(work_cv_);
      }
      if (shutdown_) {
        quit = true;
      } else {
        seen = generation_;
        job = job_;
      }
    }
    if (parked && obs::enabled()) {
      obs::pool_park(obs_id_,
                     park_t0 != 0 ? obs::now_ns() - park_t0 : 0);
    }
    if (quit) return;
    if (job == nullptr) continue;
    while (grab_and_run(*job, /*worker_lane=*/true)) {
    }
  }
}

void ThreadPool::parallel_for(Index begin, Index end, Index grain,
                              const std::function<void(Index, Index)>& body) {
  if (begin >= end) return;
  Index n = end - begin;
  if (grain == 0) grain = 1;
  if (nthreads_ == 1 || n <= grain) {
    body(begin, end);
    return;
  }
  Index chunk = std::max<Index>(grain, n / (static_cast<Index>(nthreads_) * 4));
  Index nchunks = (n + chunk - 1) / chunk;
  auto job = std::make_shared<Job>();
  job->body = &body;
  job->end = end;
  job->chunk = chunk;
  job->next.store(begin, std::memory_order_relaxed);
  job->pending_chunks.store(static_cast<Index>(nchunks),
                            std::memory_order_relaxed);
  obs::pool_submit(obs_id_, static_cast<uint64_t>(nchunks));
  {
    MutexLock lock(mu_);
    job_ = job;
    ++generation_;
    published_.store(generation_, std::memory_order_release);
  }
  work_cv_.notify_all();
  while (grab_and_run(*job, /*worker_lane=*/false)) {
  }
  // The workers' last chunks usually finish within the window, so the
  // caller polls before it blocks on done_cv_.
  if (spin_until([&] {
        return job->pending_chunks.load(std::memory_order_acquire) == 0;
      }))
    return;
  CvLock lock(mu_);
  while (job->pending_chunks.load(std::memory_order_acquire) != 0)
    lock.wait(done_cv_);
}

}  // namespace grb
