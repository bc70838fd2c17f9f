// A small persistent thread pool with a blocking parallel_for.
//
// Each GrB_Context that requests more than one thread owns one pool
// (paper §IV: contexts specify how resources such as threads are
// allocated).  parallel_for is cooperative: the calling thread executes
// chunks alongside the workers, so nthreads == 1 degenerates to an inline
// loop with no synchronization.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/type.hpp"
#include "util/thread_annotations.hpp"

namespace grb {

// Test hook: when installed, every pool lane (worker threads and the
// thread calling parallel_for) reports its id once per chunk it executes.
// Tests use this to assert that a context's thread budget actually caps
// the number of distinct threads a kernel runs on.  Pass nullptr to
// uninstall.  The observer must be thread-safe.
void set_thread_observer(void (*observer)(std::thread::id));

// --- Reusable per-thread scratch arena -----------------------------------
// Kernels request named scratch buffers (hash tables, dense SPAs, vector
// probes) that persist for the lifetime of the thread, so repeated ops
// stop paying allocation + first-touch page-fault cost.  Buffers only
// grow; `purge` releases them (GrB_finalize calls it on the user thread;
// worker arenas die with their pool's threads).
//
// Zeroed protocol: `request_zeroed` hands back a buffer whose first
// `bytes` are zero, then treats it as dirty.  A kernel that restores the
// zeros itself (e.g. a SPA clearing only the entries it touched) calls
// `mark_zeroed` so the next `request_zeroed` can skip the memset; if the
// kernel unwinds early the slot stays dirty and the next request pays
// one memset — never incorrect, only slower.
class ScratchArena {
 public:
  enum Slot {
    kHashKeys = 0,  // zeroed protocol: key 0 means "empty bucket"
    kHashVals,
    kHashPairs,
    kDenseFlags,    // zeroed protocol: flag 0 means "column absent"
    kDenseVals,     // zeroed protocol in the masked saxpy's count fold
    kDenseTouched,
    kVecPresent,
    kVecVals,
    kSlotCount,
  };

  // purge() also settles the arena memory-attribution gauges, so a
  // dying thread's arena credits its bytes back (obs/memory.hpp).
  ~ScratchArena() { purge(); }

  std::byte* request(int slot, size_t bytes);
  std::byte* request_zeroed(int slot, size_t bytes);
  void mark_zeroed(int slot);
  void purge();

 private:
  struct Buf {
    std::unique_ptr<std::byte[]> data;
    size_t cap = 0;
    // Zeroed prefix available to the next request_zeroed, and the length
    // that mark_zeroed will restore (the extent of the last zeroed grant).
    size_t zeroed = 0;
    size_t granted_zeroed = 0;
  };
  Buf bufs_[kSlotCount];
};

// The calling thread's arena (thread_local).  Buffers handed out by one
// thread's arena must not be written by another thread; read-only sharing
// during a parallel region (e.g. a gathered vector probe) is fine.
ScratchArena& thread_arena();

class ThreadPool {
 public:
  // How long an idle worker, and a parallel_for caller waiting for the
  // last chunk, poll an atomic before they block on a condition variable.
  // A chain of small ops (one parallel_for every few microseconds) then
  // hands work over without a futex wake; an idle pool still parks.
  static constexpr std::chrono::microseconds kSpinWindow{50};

  explicit ThreadPool(int nthreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int nthreads() const { return nthreads_; }

  // Stable id keying this pool's utilization gauges in obs::stats_json.
  int obs_id() const { return obs_id_; }

  // Runs body(lo, hi) over a partition of [begin, end) with chunks of at
  // least `grain` iterations.  Blocks until every chunk has finished.
  // body must not recursively call parallel_for on the same pool.
  void parallel_for(Index begin, Index end, Index grain,
                    const std::function<void(Index, Index)>& body)
      GRB_EXCLUDES(mu_);

 private:
  // One parallel_for invocation.  The struct is immutable except for the
  // two atomics, and is published to workers through mu_, so a straggler
  // holding a previous job's pointer can never observe torn state from a
  // newer job.
  struct Job {
    const std::function<void(Index, Index)>* body;
    Index end = 0;
    Index chunk = 1;
    std::atomic<Index> next{0};
    std::atomic<Index> pending_chunks{0};
  };

  void worker_loop() GRB_EXCLUDES(mu_);
  // `worker_lane` distinguishes chunks taken by pool workers ("steals"
  // in the utilization gauges) from chunks the parallel_for caller runs.
  bool grab_and_run(Job& job, bool worker_lane) GRB_EXCLUDES(mu_);

  int nthreads_;
  const int obs_id_;
  std::vector<std::thread> workers_;

  Mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool shutdown_ GRB_GUARDED_BY(mu_) = false;

  // The current job is *published* to workers under mu_ (the straggler
  // comment on Job explains why); its own fields are immutable-or-atomic
  // and are accessed lock-free once a worker holds the shared_ptr.
  std::shared_ptr<Job> job_ GRB_GUARDED_BY(mu_);
  uint64_t generation_ GRB_GUARDED_BY(mu_) = 0;
  // generation_ mirrored for workers polling in the spin window, and
  // bumped once more at shutdown.  Seeing it move only tells a worker to
  // take mu_; job_ is still read under the lock.
  std::atomic<uint64_t> published_{0};
};

}  // namespace grb
