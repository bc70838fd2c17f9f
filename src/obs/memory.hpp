// Memory attribution: the second observability layer (DESIGN.md §11).
//
// Every container data block (CSR arrays, coordinate lists, value
// arrays, pending-tuple stores) and every scratch-arena buffer routes
// its allocations through a counting allocator hook, so three questions
// become answerable at run time:
//   * "which matrix ate 3 GiB" — per-object live/peak gauges
//     (GxB_Object_memory, GxB_Memory_report);
//   * "how much is the library holding right now" — library-wide
//     current/peak totals;
//   * "is the scratch arena the problem" — pool-arena live/peak.
//
// Accounting is ALWAYS ON: a charge is two relaxed atomic RMWs plus a
// relaxed peak CAS, paid once per container growth event (not per
// element), which is noise against the allocation itself.  Accounts are
// shared_ptr-owned by the allocator instances, so vectors moved out of a
// dying data block keep a live account to credit on destruction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace grb {
namespace obs {

// One attribution bucket.  `live` is bytes currently allocated against
// the account; `peak` is its high-water mark.  Both relaxed: gauges
// tolerate momentary skew, sums are exact once quiescent.
struct MemAccount {
  std::atomic<uint64_t> live{0};
  std::atomic<uint64_t> peak{0};
};

// Library-wide totals (every tracked allocation, incl. the arena).
uint64_t mem_live_total();
uint64_t mem_peak_total();

// Scratch-arena (exec/thread_pool.hpp ScratchArena) slice of the totals.
uint64_t mem_arena_live();
uint64_t mem_arena_peak();

// Charge/credit `bytes` against `acct` (may be null: totals only) and
// the library totals.  The arena variants also feed the arena account.
void mem_charge(MemAccount* acct, size_t bytes);
void mem_credit(MemAccount* acct, size_t bytes);
void arena_charge(size_t bytes);
void arena_credit(size_t bytes);

inline uint64_t account_live(const MemAccount& a) {
  return a.live.load(std::memory_order_relaxed);
}
inline uint64_t account_peak(const MemAccount& a) {
  return a.peak.load(std::memory_order_relaxed);
}

// --- Counting allocator ----------------------------------------------------
// A std::allocator wrapper charging an account.  Stateful: propagates on
// copy/move/swap so bytes follow the container that owns them, and the
// shared_ptr keeps the account alive for as long as any container still
// holds memory charged to it.
template <class T>
class TrackedAlloc {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  TrackedAlloc() noexcept = default;
  explicit TrackedAlloc(std::shared_ptr<MemAccount> acct) noexcept
      : acct_(std::move(acct)) {}
  template <class U>
  TrackedAlloc(const TrackedAlloc<U>& other) noexcept
      : acct_(other.account()) {}

  T* allocate(size_t n) {
    T* p = std::allocator<T>{}.allocate(n);
    mem_charge(acct_.get(), n * sizeof(T));
    return p;
  }
  void deallocate(T* p, size_t n) noexcept {
    mem_credit(acct_.get(), n * sizeof(T));
    std::allocator<T>{}.deallocate(p, n);
  }

  const std::shared_ptr<MemAccount>& account() const noexcept {
    return acct_;
  }

  friend bool operator==(const TrackedAlloc& a, const TrackedAlloc& b) {
    return a.acct_ == b.acct_;
  }
  friend bool operator!=(const TrackedAlloc& a, const TrackedAlloc& b) {
    return !(a == b);
  }

 private:
  std::shared_ptr<MemAccount> acct_;
};

template <class T>
using TrackedVec = std::vector<T, TrackedAlloc<T>>;

// --- Per-object registry (GxB_Memory_report) -------------------------------
// Containers register themselves at the end of construction and
// unregister in their own destructor (while the derived vtable is still
// live), so the report can walk every live GrB object.
class MemReportable {
 public:
  struct Snapshot {
    const char* kind = "";    // "matrix" / "vector" / "scalar"
    const char* format = "";  // storage layout ("csr", "sparse")
    uint64_t rows = 0, cols = 0;
    uint64_t nvals = 0;
    uint64_t live_bytes = 0;
    uint64_t peak_bytes = 0;
    // Bytes held by the cached transpose of the current block
    // (included in live_bytes).
    uint64_t view_bytes = 0;
    uint64_t ctx = 0;         // home-context obs id (0 = unattributed)
  };
  virtual void mem_snapshot(Snapshot* out) const = 0;

 protected:
  ~MemReportable() = default;
};

void mem_register(const MemReportable* obj);
void mem_unregister(const MemReportable* obj);  // idempotent
uint64_t mem_object_count();

// Per-context memory attribution, computed at read time by walking the
// live-object registry and grouping snapshots by home-context id.  The
// ids are RAW (a freed context keeps attributing its surviving objects
// under its old id); telemetry.cpp resolves dead ids to the nearest
// live ancestor, so rollup-on-free holds exactly by construction —
// charge/credit balance never depends on when a context died.
// `peak_bytes` is the sum of per-object peaks, not a true group
// high-water mark.
struct CtxMemSlice {
  uint64_t ctx = 0;
  uint64_t live_bytes = 0;
  uint64_t peak_bytes = 0;
  uint64_t objects = 0;
};
std::vector<CtxMemSlice> mem_by_ctx();

// Annotated text report: totals, arena, then every live object sorted
// by live bytes descending.  Backs GxB_Memory_report.
std::string memory_report();

}  // namespace obs
}  // namespace grb
