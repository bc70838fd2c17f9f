#include "ops/spgemm.hpp"

#include <atomic>
#include <mutex>

namespace grb {
namespace {

// Dense scratch small enough to always prefer (cache-resident SPA beats
// a hash table when the whole thing fits in L2).
constexpr uint64_t kSmallDenseBytes = 256u << 10;

std::atomic<int> g_mode{static_cast<int>(SpgemmMode::kAuto)};
std::atomic<size_t> g_dense_budget{kDenseBudget};

}  // namespace

SpgemmMode spgemm_mode() {
  return static_cast<SpgemmMode>(g_mode.load(std::memory_order_relaxed));
}

void set_spgemm_mode(SpgemmMode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

size_t spgemm_dense_budget() {
  return g_dense_budget.load(std::memory_order_relaxed);
}

void set_spgemm_dense_budget(size_t bytes) {
  g_dense_budget.store(bytes != 0 ? bytes : kDenseBudget,
                       std::memory_order_relaxed);
}

SpgemmPolicy spgemm_policy(Index ncols, size_t zsize) {
  SpgemmPolicy p;
  p.mode = spgemm_mode();
  // Dense footprint per thread: flag byte + value + touched index per
  // column.
  const uint64_t footprint =
      static_cast<uint64_t>(ncols) * (1 + zsize + sizeof(Index));
  p.dense_ok = footprint <= spgemm_dense_budget();
  p.dense_always = footprint <= kSmallDenseBytes;
  // A row whose products touch a meaningful fraction of the columns
  // amortizes the O(ncols) clear; below that the hash SPA's working set
  // is proportional to the row's actual output.
  p.dense_flops = std::max<uint64_t>(16, ncols / 64);
  return p;
}

std::vector<Index> spgemm_partition(const std::vector<uint64_t>& weight,
                                    uint64_t total, Index nblocks) {
  const Index nrows = static_cast<Index>(weight.size());
  std::vector<Index> bounds(static_cast<size_t>(nblocks) + 1, nrows);
  bounds[0] = 0;
  if (nblocks <= 1) return bounds;
  total += nrows;  // weights are weight[i] + 1
  uint64_t seen = 0;
  Index b = 1;
  for (Index i = 0; i < nrows && b < nblocks; ++i) {
    seen += weight[i] + 1;
    // Close block b once its share of the weight is consumed.
    while (b < nblocks &&
           seen * static_cast<uint64_t>(nblocks) >=
               total * static_cast<uint64_t>(b)) {
      bounds[b++] = i + 1;
    }
  }
  return bounds;
}

// --- per-snapshot cost cache ------------------------------------------------

namespace {

// Snapshots are immutable and shared_ptr-held; a tiny ring keyed by
// weak_ptr identity is enough to de-duplicate the strategy probe, the
// engine and the flops telemetry within (and across) calls.  lock()
// validates that the slot still refers to the same live snapshots.
struct CostCacheEntry {
  std::weak_ptr<const MatrixData> a;
  std::weak_ptr<const MatrixData> b;
  std::shared_ptr<const SpgemmRowCosts> costs;
};

constexpr size_t kCostCacheSlots = 4;
std::mutex g_cost_mu;
CostCacheEntry g_cost_cache[kCostCacheSlots];
size_t g_cost_next = 0;

}  // namespace

std::shared_ptr<const SpgemmRowCosts> spgemm_row_costs(
    Context* ctx, const std::shared_ptr<const MatrixData>& a,
    const std::shared_ptr<const MatrixData>& b) {
  {
    std::lock_guard<std::mutex> lock(g_cost_mu);
    for (CostCacheEntry& e : g_cost_cache) {
      if (e.costs != nullptr && e.a.lock() == a && e.b.lock() == b) {
        return e.costs;
      }
    }
  }
  auto costs = std::make_shared<SpgemmRowCosts>();
  costs->flops.assign(a->nrows, 0);
  // Rows on the pool; each chunk adds its exact integer sum.
  std::atomic<uint64_t> total{0};
  ctx->parallel_for(0, a->nrows, [&](Index lo, Index hi) {
    uint64_t part = 0;
    for (Index i = lo; i < hi; ++i) {
      uint64_t f = 0;
      for (size_t ka = a->ptr[i]; ka < a->ptr[i + 1]; ++ka) {
        Index k = a->col[ka];
        if (k < b->nrows) f += b->ptr[k + 1] - b->ptr[k];
      }
      costs->flops[i] = f;
      part += f;
    }
    total.fetch_add(part, std::memory_order_relaxed);
  });
  costs->total = total.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(g_cost_mu);
    g_cost_cache[g_cost_next] = {a, b, costs};
    g_cost_next = (g_cost_next + 1) % kCostCacheSlots;
  }
  return costs;
}

void spgemm_cost_cache_clear() {
  std::lock_guard<std::mutex> lock(g_cost_mu);
  for (CostCacheEntry& e : g_cost_cache) e = CostCacheEntry{};
  g_cost_next = 0;
}

}  // namespace grb
