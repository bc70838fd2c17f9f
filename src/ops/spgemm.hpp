// Adaptive SpGEMM engine (paper §II: performance lives or dies on
// avoiding per-scalar overhead and wasted memory traffic).
//
// A cheap symbolic pass computes per-row flop counts (sum over A(i,k) of
// nnz(B(k,:))) and from them an nnz upper bound per row.  The counts
// drive three decisions:
//
//   1. per-row accumulator selection — a compact open-addressing hash
//      SPA for sparse/hypersparse rows, a dense O(ncols) SPA only when
//      the row's flop estimate justifies touching every column AND the
//      dense footprint fits a byte budget (so a 2^40-column hypersparse
//      matrix can never OOM the kernel);
//   2. flop-balanced (not row-balanced) contiguous block partitioning
//      handed to the GrB_Context thread pool;
//   3. exact reserve() of per-block output staging, killing per-entry
//      reallocation; the final CSR arrays are sized exactly and filled
//      with block-sized memcpys.
//
// Unlike the seed kernel (structural symbolic expansion + full numeric
// re-expansion), the engine expands each row ONCE: the numeric pass
// accumulates into block-local staging, and assembly is a copy.  All
// accumulators fold the products of a row in identical (ka, kb) visit
// order and emit columns sorted, so hash/dense/reference modes, any
// partition, and any thread count produce bitwise-identical results —
// the determinism contract of DESIGN.md §7.
//
// Scratch (hash tables, dense SPA, probe bitmaps) lives in the per-
// thread ScratchArena (exec/thread_pool.hpp), so repeated ops stop
// paying allocation + first-touch page-fault cost.
//
// set_spgemm_mode pins the accumulator choice (default kAuto; reference =
// the seed two-pass dense-SPA kernel, kept for ablation benches and the
// differential oracle).
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "containers/matrix.hpp"
#include "containers/vector.hpp"
#include "core/global.hpp"
#include "exec/context.hpp"
#include "exec/thread_pool.hpp"
#include "obs/decision.hpp"
#include "obs/telemetry.hpp"

namespace grb {

enum class SpgemmMode {
  kAuto = 0,       // per-row heuristic (the default)
  kHash = 1,       // always hash SPA
  kDense = 2,      // dense SPA whenever the budget allows
  kReference = 3,  // seed two-pass dense-SPA kernel (ablation baseline)
};

SpgemmMode spgemm_mode();
void set_spgemm_mode(SpgemmMode mode);

// Byte cap for any O(ncols)-shaped scratch (dense SPA, transpose column
// pointers, dense vector gathers).  The setter exists for the SpGEMM
// differential oracle, whose tiny-budget legs drive every row onto the
// over-budget paths; 0 restores kDenseBudget.
inline constexpr size_t kDenseBudget = size_t{64} << 20;
size_t spgemm_dense_budget();
void set_spgemm_dense_budget(size_t bytes);

// --- symbolic pass ---------------------------------------------------------

// Per-row flop counts for A*B: flops[i] = sum over A(i,k) with
// k < nrows(B) of nnz(B(k,:)).  total is the whole-product estimate the
// masked-dot cost model and the flops telemetry reuse.
struct SpgemmRowCosts {
  std::vector<uint64_t> flops;
  uint64_t total = 0;
};

// Computes (or returns a cached copy of) the row costs for the snapshot
// pair.  Snapshots are immutable copy-on-write values, so pointer
// identity keys a small cache: strategy probes, the engine, and the
// flops telemetry all reuse one O(nnz(A)) scan per (A, B) pair.  The
// scan runs over rows on `ctx`, the caller's exec_context() choice.
std::shared_ptr<const SpgemmRowCosts> spgemm_row_costs(
    Context* ctx, const std::shared_ptr<const MatrixData>& a,
    const std::shared_ptr<const MatrixData>& b);

// Drops cached cost entries (library_finalize).
void spgemm_cost_cache_clear();

// --- accumulator policy ----------------------------------------------------

// Resolved per-product policy: which accumulator does a row with
// `row_flops` estimated products get?
struct SpgemmPolicy {
  SpgemmMode mode;
  bool dense_ok;         // dense footprint fits the byte budget
  bool dense_always;     // footprint small enough to always prefer dense
  uint64_t dense_flops;  // flop threshold justifying an O(ncols) touch

  bool use_dense(uint64_t row_flops) const {
    switch (mode) {
      case SpgemmMode::kDense:
        // A pinned dense mode still honors the budget: over it, the
        // hash SPA is the only allocation that cannot abort the process.
        return dense_ok;
      case SpgemmMode::kHash:
        return false;
      default:
        return dense_ok && (dense_always || row_flops >= dense_flops);
    }
  }
};

SpgemmPolicy spgemm_policy(Index ncols, size_t zsize);

// Weight-balanced contiguous row blocks: boundaries[b]..boundaries[b+1]
// is block b, chosen so each block carries ~total/nblocks of the weight
// weight[i] + 1 (the +1 keeps empty rows from collapsing into one block).
// `total` is the sum of weight[]; the row count is weight.size().  The
// engines pass the symbolic flops, masked-dot the mask row lengths.
std::vector<Index> spgemm_partition(const std::vector<uint64_t>& weight,
                                    uint64_t total, Index nblocks);

// --- accumulators ----------------------------------------------------------

// Block-local staged output: rows are appended in order, assembly copies
// the whole block into the final CSR arrays with one memcpy each.
struct SpgemmStage {
  std::vector<Index> col;
  std::vector<std::byte> vals;

  // Appends room for n entries; returns write cursors.
  std::pair<Index*, std::byte*> grow(size_t n, size_t zsize) {
    size_t oc = col.size();
    col.resize(oc + n);
    size_t ov = vals.size();
    vals.resize(ov + n * zsize);
    return {col.data() + oc, vals.data() + ov};
  }

  // Drops the last n entries (the unused tail of an upper-bound grow).
  void trim(size_t n, size_t zsize) {
    col.resize(col.size() - n);
    vals.resize(vals.size() - n * zsize);
  }
};

// Open-addressing hash SPA sized to the row's flop estimate.  Keys are
// stored as column+1 so a zero-filled table means "all empty", which
// lets the arena's zeroed-buffer protocol cover the key array.  The
// touched list stores (column, slot) pairs: after the sorted emit the
// row resets its keys by direct slot index — open-addressing probe
// chains are never broken by deletion because the whole table empties
// at once.
class HashSpa {
 public:
  void begin_row(ScratchArena& arena, uint64_t expected, size_t zsize) {
    zsize_ = zsize;
    size_t want = 16;
    while (want < 2 * expected) want <<= 1;  // load factor <= 1/2
    mask_ = want - 1;
    keys_ = reinterpret_cast<Index*>(
        arena.request_zeroed(ScratchArena::kHashKeys, want * sizeof(Index)));
    vals_ = arena.request(ScratchArena::kHashVals, want * zsize);
    pairs_ = reinterpret_cast<Pair*>(
        arena.request(ScratchArena::kHashPairs, want * sizeof(Pair)));
    count_ = 0;
  }

  // Returns the accumulator slot for column j; *fresh reports first touch.
  void* probe(Index j, bool* fresh) {
    const Index key = j + 1;
    uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
    size_t idx = static_cast<size_t>(h) & mask_;
    for (;;) {
      Index cur = keys_[idx];
      if (cur == key) {
        *fresh = false;
        return vals_ + idx * zsize_;
      }
      if (cur == 0) {
        keys_[idx] = key;
        pairs_[count_++] = Pair{j, static_cast<Index>(idx)};
        *fresh = true;
        return vals_ + idx * zsize_;
      }
      idx = (idx + 1) & mask_;
    }
  }

  size_t count() const { return count_; }

  // Sorted emit into (cols, vals), then table reset (restores the zeroed
  // key array and tells the arena so).
  void drain(ScratchArena& arena, Index* cols, std::byte* vals) {
    std::sort(pairs_, pairs_ + count_,
              [](const Pair& x, const Pair& y) { return x.col < y.col; });
    for (size_t k = 0; k < count_; ++k) {
      cols[k] = pairs_[k].col;
      std::memcpy(vals + k * zsize_, vals_ + pairs_[k].slot * zsize_, zsize_);
    }
    for (size_t k = 0; k < count_; ++k) keys_[pairs_[k].slot] = 0;
    arena.mark_zeroed(ScratchArena::kHashKeys);
    count_ = 0;
  }

 private:
  struct Pair {
    Index col;
    Index slot;
  };
  size_t zsize_ = 0;
  size_t mask_ = 0;
  Index* keys_ = nullptr;
  std::byte* vals_ = nullptr;
  Pair* pairs_ = nullptr;
  size_t count_ = 0;
};

// Dense flag + value SPA over all of ncols.  Only constructed when the
// policy says the footprint is affordable.
class DenseSpa {
 public:
  void init(ScratchArena& arena, Index ncols, size_t zsize) {
    zsize_ = zsize;
    size_t n = static_cast<size_t>(ncols);
    flags_ = reinterpret_cast<uint8_t*>(
        arena.request_zeroed(ScratchArena::kDenseFlags, n));
    vals_ = arena.request(ScratchArena::kDenseVals, n * zsize);
    touched_ = reinterpret_cast<Index*>(
        arena.request(ScratchArena::kDenseTouched, n * sizeof(Index)));
    count_ = 0;
  }

  void* probe(Index j, bool* fresh) {
    void* slot = vals_ + static_cast<size_t>(j) * zsize_;
    if (flags_[j] == 0) {
      flags_[j] = 1;
      touched_[count_++] = j;
      *fresh = true;
    } else {
      *fresh = false;
    }
    return slot;
  }

  size_t count() const { return count_; }

  void drain(ScratchArena& arena, Index* cols, std::byte* vals) {
    std::sort(touched_, touched_ + count_);
    for (size_t k = 0; k < count_; ++k) {
      Index j = touched_[k];
      cols[k] = j;
      std::memcpy(vals + k * zsize_, vals_ + static_cast<size_t>(j) * zsize_,
                  zsize_);
      flags_[j] = 0;
    }
    arena.mark_zeroed(ScratchArena::kDenseFlags);
    count_ = 0;
  }

 private:
  size_t zsize_ = 0;
  uint8_t* flags_ = nullptr;
  std::byte* vals_ = nullptr;
  Index* touched_ = nullptr;
  size_t count_ = 0;
};

namespace spgemm_detail {

// Expands row i of A*B into the SPA, then drains the sorted row into the
// block stage.  Returns the row's output count.  The (ka, kb) fold order
// here is THE accumulation order for every mode — see the determinism
// note at the top of the file.
template <class Spa, class Runner>
Index expand_row(const MatrixData& a, const MatrixData& b, Index i,
                 size_t zsize, Spa& spa, Runner& runner, ValueBuf& prod,
                 SpgemmStage& out, ScratchArena& arena) {
  for (size_t ka = a.ptr[i]; ka < a.ptr[i + 1]; ++ka) {
    Index k = a.col[ka];
    if (k >= b.nrows) continue;
    const void* aval = a.vals.at(ka);
    for (size_t kb = b.ptr[k]; kb < b.ptr[k + 1]; ++kb) {
      bool fresh;
      void* slot = spa.probe(b.col[kb], &fresh);
      if (fresh) {
        runner.mul(slot, aval, b.vals.at(kb));
      } else {
        runner.mul(prod.data(), aval, b.vals.at(kb));
        runner.add(slot, prod.data());
      }
    }
  }
  size_t n = spa.count();
  auto [cols, vals] = out.grow(n, zsize);
  spa.drain(arena, cols, vals);
  return static_cast<Index>(n);
}

// Sizes t's CSR arrays from the per-row counts and copies each block's
// staged rows into place with one block-parallel memcpy per block.
inline void assemble(Context* ctx, MatrixData& t,
                     const std::vector<Index>& bounds,
                     const std::vector<SpgemmStage>& stage,
                     const std::vector<Index>& counts) {
  const Index nrows = t.nrows;
  for (Index i = 0; i < nrows; ++i) t.ptr[i + 1] = t.ptr[i] + counts[i];
  t.col.resize(t.ptr[nrows]);
  t.vals.resize(t.ptr[nrows]);
  const Index nblocks = static_cast<Index>(stage.size());
  ctx->parallel_for(0, nblocks, 1, [&](Index blo, Index bhi) {
    for (Index blk = blo; blk < bhi; ++blk) {
      const SpgemmStage& s = stage[blk];
      if (s.col.empty()) continue;
      const size_t off = t.ptr[bounds[blk]];
      std::copy(s.col.begin(), s.col.end(), t.col.begin() + off);
      std::memcpy(t.vals.at(off), s.vals.data(), s.vals.size());
    }
  });
}

}  // namespace spgemm_detail

// The seed two-pass kernel, kept verbatim as the ablation baseline and
// the differential oracle's reference mode: structural symbolic pass +
// full numeric re-expansion, both over a per-chunk O(ncols) dense SPA.
template <class MakeRunner>
std::shared_ptr<MatrixData> spgemm_reference_kernel(Context* ctx,
                                                    const MatrixData& a,
                                                    const MatrixData& b,
                                                    const Type* ztype,
                                                    MakeRunner&& make_runner) {
  auto t = std::make_shared<MatrixData>(ztype, a.nrows, b.ncols);
  Index nrows = a.nrows, ncols = b.ncols;
  size_t zsize = ztype->size();

  // Symbolic pass: structural row counts.
  std::vector<Index> counts(nrows, 0);
  ctx->parallel_for(0, nrows, [&](Index lo, Index hi) {
    std::vector<uint8_t> flag(ncols, 0);
    std::vector<Index> touched;
    for (Index i = lo; i < hi; ++i) {
      touched.clear();
      for (size_t ka = a.ptr[i]; ka < a.ptr[i + 1]; ++ka) {
        Index k = a.col[ka];
        for (size_t kb = b.ptr[k]; kb < b.ptr[k + 1]; ++kb) {
          Index j = b.col[kb];
          if (!flag[j]) {
            flag[j] = 1;
            touched.push_back(j);
          }
        }
      }
      counts[i] = static_cast<Index>(touched.size());
      for (Index j : touched) flag[j] = 0;
    }
  });
  for (Index i = 0; i < nrows; ++i) t->ptr[i + 1] = t->ptr[i] + counts[i];
  t->col.resize(t->ptr[nrows]);
  t->vals.resize(t->ptr[nrows]);

  // Numeric pass.
  ctx->parallel_for(0, nrows, [&](Index lo, Index hi) {
    auto runner = make_runner();
    std::vector<uint8_t> flag(ncols, 0);
    std::vector<std::byte> spa(static_cast<size_t>(ncols) * zsize);
    std::vector<Index> touched;
    ValueBuf prod(zsize);
    for (Index i = lo; i < hi; ++i) {
      touched.clear();
      for (size_t ka = a.ptr[i]; ka < a.ptr[i + 1]; ++ka) {
        Index k = a.col[ka];
        const void* aval = a.vals.at(ka);
        for (size_t kb = b.ptr[k]; kb < b.ptr[k + 1]; ++kb) {
          Index j = b.col[kb];
          void* slot = spa.data() + static_cast<size_t>(j) * zsize;
          if (!flag[j]) {
            flag[j] = 1;
            touched.push_back(j);
            runner.mul(slot, aval, b.vals.at(kb));
          } else {
            runner.mul(prod.data(), aval, b.vals.at(kb));
            runner.add(slot, prod.data());
          }
        }
      }
      std::sort(touched.begin(), touched.end());
      size_t w = t->ptr[i];
      for (Index j : touched) {
        t->col[w] = j;
        std::memcpy(t->vals.at(w), spa.data() + static_cast<size_t>(j) * zsize,
                    zsize);
        flag[j] = 0;
        ++w;
      }
    }
  });
  return t;
}

// The adaptive engine: single fused numeric pass into flop-balanced
// block staging, then an exact-size assembly copy.
template <class MakeRunner>
std::shared_ptr<MatrixData> spgemm_mxm(Context* ctx, const MatrixData& a,
                                       const MatrixData& b, const Type* ztype,
                                       const SpgemmRowCosts& costs,
                                       MakeRunner&& make_runner) {
  if (spgemm_mode() == SpgemmMode::kReference) {
    return spgemm_reference_kernel(ctx, a, b, ztype,
                                   std::forward<MakeRunner>(make_runner));
  }
  auto t = std::make_shared<MatrixData>(ztype, a.nrows, b.ncols);
  const Index nrows = a.nrows;
  if (nrows == 0 || costs.total == 0) return t;
  const size_t zsize = ztype->size();
  const SpgemmPolicy policy = spgemm_policy(b.ncols, zsize);

  const Index nblocks = ctx->block_count(nrows, costs.total);
  const std::vector<Index> bounds =
      spgemm_partition(costs.flops, costs.total, nblocks);

  std::vector<Index> counts(nrows, 0);
  std::vector<SpgemmStage> stage(nblocks);
  const bool stats = obs::stats_enabled();
  std::atomic<uint64_t> rows_hash{0}, rows_dense{0};

  // Decision audit: one summary record per multiply.  The per-row
  // accumulator classification is a pure function of the symbolic costs
  // and the policy, so the audited choice can be derived up front (one
  // cheap pass over flops[]) and the ticket brackets the whole numeric
  // kernel; measurement lands after assembly with the actual products
  // written.  "mixed" means both accumulators ran.
  obs::DecisionTicket ticket;
  if (obs::decision_enabled()) {
    uint64_t pre_dense = 0, pre_hash = 0;
    for (Index i = 0; i < nrows; ++i) {
      const uint64_t f = costs.flops[i];
      if (f == 0) continue;
      (policy.use_dense(f) ? pre_dense : pre_hash) += 1;
    }
    const char* strategy = pre_dense == 0   ? "hash"
                           : pre_hash == 0 ? "dense"
                                           : "mixed";
    const char* rejected = pre_dense == 0   ? "dense"
                           : pre_hash == 0 ? "hash"
                                           : "uniform";
    ticket = obs::decision_record(
        obs::DecisionSite::kSpgemmAccum, strategy, rejected,
        static_cast<double>(costs.total),
        static_cast<double>(policy.dense_flops));
  }

  ctx->parallel_for(0, nblocks, 1, [&](Index blo, Index bhi) {
    auto runner = make_runner();
    ScratchArena& arena = thread_arena();
    HashSpa hspa;
    DenseSpa dspa;
    bool dense_ready = false;
    ValueBuf prod(zsize);
    uint64_t local_hash = 0, local_dense = 0;
    for (Index blk = blo; blk < bhi; ++blk) {
      const Index rlo = bounds[blk], rhi = bounds[blk + 1];
      SpgemmStage& out = stage[blk];
      size_t ub = 0;
      for (Index i = rlo; i < rhi; ++i)
        ub += static_cast<size_t>(
            std::min<uint64_t>(costs.flops[i], b.ncols));
      out.col.reserve(ub);
      out.vals.reserve(ub * zsize);
      for (Index i = rlo; i < rhi; ++i) {
        const uint64_t f = costs.flops[i];
        if (f == 0) continue;
        if (policy.use_dense(f)) {
          if (!dense_ready) {
            dspa.init(arena, b.ncols, zsize);
            dense_ready = true;
          }
          counts[i] = spgemm_detail::expand_row(a, b, i, zsize, dspa, runner,
                                                prod, out, arena);
          ++local_dense;
        } else {
          hspa.begin_row(arena, std::min<uint64_t>(f, b.ncols), zsize);
          counts[i] = spgemm_detail::expand_row(a, b, i, zsize, hspa, runner,
                                                prod, out, arena);
          ++local_hash;
        }
      }
    }
    if (stats) {
      rows_hash.fetch_add(local_hash, std::memory_order_relaxed);
      rows_dense.fetch_add(local_dense, std::memory_order_relaxed);
    }
  });

  spgemm_detail::assemble(ctx, *t, bounds, stage, counts);
  if (stats) {
    obs::spgemm_rows(rows_hash.load(std::memory_order_relaxed),
                     rows_dense.load(std::memory_order_relaxed));
    obs::spgemm_flops_estimated(costs.total);
  }
  // Actual products written = output nnz; collisions make it smaller
  // than the symbolic estimate, and a >2x gap counts as a mispredict.
  obs::decision_measure(ticket, static_cast<uint64_t>(t->ptr[nrows]));
  return t;
}

// Seed serial SPA kernel for vxm (u^T * A), kept as the reference mode;
// allocates O(ncols(A)) scratch unconditionally.
template <class MakeRunner>
std::shared_ptr<VectorData> vxm_reference_kernel(const VectorData& u,
                                                 const MatrixData& a,
                                                 const Type* ztype,
                                                 MakeRunner&& make_runner) {
  auto t = std::make_shared<VectorData>(ztype, a.ncols);
  size_t zsize = ztype->size();
  auto runner = make_runner();
  std::vector<uint8_t> flag(a.ncols, 0);
  std::vector<std::byte> spa(static_cast<size_t>(a.ncols) * zsize);
  std::vector<Index> touched;
  ValueBuf prod(zsize);
  for (size_t ku = 0; ku < u.ind.size(); ++ku) {
    Index i = u.ind[ku];
    const void* uval = u.vals.at(ku);
    for (size_t ka = a.ptr[i]; ka < a.ptr[i + 1]; ++ka) {
      Index j = a.col[ka];
      void* slot = spa.data() + static_cast<size_t>(j) * zsize;
      if (!flag[j]) {
        flag[j] = 1;
        touched.push_back(j);
        runner.mul(slot, uval, a.vals.at(ka));
      } else {
        runner.mul(prod.data(), uval, a.vals.at(ka));
        runner.add(slot, prod.data());
      }
    }
  }
  std::sort(touched.begin(), touched.end());
  t->ind.reserve(touched.size());
  t->vals.reserve(touched.size());
  for (Index j : touched) {
    t->ind.push_back(j);
    t->vals.push_back(spa.data() + static_cast<size_t>(j) * zsize);
  }
  return t;
}

// Adaptive vxm: the output row u^T * A is one SpGEMM row, so it reuses
// the same policy and accumulators (the hypersparse-ncols fix for the
// vector ops).
template <class MakeRunner>
std::shared_ptr<VectorData> vxm_spa(const VectorData& u, const MatrixData& a,
                                    const Type* ztype,
                                    MakeRunner&& make_runner) {
  if (spgemm_mode() == SpgemmMode::kReference) {
    return vxm_reference_kernel(u, a, ztype,
                                std::forward<MakeRunner>(make_runner));
  }
  auto t = std::make_shared<VectorData>(ztype, a.ncols);
  const size_t zsize = ztype->size();
  uint64_t flops = 0;
  for (Index i : u.ind) {
    if (i < a.nrows) flops += a.ptr[i + 1] - a.ptr[i];
  }
  if (flops == 0) return t;
  const SpgemmPolicy policy = spgemm_policy(a.ncols, zsize);
  auto runner = make_runner();
  ScratchArena& arena = thread_arena();
  ValueBuf prod(zsize);
  const bool dense = policy.use_dense(flops);
  // The whole product is one SPA row, so the audit mirrors the per-row
  // accumulator question exactly: predicted flops vs the policy's
  // dense threshold, measured as entries drained.
  obs::DecisionTicket ticket = obs::decision_record(
      obs::DecisionSite::kSpgemmAccum, dense ? "dense" : "hash",
      dense ? "hash" : "dense", static_cast<double>(flops),
      static_cast<double>(policy.dense_flops));
  HashSpa hspa;
  DenseSpa dspa;
  if (dense) {
    dspa.init(arena, a.ncols, zsize);
  } else {
    hspa.begin_row(arena, std::min<uint64_t>(flops, a.ncols), zsize);
  }
  auto accumulate = [&](auto& spa) {
    for (size_t ku = 0; ku < u.ind.size(); ++ku) {
      Index i = u.ind[ku];
      if (i >= a.nrows) continue;
      const void* uval = u.vals.at(ku);
      for (size_t ka = a.ptr[i]; ka < a.ptr[i + 1]; ++ka) {
        bool fresh;
        void* slot = spa.probe(a.col[ka], &fresh);
        if (fresh) {
          runner.mul(slot, uval, a.vals.at(ka));
        } else {
          runner.mul(prod.data(), uval, a.vals.at(ka));
          runner.add(slot, prod.data());
        }
      }
    }
    size_t n = spa.count();
    t->ind.resize(n);
    t->vals.resize(n);
    if (n != 0) {
      spa.drain(arena, t->ind.data(),
                reinterpret_cast<std::byte*>(t->vals.at(0)));
    }
  };
  if (dense) {
    accumulate(dspa);
  } else {
    accumulate(hspa);
  }
  if (obs::stats_enabled()) {
    obs::spgemm_rows(dense ? 0 : 1, dense ? 1 : 0);
    obs::spgemm_flops_estimated(flops);
  }
  obs::decision_measure(ticket, static_cast<uint64_t>(t->ind.size()));
  return t;
}

// Budget-gated vector probe for the dot-product kernels (mxv, parallel
// vxm): reads a full u in place (position equals index), gathers a
// sparse u into dense present/value scratch when u.n is affordable, and
// falls back to binary search over u's sorted coordinate list for
// hypersparse dimensions.  Built on the caller's arena; workers only
// read it during the parallel region.
class VecProbe {
 public:
  void init(const VectorData& u) {
    u_ = &u;
    usize_ = u.type->size();
    if (u.nvals() == u.n) {
      full_ = true;
      bytes_ = static_cast<const std::byte*>(u.vals.data());
      return;
    }
    const uint64_t footprint =
        static_cast<uint64_t>(u.n) * (usize_ + 1);
    dense_ = footprint <= spgemm_dense_budget();
    if (!dense_) return;
    ScratchArena& arena = thread_arena();
    size_t n = static_cast<size_t>(u.n);
    present_ = reinterpret_cast<uint8_t*>(
        arena.request_zeroed(ScratchArena::kVecPresent, n));
    std::byte* gathered = arena.request(ScratchArena::kVecVals, n * usize_);
    for (size_t k = 0; k < u.ind.size(); ++k) {
      present_[u.ind[k]] = 1;
      std::memcpy(gathered + static_cast<size_t>(u.ind[k]) * usize_,
                  u.vals.at(k), usize_);
    }
    bytes_ = gathered;
  }

  // Value pointer for index i, or nullptr when u(i) is absent.  The
  // binary search stays out of line so the in-place and gathered cases
  // inline into the kernels' inner loops.
  const void* find(Index i) const {
    if (full_) return bytes_ + static_cast<size_t>(i) * usize_;
    if (dense_) {
      return present_[i] != 0 ? bytes_ + static_cast<size_t>(i) * usize_
                              : nullptr;
    }
    return find_sorted(i);
  }

 private:
  [[gnu::noinline]] const void* find_sorted(Index i) const {
    auto it = std::lower_bound(u_->ind.begin(), u_->ind.end(), i);
    if (it == u_->ind.end() || *it != i) return nullptr;
    return u_->vals.at(static_cast<size_t>(it - u_->ind.begin()));
  }

  const VectorData* u_ = nullptr;
  size_t usize_ = 0;
  bool full_ = false;
  bool dense_ = false;
  uint8_t* present_ = nullptr;
  const std::byte* bytes_ = nullptr;
};

}  // namespace grb
