// Internal mxm/mxv/vxm kernel interfaces and the typed fast-path hooks.
//
// The row-wise SpGEMM accumulators and the adaptive engine itself live
// in ops/spgemm.hpp; this header keeps the semiring runner, the
// dot-product kernels, strategy knobs and the fastpath dispatch surface.
#pragma once

#include "ops/common.hpp"
#include "ops/op_apply.hpp"
#include "ops/spgemm.hpp"

namespace grb {

// Generic semiring runner over type-erased values: multiply casts the
// stored a/b values into the multiplier's domains, add folds a ztype
// product into a ztype accumulator with the monoid.  This is the
// "function-pointer call per scalar operation" path the paper's §II
// motivation describes; fastpath.cpp provides statically typed
// replacements for hot (semiring, type) pairs.
class SemiringRunner {
 public:
  SemiringRunner(const Semiring* s, const Type* atype, const Type* btype)
      : mul_(s->mul(), atype, btype),
        add_(s->add()->op(), s->mul()->ztype(), s->mul()->ztype()) {}

  // z (mul ztype) = a * b
  void mul(void* z, const void* a, const void* b) { mul_.run(z, a, b); }
  // acc = acc (+) z, both in mul ztype
  void add(void* acc, const void* z) { add_.run(acc, acc, z); }

 private:
  BinRunner mul_;
  BinRunner add_;
};

// Column-parallel dot-product kernel for vxm (u^T * A).  `at` is A
// transposed (CSR of A'), so output entry j folds the products of u(i)
// and A(i,j) over at's row j in ascending i — exactly the order the
// serial SPA kernel accumulates them in, which makes the two paths
// bitwise-identical even for non-associative floating-point rounding.
// u is probed through the budget-gated VecProbe (dense gather when
// affordable, binary search for hypersparse dimensions).
template <class MakeRunner>
std::shared_ptr<VectorData> vxm_dot_kernel(Context* ctx,
                                           const VectorData& u,
                                           const MatrixData& at,
                                           const Type* ztype,
                                           MakeRunner&& make_runner) {
  auto t = std::make_shared<VectorData>(ztype, at.nrows);
  size_t zsize = ztype->size();
  VecProbe probe;
  probe.init(u);
  // Structural pass: does output position j receive any product?
  std::vector<uint8_t> hit(at.nrows, 0);
  ctx->parallel_for(0, at.nrows, [&](Index lo, Index hi) {
    for (Index j = lo; j < hi; ++j) {
      for (size_t ka = at.ptr[j]; ka < at.ptr[j + 1]; ++ka) {
        if (probe.find(at.col[ka]) != nullptr) {
          hit[j] = 1;
          break;
        }
      }
    }
  });
  std::vector<Index> slot(at.nrows + 1, 0);
  for (Index j = 0; j < at.nrows; ++j) slot[j + 1] = slot[j] + hit[j];
  t->ind.resize(slot[at.nrows]);
  t->vals.resize(slot[at.nrows]);
  ctx->parallel_for(0, at.nrows, [&](Index lo, Index hi) {
    auto runner = make_runner();
    ValueBuf acc(zsize), prod(zsize);
    for (Index j = lo; j < hi; ++j) {
      if (!hit[j]) continue;
      bool first = true;
      for (size_t ka = at.ptr[j]; ka < at.ptr[j + 1]; ++ka) {
        const void* uval = probe.find(at.col[ka]);
        if (uval == nullptr) continue;
        if (first) {
          runner.mul(acc.data(), uval, at.vals.at(ka));
          first = false;
        } else {
          runner.mul(prod.data(), uval, at.vals.at(ka));
          runner.add(acc.data(), prod.data());
        }
      }
      Index s = slot[j];
      t->ind[s] = j;
      t->vals.set(s, acc.data());
    }
  });
  return t;
}

// Row-parallel dot-product kernel for mxv (A * u).  u is probed through
// the budget-gated VecProbe; each row of A then probes it.
template <class MakeRunner>
std::shared_ptr<VectorData> mxv_kernel(Context* ctx, const MatrixData& a,
                                       const VectorData& u,
                                       const Type* ztype,
                                       MakeRunner&& make_runner) {
  auto t = std::make_shared<VectorData>(ztype, a.nrows);
  size_t zsize = ztype->size();
  VecProbe probe;
  probe.init(u);
  // Structural pass: does row i hit any entry of u?
  std::vector<uint8_t> hit(a.nrows, 0);
  ctx->parallel_for(0, a.nrows, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) {
      for (size_t ka = a.ptr[i]; ka < a.ptr[i + 1]; ++ka) {
        if (probe.find(a.col[ka]) != nullptr) {
          hit[i] = 1;
          break;
        }
      }
    }
  });
  std::vector<Index> slot(a.nrows + 1, 0);
  for (Index i = 0; i < a.nrows; ++i) slot[i + 1] = slot[i] + hit[i];
  t->ind.resize(slot[a.nrows]);
  t->vals.resize(slot[a.nrows]);
  ctx->parallel_for(0, a.nrows, [&](Index lo, Index hi) {
    auto runner = make_runner();
    ValueBuf acc(zsize), prod(zsize);
    for (Index i = lo; i < hi; ++i) {
      if (!hit[i]) continue;
      bool first = true;
      for (size_t ka = a.ptr[i]; ka < a.ptr[i + 1]; ++ka) {
        const void* uval = probe.find(a.col[ka]);
        if (uval == nullptr) continue;
        if (first) {
          runner.mul(acc.data(), a.vals.at(ka), uval);
          first = false;
        } else {
          runner.mul(prod.data(), a.vals.at(ka), uval);
          runner.add(acc.data(), prod.data());
        }
      }
      Index s = slot[i];
      t->ind[s] = i;
      t->vals.set(s, acc.data());
    }
  });
  return t;
}

// Hypersparse variant of mxv_kernel: iterates only the nonempty rows
// listed in a.hrow (a must be MatFormat::kHyper, whose ptr array is
// compacted to hrow.size()+1 entries).  Per-row fold order matches the
// CSR kernel exactly — same column order, same first/add sequence — and
// nonempty rows are visited in ascending row id, so the output is
// bitwise-identical to running mxv_kernel on the expanded CSR view.
template <class MakeRunner>
std::shared_ptr<VectorData> mxv_hyper_kernel(Context* ctx,
                                             const MatrixData& a,
                                             const VectorData& u,
                                             const Type* ztype,
                                             MakeRunner&& make_runner) {
  auto t = std::make_shared<VectorData>(ztype, a.nrows);
  size_t zsize = ztype->size();
  VecProbe probe;
  probe.init(u);
  Index nh = a.hrow.size();
  // Structural pass over the compact row list only.
  std::vector<uint8_t> hit(nh, 0);
  ctx->parallel_for(0, nh, [&](Index lo, Index hi) {
    for (Index h = lo; h < hi; ++h) {
      for (size_t ka = a.ptr[h]; ka < a.ptr[h + 1]; ++ka) {
        if (probe.find(a.col[ka]) != nullptr) {
          hit[h] = 1;
          break;
        }
      }
    }
  });
  std::vector<Index> slot(nh + 1, 0);
  for (Index h = 0; h < nh; ++h) slot[h + 1] = slot[h] + hit[h];
  t->ind.resize(slot[nh]);
  t->vals.resize(slot[nh]);
  ctx->parallel_for(0, nh, [&](Index lo, Index hi) {
    auto runner = make_runner();
    ValueBuf acc(zsize), prod(zsize);
    for (Index h = lo; h < hi; ++h) {
      if (!hit[h]) continue;
      bool first = true;
      for (size_t ka = a.ptr[h]; ka < a.ptr[h + 1]; ++ka) {
        const void* uval = probe.find(a.col[ka]);
        if (uval == nullptr) continue;
        if (first) {
          runner.mul(acc.data(), a.vals.at(ka), uval);
          first = false;
        } else {
          runner.mul(prod.data(), a.vals.at(ka), uval);
          runner.add(acc.data(), prod.data());
        }
      }
      Index s = slot[h];
      t->ind[s] = a.hrow[h];
      t->vals.set(s, acc.data());
    }
  });
  return t;
}

// Masked dot-product SpGEMM: computes T only at the structural-mask
// positions, C(i,j) = A(i,:) . B(:,j), via one sorted-intersection merge
// of A's row i and B'(j,:) per mask entry.  This is the kernel point-
// query masks want: work is the exact dot cost sum over M of
// |A(i,:)| + |B'(j,:)|, independent of the full product.  `bt` is B
// transposed (CSR of B').  Rows run over blocks balanced by mask-row
// length; each block stages up to nnz(M(i,:)) entries per row and keeps
// the nonempty dots, so assembly is a copy.  Each C(i,j) folds in
// ascending k, the order of the Gustavson kernels.
template <class MakeRunner>
std::shared_ptr<MatrixData> mxm_masked_dot_kernel(Context* ctx,
                                                  const MatrixData& a,
                                                  const MatrixData& bt,
                                                  const MatrixData& mask,
                                                  const Type* ztype,
                                                  MakeRunner&& make_runner) {
  auto t = std::make_shared<MatrixData>(ztype, a.nrows, bt.nrows);
  const Index nrows = a.nrows;
  const size_t zsize = ztype->size();
  if (nrows == 0 || mask.nvals() == 0) return t;
  std::vector<uint64_t> weight(nrows);
  for (Index i = 0; i < nrows; ++i) weight[i] = mask.ptr[i + 1] - mask.ptr[i];
  const Index nblocks = ctx->block_count(nrows, mask.nvals());
  const std::vector<Index> bounds =
      spgemm_partition(weight, mask.nvals(), nblocks);
  std::vector<Index> counts(nrows, 0);
  std::vector<SpgemmStage> stage(nblocks);

  ctx->parallel_for(0, nblocks, 1, [&](Index blo, Index bhi) {
    auto runner = make_runner();
    ValueBuf prod(zsize);
    for (Index blk = blo; blk < bhi; ++blk) {
      const Index rlo = bounds[blk], rhi = bounds[blk + 1];
      SpgemmStage& out = stage[blk];
      const size_t ub = mask.ptr[rhi] - mask.ptr[rlo];
      out.col.reserve(ub);
      out.vals.reserve(ub * zsize);
      for (Index i = rlo; i < rhi; ++i) {
        const size_t mlen = mask.ptr[i + 1] - mask.ptr[i];
        if (mlen == 0) continue;
        auto [cols, vals] = out.grow(mlen, zsize);
        size_t n = 0;
        for (size_t km = mask.ptr[i]; km < mask.ptr[i + 1]; ++km) {
          const Index j = mask.col[km];
          void* acc = vals + n * zsize;
          size_t ka = a.ptr[i], ea = a.ptr[i + 1];
          size_t kb = bt.ptr[j], eb = bt.ptr[j + 1];
          bool first = true;
          while (ka < ea && kb < eb) {
            if (a.col[ka] == bt.col[kb]) {
              if (first) {
                runner.mul(acc, a.vals.at(ka), bt.vals.at(kb));
                first = false;
              } else {
                runner.mul(prod.data(), a.vals.at(ka), bt.vals.at(kb));
                runner.add(acc, prod.data());
              }
              ++ka;
              ++kb;
            } else if (a.col[ka] < bt.col[kb]) {
              ++ka;
            } else {
              ++kb;
            }
          }
          if (!first) cols[n++] = j;
        }
        out.trim(mlen - n, zsize);
        counts[i] = static_cast<Index>(n);
      }
    }
  });
  spgemm_detail::assemble(ctx, *t, bounds, stage, counts);
  return t;
}

// Mask-driven Gustavson SpGEMM: T = (A*B)<M> for a structural,
// non-complemented mask, computed in one pass.  Each row marks M(i,:) in
// the thread's dense flag array, folds only the products of A(i,:)*B
// that land on marked columns, then emits in mask-column order — no
// symbolic count, no sort, at most nnz(M(i,:)) entries per row.  Each
// C(i,j) folds in ascending k exactly like expand_row, so the result is
// bitwise-identical to the unmasked engine followed by the mask.  Rows
// run over the symbolic flop-balanced blocks.  Precondition: the
// per-thread scratch, a flag byte and a value per column
// (ncols * (1 + zsize) bytes), fits spgemm_dense_budget().
template <class MakeRunner>
std::shared_ptr<MatrixData> mxm_masked_saxpy_kernel(
    Context* ctx, const MatrixData& a, const MatrixData& b,
    const MatrixData& mask, const Type* ztype, const SpgemmRowCosts& costs,
    MakeRunner&& make_runner) {
  auto t = std::make_shared<MatrixData>(ztype, a.nrows, b.ncols);
  const Index nrows = a.nrows;
  const size_t zsize = ztype->size();
  if (nrows == 0 || costs.total == 0 || mask.nvals() == 0) return t;
  const Index nblocks = ctx->block_count(nrows, costs.total);
  const std::vector<Index> bounds =
      spgemm_partition(costs.flops, costs.total, nblocks);
  std::vector<Index> counts(nrows, 0);
  std::vector<SpgemmStage> stage(nblocks);
  std::atomic<uint64_t> rows_run{0};

  ctx->parallel_for(0, nblocks, 1, [&](Index blo, Index bhi) {
    auto runner = make_runner();
    ScratchArena& arena = thread_arena();
    // flag[j]: 0 = not in M(i,:), 1 = in M(i,:) with no product yet,
    // 2 = in M(i,:) and acc[j] holds a partial fold.
    auto* flag = reinterpret_cast<uint8_t*>(
        arena.request_zeroed(ScratchArena::kDenseFlags, b.ncols));
    std::byte* acc = arena.request(ScratchArena::kDenseVals,
                                   static_cast<size_t>(b.ncols) * zsize);
    ValueBuf prod(zsize);
    uint64_t local_rows = 0;
    for (Index blk = blo; blk < bhi; ++blk) {
      const Index rlo = bounds[blk], rhi = bounds[blk + 1];
      SpgemmStage& out = stage[blk];
      size_t ub = 0;
      for (Index i = rlo; i < rhi; ++i) {
        if (costs.flops[i] != 0) ub += mask.ptr[i + 1] - mask.ptr[i];
      }
      out.col.reserve(ub);
      out.vals.reserve(ub * zsize);
      for (Index i = rlo; i < rhi; ++i) {
        const size_t mlo = mask.ptr[i], mhi = mask.ptr[i + 1];
        if (costs.flops[i] == 0 || mlo == mhi) continue;
        for (size_t km = mlo; km < mhi; ++km) flag[mask.col[km]] = 1;
        for (size_t ka = a.ptr[i]; ka < a.ptr[i + 1]; ++ka) {
          const Index k = a.col[ka];
          if (k >= b.nrows) continue;
          const void* aval = a.vals.at(ka);
          for (size_t kb = b.ptr[k]; kb < b.ptr[k + 1]; ++kb) {
            const Index j = b.col[kb];
            const uint8_t f = flag[j];
            if (f == 0) continue;
            void* slot = acc + static_cast<size_t>(j) * zsize;
            if (f == 1) {
              runner.mul(slot, aval, b.vals.at(kb));
              flag[j] = 2;
            } else {
              runner.mul(prod.data(), aval, b.vals.at(kb));
              runner.add(slot, prod.data());
            }
          }
        }
        const size_t mlen = mhi - mlo;
        auto [cols, vals] = out.grow(mlen, zsize);
        size_t n = 0;
        for (size_t km = mlo; km < mhi; ++km) {
          const Index j = mask.col[km];
          if (flag[j] == 2) {
            cols[n] = j;
            std::memcpy(vals + n * zsize,
                        acc + static_cast<size_t>(j) * zsize, zsize);
            ++n;
          }
          flag[j] = 0;
        }
        out.trim(mlen - n, zsize);
        counts[i] = static_cast<Index>(n);
        ++local_rows;
      }
    }
    arena.mark_zeroed(ScratchArena::kDenseFlags);
    rows_run.fetch_add(local_rows, std::memory_order_relaxed);
  });
  spgemm_detail::assemble(ctx, *t, bounds, stage, counts);
  if (obs::stats_enabled()) {
    obs::spgemm_rows(0, rows_run.load(std::memory_order_relaxed));
    obs::spgemm_flops_estimated(costs.total);
  }
  return t;
}

// Strategy for a structural, non-complemented mask (other masks always
// run the unmasked engine and mask at write-back).
enum class MxmStrategy {
  kAuto = 0,       // exact cost model: masked dot vs. masked saxpy
  kGustavson = 1,  // always row-wise (masked saxpy when it fits)
  kMaskedDot = 2,  // always masked dot products
};

// Global strategy override for the masked-mxm ablation bench.
MxmStrategy mxm_strategy();
void set_mxm_strategy(MxmStrategy strategy);

// ---- typed fast path (ops/fastpath.cpp) -----------------------------------

// Global switch so the M2 ablation bench can force the generic path.
bool fastpath_enabled();
void set_fastpath_enabled(bool enabled);

// Attempt a statically typed mxm/vxm/mxv; returns nullptr when the
// (semiring, types) combination has no registered fast kernel.  `costs`
// is the shared symbolic pass, so the typed kernels instantiate the
// same adaptive accumulators with no extra scan.
std::shared_ptr<MatrixData> fastpath_mxm(Context* ctx, const MatrixData& a,
                                         const MatrixData& b,
                                         const Semiring* s,
                                         const SpgemmRowCosts& costs);
std::shared_ptr<MatrixData> fastpath_masked_saxpy_mxm(
    Context* ctx, const MatrixData& a, const MatrixData& b,
    const MatrixData& mask, const Semiring* s, const SpgemmRowCosts& costs);
std::shared_ptr<MatrixData> fastpath_masked_dot_mxm(Context* ctx,
                                                    const MatrixData& a,
                                                    const MatrixData& bt,
                                                    const MatrixData& mask,
                                                    const Semiring* s);
std::shared_ptr<VectorData> fastpath_vxm(const VectorData& u,
                                         const MatrixData& a,
                                         const Semiring* s);
// Parallel variant over A transposed (see vxm_dot_kernel).
std::shared_ptr<VectorData> fastpath_vxm_dot(Context* ctx,
                                             const VectorData& u,
                                             const MatrixData& at,
                                             const Semiring* s);
std::shared_ptr<VectorData> fastpath_mxv(Context* ctx, const MatrixData& a,
                                         const VectorData& u,
                                         const Semiring* s);

}  // namespace grb
