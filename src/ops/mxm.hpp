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

// A semiring runner (SemiringRunner's interface) over T with both
// operators' scalar bodies inlined from core/scalar_ops.hpp; the typed
// fast path (ops/fastpath.cpp) instantiates the kernels with it.
template <class T, BinOpCode Add, BinOpCode Mul>
class TypedSemiringRunner {
 public:
  using Value = T;

  static T mul_v(const void* a, const void* b) {
    return scalar::bin_eval<Mul, T>(scalar::ld<T>(a), scalar::ld<T>(b));
  }
  static T add_v(T acc, T z) { return scalar::bin_eval<Add, T>(acc, z); }

  void mul(void* z, const void* a, const void* b) {
    scalar::st<T>(z, mul_v(a, b));
  }
  void add(void* acc, const void* z) {
    scalar::st<T>(acc, add_v(scalar::ld<T>(acc), scalar::ld<T>(z)));
  }
};

// The accumulator of one dot product: start() seeds it with the first
// product, step() folds in the next, finish() leaves the sum in the
// output slot.  The generic form folds in place in the slot through the
// runner's mul/add; the typed form keeps the partial sum in a register.
template <class Runner>
class DotAcc {
 public:
  explicit DotAcc(size_t zsize) : prod_(zsize) {}
  void start(Runner& run, void* slot, const void* a, const void* b) {
    slot_ = slot;
    run.mul(slot, a, b);
  }
  void step(Runner& run, const void* a, const void* b) {
    run.mul(prod_.data(), a, b);
    run.add(slot_, prod_.data());
  }
  void finish() {}

 private:
  void* slot_ = nullptr;
  ValueBuf prod_;
};

template <class T, BinOpCode Add, BinOpCode Mul>
class DotAcc<TypedSemiringRunner<T, Add, Mul>> {
  using Run = TypedSemiringRunner<T, Add, Mul>;

 public:
  explicit DotAcc(size_t) {}
  void start(Run&, void* slot, const void* a, const void* b) {
    slot_ = slot;
    v_ = Run::mul_v(a, b);
  }
  void step(Run&, const void* a, const void* b) {
    v_ = Run::add_v(v_, Run::mul_v(a, b));
  }
  void finish() { scalar::st<T>(slot_, v_); }

 private:
  void* slot_ = nullptr;
  T v_{};
};

// Row-parallel dot products of a matrix m against a vector u: output
// entry r folds the products of row r of m with u over the row's stored
// columns in ascending order, the first product seeding the
// accumulator.  mxv runs it on A (kVecFirst = false: the runner's mul
// takes (A value, u value)); vxm runs it on A' (kVecFirst = true: mul
// takes (u value, A value)), which folds each output in ascending row
// index of A — exactly the order of the serial SPA kernel, so the two
// vxm paths are bitwise-identical even under floating-point rounding.
//
// One pass folds the rows of each block and writes the rows that
// received a product packed at the block's start, in row order; closing
// the gaps between blocks is one move per block.  u is probed through
// the budget-gated VecProbe (in place when full, dense gather when
// affordable, binary search for hypersparse dimensions).
template <bool kVecFirst, class MakeRunner>
std::shared_ptr<VectorData> row_dot_kernel(Context* ctx, const MatrixData& m,
                                           const VectorData& u,
                                           const Type* ztype,
                                           MakeRunner&& make_runner) {
  auto t = std::make_shared<VectorData>(ztype, m.nrows);
  const size_t zsize = ztype->size();
  const Index nr = m.nrows;
  if (nr == 0) return t;
  VecProbe probe;
  probe.init(u);
  t->ind.resize(nr);
  t->vals.resize(nr);
  const Index block = ctx->block_size(nr, m.nvals());
  const Index nb = (nr + block - 1) / block;
  std::vector<Index> counts(nb, 0);
  ctx->parallel_for(0, nb, 1, [&](Index blo, Index bhi) {
    auto runner = make_runner();
    DotAcc<decltype(runner)> acc(zsize);
    const Index* ptr = m.ptr.data();
    const Index* col = m.col.data();
    for (Index b = blo; b < bhi; ++b) {
      const Index rlo = b * block, rhi = std::min<Index>(nr, rlo + block);
      Index n = rlo;  // next packed slot of this block
      for (Index r = rlo; r < rhi; ++r) {
        bool first = true;
        for (size_t ka = ptr[r], ke = ptr[r + 1]; ka < ke; ++ka) {
          const void* uval = probe.find(col[ka]);
          if (uval == nullptr) continue;
          const void* mval = m.vals.at(ka);
          const void* x = kVecFirst ? uval : mval;
          const void* y = kVecFirst ? mval : uval;
          if (first) {
            acc.start(runner, t->vals.at(n), x, y);
            first = false;
          } else {
            acc.step(runner, x, y);
          }
        }
        if (first) continue;
        acc.finish();
        t->ind[n++] = r;
      }
      counts[b] = n - rlo;
    }
  });
  size_t total = counts[0];
  for (Index b = 1; b < nb; ++b) {
    const Index rlo = b * block;
    if (total != rlo && counts[b] != 0) {
      std::memmove(&t->ind[total], &t->ind[rlo], counts[b] * sizeof(Index));
      std::memmove(t->vals.at(total), t->vals.at(rlo), counts[b] * zsize);
    }
    total += counts[b];
  }
  t->ind.resize(total);
  t->vals.resize(total);
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
// ascending k, the order of the Gustavson kernels.  *work, when
// non-null, receives the merge steps taken (entries of A(i,:) and
// B'(j,:) consumed), the unit of the auto strategy's dot cost; each
// worker picks the counting or the plain loop once, so a null `work`
// costs the merges nothing.
template <class MakeRunner>
std::shared_ptr<MatrixData> mxm_masked_dot_kernel(
    Context* ctx, const MatrixData& a, const MatrixData& bt,
    const MatrixData& mask, const Type* ztype, MakeRunner&& make_runner,
    uint64_t* work = nullptr) {
  auto t = std::make_shared<MatrixData>(ztype, a.nrows, bt.nrows);
  const Index nrows = a.nrows;
  const size_t zsize = ztype->size();
  if (work != nullptr) *work = 0;
  if (nrows == 0 || mask.nvals() == 0) return t;
  std::vector<uint64_t> weight(nrows);
  for (Index i = 0; i < nrows; ++i) weight[i] = mask.ptr[i + 1] - mask.ptr[i];
  const Index nblocks = ctx->block_count(nrows, mask.nvals());
  const std::vector<Index> bounds =
      spgemm_partition(weight, mask.nvals(), nblocks);
  std::vector<Index> counts(nrows, 0);
  std::vector<SpgemmStage> stage(nblocks);
  std::atomic<uint64_t> steps{0};

  auto run_blocks = [&](Index blo, Index bhi, auto count_steps) {
    constexpr bool kCount = decltype(count_steps)::value;
    auto runner = make_runner();
    ValueBuf prod(zsize);
    [[maybe_unused]] uint64_t local_steps = 0;
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
          const size_t sa = a.ptr[i], sb = bt.ptr[j];
          size_t ka = sa, ea = a.ptr[i + 1];
          size_t kb = sb, eb = bt.ptr[j + 1];
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
          if constexpr (kCount) local_steps += (ka - sa) + (kb - sb);
          if (!first) cols[n++] = j;
        }
        out.trim(mlen - n, zsize);
        counts[i] = static_cast<Index>(n);
      }
    }
    if constexpr (kCount)
      steps.fetch_add(local_steps, std::memory_order_relaxed);
  };
  ctx->parallel_for(0, nblocks, 1, [&](Index blo, Index bhi) {
    if (work != nullptr) {
      run_blocks(blo, bhi, std::true_type{});
    } else {
      run_blocks(blo, bhi, std::false_type{});
    }
  });
  spgemm_detail::assemble(ctx, *t, bounds, stage, counts);
  if (work != nullptr) *work = steps.load(std::memory_order_relaxed);
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
//
// Each B(k,:) is walked filter-then-fold, kSaxpyChunk positions at a
// time: a branch-free pass lists the positions whose column is marked,
// then the fold visits only those.  Most candidates miss the mask (k-
// truss: 4 in 5), so a per-candidate "marked?" branch would mispredict
// at random; the list keeps (ka, kb) order, so folds are unchanged.
//
// The typed <PLUS, ONEB> runner (kCountFold) takes a count fold instead:
// C(i,j) is the number of candidates that land on j, and ONEB reads no
// operand.  A uint64_t counter per column, from the arena's zeroed
// kDenseVals slot, is armed to 2^63 for each j in M(i,:); every
// candidate then adds its counter's top bit to it, so unmarked counters
// stay 0 with no hit list, no branch and no value load.  The emit keeps
// the nonzero counts below the top bit and zeroes each armed counter
// again.  Counts are far below 2^53, so INT64 and FP64 results equal the
// hit-list fold's bit for bit.
inline constexpr size_t kSaxpyChunk = 256;

template <class Runner>
inline constexpr bool kCountFold = false;
template <class T>
inline constexpr bool
    kCountFold<TypedSemiringRunner<T, BinOpCode::kPlus, BinOpCode::kOneb>> =
        std::is_same_v<T, int64_t> || std::is_same_v<T, double>;

template <class MakeRunner>
std::shared_ptr<MatrixData> mxm_masked_saxpy_kernel(
    Context* ctx, const MatrixData& a, const MatrixData& b,
    const MatrixData& mask, const Type* ztype, const SpgemmRowCosts& costs,
    MakeRunner&& make_runner) {
  using Runner = decltype(make_runner());
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
    // Runs fold_row(i, mlo, mhi, cols, vals) on each row of the blocks
    // with candidates and mask entries; it writes the row's entries in
    // mask-column order at (cols, vals) and returns how many.
    auto for_rows = [&](auto&& fold_row) {
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
          const size_t mlen = mhi - mlo;
          auto [cols, vals] = out.grow(mlen, zsize);
          const size_t n = fold_row(i, mlo, mhi, cols, vals);
          out.trim(mlen - n, zsize);
          counts[i] = static_cast<Index>(n);
          ++local_rows;
        }
      }
      rows_run.fetch_add(local_rows, std::memory_order_relaxed);
    };
    ScratchArena& arena = thread_arena();
    const Index* bcol = b.col.data();
    if constexpr (kCountFold<Runner>) {
      using T = typename Runner::Value;
      constexpr uint64_t kArmed = uint64_t{1} << 63;
      auto* cnt = reinterpret_cast<uint64_t*>(arena.request_zeroed(
          ScratchArena::kDenseVals,
          static_cast<size_t>(b.ncols) * sizeof(uint64_t)));
      for_rows([&](Index i, size_t mlo, size_t mhi, Index* cols,
                   std::byte* vals) {
        for (size_t km = mlo; km < mhi; ++km) cnt[mask.col[km]] = kArmed;
        for (size_t ka = a.ptr[i]; ka < a.ptr[i + 1]; ++ka) {
          const Index k = a.col[ka];
          if (k >= b.nrows) continue;
          for (size_t kb = b.ptr[k], end = b.ptr[k + 1]; kb < end; ++kb) {
            const uint64_t c = cnt[bcol[kb]];
            cnt[bcol[kb]] = c + (c >> 63);
          }
        }
        size_t n = 0;
        for (size_t km = mlo; km < mhi; ++km) {
          const Index j = mask.col[km];
          const uint64_t c = cnt[j] & ~kArmed;
          cnt[j] = 0;
          cols[n] = j;
          scalar::st<T>(vals + n * sizeof(T), static_cast<T>(c));
          n += c != 0;
        }
        return n;
      });
      arena.mark_zeroed(ScratchArena::kDenseVals);
    } else {
      auto runner = make_runner();
      // flag[j]: 0 = not in M(i,:), 1 = in M(i,:) with no product yet,
      // 2 = in M(i,:) and acc[j] holds a partial fold.
      auto* flag = reinterpret_cast<uint8_t*>(
          arena.request_zeroed(ScratchArena::kDenseFlags, b.ncols));
      std::byte* acc = arena.request(ScratchArena::kDenseVals,
                                     static_cast<size_t>(b.ncols) * zsize);
      ValueBuf prod(zsize);
      size_t hits[kSaxpyChunk];
      for_rows([&](Index i, size_t mlo, size_t mhi, Index* cols,
                   std::byte* vals) {
        for (size_t km = mlo; km < mhi; ++km) flag[mask.col[km]] = 1;
        for (size_t ka = a.ptr[i]; ka < a.ptr[i + 1]; ++ka) {
          const Index k = a.col[ka];
          if (k >= b.nrows) continue;
          const void* aval = a.vals.at(ka);
          for (size_t lo = b.ptr[k], end = b.ptr[k + 1]; lo < end;
               lo += kSaxpyChunk) {
            const size_t hi = std::min(end, lo + kSaxpyChunk);
            size_t nh = 0;
            for (size_t kb = lo; kb < hi; ++kb) {
              hits[nh] = kb;
              nh += flag[bcol[kb]] != 0;
            }
            for (size_t h = 0; h < nh; ++h) {
              const size_t kb = hits[h];
              const Index j = bcol[kb];
              void* slot = acc + static_cast<size_t>(j) * zsize;
              if (flag[j] == 1) {
                runner.mul(slot, aval, b.vals.at(kb));
                flag[j] = 2;
              } else {
                runner.mul(prod.data(), aval, b.vals.at(kb));
                runner.add(slot, prod.data());
              }
            }
          }
        }
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
        return n;
      });
      arena.mark_zeroed(ScratchArena::kDenseFlags);
    }
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
std::shared_ptr<MatrixData> fastpath_masked_dot_mxm(
    Context* ctx, const MatrixData& a, const MatrixData& bt,
    const MatrixData& mask, const Semiring* s, uint64_t* work);
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
