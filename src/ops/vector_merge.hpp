// The element-wise merge pass of the eWise kernels (ops/ewise_vector.cpp),
// plus the full-vector test their fast cases key on (internal).
//
// A merged pass partitions the index space [0, n) into fixed blocks,
// locates each block's start in both operand streams by binary search,
// counts its output entries, and prefix-sums the counts (plan_merge);
// the fill pass then writes every entry straight into place
// (merge_fill).  Every output entry depends only on the operands at its
// own index, so the partition cannot change the result.  The plan does
// not depend on the operator, so only the fill pass is instantiated per
// operator runner.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "containers/vector.hpp"
#include "exec/context.hpp"

namespace grb {

// A sorted-coordinate block that stores every position: its indices are
// exactly 0..n-1, so position equals index and kernels need no merge.
inline bool is_full(const VectorData& v) { return v.nvals() == v.n; }

// Walks the merged index streams of x and y over indices < ihi, starting
// at stream offsets a and b, and calls emit(i, xk, yk) per output entry
// in ascending i.  A union (eWiseAdd) also emits single-sided entries,
// with VectorData::npos for the absent side; otherwise (eWiseMult) only
// the intersection.
template <class Emit>
void merge_ewise_range(const VectorData& x, const VectorData& y, size_t a,
                       size_t b, Index ihi, bool uni, Emit&& emit) {
  const size_t ae = x.ind.size(), be = y.ind.size();
  while (a < ae && x.ind[a] < ihi && b < be && y.ind[b] < ihi) {
    if (x.ind[a] == y.ind[b]) {
      emit(x.ind[a], a, b);
      ++a;
      ++b;
    } else if (x.ind[a] < y.ind[b]) {
      if (uni) emit(x.ind[a], a, VectorData::npos);
      ++a;
    } else {
      if (uni) emit(y.ind[b], VectorData::npos, b);
      ++b;
    }
  }
  if (uni) {
    for (; a < ae && x.ind[a] < ihi; ++a) emit(x.ind[a], a, VectorData::npos);
    for (; b < be && y.ind[b] < ihi; ++b) emit(y.ind[b], VectorData::npos, b);
  }
}

struct MergePlan {
  Index n = 0;      // index space [0, n)
  Index block = 1;  // indices per block (the last one short)
  Index nblocks = 0;
  bool uni = false;
  std::vector<size_t> xstart, ystart;  // per block: first stream offset
  std::vector<size_t> offs;  // per block: first output slot; [nblocks] = total
};

// The block partition and output offsets of the merged pass over x and y
// (ops/ewise_vector.cpp).
MergePlan plan_merge(Context* ctx, const VectorData& x, const VectorData& y,
                     bool uni);

// Runs the fill pass of `plan`: each parallel chunk builds a worker with
// make_emit() and calls it as emit(slot, i, xk, yk) for every output
// entry, in ascending slot order within a block.
template <class MakeEmit>
void merge_fill(Context* ctx, const MergePlan& plan, const VectorData& x,
                const VectorData& y, MakeEmit&& make_emit) {
  ctx->parallel_for(0, plan.nblocks, 1, [&](Index blo, Index bhi) {
    auto emit = make_emit();
    for (Index b = blo; b < bhi; ++b) {
      const Index ihi = std::min<Index>(plan.n, (b + 1) * plan.block);
      size_t slot = plan.offs[b];
      merge_ewise_range(x, y, plan.xstart[b], plan.ystart[b], ihi, plan.uni,
                        [&](Index i, size_t xk, size_t yk) {
                          emit(slot++, i, xk, yk);
                        });
    }
  });
}

}  // namespace grb
