#include "containers/pending.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

namespace grb {

namespace {

// Stable LSD radix sort by (i, j): the byte digits of j, then those of
// i, least significant first.  A digit that is equal across the whole
// batch orders nothing, so its pass is skipped: a 1-tuple batch makes no
// pass, and a batch over 2^40 columns makes only the passes its keys
// need.  Stability keeps insertion order within a key.
void radix_sort(std::vector<FoldItem>* items) {
  if (items->empty()) return;
  const FoldItem first = items->front();
  Index vary_i = 0, vary_j = 0;
  for (const FoldItem& it : *items) {
    vary_i |= it.i ^ first.i;
    vary_j |= it.j ^ first.j;
  }
  std::vector<FoldItem> tmp(items->size());
  std::array<size_t, 256> start;
  for (int pass = 0; pass < 2 * 8; ++pass) {
    Index FoldItem::*key = pass < 8 ? &FoldItem::j : &FoldItem::i;
    const int shift = 8 * (pass % 8);
    if ((((pass < 8 ? vary_j : vary_i) >> shift) & 0xff) == 0) continue;
    start.fill(0);
    for (const FoldItem& it : *items) ++start[(it.*key >> shift) & 0xff];
    size_t sum = 0;
    for (size_t& s : start) sum += std::exchange(s, sum);
    for (const FoldItem& it : *items)
      tmp[start[(it.*key >> shift) & 0xff]++] = it;
    items->swap(tmp);
  }
}

}  // namespace

void fold_batch(std::vector<FoldItem>* items, Index nrows,
                const Index* base_ptr, const obs::TrackedVec<Index>& base_col,
                const ValueArray& base_vals, const ValueArray& pend_vals,
                Index* out_ptr, obs::TrackedVec<Index>* out_col,
                ValueArray* out_vals) {
  std::vector<FoldItem>& batch = *items;
  // Reserve the output's upper bound (every update an insert) before any
  // scratch is allocated.  Exact-size blocks, a little larger each fold,
  // stop fitting the heap holes their predecessors leave: glibc's heap
  // then grows with every batch (0.7 MiB more peak RSS on the ingest
  // benchmark, R-MAT seed 5).
  out_col->reserve(base_col.size() + batch.size());
  out_vals->reserve(base_col.size() + batch.size());
  radix_sort(items);
  // Keep the last write per key; rows past the base sort last and drop.
  size_t m = 0;
  for (size_t k = 0; k < batch.size() && batch[k].i < nrows; ++k) {
    if (k + 1 < batch.size() && batch[k + 1].i == batch[k].i &&
        batch[k + 1].j == batch[k].j)
      continue;
    batch[m++] = batch[k];
  }
  batch.resize(m);

  // One pass: find each key in its base row (searching past the previous
  // key of the row), append the untouched base span before it, whatever
  // rows it crosses, then the update.  The reserve above holds every
  // append, so nothing is zeroed or reallocated.  A row ends at its base
  // offset plus the entry count the updates so far added or removed
  // (mod 2^64), so its offset is set as soon as the keys pass it.
  const Index* col = base_col.data();
  size_t src = 0;  // next base entry not yet copied or replaced
  auto copy_base = [&](size_t end) {
    const size_t n = end - src;
    if (n == 0) return;  // the base may be empty (null data)
    out_col->insert(out_col->end(), col + src, col + end);
    out_vals->append(base_vals, src, n);
    src = end;
  };
  Index r = 0;  // next row whose out_ptr[r + 1] is unset
  for (size_t k = 0; k < m; ++k) {
    const FoldItem& it = batch[k];
    size_t lo = src;
    if (k == 0 || it.i != batch[k - 1].i) {
      const Index delta = out_col->size() - src;
      for (; r < it.i; ++r) out_ptr[r + 1] = base_ptr[r + 1] + delta;
      lo = base_ptr[it.i];
    }
    const Index* hi = col + base_ptr[it.i + 1];
    const Index* p = std::lower_bound(col + lo, hi, it.j);
    copy_base(static_cast<size_t>(p - col));
    if (p != hi && *p == it.j) ++src;  // replaced or removed
    if (it.slot != kDeleteSlot) {
      out_col->push_back(it.j);
      out_vals->append(pend_vals, it.slot, 1);
    }
  }
  const Index delta = out_col->size() - src;
  for (; r < nrows; ++r) out_ptr[r + 1] = base_ptr[r + 1] + delta;
  copy_base(base_col.size());
}

}  // namespace grb
