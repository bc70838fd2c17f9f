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

  // Pass 1: find each key in its base row (searching past the previous
  // key of the row) and set the row offsets.  An untouched row's offset
  // is its base offset plus the running entry-count change (mod 2^64).
  struct Loc {
    size_t pos;  // lower bound of the key in base_col
    bool hit;    // the base stores the key
  };
  std::vector<Loc> loc(m);
  const Index* col = base_col.data();
  Index delta = 0;
  Index r = 0;  // next row whose out_ptr[r + 1] is unset
  size_t lo = 0;
  for (size_t k = 0; k < m; ++k) {
    const FoldItem& it = batch[k];
    if (k == 0 || it.i != batch[k - 1].i) lo = base_ptr[it.i];
    for (; r < it.i; ++r) out_ptr[r + 1] = base_ptr[r + 1] + delta;
    const Index* hi = col + base_ptr[it.i + 1];
    const Index* p = std::lower_bound(col + lo, hi, it.j);
    const bool hit = p != hi && *p == it.j;
    loc[k] = {static_cast<size_t>(p - col), hit};
    lo = loc[k].pos + (hit ? 1 : 0);
    if (it.slot == kDeleteSlot) {
      delta -= hit ? 1 : 0;
    } else {
      delta += hit ? 0 : 1;
    }
  }
  for (; r < nrows; ++r) out_ptr[r + 1] = base_ptr[r + 1] + delta;

  // Pass 2: one copy per base span between updates, whatever rows it
  // crosses; the updates themselves are written in between.
  const size_t stride = base_vals.stride();
  out_col->resize(base_col.size() + delta);
  out_vals->resize(out_col->size());
  Index* dst_col = out_col->data();
  auto* dst_val = static_cast<std::byte*>(out_vals->data());
  const auto* src_val = static_cast<const std::byte*>(base_vals.data());
  size_t src = 0;
  auto copy_base = [&](size_t end) {
    const size_t n = end - src;
    if (n == 0) return;  // the base may be empty (null data)
    std::memcpy(dst_col, col + src, n * sizeof(Index));
    std::memcpy(dst_val, src_val + src * stride, n * stride);
    dst_col += n;
    dst_val += n * stride;
  };
  for (size_t k = 0; k < m; ++k) {
    copy_base(loc[k].pos);
    src = loc[k].pos + (loc[k].hit ? 1 : 0);
    if (batch[k].slot != kDeleteSlot) {
      *dst_col++ = batch[k].j;
      std::memcpy(dst_val, pend_vals.at(batch[k].slot), stride);
      dst_val += stride;
    }
  }
  copy_base(base_col.size());
}

}  // namespace grb
