// Pending-tuple store shared by Vector and Matrix: the update records
// setElement/removeElement append, the prefix split behind
// flush_prefix, and the fold of a batch into a base block.
//
// The fold is one routine for both containers.  It sees the base as CSR
// (row offsets, sorted columns, packed values); a vector is the one-row
// case, its index the column.  Its per-entry work is proportional to
// the batch: a stable radix sort of the batch, one binary search per
// update, and a memcpy of every untouched span of the base.
#pragma once

#include <algorithm>
#include <vector>

#include "core/type.hpp"

namespace grb {

// A pending vector update (setElement or removeElement).
struct PendingTuple {
  Index i;
  bool is_delete;
};

// A pending matrix update.
struct PendingTupleIJ {
  Index i, j;
  bool is_delete;
};

// One update of a fold batch: its (row, column) key and its value slot
// in the batch's value array (kDeleteSlot for a removal).
struct FoldItem {
  Index i, j;
  size_t slot;
};
inline constexpr size_t kDeleteSlot = ~size_t{0};

inline FoldItem fold_item(const PendingTuple& t, size_t slot) {
  return {0, t.i, slot};
}
inline FoldItem fold_item(const PendingTupleIJ& t, size_t slot) {
  return {t.i, t.j, slot};
}

// Folds `items` (insertion order; sorted and deduplicated in place, the
// last write per key winning) into the CSR-shaped base of `nrows` rows:
// `base_ptr` holds nrows + 1 offsets into base_col/base_vals.  Writes
// out_ptr[1..nrows] and fills the empty out_col/out_vals.  Items whose
// row is not below nrows are dropped.
void fold_batch(std::vector<FoldItem>* items, Index nrows,
                const Index* base_ptr, const obs::TrackedVec<Index>& base_col,
                const ValueArray& base_vals, const ValueArray& pend_vals,
                Index* out_ptr, obs::TrackedVec<Index>* out_col,
                ValueArray* out_vals);

// Numbers each tuple's value slot (insertion order among non-deletes)
// and folds the batch (see fold_batch).
template <class Tuple>
void fold_pending(const obs::TrackedVec<Tuple>& pend,
                  const ValueArray& pend_vals, Index nrows,
                  const Index* base_ptr,
                  const obs::TrackedVec<Index>& base_col,
                  const ValueArray& base_vals, Index* out_ptr,
                  obs::TrackedVec<Index>* out_col, ValueArray* out_vals) {
  std::vector<FoldItem> items;
  items.reserve(pend.size());
  size_t slot = 0;
  for (const Tuple& t : pend)
    items.push_back(fold_item(t, t.is_delete ? kDeleteSlot : slot++));
  fold_batch(&items, nrows, base_ptr, base_col, base_vals, pend_vals,
             out_ptr, out_col, out_vals);
}

// How many of `pending` tuples lie before absolute consumed-count `upto`
// when `consumed` tuples were folded already.
inline size_t prefix_take(uint64_t upto, uint64_t consumed, size_t pending) {
  return upto > consumed
             ? std::min<size_t>(pending, static_cast<size_t>(upto - consumed))
             : 0;
}

// Moves the first `take` tuples of a pending store, with their value
// slots, into the empty `head`/`head_vals` (same account as the store);
// the rest stay pending.  Value slots are numbered in insertion order
// among non-deletes, so the prefix owns the leading slots.
template <class Tuple>
void split_pending(obs::TrackedVec<Tuple>* pend, ValueArray* vals,
                   size_t take, obs::TrackedVec<Tuple>* head,
                   ValueArray* head_vals) {
  if (take == pend->size()) {
    pend->swap(*head);
    std::swap(*vals, *head_vals);
    return;
  }
  size_t slots = 0;
  for (size_t s = 0; s < take; ++s) slots += (*pend)[s].is_delete ? 0 : 1;
  const auto cut = pend->begin() + static_cast<ptrdiff_t>(take);
  head->assign(pend->begin(), cut);
  pend->erase(pend->begin(), cut);
  head_vals->append(*vals, 0, slots);
  vals->erase_front(slots);
}

}  // namespace grb
