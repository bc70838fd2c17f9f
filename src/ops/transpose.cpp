// transpose_data helper, its per-snapshot cache (used by every op
// honoring GrB_DESC_T0/T1) and the GrB_transpose operation.
#include "obs/telemetry.hpp"
#include "ops/common.hpp"

namespace grb {

std::shared_ptr<const MatrixData> transpose_data(const MatrixData& a) {
  auto out = std::make_shared<MatrixData>(a.type, a.ncols, a.nrows);
  size_t nnz = a.col.size();
  out->col.resize(nnz);
  out->vals.resize(nnz);
  // Counting sort by column: counts -> offsets -> scatter.  Rows of the
  // result come out sorted because the scatter scans a in row order.
  std::vector<Index> next(a.ncols + 1, 0);
  for (size_t k = 0; k < nnz; ++k) next[a.col[k] + 1] += 1;
  for (Index c = 0; c < a.ncols; ++c) next[c + 1] += next[c];
  for (Index c = 0; c <= a.ncols; ++c) out->ptr[c] = next[c];
  for (Index r = 0; r < a.nrows; ++r) {
    for (size_t k = a.ptr[r]; k < a.ptr[r + 1]; ++k) {
      Index c = a.col[k];
      Index slot = next[c]++;
      out->col[slot] = r;
      out->vals.set(slot, a.vals.at(k));
    }
  }
  return out;
}

// Lock discipline: check-under-lock / compute-outside-lock /
// install-under-lock.  Two racing readers may both build the transpose;
// the loser's copy is dropped and the first install wins, so no
// allocation ever happens under view_mu_ (enforced by
// tools/grb_analyze.py's no-alloc-under-lock zone).
std::shared_ptr<const MatrixData> format_transpose_view(
    const std::shared_ptr<const MatrixData>& m) {
  std::shared_ptr<const MatrixData> cached;
  {
    MutexLock lock(m->view_mu_);
    cached = m->trans_view_;
  }
  if (cached != nullptr) {
    obs::format_transpose_cache(true);
    return cached;
  }
  auto built = transpose_data(*m);
  obs::format_transpose_cache(false);
  MutexLock lock(m->view_mu_);
  if (m->trans_view_ == nullptr) m->trans_view_ = std::move(built);
  return m->trans_view_;
}

Info transpose(Matrix* c, const Matrix* mask, const BinaryOp* accum,
               const Matrix* a, const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({c, mask, a}));
  if (a == nullptr) return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  // With GrB_DESC_T0 the two transpositions cancel: T = A.
  bool tran = !d.tran0();
  Index t_rows = tran ? a->ncols() : a->nrows();
  Index t_cols = tran ? a->nrows() : a->ncols();
  if (c->nrows() != t_rows || c->ncols() != t_cols)
    return Info::kDimensionMismatch;
  if (mask != nullptr &&
      (mask->nrows() != c->nrows() || mask->ncols() != c->ncols()))
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(c->type(), a->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, c->type(), a->type()));

  std::shared_ptr<const MatrixData> a_snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  std::shared_ptr<const MatrixData> m_snap;
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Matrix*>(mask)->snapshot(&m_snap));

  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  auto op = [c, a_snap, m_snap, spec, tran]() -> Info {
    std::shared_ptr<const MatrixData> t =
        tran ? format_transpose_view(a_snap) : a_snap;
    publish_result(c, c->context(), std::move(t), m_snap.get(), spec);
    return Info::kSuccess;
  };
  return defer_or_run(c, std::move(op));
}

}  // namespace grb
