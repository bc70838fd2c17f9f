// GrB_extract: w<m> = u(I);  C<M> = A(I,J);  w<m> = A(I, j) (column).
//
// Index lists may be GrB_ALL (grb::all_indices()), may repeat, and may be
// in arbitrary order.  Out-of-range indices are the API error
// kInvalidIndex (checked eagerly, before anything is modified).
#include <algorithm>

#include "ops/common.hpp"
#include "ops/op_apply.hpp"

namespace grb {
namespace {

bool is_all(const Index* indices) { return indices == all_indices(); }

// Captures an index list (or synthesizes 0..n-1 semantics for GrB_ALL).
struct IndexList {
  bool all = false;
  std::vector<Index> list;

  Index size(Index domain) const {
    return all ? domain : static_cast<Index>(list.size());
  }
  Index at(Index k) const { return all ? k : list[k]; }
};

Info capture_indices(IndexList* out, const Index* indices, Index n,
                     Index domain) {
  if (is_all(indices)) {
    out->all = true;
    return Info::kSuccess;
  }
  if (indices == nullptr && n > 0) return Info::kNullPointer;
  out->list.assign(indices, indices + n);
  for (Index i : out->list)
    if (i >= domain) return Info::kInvalidIndex;
  return Info::kSuccess;
}

}  // namespace

Info extract(Vector* w, const Vector* mask, const BinaryOp* accum,
             const Vector* u, const Index* indices, Index ni,
             const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({w, mask, u}));
  if (u == nullptr) return Info::kNullPointer;
  Index eff_ni = is_all(indices) ? u->size() : ni;
  if (eff_ni != w->size()) return Info::kDimensionMismatch;
  if (mask != nullptr && mask->size() != w->size())
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(w->type(), u->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, w->type(), u->type()));
  IndexList il;
  GRB_RETURN_IF_ERROR(capture_indices(&il, indices, ni, u->size()));

  const Descriptor& d = resolve_desc(desc);
  std::shared_ptr<const VectorData> u_snap, m_snap;
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(u)->snapshot(&u_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(mask)->snapshot(&m_snap));
  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  return defer_or_run(
      w, [w, u_snap, m_snap, il = std::move(il), eff_ni, spec]() -> Info {
        auto t = std::make_shared<VectorData>(u_snap->type, eff_ni);
        if (il.all) {
          t->ind = u_snap->ind;
          t->vals = u_snap->vals;
        } else {
          for (Index k = 0; k < eff_ni; ++k) {
            size_t pos = u_snap->find(il.at(k));
            if (pos != VectorData::npos) {
              t->ind.push_back(k);
              t->vals.push_back(u_snap->vals.at(pos));
            }
          }
        }
        publish_result(w, w->context(), std::move(t), m_snap.get(), spec);
        return Info::kSuccess;
      });
}

Info extract(Matrix* c, const Matrix* mask, const BinaryOp* accum,
             const Matrix* a, const Index* rows, Index nrows,
             const Index* cols, Index ncols, const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({c, mask, a}));
  if (a == nullptr) return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  Index ar = d.tran0() ? a->ncols() : a->nrows();
  Index ac = d.tran0() ? a->nrows() : a->ncols();
  Index eff_nr = is_all(rows) ? ar : nrows;
  Index eff_nc = is_all(cols) ? ac : ncols;
  if (eff_nr != c->nrows() || eff_nc != c->ncols())
    return Info::kDimensionMismatch;
  if (mask != nullptr &&
      (mask->nrows() != c->nrows() || mask->ncols() != c->ncols()))
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(c->type(), a->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, c->type(), a->type()));
  IndexList ri, ci;
  GRB_RETURN_IF_ERROR(capture_indices(&ri, rows, nrows, ar));
  GRB_RETURN_IF_ERROR(capture_indices(&ci, cols, ncols, ac));

  std::shared_ptr<const MatrixData> a_snap, m_snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Matrix*>(mask)->snapshot(&m_snap));
  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  bool t0 = d.tran0();
  return defer_or_run(c, [c, a_snap, m_snap, ri = std::move(ri),
                          ci = std::move(ci), eff_nr, eff_nc, spec,
                          t0]() -> Info {
    std::shared_ptr<const MatrixData> av =
        t0 ? format_transpose_view(a_snap) : a_snap;
    auto t = std::make_shared<MatrixData>(av->type, eff_nr, eff_nc);
    // Column gather plan: source col -> sorted list of output columns.
    std::vector<std::pair<Index, Index>> colmap;  // (src col, out col)
    if (!ci.all) {
      colmap.reserve(ci.list.size());
      for (Index k = 0; k < eff_nc; ++k) colmap.push_back({ci.at(k), k});
      std::sort(colmap.begin(), colmap.end());
    }
    std::vector<std::pair<Index, size_t>> rowbuf;  // (out col, src pos)
    for (Index r = 0; r < eff_nr; ++r) {
      Index src = ri.all ? r : ri.at(r);
      rowbuf.clear();
      for (size_t k = av->ptr[src]; k < av->ptr[src + 1]; ++k) {
        Index j = av->col[k];
        if (ci.all) {
          rowbuf.push_back({j, k});
        } else {
          auto lo = std::lower_bound(
              colmap.begin(), colmap.end(), std::pair<Index, Index>{j, 0});
          for (auto it = lo; it != colmap.end() && it->first == j; ++it)
            rowbuf.push_back({it->second, k});
        }
      }
      std::sort(rowbuf.begin(), rowbuf.end());
      for (auto& [oc, pos] : rowbuf) {
        t->col.push_back(oc);
        t->vals.push_back(av->vals.at(pos));
      }
      t->ptr[r + 1] = t->col.size();
    }
    publish_result(c, c->context(), std::move(t), m_snap.get(), spec);
    return Info::kSuccess;
  });
}

Info extract_col(Vector* w, const Vector* mask, const BinaryOp* accum,
                 const Matrix* a, const Index* rows, Index nrows, Index col,
                 const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({w, mask, a}));
  if (a == nullptr) return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  // With T0 the extraction reads a row of A instead of a column.
  Index ar = d.tran0() ? a->ncols() : a->nrows();
  Index ac = d.tran0() ? a->nrows() : a->ncols();
  if (col >= ac) return Info::kInvalidIndex;
  Index eff_nr = is_all(rows) ? ar : nrows;
  if (eff_nr != w->size()) return Info::kDimensionMismatch;
  if (mask != nullptr && mask->size() != w->size())
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(w->type(), a->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, w->type(), a->type()));
  IndexList ri;
  GRB_RETURN_IF_ERROR(capture_indices(&ri, rows, nrows, ar));

  std::shared_ptr<const MatrixData> a_snap;
  std::shared_ptr<const VectorData> m_snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(mask)->snapshot(&m_snap));
  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  bool t0 = d.tran0();
  return defer_or_run(w, [w, a_snap, m_snap, ri = std::move(ri), eff_nr,
                          col, spec, t0]() -> Info {
    std::shared_ptr<const MatrixData> av =
        t0 ? format_transpose_view(a_snap) : a_snap;
    auto t = std::make_shared<VectorData>(av->type, eff_nr);
    for (Index k = 0; k < eff_nr; ++k) {
      Index src = ri.all ? k : ri.at(k);
      size_t pos = av->find(src, col);
      if (pos != MatrixData::npos) {
        t->ind.push_back(k);
        t->vals.push_back(av->vals.at(pos));
      }
    }
    publish_result(w, w->context(), std::move(t), m_snap.get(), spec);
    return Info::kSuccess;
  });
}

}  // namespace grb
