// GrB_kronecker: C<M,r> = C (+) kron(A, B) with a binary operator.
#include <algorithm>

#include "ops/common.hpp"
#include "ops/op_apply.hpp"

namespace grb {

Info kronecker(Matrix* c, const Matrix* mask, const BinaryOp* accum,
               const BinaryOp* op, const Matrix* a, const Matrix* b,
               const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({c, mask, a, b}));
  if (op == nullptr || a == nullptr || b == nullptr)
    return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  Index ar = d.tran0() ? a->ncols() : a->nrows();
  Index ac = d.tran0() ? a->nrows() : a->ncols();
  Index br = d.tran1() ? b->ncols() : b->nrows();
  Index bc = d.tran1() ? b->nrows() : b->ncols();
  if (c->nrows() != ar * br || c->ncols() != ac * bc)
    return Info::kDimensionMismatch;
  if (mask != nullptr &&
      (mask->nrows() != c->nrows() || mask->ncols() != c->ncols()))
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(op->xtype(), a->type()));
  GRB_RETURN_IF_ERROR(check_cast(op->ytype(), b->type()));
  GRB_RETURN_IF_ERROR(check_cast(c->type(), op->ztype()));
  GRB_RETURN_IF_ERROR(check_accum(accum, c->type(), op->ztype()));

  std::shared_ptr<const MatrixData> a_snap, b_snap, m_snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(b)->snapshot(&b_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Matrix*>(mask)->snapshot(&m_snap));
  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  bool t0 = d.tran0(), t1 = d.tran1();
  return defer_or_run(
      c, [c, a_snap, b_snap, m_snap, op, spec, t0, t1]() -> Info {
        std::shared_ptr<const MatrixData> av =
            t0 ? format_transpose_view(a_snap) : a_snap;
        std::shared_ptr<const MatrixData> bv =
            t1 ? format_transpose_view(b_snap) : b_snap;
        Index nrows = av->nrows * bv->nrows;
        Index ncols = av->ncols * bv->ncols;
        auto t = std::make_shared<MatrixData>(op->ztype(), nrows, ncols);
        // Row r of T combines row r / b.nrows of A with row r % b.nrows
        // of B; output columns are ja * b.ncols + jb, already sorted.
        for (Index r = 0; r < nrows; ++r) {
          Index ia = r / bv->nrows;
          Index ib = r % bv->nrows;
          t->ptr[r + 1] =
              t->ptr[r] + (av->ptr[ia + 1] - av->ptr[ia]) *
                              (bv->ptr[ib + 1] - bv->ptr[ib]);
        }
        t->col.resize(t->ptr[nrows]);
        t->vals.resize(t->ptr[nrows]);
        Context* ectx = exec_context(c->context(), t->ptr[nrows]);
        ectx->parallel_for(0, nrows, [&](Index lo, Index hi) {
          BinRunner run(op, av->type, bv->type);
          for (Index r = lo; r < hi; ++r) {
            Index ia = r / bv->nrows;
            Index ib = r % bv->nrows;
            size_t w = t->ptr[r];
            for (size_t ka = av->ptr[ia]; ka < av->ptr[ia + 1]; ++ka) {
              for (size_t kb = bv->ptr[ib]; kb < bv->ptr[ib + 1]; ++kb) {
                t->col[w] = av->col[ka] * bv->ncols + bv->col[kb];
                run.run(t->vals.at(w), av->vals.at(ka), bv->vals.at(kb));
                ++w;
              }
            }
          }
        });
        publish_result(c, c->context(), std::move(t), m_snap.get(), spec);
        return Info::kSuccess;
      });
}

}  // namespace grb
