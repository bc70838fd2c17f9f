// GrB_vxm: w<m,r> = w (+) u^T * A over a semiring.
#include <algorithm>

#include "obs/telemetry.hpp"
#include "ops/mxm.hpp"

namespace grb {

Info vxm(Vector* w, const Vector* mask, const BinaryOp* accum,
         const Semiring* s, const Vector* u, const Matrix* a,
         const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({w, mask, u, a}));
  if (s == nullptr || a == nullptr || u == nullptr)
    return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  // In vxm, INP1 is the matrix.
  Index ar = d.tran1() ? a->ncols() : a->nrows();
  Index ac = d.tran1() ? a->nrows() : a->ncols();
  if (ar != u->size() || ac != w->size()) return Info::kDimensionMismatch;
  if (mask != nullptr && mask->size() != w->size())
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(s->mul()->xtype(), u->type()));
  GRB_RETURN_IF_ERROR(check_cast(s->mul()->ytype(), a->type()));
  GRB_RETURN_IF_ERROR(check_cast(w->type(), s->mul()->ztype()));
  GRB_RETURN_IF_ERROR(check_accum(accum, w->type(), s->mul()->ztype()));

  std::shared_ptr<const MatrixData> a_snap;
  std::shared_ptr<const VectorData> u_snap, m_snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(u)->snapshot(&u_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(mask)->snapshot(&m_snap));
  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  bool t1 = d.tran1();
  return defer_or_run(w, [w, a_snap, u_snap, m_snap, s, spec, t1]() -> Info {
    std::shared_ptr<const MatrixData> av =
        t1 ? format_transpose_view(a_snap) : a_snap;
    size_t work = av->nvals() + u_snap->nvals();
    Context* ectx = exec_context(w->context(), work);
    std::shared_ptr<VectorData> t;
    // The dot path transposes A, which allocates O(ncols(A)) column
    // pointers — unaffordable for hypersparse dims; the adaptive serial
    // SPA handles those within the byte budget.
    bool can_transpose =
        static_cast<uint64_t>(av->ncols) * 2 * sizeof(Index) <=
        spgemm_dense_budget();
    if (ectx->effective_nthreads() > 1 && can_transpose) {
      // Parallel path: column dot products over A'.  Fold order per
      // output entry matches the serial SPA (ascending row index), so
      // the result is bitwise-identical to the serial path.
      auto at = format_transpose_view(av);
      t = fastpath_vxm_dot(ectx, *u_snap, *at, s);
      if (t == nullptr) {
        t = row_dot_kernel<true>(ectx, *at, *u_snap, s->mul()->ztype(), [&] {
          return SemiringRunner(s, u_snap->type, at->type);
        });
      }
    } else {
      t = fastpath_vxm(*u_snap, *av, s);
      if (t == nullptr) {
        t = vxm_spa(*u_snap, *av, s->mul()->ztype(), [&] {
          return SemiringRunner(s, u_snap->type, av->type);
        });
      }
    }
    if (obs::stats_enabled()) obs::add_flops(av->nvals());
    publish_result(w, w->context(), std::move(t), m_snap.get(), spec);
    return Info::kSuccess;
  });
}

}  // namespace grb
