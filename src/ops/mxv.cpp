// GrB_mxv: w<m,r> = w (+) A*u over a semiring.
#include <algorithm>

#include "obs/telemetry.hpp"
#include "ops/mxm.hpp"

namespace grb {

Info mxv(Vector* w, const Vector* mask, const BinaryOp* accum,
         const Semiring* s, const Matrix* a, const Vector* u,
         const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({w, mask, a, u}));
  if (s == nullptr || a == nullptr || u == nullptr)
    return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  Index ar = d.tran0() ? a->ncols() : a->nrows();
  Index ac = d.tran0() ? a->nrows() : a->ncols();
  if (ac != u->size() || ar != w->size()) return Info::kDimensionMismatch;
  if (mask != nullptr && mask->size() != w->size())
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(s->mul()->xtype(), a->type()));
  GRB_RETURN_IF_ERROR(check_cast(s->mul()->ytype(), u->type()));
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
  bool t0 = d.tran0();
  return defer_or_run(w, [w, a_snap, u_snap, m_snap, s, spec, t0]() -> Info {
    Context* ctx =
        exec_context(w->context(), a_snap->nvals() + u_snap->nvals());
    std::shared_ptr<const MatrixData> av =
        t0 ? format_transpose_view(a_snap) : a_snap;
    std::shared_ptr<VectorData> t = fastpath_mxv(ctx, *av, *u_snap, s);
    if (t == nullptr) {
      // mul's x comes from the matrix, y from the vector.
      t = row_dot_kernel<false>(ctx, *av, *u_snap, s->mul()->ztype(), [&] {
        return SemiringRunner(s, av->type, u_snap->type);
      });
    }
    // SpMV flop metric: one multiply-add per stored A entry (upper
    // bound; sparse u skips some).
    if (obs::stats_enabled()) obs::add_flops(av->nvals());
    publish_result(w, ctx, std::move(t), m_snap.get(), spec);
    return Info::kSuccess;
  });
}

}  // namespace grb
