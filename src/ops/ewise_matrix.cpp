// eWiseMult (set intersection) and eWiseAdd (set union) for matrices.
// Row-parallel two-phase assembly (structural count, then fill).
#include "ops/common.hpp"
#include "ops/op_apply.hpp"

namespace grb {
namespace {

Info validate_ewise_m(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                      const BinaryOp* op, const Matrix* a, const Matrix* b,
                      const Descriptor& d) {
  GRB_RETURN_IF_ERROR(validate_objects({c, mask, a, b}));
  if (op == nullptr || a == nullptr || b == nullptr)
    return Info::kNullPointer;
  Index ar = d.tran0() ? a->ncols() : a->nrows();
  Index ac = d.tran0() ? a->nrows() : a->ncols();
  Index br = d.tran1() ? b->ncols() : b->nrows();
  Index bc = d.tran1() ? b->nrows() : b->ncols();
  if (ar != c->nrows() || ac != c->ncols() || br != c->nrows() ||
      bc != c->ncols())
    return Info::kDimensionMismatch;
  if (mask != nullptr &&
      (mask->nrows() != c->nrows() || mask->ncols() != c->ncols()))
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(op->xtype(), a->type()));
  GRB_RETURN_IF_ERROR(check_cast(op->ytype(), b->type()));
  GRB_RETURN_IF_ERROR(check_cast(c->type(), op->ztype()));
  GRB_RETURN_IF_ERROR(check_accum(accum, c->type(), op->ztype()));
  return Info::kSuccess;
}

// Merges row r of a and b; emit(j, ak, bk) with npos for absent sides.
template <bool kUnion, class Emit>
void merge_ewise_row(const MatrixData& a, const MatrixData& b, Index r,
                     Emit&& emit) {
  size_t ak = a.ptr[r], aend = a.ptr[r + 1];
  size_t bk = b.ptr[r], bend = b.ptr[r + 1];
  while (ak < aend && bk < bend) {
    if (a.col[ak] == b.col[bk]) {
      emit(a.col[ak], ak, bk);
      ++ak;
      ++bk;
    } else if (a.col[ak] < b.col[bk]) {
      if constexpr (kUnion) emit(a.col[ak], ak, MatrixData::npos);
      ++ak;
    } else {
      if constexpr (kUnion) emit(b.col[bk], MatrixData::npos, bk);
      ++bk;
    }
  }
  if constexpr (kUnion) {
    for (; ak < aend; ++ak) emit(a.col[ak], ak, MatrixData::npos);
    for (; bk < bend; ++bk) emit(b.col[bk], MatrixData::npos, bk);
  }
}

template <bool kUnion>
std::shared_ptr<MatrixData> compute_ewise_m(Context* ctx,
                                            const MatrixData& a,
                                            const MatrixData& b,
                                            const BinaryOp* op) {
  auto t = std::make_shared<MatrixData>(op->ztype(), a.nrows, a.ncols);
  std::vector<Index> counts(a.nrows, 0);
  auto count = [&](Index lo, Index hi) {
    for (Index r = lo; r < hi; ++r) {
      Index n = 0;
      merge_ewise_row<kUnion>(a, b, r, [&](Index, size_t, size_t) { ++n; });
      counts[r] = n;
    }
  };
  ctx->parallel_for(0, a.nrows, count);
  for (Index r = 0; r < a.nrows; ++r) t->ptr[r + 1] = t->ptr[r] + counts[r];
  t->col.resize(t->ptr[a.nrows]);
  t->vals.resize(t->ptr[a.nrows]);

  auto fill = [&](Index lo, Index hi) {
    BinRunner run(op, a.type, b.type);
    Caster a2z(op->ztype(), a.type);
    Caster b2z(op->ztype(), b.type);
    for (Index r = lo; r < hi; ++r) {
      size_t w = t->ptr[r];
      merge_ewise_row<kUnion>(a, b, r, [&](Index j, size_t ak, size_t bk) {
        t->col[w] = j;
        void* dst = t->vals.at(w);
        if (ak == MatrixData::npos) {
          b2z.run(dst, b.vals.at(bk));
        } else if (bk == MatrixData::npos) {
          a2z.run(dst, a.vals.at(ak));
        } else {
          run.run(dst, a.vals.at(ak), b.vals.at(bk));
        }
        ++w;
      });
    }
  };
  ctx->parallel_for(0, a.nrows, fill);
  return t;
}

template <bool kUnion>
Info ewise_m(Matrix* c, const Matrix* mask, const BinaryOp* accum,
             const BinaryOp* op, const Matrix* a, const Matrix* b,
             const Descriptor* desc) {
  const Descriptor& d = resolve_desc(desc);
  GRB_RETURN_IF_ERROR(validate_ewise_m(c, mask, accum, op, a, b, d));
  std::shared_ptr<const MatrixData> a_snap, b_snap, m_snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(b)->snapshot(&b_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Matrix*>(mask)->snapshot(&m_snap));
  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  bool t0 = d.tran0(), t1 = d.tran1();
  return defer_or_run(
      c,
      [c, a_snap, b_snap, m_snap, op, spec, t0, t1]() -> Info {
        Context* ectx = exec_context(
            c->context(), a_snap->nvals() + b_snap->nvals());
        std::shared_ptr<const MatrixData> av =
            t0 ? format_transpose_view(a_snap) : a_snap;
        std::shared_ptr<const MatrixData> bv =
            t1 ? format_transpose_view(b_snap) : b_snap;
        auto t = compute_ewise_m<kUnion>(ectx, *av, *bv, op);
        publish_result(c, c->context(), std::move(t), m_snap.get(), spec);
        return Info::kSuccess;
      });
}

}  // namespace

Info ewise_mult(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                const BinaryOp* op, const Matrix* a, const Matrix* b,
                const Descriptor* desc) {
  return ewise_m<false>(c, mask, accum, op, a, b, desc);
}

Info ewise_add(Matrix* c, const Matrix* mask, const BinaryOp* accum,
               const BinaryOp* op, const Matrix* a, const Matrix* b,
               const Descriptor* desc) {
  return ewise_m<true>(c, mask, accum, op, a, b, desc);
}

}  // namespace grb
