// GrB_select (paper §VIII.C): the functional input mask.
//   w<m,r> = w (+) u<f(u, ind(u), 1, s)>
//   C<M,r> = C (+) A'<f(A', ind(A'), 2, s)>
// Entries where the boolean index-unary operator returns true are kept
// with their original values; the rest are annihilated.
#include <algorithm>

#include "ops/common.hpp"
#include "ops/op_apply.hpp"

namespace grb {
namespace {

Info check_select_op(const IndexUnaryOp* op) {
  if (op == nullptr) return Info::kNullPointer;
  // The operator must return a value interpretable as boolean.
  if (!types_compatible(TypeBool(), op->ztype())) return Info::kDomainMismatch;
  return Info::kSuccess;
}

// Shared per-entry evaluator: true -> keep.
class Keeper {
 public:
  Keeper(const IndexUnaryOp* op, const Type* input_type, const void* s)
      : op_(op),
        x_cast_(op->value_agnostic() ? input_type : op->xtype(), input_type),
        xb_((op->value_agnostic() ? input_type : op->xtype())->size()),
        zb_(op->ztype()->size()),
        s_(s) {}

  bool keep(const void* x, Index* indices, Index n) {
    x_cast_.run(xb_.data(), x);
    op_->apply(zb_.data(), xb_.data(), indices, n, s_);
    return value_as_bool(op_->ztype(), zb_.data());
  }

 private:
  const IndexUnaryOp* op_;
  Caster x_cast_;
  ValueBuf xb_, zb_;
  const void* s_;
};

}  // namespace

Info select(Vector* w, const Vector* mask, const BinaryOp* accum,
            const IndexUnaryOp* op, const Vector* u, const void* s,
            const Type* stype, const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(check_select_op(op));
  GRB_RETURN_IF_ERROR(validate_objects({w, mask, u}));
  if (u == nullptr) return Info::kNullPointer;
  if (u->size() != w->size()) return Info::kDimensionMismatch;
  if (mask != nullptr && mask->size() != w->size())
    return Info::kDimensionMismatch;
  if (op->xtype() != nullptr)
    GRB_RETURN_IF_ERROR(check_cast(op->xtype(), u->type()));
  // Selected values keep the input domain.
  GRB_RETURN_IF_ERROR(check_cast(w->type(), u->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, w->type(), u->type()));
  if (s == nullptr || stype == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(check_cast(op->stype(), stype));
  ValueBuf sv(op->stype()->size());
  cast_value(op->stype(), sv.data(), stype, s);

  const Descriptor& d = resolve_desc(desc);
  std::shared_ptr<const VectorData> u_snap, m_snap;
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(u)->snapshot(&u_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(mask)->snapshot(&m_snap));
  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  return defer_or_run(w, [w, u_snap, m_snap, op, sv, spec]() -> Info {
    // Entry-parallel two-phase: evaluate the keep bits once into a
    // bitmap, prefix-sum per fixed block, then gather survivors in
    // place.  Survivor order is input order, so the result is the same
    // stable compaction whatever the chunking.
    Index nvals = u_snap->nvals();
    Context* ectx = exec_context(w->context(), nvals);
    std::vector<uint8_t> keep_bits(nvals);
    ectx->parallel_for(0, nvals, [&](Index lo, Index hi) {
      Keeper keeper(op, u_snap->type, sv.data());
      for (Index k = lo; k < hi; ++k) {
        Index indices[1] = {u_snap->ind[k]};
        keep_bits[k] = keeper.keep(u_snap->vals.at(k), indices, 1);
      }
    });
    Index block = ectx->block_size(nvals, nvals);
    Index nb = nvals == 0 ? 0 : (nvals + block - 1) / block;
    std::vector<size_t> offs(nb + 1, 0);
    for (Index b = 0; b < nb; ++b) {
      Index hi = std::min<Index>(nvals, (b + 1) * block);
      size_t n = 0;
      for (Index k = b * block; k < hi; ++k) n += keep_bits[k];
      offs[b + 1] = offs[b] + n;
    }
    auto t = std::make_shared<VectorData>(u_snap->type, u_snap->n);
    t->ind.resize(offs[nb]);
    t->vals.resize(offs[nb]);
    ectx->parallel_for(0, nb, 1, [&](Index blo, Index bhi) {
      for (Index b = blo; b < bhi; ++b) {
        Index hi = std::min<Index>(nvals, (b + 1) * block);
        size_t w = offs[b];
        for (Index k = b * block; k < hi; ++k) {
          if (keep_bits[k]) {
            t->ind[w] = u_snap->ind[k];
            t->vals.set(w, u_snap->vals.at(k));
            ++w;
          }
        }
      }
    });
    publish_result(w, w->context(), std::move(t), m_snap.get(), spec);
    return Info::kSuccess;
  });
}

Info select(Matrix* c, const Matrix* mask, const BinaryOp* accum,
            const IndexUnaryOp* op, const Matrix* a, const void* s,
            const Type* stype, const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(check_select_op(op));
  GRB_RETURN_IF_ERROR(validate_objects({c, mask, a}));
  if (a == nullptr) return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  Index ar = d.tran0() ? a->ncols() : a->nrows();
  Index ac = d.tran0() ? a->nrows() : a->ncols();
  if (ar != c->nrows() || ac != c->ncols()) return Info::kDimensionMismatch;
  if (mask != nullptr &&
      (mask->nrows() != c->nrows() || mask->ncols() != c->ncols()))
    return Info::kDimensionMismatch;
  if (op->xtype() != nullptr)
    GRB_RETURN_IF_ERROR(check_cast(op->xtype(), a->type()));
  GRB_RETURN_IF_ERROR(check_cast(c->type(), a->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, c->type(), a->type()));
  if (s == nullptr || stype == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(check_cast(op->stype(), stype));
  ValueBuf sv(op->stype()->size());
  cast_value(op->stype(), sv.data(), stype, s);

  std::shared_ptr<const MatrixData> a_snap, m_snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Matrix*>(mask)->snapshot(&m_snap));
  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  bool t0 = d.tran0();
  return defer_or_run(c, [c, a_snap, m_snap, op, sv, spec, t0]() -> Info {
    std::shared_ptr<const MatrixData> av =
        t0 ? format_transpose_view(a_snap) : a_snap;
    // Row-parallel two-phase: evaluate the keep bits once into a bitmap,
    // prefix-sum, then gather survivors.
    Index nrows = av->nrows;
    std::vector<uint8_t> keep_bits(av->col.size());
    std::vector<Index> counts(nrows, 0);
    Context* ctx = exec_context(c->context(), av->nvals());
    ctx->parallel_for(0, nrows, [&](Index lo, Index hi) {
      Keeper keeper(op, av->type, sv.data());
      for (Index r = lo; r < hi; ++r) {
        Index n = 0;
        for (size_t k = av->ptr[r]; k < av->ptr[r + 1]; ++k) {
          Index indices[2] = {r, av->col[k]};
          bool keep = keeper.keep(av->vals.at(k), indices, 2);
          keep_bits[k] = keep;
          n += keep;
        }
        counts[r] = n;
      }
    });
    auto t = std::make_shared<MatrixData>(av->type, nrows, av->ncols);
    for (Index r = 0; r < nrows; ++r) t->ptr[r + 1] = t->ptr[r] + counts[r];
    t->col.resize(t->ptr[nrows]);
    t->vals.resize(t->ptr[nrows]);
    ctx->parallel_for(0, nrows, [&](Index lo, Index hi) {
      for (Index r = lo; r < hi; ++r) {
        size_t w = t->ptr[r];
        for (size_t k = av->ptr[r]; k < av->ptr[r + 1]; ++k) {
          if (keep_bits[k]) {
            t->col[w] = av->col[k];
            t->vals.set(w, av->vals.at(k));
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
