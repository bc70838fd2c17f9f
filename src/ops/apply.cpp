// GrB_apply: unary-op, bound-binary-op (bind-1st/2nd), and the
// GraphBLAS 2.0 index-unary-op variants (paper §VIII.B).
//
// apply preserves the stored structure of its input; only values change:
//   w<m,r> = w (+) f(u, ind(u), 1, s)
//   C<M,r> = C (+) f(A', ind(A'), 2, s)
// When the input is transposed, the indices seen by the operator are the
// *post-transpose* locations, as the paper specifies.
#include "ops/common.hpp"
#include "ops/op_apply.hpp"

namespace grb {
namespace {

// ---- "map stored values" kernels --------------------------------------------

// Each parallel chunk builds its own MapFn from the factory (generic
// runners own scratch buffers) and maps its whole run of entries in one
// call.  Every output entry depends only on its own input entry, so
// chunking cannot change the result.  The fusion planner's ChainRunner
// (ops/fused_exec.cpp) runs the same MapFn over the same runs.
std::shared_ptr<VectorData> map_vector(Context* ctx, const VectorData& u,
                                       const Type* ztype,
                                       const MapFactory& factory) {
  auto t = std::make_shared<VectorData>(ztype, u.n);
  t->ind = u.ind;
  t->vals.resize(u.ind.size());
  Index nvals = static_cast<Index>(u.ind.size());
  ctx->parallel_for(0, nvals, [&](Index lo, Index hi) {
    factory()(t->vals.at(lo), u.vals.at(lo), hi - lo, u.ind.data() + lo, 0);
  });
  return t;
}

// Matrix runs are rows, so an index operator sees (row, col[k]).
std::shared_ptr<MatrixData> map_matrix(Context* ctx, const MatrixData& a,
                                       const Type* ztype,
                                       const MapFactory& factory) {
  auto t = std::make_shared<MatrixData>(ztype, a.nrows, a.ncols);
  t->ptr = a.ptr;
  t->col = a.col;
  t->vals.resize(a.col.size());
  ctx->parallel_for(0, a.nrows, [&](Index lo, Index hi) {
    MapFn fn = factory();
    for (Index r = lo; r < hi; ++r) {
      const size_t k = a.ptr[r], n = a.ptr[r + 1] - k;
      if (n != 0) fn(t->vals.at(k), a.vals.at(k), n, a.col.data() + k, r);
    }
  });
  return t;
}

// Index-unary ops always take the generic path: the operator sees the
// entry's coordinates, (idx[k]) for vectors or (row, idx[k]) for
// matrices.
MapFactory index_mapper(const IndexUnaryOp* op, ValueBuf s, const Type* ut,
                        bool matrix) {
  const Type* xt = op->value_agnostic() ? ut : op->xtype();
  return [op, s = std::move(s), ut, xt, matrix]() -> MapFn {
    return [&op = *op, s, u2x = Caster(xt, ut), xb = ValueBuf(xt->size()),
            us = ut->size(), zs = op->ztype()->size(),
            matrix](void* z, const void* x, size_t n, const Index* idx,
                    Index row) mutable {
      auto* zp = static_cast<std::byte*>(z);
      const auto* xp = static_cast<const std::byte*>(x);
      for (size_t k = 0; k < n; ++k) {
        Index indices[2] = {matrix ? row : idx[k], matrix ? idx[k] : 0};
        u2x.run(xb.data(), xp + k * us);
        op.apply(zp + k * zs, xb.data(), indices, matrix ? 2 : 1, s.data());
      }
    };
  };
}

// ---- validation -----------------------------------------------------------

Info validate_apply_v(Vector* w, const Vector* mask, const BinaryOp* accum,
                      const Type* op_in, const Type* op_out,
                      const Vector* u) {
  GRB_RETURN_IF_ERROR(validate_objects({w, mask, u}));
  if (u == nullptr) return Info::kNullPointer;
  if (u->size() != w->size()) return Info::kDimensionMismatch;
  if (mask != nullptr && mask->size() != w->size())
    return Info::kDimensionMismatch;
  if (op_in != nullptr) GRB_RETURN_IF_ERROR(check_cast(op_in, u->type()));
  GRB_RETURN_IF_ERROR(check_cast(w->type(), op_out));
  GRB_RETURN_IF_ERROR(check_accum(accum, w->type(), op_out));
  return Info::kSuccess;
}

Info validate_apply_m(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                      const Type* op_in, const Type* op_out, const Matrix* a,
                      const Descriptor& d) {
  GRB_RETURN_IF_ERROR(validate_objects({c, mask, a}));
  if (a == nullptr) return Info::kNullPointer;
  Index ar = d.tran0() ? a->ncols() : a->nrows();
  Index ac = d.tran0() ? a->nrows() : a->ncols();
  if (ar != c->nrows() || ac != c->ncols()) return Info::kDimensionMismatch;
  if (mask != nullptr &&
      (mask->nrows() != c->nrows() || mask->ncols() != c->ncols()))
    return Info::kDimensionMismatch;
  if (op_in != nullptr) GRB_RETURN_IF_ERROR(check_cast(op_in, a->type()));
  GRB_RETURN_IF_ERROR(check_cast(c->type(), op_out));
  GRB_RETURN_IF_ERROR(check_accum(accum, c->type(), op_out));
  return Info::kSuccess;
}

WritebackSpec make_spec(const BinaryOp* accum, bool have_mask,
                        const Descriptor& d) {
  return WritebackSpec{accum, have_mask, d.mask_structure(), d.mask_comp(),
                       d.replace()};
}

// Captures a scalar argument for deferred execution, cast into `to`.
Info capture_scalar(ValueBuf* buf, const Type* to, const void* s,
                    const Type* stype) {
  if (s == nullptr || stype == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(check_cast(to, stype));
  buf->resize(to->size());
  cast_value(to, buf->data(), stype, s);
  return Info::kSuccess;
}

// ---- shared deferral -------------------------------------------------------
// Every apply form is a structure-preserving value map over its input.
// `factory` builds the per-chunk span mapper (MapFn, exec/fusion.hpp)
// used by BOTH the eager closure and — when the writeback is a plain
// replace (no mask, no accumulator) — the fusion planner, so the fused
// and eager paths run literally the same kernel.
//
// Plain self-apply (u == w) skips the eager input snapshot and reads
// w->current_data() inside the closure instead: by FIFO ordering of the
// deferred queue both see the same data, and staying lazy is what lets
// the planner accumulate apply→apply chains instead of forcing a
// materialization per call.

Info defer_vec_map(Vector* w, const Vector* u, const Vector* mask,
                   const BinaryOp* accum, const Descriptor& d,
                   const Type* ztype, MapFactory factory) {
  const bool plain = mask == nullptr && accum == nullptr && !d.mask_comp();
  const bool lazy_self = plain && u == w;
  std::shared_ptr<const VectorData> u_snap, m_snap;
  if (!lazy_self)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(u)->snapshot(&u_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(mask)->snapshot(&m_snap));
  WritebackSpec spec = make_spec(accum, mask != nullptr, d);
  FuseNode node;
  if (plain) {
    node.kind = FuseNode::Kind::kMap;
    node.ztype = ztype;
    node.make_mapper = factory;
    node.full_replace = true;
    if (!lazy_self) {
      // Overwrites w from u's snapshot without reading w: a chain head
      // and a dead-write killer.
      node.reads_out = false;
      node.vsrc = u_snap;
    }
  }
  return defer_or_run(
      w,
      [w, u_snap, m_snap, spec, ztype,
       factory = std::move(factory)]() -> Info {
        std::shared_ptr<const VectorData> uu =
            u_snap != nullptr ? u_snap : w->current_data();
        Context* ectx = exec_context(w->context(), uu->nvals());
        auto t = map_vector(ectx, *uu, ztype, factory);
        publish_result(w, w->context(), std::move(t), m_snap.get(), spec);
        return Info::kSuccess;
      },
      std::move(node));
}

Info defer_mat_map(Matrix* c, const Matrix* a, const Matrix* mask,
                   const BinaryOp* accum, const Descriptor& d,
                   const Type* ztype, MapFactory factory) {
  const bool t0 = d.tran0();
  const bool plain = mask == nullptr && accum == nullptr && !d.mask_comp();
  const bool lazy_self = plain && a == c && !t0;
  std::shared_ptr<const MatrixData> a_snap, m_snap;
  if (!lazy_self)
    GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Matrix*>(mask)->snapshot(&m_snap));
  WritebackSpec spec = make_spec(accum, mask != nullptr, d);
  FuseNode node;
  if (plain) {
    if (!t0) {
      node.kind = FuseNode::Kind::kMap;
      node.ztype = ztype;
      node.make_mapper = factory;
      node.full_replace = true;
      if (!lazy_self) {
        node.reads_out = false;
        node.msrc = a_snap;
      }
    } else {
      // Transposed input: the pass is not a map over the stored layout,
      // so it stays opaque — but it still fully replaces c without
      // reading it (any self-read completed at snapshot time above).
      node.reads_out = false;
      node.full_replace = true;
    }
  }
  return defer_or_run(
      c,
      [c, a_snap, m_snap, spec, ztype, t0,
       factory = std::move(factory)]() -> Info {
        std::shared_ptr<const MatrixData> base =
            a_snap != nullptr ? a_snap : c->current_canonical();
        std::shared_ptr<const MatrixData> av =
            t0 ? format_transpose_view(base) : base;
        auto t = map_matrix(exec_context(c->context(), av->nvals()), *av,
                            ztype, factory);
        publish_result(c, c->context(), std::move(t), m_snap.get(), spec);
        return Info::kSuccess;
      },
      std::move(node));
}

}  // namespace

// ---- span mappers (declared in ops/op_apply.hpp) ----------------------------

MapFactory unary_mapper(const UnaryOp* op, const Type* xt) {
  return [op, xt]() -> MapFn {
    return with_unary_runner(op, xt, [](auto make) -> MapFn {
      return [run = make()](void* z, const void* x, size_t n, const Index*,
                            Index) mutable { run.run_n(z, x, n); };
    });
  };
}

MapFactory bind1st_mapper(const BinaryOp* op, ValueBuf s, const Type* yt) {
  return [op, s = std::move(s), yt]() -> MapFn {
    return with_binary_runner(op, op->xtype(), yt, [&s](auto make) -> MapFn {
      return [run = make(), s](void* z, const void* y, size_t n,
                               const Index*, Index) mutable {
        run.bind1st_n(z, s.data(), y, n);
      };
    });
  };
}

MapFactory bind2nd_mapper(const BinaryOp* op, ValueBuf s, const Type* xt) {
  return [op, s = std::move(s), xt]() -> MapFn {
    return with_binary_runner(op, xt, op->ytype(), [&s](auto make) -> MapFn {
      return [run = make(), s](void* z, const void* x, size_t n,
                               const Index*, Index) mutable {
        run.bind2nd_n(z, x, s.data(), n);
      };
    });
  };
}

// ---- unary-op apply --------------------------------------------------------

Info apply(Vector* w, const Vector* mask, const BinaryOp* accum,
           const UnaryOp* op, const Vector* u, const Descriptor* desc) {
  if (op == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(
      validate_apply_v(w, mask, accum, op->xtype(), op->ztype(), u));
  const Descriptor& d = resolve_desc(desc);
  return defer_vec_map(w, u, mask, accum, d, op->ztype(),
                       unary_mapper(op, u->type()));
}

Info apply(Matrix* c, const Matrix* mask, const BinaryOp* accum,
           const UnaryOp* op, const Matrix* a, const Descriptor* desc) {
  if (op == nullptr) return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  GRB_RETURN_IF_ERROR(
      validate_apply_m(c, mask, accum, op->xtype(), op->ztype(), a, d));
  return defer_mat_map(c, a, mask, accum, d, op->ztype(),
                       unary_mapper(op, a->type()));
}

// ---- bound-binary apply -----------------------------------------------------

Info apply_bind1st(Vector* w, const Vector* mask, const BinaryOp* accum,
                   const BinaryOp* op, const void* s, const Type* stype,
                   const Vector* u, const Descriptor* desc) {
  if (op == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(
      validate_apply_v(w, mask, accum, op->ytype(), op->ztype(), u));
  ValueBuf sv;
  GRB_RETURN_IF_ERROR(capture_scalar(&sv, op->xtype(), s, stype));
  const Descriptor& d = resolve_desc(desc);
  return defer_vec_map(w, u, mask, accum, d, op->ztype(),
                       bind1st_mapper(op, std::move(sv), u->type()));
}

Info apply_bind2nd(Vector* w, const Vector* mask, const BinaryOp* accum,
                   const BinaryOp* op, const Vector* u, const void* s,
                   const Type* stype, const Descriptor* desc) {
  if (op == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(
      validate_apply_v(w, mask, accum, op->xtype(), op->ztype(), u));
  ValueBuf sv;
  GRB_RETURN_IF_ERROR(capture_scalar(&sv, op->ytype(), s, stype));
  const Descriptor& d = resolve_desc(desc);
  return defer_vec_map(w, u, mask, accum, d, op->ztype(),
                       bind2nd_mapper(op, std::move(sv), u->type()));
}

Info apply_bind1st(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                   const BinaryOp* op, const void* s, const Type* stype,
                   const Matrix* a, const Descriptor* desc) {
  if (op == nullptr) return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  GRB_RETURN_IF_ERROR(
      validate_apply_m(c, mask, accum, op->ytype(), op->ztype(), a, d));
  ValueBuf sv;
  GRB_RETURN_IF_ERROR(capture_scalar(&sv, op->xtype(), s, stype));
  return defer_mat_map(c, a, mask, accum, d, op->ztype(),
                       bind1st_mapper(op, std::move(sv), a->type()));
}

Info apply_bind2nd(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                   const BinaryOp* op, const Matrix* a, const void* s,
                   const Type* stype, const Descriptor* desc) {
  if (op == nullptr) return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  GRB_RETURN_IF_ERROR(
      validate_apply_m(c, mask, accum, op->xtype(), op->ztype(), a, d));
  ValueBuf sv;
  GRB_RETURN_IF_ERROR(capture_scalar(&sv, op->ytype(), s, stype));
  return defer_mat_map(c, a, mask, accum, d, op->ztype(),
                       bind2nd_mapper(op, std::move(sv), a->type()));
}

// ---- index-unary apply (GraphBLAS 2.0) -------------------------------------

Info apply_indexop(Vector* w, const Vector* mask, const BinaryOp* accum,
                   const IndexUnaryOp* op, const Vector* u, const void* s,
                   const Type* stype, const Descriptor* desc) {
  if (op == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(
      validate_apply_v(w, mask, accum, op->xtype(), op->ztype(), u));
  ValueBuf sv;
  GRB_RETURN_IF_ERROR(capture_scalar(&sv, op->stype(), s, stype));
  const Descriptor& d = resolve_desc(desc);
  return defer_vec_map(w, u, mask, accum, d, op->ztype(),
                       index_mapper(op, std::move(sv), u->type(), false));
}

Info apply_indexop(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                   const IndexUnaryOp* op, const Matrix* a, const void* s,
                   const Type* stype, const Descriptor* desc) {
  if (op == nullptr) return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  GRB_RETURN_IF_ERROR(
      validate_apply_m(c, mask, accum, op->xtype(), op->ztype(), a, d));
  ValueBuf sv;
  GRB_RETURN_IF_ERROR(capture_scalar(&sv, op->stype(), s, stype));
  return defer_mat_map(c, a, mask, accum, d, op->ztype(),
                       index_mapper(op, std::move(sv), a->type(), true));
}

}  // namespace grb
