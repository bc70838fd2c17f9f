// GrB_reduce: matrix -> vector (row reduce), and vector/matrix -> scalar.
//
// Scalar-producing variants come in two flavours (paper §VI):
//  * typed-output (GraphBLAS 1.X style): an empty input reduces to the
//    monoid identity, and execution cannot be deferred;
//  * GrB_Scalar-output: an empty input yields an EMPTY scalar, and the
//    reduction joins the scalar's deferred sequence like any other op.
// The GrB_Scalar flavour also admits a plain associative BinaryOp in
// place of a monoid (Table II) since no identity value is needed.
#include <algorithm>
#include <functional>

#include "obs/telemetry.hpp"
#include "ops/common.hpp"
#include "ops/op_apply.hpp"

namespace grb {
namespace {

// Scalar reductions use a fixed blocked association: the stored values
// are split into constant-size blocks, each block is folded
// left-to-right (seeded by a cast of its first value), and the block
// partials are combined in ascending block order.  The block size is a
// compile-time constant -- never the thread count or a context's chunk
// -- so the association, and therefore the result bits, depend only on
// the input.  Serial and parallel execution walk the identical fold
// tree.
constexpr size_t kReduceBlock = 4096;

// One fold over a run of n >= 1 packed values of domain yt:
// acc = cast(y[0]) op y[1] op ... op y[n-1], stopping once acc equals
// *term (term == nullptr: never).  Built per chunk on the runner
// with_binary_runner picks, so the loop is typed for hot pairs.
using FoldFn =
    std::function<void(void* acc, const void* y, size_t n, const void* term)>;

FoldFn make_fold(const BinaryOp* op, const Type* yt) {
  const size_t ys = yt->size();
  return with_binary_runner(op, op->ztype(), yt, [ys](auto make) -> FoldFn {
    return [run = make(), ys](void* acc, const void* y, size_t n,
                              const void* term) mutable {
      run.y_to_z(acc, y);
      run.fold_n(acc, static_cast<const std::byte*>(y) + ys, n - 1, term);
    };
  });
}

// Folds the n packed values (domain vtype) with `op` into out (op's
// ztype) along the blocked association above; returns presence.  `term`
// is the monoid's terminal (nullptr for a plain binary op or a monoid
// without one): a block stops folding once its partial equals it.
bool fold_values(Context* ctx, const ValueArray& vals, size_t n,
                 const Type* vtype, const BinaryOp* op, const void* term,
                 void* out) {
  if (n == 0) return false;
  const Type* zt = op->ztype();
  const size_t zsize = zt->size();
  Context* ectx = exec_context(ctx, n);
  size_t nb = (n + kReduceBlock - 1) / kReduceBlock;
  ValueArray partials(zsize);
  partials.resize(nb);
  ectx->parallel_for(0, static_cast<Index>(nb), 1,
                     [&](Index blo, Index bhi) {
    FoldFn fold = make_fold(op, vtype);
    for (Index b = blo; b < bhi; ++b) {
      size_t k = static_cast<size_t>(b) * kReduceBlock;
      size_t kend = std::min(n, k + kReduceBlock);
      fold(partials.at(b), vals.at(k), kend - k, term);
    }
  });
  std::memcpy(out, partials.at(0), zsize);
  BinRunner comb(op, zt, zt);
  for (size_t b = 1; b < nb; ++b) {
    if (term != nullptr && std::memcmp(out, term, zsize) == 0) break;
    comb.run(out, out, partials.at(b));
  }
  return true;
}

const void* terminal_of(const Monoid* m) {
  return m->has_terminal() ? m->terminal() : nullptr;
}

bool reduce_all_vector(Context* ctx, const VectorData& u, const Monoid* m,
                       void* out) {
  return fold_values(ctx, u.vals, u.ind.size(), u.type, m->op(),
                     terminal_of(m), out);
}

bool reduce_all_matrix(Context* ctx, const MatrixData& a, const Monoid* m,
                       void* out) {
  return fold_values(ctx, a.vals, a.col.size(), a.type, m->op(),
                     terminal_of(m), out);
}

// Writes `sum` (in sum_type, or nothing when !present) into the scalar
// handle honoring the optional accumulator.
Info scalar_writeback(Scalar* out, const BinaryOp* accum,
                      const Type* sum_type, const void* sum, bool present) {
  auto old = out->current_data();
  const Type* st = old->type;
  auto next = std::make_shared<ScalarData>(st);
  if (accum != nullptr && old->present && present) {
    BinRunner run(accum, st, sum_type);
    ValueBuf z(accum->ztype()->size());
    run.run(z.data(), old->value.data(), sum);
    next->present = true;
    cast_value(st, next->value.data(), accum->ztype(), z.data());
  } else if (present) {
    next->present = true;
    cast_value(st, next->value.data(), sum_type, sum);
  } else if (accum != nullptr && old->present) {
    next->present = true;
    std::memcpy(next->value.data(), old->value.data(), st->size());
  }
  out->publish(std::move(next));
  return Info::kSuccess;
}

}  // namespace

Info reduce_to_vector(Vector* w, const Vector* mask, const BinaryOp* accum,
                      const Monoid* monoid, const Matrix* a,
                      const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({w, mask, a}));
  if (monoid == nullptr || a == nullptr) return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  Index ar = d.tran0() ? a->ncols() : a->nrows();
  Index ac = d.tran0() ? a->nrows() : a->ncols();
  (void)ac;
  if (ar != w->size()) return Info::kDimensionMismatch;
  if (mask != nullptr && mask->size() != w->size())
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(monoid->type(), a->type()));
  GRB_RETURN_IF_ERROR(check_cast(w->type(), monoid->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, w->type(), monoid->type()));

  std::shared_ptr<const MatrixData> a_snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  std::shared_ptr<const VectorData> m_snap;
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(mask)->snapshot(&m_snap));
  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  bool t0 = d.tran0();
  return defer_or_run(w, [w, a_snap, m_snap, monoid, spec, t0]() -> Info {
    std::shared_ptr<const MatrixData> av =
        t0 ? format_transpose_view(a_snap) : a_snap;
    const Type* mt = monoid->type();
    auto t = std::make_shared<VectorData>(mt, av->nrows);
    // Count nonempty rows first, then fill in parallel.
    std::vector<Index> slot(av->nrows + 1, 0);
    for (Index r = 0; r < av->nrows; ++r)
      slot[r + 1] = slot[r] + (av->ptr[r + 1] > av->ptr[r] ? 1 : 0);
    t->ind.resize(slot[av->nrows]);
    t->vals.resize(slot[av->nrows]);
    Context* ectx = exec_context(w->context(), av->nvals());
    const void* term = terminal_of(monoid);
    ectx->parallel_for(0, av->nrows, [&](Index lo, Index hi) {
      FoldFn fold = make_fold(monoid->op(), av->type);
      for (Index r = lo; r < hi; ++r) {
        size_t k = av->ptr[r], kend = av->ptr[r + 1];
        if (k == kend) continue;
        Index s = slot[r];
        t->ind[s] = r;
        fold(t->vals.at(s), av->vals.at(k), kend - k, term);
      }
    });
    publish_result(w, w->context(), std::move(t), m_snap.get(), spec);
    return Info::kSuccess;
  });
}

// ---- typed-output scalar reduce (1.X style, always immediate) -------------

Info reduce_to_scalar(void* out, const Type* out_type, const BinaryOp* accum,
                      const Monoid* monoid, const Vector* u,
                      const Descriptor* /*desc*/) {
  if (out == nullptr || out_type == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(validate_objects({u}));
  if (monoid == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(check_cast(monoid->type(), u->type()));
  GRB_RETURN_IF_ERROR(check_cast(out_type, monoid->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, out_type, monoid->type()));
  std::shared_ptr<const VectorData> snap;
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(u)->snapshot(&snap));
  ValueBuf sum(monoid->type()->size());
  Vector* uv = const_cast<Vector*>(u);
  if (!reduce_all_vector(uv->context(), *snap, monoid, sum.data()))
    std::memcpy(sum.data(), monoid->identity(), monoid->type()->size());
  if (accum != nullptr) {
    BinRunner run(accum, out_type, monoid->type());
    ValueBuf z(accum->ztype()->size());
    run.run(z.data(), out, sum.data());
    cast_value(out_type, out, accum->ztype(), z.data());
  } else {
    cast_value(out_type, out, monoid->type(), sum.data());
  }
  return Info::kSuccess;
}

Info reduce_to_scalar(void* out, const Type* out_type, const BinaryOp* accum,
                      const Monoid* monoid, const Matrix* a,
                      const Descriptor* /*desc*/) {
  if (out == nullptr || out_type == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(validate_objects({a}));
  if (monoid == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(check_cast(monoid->type(), a->type()));
  GRB_RETURN_IF_ERROR(check_cast(out_type, monoid->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, out_type, monoid->type()));
  std::shared_ptr<const MatrixData> snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&snap));
  ValueBuf sum(monoid->type()->size());
  Matrix* am = const_cast<Matrix*>(a);
  if (!reduce_all_matrix(am->context(), *snap, monoid, sum.data()))
    std::memcpy(sum.data(), monoid->identity(), monoid->type()->size());
  if (accum != nullptr) {
    BinRunner run(accum, out_type, monoid->type());
    ValueBuf z(accum->ztype()->size());
    run.run(z.data(), out, sum.data());
    cast_value(out_type, out, accum->ztype(), z.data());
  } else {
    cast_value(out_type, out, monoid->type(), sum.data());
  }
  return Info::kSuccess;
}

// ---- GrB_Scalar-output reduce (2.0, deferrable, empty-aware) --------------

Info reduce_to_scalar(Scalar* out, const BinaryOp* accum,
                      const Monoid* monoid, const Vector* u,
                      const Descriptor* /*desc*/) {
  GRB_RETURN_IF_ERROR(validate_objects({out, u}));
  if (monoid == nullptr || u == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(check_cast(monoid->type(), u->type()));
  GRB_RETURN_IF_ERROR(check_cast(out->type(), monoid->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, out->type(), monoid->type()));
  std::shared_ptr<const VectorData> snap;
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(u)->snapshot(&snap));
  return defer_or_run(out, [out, accum, monoid, snap]() -> Info {
    if (obs::stats_enabled()) obs::add_scalars(snap->nvals());
    ValueBuf sum(monoid->type()->size());
    bool present =
        reduce_all_vector(out->context(), *snap, monoid, sum.data());
    return scalar_writeback(out, accum, monoid->type(), sum.data(), present);
  });
}

Info reduce_to_scalar(Scalar* out, const BinaryOp* accum,
                      const Monoid* monoid, const Matrix* a,
                      const Descriptor* /*desc*/) {
  GRB_RETURN_IF_ERROR(validate_objects({out, a}));
  if (monoid == nullptr || a == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(check_cast(monoid->type(), a->type()));
  GRB_RETURN_IF_ERROR(check_cast(out->type(), monoid->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, out->type(), monoid->type()));
  std::shared_ptr<const MatrixData> snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&snap));
  return defer_or_run(out, [out, accum, monoid, snap]() -> Info {
    if (obs::stats_enabled()) obs::add_scalars(snap->nvals());
    ValueBuf sum(monoid->type()->size());
    bool present =
        reduce_all_matrix(out->context(), *snap, monoid, sum.data());
    return scalar_writeback(out, accum, monoid->type(), sum.data(), present);
  });
}

// ---- GrB_Scalar-output reduce with a plain BinaryOp (Table II) ------------

Info reduce_to_scalar_binop(Scalar* out, const BinaryOp* accum,
                            const BinaryOp* op, const Vector* u,
                            const Descriptor* /*desc*/) {
  GRB_RETURN_IF_ERROR(validate_objects({out, u}));
  if (op == nullptr || u == nullptr) return Info::kNullPointer;
  if (op->ztype() != op->xtype() || op->ztype() != op->ytype())
    return Info::kDomainMismatch;
  GRB_RETURN_IF_ERROR(check_cast(op->ztype(), u->type()));
  GRB_RETURN_IF_ERROR(check_cast(out->type(), op->ztype()));
  GRB_RETURN_IF_ERROR(check_accum(accum, out->type(), op->ztype()));
  std::shared_ptr<const VectorData> snap;
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(u)->snapshot(&snap));
  return defer_or_run(out, [out, accum, op, snap]() -> Info {
    if (obs::stats_enabled()) obs::add_scalars(snap->nvals());
    ValueBuf sum(op->ztype()->size());
    bool present =
        fold_values(out->context(), snap->vals, snap->ind.size(),
                    snap->type, op, nullptr, sum.data());
    return scalar_writeback(out, accum, op->ztype(), sum.data(), present);
  });
}

Info reduce_to_scalar_binop(Scalar* out, const BinaryOp* accum,
                            const BinaryOp* op, const Matrix* a,
                            const Descriptor* /*desc*/) {
  GRB_RETURN_IF_ERROR(validate_objects({out, a}));
  if (op == nullptr || a == nullptr) return Info::kNullPointer;
  if (op->ztype() != op->xtype() || op->ztype() != op->ytype())
    return Info::kDomainMismatch;
  GRB_RETURN_IF_ERROR(check_cast(op->ztype(), a->type()));
  GRB_RETURN_IF_ERROR(check_cast(out->type(), op->ztype()));
  GRB_RETURN_IF_ERROR(check_accum(accum, out->type(), op->ztype()));
  std::shared_ptr<const MatrixData> snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&snap));
  return defer_or_run(out, [out, accum, op, snap]() -> Info {
    if (obs::stats_enabled()) obs::add_scalars(snap->nvals());
    ValueBuf sum(op->ztype()->size());
    bool present =
        fold_values(out->context(), snap->vals, snap->col.size(),
                    snap->type, op, nullptr, sum.data());
    return scalar_writeback(out, accum, op->ztype(), sum.data(), present);
  });
}

}  // namespace grb
