// eWiseMult (set intersection) and eWiseAdd (set union) for vectors.
//
// The general case is the range-blocked merged pass of
// ops/vector_merge.hpp (one block when the context is serial), whose
// plan this file defines.  Full operands skip the merge: two full
// vectors are one aligned loop, and eWiseMult against one full vector
// gathers by index.  Each kernel is a template over the operator runner
// (ops/op_apply.hpp), so the typed and the generic runner share every
// loop.
#include <algorithm>

#include "ops/common.hpp"
#include "ops/op_apply.hpp"
#include "ops/vector_merge.hpp"

namespace grb {
namespace {

Info validate_ewise_v(Vector* w, const Vector* mask, const BinaryOp* accum,
                      const BinaryOp* op, const Vector* u, const Vector* v) {
  GRB_RETURN_IF_ERROR(validate_objects({w, mask, u, v}));
  if (op == nullptr || u == nullptr || v == nullptr)
    return Info::kNullPointer;
  if (u->size() != w->size() || v->size() != w->size())
    return Info::kDimensionMismatch;
  if (mask != nullptr && mask->size() != w->size())
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(op->xtype(), u->type()));
  GRB_RETURN_IF_ERROR(check_cast(op->ytype(), v->type()));
  GRB_RETURN_IF_ERROR(check_cast(w->type(), op->ztype()));
  GRB_RETURN_IF_ERROR(check_accum(accum, w->type(), op->ztype()));
  return Info::kSuccess;
}

// T = u (op) v.  Only the value loops below are instantiated per
// operator runner; structure (output indices, merge plan) is built once.
std::shared_ptr<VectorData> compute_ewise_vector(Context* ctx,
                                                 const VectorData& u,
                                                 const VectorData& v,
                                                 bool uni,
                                                 const BinaryOp* op) {
  auto t = std::make_shared<VectorData>(op->ztype(), u.n);
  const bool uf = is_full(u), vf = is_full(v);
  if (uf && vf) {
    // Both full: position equals index, so union and intersection are
    // the same aligned loop, with no merge.
    t->ind = u.ind;
    t->vals.resize(u.n);
    with_binary_runner(op, u.type, v.type, [&](auto make) {
      ctx->parallel_for(0, u.n, [&](Index lo, Index hi) {
        make().run_n(t->vals.at(lo), u.vals.at(lo), v.vals.at(lo), hi - lo);
      });
    });
  } else if (!uni && (uf || vf)) {
    // eWiseMult with one full operand: the result takes the other
    // operand's structure, and each of its entries finds its partner in
    // the full operand at position = index.
    const VectorData& s = uf ? v : u;
    t->ind = s.ind;
    t->vals.resize(s.ind.size());
    with_binary_runner(op, u.type, v.type, [&](auto make) {
      ctx->parallel_for(0, s.ind.size(), [&](Index lo, Index hi) {
        auto run = make();
        for (Index k = lo; k < hi; ++k) {
          const Index i = s.ind[k];
          run.run(t->vals.at(k), u.vals.at(uf ? i : k), v.vals.at(uf ? k : i));
        }
      });
    });
  } else {
    // General case: the merged pass of vector_merge.hpp.  Each value is
    // op on a matched pair, else (union only) the lone operand cast into
    // the op's ztype.
    const MergePlan plan = plan_merge(ctx, u, v, uni);
    t->ind.resize(plan.offs[plan.nblocks]);
    t->vals.resize(plan.offs[plan.nblocks]);
    with_binary_runner(op, u.type, v.type, [&](auto make) {
      merge_fill(ctx, plan, u, v, [&] {
        return [&, run = make()](size_t w, Index i, size_t uk,
                                 size_t vk) mutable {
          t->ind[w] = i;
          void* dst = t->vals.at(w);
          if (uk == VectorData::npos) {
            run.y_to_z(dst, v.vals.at(vk));
          } else if (vk == VectorData::npos) {
            run.x_to_z(dst, u.vals.at(uk));
          } else {
            run.run(dst, u.vals.at(uk), v.vals.at(vk));
          }
        };
      });
    });
  }
  return t;
}

template <bool kUnion>
Info ewise_v(Vector* w, const Vector* mask, const BinaryOp* accum,
             const BinaryOp* op, const Vector* u, const Vector* v,
             const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_ewise_v(w, mask, accum, op, u, v));
  const Descriptor& d = resolve_desc(desc);
  // In a plain replace, self operands stay lazy: the closure reads
  // w->current_data() at execution, which by queue FIFO is identical to
  // snapshotting here, so a chain of updates to w stays queued instead
  // of forcing completion on every call.
  const bool plain = mask == nullptr && accum == nullptr && !d.mask_comp();
  const bool u_self = plain && u == w;
  const bool v_self = plain && v == w;
  std::shared_ptr<const VectorData> u_snap, v_snap, m_snap;
  if (!u_self)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(u)->snapshot(&u_snap));
  if (!v_self)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(v)->snapshot(&v_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(mask)->snapshot(&m_snap));
  WritebackSpec spec{accum, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  return defer_or_run(
      w,
      [w, u_snap, v_snap, m_snap, op, spec]() -> Info {
        std::shared_ptr<const VectorData> uu =
            u_snap != nullptr ? u_snap : w->current_data();
        std::shared_ptr<const VectorData> vv =
            v_snap != nullptr ? v_snap : w->current_data();
        Context* ectx =
            exec_context(w->context(), uu->nvals() + vv->nvals());
        auto t = compute_ewise_vector(ectx, *uu, *vv, kUnion, op);
        publish_result(w, w->context(), std::move(t), m_snap.get(), spec);
        return Info::kSuccess;
      });
}

}  // namespace

MergePlan plan_merge(Context* ctx, const VectorData& x, const VectorData& y,
                     bool uni) {
  MergePlan plan;
  plan.n = x.n;
  plan.uni = uni;
  plan.block = ctx->block_size(x.n, x.nvals() + y.nvals());
  plan.nblocks = (x.n + plan.block - 1) / plan.block;
  plan.xstart.resize(plan.nblocks);
  plan.ystart.resize(plan.nblocks);
  std::vector<size_t> counts(plan.nblocks, 0);
  ctx->parallel_for(0, plan.nblocks, 1, [&](Index blo, Index bhi) {
    for (Index b = blo; b < bhi; ++b) {
      const Index ilo = b * plan.block;
      const Index ihi = std::min<Index>(x.n, ilo + plan.block);
      plan.xstart[b] = std::lower_bound(x.ind.begin(), x.ind.end(), ilo) -
                       x.ind.begin();
      plan.ystart[b] = std::lower_bound(y.ind.begin(), y.ind.end(), ilo) -
                       y.ind.begin();
      size_t n = 0;
      merge_ewise_range(x, y, plan.xstart[b], plan.ystart[b], ihi, uni,
                        [&](Index, size_t, size_t) { ++n; });
      counts[b] = n;
    }
  });
  plan.offs.assign(plan.nblocks + 1, 0);
  for (Index b = 0; b < plan.nblocks; ++b)
    plan.offs[b + 1] = plan.offs[b] + counts[b];
  return plan;
}

Info ewise_mult(Vector* w, const Vector* mask, const BinaryOp* accum,
                const BinaryOp* op, const Vector* u, const Vector* v,
                const Descriptor* desc) {
  return ewise_v<false>(w, mask, accum, op, u, v, desc);
}

Info ewise_add(Vector* w, const Vector* mask, const BinaryOp* accum,
               const BinaryOp* op, const Vector* u, const Vector* v,
               const Descriptor* desc) {
  return ewise_v<true>(w, mask, accum, op, u, v, desc);
}

}  // namespace grb
