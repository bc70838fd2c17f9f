// eWiseMult (set intersection) and eWiseAdd (set union) for vectors.
//
// Two paths produce identical bits: a single-pass serial merge, and a
// range-blocked parallel merge that partitions the index space [0, n)
// into fixed blocks, locates each block's start in both operand streams
// by binary search, counts survivors per block, prefix-sums, and fills
// values straight into place.  Every output entry depends only on the
// operands at its own index, so the partition cannot change the result.
#include <algorithm>

#include "ops/common.hpp"
#include "ops/op_apply.hpp"

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

template <bool kUnion>
std::shared_ptr<VectorData> compute_ewise(const VectorData& u,
                                          const VectorData& v,
                                          const BinaryOp* op) {
  auto t = std::make_shared<VectorData>(op->ztype(), u.n);
  BinRunner run(op, u.type, v.type);
  // For union, single-sided entries are typecast into the op's ztype.
  Caster u2z(op->ztype(), u.type);
  Caster v2z(op->ztype(), v.type);
  ValueBuf zb(op->ztype()->size());
  size_t a = 0, b = 0;
  while (a < u.ind.size() && b < v.ind.size()) {
    if (u.ind[a] == v.ind[b]) {
      run.run(zb.data(), u.vals.at(a), v.vals.at(b));
      t->ind.push_back(u.ind[a]);
      t->vals.push_back(zb.data());
      ++a;
      ++b;
    } else if (u.ind[a] < v.ind[b]) {
      if constexpr (kUnion) {
        u2z.run(zb.data(), u.vals.at(a));
        t->ind.push_back(u.ind[a]);
        t->vals.push_back(zb.data());
      }
      ++a;
    } else {
      if constexpr (kUnion) {
        v2z.run(zb.data(), v.vals.at(b));
        t->ind.push_back(v.ind[b]);
        t->vals.push_back(zb.data());
      }
      ++b;
    }
  }
  if constexpr (kUnion) {
    for (; a < u.ind.size(); ++a) {
      u2z.run(zb.data(), u.vals.at(a));
      t->ind.push_back(u.ind[a]);
      t->vals.push_back(zb.data());
    }
    for (; b < v.ind.size(); ++b) {
      v2z.run(zb.data(), v.vals.at(b));
      t->ind.push_back(v.ind[b]);
      t->vals.push_back(zb.data());
    }
  }
  return t;
}

// Walks the merged streams of u and v over indices < ihi starting at
// stream offsets a/b; emit(i, uk, vk) with VectorData::npos for the
// absent side (union only).
template <bool kUnion, class Emit>
void merge_ewise_range(const VectorData& u, const VectorData& v, size_t a,
                       size_t b, Index ihi, Emit&& emit) {
  size_t ae = u.ind.size(), be = v.ind.size();
  while (a < ae && u.ind[a] < ihi && b < be && v.ind[b] < ihi) {
    if (u.ind[a] == v.ind[b]) {
      emit(u.ind[a], a, b);
      ++a;
      ++b;
    } else if (u.ind[a] < v.ind[b]) {
      if constexpr (kUnion) emit(u.ind[a], a, VectorData::npos);
      ++a;
    } else {
      if constexpr (kUnion) emit(v.ind[b], VectorData::npos, b);
      ++b;
    }
  }
  if constexpr (kUnion) {
    for (; a < ae && u.ind[a] < ihi; ++a)
      emit(u.ind[a], a, VectorData::npos);
    for (; b < be && v.ind[b] < ihi; ++b)
      emit(v.ind[b], VectorData::npos, b);
  }
}

template <bool kUnion>
std::shared_ptr<VectorData> compute_ewise_blocked(Context* ctx,
                                                  const VectorData& u,
                                                  const VectorData& v,
                                                  const BinaryOp* op) {
  auto t = std::make_shared<VectorData>(op->ztype(), u.n);
  Index block = ctx->block_size(u.n, u.nvals() + v.nvals());
  Index nb = (u.n + block - 1) / block;
  std::vector<size_t> ustart(nb), vstart(nb);
  std::vector<Index> counts(nb, 0);
  ctx->parallel_for(0, nb, 1, [&](Index blo, Index bhi) {
    for (Index b = blo; b < bhi; ++b) {
      Index ilo = b * block;
      Index ihi = std::min<Index>(u.n, ilo + block);
      ustart[b] = std::lower_bound(u.ind.begin(), u.ind.end(), ilo) -
                  u.ind.begin();
      vstart[b] = std::lower_bound(v.ind.begin(), v.ind.end(), ilo) -
                  v.ind.begin();
      Index n = 0;
      merge_ewise_range<kUnion>(u, v, ustart[b], vstart[b], ihi,
                                [&](Index, size_t, size_t) { ++n; });
      counts[b] = n;
    }
  });
  std::vector<size_t> offs(nb + 1, 0);
  for (Index b = 0; b < nb; ++b) offs[b + 1] = offs[b] + counts[b];
  t->ind.resize(offs[nb]);
  t->vals.resize(offs[nb]);
  ctx->parallel_for(0, nb, 1, [&](Index blo, Index bhi) {
    BinRunner run(op, u.type, v.type);
    Caster u2z(op->ztype(), u.type);
    Caster v2z(op->ztype(), v.type);
    for (Index b = blo; b < bhi; ++b) {
      Index ihi = std::min<Index>(u.n, (b + 1) * block);
      size_t w = offs[b];
      merge_ewise_range<kUnion>(
          u, v, ustart[b], vstart[b], ihi,
          [&](Index i, size_t uk, size_t vk) {
            t->ind[w] = i;
            void* dst = t->vals.at(w);
            if (uk == VectorData::npos) {
              v2z.run(dst, v.vals.at(vk));
            } else if (vk == VectorData::npos) {
              u2z.run(dst, u.vals.at(uk));
            } else {
              run.run(dst, u.vals.at(uk), v.vals.at(vk));
            }
            ++w;
          });
    }
  });
  return t;
}

template <bool kUnion>
Info ewise_v(Vector* w, const Vector* mask, const BinaryOp* accum,
             const BinaryOp* op, const Vector* u, const Vector* v,
             const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_ewise_v(w, mask, accum, op, u, v));
  const Descriptor& d = resolve_desc(desc);
  // Plain replaces participate in fusion; self operands stay lazy (the
  // closure reads w->current_canonical() at execution, which by queue FIFO is
  // identical to snapshotting here) so chains over w keep accumulating
  // instead of forcing a materialization per call.
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
  FuseNode node;
  if (u_self && v_self) {
    // w = op(w, w): both streams are identical, so the merge degenerates
    // to a structure-preserving self map.
    node.kind = FuseNode::Kind::kMap;
    node.ztype = op->ztype();
    node.full_replace = true;
    const Type* wt = w->type();
    node.make_mapper = [op, wt]() -> MapFn {
      return [run = BinRunner(op, wt, wt)](void* z, const void* x, Index,
                                           Index) mutable {
        run.run(z, x, x);
      };
    };
  } else if (u_self || v_self) {
    // Exactly one operand is the target: a zip of the running chain
    // against the other operand's snapshot.
    node.kind = FuseNode::Kind::kZip;
    node.ztype = op->ztype();
    node.full_replace = true;
    node.zip_other = u_self ? v_snap : u_snap;
    node.zip_op = op;
    node.zip_union = kUnion;
    node.zip_out_is_x = u_self;
  } else if (plain) {
    // Overwrites w from input snapshots without reading it: a killer.
    node.reads_out = false;
    node.full_replace = true;
  }
  return defer_or_run(
      w,
      [w, u_snap, v_snap, m_snap, op, spec]() -> Info {
        std::shared_ptr<const VectorData> uu =
            u_snap != nullptr ? u_snap : w->current_canonical();
        std::shared_ptr<const VectorData> vv =
            v_snap != nullptr ? v_snap : w->current_canonical();
        Context* ectx =
            exec_context(w->context(), uu->nvals() + vv->nvals());
        auto t = ectx->effective_nthreads() > 1
                     ? compute_ewise_blocked<kUnion>(ectx, *uu, *vv, op)
                     : compute_ewise<kUnion>(*uu, *vv, op);
        publish_result(w, w->context(), std::move(t), m_snap.get(), spec);
        return Info::kSuccess;
      },
      std::move(node));
}

}  // namespace

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
