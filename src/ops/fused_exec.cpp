// Fused group execution: map-chain composition and stage-through-merge
// elementwise passes (see fused_exec.hpp for the contract).
//
// Bitwise identity with the eager path rests on two facts:
//  * every per-entry computation replays the eager kernels' exact cast
//    sequence — mapper into the op's ztype, then the writeback cast into
//    the target domain, between every pair of chained ops (including the
//    deliberately lossy double cast on single-sided union entries);
//  * every output entry depends only on its own input entries, so thread
//    partitioning cannot change results (the same argument the eager
//    blocked kernels rely on).
#include "ops/fused_exec.hpp"

#include <algorithm>
#include <memory>

#include "containers/matrix.hpp"
#include "containers/vector.hpp"
#include "exec/context.hpp"
#include "exec/fusion.hpp"
#include "exec/object_base.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "ops/op_apply.hpp"

namespace grb {
namespace {

// One pending map stage: mapper into `ztype`, then the cast into the
// target domain the eager writeback would perform.
struct Stage {
  const MapFactory* make;
  const Type* ztype;
};

// Per-chunk runner applying the composed stage list to one value.  An
// empty chain is the identity (bytewise copy in the target domain).
class ChainRunner {
 public:
  ChainRunner(const std::vector<Stage>& stages, const Type* wtype)
      : wsize_(wtype->size()), wb_(wtype->size()) {
    steps_.reserve(stages.size());
    for (const Stage& s : stages)
      steps_.push_back(Step{(*s.make)(), Caster(wtype, s.ztype),
                            ValueBuf(s.ztype->size())});
  }

  void run(void* dst, const void* x, Index i, Index j) {
    if (steps_.empty()) {
      std::memcpy(dst, x, wsize_);
      return;
    }
    const void* cur = x;
    for (size_t s = 0; s < steps_.size(); ++s) {
      Step& st = steps_[s];
      st.fn(st.zb.data(), cur, i, j);
      void* out = (s + 1 == steps_.size()) ? dst : wb_.data();
      st.cast.run(out, st.zb.data());
      cur = out;
    }
  }

 private:
  struct Step {
    MapFn fn;
    Caster cast;
    ValueBuf zb;
  };
  std::vector<Step> steps_;
  size_t wsize_;
  ValueBuf wb_;
};

std::shared_ptr<VectorData> apply_stages_vec(Context* ctx,
                                             const VectorData& u,
                                             const Type* wtype,
                                             const std::vector<Stage>& st) {
  auto t = std::make_shared<VectorData>(wtype, u.n);
  t->ind = u.ind;
  t->vals.resize(u.ind.size());
  Index nvals = static_cast<Index>(u.ind.size());
  ctx->parallel_for(0, nvals, [&](Index lo, Index hi) {
    ChainRunner chain(st, wtype);
    for (Index k = lo; k < hi; ++k)
      chain.run(t->vals.at(k), u.vals.at(k), u.ind[k], 0);
  });
  return t;
}

std::shared_ptr<MatrixData> apply_stages_mat(Context* ctx,
                                             const MatrixData& a,
                                             const Type* ctype,
                                             const std::vector<Stage>& st) {
  auto t = std::make_shared<MatrixData>(ctype, a.nrows, a.ncols);
  t->ptr = a.ptr;
  t->col = a.col;
  t->vals.resize(a.col.size());
  ctx->parallel_for(0, a.nrows, [&](Index lo, Index hi) {
    ChainRunner chain(st, ctype);
    for (Index r = lo; r < hi; ++r) {
      for (size_t k = a.ptr[r]; k < a.ptr[r + 1]; ++k)
        chain.run(t->vals.at(k), a.vals.at(k), r, a.col[k]);
    }
  });
  return t;
}

// Runtime-flagged version of the eager merge walk (compute_ewise /
// merge_ewise_range in ewise_vector.cpp): streams x and y over indices
// < ihi starting at offsets a/b; emit(i, xk, yk) with npos for the
// absent side (union only).
template <class Emit>
void merge_range(const VectorData& x, const VectorData& y, size_t a,
                 size_t b, Index ihi, bool uni, Emit&& emit) {
  size_t ae = x.ind.size(), be = y.ind.size();
  while (a < ae && x.ind[a] < ihi && b < be && y.ind[b] < ihi) {
    if (x.ind[a] == y.ind[b]) {
      emit(x.ind[a], a, b);
      ++a;
      ++b;
    } else if (x.ind[a] < y.ind[b]) {
      if (uni) emit(x.ind[a], a, VectorData::npos);
      ++a;
    } else {
      if (uni) emit(y.ind[b], VectorData::npos, b);
      ++b;
    }
  }
  if (uni) {
    for (; a < ae && x.ind[a] < ihi; ++a) emit(x.ind[a], a, VectorData::npos);
    for (; b < be && y.ind[b] < ihi; ++b) emit(y.ind[b], VectorData::npos, b);
  }
}

// Per-chunk zip worker: feeds the target side through the pending map
// chain, then replays the eager ewise kernel's cast/runner sequence,
// ending in the target domain (the eager writeback's final cast).
class ZipWorker {
 public:
  ZipWorker(const std::vector<Stage>& stages, const Type* wtype,
            const FuseNode& nd)
      : self_is_x_(nd.zip_out_is_x),
        chain_(stages, wtype),
        run_(nd.zip_op, self_is_x_ ? wtype : nd.zip_other->type,
             self_is_x_ ? nd.zip_other->type : wtype),
        self2z_(nd.zip_op->ztype(), wtype),
        other2z_(nd.zip_op->ztype(), nd.zip_other->type),
        z2w_(wtype, nd.zip_op->ztype()),
        zb_(nd.zip_op->ztype()->size()),
        sb_(wtype->size()) {}

  // dst: wtype storage.  xk/yk index the x-side / y-side streams
  // (VectorData::npos for the absent side on union entries).
  void emit(void* dst, const VectorData& xs, const VectorData& ys, Index i,
            size_t xk, size_t yk) {
    if (xk != VectorData::npos && yk != VectorData::npos) {
      const void* xv = xs.vals.at(xk);
      const void* yv = ys.vals.at(yk);
      if (self_is_x_) {
        chain_.run(sb_.data(), xv, i, 0);
        xv = sb_.data();
      } else {
        chain_.run(sb_.data(), yv, i, 0);
        yv = sb_.data();
      }
      run_.run(zb_.data(), xv, yv);
      z2w_.run(dst, zb_.data());
    } else if (yk == VectorData::npos) {
      emit_single(dst, xs, i, xk, self_is_x_);
    } else {
      emit_single(dst, ys, i, yk, !self_is_x_);
    }
  }

 private:
  void emit_single(void* dst, const VectorData& side, Index i, size_t k,
                   bool is_self) {
    if (is_self) {
      // Chain output is already in the target domain; the eager path
      // still casts it through the op's ztype and back (a deliberate
      // round trip we must replicate for bitwise identity).
      chain_.run(sb_.data(), side.vals.at(k), i, 0);
      self2z_.run(zb_.data(), sb_.data());
    } else {
      other2z_.run(zb_.data(), side.vals.at(k));
    }
    z2w_.run(dst, zb_.data());
  }

  bool self_is_x_;
  ChainRunner chain_;
  BinRunner run_;
  Caster self2z_, other2z_, z2w_;
  ValueBuf zb_, sb_;
};

std::shared_ptr<VectorData> fused_zip_serial(const VectorData& self,
                                             const std::vector<Stage>& st,
                                             const Type* wtype,
                                             const FuseNode& nd) {
  const VectorData& xs = nd.zip_out_is_x ? self : *nd.zip_other;
  const VectorData& ys = nd.zip_out_is_x ? *nd.zip_other : self;
  auto t = std::make_shared<VectorData>(wtype, self.n);
  ZipWorker wkr(st, wtype, nd);
  ValueBuf wb(wtype->size());
  merge_range(xs, ys, 0, 0, self.n, nd.zip_union,
              [&](Index i, size_t xk, size_t yk) {
                wkr.emit(wb.data(), xs, ys, i, xk, yk);
                t->ind.push_back(i);
                t->vals.push_back(wb.data());
              });
  return t;
}

std::shared_ptr<VectorData> fused_zip_blocked(Context* ctx,
                                              const VectorData& self,
                                              const std::vector<Stage>& st,
                                              const Type* wtype,
                                              const FuseNode& nd) {
  const VectorData& xs = nd.zip_out_is_x ? self : *nd.zip_other;
  const VectorData& ys = nd.zip_out_is_x ? *nd.zip_other : self;
  auto t = std::make_shared<VectorData>(wtype, self.n);
  Index block = ctx->block_size(self.n, xs.nvals() + ys.nvals());
  Index nb = (self.n + block - 1) / block;
  std::vector<size_t> xstart(nb), ystart(nb);
  std::vector<Index> counts(nb, 0);
  ctx->parallel_for(0, nb, 1, [&](Index blo, Index bhi) {
    for (Index b = blo; b < bhi; ++b) {
      Index ilo = b * block;
      Index ihi = std::min<Index>(self.n, ilo + block);
      xstart[b] = std::lower_bound(xs.ind.begin(), xs.ind.end(), ilo) -
                  xs.ind.begin();
      ystart[b] = std::lower_bound(ys.ind.begin(), ys.ind.end(), ilo) -
                  ys.ind.begin();
      Index cnt = 0;
      merge_range(xs, ys, xstart[b], ystart[b], ihi, nd.zip_union,
                  [&](Index, size_t, size_t) { ++cnt; });
      counts[b] = cnt;
    }
  });
  std::vector<size_t> offs(nb + 1, 0);
  for (Index b = 0; b < nb; ++b) offs[b + 1] = offs[b] + counts[b];
  t->ind.resize(offs[nb]);
  t->vals.resize(offs[nb]);
  ctx->parallel_for(0, nb, 1, [&](Index blo, Index bhi) {
    ZipWorker wkr(st, wtype, nd);
    for (Index b = blo; b < bhi; ++b) {
      Index ihi = std::min<Index>(self.n, (b + 1) * block);
      size_t w = offs[b];
      merge_range(xs, ys, xstart[b], ystart[b], ihi, nd.zip_union,
                  [&](Index i, size_t xk, size_t yk) {
                    t->ind[w] = i;
                    wkr.emit(t->vals.at(w), xs, ys, i, xk, yk);
                    ++w;
                  });
    }
  });
  return t;
}

}  // namespace

Info run_fused_vector_group(Vector* w, std::vector<Deferred>& batch,
                            size_t b, size_t e) {
  const Type* wtype = w->current_canonical()->type;
  std::shared_ptr<const VectorData> cur;
  std::vector<Stage> stages;
  for (size_t k = b; k < e; ++k) {
    Deferred& d = batch[k];
    // Attribution matches the eager walk node for node: scope (with the
    // node's enqueue-time tenant), flight record, flow step, deferred
    // span, scalar count — only the data passes fuse.
    obs::CurrentOpScope op_scope(d.op, d.ctx_id);
    if (obs::flight_enabled())
      obs::fr_record(obs::FrKind::kDeferredExec, d.op, 0, d.ctx_id,
                     d.flow_id);
    uint64_t t0 = obs::telemetry_enabled() ? obs::now_ns() : 0;
    obs::flow_step(d.op, d.flow_id);
    const FuseNode& nd = d.node;
    if (nd.kind == FuseNode::Kind::kMap) {
      if (nd.vsrc != nullptr)
        cur = nd.vsrc;  // snapshot-source head: chain restarts here
      else if (cur == nullptr)
        cur = w->current_canonical();
      stages.push_back(Stage{&nd.make_mapper, nd.ztype});
    } else {  // kZip
      if (cur == nullptr) cur = w->current_canonical();
      Context* ectx = exec_context(w->context(),
                                   cur->nvals() + nd.zip_other->nvals());
      cur = ectx->effective_nthreads() > 1
                ? fused_zip_blocked(ectx, *cur, stages, wtype, nd)
                : fused_zip_serial(*cur, stages, wtype, nd);
      stages.clear();
    }
    if (k + 1 == e && !stages.empty()) {
      Context* ectx = exec_context(w->context(), cur->nvals());
      cur = apply_stages_vec(ectx, *cur, wtype, stages);
      stages.clear();
    }
    if (obs::stats_enabled()) obs::add_scalars(cur->nvals());
    obs::deferred_return(d.op, t0, d.enqueued_ns, false);
  }
  w->publish(std::move(cur));
  return Info::kSuccess;
}

Info run_fused_matrix_group(Matrix* c, std::vector<Deferred>& batch,
                            size_t b, size_t e) {
  const Type* ctype = c->current_canonical()->type;
  std::shared_ptr<const MatrixData> cur;
  std::vector<Stage> stages;
  for (size_t k = b; k < e; ++k) {
    Deferred& d = batch[k];
    obs::CurrentOpScope op_scope(d.op, d.ctx_id);
    if (obs::flight_enabled())
      obs::fr_record(obs::FrKind::kDeferredExec, d.op, 0, d.ctx_id,
                     d.flow_id);
    uint64_t t0 = obs::telemetry_enabled() ? obs::now_ns() : 0;
    obs::flow_step(d.op, d.flow_id);
    const FuseNode& nd = d.node;
    if (nd.msrc != nullptr)
      cur = nd.msrc;
    else if (cur == nullptr)
      cur = c->current_canonical();
    stages.push_back(Stage{&nd.make_mapper, nd.ztype});
    if (k + 1 == e) {
      Context* ectx = exec_context(c->context(), cur->nvals());
      cur = apply_stages_mat(ectx, *cur, ctype, stages);
      stages.clear();
    }
    if (obs::stats_enabled()) obs::add_scalars(cur->nvals());
    obs::deferred_return(d.op, t0, d.enqueued_ns, false);
  }
  c->publish(std::move(cur));
  return Info::kSuccess;
}

}  // namespace grb
