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
#include <functional>
#include <memory>

#include "containers/matrix.hpp"
#include "containers/vector.hpp"
#include "exec/context.hpp"
#include "exec/fusion.hpp"
#include "exec/object_base.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "ops/op_apply.hpp"
#include "ops/vector_merge.hpp"

namespace grb {
namespace {

// One pending map stage: mapper into `ztype`, then the cast into the
// target domain the eager writeback would perform.
struct Stage {
  const MapFactory* make;
  const Type* ztype;
};

// Per-chunk runner applying the composed stage list to a run of values,
// a tile at a time: each stage maps the whole tile, then casts it into
// the target domain.  Per entry that is exactly the eager sequence.  An
// empty chain is the identity (a bytewise copy in the target domain).
class ChainRunner {
 public:
  // `src_type` is the domain of the values the chain reads (the chain
  // head's snapshot, or the target itself).
  ChainRunner(const std::vector<Stage>& stages, const Type* src_type,
              const Type* wtype)
      : src_size_(src_type->size()),
        wsize_(wtype->size()),
        wb_(wtype->size() * kValueTile) {
    steps_.reserve(stages.size());
    for (const Stage& s : stages) {
      steps_.push_back(Step{(*s.make)(), Caster(wtype, s.ztype),
                            ValueBuf(s.ztype->size() * kValueTile),
                            s.ztype == wtype});
    }
  }

  bool empty() const { return steps_.empty(); }

  // dst[k] (wtype) = chain(x[k]) for k < n; entry k sits at idx[k] (and
  // `row`, for matrices).
  void run(void* dst, const void* x, size_t n, const Index* idx,
           Index row) {
    if (steps_.empty()) {
      std::memcpy(dst, x, n * wsize_);
      return;
    }
    for (size_t lo = 0; lo < n; lo += kValueTile) {
      const size_t m = std::min(kValueTile, n - lo);
      const void* cur = static_cast<const std::byte*>(x) + lo * src_size_;
      for (size_t s = 0; s < steps_.size(); ++s) {
        Step& st = steps_[s];
        void* out = s + 1 == steps_.size()
                        ? static_cast<std::byte*>(dst) + lo * wsize_
                        : wb_.data();
        if (st.direct) {
          st.fn(out, cur, m, idx + lo, row);
        } else {
          st.fn(st.zb.data(), cur, m, idx + lo, row);
          st.cast.run_n(out, st.zb.data(), m);
        }
        cur = out;
      }
    }
  }

 private:
  struct Step {
    MapFn fn;
    Caster cast;
    ValueBuf zb;  // one tile in the stage's ztype
    bool direct;  // ztype == wtype: the mapper writes the target domain
  };
  std::vector<Step> steps_;
  size_t src_size_, wsize_;
  ValueBuf wb_;  // one tile in the target domain
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
    ChainRunner chain(st, u.type, wtype);
    chain.run(t->vals.at(lo), u.vals.at(lo), hi - lo, u.ind.data() + lo, 0);
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
    ChainRunner chain(st, a.type, ctype);
    for (Index r = lo; r < hi; ++r) {
      const size_t k = a.ptr[r], n = a.ptr[r + 1] - k;
      if (n != 0)
        chain.run(t->vals.at(k), a.vals.at(k), n, a.col.data() + k, r);
    }
  });
  return t;
}

// The zip operator in span form: z[k] = op(x[k], y[k]) for k < n, on
// the runner with_binary_runner picks for (x, y) in slot order.  The zip
// worker calls it once per aligned tile, or once per matched entry of a
// merge (where the map chain already costs a call per entry), so only
// this loop is instantiated per operator runner.
using ZipFn =
    std::function<void(void* z, const void* x, const void* y, size_t n)>;

ZipFn zip_span(const BinaryOp* op, const Type* xt, const Type* yt) {
  return with_binary_runner(op, xt, yt, [](auto make) -> ZipFn {
    return [run = make()](void* z, const void* x, const void* y,
                          size_t n) mutable { run.run_n(z, x, y, n); };
  });
}

// Per-chunk zip worker: feeds the target side through the pending map
// chain, then replays the eager ewise kernel's cast/runner sequence,
// ending in the target domain (the eager writeback's final cast).
class ZipWorker {
 public:
  ZipWorker(const std::vector<Stage>& stages, const Type* self_type,
            const Type* wtype, const FuseNode& nd)
      : self_is_x_(nd.zip_out_is_x),
        chain_(stages, self_type, wtype),
        run_(zip_span(nd.zip_op, self_is_x_ ? wtype : nd.zip_other->type,
                      self_is_x_ ? nd.zip_other->type : wtype)),
        self2z_(nd.zip_op->ztype(), wtype),
        other2z_(nd.zip_op->ztype(), nd.zip_other->type),
        z2w_(wtype, nd.zip_op->ztype()),
        z_is_w_(nd.zip_op->ztype() == wtype),
        wsize_(wtype->size()),
        zb_(nd.zip_op->ztype()->size() * kValueTile),
        sb_(wtype->size() * kValueTile) {}

  // dst: wtype storage.  xk/yk index the x-side / y-side streams
  // (VectorData::npos for the absent side on union entries).
  void emit(void* dst, const VectorData& xs, const VectorData& ys, Index i,
            size_t xk, size_t yk) {
    if (xk != VectorData::npos && yk != VectorData::npos) {
      const void* xv = xs.vals.at(xk);
      const void* yv = ys.vals.at(yk);
      if (self_is_x_) {
        chain_.run(sb_.data(), xv, 1, &i, 0);
        xv = sb_.data();
      } else {
        chain_.run(sb_.data(), yv, 1, &i, 0);
        yv = sb_.data();
      }
      run_(zb_.data(), xv, yv, 1);
      z2w_.run(dst, zb_.data());
    } else if (yk == VectorData::npos) {
      emit_single(dst, xs, i, xk, self_is_x_);
    } else {
      emit_single(dst, ys, i, yk, !self_is_x_);
    }
  }

  // Both sides full: entries k0 .. k0+n-1 of both streams share their
  // index, so the chain and the operator run over aligned tiles.
  void emit_aligned(void* dst, const VectorData& xs, const VectorData& ys,
                    size_t k0, size_t n) {
    const VectorData& self = self_is_x_ ? xs : ys;
    for (size_t lo = 0; lo < n; lo += kValueTile) {
      const size_t m = std::min(kValueTile, n - lo), k = k0 + lo;
      const void* sv = self.vals.at(k);
      if (!chain_.empty()) {
        chain_.run(sb_.data(), sv, m, self.ind.data() + k, 0);
        sv = sb_.data();
      }
      const void* xv = self_is_x_ ? sv : xs.vals.at(k);
      const void* yv = self_is_x_ ? ys.vals.at(k) : sv;
      void* out = static_cast<std::byte*>(dst) + lo * wsize_;
      if (z_is_w_) {
        run_(out, xv, yv, m);
      } else {
        run_(zb_.data(), xv, yv, m);
        z2w_.run_n(out, zb_.data(), m);
      }
    }
  }

 private:
  void emit_single(void* dst, const VectorData& side, Index i, size_t k,
                   bool is_self) {
    if (is_self) {
      // Chain output is already in the target domain; the eager path
      // still casts it through the op's ztype and back (a deliberate
      // round trip we must replicate for bitwise identity).
      chain_.run(sb_.data(), side.vals.at(k), 1, &i, 0);
      self2z_.run(zb_.data(), sb_.data());
    } else {
      other2z_.run(zb_.data(), side.vals.at(k));
    }
    z2w_.run(dst, zb_.data());
  }

  bool self_is_x_;
  ChainRunner chain_;
  ZipFn run_;
  Caster self2z_, other2z_, z2w_;
  bool z_is_w_;
  size_t wsize_;
  ValueBuf zb_, sb_;  // one tile in the op's ztype / the target domain
};

// The zip node's pass over the target's current data `self`: two full
// sides run aligned; otherwise the merged pass of vector_merge.hpp.
std::shared_ptr<VectorData> run_zip(Context* ctx, const VectorData& self,
                                    const std::vector<Stage>& st,
                                    const Type* wtype, const FuseNode& nd) {
  const VectorData& xs = nd.zip_out_is_x ? self : *nd.zip_other;
  const VectorData& ys = nd.zip_out_is_x ? *nd.zip_other : self;
  auto t = std::make_shared<VectorData>(wtype, self.n);
  if (is_full(xs) && is_full(ys)) {
    t->ind = self.ind;
    t->vals.resize(self.n);
    ctx->parallel_for(0, self.n, [&](Index lo, Index hi) {
      ZipWorker(st, self.type, wtype, nd)
          .emit_aligned(t->vals.at(lo), xs, ys, lo, hi - lo);
    });
    return t;
  }
  const MergePlan plan = plan_merge(ctx, xs, ys, nd.zip_union);
  t->ind.resize(plan.offs[plan.nblocks]);
  t->vals.resize(plan.offs[plan.nblocks]);
  merge_fill(ctx, plan, xs, ys, [&] {
    return [&, wkr = ZipWorker(st, self.type, wtype, nd)](
               size_t w, Index i, size_t xk, size_t yk) mutable {
      t->ind[w] = i;
      wkr.emit(t->vals.at(w), xs, ys, i, xk, yk);
    };
  });
  return t;
}

}  // namespace

Info run_fused_vector_group(Vector* w, std::vector<Deferred>& batch,
                            size_t b, size_t e) {
  const Type* wtype = w->current_data()->type;
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
        cur = w->current_data();
      stages.push_back(Stage{&nd.make_mapper, nd.ztype});
    } else {  // kZip
      if (cur == nullptr) cur = w->current_data();
      Context* ectx = exec_context(w->context(),
                                   cur->nvals() + nd.zip_other->nvals());
      cur = run_zip(ectx, *cur, stages, wtype, nd);
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
