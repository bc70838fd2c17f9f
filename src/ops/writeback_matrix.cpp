// Masked/accumulated write-back for matrices:
//   Z = accum ? (C odot T) : T ;  C<M, replace> = Z
//
// Two-phase row-parallel assembly: the survivor pattern per position is
// purely structural (presence in C, presence in T, mask bit), so phase 1
// counts each output row, a prefix sum sizes the result, and phase 2
// computes values straight into place.
#include "obs/telemetry.hpp"
#include "ops/common.hpp"
#include "ops/mask.hpp"

namespace grb {
namespace {

// Classifies each union position of row r; calls emit(i, j, ck, tk) for
// survivors, where exactly one of ck/tk may be npos.
template <class Emit>
void merge_row(const MatrixData& c, const MatrixData& t,
               const MatrixData* mask, const WritebackSpec& spec, Index r,
               Emit&& emit) {
  MatrixRowMaskCursor mcur(mask, r, spec);
  bool accum = spec.accum != nullptr;
  size_t ck = c.ptr[r], cend = c.ptr[r + 1];
  size_t tk = t.ptr[r], tend = t.ptr[r + 1];
  while (ck < cend || tk < tend) {
    bool has_c = ck < cend;
    bool has_t = tk < tend;
    Index j;
    if (has_c && has_t) {
      j = std::min(c.col[ck], t.col[tk]);
      has_c = c.col[ck] == j;
      has_t = t.col[tk] == j;
    } else {
      j = has_c ? c.col[ck] : t.col[tk];
    }
    bool m = mcur.test(j);
    if (m) {
      if (has_t) {
        emit(j, has_c ? ck : MatrixData::npos, tk);
      } else if (accum) {
        emit(j, ck, MatrixData::npos);
      }
    } else if (!spec.replace && has_c) {
      emit(j, ck, MatrixData::npos);  // keep old C value
    }
    if (has_c) ++ck;
    if (has_t) ++tk;
  }
}

}  // namespace

std::shared_ptr<MatrixData> writeback_matrix(Context* ctx,
                                             const MatrixData& c_old,
                                             const MatrixData& t,
                                             const MatrixData* mask,
                                             const WritebackSpec& spec) {
  const Type* ctype = c_old.type;
  auto out = std::make_shared<MatrixData>(ctype, c_old.nrows, c_old.ncols);
  Index nrows = c_old.nrows;
  Context* ectx = exec_context(ctx, c_old.nvals() + t.nvals());

  // Phase 1: structural row counts.
  std::vector<Index> counts(nrows, 0);
  auto count_rows = [&](Index lo, Index hi) {
    for (Index r = lo; r < hi; ++r) {
      Index n = 0;
      merge_row(c_old, t, mask, spec, r,
                [&](Index, size_t, size_t) { ++n; });
      counts[r] = n;
    }
  };
  ectx->parallel_for(0, nrows, count_rows);
  for (Index r = 0; r < nrows; ++r) out->ptr[r + 1] = out->ptr[r] + counts[r];
  Index total = out->ptr[nrows];
  out->col.resize(total);
  out->vals.resize(total);

  // Phase 2: fill values.
  const BinaryOp* accum = spec.accum;
  CastFn t2c = cast_fn(ctype, t.type);
  CastFn c2x = accum != nullptr ? cast_fn(accum->xtype(), ctype) : nullptr;
  CastFn t2y = accum != nullptr ? cast_fn(accum->ytype(), t.type) : nullptr;
  CastFn z2c = accum != nullptr ? cast_fn(ctype, accum->ztype()) : nullptr;

  auto fill_rows = [&](Index lo, Index hi) {
    ValueBuf xbuf(accum != nullptr ? accum->xtype()->size() : 0);
    ValueBuf ybuf(accum != nullptr ? accum->ytype()->size() : 0);
    ValueBuf zbuf(accum != nullptr ? accum->ztype()->size() : 0);
    for (Index r = lo; r < hi; ++r) {
      size_t w = out->ptr[r];
      merge_row(c_old, t, mask, spec, r, [&](Index j, size_t ck, size_t tk) {
        out->col[w] = j;
        void* dst = out->vals.at(w);
        if (tk == MatrixData::npos) {
          // survivor carries the old C value unchanged
          std::memcpy(dst, c_old.vals.at(ck), ctype->size());
        } else if (accum != nullptr && ck != MatrixData::npos) {
          if (c2x != nullptr) {
            c2x(xbuf.data(), c_old.vals.at(ck));
          } else {
            std::memcpy(xbuf.data(), c_old.vals.at(ck), ctype->size());
          }
          if (t2y != nullptr) {
            t2y(ybuf.data(), t.vals.at(tk));
          } else {
            std::memcpy(ybuf.data(), t.vals.at(tk), t.type->size());
          }
          accum->apply(zbuf.data(), xbuf.data(), ybuf.data());
          if (z2c != nullptr) {
            z2c(dst, zbuf.data());
          } else {
            std::memcpy(dst, zbuf.data(), ctype->size());
          }
        } else {
          if (t2c != nullptr) {
            t2c(dst, t.vals.at(tk));
          } else {
            std::memcpy(dst, t.vals.at(tk), ctype->size());
          }
        }
        ++w;
      });
    }
  };
  ectx->parallel_for(0, nrows, fill_rows);
  if (obs::stats_enabled()) obs::add_scalars(out->nvals());
  return out;
}

void publish_result(Matrix* c, Context* ctx,
                    std::shared_ptr<const MatrixData> t,
                    const MatrixData* mask, const WritebackSpec& spec,
                    bool t_in_mask) {
  // c's queue is FIFO: predecessors have published by now.
  std::shared_ptr<const MatrixData> c_old = c->current_data();
  if (writeback_is_identity(spec, c_old->type, t->type, t_in_mask,
                            c_old->nvals() == 0)) {
    if (obs::stats_enabled()) obs::add_scalars(t->nvals());
    c->publish(std::move(t));
    return;
  }
  c->publish(writeback_matrix(ctx, *c_old, *t, mask, spec));
}

}  // namespace grb
