// Masked/accumulated write-back for vectors:
//   Z = accum ? (C odot T) : T ;  w<M, replace> = Z
//
// Range-blocked two-phase assembly, mirroring writeback_matrix: the
// survivor pattern per position is purely structural (presence in C,
// presence in T, mask bit), so phase 1 counts each block, a prefix sum
// sizes the result, and phase 2 computes values straight into place.
// The serial path is the same algorithm with a single block covering
// [0, n), so parallel output is bitwise-identical to serial output.
#include <algorithm>

#include "obs/telemetry.hpp"
#include "ops/common.hpp"
#include "ops/mask.hpp"

namespace grb {
namespace {

// Classifies each union position in [ilo, ihi) starting at stream
// offsets ck/tk; calls emit(i, ck, tk) for survivors, where exactly one
// of ck/tk may be npos.
template <class Emit>
void merge_range(const VectorData& c, const VectorData& t,
                 const VectorData* mask, const WritebackSpec& spec,
                 size_t ck, size_t tk, Index ilo, Index ihi, Emit&& emit) {
  VectorMaskCursor mcur(mask, spec, ilo);
  bool accum = spec.accum != nullptr;
  size_t cend = c.ind.size(), tend = t.ind.size();
  while ((ck < cend && c.ind[ck] < ihi) || (tk < tend && t.ind[tk] < ihi)) {
    bool has_c = ck < cend && c.ind[ck] < ihi;
    bool has_t = tk < tend && t.ind[tk] < ihi;
    Index i;
    if (has_c && has_t) {
      i = std::min(c.ind[ck], t.ind[tk]);
      has_c = c.ind[ck] == i;
      has_t = t.ind[tk] == i;
    } else {
      i = has_c ? c.ind[ck] : t.ind[tk];
    }
    bool m = mcur.test(i);
    if (m) {
      if (has_t) {
        emit(i, has_c ? ck : VectorData::npos, tk);
      } else if (accum) {
        // Z keeps C-only entries when accumulating.
        emit(i, ck, VectorData::npos);
      }
      // no accum, only C: entry is annihilated (Z = T).
    } else if (!spec.replace && has_c) {
      emit(i, ck, VectorData::npos);  // keep old C value
    }
    if (has_c) ++ck;
    if (has_t) ++tk;
  }
}

}  // namespace

std::shared_ptr<VectorData> writeback_vector(Context* ctx,
                                             const VectorData& c_old,
                                             const VectorData& t,
                                             const VectorData* mask,
                                             const WritebackSpec& spec) {
  const Type* ctype = c_old.type;
  auto out = std::make_shared<VectorData>(ctype, c_old.n);
  size_t work = c_old.ind.size() + t.ind.size();
  Context* ectx = exec_context(ctx, work);
  Index block = ectx->block_size(c_old.n, work);
  Index nb = c_old.n == 0 ? 0 : (c_old.n + block - 1) / block;

  // Phase 1: block start offsets and structural survivor counts.
  std::vector<size_t> cstart(nb), tstart(nb);
  std::vector<Index> counts(nb, 0);
  ectx->parallel_for(0, nb, 1, [&](Index blo, Index bhi) {
    for (Index b = blo; b < bhi; ++b) {
      Index ilo = b * block;
      Index ihi = std::min<Index>(c_old.n, ilo + block);
      cstart[b] = std::lower_bound(c_old.ind.begin(), c_old.ind.end(), ilo) -
                  c_old.ind.begin();
      tstart[b] =
          std::lower_bound(t.ind.begin(), t.ind.end(), ilo) - t.ind.begin();
      Index n = 0;
      merge_range(c_old, t, mask, spec, cstart[b], tstart[b], ilo, ihi,
                  [&](Index, size_t, size_t) { ++n; });
      counts[b] = n;
    }
  });
  std::vector<size_t> offs(nb + 1, 0);
  for (Index b = 0; b < nb; ++b) offs[b + 1] = offs[b] + counts[b];
  out->ind.resize(offs[nb]);
  out->vals.resize(offs[nb]);

  // Phase 2: fill values.
  const BinaryOp* accum = spec.accum;
  CastFn t2c = cast_fn(ctype, t.type);
  CastFn c2x = accum != nullptr ? cast_fn(accum->xtype(), ctype) : nullptr;
  CastFn t2y = accum != nullptr ? cast_fn(accum->ytype(), t.type) : nullptr;
  CastFn z2c = accum != nullptr ? cast_fn(ctype, accum->ztype()) : nullptr;
  ectx->parallel_for(0, nb, 1, [&](Index blo, Index bhi) {
    ValueBuf xbuf(accum != nullptr ? accum->xtype()->size() : 0);
    ValueBuf ybuf(accum != nullptr ? accum->ytype()->size() : 0);
    ValueBuf zbuf(accum != nullptr ? accum->ztype()->size() : 0);
    for (Index b = blo; b < bhi; ++b) {
      Index ilo = b * block;
      Index ihi = std::min<Index>(c_old.n, ilo + block);
      size_t w = offs[b];
      merge_range(
          c_old, t, mask, spec, cstart[b], tstart[b], ilo, ihi,
          [&](Index i, size_t ck, size_t tk) {
            out->ind[w] = i;
            void* dst = out->vals.at(w);
            if (tk == VectorData::npos) {
              // survivor carries the old C value unchanged
              std::memcpy(dst, c_old.vals.at(ck), ctype->size());
            } else if (accum != nullptr && ck != VectorData::npos) {
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
  });
  if (obs::stats_enabled()) obs::add_scalars(out->nvals());
  return out;
}

void publish_result(Vector* w, Context* ctx,
                    std::shared_ptr<const VectorData> t,
                    const VectorData* mask, const WritebackSpec& spec,
                    bool t_in_mask) {
  // See the matrix overload in writeback_matrix.cpp.
  std::shared_ptr<const VectorData> c_old = w->current_data();
  if (writeback_is_identity(spec, c_old->type, t->type, t_in_mask,
                            c_old->nvals() == 0)) {
    if (obs::stats_enabled()) obs::add_scalars(t->nvals());
    w->publish(std::move(t));
    return;
  }
  c_old = format_sparse_view(std::move(c_old));
  w->publish(writeback_vector(ctx, *c_old, *t, mask, spec));
}

}  // namespace grb
