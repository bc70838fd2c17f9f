// GrB_assign: w<m>(I) = u;  C<M>(I,J) = A;  row/col/scalar variants, plus
// the GrB_Scalar variants of Table II.
//
// Assign differs from every other operation in its write-back: positions
// of C *outside* the assigned region keep their values in Z even without
// an accumulator.  So the computation is
//   Z = C;  Z(region) updated from the source (accum-aware; a source hole
//           deletes the target entry unless accumulating);
//   C<M, replace> = Z   over the FULL C domain (GrB_assign semantics),
//           which is the shared write-back with no accumulator.
// Duplicate indices in I/J are undefined per the spec; this
// implementation applies updates in order with "last one wins".
#include <algorithm>

#include "ops/common.hpp"
#include "ops/op_apply.hpp"

namespace grb {
namespace {

// Values per tile when the scalar-assign accumulator stages a run of
// entries through a scratch buffer: small enough to stay in L1.
constexpr size_t kValueTile = 512;

bool is_all(const Index* indices) { return indices == all_indices(); }

struct IndexList {
  bool all = false;
  std::vector<Index> list;
  Index size(Index domain) const {
    return all ? domain : static_cast<Index>(list.size());
  }
  Index at(Index k) const { return all ? k : list[k]; }
};

Info capture_indices(IndexList* out, const Index* indices, Index n,
                     Index domain) {
  if (is_all(indices)) {
    out->all = true;
    return Info::kSuccess;
  }
  if (indices == nullptr && n > 0) return Info::kNullPointer;
  out->list.assign(indices, indices + n);
  for (Index i : out->list)
    if (i >= domain) return Info::kInvalidIndex;
  return Info::kSuccess;
}

// One update at a target position: has=false means "source hole".
struct Update {
  Index pos;     // target index (vector) or target column (matrix row)
  bool has;
  size_t src;    // value slot in the source ValueArray (valid when has)
};

// Sorts updates by position, keeping only the last per position.
void canonicalize(std::vector<Update>* ups) {
  std::stable_sort(ups->begin(), ups->end(),
                   [](const Update& a, const Update& b) {
                     return a.pos < b.pos;
                   });
  size_t w = 0;
  for (size_t k = 0; k < ups->size(); ++k) {
    if (k + 1 < ups->size() && (*ups)[k + 1].pos == (*ups)[k].pos) continue;
    (*ups)[w++] = (*ups)[k];
  }
  ups->resize(w);
}

// Merges a sorted C segment [c_lo, c_hi) (indices via cix, values via
// cvals) with canonical updates, emitting the Z segment.  Values from the
// source are in `src_type`; output entries are in ctype.
class UpdateMerger {
 public:
  UpdateMerger(const Type* ctype, const Type* src_type,
               const BinaryOp* accum, const ValueArray* src_vals)
      : ctype_(ctype),
        accum_(accum),
        src2c_(ctype, src_type),
        src_vals_(src_vals),
        run_(accum != nullptr
                 ? std::make_unique<BinRunner>(accum, ctype, src_type)
                 : nullptr),
        z2c_(accum != nullptr ? Caster(ctype, accum->ztype())
                              : Caster(ctype, ctype)),
        zb_(accum != nullptr ? accum->ztype()->size() : ctype->size()),
        cb_(ctype->size()) {}

  // emit(index, value_ptr): value already in ctype.
  template <class GetIdx, class GetVal, class Emit>
  void merge(size_t c_lo, size_t c_hi, GetIdx&& cidx, GetVal&& cval,
             const std::vector<Update>& ups, Emit&& emit) {
    size_t ck = c_lo, uk = 0;
    while (ck < c_hi || uk < ups.size()) {
      bool has_c = ck < c_hi;
      bool has_u = uk < ups.size();
      Index i;
      if (has_c && has_u) {
        i = std::min(cidx(ck), ups[uk].pos);
        has_c = cidx(ck) == i;
        has_u = ups[uk].pos == i;
      } else {
        i = has_c ? cidx(ck) : ups[uk].pos;
      }
      if (!has_u) {
        emit(i, cval(ck));  // untouched C entry
      } else if (ups[uk].has) {
        const void* sval = src_vals_->at(ups[uk].src);
        if (accum_ != nullptr && has_c) {
          run_->run(zb_.data(), cval(ck), sval);
          z2c_.run(cb_.data(), zb_.data());
          emit(i, cb_.data());
        } else {
          src2c_.run(cb_.data(), sval);
          emit(i, cb_.data());
        }
      } else {
        // Source hole: delete unless accumulating.
        if (accum_ != nullptr && has_c) emit(i, cval(ck));
      }
      if (has_c) ++ck;
      if (has_u) ++uk;
    }
  }

 private:
  const Type* ctype_;
  const BinaryOp* accum_;
  Caster src2c_;
  const ValueArray* src_vals_;
  std::unique_ptr<BinRunner> run_;
  Caster z2c_;
  ValueBuf zb_, cb_;
};

// Shared implementation for all vector assigns: `updates` target w's
// index space; src values live in src_vals (type src_type).
Info run_vector_assign(Vector* w, const Vector* mask, const BinaryOp* accum,
                       std::vector<Update> updates, ValueArray src_vals,
                       const Type* src_type, const Descriptor& d,
                       std::shared_ptr<const VectorData> m_snap) {
  canonicalize(&updates);
  // Z already carries the accumulation, so the write-back of Z runs
  // without one: mask-true positions take Z, the rest keep C.
  WritebackSpec spec{nullptr, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  return defer_or_run(w, [w, m_snap, accum, updates = std::move(updates),
                          src_vals = std::move(src_vals), src_type,
                          spec]() -> Info {
    auto c_old = w->current_data();
    auto z = std::make_shared<VectorData>(c_old->type, c_old->n);
    UpdateMerger merger(c_old->type, src_type, accum, &src_vals);
    merger.merge(
        0, c_old->ind.size(), [&](size_t k) { return c_old->ind[k]; },
        [&](size_t k) { return c_old->vals.at(k); }, updates,
        [&](Index i, const void* v) {
          z->ind.push_back(i);
          z->vals.push_back(v);
        });
    publish_result(w, w->context(), std::move(z), m_snap.get(), spec);
    return Info::kSuccess;
  });
}

// w(:) = s or w(:) = accum(w(:), s) with no mask and no complement:
// every position ends up holding a value, so Z is full and is built in
// one pass over C, with no update list and no sort.  Positions C lacks
// take cast(s); stored ones take accum(C(i), s) cast back into C's
// domain, a run of consecutive stored entries at a time through apply's
// bind-second mapper (typed for hot pairs).  Per entry this is the
// UpdateMerger sequence, so results match the general path bit for bit.
Info assign_scalar_all(Vector* w, const BinaryOp* accum, const void* s,
                       const Type* stype) {
  ValueBuf sv(stype, s);
  return defer_or_run(w, [w, accum, sv, stype]() -> Info {
    auto c_old = w->current_data();
    const VectorData& c = *c_old;
    const Type* ct = c.type;
    const size_t csize = ct->size();
    auto z = std::make_shared<VectorData>(ct, c.n);
    z->ind.resize(c.n);
    z->vals.resize(c.n);
    ValueBuf sc(csize);  // s in C's domain: the untouched positions
    cast_value(ct, sc.data(), stype, sv.data());
    const bool accumulate = accum != nullptr && !c.ind.empty();
    ValueBuf sy;  // s in the accumulator's y domain
    if (accumulate) {
      sy.resize(accum->ytype()->size());
      cast_value(accum->ytype(), sy.data(), stype, sv.data());
    }
    Context* ectx = exec_context(w->context(), c.n);
    // Positions [lo, hi) C lacks: z = cast(s).
    auto fill = [&](Index lo, Index hi) {
      for (Index i = lo; i < hi; ++i)
        std::memcpy(z->vals.at(i), sc.data(), csize);
    };
    // The accumulator runs as apply's bind-second mapper over C's runs.
    const MapFactory accum_map =
        accumulate ? bind2nd_mapper(accum, std::move(sy), ct) : MapFactory{};
    const Type* zt = accumulate ? accum->ztype() : ct;
    ectx->parallel_for(0, c.n, [&](Index lo, Index hi) {
      for (Index i = lo; i < hi; ++i) z->ind[i] = i;
      if (!accumulate) {
        fill(lo, hi);
        return;
      }
      MapFn fn = accum_map();
      Caster z2c(ct, zt);
      ValueBuf tile(zt == ct ? 0 : zt->size() * kValueTile);
      size_t k = std::lower_bound(c.ind.begin(), c.ind.end(), lo) -
                 c.ind.begin();
      Index i = lo;
      while (i < hi) {
        const Index gap_end =
            k < c.ind.size() ? std::min<Index>(c.ind[k], hi) : hi;
        fill(i, gap_end);
        i = gap_end;
        if (i == hi) break;
        // A run of stored positions [i, i + r), held by C at [k, k + r).
        size_t r = 1;
        while (k + r < c.ind.size() && c.ind[k + r] == i + r && i + r < hi)
          ++r;
        void* dst = z->vals.at(i);
        if (zt == ct) {
          fn(dst, c.vals.at(k), r, nullptr, 0);
        } else {
          for (size_t t = 0; t < r; t += kValueTile) {
            const size_t m = std::min(kValueTile, r - t);
            fn(tile.data(), c.vals.at(k + t), m, nullptr, 0);
            z2c.run_n(static_cast<std::byte*>(dst) + t * csize, tile.data(),
                      m);
          }
        }
        i += r;
        k += r;
      }
    });
    publish_result(w, w->context(), std::move(z), nullptr, WritebackSpec{});
    return Info::kSuccess;
  });
}

// Shared implementation for matrix assigns: per-row canonical updates.
Info run_matrix_assign(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                       std::vector<std::pair<Index, Update>> updates,
                       ValueArray src_vals, const Type* src_type,
                       const Descriptor& d,
                       std::shared_ptr<const MatrixData> m_snap) {
  // Z already carries the accumulation, so the write-back of Z runs
  // without one: mask-true positions take Z, the rest keep C.
  WritebackSpec spec{nullptr, mask != nullptr, d.mask_structure(),
                     d.mask_comp(), d.replace()};
  return defer_or_run(c, [c, m_snap, accum, updates = std::move(updates),
                          src_vals = std::move(src_vals), src_type,
                          spec]() -> Info {
    auto c_old = c->current_data();
    // Group updates by target row (stable: program order preserved).
    std::vector<std::pair<Index, Update>> ups = updates;
    std::stable_sort(ups.begin(), ups.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    auto z = std::make_shared<MatrixData>(c_old->type, c_old->nrows,
                                          c_old->ncols);
    UpdateMerger merger(c_old->type, src_type, accum, &src_vals);
    std::vector<Update> rowups;
    size_t uk = 0;
    for (Index r = 0; r < c_old->nrows; ++r) {
      rowups.clear();
      while (uk < ups.size() && ups[uk].first == r) {
        rowups.push_back(ups[uk].second);
        ++uk;
      }
      if (rowups.empty()) {
        for (size_t k = c_old->ptr[r]; k < c_old->ptr[r + 1]; ++k) {
          z->col.push_back(c_old->col[k]);
          z->vals.push_back_from(c_old->vals, k);
        }
      } else {
        canonicalize(&rowups);
        merger.merge(
            c_old->ptr[r], c_old->ptr[r + 1],
            [&](size_t k) { return c_old->col[k]; },
            [&](size_t k) { return c_old->vals.at(k); }, rowups,
            [&](Index j, const void* v) {
              z->col.push_back(j);
              z->vals.push_back(v);
            });
      }
      z->ptr[r + 1] = z->col.size();
    }
    publish_result(c, c->context(), std::move(z), m_snap.get(), spec);
    return Info::kSuccess;
  });
}

}  // namespace

// ---- vector assigns --------------------------------------------------------

Info assign(Vector* w, const Vector* mask, const BinaryOp* accum,
            const Vector* u, const Index* indices, Index ni,
            const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({w, mask, u}));
  if (u == nullptr) return Info::kNullPointer;
  Index eff_ni = is_all(indices) ? w->size() : ni;
  if (eff_ni != u->size()) return Info::kDimensionMismatch;
  if (mask != nullptr && mask->size() != w->size())
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(w->type(), u->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, w->type(), u->type()));
  IndexList il;
  GRB_RETURN_IF_ERROR(capture_indices(&il, indices, ni, w->size()));

  const Descriptor& d = resolve_desc(desc);
  std::shared_ptr<const VectorData> u_snap, m_snap;
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(u)->snapshot(&u_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(mask)->snapshot(&m_snap));

  std::vector<Update> updates;
  updates.reserve(eff_ni);
  ValueArray vals(u_snap->type->size());
  vals.reserve(u_snap->ind.size());
  size_t next = 0;  // walk u's sparse entries alongside k
  for (Index k = 0; k < eff_ni; ++k) {
    while (next < u_snap->ind.size() && u_snap->ind[next] < k) ++next;
    bool has = next < u_snap->ind.size() && u_snap->ind[next] == k;
    size_t slot = 0;
    if (has) {
      slot = vals.size();
      vals.push_back(u_snap->vals.at(next));
    }
    updates.push_back({il.at(k), has, slot});
  }
  return run_vector_assign(w, mask, accum, std::move(updates),
                           std::move(vals), u_snap->type, d,
                           std::move(m_snap));
}

Info assign_scalar(Vector* w, const Vector* mask, const BinaryOp* accum,
                   const void* s, const Type* stype, const Index* indices,
                   Index ni, const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({w, mask}));
  if (s == nullptr || stype == nullptr) return Info::kNullPointer;
  if (mask != nullptr && mask->size() != w->size())
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(w->type(), stype));
  GRB_RETURN_IF_ERROR(check_accum(accum, w->type(), stype));
  IndexList il;
  GRB_RETURN_IF_ERROR(capture_indices(&il, indices, ni, w->size()));
  Index eff_ni = il.all ? w->size() : static_cast<Index>(il.list.size());

  const Descriptor& d = resolve_desc(desc);
  if (il.all && mask == nullptr && !d.mask_comp())
    return assign_scalar_all(w, accum, s, stype);
  std::shared_ptr<const VectorData> m_snap;
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(mask)->snapshot(&m_snap));
  ValueArray vals(stype->size());
  vals.push_back(s);
  std::vector<Update> updates;
  updates.reserve(eff_ni);
  for (Index k = 0; k < eff_ni; ++k) updates.push_back({il.at(k), true, 0});
  return run_vector_assign(w, mask, accum, std::move(updates),
                           std::move(vals), stype, d, std::move(m_snap));
}

Info assign_scalar(Vector* w, const Vector* mask, const BinaryOp* accum,
                   const Scalar* s, const Index* indices, Index ni,
                   const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({w, mask, s}));
  if (s == nullptr) return Info::kNullPointer;
  std::shared_ptr<const ScalarData> s_snap;
  GRB_RETURN_IF_ERROR(const_cast<Scalar*>(s)->snapshot(&s_snap));
  if (s_snap->present) {
    return assign_scalar(w, mask, accum, s_snap->value.data(), s_snap->type,
                         indices, ni, desc);
  }
  // Empty scalar: the targeted positions receive "holes" (deleted unless
  // accumulating) -- uniform with an all-empty source vector (§VI).
  GRB_RETURN_IF_ERROR(check_cast(w->type(), s_snap->type));
  GRB_RETURN_IF_ERROR(check_accum(accum, w->type(), s_snap->type));
  if (mask != nullptr && mask->size() != w->size())
    return Info::kDimensionMismatch;
  IndexList il;
  GRB_RETURN_IF_ERROR(capture_indices(&il, indices, ni, w->size()));
  Index eff_ni = il.all ? w->size() : static_cast<Index>(il.list.size());
  const Descriptor& d = resolve_desc(desc);
  std::shared_ptr<const VectorData> m_snap;
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Vector*>(mask)->snapshot(&m_snap));
  std::vector<Update> updates;
  updates.reserve(eff_ni);
  for (Index k = 0; k < eff_ni; ++k) updates.push_back({il.at(k), false, 0});
  return run_vector_assign(w, mask, accum, std::move(updates),
                           ValueArray(s_snap->type->size()), s_snap->type, d,
                           std::move(m_snap));
}

// ---- matrix assigns --------------------------------------------------------

Info assign(Matrix* c, const Matrix* mask, const BinaryOp* accum,
            const Matrix* a, const Index* rows, Index nrows,
            const Index* cols, Index ncols, const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({c, mask, a}));
  if (a == nullptr) return Info::kNullPointer;
  const Descriptor& d = resolve_desc(desc);
  Index ar = d.tran0() ? a->ncols() : a->nrows();
  Index ac = d.tran0() ? a->nrows() : a->ncols();
  Index eff_nr = is_all(rows) ? c->nrows() : nrows;
  Index eff_nc = is_all(cols) ? c->ncols() : ncols;
  if (eff_nr != ar || eff_nc != ac) return Info::kDimensionMismatch;
  if (mask != nullptr &&
      (mask->nrows() != c->nrows() || mask->ncols() != c->ncols()))
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(c->type(), a->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, c->type(), a->type()));
  IndexList ri, ci;
  GRB_RETURN_IF_ERROR(capture_indices(&ri, rows, nrows, c->nrows()));
  GRB_RETURN_IF_ERROR(capture_indices(&ci, cols, ncols, c->ncols()));

  std::shared_ptr<const MatrixData> a_snap, m_snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&a_snap));
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Matrix*>(mask)->snapshot(&m_snap));
  std::shared_ptr<const MatrixData> av =
      d.tran0() ? format_transpose_view(a_snap) : a_snap;

  std::vector<std::pair<Index, Update>> updates;
  updates.reserve(static_cast<size_t>(eff_nr) * eff_nc);
  ValueArray vals(av->type->size());
  vals.reserve(av->col.size());
  for (Index r = 0; r < eff_nr; ++r) {
    Index target_row = ri.at(r);
    size_t next = av->ptr[r];
    for (Index k = 0; k < eff_nc; ++k) {
      while (next < av->ptr[r + 1] && av->col[next] < k) ++next;
      bool has = next < av->ptr[r + 1] && av->col[next] == k;
      size_t slot = 0;
      if (has) {
        slot = vals.size();
        vals.push_back(av->vals.at(next));
      }
      updates.push_back({target_row, Update{ci.at(k), has, slot}});
    }
  }
  return run_matrix_assign(c, mask, accum, std::move(updates),
                           std::move(vals), av->type, d, std::move(m_snap));
}

Info assign_row(Matrix* c, const Vector* mask, const BinaryOp* accum,
                const Vector* u, Index row, const Index* cols, Index ncols,
                const Descriptor* desc) {
  // The row-vector mask of GrB_Row_assign masks only the row being
  // written.  This implementation supports the common unmasked form and
  // reports kNotImplemented for a row mask (documented in DESIGN.md).
  if (mask != nullptr) return Info::kNotImplemented;
  GRB_RETURN_IF_ERROR(validate_objects({c, u}));
  if (u == nullptr) return Info::kNullPointer;
  if (row >= c->nrows()) return Info::kInvalidIndex;
  const Descriptor& d = resolve_desc(desc);
  Index eff_nc = is_all(cols) ? c->ncols() : ncols;
  if (eff_nc != u->size()) return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(c->type(), u->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, c->type(), u->type()));
  IndexList ci;
  GRB_RETURN_IF_ERROR(capture_indices(&ci, cols, ncols, c->ncols()));
  std::shared_ptr<const VectorData> u_snap;
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(u)->snapshot(&u_snap));

  std::vector<std::pair<Index, Update>> updates;
  updates.reserve(eff_nc);
  ValueArray vals(u_snap->type->size());
  size_t next = 0;
  for (Index k = 0; k < eff_nc; ++k) {
    while (next < u_snap->ind.size() && u_snap->ind[next] < k) ++next;
    bool has = next < u_snap->ind.size() && u_snap->ind[next] == k;
    size_t slot = 0;
    if (has) {
      slot = vals.size();
      vals.push_back(u_snap->vals.at(next));
    }
    updates.push_back({row, Update{ci.at(k), has, slot}});
  }
  return run_matrix_assign(c, nullptr, accum, std::move(updates),
                           std::move(vals), u_snap->type, d, nullptr);
}

Info assign_col(Matrix* c, const Vector* mask, const BinaryOp* accum,
                const Vector* u, const Index* rows, Index nrows, Index col,
                const Descriptor* desc) {
  if (mask != nullptr) return Info::kNotImplemented;
  GRB_RETURN_IF_ERROR(validate_objects({c, u}));
  if (u == nullptr) return Info::kNullPointer;
  if (col >= c->ncols()) return Info::kInvalidIndex;
  const Descriptor& d = resolve_desc(desc);
  Index eff_nr = is_all(rows) ? c->nrows() : nrows;
  if (eff_nr != u->size()) return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(c->type(), u->type()));
  GRB_RETURN_IF_ERROR(check_accum(accum, c->type(), u->type()));
  IndexList ri;
  GRB_RETURN_IF_ERROR(capture_indices(&ri, rows, nrows, c->nrows()));
  std::shared_ptr<const VectorData> u_snap;
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(u)->snapshot(&u_snap));

  std::vector<std::pair<Index, Update>> updates;
  updates.reserve(eff_nr);
  ValueArray vals(u_snap->type->size());
  size_t next = 0;
  for (Index k = 0; k < eff_nr; ++k) {
    while (next < u_snap->ind.size() && u_snap->ind[next] < k) ++next;
    bool has = next < u_snap->ind.size() && u_snap->ind[next] == k;
    size_t slot = 0;
    if (has) {
      slot = vals.size();
      vals.push_back(u_snap->vals.at(next));
    }
    updates.push_back({ri.at(k), Update{col, has, slot}});
  }
  return run_matrix_assign(c, nullptr, accum, std::move(updates),
                           std::move(vals), u_snap->type, d, nullptr);
}

Info assign_scalar(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                   const void* s, const Type* stype, const Index* rows,
                   Index nrows, const Index* cols, Index ncols,
                   const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({c, mask}));
  if (s == nullptr || stype == nullptr) return Info::kNullPointer;
  if (mask != nullptr &&
      (mask->nrows() != c->nrows() || mask->ncols() != c->ncols()))
    return Info::kDimensionMismatch;
  GRB_RETURN_IF_ERROR(check_cast(c->type(), stype));
  GRB_RETURN_IF_ERROR(check_accum(accum, c->type(), stype));
  IndexList ri, ci;
  GRB_RETURN_IF_ERROR(capture_indices(&ri, rows, nrows, c->nrows()));
  GRB_RETURN_IF_ERROR(capture_indices(&ci, cols, ncols, c->ncols()));
  Index eff_nr = ri.all ? c->nrows() : static_cast<Index>(ri.list.size());
  Index eff_nc = ci.all ? c->ncols() : static_cast<Index>(ci.list.size());

  const Descriptor& d = resolve_desc(desc);
  std::shared_ptr<const MatrixData> m_snap;
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Matrix*>(mask)->snapshot(&m_snap));
  ValueArray vals(stype->size());
  vals.push_back(s);
  std::vector<std::pair<Index, Update>> updates;
  updates.reserve(static_cast<size_t>(eff_nr) * eff_nc);
  for (Index r = 0; r < eff_nr; ++r)
    for (Index k = 0; k < eff_nc; ++k)
      updates.push_back({ri.at(r), Update{ci.at(k), true, 0}});
  return run_matrix_assign(c, mask, accum, std::move(updates),
                           std::move(vals), stype, d, std::move(m_snap));
}

Info assign_scalar(Matrix* c, const Matrix* mask, const BinaryOp* accum,
                   const Scalar* s, const Index* rows, Index nrows,
                   const Index* cols, Index ncols, const Descriptor* desc) {
  GRB_RETURN_IF_ERROR(validate_objects({c, mask, s}));
  if (s == nullptr) return Info::kNullPointer;
  std::shared_ptr<const ScalarData> s_snap;
  GRB_RETURN_IF_ERROR(const_cast<Scalar*>(s)->snapshot(&s_snap));
  if (s_snap->present) {
    return assign_scalar(c, mask, accum, s_snap->value.data(), s_snap->type,
                         rows, nrows, cols, ncols, desc);
  }
  GRB_RETURN_IF_ERROR(check_cast(c->type(), s_snap->type));
  GRB_RETURN_IF_ERROR(check_accum(accum, c->type(), s_snap->type));
  if (mask != nullptr &&
      (mask->nrows() != c->nrows() || mask->ncols() != c->ncols()))
    return Info::kDimensionMismatch;
  IndexList ri, ci;
  GRB_RETURN_IF_ERROR(capture_indices(&ri, rows, nrows, c->nrows()));
  GRB_RETURN_IF_ERROR(capture_indices(&ci, cols, ncols, c->ncols()));
  Index eff_nr = ri.all ? c->nrows() : static_cast<Index>(ri.list.size());
  Index eff_nc = ci.all ? c->ncols() : static_cast<Index>(ci.list.size());
  const Descriptor& d = resolve_desc(desc);
  std::shared_ptr<const MatrixData> m_snap;
  if (mask != nullptr)
    GRB_RETURN_IF_ERROR(const_cast<Matrix*>(mask)->snapshot(&m_snap));
  std::vector<std::pair<Index, Update>> updates;
  updates.reserve(static_cast<size_t>(eff_nr) * eff_nc);
  for (Index r = 0; r < eff_nr; ++r)
    for (Index k = 0; k < eff_nc; ++k)
      updates.push_back({ri.at(r), Update{ci.at(k), false, 0}});
  return run_matrix_assign(c, mask, accum, std::move(updates),
                           ValueArray(s_snap->type->size()), s_snap->type, d,
                           std::move(m_snap));
}

}  // namespace grb
