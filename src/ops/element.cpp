// setElement / removeElement / extractElement / extractTuples for
// vectors and matrices.
//
// setElement and removeElement use the pending-tuple fast path: in
// nonblocking mode each call is O(1) and the tuples are folded into the
// sparse structure on completion — the bulk-ingest pattern that
// nonblocking mode exists to allow (measured by bench_m1_nonblocking).
// Each call takes the object mutex once: the stored-error check, the
// domain and bounds checks, the append and the mode read share it, in
// that order, so a poisoned object reports its error first.

#include "containers/matrix.hpp"
#include "containers/vector.hpp"
#include "obs/telemetry.hpp"

namespace grb {

// --- Vector ---------------------------------------------------------------

Info Vector::set_element(const void* value, const Type* value_type,
                         Index i) {
  if (value == nullptr || value_type == nullptr) return Info::kNullPointer;
  stamp_current_ctx();
  Mode mode = Mode::kBlocking;
  {
    MutexLock lock(mu_);
    GRB_RETURN_IF_ERROR(error_locked());
    if (!types_compatible(type_, value_type)) return Info::kDomainMismatch;
    if (i >= size_) return Info::kInvalidIndex;
    pend_.push_back({i, false});
    ValueBuf cast(type_->size());
    cast_value(type_, cast.data(), value_type, value);
    pend_vals_.push_back(cast.data());
    obs::pending_tuples_sample(pend_.size());
    mode = mode_locked();
  }
  if (mode == Mode::kBlocking) return complete();
  return Info::kSuccess;
}

Info Vector::remove_element(Index i) {
  stamp_current_ctx();
  Mode mode = Mode::kBlocking;
  {
    MutexLock lock(mu_);
    GRB_RETURN_IF_ERROR(error_locked());
    if (i >= size_) return Info::kInvalidIndex;
    pend_.push_back({i, true});
    obs::pending_tuples_sample(pend_.size());
    mode = mode_locked();
  }
  if (mode == Mode::kBlocking) return complete();
  return Info::kSuccess;
}

Info Vector::extract_element(void* out, const Type* out_type, Index i) {
  if (out == nullptr || out_type == nullptr) return Info::kNullPointer;
  if (!types_compatible(out_type, type_)) return Info::kDomainMismatch;
  if (i >= size()) return Info::kInvalidIndex;
  std::shared_ptr<const VectorData> snap;
  GRB_RETURN_IF_ERROR(snapshot(&snap));
  size_t pos = snap->find(i);
  if (pos == VectorData::npos) return Info::kNoValue;
  cast_value(out_type, out, snap->type, snap->vals.at(pos));
  return Info::kSuccess;
}

Info Vector::extract_tuples(Index* indices, void* values, Index* n,
                            const Type* value_type) {
  if (n == nullptr) return Info::kNullPointer;
  if (values != nullptr && value_type == nullptr) return Info::kNullPointer;
  if (values != nullptr && !types_compatible(value_type, type_))
    return Info::kDomainMismatch;
  std::shared_ptr<const VectorData> snap;
  GRB_RETURN_IF_ERROR(snapshot(&snap));
  if (*n < snap->nvals()) return Info::kInsufficientSpace;
  *n = snap->nvals();
  CastFn cast = values != nullptr ? cast_fn(value_type, snap->type) : nullptr;
  for (size_t k = 0; k < snap->ind.size(); ++k) {
    if (indices != nullptr) indices[k] = snap->ind[k];
    if (values != nullptr) {
      auto* dst = static_cast<std::byte*>(values) + k * value_type->size();
      if (cast != nullptr) {
        cast(dst, snap->vals.at(k));
      } else {
        std::memcpy(dst, snap->vals.at(k), snap->type->size());
      }
    }
  }
  return Info::kSuccess;
}

// --- Matrix ---------------------------------------------------------------

Info Matrix::set_element(const void* value, const Type* value_type, Index i,
                         Index j) {
  if (value == nullptr || value_type == nullptr) return Info::kNullPointer;
  stamp_current_ctx();
  Mode mode = Mode::kBlocking;
  {
    MutexLock lock(mu_);
    GRB_RETURN_IF_ERROR(error_locked());
    if (!types_compatible(type_, value_type)) return Info::kDomainMismatch;
    if (i >= nrows_ || j >= ncols_) return Info::kInvalidIndex;
    pend_.push_back({i, j, false});
    ValueBuf cast(type_->size());
    cast_value(type_, cast.data(), value_type, value);
    pend_vals_.push_back(cast.data());
    obs::pending_tuples_sample(pend_.size());
    mode = mode_locked();
  }
  if (mode == Mode::kBlocking) return complete();
  return Info::kSuccess;
}

Info Matrix::remove_element(Index i, Index j) {
  stamp_current_ctx();
  Mode mode = Mode::kBlocking;
  {
    MutexLock lock(mu_);
    GRB_RETURN_IF_ERROR(error_locked());
    if (i >= nrows_ || j >= ncols_) return Info::kInvalidIndex;
    pend_.push_back({i, j, true});
    obs::pending_tuples_sample(pend_.size());
    mode = mode_locked();
  }
  if (mode == Mode::kBlocking) return complete();
  return Info::kSuccess;
}

Info Matrix::extract_element(void* out, const Type* out_type, Index i,
                             Index j) {
  if (out == nullptr || out_type == nullptr) return Info::kNullPointer;
  if (!types_compatible(out_type, type_)) return Info::kDomainMismatch;
  if (i >= nrows() || j >= ncols()) return Info::kInvalidIndex;
  std::shared_ptr<const MatrixData> snap;
  GRB_RETURN_IF_ERROR(snapshot(&snap));
  size_t pos = snap->find(i, j);
  if (pos == MatrixData::npos) return Info::kNoValue;
  cast_value(out_type, out, snap->type, snap->vals.at(pos));
  return Info::kSuccess;
}

Info Matrix::extract_tuples(Index* row_indices, Index* col_indices,
                            void* values, Index* n,
                            const Type* value_type) {
  if (n == nullptr) return Info::kNullPointer;
  if (values != nullptr && value_type == nullptr) return Info::kNullPointer;
  if (values != nullptr && !types_compatible(value_type, type_))
    return Info::kDomainMismatch;
  std::shared_ptr<const MatrixData> snap;
  GRB_RETURN_IF_ERROR(snapshot(&snap));
  if (*n < snap->nvals()) return Info::kInsufficientSpace;
  *n = snap->nvals();
  CastFn cast = values != nullptr ? cast_fn(value_type, snap->type) : nullptr;
  size_t k = 0;
  for (Index r = 0; r < snap->nrows; ++r) {
    for (size_t p = snap->ptr[r]; p < snap->ptr[r + 1]; ++p, ++k) {
      if (row_indices != nullptr) row_indices[k] = r;
      if (col_indices != nullptr) col_indices[k] = snap->col[p];
      if (values != nullptr) {
        auto* dst = static_cast<std::byte*>(values) + k * value_type->size();
        if (cast != nullptr) {
          cast(dst, snap->vals.at(p));
        } else {
          std::memcpy(dst, snap->vals.at(p), snap->type->size());
        }
      }
    }
  }
  return Info::kSuccess;
}

}  // namespace grb
