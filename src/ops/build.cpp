// GrB_Vector_build / GrB_Matrix_build.
//
// Duplicate handling follows GraphBLAS 2.0 (paper §IX): the `dup`
// operator is now OPTIONAL.  When dup == NULL, the presence of duplicate
// coordinates is treated as an execution error (kInvalidValue), reported
// immediately in blocking mode or at completion in nonblocking mode.
// Out-of-range coordinates are the execution error kIndexOutOfBounds.
// A count above kIndexMax is the API error kInvalidValue.

#include <algorithm>
#include <numeric>

#include "core/binary_op.hpp"
#include "containers/matrix.hpp"
#include "containers/vector.hpp"

namespace grb {
namespace {

// Copies the caller's n indices.  reserve() throws std::length_error for
// a count above max_size() (GrB_INDEX_MAX is one) before `indices + n`
// is formed, which at such a count would overflow the pointer; the
// veneer maps the throw to GrB_OUT_OF_MEMORY.
std::vector<Index> copy_indices(const Index* indices, Index n) {
  std::vector<Index> out;
  out.reserve(n);
  out.assign(indices, indices + n);
  return out;
}

// Applies dup left-to-right over a run of values with identical
// coordinates, in their input order: acc = dup(acc, next).
// All values are already in the container's domain T.
void reduce_run(const BinaryOp* dup, const Type* t, const ValueArray& vals,
                const std::vector<size_t>& order, size_t lo, size_t hi,
                void* out, ValueBuf& in_x, ValueBuf& in_y) {
  cast_value(t, out, t, vals.at(order[lo]));
  CastFn to_x = cast_fn(dup->xtype(), t);
  CastFn to_y = cast_fn(dup->ytype(), t);
  CastFn from_z = cast_fn(t, dup->ztype());
  ValueBuf z(dup->ztype()->size());
  for (size_t k = lo + 1; k < hi; ++k) {
    // Cast current accumulator and the next value into the op domains.
    if (to_x != nullptr) {
      to_x(in_x.data(), out);
    } else {
      std::memcpy(in_x.data(), out, t->size());
    }
    if (to_y != nullptr) {
      to_y(in_y.data(), vals.at(order[k]));
    } else {
      std::memcpy(in_y.data(), vals.at(order[k]), t->size());
    }
    dup->apply(z.data(), in_x.data(), in_y.data());
    if (from_z != nullptr) {
      from_z(out, z.data());
    } else {
      std::memcpy(out, z.data(), t->size());
    }
  }
}

}  // namespace

Info Vector::build(const Index* indices, const void* values, Index nvals,
                   const BinaryOp* dup, const Type* value_type) {
  GRB_RETURN_IF_ERROR(pending_error());
  if (nvals > 0 && (indices == nullptr || values == nullptr))
    return Info::kNullPointer;
  // Checked before the copy below: a larger count wraps `indices + nvals`
  // and the byte size of the value array.
  if (nvals > kIndexMax) return Info::kInvalidValue;
  if (value_type == nullptr) return Info::kNullPointer;
  if (!types_compatible(type_, value_type)) return Info::kDomainMismatch;
  if (dup != nullptr) {
    if (!types_compatible(dup->xtype(), type_) ||
        !types_compatible(dup->ytype(), type_) ||
        !types_compatible(type_, dup->ztype()))
      return Info::kDomainMismatch;
  }
  // "Output not empty" is an API error and must be checked eagerly, which
  // requires resolving this object's own pending state.
  Index cur_nvals = 0;
  GRB_RETURN_IF_ERROR(this->nvals(&cur_nvals));
  if (cur_nvals != 0) return Info::kOutputNotEmpty;
  Index n = size();

  // Capture the caller's arrays: build's inputs need not outlive the call.
  std::vector<Index> ind = copy_indices(indices, nvals);
  ValueArray vals(type_->size());
  vals.reserve(nvals);
  {
    CastFn cast = cast_fn(type_, value_type);
    ValueBuf tmp(type_->size());
    const auto* src = static_cast<const std::byte*>(values);
    for (Index k = 0; k < nvals; ++k) {
      const void* s = src + k * value_type->size();
      if (cast != nullptr) {
        cast(tmp.data(), s);
        vals.push_back(tmp.data());
      } else {
        vals.push_back(s);
      }
    }
  }

  auto op = [this, n, ind = std::move(ind), vals = std::move(vals),
             dup]() -> Info {
    for (Index i : ind)
      if (i >= n) return Info::kIndexOutOfBounds;
    std::vector<size_t> order(ind.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return ind[a] < ind[b]; });
    auto out = std::make_shared<VectorData>(type_, n);
    ValueBuf acc(type_->size());
    ValueBuf in_x(dup != nullptr ? dup->xtype()->size() : type_->size());
    ValueBuf in_y(dup != nullptr ? dup->ytype()->size() : type_->size());
    size_t k = 0;
    while (k < order.size()) {
      size_t run_end = k + 1;
      while (run_end < order.size() && ind[order[run_end]] == ind[order[k]])
        ++run_end;
      if (run_end - k > 1 && dup == nullptr) return Info::kInvalidValue;
      if (dup == nullptr) {
        out->ind.push_back(ind[order[k]]);
        out->vals.push_back(vals.at(order[k]));
      } else {
        reduce_run(dup, type_, vals, order, k, run_end, acc.data(), in_x,
                   in_y);
        out->ind.push_back(ind[order[k]]);
        out->vals.push_back(acc.data());
      }
      k = run_end;
    }
    publish(std::move(out));
    return Info::kSuccess;
  };
  return defer_or_run(this, std::move(op));
}

Info Matrix::build(const Index* row_indices, const Index* col_indices,
                   const void* values, Index nvals, const BinaryOp* dup,
                   const Type* value_type) {
  GRB_RETURN_IF_ERROR(pending_error());
  if (nvals > 0 && (row_indices == nullptr || col_indices == nullptr ||
                    values == nullptr))
    return Info::kNullPointer;
  if (nvals > kIndexMax) return Info::kInvalidValue;  // see Vector::build
  if (value_type == nullptr) return Info::kNullPointer;
  if (!types_compatible(type_, value_type)) return Info::kDomainMismatch;
  if (dup != nullptr) {
    if (!types_compatible(dup->xtype(), type_) ||
        !types_compatible(dup->ytype(), type_) ||
        !types_compatible(type_, dup->ztype()))
      return Info::kDomainMismatch;
  }
  Index cur_nvals = 0;
  GRB_RETURN_IF_ERROR(this->nvals(&cur_nvals));
  if (cur_nvals != 0) return Info::kOutputNotEmpty;
  Index nr = nrows(), nc = ncols();

  std::vector<Index> ri = copy_indices(row_indices, nvals);
  std::vector<Index> ci = copy_indices(col_indices, nvals);
  ValueArray vals(type_->size());
  vals.reserve(nvals);
  {
    CastFn cast = cast_fn(type_, value_type);
    ValueBuf tmp(type_->size());
    const auto* src = static_cast<const std::byte*>(values);
    for (Index k = 0; k < nvals; ++k) {
      const void* s = src + k * value_type->size();
      if (cast != nullptr) {
        cast(tmp.data(), s);
        vals.push_back(tmp.data());
      } else {
        vals.push_back(s);
      }
    }
  }

  auto op = [this, nr, nc, ri = std::move(ri), ci = std::move(ci),
             vals = std::move(vals), dup]() -> Info {
    for (size_t k = 0; k < ri.size(); ++k)
      if (ri[k] >= nr || ci[k] >= nc) return Info::kIndexOutOfBounds;
    std::vector<size_t> order(ri.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return ri[a] != ri[b] ? ri[a] < ri[b] : ci[a] < ci[b];
    });
    auto out = std::make_shared<MatrixData>(type_, nr, nc);
    ValueBuf acc(type_->size());
    ValueBuf in_x(dup != nullptr ? dup->xtype()->size() : type_->size());
    ValueBuf in_y(dup != nullptr ? dup->ytype()->size() : type_->size());
    size_t k = 0;
    while (k < order.size()) {
      size_t run_end = k + 1;
      while (run_end < order.size() && ri[order[run_end]] == ri[order[k]] &&
             ci[order[run_end]] == ci[order[k]])
        ++run_end;
      if (run_end - k > 1 && dup == nullptr) return Info::kInvalidValue;
      Index r = ri[order[k]];
      if (dup == nullptr) {
        cast_value(type_, acc.data(), type_, vals.at(order[k]));
      } else {
        reduce_run(dup, type_, vals, order, k, run_end, acc.data(), in_x,
                   in_y);
      }
      out->col.push_back(ci[order[k]]);
      out->vals.push_back(acc.data());
      out->ptr[r + 1] += 1;  // row counts; prefix-summed below
      k = run_end;
    }
    for (Index r = 0; r < nr; ++r) out->ptr[r + 1] += out->ptr[r];
    publish(std::move(out));
    return Info::kSuccess;
  };
  return defer_or_run(this, std::move(op));
}

}  // namespace grb
