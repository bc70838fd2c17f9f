#include "io/import_export.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace grb {
namespace {

bool is_matrix_format(Format f) {
  return f == Format::kCsrMatrix || f == Format::kCscMatrix ||
         f == Format::kCooMatrix || f == Format::kDenseRowMatrix ||
         f == Format::kDenseColMatrix;
}

bool is_vector_format(Format f) {
  return f == Format::kSparseVector || f == Format::kDenseVector;
}

// Sorts the column indices (and values) of each CSR row in place.
void sort_rows(MatrixData& m) {
  size_t sz = m.type->size();
  std::vector<size_t> order;
  std::vector<Index> tmp_col;
  std::vector<std::byte> tmp_val;
  for (Index r = 0; r < m.nrows; ++r) {
    size_t lo = m.ptr[r], hi = m.ptr[r + 1];
    if (hi - lo < 2) continue;
    bool sorted = true;
    for (size_t k = lo + 1; k < hi; ++k)
      if (m.col[k] < m.col[k - 1]) {
        sorted = false;
        break;
      }
    if (sorted) continue;
    order.resize(hi - lo);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return m.col[lo + a] < m.col[lo + b];
    });
    tmp_col.assign(m.col.begin() + lo, m.col.begin() + hi);
    tmp_val.resize((hi - lo) * sz);
    std::memcpy(tmp_val.data(), m.vals.at(lo), (hi - lo) * sz);
    for (size_t k = 0; k < order.size(); ++k) {
      m.col[lo + k] = tmp_col[order[k]];
      std::memcpy(m.vals.at(lo + k), tmp_val.data() + order[k] * sz, sz);
    }
  }
}

// A compressed pointer array over n rows (CSR) or columns (CSC) must
// start at 0 and never decrease; then indptr[n] bounds every segment.
Info check_indptr(const Index* indptr, Index n) {
  if (indptr[0] != 0) return Info::kInvalidValue;
  for (Index k = 0; k < n; ++k)
    if (indptr[k] > indptr[k + 1]) return Info::kInvalidValue;
  return Info::kSuccess;
}

Info build_from_coo(MatrixData& m, const Index* ri, const Index* ci,
                    const void* values, Index nvals) {
  size_t sz = m.type->size();
  for (Index k = 0; k < nvals; ++k)
    if (ri[k] >= m.nrows || ci[k] >= m.ncols) return Info::kInvalidIndex;
  std::vector<size_t> order(nvals);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ri[a] != ri[b] ? ri[a] < ri[b] : ci[a] < ci[b];
  });
  const auto* src = static_cast<const std::byte*>(values);
  m.col.resize(nvals);
  m.vals.resize(nvals);
  for (Index k = 0; k < nvals; ++k) {
    m.ptr[ri[order[k]] + 1] += 1;
    m.col[k] = ci[order[k]];
    std::memcpy(m.vals.at(k), src + order[k] * sz, sz);
  }
  for (Index r = 0; r < m.nrows; ++r) m.ptr[r + 1] += m.ptr[r];
  // Duplicate coordinates are invalid for import (no dup operator).
  for (Index r = 0; r < m.nrows; ++r)
    for (size_t k = m.ptr[r] + 1; k < m.ptr[r + 1]; ++k)
      if (m.col[k] == m.col[k - 1]) return Info::kInvalidValue;
  return Info::kSuccess;
}

}  // namespace

Info matrix_import(Matrix** a, const Type* type, Index nrows, Index ncols,
                   const Index* indptr, const Index* indices,
                   const void* values, Index indptr_len, Index indices_len,
                   Index values_len, Format format, Context* ctx) {
  if (a == nullptr || type == nullptr) return Info::kNullPointer;
  if (!is_matrix_format(format)) return Info::kInvalidValue;
  // The GrB_Matrix_new bound, checked before anything is sized from the
  // dimensions; it also keeps nrows + 1 and ncols + 1 from wrapping.
  if (nrows > kIndexMax || ncols > kIndexMax) return Info::kInvalidValue;
  size_t sz = type->size();
  auto data = std::make_shared<MatrixData>(type, nrows, ncols);

  switch (format) {
    case Format::kCsrMatrix: {
      if (indptr == nullptr || (values == nullptr && values_len > 0))
        return Info::kNullPointer;
      if (indptr_len != nrows + 1) return Info::kInvalidValue;
      GRB_RETURN_IF_ERROR(check_indptr(indptr, nrows));
      Index nvals = indptr[nrows];
      if (nvals > 0 && (indices == nullptr || values == nullptr))
        return Info::kNullPointer;
      if (indices_len < nvals || values_len < nvals)
        return Info::kInvalidValue;
      for (Index k = 0; k < nvals; ++k)
        if (indices[k] >= ncols) return Info::kInvalidIndex;
      data->ptr.assign(indptr, indptr + nrows + 1);
      data->col.assign(indices, indices + nvals);
      data->vals.resize(nvals);
      if (nvals > 0) std::memcpy(data->vals.data(), values, nvals * sz);
      sort_rows(*data);
      break;
    }
    case Format::kCscMatrix: {
      if (indptr == nullptr) return Info::kNullPointer;
      if (indptr_len != ncols + 1) return Info::kInvalidValue;
      // The whole of indptr is checked before the fill below writes
      // through it: every column then lies inside [0, nvals).
      GRB_RETURN_IF_ERROR(check_indptr(indptr, ncols));
      Index nvals = indptr[ncols];
      if (nvals > 0 && (indices == nullptr || values == nullptr))
        return Info::kNullPointer;
      if (indices_len < nvals || values_len < nvals)
        return Info::kInvalidValue;
      // Expand CSC to COO (row = indices[k], col = containing column).
      std::vector<Index> ri(nvals), ci(nvals);
      for (Index c = 0; c < ncols; ++c) {
        for (Index k = indptr[c]; k < indptr[c + 1]; ++k) {
          ri[k] = indices[k];
          ci[k] = c;
        }
      }
      GRB_RETURN_IF_ERROR(
          build_from_coo(*data, ri.data(), ci.data(), values, nvals));
      break;
    }
    case Format::kCooMatrix: {
      // Table III: indptr = column indices, indices = row indices.
      Index nvals = values_len;
      if (nvals > 0 &&
          (indptr == nullptr || indices == nullptr || values == nullptr))
        return Info::kNullPointer;
      if (indptr_len != nvals || indices_len != nvals)
        return Info::kInvalidValue;
      GRB_RETURN_IF_ERROR(
          build_from_coo(*data, indices, indptr, values, nvals));
      break;
    }
    case Format::kDenseRowMatrix:
    case Format::kDenseColMatrix: {
      if (ncols != 0 && nrows > std::numeric_limits<Index>::max() / ncols)
        return Info::kInvalidValue;  // nrows * ncols overflows
      const Index cells = nrows * ncols;
      if (values == nullptr && cells > 0) return Info::kNullPointer;
      if (values_len < cells) return Info::kInvalidValue;
      const auto* src = static_cast<const std::byte*>(values);
      data->col.resize(cells);
      data->vals.resize(cells);
      size_t w = 0;
      for (Index r = 0; r < nrows; ++r) {
        for (Index c = 0; c < ncols; ++c, ++w) {
          data->col[w] = c;
          size_t off = format == Format::kDenseRowMatrix
                           ? (static_cast<size_t>(r) * ncols + c)
                           : (static_cast<size_t>(c) * nrows + r);
          std::memcpy(data->vals.at(w), src + off * sz, sz);
        }
        data->ptr[r + 1] = w;
      }
      break;
    }
    default:
      return Info::kInvalidValue;
  }

  Matrix* out = nullptr;
  GRB_RETURN_IF_ERROR(Matrix::new_(&out, type, nrows, ncols, ctx));
  out->publish(std::move(data));
  *a = out;
  return Info::kSuccess;
}

Info matrix_export_size(Index* indptr_len, Index* indices_len,
                        Index* values_len, Format format, const Matrix* a) {
  if (indptr_len == nullptr || indices_len == nullptr ||
      values_len == nullptr)
    return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(validate_objects({a}));
  if (!is_matrix_format(format)) return Info::kInvalidValue;
  Index nvals = 0;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->nvals(&nvals));
  switch (format) {
    case Format::kCsrMatrix:
      *indptr_len = a->nrows() + 1;
      *indices_len = nvals;
      *values_len = nvals;
      break;
    case Format::kCscMatrix:
      *indptr_len = a->ncols() + 1;
      *indices_len = nvals;
      *values_len = nvals;
      break;
    case Format::kCooMatrix:
      *indptr_len = nvals;
      *indices_len = nvals;
      *values_len = nvals;
      break;
    case Format::kDenseRowMatrix:
    case Format::kDenseColMatrix:
      *indptr_len = 0;
      *indices_len = 0;
      *values_len = a->nrows() * a->ncols();
      break;
    default:
      return Info::kInvalidValue;
  }
  return Info::kSuccess;
}

Info matrix_export(Index* indptr, Index* indices, void* values,
                   Format format, const Matrix* a) {
  GRB_RETURN_IF_ERROR(validate_objects({a}));
  if (!is_matrix_format(format)) return Info::kInvalidValue;
  std::shared_ptr<const MatrixData> snap;
  GRB_RETURN_IF_ERROR(const_cast<Matrix*>(a)->snapshot(&snap));
  size_t sz = snap->type->size();
  Index nvals = snap->nvals();
  switch (format) {
    case Format::kCsrMatrix: {
      if (indptr == nullptr ||
          (nvals > 0 && (indices == nullptr || values == nullptr)))
        return Info::kNullPointer;
      std::copy(snap->ptr.begin(), snap->ptr.end(), indptr);
      std::copy(snap->col.begin(), snap->col.end(), indices);
      if (nvals > 0) std::memcpy(values, snap->vals.data(), nvals * sz);
      break;
    }
    case Format::kCscMatrix: {
      if (indptr == nullptr ||
          (nvals > 0 && (indices == nullptr || values == nullptr)))
        return Info::kNullPointer;
      auto t = format_transpose_view(snap);  // CSC of A == CSR of A'
      std::copy(t->ptr.begin(), t->ptr.end(), indptr);
      std::copy(t->col.begin(), t->col.end(), indices);
      if (nvals > 0) std::memcpy(values, t->vals.data(), nvals * sz);
      break;
    }
    case Format::kCooMatrix: {
      if (nvals > 0 &&
          (indptr == nullptr || indices == nullptr || values == nullptr))
        return Info::kNullPointer;
      size_t w = 0;
      for (Index r = 0; r < snap->nrows; ++r) {
        for (size_t k = snap->ptr[r]; k < snap->ptr[r + 1]; ++k, ++w) {
          indices[w] = r;            // rows in `indices` (Table III)
          indptr[w] = snap->col[k];  // cols in `indptr` (Table III)
        }
      }
      if (nvals > 0) std::memcpy(values, snap->vals.data(), nvals * sz);
      break;
    }
    case Format::kDenseRowMatrix:
    case Format::kDenseColMatrix: {
      if (values == nullptr && snap->nrows * snap->ncols > 0)
        return Info::kNullPointer;
      auto* dst = static_cast<std::byte*>(values);
      std::memset(dst, 0,
                  static_cast<size_t>(snap->nrows) * snap->ncols * sz);
      for (Index r = 0; r < snap->nrows; ++r) {
        for (size_t k = snap->ptr[r]; k < snap->ptr[r + 1]; ++k) {
          Index c = snap->col[k];
          size_t off = format == Format::kDenseRowMatrix
                           ? (static_cast<size_t>(r) * snap->ncols + c)
                           : (static_cast<size_t>(c) * snap->nrows + r);
          std::memcpy(dst + off * sz, snap->vals.at(k), sz);
        }
      }
      break;
    }
    default:
      return Info::kInvalidValue;
  }
  return Info::kSuccess;
}

Info matrix_export_hint(Format* format, const Matrix* a) {
  if (format == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(validate_objects({a}));
  *format = Format::kCsrMatrix;  // internal storage is CSR
  return Info::kSuccess;
}

Info vector_import(Vector** v, const Type* type, Index n,
                   const Index* indices, const void* values,
                   Index indices_len, Index values_len, Format format,
                   Context* ctx) {
  if (v == nullptr || type == nullptr) return Info::kNullPointer;
  if (!is_vector_format(format)) return Info::kInvalidValue;
  // The GrB_Vector_new bound, checked before anything is sized from n.
  if (n > kIndexMax) return Info::kInvalidValue;
  size_t sz = type->size();
  auto data = std::make_shared<VectorData>(type, n);
  if (format == Format::kSparseVector) {
    Index nvals = values_len;
    if (nvals > 0 && (indices == nullptr || values == nullptr))
      return Info::kNullPointer;
    if (indices_len != nvals) return Info::kInvalidValue;
    for (Index k = 0; k < nvals; ++k)
      if (indices[k] >= n) return Info::kInvalidIndex;
    std::vector<size_t> order(nvals);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return indices[a] < indices[b]; });
    const auto* src = static_cast<const std::byte*>(values);
    data->ind.resize(nvals);
    data->vals.resize(nvals);
    for (Index k = 0; k < nvals; ++k) {
      data->ind[k] = indices[order[k]];
      if (k > 0 && data->ind[k] == data->ind[k - 1])
        return Info::kInvalidValue;  // duplicates invalid on import
      std::memcpy(data->vals.at(k), src + order[k] * sz, sz);
    }
  } else {  // kDenseVector
    if (sz != 0 && n > std::numeric_limits<size_t>::max() / sz)
      return Info::kInvalidValue;  // n * type size overflows
    if (values == nullptr && n > 0) return Info::kNullPointer;
    if (values_len < n) return Info::kInvalidValue;
    data->ind.resize(n);
    data->vals.resize(n);
    std::iota(data->ind.begin(), data->ind.end(), Index{0});
    if (n > 0) std::memcpy(data->vals.data(), values, n * sz);
  }
  Vector* out = nullptr;
  GRB_RETURN_IF_ERROR(Vector::new_(&out, type, n, ctx));
  out->publish(std::move(data));
  *v = out;
  return Info::kSuccess;
}

Info vector_export_size(Index* indices_len, Index* values_len, Format format,
                        const Vector* v) {
  if (indices_len == nullptr || values_len == nullptr)
    return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(validate_objects({v}));
  if (!is_vector_format(format)) return Info::kInvalidValue;
  Index nvals = 0;
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(v)->nvals(&nvals));
  if (format == Format::kSparseVector) {
    *indices_len = nvals;
    *values_len = nvals;
  } else {
    *indices_len = 0;
    *values_len = v->size();
  }
  return Info::kSuccess;
}

Info vector_export(Index* indices, void* values, Format format,
                   const Vector* v) {
  GRB_RETURN_IF_ERROR(validate_objects({v}));
  if (!is_vector_format(format)) return Info::kInvalidValue;
  std::shared_ptr<const VectorData> snap;
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(v)->snapshot(&snap));
  size_t sz = snap->type->size();
  if (format == Format::kSparseVector) {
    Index nvals = snap->nvals();
    if (nvals > 0 && (indices == nullptr || values == nullptr))
      return Info::kNullPointer;
    std::copy(snap->ind.begin(), snap->ind.end(), indices);
    if (nvals > 0) std::memcpy(values, snap->vals.data(), nvals * sz);
  } else {
    if (values == nullptr && snap->n > 0) return Info::kNullPointer;
    auto* dst = static_cast<std::byte*>(values);
    std::memset(dst, 0, static_cast<size_t>(snap->n) * sz);
    for (size_t k = 0; k < snap->ind.size(); ++k)
      std::memcpy(dst + static_cast<size_t>(snap->ind[k]) * sz,
                  snap->vals.at(k), sz);
  }
  return Info::kSuccess;
}

Info vector_export_hint(Format* format, const Vector* v) {
  if (format == nullptr) return Info::kNullPointer;
  GRB_RETURN_IF_ERROR(validate_objects({v}));
  // Heuristic mirroring the paper's intent: suggest the cheaper format.
  Index nvals = 0;
  GRB_RETURN_IF_ERROR(const_cast<Vector*>(v)->nvals(&nvals));
  *format = (nvals * 2 >= v->size()) ? Format::kDenseVector
                                     : Format::kSparseVector;
  return Info::kSuccess;
}

}  // namespace grb
