// Import/export (paper §VII.A / Table III): per-format round-trips
// following the exportSize -> allocate -> export protocol, plus the
// format-definition details Table III pins down.
#include <gtest/gtest.h>

#include <limits>

#include "tests/grb_test_util.hpp"

namespace {

struct FormatCase {
  const char* name;
  GrB_Format format;
};

// Print the case by name: gtest otherwise dumps the raw bytes, pointers
// included, into the listed test name, which then changes with every build.
void PrintTo(const FormatCase& c, std::ostream* os) { *os << c.name; }

class FormatSweep : public ::testing::TestWithParam<FormatCase> {};

TEST_P(FormatSweep, MatrixRoundTrip) {
  GrB_Format fmt = GetParam().format;
  for (uint64_t seed : {1u, 2u, 3u}) {
    ref::Mat rm = testutil::random_mat(23, 17, 0.3, seed);
    GrB_Matrix a = testutil::make_matrix(rm);
    GrB_Index np, ni, nv;
    ASSERT_EQ(GrB_Matrix_exportSize(&np, &ni, &nv, fmt, a), GrB_SUCCESS);
    std::vector<GrB_Index> indptr(np), indices(ni);
    std::vector<double> values(nv);
    ASSERT_EQ(GrB_Matrix_export(indptr.data(), indices.data(),
                                values.data(), fmt, a),
              GrB_SUCCESS);
    GrB_Matrix back = nullptr;
    ASSERT_EQ(GrB_Matrix_import(&back, GrB_FP64, 23, 17, indptr.data(),
                                indices.data(), values.data(), np, ni, nv,
                                fmt),
              GrB_SUCCESS);
    if (fmt == GrB_DENSE_ROW_MATRIX || fmt == GrB_DENSE_COL_MATRIX) {
      // Dense round-trips materialize absent entries as 0.
      ref::Mat want(23, 17);
      for (GrB_Index i = 0; i < 23; ++i)
        for (GrB_Index j = 0; j < 17; ++j)
          want.at(i, j) = rm.at(i, j).value_or(0.0);
      EXPECT_MATRIX_EQ(back, want);
    } else {
      EXPECT_MATRIX_EQ(back, rm);
    }
    GrB_free(&a);
    GrB_free(&back);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMatrixFormats, FormatSweep,
    ::testing::Values(FormatCase{"CSR", GrB_CSR_MATRIX},
                      FormatCase{"CSC", GrB_CSC_MATRIX},
                      FormatCase{"COO", GrB_COO_MATRIX},
                      FormatCase{"DenseRow", GrB_DENSE_ROW_MATRIX},
                      FormatCase{"DenseCol", GrB_DENSE_COL_MATRIX}),
    [](const ::testing::TestParamInfo<FormatCase>& info) {
      return info.param.name;
    });

TEST(ImportExportTest, CsrLayoutIsExactlyTableIII) {
  // 2x3 matrix with entries (0,1)=5, (1,0)=7, (1,2)=9.
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 2, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 5.0, 0, 1), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 7.0, 1, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 9.0, 1, 2), GrB_SUCCESS);
  GrB_Index indptr[3], indices[3];
  double values[3];
  ASSERT_EQ(GrB_Matrix_export(indptr, indices, values, GrB_CSR_MATRIX, a),
            GrB_SUCCESS);
  EXPECT_EQ(indptr[0], 0u);
  EXPECT_EQ(indptr[1], 1u);
  EXPECT_EQ(indptr[2], 3u);
  EXPECT_EQ(indices[0], 1u);  // column indices
  EXPECT_EQ(indices[1], 0u);
  EXPECT_EQ(indices[2], 2u);
  EXPECT_EQ(values[0], 5.0);
  EXPECT_EQ(values[1], 7.0);
  EXPECT_EQ(values[2], 9.0);
  GrB_free(&a);
}

TEST(ImportExportTest, CooUsesTableIIIParameterNaming) {
  // Table III (quirk followed verbatim): for GrB_COO_MATRIX `indptr`
  // holds COLUMN indices and `indices` holds ROW indices.
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 3, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 4.0, 2, 1), GrB_SUCCESS);
  GrB_Index indptr[1], indices[1];
  double values[1];
  ASSERT_EQ(GrB_Matrix_export(indptr, indices, values, GrB_COO_MATRIX, a),
            GrB_SUCCESS);
  EXPECT_EQ(indices[0], 2u);  // row
  EXPECT_EQ(indptr[0], 1u);   // column
  EXPECT_EQ(values[0], 4.0);
  GrB_free(&a);
}

TEST(ImportExportTest, CsrImportSortsUnsortedRows) {
  // Table III: "elements of each row are not required to be sorted".
  GrB_Index indptr[] = {0, 3};
  GrB_Index indices[] = {2, 0, 1};
  double values[] = {20.0, 0.5, 1.5};
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_import(&a, GrB_FP64, 1, 3, indptr, indices, values,
                              2, 3, 3, GrB_CSR_MATRIX),
            GrB_SUCCESS);
  double out = 0;
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 0, 0), GrB_SUCCESS);
  EXPECT_EQ(out, 0.5);
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 0, 2), GrB_SUCCESS);
  EXPECT_EQ(out, 20.0);
  GrB_free(&a);
}

TEST(ImportExportTest, DenseLayouts) {
  // DENSE_ROW: (i,j) at i*ncols + j; DENSE_COL: (i,j) at i + j*nrows.
  double row_major[] = {1, 2, 3, 4, 5, 6};  // 2x3
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_import(&a, GrB_FP64, 2, 3, nullptr, nullptr,
                              row_major, 0, 0, 6, GrB_DENSE_ROW_MATRIX),
            GrB_SUCCESS);
  double out = 0;
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 1, 2), GrB_SUCCESS);
  EXPECT_EQ(out, 6.0);
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 0, 1), GrB_SUCCESS);
  EXPECT_EQ(out, 2.0);
  GrB_free(&a);
  ASSERT_EQ(GrB_Matrix_import(&a, GrB_FP64, 2, 3, nullptr, nullptr,
                              row_major, 0, 0, 6, GrB_DENSE_COL_MATRIX),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 1, 2), GrB_SUCCESS);
  EXPECT_EQ(out, 6.0);  // col-major: (1,2) at 1 + 2*2 = 5
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 0, 1), GrB_SUCCESS);
  EXPECT_EQ(out, 3.0);  // (0,1) at 0 + 1*2 = 2
  GrB_free(&a);
}

TEST(ImportExportTest, VectorSparseAndDense) {
  ref::Vec rv = testutil::random_vec(31, 0.4, 9);
  GrB_Vector v = testutil::make_vector(rv);
  for (GrB_Format fmt : {GrB_SPARSE_VECTOR, GrB_DENSE_VECTOR}) {
    GrB_Index ni, nv;
    ASSERT_EQ(GrB_Vector_exportSize(&ni, &nv, fmt, v), GrB_SUCCESS);
    std::vector<GrB_Index> indices(ni);
    std::vector<double> values(nv);
    ASSERT_EQ(GrB_Vector_export(indices.data(), values.data(), fmt, v),
              GrB_SUCCESS);
    GrB_Vector back = nullptr;
    ASSERT_EQ(GrB_Vector_import(&back, GrB_FP64, 31, indices.data(),
                                values.data(), ni, nv, fmt),
              GrB_SUCCESS);
    if (fmt == GrB_SPARSE_VECTOR) {
      EXPECT_VECTOR_EQ(back, rv);
    } else {
      ref::Vec want(31);
      for (GrB_Index i = 0; i < 31; ++i) want.at(i) = rv.at(i).value_or(0.0);
      EXPECT_VECTOR_EQ(back, want);
    }
    GrB_free(&back);
  }
  GrB_free(&v);
}

TEST(ImportExportTest, ExportHints) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 4, 4), GrB_SUCCESS);
  GrB_Format hint;
  ASSERT_EQ(GrB_Matrix_exportHint(&hint, a), GrB_SUCCESS);
  EXPECT_EQ(hint, GrB_CSR_MATRIX);
  GrB_free(&a);
  // Vector hint flips with density.
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 10), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 1.0, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_exportHint(&hint, v), GrB_SUCCESS);
  EXPECT_EQ(hint, GrB_SPARSE_VECTOR);
  for (GrB_Index i = 0; i < 10; ++i)
    ASSERT_EQ(GrB_Vector_setElement(v, 1.0, i), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_exportHint(&hint, v), GrB_SUCCESS);
  EXPECT_EQ(hint, GrB_DENSE_VECTOR);
  GrB_free(&v);
}

TEST(ImportExportTest, ImportValidation) {
  GrB_Matrix a = nullptr;
  GrB_Index indptr[] = {0, 2, 1};  // non-monotone
  GrB_Index indices[] = {0, 1};
  double values[] = {1, 2};
  EXPECT_EQ(GrB_Matrix_import(&a, GrB_FP64, 2, 2, indptr, indices, values,
                              3, 2, 2, GrB_CSR_MATRIX),
            GrB_INVALID_VALUE);
  GrB_Index bad_col[] = {0, 9};
  GrB_Index ok_ptr[] = {0, 1, 2};
  EXPECT_EQ(GrB_Matrix_import(&a, GrB_FP64, 2, 2, ok_ptr, bad_col, values,
                              3, 2, 2, GrB_CSR_MATRIX),
            GrB_INVALID_INDEX);
  // Duplicate COO coordinates are rejected.
  GrB_Index rows2[] = {1, 1};
  GrB_Index cols2[] = {1, 1};
  EXPECT_EQ(GrB_Matrix_import(&a, GrB_FP64, 2, 2, cols2, rows2, values, 2,
                              2, 2, GrB_COO_MATRIX),
            GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_Matrix_import(nullptr, GrB_FP64, 2, 2, ok_ptr, indices,
                              values, 3, 2, 2, GrB_CSR_MATRIX),
            GrB_NULL_POINTER);
}

TEST(ImportExportTest, ImportCopiesTheArrays) {
  // The paper's import constructs a NEW object from user data; mutating
  // the user arrays afterwards must not affect the matrix.
  GrB_Index indptr[] = {0, 1};
  GrB_Index indices[] = {0};
  double values[] = {42.0};
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_import(&a, GrB_FP64, 1, 1, indptr, indices, values,
                              2, 1, 1, GrB_CSR_MATRIX),
            GrB_SUCCESS);
  values[0] = -1.0;
  indices[0] = 99;
  double out = 0;
  EXPECT_EQ(GrB_Matrix_extractElement(&out, a, 0, 0), GrB_SUCCESS);
  EXPECT_EQ(out, 42.0);
  GrB_free(&a);
}

// Hostile import input is rejected before any of it is used: each case
// returns GrB_INVALID_VALUE and leaves the output handle untouched.
TEST(ImportExportTest, CscPointerPastTheEndIsRejected) {
  // Column 0 claims entries [0, 5) but indptr[ncols] says 2: the fill
  // must not run before the whole pointer array is checked.
  GrB_Index indptr[] = {0, 5, 1, 2};
  GrB_Index indices[] = {0, 1};
  double values[] = {1, 2};
  GrB_Matrix a = nullptr;
  EXPECT_EQ(GrB_Matrix_import(&a, GrB_FP64, 3, 3, indptr, indices, values,
                              4, 2, 2, GrB_CSC_MATRIX),
            GrB_INVALID_VALUE);
  EXPECT_EQ(a, nullptr);
}

TEST(ImportExportTest, NonzeroFirstPointerIsRejected) {
  GrB_Index indptr[] = {1, 1, 2};
  GrB_Index indices[] = {0, 1};
  double values[] = {1, 2};
  for (GrB_Format format : {GrB_CSR_MATRIX, GrB_CSC_MATRIX}) {
    GrB_Matrix a = nullptr;
    EXPECT_EQ(GrB_Matrix_import(&a, GrB_FP64, 2, 2, indptr, indices, values,
                                3, 2, 2, format),
              GrB_INVALID_VALUE)
        << "format " << static_cast<int>(format);
    EXPECT_EQ(a, nullptr);
  }
}

TEST(ImportExportTest, PointerLengthWrapIsRejected) {
  // nrows + 1 (CSR) or ncols + 1 (CSC) wraps to 0 at UINT64_MAX, which
  // would match an empty indptr.
  const GrB_Index huge = std::numeric_limits<GrB_Index>::max();
  GrB_Index indptr[] = {0};
  GrB_Matrix a = nullptr;
  EXPECT_EQ(GrB_Matrix_import(&a, GrB_FP64, huge, 2, indptr, nullptr,
                              nullptr, 0, 0, 0, GrB_CSR_MATRIX),
            GrB_INVALID_VALUE);
  EXPECT_EQ(GrB_Matrix_import(&a, GrB_FP64, 2, huge, indptr, nullptr,
                              nullptr, 0, 0, 0, GrB_CSC_MATRIX),
            GrB_INVALID_VALUE);
  EXPECT_EQ(a, nullptr);
}

TEST(ImportExportTest, DenseCellCountOverflowIsRejected) {
  // 32 * 2^60 cells wraps to 0 in 64 bits, so an empty value array would
  // look large enough.
  const GrB_Index ncols = GrB_INDEX_MAX;
  double values[] = {1};
  for (GrB_Format format : {GrB_DENSE_ROW_MATRIX, GrB_DENSE_COL_MATRIX}) {
    GrB_Matrix a = nullptr;
    EXPECT_EQ(GrB_Matrix_import(&a, GrB_FP64, 32, ncols, nullptr, nullptr,
                                values, 0, 0, 1, format),
              GrB_INVALID_VALUE)
        << "format " << static_cast<int>(format);
    EXPECT_EQ(a, nullptr);
  }
}

TEST(ImportExportTest, VectorSizeAboveIndexMaxIsRejected) {
  // The claimed value length matches n, so only the bound stops the
  // dense branch from sizing its arrays from n.
  const GrB_Index huge = GrB_INDEX_MAX + 1;
  double values[] = {1};
  for (GrB_Format format : {GrB_SPARSE_VECTOR, GrB_DENSE_VECTOR}) {
    GrB_Vector v = nullptr;
    const GrB_Index values_len = format == GrB_DENSE_VECTOR ? huge : 0;
    EXPECT_EQ(GrB_Vector_import(&v, GrB_FP64, huge, nullptr, values, 0,
                                values_len, format),
              GrB_INVALID_VALUE)
        << "format " << static_cast<int>(format);
    EXPECT_EQ(v, nullptr);
  }
}

TEST(ImportExportTest, DenseVectorByteCountOverflowIsRejected) {
  // 2^60 values of 32 bytes each is 2^65 bytes: n * type size wraps.
  GrB_Type wide = nullptr;
  ASSERT_EQ(GrB_Type_new(&wide, 32), GrB_SUCCESS);
  unsigned char values[32] = {};
  GrB_Vector v = nullptr;
  EXPECT_EQ(GrB_Vector_import(&v, wide, GrB_INDEX_MAX, nullptr, values, 0,
                              GrB_INDEX_MAX, GrB_DENSE_VECTOR),
            GrB_INVALID_VALUE);
  EXPECT_EQ(v, nullptr);
  GrB_free(&wide);
}

}  // namespace
