// Serialize/deserialize (paper §VII.B): round-trips, the size protocol,
// UDT payloads, and corruption detection.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "io/mmio.hpp"
#include "tests/grb_test_util.hpp"

namespace {

TEST(SerializeTest, MatrixRoundTrip) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    ref::Mat rm = testutil::random_mat(19, 27, 0.25, seed);
    GrB_Matrix a = testutil::make_matrix(rm);
    GrB_Index size = 0;
    ASSERT_EQ(GrB_Matrix_serializeSize(&size, a), GrB_SUCCESS);
    std::vector<char> buf(size);
    GrB_Index written = size;
    ASSERT_EQ(GrB_Matrix_serialize(buf.data(), &written, a), GrB_SUCCESS);
    EXPECT_EQ(written, size);
    GrB_Matrix back = nullptr;
    ASSERT_EQ(GrB_Matrix_deserialize(&back, GrB_NULL, buf.data(), written),
              GrB_SUCCESS);
    EXPECT_MATRIX_EQ(back, rm);
    GrB_free(&a);
    GrB_free(&back);
  }
}

TEST(SerializeTest, VectorRoundTrip) {
  ref::Vec rv = testutil::random_vec(40, 0.3, 5);
  GrB_Vector v = testutil::make_vector(rv);
  GrB_Index size = 0;
  ASSERT_EQ(GrB_Vector_serializeSize(&size, v), GrB_SUCCESS);
  std::vector<char> buf(size);
  GrB_Index written = size;
  ASSERT_EQ(GrB_Vector_serialize(buf.data(), &written, v), GrB_SUCCESS);
  GrB_Vector back = nullptr;
  ASSERT_EQ(GrB_Vector_deserialize(&back, GrB_NULL, buf.data(), written),
            GrB_SUCCESS);
  EXPECT_VECTOR_EQ(back, rv);
  GrB_free(&v);
  GrB_free(&back);
}

TEST(SerializeTest, EmptyContainers) {
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_INT32, 7, 3), GrB_SUCCESS);
  GrB_Index size = 0;
  ASSERT_EQ(GrB_Matrix_serializeSize(&size, a), GrB_SUCCESS);
  std::vector<char> buf(size);
  GrB_Index written = size;
  ASSERT_EQ(GrB_Matrix_serialize(buf.data(), &written, a), GrB_SUCCESS);
  GrB_Matrix back = nullptr;
  ASSERT_EQ(GrB_Matrix_deserialize(&back, GrB_NULL, buf.data(), written),
            GrB_SUCCESS);
  GrB_Index nr, nc, nv;
  EXPECT_EQ(GrB_Matrix_nrows(&nr, back), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_ncols(&nc, back), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_nvals(&nv, back), GrB_SUCCESS);
  EXPECT_EQ(nr, 7u);
  EXPECT_EQ(nc, 3u);
  EXPECT_EQ(nv, 0u);
  GrB_free(&a);
  GrB_free(&back);
}

TEST(SerializeTest, PreservesType) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_INT16, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, int16_t{-7}, 2), GrB_SUCCESS);
  GrB_Index size = 0;
  ASSERT_EQ(GrB_Vector_serializeSize(&size, v), GrB_SUCCESS);
  std::vector<char> buf(size);
  GrB_Index written = size;
  ASSERT_EQ(GrB_Vector_serialize(buf.data(), &written, v), GrB_SUCCESS);
  GrB_Vector back = nullptr;
  ASSERT_EQ(GrB_Vector_deserialize(&back, GrB_NULL, buf.data(), written),
            GrB_SUCCESS);
  EXPECT_EQ(back->type(), grb::TypeInt16());
  int16_t out = 0;
  EXPECT_EQ(GrB_Vector_extractElement(&out, back, 2), GrB_SUCCESS);
  EXPECT_EQ(out, -7);
  // Deserializing with a mismatched explicit type is a domain error.
  GrB_Vector wrong = nullptr;
  EXPECT_EQ(GrB_Vector_deserialize(&wrong, GrB_FP64, buf.data(), written),
            GrB_DOMAIN_MISMATCH);
  GrB_free(&v);
  GrB_free(&back);
}

TEST(SerializeTest, UdtRequiresCallerType) {
  struct Payload {
    double x;
    int32_t tag;
  };
  GrB_Type t = nullptr;
  ASSERT_EQ(GrB_Type_new(&t, sizeof(Payload)), GrB_SUCCESS);
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, t, 2, 2), GrB_SUCCESS);
  Payload p{2.5, 7};
  ASSERT_EQ(GrB_Matrix_setElement_UDT(a, &p, t, 1, 0), GrB_SUCCESS);
  GrB_Index size = 0;
  ASSERT_EQ(GrB_Matrix_serializeSize(&size, a), GrB_SUCCESS);
  std::vector<char> buf(size);
  GrB_Index written = size;
  ASSERT_EQ(GrB_Matrix_serialize(buf.data(), &written, a), GrB_SUCCESS);
  // Without the type handle the payload is unreadable.
  GrB_Matrix back = nullptr;
  EXPECT_EQ(GrB_Matrix_deserialize(&back, GrB_NULL, buf.data(), written),
            GrB_NULL_POINTER);
  ASSERT_EQ(GrB_Matrix_deserialize(&back, t, buf.data(), written),
            GrB_SUCCESS);
  Payload out{0, 0};
  EXPECT_EQ(GrB_Matrix_extractElement_UDT(&out, t, back, 1, 0),
            GrB_SUCCESS);
  EXPECT_EQ(out.x, 2.5);
  EXPECT_EQ(out.tag, 7);
  GrB_free(&a);
  GrB_free(&back);
  GrB_free(&t);
}

TEST(SerializeTest, InsufficientBuffer) {
  ref::Mat rm = testutil::random_mat(10, 10, 0.5, 6);
  GrB_Matrix a = testutil::make_matrix(rm);
  GrB_Index size = 0;
  ASSERT_EQ(GrB_Matrix_serializeSize(&size, a), GrB_SUCCESS);
  std::vector<char> buf(size);
  GrB_Index too_small = size / 2;
  EXPECT_EQ(GrB_Matrix_serialize(buf.data(), &too_small, a),
            GrB_INSUFFICIENT_SPACE);
  GrB_free(&a);
}

TEST(SerializeTest, CorruptionIsDetected) {
  ref::Mat rm = testutil::random_mat(12, 12, 0.4, 7);
  GrB_Matrix a = testutil::make_matrix(rm);
  GrB_Index size = 0;
  ASSERT_EQ(GrB_Matrix_serializeSize(&size, a), GrB_SUCCESS);
  std::vector<char> buf(size);
  GrB_Index written = size;
  ASSERT_EQ(GrB_Matrix_serialize(buf.data(), &written, a), GrB_SUCCESS);
  GrB_Matrix back = nullptr;
  // Flip a byte in the middle: checksum mismatch.
  buf[written / 2] ^= 0x5a;
  EXPECT_EQ(GrB_Matrix_deserialize(&back, GrB_NULL, buf.data(), written),
            GrB_INVALID_OBJECT);
  buf[written / 2] ^= 0x5a;
  // Truncation is also rejected.
  EXPECT_EQ(GrB_Matrix_deserialize(&back, GrB_NULL, buf.data(),
                                   written - 9),
            GrB_INVALID_OBJECT);
  // A vector payload does not deserialize as a matrix.
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4), GrB_SUCCESS);
  GrB_Index vsize = 0;
  ASSERT_EQ(GrB_Vector_serializeSize(&vsize, v), GrB_SUCCESS);
  std::vector<char> vbuf(vsize);
  GrB_Index vwritten = vsize;
  ASSERT_EQ(GrB_Vector_serialize(vbuf.data(), &vwritten, v), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_deserialize(&back, GrB_NULL, vbuf.data(), vwritten),
            GrB_INVALID_OBJECT);
  GrB_free(&a);
  GrB_free(&v);
}

TEST(SerializeTest, CompressionBeatsRawCsrOnClusteredIndices) {
  // The varint-delta format should use fewer bytes than the 8-byte-per-
  // index CSR export for a banded matrix — the substance behind the
  // paper's "can save space" claim (measured at scale in bench_m3).
  GrB_Matrix a = nullptr;
  const GrB_Index n = 256;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, n, n), GrB_SUCCESS);
  for (GrB_Index i = 0; i < n; ++i)
    for (GrB_Index d = 0; d < 4 && i + d < n; ++d)
      ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, i, i + d), GrB_SUCCESS);
  GrB_Index ser_size = 0;
  ASSERT_EQ(GrB_Matrix_serializeSize(&ser_size, a), GrB_SUCCESS);
  GrB_Index np, ni, nv;
  ASSERT_EQ(GrB_Matrix_exportSize(&np, &ni, &nv, GrB_CSR_MATRIX, a),
            GrB_SUCCESS);
  GrB_Index csr_bytes = np * 8 + ni * 8 + nv * 8;
  EXPECT_LT(ser_size, csr_bytes);
  GrB_free(&a);
}

TEST(MmioTest, FileRoundTrip) {
  ref::Mat rm = testutil::random_mat(14, 14, 0.3, 8);
  GrB_Matrix a = testutil::make_matrix(rm);
  ASSERT_EQ(grb::write_matrix_market(a, "mmio_test_tmp.mtx"),
            grb::Info::kSuccess);
  GrB_Matrix back = nullptr;
  ASSERT_EQ(grb::read_matrix_market(&back, "mmio_test_tmp.mtx", nullptr),
            grb::Info::kSuccess);
  EXPECT_MATRIX_EQ(back, rm);
  GrB_free(&a);
  GrB_free(&back);
  std::remove("mmio_test_tmp.mtx");
}

TEST(MmioTest, RejectsGarbage) {
  GrB_Matrix a = nullptr;
  EXPECT_EQ(grb::read_matrix_market(&a, "/nonexistent/file.mtx", nullptr),
            grb::Info::kInvalidValue);
}

// Writes `text` to a file named after the running test, reads it back as
// Matrix Market and returns the reader's verdict.  A matrix it accepts
// is freed.
grb::Info read_mtx_text(const std::string& text) {
  const std::string path =
      std::string(::testing::UnitTest::GetInstance()
                      ->current_test_info()->name()) + "_tmp.mtx";
  { std::ofstream(path) << text; }
  GrB_Matrix a = nullptr;
  grb::Info info = grb::read_matrix_market(&a, path, nullptr);
  if (a != nullptr) GrB_free(&a);
  std::remove(path.c_str());
  return info;
}

TEST(MmioTest, HugeEntryCountAllocatesNothing) {
  EXPECT_EQ(read_mtx_text("%%MatrixMarket matrix coordinate real general\n"
                          "2 2 100000000000000000\n"
                          "1 1 1.5\n"),
            grb::Info::kInvalidValue);
}

TEST(MmioTest, RealEntryWithoutValueIsRejected) {
  EXPECT_EQ(read_mtx_text("%%MatrixMarket matrix coordinate real general\n"
                          "2 2 1\n"
                          "1 2\n"),
            grb::Info::kInvalidValue);
  EXPECT_EQ(read_mtx_text("%%MatrixMarket matrix coordinate real general\n"
                          "2 2 1\n"
                          "1 2 x\n"),
            grb::Info::kInvalidValue);
  EXPECT_EQ(read_mtx_text("%%MatrixMarket matrix coordinate pattern "
                          "general\n2 2 1\n1 2\n"),
            grb::Info::kSuccess);
}

TEST(MmioTest, ShortOrUnparsableSizeLineIsRejected) {
  for (const char* size : {"2 2\n", "2 two 1\n", "\n", "2 2 1 7\n"}) {
    EXPECT_EQ(read_mtx_text(
                  std::string("%%MatrixMarket matrix coordinate real "
                              "general\n") + size + "1 1 1.5\n"),
              grb::Info::kInvalidValue)
        << "size line: " << size;
  }
  EXPECT_EQ(read_mtx_text("%%MatrixMarket matrix coordinate real general\n"
                          "2 2 1\r\n1 1 1.5\r\n"),
            grb::Info::kSuccess);
}

}  // namespace
