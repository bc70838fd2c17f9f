// Decision-audit explain surface.
//
// GxB_Explain must return a non-empty, accurate plan for GrB_mxm under
// every SpGEMM mode — the audit is only useful if it never goes dark
// when the execution strategy changes under it.
//
// Lives in the grb_obs_tests binary (telemetry_test.cpp owns main());
// each test runs its own GrB_init/GrB_finalize cycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "graphblas/GraphBLAS.h"
#include "ops/spgemm.hpp"

namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  }
  void TearDown() override {
    EXPECT_EQ(GxB_Stats_enable(0), GrB_SUCCESS);
    EXPECT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
    EXPECT_EQ(GrB_finalize(), GrB_SUCCESS);
  }
};

// Two-call sizing protocol; returns the filled text.
std::string explain(const char* op) {
  GrB_Index len = 0;
  EXPECT_EQ(GxB_Explain(op, GrB_NULL, &len), GrB_SUCCESS);
  EXPECT_GT(len, 1u);
  std::vector<char> buf(len);
  EXPECT_EQ(GxB_Explain(op, buf.data(), &len), GrB_SUCCESS);
  return std::string(buf.data());
}

GrB_Matrix path_matrix(GrB_Index n) {
  GrB_Matrix a = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&a, GrB_FP64, n, n), GrB_SUCCESS);
  for (GrB_Index i = 0; i + 1 < n; ++i)
    EXPECT_EQ(GrB_Matrix_setElement(a, 1.0, i, i + 1), GrB_SUCCESS);
  EXPECT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
  return a;
}

TEST_F(ExplainTest, RoundTripAcrossFormatsAndSpgemmModes) {
  const grb::SpgemmMode modes[] = {grb::SpgemmMode::kHash,
                                   grb::SpgemmMode::kDense};
  grb::SpgemmMode saved_mode = grb::spgemm_mode();
  for (grb::SpgemmMode mode : modes) {
    SCOPED_TRACE(::testing::Message() << "mode=" << (int)mode);
    grb::set_spgemm_mode(mode);
    ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
    ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

    GrB_Matrix a = path_matrix(8);
    GrB_Matrix c = nullptr;
    ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 8, 8), GrB_SUCCESS);
    ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL,
                      GrB_PLUS_TIMES_SEMIRING_FP64, a, a, GrB_NULL),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);

    // The plan names the op, the accumulator site, and the strategy
    // the pinned mode forced — accurate, not merely non-empty.
    std::string text = explain("GrB_mxm");
    EXPECT_NE(text.find("decision audit:"), std::string::npos) << text;
    EXPECT_NE(text.find("GrB_mxm spgemm_accum"), std::string::npos)
        << text;
    const char* strategy =
        mode == grb::SpgemmMode::kDense ? "chose dense" : "chose hash";
    EXPECT_NE(text.find(strategy), std::string::npos) << text;
    // Perfect prediction on the path product: 6 flops in, 6 entries
    // out — the plan must not cry mispredict.
    EXPECT_EQ(text.find("MISPREDICT"), std::string::npos) << text;

    // The op filter is real: an op that never ran matches nothing.
    std::string other = explain("GrB_vxm");
    EXPECT_NE(other.find("no ring records match the filter"),
              std::string::npos)
        << other;

    GrB_free(&a);
    GrB_free(&c);
  }
  grb::set_spgemm_mode(saved_mode);
}

TEST_F(ExplainTest, DisabledAuditSaysHowToEnable) {
  std::string text = explain(GrB_NULL);
  EXPECT_NE(text.find("decision audit disabled"), std::string::npos)
      << text;
  EXPECT_NE(text.find("GRB_DECISIONS=1"), std::string::npos) << text;
}

TEST_F(ExplainTest, NullLengthPointerRejected) {
  EXPECT_EQ(GxB_Explain(GrB_NULL, GrB_NULL, GrB_NULL), GrB_NULL_POINTER);
}

TEST_F(ExplainTest, TruncationKeepsTerminatorAndReportsNeed) {
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  char tiny[8];
  GrB_Index len = sizeof tiny;
  ASSERT_EQ(GxB_Explain(GrB_NULL, tiny, &len), GrB_SUCCESS);
  EXPECT_GT(len, sizeof tiny);               // the real need
  EXPECT_EQ(tiny[sizeof tiny - 1], '\0');    // NUL within the buffer
  EXPECT_EQ(std::strlen(tiny), sizeof tiny - 1);
}

}  // namespace
