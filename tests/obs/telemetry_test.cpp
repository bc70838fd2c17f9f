// Telemetry subsystem tests: exact counter oracles, queue-depth gauges,
// Chrome-trace output, GRB_STATS/GRB_TRACE env activation, the op-named
// deferred-error diagnostics, and a multithreaded counter-consistency
// check (this binary is labeled tsan, so the ThreadSanitizer preset runs
// it to prove the hooks race-free).
//
// This suite owns its main(): each test performs its own GrB_init /
// GrB_finalize so the env-activation tests can set GRB_STATS/GRB_TRACE
// before library initialization (the shared test_main.cpp environment
// initializes once per process, which would pin the env state).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graphblas/GraphBLAS.h"
#include "exec/fusion.hpp"
#include "obs/decision.hpp"
#include "obs/flight_recorder.hpp"
#include "ops/mxm.hpp"
#include "ops/spgemm.hpp"
#include "util/prng.hpp"

namespace {

// Pins the deferred-op fusion planner off for oracles that count one
// deferred execution (and one flop tally) per queued method — under
// fusion a later full-replace mxm/mxv legitimately eliminates its
// predecessors as dead writes.
class FusionGuard {
 public:
  explicit FusionGuard(bool on = false) : saved_(grb::fusion_enabled()) {
    grb::set_fusion_enabled(on);
  }
  ~FusionGuard() { grb::set_fusion_enabled(saved_); }

 private:
  bool saved_;
};

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

size_t count_substr(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

uint64_t counter(const char* name) {
  uint64_t v = ~0ull;
  EXPECT_EQ(GxB_Stats_get(name, &v), GrB_SUCCESS) << name;
  return v;
}

// Per-test library lifecycle with telemetry left clean on exit.
class ObsTest : public ::testing::Test {
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

// A small materialized n x n path matrix: A(i, i+1) = 1.
GrB_Matrix path_matrix(GrB_Index n) {
  GrB_Matrix a = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&a, GrB_FP64, n, n), GrB_SUCCESS);
  for (GrB_Index i = 0; i + 1 < n; ++i)
    EXPECT_EQ(GrB_Matrix_setElement(a, 1.0, i, i + 1), GrB_SUCCESS);
  EXPECT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
  return a;
}

GrB_Vector ones_vector(GrB_Index n) {
  GrB_Vector v = nullptr;
  EXPECT_EQ(GrB_Vector_new(&v, GrB_FP64, n), GrB_SUCCESS);
  for (GrB_Index i = 0; i < n; ++i)
    EXPECT_EQ(GrB_Vector_setElement(v, 1.0, i), GrB_SUCCESS);
  EXPECT_EQ(GrB_wait(v, GrB_MATERIALIZE), GrB_SUCCESS);
  return v;
}

TEST_F(ObsTest, CountersExactForKnownOpSequence) {
  FusionGuard fusion_off;
  GrB_Matrix a = path_matrix(8);
  GrB_Matrix c = nullptr;
  GrB_Vector u = ones_vector(8);
  GrB_Vector w = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 8, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 8), GrB_SUCCESS);

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  // The scripted sequence: 2x mxm, 1x mxv, 2x wait.
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, a,
                    GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, a,
                    GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, u,
                    GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);

  EXPECT_EQ(counter("GrB_mxm.calls"), 2u);
  EXPECT_EQ(counter("GrB_mxv.calls"), 1u);
  EXPECT_EQ(counter("GrB_wait.calls"), 2u);
  EXPECT_EQ(counter("GrB_mxm.errors"), 0u);
  // Nonblocking mode: each op executed as a deferred method.
  EXPECT_EQ(counter("GrB_mxm.deferred"), 2u);
  EXPECT_EQ(counter("GrB_mxv.deferred"), 1u);
  // flops: A is an 8-node path (7 entries); A*A chains i->i+2, so the
  // Gustavson expansion is 6 multiplies per mxm; mxv counts nnz(A).
  EXPECT_EQ(counter("GrB_mxm.flops"), 12u);
  EXPECT_EQ(counter("GrB_mxv.flops"), 7u);
  // Scalars written through the writeback choke point.
  EXPECT_GT(counter("GrB_mxm.scalars"), 0u);
  EXPECT_GT(counter("GrB_mxv.scalars"), 0u);
  // Tiny problem: every serial-fallback gate decision picked serial.
  EXPECT_GT(counter("GrB_mxm.serial"), 0u);
  EXPECT_EQ(counter("GrB_mxm.parallel"), 0u);
  // Timers ran.
  EXPECT_GT(counter("GrB_mxm.ns"), 0u);
  EXPECT_GT(counter("GrB_mxm.deferred_ns"), 0u);

  // Unknown counters: GrB_NO_VALUE, value forced to 0.
  uint64_t v = 42;
  EXPECT_EQ(GxB_Stats_get("GrB_mxm.nope", &v), GrB_NO_VALUE);
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(GxB_Stats_get("no_such_op.calls", &v), GrB_NO_VALUE);

  GrB_free(&a);
  GrB_free(&c);
  GrB_free(&u);
  GrB_free(&w);
}

// The adaptive SpGEMM engine reports which accumulator each output row
// used, its symbolic flop estimate, and whether per-thread scratch was
// reused from the arena or freshly grown.
TEST_F(ObsTest, SpgemmAccumulatorAndArenaCounters) {
  grb::SpgemmMode saved_mode = grb::spgemm_mode();
  GrB_Matrix a = path_matrix(8);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 8, 8), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  // Pinned hash mode: the 6 productive rows of A*A (path matrix, rows
  // 0..5 have one flop each) all use the hash accumulator.
  grb::set_spgemm_mode(grb::SpgemmMode::kHash);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    a, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("spgemm.rows_hash"), 6u);
  EXPECT_EQ(counter("spgemm.rows_dense"), 0u);
  // Same symbolic estimate the flops counter uses: 6 multiplies.
  EXPECT_EQ(counter("spgemm.flops_estimated"), 6u);
  // First multiply after reset: the hash scratch had to be grown.
  EXPECT_GT(counter("arena.reuse_misses"), 0u);

  // Pinned dense mode on the same product flips every row to the dense
  // accumulator and reuses the arena buffers grown above.
  grb::set_spgemm_mode(grb::SpgemmMode::kDense);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    a, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("spgemm.rows_hash"), 6u);
  EXPECT_EQ(counter("spgemm.rows_dense"), 6u);
  EXPECT_EQ(counter("spgemm.flops_estimated"), 12u);

  // Re-running the hash multiply now hits warm scratch.
  grb::set_spgemm_mode(grb::SpgemmMode::kHash);
  uint64_t hits_before = counter("arena.reuse_hits");
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    a, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_GT(counter("arena.reuse_hits"), hits_before);

  // The counters surface through the JSON report as well.  A generous
  // fixed buffer rather than the two-call sizing protocol: the dump's
  // own op entry and ns counters grow between a sizing call and a
  // filling call, which would truncate the tail fields under test.
  std::vector<char> buf(1 << 16);
  GrB_Index len = buf.size();
  ASSERT_EQ(GxB_Stats_json(buf.data(), &len), GrB_SUCCESS);
  ASSERT_LE(len, buf.size());
  std::string json(buf.data());
  EXPECT_NE(json.find("\"spgemm.rows_hash\""), std::string::npos);
  EXPECT_NE(json.find("\"spgemm.rows_dense\""), std::string::npos);
  EXPECT_NE(json.find("\"spgemm.flops_estimated\""), std::string::npos);
  EXPECT_NE(json.find("\"arena.reuse_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"arena.reuse_misses\""), std::string::npos);

  grb::set_spgemm_mode(saved_mode);
  GrB_free(&a);
  GrB_free(&c);
}

// The decision audit mirrors the accumulator question with exact
// numbers: one mxm on the 8-node path emits one spgemm_accum record
// whose predicted cost is the 6-flop symbolic estimate and whose
// measured outcome is the 6 output entries — a perfect prediction, so
// the mispredict counter stays zero.
TEST_F(ObsTest, DecisionCountersExactForPathMxm) {
  FusionGuard fusion_off;
  grb::SpgemmMode saved_mode = grb::spgemm_mode();
  grb::set_spgemm_mode(grb::SpgemmMode::kHash);
  GrB_Matrix a = path_matrix(8);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 8, 8), GrB_SUCCESS);

  // GxB_Stats_enable turns the decision audit on with it: counters
  // without their why are half an answer.
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a,
                    a, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);

  EXPECT_EQ(counter("decision.spgemm_accum.records"), 1u);
  EXPECT_EQ(counter("decision.spgemm_accum.measured"), 1u);
  EXPECT_EQ(counter("decision.spgemm_accum.mispredicts"), 0u);
  EXPECT_EQ(counter("decision.spgemm_accum.predicted_units"), 6u);
  EXPECT_EQ(counter("decision.spgemm_accum.measured_units"), 6u);
  // Sites that had no adaptive choice to make stay silent: no mask (so
  // no masked-dot strategy), fusion pinned off, no transpose view.
  EXPECT_EQ(counter("decision.masked_dot.records"), 0u);
  EXPECT_EQ(counter("decision.fusion_plan.records"), 0u);
  EXPECT_EQ(counter("decision.transpose_cache.records"), 0u);
  EXPECT_EQ(counter("decision.mispredicts"), 0u);
  EXPECT_GT(counter("decision.ring_capacity"), 0u);

  // The audit reaches the JSON report as a nested block.
  std::vector<char> buf(1 << 16);
  GrB_Index len = buf.size();
  ASSERT_EQ(GxB_Stats_json(buf.data(), &len), GrB_SUCCESS);
  std::string json(buf.data());
  EXPECT_NE(json.find("\"decisions\":{"), std::string::npos);
  EXPECT_NE(json.find("\"spgemm_accum\":{\"records\":1,\"measured\":1,"
                      "\"mispredicts\":0,\"predicted_units\":6,"
                      "\"measured_units\":6}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"prof\":{"), std::string::npos);

  grb::set_spgemm_mode(saved_mode);
  GrB_free(&a);
  GrB_free(&c);
}

// The masked-mxm strategy audit predicts work units (candidates plus
// mask entries for saxpy, merge steps for dot) and measures the units
// the masked kernel actually spent, so a k-truss round on a symmetric
// graph — c<b,struct,replace> = b*b' then select(c >= 2) — is predicted
// exactly and never reads as a mispredict.  A point-query mask (four
// rows of the unpruned graph) then takes the dot kernel, whose merge steps are counted
// and never exceed the prediction.
TEST_F(ObsTest, KtrussMaskedMxmAuditHasNoMispredicts) {
  FusionGuard fusion_off;
  const grb::MxmStrategy saved = grb::mxm_strategy();
  grb::set_mxm_strategy(grb::MxmStrategy::kAuto);
  constexpr GrB_Index kN = 300;
  grb::Prng rng(2024);
  std::vector<GrB_Index> rows, cols;
  for (int e = 0; e < 1500; ++e) {
    const GrB_Index i = rng.below(kN), j = rng.below(kN);
    if (i == j) continue;
    rows.insert(rows.end(), {i, j});
    cols.insert(cols.end(), {j, i});
  }
  std::vector<int64_t> ones(rows.size(), 1);
  GrB_Matrix b = nullptr, c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&b, GrB_INT64, kN, kN), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_INT64, kN, kN), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_build(b, rows.data(), cols.data(), ones.data(),
                             rows.size(), GrB_FIRST_INT64),
            GrB_SUCCESS);
  GrB_Matrix g = nullptr;  // b before the rounds prune it
  ASSERT_EQ(GrB_Matrix_dup(&g, b), GrB_SUCCESS);

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_EQ(GrB_mxm(c, b, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_INT64, b, b,
                      GrB_DESC_RST1),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_select(b, GrB_NULL, GrB_NULL, GrB_VALUEGE_INT64, c,
                         int64_t{2}, GrB_NULL),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_apply(b, GrB_NULL, GrB_NULL, GrB_ONEB_INT64, b,
                        int64_t{1}, GrB_NULL),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_wait(b, GrB_MATERIALIZE), GrB_SUCCESS);
  }

  EXPECT_EQ(counter("decision.masked_dot.records"), uint64_t{kRounds});
  EXPECT_EQ(counter("decision.masked_dot.measured"), uint64_t{kRounds});
  EXPECT_EQ(counter("decision.masked_dot.mispredicts"), 0u);
  EXPECT_GT(counter("decision.masked_dot.measured_units"), 0u);
  EXPECT_LE(counter("decision.masked_dot.measured_units"),
            counter("decision.masked_dot.predicted_units"));

  GrB_Matrix m = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&m, GrB_INT64, kN, kN), GrB_SUCCESS);
  ASSERT_EQ(GrB_select(m, GrB_NULL, GrB_NULL, GrB_ROWLE, g, int64_t{3},
                       GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, m, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_INT64, g, g,
                    GrB_DESC_RST1),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  grb::obs::DecisionRecord rec;
  ASSERT_EQ(grb::obs::decision_snapshot(&rec, 1, nullptr, 0), 1);
  EXPECT_EQ(rec.site, grb::obs::DecisionSite::kMaskedDot);
  EXPECT_STREQ(rec.chosen, "dot");
  EXPECT_TRUE(rec.measured);
  EXPECT_FALSE(rec.mispredict);
  EXPECT_GT(rec.measured_units, 0u);
  EXPECT_LE(static_cast<double>(rec.measured_units), rec.predicted_cost);
  EXPECT_EQ(counter("decision.masked_dot.mispredicts"), 0u);

  grb::set_mxm_strategy(saved);
  GrB_free(&b);
  GrB_free(&c);
  GrB_free(&g);
  GrB_free(&m);
}

TEST_F(ObsTest, QueueDepthHighWaterMatchesScriptedBuildWait) {
  FusionGuard fusion_off;
  GrB_Matrix a = path_matrix(8);
  GrB_Vector u = ones_vector(8);
  GrB_Vector w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 8), GrB_SUCCESS);

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  // Three deferred methods stack up on w's sequence before the wait
  // drains them: depth samples 1, 2, 3.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, u,
                      GrB_NULL),
              GrB_SUCCESS);
  }
  EXPECT_EQ(counter("queue.high_water"), 3u);
  EXPECT_EQ(counter("queue.enqueued"), 3u);
  EXPECT_EQ(counter("queue.drained"), 0u);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("queue.drained"), 3u);
  EXPECT_EQ(counter("GrB_mxv.deferred"), 3u);

  // Pending-tuple gauge: setElement fast path counts tuples per object.
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  for (GrB_Index i = 0; i < 5; ++i)
    ASSERT_EQ(GrB_Vector_setElement(w, 1.0, i), GrB_SUCCESS);
  EXPECT_EQ(counter("pending.high_water"), 5u);

  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&w);
}

// Exact oracles for the fusion planner's counters on hand-built chains
// whose plan is fully predictable.
TEST_F(ObsTest, FusionCountersExactForHandBuiltChain) {
  FusionGuard fusion_on(true);
  GrB_Matrix a = path_matrix(8);
  GrB_Vector u = ones_vector(8);
  GrB_Vector w = ones_vector(8);

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  // Three plain self-applies queue three fusable map nodes; the wait
  // plans them as one chain executed in a single pass.
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_ABS_FP64, w, GrB_NULL),
              GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("fusion.chains"), 1u);
  EXPECT_EQ(counter("fusion.ops_fused"), 3u);
  EXPECT_EQ(counter("fusion.dead_writes_eliminated"), 0u);
  // Each fused node still tallies a deferred execution for op parity.
  EXPECT_EQ(counter("GrB_apply.deferred"), 3u);

  // Two plain full-replace mxv's: the planner eliminates the first as a
  // dead write (its output is overwritten wholesale before any read).
  for (int i = 0; i < 2; ++i)
    ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                      a, u, GrB_NULL),
              GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("fusion.dead_writes_eliminated"), 1u);
  // Opaque kernel nodes never fuse into chains.
  EXPECT_EQ(counter("fusion.chains"), 1u);
  EXPECT_EQ(counter("fusion.ops_fused"), 3u);
  // The dead mxv never executed: one deferred tally, not two.
  EXPECT_EQ(counter("GrB_mxv.deferred"), 1u);

  // The counters surface through the JSON report.
  std::vector<char> buf(1 << 16);
  GrB_Index len = buf.size();
  ASSERT_EQ(GxB_Stats_json(buf.data(), &len), GrB_SUCCESS);
  std::string json(buf.data());
  EXPECT_NE(json.find("\"fusion.chains\""), std::string::npos);
  EXPECT_NE(json.find("\"fusion.ops_fused\""), std::string::npos);
  EXPECT_NE(json.find("\"fusion.dead_writes_eliminated\""),
            std::string::npos);

  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&w);
}

// Exact oracles for the transpose-cache counters (DESIGN.md §15): a
// descriptor-transpose read of a snapshot either reuses its cached
// transpose (hit) or pays the counting sort (miss).
TEST_F(ObsTest, FormatCountersExactForKnownSequence) {
  FusionGuard fusion_off;
  GrB_Matrix a = path_matrix(8);
  GrB_Vector u = ones_vector(8);
  GrB_Vector w = ones_vector(8);

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  // Two T0 reads of one unchanged snapshot: the first pays the counting
  // sort (miss), the second returns the cached view (hit).
  for (int rep = 0; rep < 2; ++rep) {
    ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                      a, u, GrB_DESC_T0),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  }
  EXPECT_EQ(counter("format.transpose_cache_misses"), 1u);
  EXPECT_EQ(counter("format.transpose_cache_hits"), 1u);

  // A write publishes a fresh snapshot, which carries no cached view:
  // the next T0 read is one more miss, no new hit.
  ASSERT_EQ(GrB_Matrix_setElement(a, 2.0, 7, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                    a, u, GrB_DESC_T0),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("format.transpose_cache_misses"), 2u);
  EXPECT_EQ(counter("format.transpose_cache_hits"), 1u);

  // The transpose counters surface through both exposition formats; the
  // counters of the retired format lattice appear in neither.
  std::vector<char> buf(1 << 16);
  GrB_Index len = buf.size();
  ASSERT_EQ(GxB_Stats_json(buf.data(), &len), GrB_SUCCESS);
  std::string json(buf.data());
  EXPECT_NE(json.find("\"format.transpose_cache_hits\""),
            std::string::npos);
  EXPECT_NE(json.find("\"format.transpose_cache_misses\""),
            std::string::npos);
  EXPECT_EQ(json.find("\"format.switches\""), std::string::npos);
  EXPECT_EQ(json.find("\"format.csr_conversions\""), std::string::npos);
  len = buf.size();
  ASSERT_EQ(GxB_Stats_prometheus(buf.data(), &len), GrB_SUCCESS);
  std::string prom(buf.data());
  EXPECT_NE(prom.find(
                "grb_format_transpose_cache_total{outcome=\"hit\"}"),
            std::string::npos);
  EXPECT_NE(prom.find(
                "grb_format_transpose_cache_total{outcome=\"miss\"}"),
            std::string::npos);
  EXPECT_EQ(prom.find("grb_format_switches_total"), std::string::npos);
  EXPECT_EQ(prom.find("grb_format_csr_conversions_total"),
            std::string::npos);

  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&w);
}

// The always-on flight recorder must show the plan before the fused
// execution, and the fused execution before the per-node deferred-exec
// events it wraps — the causal order a post-mortem reader relies on.
TEST_F(ObsTest, FlightRecorderLogsFusionInCausalOrder) {
  FusionGuard fusion_on(true);
  GrB_Vector w = ones_vector(8);
  uint64_t before = grb::obs::fr_event_count();
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_AINV_FP64, w, GrB_NULL),
              GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_GT(grb::obs::fr_event_count(), before);

  std::string text = grb::obs::fr_text(0);
  size_t plan = text.rfind("fusion-plan");
  size_t exec = text.rfind("fusion-exec");
  ASSERT_NE(plan, std::string::npos) << text;
  ASSERT_NE(exec, std::string::npos) << text;
  EXPECT_LT(plan, exec);
  // The fused group's nodes log deferred-exec after the group event.
  size_t deferred = text.find("deferred-exec", exec);
  EXPECT_NE(deferred, std::string::npos) << text;

  GrB_free(&w);
}

TEST_F(ObsTest, TraceJsonParsesWithMatchedCompleteEvents) {
  std::string path = ::testing::TempDir() + "grb_obs_trace_test.json";
  ASSERT_EQ(GxB_Trace_start(path.c_str()), GrB_SUCCESS);

  GrB_Matrix a = path_matrix(8);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, 8, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, a,
                    GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_COMPLETE), GrB_SUCCESS);
  ASSERT_EQ(GxB_Trace_dump(nullptr), GrB_SUCCESS);

  std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Spans are self-closing "X" (complete) events: every one carries a
  // duration, so begin/end pairing is matched by construction.  No
  // unterminated "B" events may appear.
  size_t spans = count_substr(json, "\"ph\":\"X\"");
  EXPECT_GT(spans, 0u);
  EXPECT_EQ(count_substr(json, "\"ph\":\"B\""), 0u);
  EXPECT_EQ(count_substr(json, "\"ph\":\"E\""), 0u);
  EXPECT_EQ(spans, count_substr(json, "\"dur\":"));
  // The mxm API span and its deferred execution (with the gap arg).
  EXPECT_NE(json.find("\"name\":\"GrB_mxm\",\"cat\":\"api\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"GrB_mxm\",\"cat\":\"deferred\""),
            std::string::npos);
  EXPECT_NE(json.find("\"gap_us\":"), std::string::npos);
  // Queue-depth gauge samples ride along as counter events.
  EXPECT_NE(json.find("\"name\":\"queue.depth\",\"ph\":\"C\""),
            std::string::npos);

  std::remove(path.c_str());
  GrB_free(&a);
  GrB_free(&c);
}

TEST_F(ObsTest, DeferredErrorNamesOriginatingOp) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 4), GrB_SUCCESS);
  GrB_Index idx[] = {1, 1};
  double vals[] = {1, 2};
  // Duplicates with a NULL dup op fail at deferred execution time.
  GrB_Info info = GrB_Vector_build(v, idx, vals, 2, GrB_NULL);
  if (info == GrB_SUCCESS) info = GrB_wait(v, GrB_COMPLETE);
  EXPECT_EQ(info, GrB_INVALID_VALUE);
  const char* msg = nullptr;
  ASSERT_EQ(GrB_error(&msg, v), GrB_SUCCESS);
  ASSERT_NE(msg, nullptr);
  // The diagnostic names the originating method, not just the code.
  EXPECT_NE(std::string(msg).find("GrB_Vector_build"), std::string::npos)
      << msg;
  EXPECT_NE(std::string(msg).find("GrB_INVALID_VALUE"), std::string::npos)
      << msg;
  GrB_free(&v);
}

TEST_F(ObsTest, MultithreadedCounterConsistency) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 64), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(v, GrB_MATERIALIZE), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([v] {
      for (int i = 0; i < kIters; ++i) {
        GrB_Index n = 0;
        EXPECT_EQ(GrB_Vector_nvals(&n, v), GrB_SUCCESS);
      }
    });
  }
  for (auto& t : threads) t.join();

  // No lost updates: the relaxed per-counter atomics must still sum
  // exactly under contention.
  EXPECT_EQ(counter("GrB_Vector_nvals.calls"),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(counter("GrB_Vector_nvals.errors"), 0u);
  GrB_free(&v);
}

TEST_F(ObsTest, ExtensionRegistryIntrospection) {
  GrB_Index n = 0;
  ASSERT_EQ(GxB_Extension_count(&n), GrB_SUCCESS);
  EXPECT_EQ(n, GxB_EXTENSION_COUNT);
  bool saw_stats_get = false;
  for (GrB_Index i = 0; i < n; ++i) {
    const char* name = nullptr;
    ASSERT_EQ(GxB_Extension_name(&name, i), GrB_SUCCESS);
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(std::string(name).rfind("GxB_", 0), 0u) << name;
    if (std::string(name) == "GxB_Stats_get") saw_stats_get = true;
  }
  EXPECT_TRUE(saw_stats_get);
  const char* name = nullptr;
  EXPECT_EQ(GxB_Extension_name(&name, n), GrB_INVALID_INDEX);
  EXPECT_EQ(GxB_Extension_count(nullptr), GrB_NULL_POINTER);

  // Stats JSON sizing contract.
  GrB_Index len = 0;
  ASSERT_EQ(GxB_Stats_json(nullptr, &len), GrB_SUCCESS);
  ASSERT_GT(len, 2u);
  std::vector<char> buf(len);
  GrB_Index len2 = len;
  ASSERT_EQ(GxB_Stats_json(buf.data(), &len2), GrB_SUCCESS);
  EXPECT_EQ(len2, len);
  EXPECT_EQ(buf[0], '{');
  EXPECT_NE(std::string(buf.data()).find("\"global\""), std::string::npos);
}

// Env activation needs its own fixture-free tests: the variables must be
// set before GrB_init.
TEST(ObsEnvTest, GrbStatsEnvEnablesCounters) {
  ASSERT_EQ(setenv("GRB_STATS", "1", 1), 0);
  ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8), GrB_SUCCESS);
  GrB_Index n = 0;
  ASSERT_EQ(GrB_Vector_nvals(&n, v), GrB_SUCCESS);
  uint64_t calls = 0;
  EXPECT_EQ(GxB_Stats_get("GrB_Vector_nvals.calls", &calls), GrB_SUCCESS);
  EXPECT_GE(calls, 1u);
  GrB_free(&v);
  // Finalize prints the summary to stderr and deactivates env stats.
  ASSERT_EQ(GrB_finalize(), GrB_SUCCESS);
  ASSERT_EQ(unsetenv("GRB_STATS"), 0);

  // With the variable gone, a fresh cycle starts with stats off.
  ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_nvals(&n, v), GrB_SUCCESS);
  uint64_t after = 0;
  GrB_Info info = GxB_Stats_get("GrB_Vector_nvals.calls", &after);
  EXPECT_TRUE(info == GrB_NO_VALUE || after == 0u);
  GrB_free(&v);
  ASSERT_EQ(GrB_finalize(), GrB_SUCCESS);
}

TEST(ObsEnvTest, GrbTraceEnvDumpsChromeTraceAtFinalize) {
  std::string path = ::testing::TempDir() + "grb_obs_env_trace.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("GRB_TRACE", path.c_str(), 1), 0);
  ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, GrB_FP64, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(v, 1.0, 3), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(v, GrB_MATERIALIZE), GrB_SUCCESS);
  GrB_free(&v);
  ASSERT_EQ(GrB_finalize(), GrB_SUCCESS);
  ASSERT_EQ(unsetenv("GRB_TRACE"), 0);

  std::string json = slurp(path);
  ASSERT_FALSE(json.empty()) << path;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_GT(count_substr(json, "\"ph\":\"X\""), 0u);
  std::remove(path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
