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

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graphblas/GraphBLAS.h"
#include "exec/context.hpp"
#include "obs/decision.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/seq_ring.hpp"
#include "ops/mxm.hpp"
#include "ops/spgemm.hpp"
#include "util/prng.hpp"

namespace {

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

// One JSON scalar or container key, in document order.  `path` joins
// the keys (and array indices) from the root with '/'; `value` is the
// raw token for scalars and empty for objects and arrays.
struct JsonEntry {
  std::string path;
  std::string value;
};

// Minimal reader for the stats JSON (objects, arrays, strings without
// escapes beyond \" and \\, numbers, true/false/null).
class JsonFlattener {
 public:
  explicit JsonFlattener(const std::string& text) : s_(text) {}
  std::vector<JsonEntry> run() {
    value("");
    return out_;
  }

 private:
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  std::string str() {
    std::string r;
    ++i_;  // opening quote
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') ++i_;
      r.push_back(s_[i_++]);
    }
    ++i_;
    return r;
  }
  void value(const std::string& path) {
    ws();
    const char c = s_[i_];
    if (c == '{' || c == '[') {
      if (!path.empty()) out_.push_back({path, ""});
      ++i_;
      int index = 0;
      for (ws(); s_[i_] != (c == '{' ? '}' : ']'); ws()) {
        std::string key = c == '{' ? str() : std::to_string(index++);
        if (c == '{') {
          ws();
          ++i_;  // ':'
        }
        value(path.empty() ? key : path + "/" + key);
        ws();
        if (s_[i_] == ',') ++i_;
      }
      ++i_;
      return;
    }
    size_t start = i_;
    if (c == '"') {
      str();
    } else {
      while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}' &&
             s_[i_] != ']')
        ++i_;
    }
    out_.push_back({path, s_.substr(start, i_ - start)});
  }

  const std::string& s_;
  size_t i_ = 0;
  std::vector<JsonEntry> out_;
};

// The scripted sequence the parity test and its fixture share: on a
// one-thread context, with stats (and so the decision audit) on, an
// mxm, a setElement folded by wait, a vxm reading A' and a masked mxm.  Stats are
// switched off again before returning so that reading the exporters
// moves no counter.
void run_parity_script(GrB_Context ctx) {
  constexpr GrB_Index kN = 8;
  GrB_Matrix a = nullptr, c = nullptr, m = nullptr;
  GrB_Vector u = nullptr, w = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, kN, kN, ctx), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_FP64, kN, kN, ctx), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&m, GrB_BOOL, kN, kN, ctx), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&u, GrB_FP64, kN, ctx), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, kN, ctx), GrB_SUCCESS);
  for (GrB_Index i = 0; i < kN; ++i) {
    if (i + 1 < kN) {
      ASSERT_EQ(GrB_Matrix_setElement(a, 1.0, i, i + 1), GrB_SUCCESS);
    }
    ASSERT_EQ(GrB_Matrix_setElement(m, true, i, (i + 2) % kN), GrB_SUCCESS);
    ASSERT_EQ(GrB_Vector_setElement(u, 1.0, i), GrB_SUCCESS);
  }
  ASSERT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(m, GrB_MATERIALIZE), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(u, GrB_MATERIALIZE), GrB_SUCCESS);

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, a,
                    GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(a, 2.0, kN - 1, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(a, GrB_MATERIALIZE), GrB_SUCCESS);
  ASSERT_EQ(GrB_vxm(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, u, a,
                    GrB_DESC_T1),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_mxm(c, m, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64, a, a,
                    GrB_DESC_RS),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(c, GrB_MATERIALIZE), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_enable(0), GrB_SUCCESS);

  GrB_free(&a);
  GrB_free(&c);
  GrB_free(&m);
  GrB_free(&u);
  GrB_free(&w);
}

// Leaf keys whose values the scripted sequence fixes exactly: call and
// work counts, queue tallies, decision-audit counts — no
// timings, byte sizes or flight-recorder positions.
bool exact_count(const std::string& path) {
  static const char* const kPrefixes[] = {
      "global/queue.", "global/pending.", "global/spgemm.", "global/format."};
  for (const char* p : kPrefixes)
    if (path.rfind(p, 0) == 0) return true;
  if (path.rfind("ops/", 0) != 0 && path.rfind("decisions/sites/", 0) != 0)
    return false;
  static const char* const kFields[] = {
      "calls", "errors", "flops", "deferred", "records", "measured",
      "mispredicts", "predicted_units", "measured_units"};
  const std::string field = path.substr(path.rfind('/') + 1);
  for (const char* f : kFields)
    if (field == f) return true;
  return false;
}

// The fixture's lines for one stats JSON document: every key path in
// document order (the test context's id replaced by "$ctx"), followed
// by a tab and the value for the exact counts.
std::vector<std::string> fixture_lines(const std::vector<JsonEntry>& entries,
                                       uint64_t ctx_id) {
  const std::string ctx_key = "contexts/" + std::to_string(ctx_id);
  std::vector<std::string> lines;
  for (const JsonEntry& e : entries) {
    std::string path = e.path;
    if (path.rfind(ctx_key, 0) == 0 &&
        (path.size() == ctx_key.size() || path[ctx_key.size()] == '/'))
      path = "contexts/$ctx" + path.substr(ctx_key.size());
    lines.push_back(exact_count(path) ? path + "\t" + e.value : path);
  }
  return lines;
}

TEST_F(ObsTest, CountersExactForKnownOpSequence) {
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
  // Sites that had no adaptive choice to make stay silent: no mask, so
  // no masked-dot strategy.
  EXPECT_EQ(counter("decision.masked_dot.records"), 0u);
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

  grb::set_spgemm_mode(saved_mode);
  GrB_free(&a);
  GrB_free(&c);
}

// A symmetric INT64 graph on n vertices from `edges` random draws (no
// self-loops), homed in ctx (null: the top context).
GrB_Matrix random_symmetric(GrB_Context ctx, GrB_Index n, int edges,
                            uint64_t seed) {
  grb::Prng rng(seed);
  std::vector<GrB_Index> rows, cols;
  for (int e = 0; e < edges; ++e) {
    const GrB_Index i = rng.below(n), j = rng.below(n);
    if (i == j) continue;
    rows.insert(rows.end(), {i, j});
    cols.insert(cols.end(), {j, i});
  }
  std::vector<int64_t> ones(rows.size(), 1);
  GrB_Matrix b = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&b, GrB_INT64, n, n, ctx), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_build(b, rows.data(), cols.data(), ones.data(),
                             rows.size(), GrB_FIRST_INT64),
            GrB_SUCCESS);
  return b;
}

// `rounds` k-truss rounds on b: c<b,struct,replace> = b*b' over ring,
// then b = select(c >= 2) with its values reset to 1.
void ktruss_rounds(GrB_Semiring ring, GrB_Matrix b, GrB_Matrix c,
                   int rounds) {
  for (int round = 0; round < rounds; ++round) {
    ASSERT_EQ(GrB_mxm(c, b, GrB_NULL, ring, b, b, GrB_DESC_RST1),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_select(b, GrB_NULL, GrB_NULL, GrB_VALUEGE_INT64, c,
                         int64_t{2}, GrB_NULL),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_apply(b, GrB_NULL, GrB_NULL, GrB_ONEB_INT64, b,
                        int64_t{1}, GrB_NULL),
              GrB_SUCCESS);
    ASSERT_EQ(GrB_wait(b, GrB_MATERIALIZE), GrB_SUCCESS);
  }
}

// The masked-mxm strategy audit predicts work units (candidates plus
// mask entries for saxpy, merge steps for dot) and measures the units
// the masked kernel actually spent, so a k-truss round on a symmetric
// graph — c<b,struct,replace> = b*b' then select(c >= 2) — is predicted
// exactly and never reads as a mispredict.  The rounds run twice: over
// PLUS_TIMES on the top context, and over <PLUS, ONEB> (the saxpy's
// count fold) on a 4-thread context with a graph large enough that the
// cost passes run on the pool.  A point-query mask (four rows of the
// unpruned graph) then takes the dot kernel, whose merge steps are
// counted and never exceed the prediction.
TEST_F(ObsTest, KtrussMaskedMxmAuditHasNoMispredicts) {
  const grb::MxmStrategy saved = grb::mxm_strategy();
  grb::set_mxm_strategy(grb::MxmStrategy::kAuto);
  constexpr GrB_Index kN = 300;
  GrB_Matrix b = random_symmetric(GrB_NULL, kN, 1500, 2024);
  GrB_Matrix c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_INT64, kN, kN), GrB_SUCCESS);
  GrB_Matrix g = nullptr;  // b before the rounds prune it
  ASSERT_EQ(GrB_Matrix_dup(&g, b), GrB_SUCCESS);

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
  constexpr int kRounds = 3;
  ktruss_rounds(GrB_PLUS_TIMES_SEMIRING_INT64, b, c, kRounds);

  EXPECT_EQ(counter("decision.masked_dot.records"), uint64_t{kRounds});
  EXPECT_EQ(counter("decision.masked_dot.measured"), uint64_t{kRounds});
  EXPECT_EQ(counter("decision.masked_dot.mispredicts"), 0u);
  EXPECT_GT(counter("decision.masked_dot.measured_units"), 0u);
  EXPECT_LE(counter("decision.masked_dot.measured_units"),
            counter("decision.masked_dot.predicted_units"));

  {
    GrB_ContextConfig cfg;
    cfg.nthreads = 4;
    GrB_Context ctx4 = nullptr;
    ASSERT_EQ(GrB_Context_new(&ctx4, GrB_NONBLOCKING, GrB_NULL, &cfg),
              GrB_SUCCESS);
    GrB_Semiring plus_oneb = nullptr;
    ASSERT_EQ(GrB_Semiring_new(&plus_oneb, GrB_PLUS_MONOID_INT64,
                               GrB_ONEB_INT64),
              GrB_SUCCESS);
    constexpr GrB_Index kBigN = 600;
    GrB_Matrix bb = random_symmetric(ctx4, kBigN, 15000, 2025);
    GrB_Matrix cc = nullptr;
    ASSERT_EQ(GrB_Matrix_new(&cc, GrB_INT64, kBigN, kBigN, ctx4),
              GrB_SUCCESS);
    ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);
    ktruss_rounds(plus_oneb, bb, cc, kRounds);
    // nvals(A) + nvals(B) of the last, smallest round still crosses the
    // exec_context threshold, so every round's cost passes used the pool.
    GrB_Index nv = 0;
    ASSERT_EQ(GrB_Matrix_nvals(&nv, bb), GrB_SUCCESS);
    EXPECT_GE(2 * nv, grb::parallel_threshold());
    EXPECT_EQ(counter("decision.masked_dot.records"), uint64_t{kRounds});
    EXPECT_EQ(counter("decision.masked_dot.measured"), uint64_t{kRounds});
    EXPECT_EQ(counter("decision.masked_dot.mispredicts"), 0u);
    EXPECT_GT(counter("decision.masked_dot.measured_units"), 0u);
    EXPECT_EQ(counter("decision.masked_dot.measured_units"),
              counter("decision.masked_dot.predicted_units"));
    std::vector<grb::obs::DecisionRecord> recs(256);
    const int nrec = grb::obs::decision_snapshot(
        recs.data(), static_cast<int>(recs.size()), nullptr, 0);
    int saxpy = 0;
    for (int r = 0; r < nrec; ++r) {
      if (recs[r].site != grb::obs::DecisionSite::kMaskedDot) continue;
      EXPECT_STREQ(recs[r].chosen, "saxpy");
      EXPECT_EQ(static_cast<double>(recs[r].measured_units),
                recs[r].predicted_cost);
      ++saxpy;
    }
    EXPECT_EQ(saxpy, kRounds);
    GrB_free(&bb);
    GrB_free(&cc);
    GrB_free(&plus_oneb);
    GrB_free(&ctx4);
  }

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

// Every queued method runs at completion: three self-applies tally
// three deferred executions, and of two back-to-back plain mxv's, the
// first (overwritten before any read) still runs.
TEST_F(ObsTest, DeferredCountersExactForHandBuiltChain) {
  GrB_Matrix a = path_matrix(8);
  GrB_Vector u = ones_vector(8);
  GrB_Vector w = ones_vector(8);

  ASSERT_EQ(GxB_Stats_enable(1), GrB_SUCCESS);
  ASSERT_EQ(GxB_Stats_reset(), GrB_SUCCESS);

  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_ABS_FP64, w, GrB_NULL),
              GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("GrB_apply.deferred"), 3u);
  EXPECT_EQ(counter("queue.enqueued"), 3u);

  for (int i = 0; i < 2; ++i)
    ASSERT_EQ(GrB_mxv(w, GrB_NULL, GrB_NULL, GrB_PLUS_TIMES_SEMIRING_FP64,
                      a, u, GrB_NULL),
              GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_EQ(counter("GrB_mxv.deferred"), 2u);
  EXPECT_EQ(counter("queue.enqueued"), 5u);
  EXPECT_EQ(counter("queue.drained"), 5u);

  GrB_free(&a);
  GrB_free(&u);
  GrB_free(&w);
}

// Exact oracles for the transpose-cache counters (DESIGN.md §15): a
// descriptor-transpose read of a snapshot either reuses its cached
// transpose (hit) or pays the counting sort (miss).
TEST_F(ObsTest, FormatCountersExactForKnownSequence) {
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

// The always-on flight recorder shows each queued method's enqueue
// before its deferred execution, and the executions in program order —
// the causal order a post-mortem reader relies on.
TEST_F(ObsTest, FlightRecorderLogsDeferralInCausalOrder) {
  GrB_Vector w = ones_vector(8);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  uint64_t before = grb::obs::fr_event_count();
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_AINV_FP64, w, GrB_NULL),
              GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  EXPECT_GE(grb::obs::fr_event_count(), before + 6);

  std::string text = grb::obs::fr_text(0);
  // Positions of the last three records of a kind, latest first.
  auto last3 = [&](const char* kind) {
    std::vector<size_t> pos;
    for (size_t at = text.rfind(kind); at != std::string::npos;
         at = at == 0 ? std::string::npos : text.rfind(kind, at - 1)) {
      pos.push_back(at);
      if (pos.size() == 3) break;
    }
    return pos;
  };
  std::vector<size_t> enq = last3("enqueue"), exec = last3("deferred-exec");
  ASSERT_EQ(enq.size(), 3u) << text;
  ASSERT_EQ(exec.size(), 3u) << text;
  EXPECT_LT(enq[0], exec[2]) << text;

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

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> parts;
  std::stringstream ss(path);
  for (std::string part; std::getline(ss, part, '/');) parts.push_back(part);
  return parts;
}

// Prometheus samples by series ("name{labels}"), each with every value
// the exposition gave it.
std::map<std::string, std::vector<std::string>> prom_samples(
    const std::string& text) {
  std::map<std::string, std::vector<std::string>> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    out[line.substr(0, sp)].push_back(line.substr(sp + 1));
  }
  return out;
}

// The series each "global" JSON key is exported as.
const std::map<std::string, std::string> kGlobalSeries = {
    {"queue.enqueued", "grb_queue_enqueued_total"},
    {"queue.high_water", "grb_queue_high_water"},
    {"queue.drained", "grb_queue_drained_total"},
    {"pending.high_water", "grb_pending_high_water"},
    {"trace.events", "grb_trace_events_total"},
    {"trace.dropped", "grb_trace_dropped_total"},
    {"spgemm.rows_hash", "grb_spgemm_rows_total{accumulator=\"hash\"}"},
    {"spgemm.rows_dense", "grb_spgemm_rows_total{accumulator=\"dense\"}"},
    {"spgemm.flops_estimated", "grb_spgemm_flops_estimated_total"},
    {"arena.reuse_hits", "grb_arena_requests_total{outcome=\"hit\"}"},
    {"arena.reuse_misses", "grb_arena_requests_total{outcome=\"miss\"}"},
    {"format.transpose_cache_hits",
     "grb_format_transpose_cache_total{outcome=\"hit\"}"},
    {"format.transpose_cache_misses",
     "grb_format_transpose_cache_total{outcome=\"miss\"}"},
    {"mem.live_bytes", "grb_memory_live_bytes"},
    {"mem.peak_bytes", "grb_memory_peak_bytes"},
    {"mem.arena_live_bytes", "grb_arena_live_bytes"},
    {"mem.arena_peak_bytes", "grb_arena_peak_bytes"},
    {"mem.objects", "grb_objects"},
    {"flight.events", "grb_flight_recorder_events_total"},
    {"flight.overwrites", "grb_flight_recorder_overwrites_total"},
    {"flight.capacity", "grb_flight_recorder_capacity"},
    {"watchdog.trips", "grb_watchdog_trips_total"},
    {"watchdog.deadline_ms", "grb_watchdog_deadline_ms"},
};

// Per-op and per-lock-site fields: series name and extra label.
using FieldSeries = std::map<std::string, std::pair<std::string, std::string>>;
const FieldSeries kOpSeries = {
    {"calls", {"grb_op_calls_total", ""}},
    {"errors", {"grb_op_errors_total", ""}},
    {"scalars", {"grb_op_scalars_total", ""}},
    {"flops", {"grb_op_flops_total", ""}},
    {"serial", {"grb_op_serial_total", ""}},
    {"parallel", {"grb_op_parallel_total", ""}},
    {"deferred", {"grb_op_deferred_total", ""}},
    {"p50_ns", {"grb_op_latency_ns", ",quantile=\"0.5\""}},
    {"p90_ns", {"grb_op_latency_ns", ",quantile=\"0.9\""}},
    {"p99_ns", {"grb_op_latency_ns", ",quantile=\"0.99\""}},
    {"max_ns", {"grb_op_latency_max_ns", ""}},
};
const FieldSeries kLockSeries = {
    {"acquires", {"grb_lock_acquisitions_total", ""}},
    {"contended", {"grb_lock_contended_total", ""}},
    {"wait_ns", {"grb_lock_wait_ns_sum", ""}},
    {"p50_ns", {"grb_lock_wait_ns", ",quantile=\"0.5\""}},
    {"p90_ns", {"grb_lock_wait_ns", ",quantile=\"0.9\""}},
    {"p99_ns", {"grb_lock_wait_ns", ",quantile=\"0.99\""}},
    {"max_ns", {"grb_lock_wait_max_ns", ""}},
};

// Keys the change may add to the parent's document: values another
// exporter already reported at the parent (lock p90_ns through
// GxB_Stats_get and the 0.9 quantile, a context's mem.peak_bytes through
// GxB_Context_stats), and whole rows of keyed sections the fixture's
// fresh process did not have — left zeroed by earlier tests when the
// suite runs in one process.
bool allowed_new_key(const std::string& path,
                     const std::set<std::string>& fixture_paths) {
  const std::vector<std::string> p = split_path(path);
  if (p[0] == "locks" && p.size() == 3 && p[2] == "p90_ns") return true;
  if (p[0] == "contexts" && p.size() == 3 && p[2] == "mem.peak_bytes")
    return true;
  const std::set<std::string> keyed = {"ops", "contexts", "locks", "pools"};
  if (keyed.count(p[0]) == 0 || p.size() < 2) return false;
  std::string row = p[0] + "/" + p[1];
  if (p[0] == "contexts" && p.size() >= 4 && p[2] == "ops")
    row += "/ops/" + p[3];
  return fixture_paths.count(row) == 0;
}

// The series each per-context memory key is exported as.
const std::map<std::string, std::string> kCtxMemSeries = {
    {"mem.live_bytes", "grb_context_memory_live_bytes"},
    {"mem.peak_bytes", "grb_context_memory_peak_bytes"},
    {"mem.objects", "grb_context_objects"},
};

// GxB_Stats_get, the stats JSON and the Prometheus exposition report
// one value for every number, after a scripted sequence on a one-thread
// context; and the JSON keeps every key the hand-listed exporters
// emitted for the same sequence, in order, with the same exact counts.
// The fixture is fixture_lines() of the document commit 5c9950e (the
// last before the metric tables) emitted for run_parity_script.  The
// script's context ends with ops but no containers; a second context
// homes a matrix built with stats off, so it has containers but no ops.
// Both exporters report memory for both.
TEST_F(ObsTest, EveryMetricAgreesAcrossExporters) {
  GrB_ContextConfig cfg;
  cfg.nthreads = 1;
  GrB_Context ctx = nullptr, home = nullptr;
  ASSERT_EQ(GrB_Context_new(&ctx, GrB_NONBLOCKING, nullptr, &cfg),
            GrB_SUCCESS);
  ASSERT_NO_FATAL_FAILURE(run_parity_script(ctx));
  ASSERT_EQ(GrB_Context_new(&home, GrB_NONBLOCKING, nullptr, &cfg),
            GrB_SUCCESS);
  GrB_Matrix homed = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&homed, GrB_FP64, 4, 4, home), GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_setElement(homed, 1.0, 1, 2), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(homed, GrB_MATERIALIZE), GrB_SUCCESS);
  const std::string ctx_id = std::to_string(ctx->obs_id());
  const std::string home_id = std::to_string(home->obs_id());

  // The JSON and the exposition are the strings GxB_Stats_json and
  // GxB_Stats_prometheus copy out, taken without a C API call: every
  // call appends a flight-recorder event, so the flight.* numbers are
  // read through stats_get at the same moment, before any GxB_Stats_get.
  // Stats are off, so nothing else moves.
  const std::string json = grb::obs::stats_json();
  const auto prom = prom_samples(grb::obs::stats_prometheus());
  std::map<std::string, uint64_t> flight;
  for (const char* name :
       {"flight.events", "flight.overwrites", "flight.capacity"})
    ASSERT_TRUE(grb::obs::stats_get(name, &flight[name])) << name;
  const std::vector<JsonEntry> entries = JsonFlattener(json).run();
  auto expect_get = [&](const std::string& name, const std::string& v) {
    uint64_t got = ~0ull;
    if (flight.count(name) != 0) {
      got = flight[name];
    } else {
      EXPECT_EQ(GxB_Stats_get(name.c_str(), &got), GrB_SUCCESS) << name;
    }
    EXPECT_EQ(std::to_string(got), v) << name;
  };
  auto expect_prom = [&](const std::string& series, const std::string& v) {
    const auto it = prom.find(series);
    ASSERT_NE(it, prom.end()) << "no Prometheus sample " << series;
    ASSERT_EQ(it->second.size(), 1u) << series;
    EXPECT_EQ(it->second[0], v) << series;
  };
  auto expect_field = [&](const FieldSeries& series, const std::string& field,
                          const std::string& labels, const std::string& v) {
    const auto it = series.find(field);
    if (it == series.end()) return;  // ns, deferred_ns: in the _sum only
    expect_prom(it->second.first + "{" + labels + it->second.second + "}", v);
  };

  std::map<std::string, uint64_t> pool_sums;
  std::map<std::string, std::map<std::string, uint64_t>> ctx_mem;
  int checked = 0;
  for (const JsonEntry& e : entries) {
    if (e.value.empty() || e.value[0] == '"' || e.value == "true" ||
        e.value == "false")
      continue;  // containers and the non-numeric fields
    const std::vector<std::string> p = split_path(e.path);
    const std::string& v = e.value;
    ++checked;
    if (p[0] == "global") {
      expect_get(p[1], v);
      ASSERT_EQ(kGlobalSeries.count(p[1]), 1u) << e.path;
      expect_prom(kGlobalSeries.at(p[1]), v);
    } else if (p[0] == "pools") {
      pool_sums[p[2]] += std::stoull(v);
      expect_prom("grb_pool_" + p[2] +
                      (p[2] == "busy_high_water" ? "" : "_total") +
                      "{pool=\"" + p[1] + "\"}",
                  v);
    } else if (p[0] == "locks") {
      expect_get("lock." + p[1] + "." + p[2], v);
      expect_field(kLockSeries, p[2], "site=\"" + p[1] + "\"", v);
    } else if (p[0] == "decisions" && p[1] == "sites") {
      expect_get("decision." + p[2] + "." + p[3], v);
      expect_prom("grb_decision_" + p[3] + "_total{site=\"" + p[2] + "\"}",
                  v);
    } else if (p[0] == "decisions") {
      expect_get("decision." + p[1], v);
      if (p[1] == "ring_capacity") expect_prom("grb_decision_ring_capacity", v);
    } else if (p[0] == "ops") {
      expect_get(p[1] + "." + p[2], v);
    } else if (p[0] == "contexts" && p.size() == 3 &&
               kCtxMemSeries.count(p[2]) != 0) {
      ctx_mem[p[1]][p[2]] = std::stoull(v);
      expect_prom(kCtxMemSeries.at(p[2]) + "{context=\"" + p[1] + "\"}", v);
      if (p[1] == ctx_id || p[1] == home_id) {
        uint64_t got = ~0ull;
        EXPECT_EQ(GxB_Context_stats(p[1] == ctx_id ? ctx : home,
                                    p[2].c_str(), &got),
                  GrB_SUCCESS);
        EXPECT_EQ(std::to_string(got), v) << e.path;
      }
    } else if (p[0] == "contexts" && p.size() == 5) {
      expect_field(kOpSeries, p[4],
                   "op=\"" + p[3] + "\",context=\"" + p[1] + "\"", v);
      if (p[1] == std::to_string(ctx->obs_id())) {
        uint64_t got = ~0ull;
        EXPECT_EQ(GxB_Context_stats(ctx, (p[3] + "." + p[4]).c_str(), &got),
                  GrB_SUCCESS);
        EXPECT_EQ(std::to_string(got), v) << e.path;
      }
    } else {
      --checked;
    }
  }
  EXPECT_GT(checked, 200);
  // Every context either exporter reports memory for, the other does too.
  for (const auto& [series, values] : prom) {
    for (const auto& [key, name] : kCtxMemSeries) {
      const std::string head = name + "{context=\"";
      if (series.rfind(head, 0) != 0) continue;
      const std::string id =
          series.substr(head.size(), series.size() - head.size() - 2);
      EXPECT_EQ(ctx_mem[id].count(key), 1u) << "JSON lacks " << series;
    }
  }
  ASSERT_EQ(ctx_mem[ctx_id].size(), kCtxMemSeries.size());
  EXPECT_EQ(ctx_mem[ctx_id]["mem.objects"], 0u);
  EXPECT_EQ(ctx_mem[ctx_id]["mem.live_bytes"], 0u);
  ASSERT_EQ(ctx_mem[home_id].size(), kCtxMemSeries.size());
  EXPECT_EQ(ctx_mem[home_id]["mem.objects"], 1u);
  EXPECT_GT(ctx_mem[home_id]["mem.live_bytes"], 0u);
  for (const JsonEntry& e : entries)
    EXPECT_NE(e.path.rfind("contexts/" + home_id + "/ops/", 0), 0u)
        << "the homed context ran no op with stats on: " << e.path;
  for (const auto& [field, sum] : pool_sums) {
    uint64_t got = ~0ull;
    EXPECT_EQ(GxB_Stats_get(("pool." + field).c_str(), &got), GrB_SUCCESS);
    EXPECT_EQ(got, sum) << field;
  }

  std::ifstream fixture(std::string(GRB_OBS_FIXTURE_DIR) +
                        "/stats_keys_parent.txt");
  ASSERT_TRUE(fixture.good());
  std::vector<std::string> want;
  std::set<std::string> fixture_paths;
  for (std::string line; std::getline(fixture, line);) {
    want.push_back(line);
    fixture_paths.insert(line.substr(0, line.find('\t')));
  }
  size_t matched = 0;
  for (const std::string& line : fixture_lines(entries, ctx->obs_id())) {
    if (matched < want.size() && line == want[matched]) {
      ++matched;
      continue;
    }
    EXPECT_TRUE(allowed_new_key(line.substr(0, line.find('\t')),
                                fixture_paths))
        << "key not emitted at the parent, or a changed count: " << line;
  }
  EXPECT_EQ(matched, want.size())
      << "first parent key missing or out of order: "
      << (matched < want.size() ? want[matched] : "");

  // No exporter reports a hardware profiler or a transpose_cache
  // decision site: neither exists.
  uint64_t gone = ~0ull;
  for (const char* name :
       {"prof.regions", "decision.transpose_cache.records"})
    EXPECT_EQ(GxB_Stats_get(name, &gone), GrB_NO_VALUE) << name;
  for (const JsonEntry& e : entries) {
    EXPECT_NE(split_path(e.path)[0], "prof") << e.path;
    EXPECT_NE(e.path.rfind("decisions/sites/transpose_cache", 0), 0u)
        << e.path;
  }
  for (const auto& [series, values] : prom) {
    EXPECT_NE(series.rfind("grb_prof", 0), 0u) << series;
    EXPECT_EQ(series.find("site=\"transpose_cache\""), std::string::npos)
        << series;
  }
  GrB_free(&homed);
  GrB_free(&home);
  GrB_free(&ctx);
}

// Four writers lap a 64-slot ring while a reader reads it: every
// record the reader gets back is one whole payload, the one pushed
// under that sequence number — also when a writer preempted between its
// claim and its stores is lapped and writes into a slot a newer entry
// already holds.
TEST_F(ObsTest, SeqRingLappingWritersNeverTearReads) {
  struct Rec {
    uint64_t key;
    uint64_t twice;
    uint64_t inverse;
    uint64_t mixed;
  };
  constexpr uint64_t kCap = 64;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  constexpr uint64_t kTotal = kWriters * kPerWriter;
  grb::obs::SeqRing<Rec> ring(kCap);
  std::vector<std::atomic<uint64_t>> key_of_seq(kTotal + 1);
  std::atomic<bool> done{false};
  std::vector<std::pair<uint64_t, Rec>> seen;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire) && seen.size() < 200000) {
      const uint64_t head = ring.head();
      for (uint64_t seq = head > kCap ? head - kCap + 1 : 1; seq <= head;
           ++seq) {
        Rec r;
        if (ring.read(seq, &r)) seen.push_back({seq, r});
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const uint64_t key = (uint64_t(w + 1) << 32) | i;
        const uint64_t seq =
            ring.push({key, key * 2, ~key, key ^ 0x9E3779B97F4A7C15ull});
        key_of_seq[seq].store(key, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(ring.head(), kTotal);
  EXPECT_EQ(ring.capacity(), kCap);
  EXPECT_EQ(ring.overwrites(), ring.head() - ring.capacity());
  // The final window reads back too, save slots a lapped writer
  // preempted mid-push overwrote after their newer entry landed.
  size_t last_window = 0;
  for (uint64_t seq = kTotal - kCap + 1; seq <= kTotal; ++seq) {
    Rec r;
    if (!ring.read(seq, &r)) continue;
    seen.push_back({seq, r});
    ++last_window;
  }
  EXPECT_GT(last_window, kCap / 2);
  uint64_t torn = 0;
  for (const auto& [seq, r] : seen) {
    torn += r.twice != r.key * 2 || r.inverse != ~r.key ||
            r.mixed != (r.key ^ 0x9E3779B97F4A7C15ull) ||
            r.key != key_of_seq[seq].load(std::memory_order_relaxed);
  }
  EXPECT_EQ(torn, 0u) << "of " << seen.size() << " records read";
  EXPECT_FALSE(ring.read(kTotal - kCap, nullptr));  // lapped
  EXPECT_FALSE(ring.read(kTotal + 1, nullptr));     // not yet written
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
