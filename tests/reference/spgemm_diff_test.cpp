// Differential oracle for the adaptive SpGEMM engine.
//
// The engine promises bitwise-identical results for every accumulator
// mode (reference two-pass kernel / hash SPA / dense SPA / auto
// per-row mix), every dense-budget setting (which flips rows between
// accumulators), every mxm strategy override, the typed fastpath vs the
// generic runner, and any thread count.  This harness fixes random
// real-valued inputs — where any change in floating-point fold order
// would show — and requires exact equality of every combination against
// the reference mode run serially.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/global.hpp"
#include "ops/mxm.hpp"
#include "tests/grb_test_util.hpp"
#include "util/prng.hpp"

namespace {

struct ThresholdGuard {
  size_t saved;
  ThresholdGuard() : saved(grb::parallel_threshold()) {
    grb::set_parallel_threshold(1);
  }
  ~ThresholdGuard() { grb::set_parallel_threshold(saved); }
};

struct ModeGuard {
  grb::SpgemmMode saved;
  explicit ModeGuard(grb::SpgemmMode m) : saved(grb::spgemm_mode()) {
    grb::set_spgemm_mode(m);
  }
  ~ModeGuard() { grb::set_spgemm_mode(saved); }
};

struct BudgetGuard {
  size_t saved;
  explicit BudgetGuard(size_t bytes) : saved(grb::spgemm_dense_budget()) {
    grb::set_spgemm_dense_budget(bytes);
  }
  ~BudgetGuard() { grb::set_spgemm_dense_budget(saved); }
};

struct StrategyGuard {
  grb::MxmStrategy saved;
  explicit StrategyGuard(grb::MxmStrategy s) : saved(grb::mxm_strategy()) {
    grb::set_mxm_strategy(s);
  }
  ~StrategyGuard() { grb::set_mxm_strategy(saved); }
};

struct FastpathGuard {
  bool saved;
  explicit FastpathGuard(bool on) : saved(grb::fastpath_enabled()) {
    grb::set_fastpath_enabled(on);
  }
  ~FastpathGuard() { grb::set_fastpath_enabled(saved); }
};

GrB_Context make_ctx(int nthreads) {
  GrB_ContextConfig cfg;
  cfg.nthreads = nthreads;
  GrB_Context ctx = nullptr;
  EXPECT_EQ(GrB_Context_new(&ctx, GrB_BLOCKING, GrB_NULL, &cfg),
            GrB_SUCCESS);
  return ctx;
}

ref::Mat real_mat(GrB_Index nr, GrB_Index nc, double density,
                  uint64_t seed) {
  grb::Prng rng(seed);
  ref::Mat m(nr, nc);
  for (auto& c : m.cells)
    if (rng.uniform() < density) c = rng.uniform() * 10.0 - 5.0;
  return m;
}

ref::Mat mask_mat(GrB_Index nr, GrB_Index nc, uint64_t seed) {
  grb::Prng rng(seed);
  ref::Mat m(nr, nc);
  for (auto& c : m.cells)
    if (rng.uniform() < 0.3) c = rng.below(2) ? 1.0 : 0.0;
  return m;
}

struct Config {
  bool mask;
  bool structural;
  bool accum;
  bool replace;
  bool comp = false;
  bool tran1 = false;  // B is passed transposed (GrB_DESC_*T1)
};

std::vector<Config> all_configs() {
  return {
      {false, false, false, false},  // plain
      {false, false, true, false},   // accum only
      {true, false, false, false},   // valued mask
      {true, true, false, false},    // structural mask
      {true, true, true, true},      // structural mask + accum + replace
  };
}

GrB_Descriptor desc_for(const Config& c) {
  // Indexed by replace | comp << 1 | structural << 2.
  const GrB_Descriptor plain[] = {GrB_NULL,   GrB_DESC_R,  GrB_DESC_C,
                                  GrB_DESC_RC, GrB_DESC_S, GrB_DESC_RS,
                                  GrB_DESC_SC, GrB_DESC_RSC};
  const GrB_Descriptor tran1[] = {GrB_DESC_T1,   GrB_DESC_RT1,
                                  GrB_DESC_CT1,  GrB_DESC_RCT1,
                                  GrB_DESC_ST1,  GrB_DESC_RST1,
                                  GrB_DESC_SCT1, GrB_DESC_RSCT1};
  const int k = (c.replace ? 1 : 0) | (c.comp ? 2 : 0) |
                (c.structural ? 4 : 0);
  return c.tran1 ? tran1[k] : plain[k];
}

std::string config_name(const Config& c) {
  std::string s;
  s += c.mask ? (c.structural ? "maskS" : "maskV") : "nomask";
  s += c.comp ? "+comp" : "";
  s += c.accum ? "+accum" : "";
  s += c.replace ? "+replace" : "";
  s += c.tran1 ? "+T1" : "";
  return s;
}

// Runs C<M> (+)= A*B with the current engine overrides in an
// nthreads-context and returns C's final contents.
ref::Mat run_mxm(int nthreads, const Config& cfg, GrB_Semiring semiring,
                 const ref::Mat& rc0, const ref::Mat& ra, const ref::Mat& rb,
                 const ref::Mat& rm) {
  GrB_Context ctx = make_ctx(nthreads);
  GrB_Matrix c = testutil::make_matrix(rc0, ctx);
  GrB_Matrix a = testutil::make_matrix(ra, ctx);
  GrB_Matrix b = testutil::make_matrix(rb, ctx);
  GrB_Matrix m = cfg.mask ? testutil::make_matrix(rm, ctx) : nullptr;
  EXPECT_EQ(GrB_mxm(c, m, cfg.accum ? GrB_PLUS_FP64 : GrB_NULL, semiring, a,
                    b, desc_for(cfg)),
            GrB_SUCCESS);
  ref::Mat out = testutil::to_ref(c);
  GrB_free(&c);
  GrB_free(&a);
  GrB_free(&b);
  if (m != nullptr) GrB_free(&m);
  GrB_free(&ctx);
  return out;
}

// Rectangular dims so row/column index mixups cannot cancel out.
constexpr GrB_Index kM = 40, kK = 56, kN = 32;

void sweep_engine(uint64_t seed, GrB_Semiring semiring) {
  ThresholdGuard threshold;
  ref::Mat rc0 = real_mat(kM, kN, 0.25, seed + 1);
  ref::Mat ra = real_mat(kM, kK, 0.2, seed + 2);
  ref::Mat rb = real_mat(kK, kN, 0.25, seed + 3);
  ref::Mat rm = mask_mat(kM, kN, seed + 4);

  struct Leg {
    const char* name;
    grb::SpgemmMode mode;
    size_t budget;  // 0 = leave default
  };
  const Leg legs[] = {
      {"reference", grb::SpgemmMode::kReference, 0},
      {"hash", grb::SpgemmMode::kHash, 0},
      {"dense", grb::SpgemmMode::kDense, 0},
      {"auto", grb::SpgemmMode::kAuto, 0},
      // A 1 KiB budget forces every row (and a pinned dense mode) onto
      // the hash accumulator — the hypersparse fallback path.
      {"auto-tiny-budget", grb::SpgemmMode::kAuto, 1024},
      {"dense-tiny-budget", grb::SpgemmMode::kDense, 1024},
  };

  for (const Config& cfg : all_configs()) {
    ref::Mat expect;
    {
      ModeGuard mode(grb::SpgemmMode::kReference);
      expect = run_mxm(1, cfg, semiring, rc0, ra, rb, rm);
    }
    for (const Leg& leg : legs) {
      ModeGuard mode(leg.mode);
      BudgetGuard budget(leg.budget != 0 ? leg.budget
                                         : grb::spgemm_dense_budget());
      for (int nthreads : {1, 4}) {
        ref::Mat got = run_mxm(nthreads, cfg, semiring, rc0, ra, rb, rm);
        EXPECT_TRUE(testutil::mats_equal(expect, got))
            << config_name(cfg) << " " << leg.name
            << " nthreads=" << nthreads;
      }
    }
  }
}

TEST(SpgemmDiff, PlusTimesAllModes) {
  sweep_engine(4100, GrB_PLUS_TIMES_SEMIRING_FP64);
}

TEST(SpgemmDiff, MinPlusAllModes) {
  sweep_engine(4200, GrB_MIN_PLUS_SEMIRING_FP64);
}

// The generic SemiringRunner and the typed fastpath instantiate the same
// accumulators; their results must match bit for bit in every mode.
TEST(SpgemmDiff, FastpathMatchesGeneric) {
  ThresholdGuard threshold;
  ref::Mat rc0 = real_mat(kM, kN, 0.25, 4301);
  ref::Mat ra = real_mat(kM, kK, 0.2, 4302);
  ref::Mat rb = real_mat(kK, kN, 0.25, 4303);
  ref::Mat rm = mask_mat(kM, kN, 4304);
  Config cfg{true, true, true, false};
  for (grb::SpgemmMode m :
       {grb::SpgemmMode::kHash, grb::SpgemmMode::kDense,
        grb::SpgemmMode::kAuto}) {
    ModeGuard mode(m);
    ref::Mat fast, generic;
    {
      FastpathGuard fp(true);
      fast = run_mxm(4, cfg, GrB_PLUS_TIMES_SEMIRING_FP64, rc0, ra, rb, rm);
    }
    {
      FastpathGuard fp(false);
      generic =
          run_mxm(4, cfg, GrB_PLUS_TIMES_SEMIRING_FP64, rc0, ra, rb, rm);
    }
    EXPECT_TRUE(testutil::mats_equal(fast, generic))
        << "mode=" << static_cast<int>(m);
  }
}

// Strategy overrides on a structural-masked multiply: Gustavson (through
// the adaptive engine) and masked-dot must agree with the reference.
TEST(SpgemmDiff, StrategyOverrides) {
  ThresholdGuard threshold;
  ref::Mat rc0 = real_mat(kM, kN, 0.25, 4401);
  ref::Mat ra = real_mat(kM, kK, 0.2, 4402);
  ref::Mat rb = real_mat(kK, kN, 0.25, 4403);
  ref::Mat rm = mask_mat(kM, kN, 4404);
  Config cfg{true, true, false, false};
  ref::Mat expect;
  {
    ModeGuard mode(grb::SpgemmMode::kReference);
    StrategyGuard strat(grb::MxmStrategy::kGustavson);
    expect = run_mxm(1, cfg, GrB_PLUS_TIMES_SEMIRING_FP64, rc0, ra, rb, rm);
  }
  for (grb::MxmStrategy s :
       {grb::MxmStrategy::kAuto, grb::MxmStrategy::kGustavson,
        grb::MxmStrategy::kMaskedDot}) {
    for (grb::SpgemmMode m :
         {grb::SpgemmMode::kHash, grb::SpgemmMode::kDense,
          grb::SpgemmMode::kAuto}) {
      StrategyGuard strat(s);
      ModeGuard mode(m);
      for (int nthreads : {1, 4}) {
        ref::Mat got =
            run_mxm(nthreads, cfg, GrB_PLUS_TIMES_SEMIRING_FP64, rc0, ra,
                    rb, rm);
        EXPECT_TRUE(testutil::mats_equal(expect, got))
            << "strategy=" << static_cast<int>(s)
            << " mode=" << static_cast<int>(m) << " nthreads=" << nthreads;
      }
    }
  }
}

// A wide output (ncols past the always-dense footprint) makes the auto
// policy genuinely mix hash and dense rows in one product: most rows are
// sparse, a few heavy rows of A cross the flop threshold.
TEST(SpgemmDiff, AutoMixesAccumulators) {
  ThresholdGuard threshold;
  constexpr GrB_Index kRows = 24, kInner = 48, kWide = 20000;
  ref::Mat rc0(kRows, kWide);
  ref::Mat ra = real_mat(kRows, kInner, 0.15, 4501);
  // Two heavy rows: dense rows of A expand into every row of B.
  for (GrB_Index k = 0; k < kInner; ++k) {
    ra.cells[3 * kInner + k] = 1.5;
    ra.cells[17 * kInner + k] = -0.75;
  }
  ref::Mat rb = real_mat(kInner, kWide, 0.02, 4502);
  ref::Mat rm(kRows, kWide);
  Config cfg{false, false, false, false};
  ref::Mat expect;
  {
    ModeGuard mode(grb::SpgemmMode::kReference);
    expect =
        run_mxm(1, cfg, GrB_PLUS_TIMES_SEMIRING_FP64, rc0, ra, rb, rm);
  }
  for (grb::SpgemmMode m :
       {grb::SpgemmMode::kHash, grb::SpgemmMode::kDense,
        grb::SpgemmMode::kAuto}) {
    ModeGuard mode(m);
    for (int nthreads : {1, 4}) {
      ref::Mat got =
          run_mxm(nthreads, cfg, GrB_PLUS_TIMES_SEMIRING_FP64, rc0, ra, rb,
                  rm);
      EXPECT_TRUE(testutil::mats_equal(expect, got))
          << "mode=" << static_cast<int>(m) << " nthreads=" << nthreads;
    }
  }
}

// The mask-driven saxpy serves structural, non-complemented masks; every
// other mask kind keeps the unmasked engine.  Across all mask kinds,
// replace and merge, accum and none, B plain or transposed, each
// strategy, 1 and 4 threads, and a dense budget below the saxpy's
// ncols * (1 + zsize) scratch (which forces the fallback), the result
// must equal the serial reference kernel bit for bit.  C starts with
// entries inside and outside M, so the write-back bypass must not fire
// on merge calls.
TEST(SpgemmDiff, MaskedSaxpyAllMaskKinds) {
  ThresholdGuard threshold;
  ref::Mat rc0 = real_mat(kM, kN, 0.25, 4601);
  ref::Mat ra = real_mat(kM, kK, 0.2, 4602);
  ref::Mat rb = real_mat(kK, kN, 0.25, 4603);
  ref::Mat rbt = real_mat(kN, kK, 0.25, 4603);
  ref::Mat rm = mask_mat(kM, kN, 4604);
  // Below the saxpy's 32 * (1 + 8) bytes of flags and values.
  constexpr size_t kTinyBudget = 256;
  for (int bits = 0; bits < 32; ++bits) {
    Config cfg{true, (bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
               (bits & 8) != 0, (bits & 16) != 0};
    const ref::Mat& b = cfg.tran1 ? rbt : rb;
    ref::Mat expect;
    {
      ModeGuard mode(grb::SpgemmMode::kReference);
      StrategyGuard strat(grb::MxmStrategy::kGustavson);
      expect = run_mxm(1, cfg, GrB_PLUS_TIMES_SEMIRING_FP64, rc0, ra, b, rm);
    }
    for (grb::MxmStrategy st :
         {grb::MxmStrategy::kGustavson, grb::MxmStrategy::kAuto,
          grb::MxmStrategy::kMaskedDot}) {
      for (size_t budget : {grb::spgemm_dense_budget(), kTinyBudget}) {
        StrategyGuard strat(st);
        BudgetGuard guard(budget);
        for (int nthreads : {1, 4}) {
          ref::Mat got = run_mxm(nthreads, cfg, GrB_PLUS_TIMES_SEMIRING_FP64,
                                 rc0, ra, b, rm);
          EXPECT_TRUE(testutil::mats_equal(expect, got))
              << config_name(cfg) << " strategy=" << static_cast<int>(st)
              << " budget=" << budget << " nthreads=" << nthreads;
        }
      }
    }
  }
}

// ---- filter-then-fold masked saxpy, below the dispatcher -------------
//
// The kernel walks each B(k,:) in kSaxpyChunk-position chunks: a
// branch-free pass lists the positions whose column is in M(i,:), then
// the fold visits only those.  Its T must equal the serial reference
// product restricted to M's pattern, bit for bit, for the typed runner
// (reached through fastpath_masked_saxpy_mxm) and the generic one, at 1
// and 4 threads, and after a call on other inputs has left the thread's
// accumulator slots dirty.  B has rows longer than two chunks plus a
// remainder; values make FP64 products of -0.0, NaN and Inf, INT64
// products that wrap, and BOOL LOR_LAND; M has an empty row and a row
// no product lands in.

template <class T>
struct SaxpyDomain;

template <>
struct SaxpyDomain<double> {
  static GrB_Type type() { return GrB_FP64; }
  static std::vector<double> pool() {
    const double inf = std::numeric_limits<double>::infinity();
    return {-0.0, 0.0, std::numeric_limits<double>::quiet_NaN(), inf, -inf,
            1.5,  -2.0, 1e308, -3.25};
  }
  static std::vector<GrB_Semiring> semirings() {
    return {GrB_PLUS_TIMES_SEMIRING_FP64, GrB_MIN_PLUS_SEMIRING_FP64};
  }
};

template <>
struct SaxpyDomain<int64_t> {
  static GrB_Type type() { return GrB_INT64; }
  static std::vector<int64_t> pool() {
    return {std::numeric_limits<int64_t>::max(),
            std::numeric_limits<int64_t>::min(),
            -1,
            3,
            int64_t{1} << 62,
            -(int64_t{1} << 61) + 5,
            0};
  }
  static std::vector<GrB_Semiring> semirings() {
    return {GrB_PLUS_TIMES_SEMIRING_INT64};
  }
};

template <>
struct SaxpyDomain<bool> {
  static GrB_Type type() { return GrB_BOOL; }
  static std::vector<bool> pool() { return {true, false}; }
  static std::vector<GrB_Semiring> semirings() {
    return {GrB_LOR_LAND_SEMIRING_BOOL};
  }
};

// 700 columns: a dense B row is two 256-position chunks plus 188.
constexpr GrB_Index kSm = 48, kSk = 40, kSn = 700;
constexpr GrB_Index kNoHitRow = 7, kEmptyMaskRow = 3, kEmptyARow = 11;

// keep(i, j) picks the pattern; values are drawn from the domain pool.
template <class T, class Keep>
GrB_Matrix pool_matrix(GrB_Index nr, GrB_Index nc, uint64_t seed,
                       Keep&& keep) {
  const std::vector<T> pool = SaxpyDomain<T>::pool();
  grb::Prng rng(seed);
  std::vector<GrB_Index> rows, cols;
  std::unique_ptr<T[]> vals(new T[nr * nc]);
  for (GrB_Index i = 0; i < nr; ++i) {
    for (GrB_Index j = 0; j < nc; ++j) {
      const uint64_t draw = rng.below(100);
      if (!keep(i, j, draw)) continue;
      vals[rows.size()] = pool[rng.below(pool.size())];
      rows.push_back(i);
      cols.push_back(j);
    }
  }
  GrB_Matrix m = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&m, SaxpyDomain<T>::type(), nr, nc), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_build(m, rows.data(), cols.data(), vals.get(),
                             rows.size(), GrB_NULL),
            GrB_SUCCESS);
  return m;
}

struct SaxpyInputs {
  GrB_Matrix a = nullptr, b = nullptr, m = nullptr;
  std::shared_ptr<const grb::MatrixData> sa, sb, sm;
  ~SaxpyInputs() {
    GrB_free(&a);
    GrB_free(&b);
    GrB_free(&m);
  }
};

template <class T>
void make_saxpy_inputs(SaxpyInputs* in, uint64_t seed) {
  in->a = pool_matrix<T>(kSm, kSk, seed + 1, [](auto i, auto k, auto d) {
    if (i == kNoHitRow) return k == 1;
    return i != kEmptyARow && d < 25;
  });
  in->b = pool_matrix<T>(kSk, kSn, seed + 2, [](auto k, auto j, auto d) {
    if (k == 1) return j < 10;
    return k % 6 == 0 || d < 5;
  });
  in->m = pool_matrix<T>(kSm, kSn, seed + 3, [](auto i, auto j, auto d) {
    if (i == kNoHitRow) return j >= 100 && j < 120;
    return i != kEmptyMaskRow && d < 20;
  });
  ASSERT_EQ(in->a->snapshot(&in->sa), grb::Info::kSuccess);
  ASSERT_EQ(in->b->snapshot(&in->sb), grb::Info::kSuccess);
  ASSERT_EQ(in->m->snapshot(&in->sm), grb::Info::kSuccess);
}

// T against the reference product inside M; the row lengths of T are
// exactly the reference entries that fall inside M.
void expect_reference_inside_mask(const grb::MatrixData& t,
                                  const grb::MatrixData& full,
                                  const grb::MatrixData& m, size_t zsize,
                                  const std::string& leg) {
  ASSERT_EQ(t.ptr.size(), kSm + 1) << leg;
  for (GrB_Index i = 0; i < kSm; ++i) {
    size_t k = t.ptr[i];
    for (size_t kf = full.ptr[i]; kf < full.ptr[i + 1]; ++kf) {
      const GrB_Index j = full.col[kf];
      if (m.find(i, j) == grb::MatrixData::npos) continue;
      ASSERT_LT(k, t.ptr[i + 1]) << leg << " row " << i;
      EXPECT_EQ(t.col[k], j) << leg << " row " << i;
      EXPECT_EQ(std::memcmp(t.vals.at(k), full.vals.at(kf), zsize), 0)
          << leg << " (" << i << "," << j << ")";
      ++k;
    }
    EXPECT_EQ(k, t.ptr[i + 1]) << leg << " row " << i;
  }
  EXPECT_EQ(t.ptr[kNoHitRow], t.ptr[kNoHitRow + 1]) << leg;
  EXPECT_EQ(t.ptr[kEmptyMaskRow], t.ptr[kEmptyMaskRow + 1]) << leg;
}

template <class T>
void check_saxpy_kernel() {
  ThresholdGuard threshold;
  SaxpyInputs in, decoy;
  make_saxpy_inputs<T>(&in, 4800);
  make_saxpy_inputs<T>(&decoy, 4900);
  const grb::MatrixData &a = *in.sa, &b = *in.sb, &m = *in.sm;
  auto costs = grb::spgemm_row_costs(grb::serial_context(), in.sa, in.sb);
  auto decoy_costs = grb::spgemm_row_costs(grb::serial_context(), decoy.sa,
                                           decoy.sb);
  ASSERT_GT(b.ptr[1] - b.ptr[0], 2 * grb::kSaxpyChunk);
  ASSERT_NE(costs->flops[kNoHitRow], 0u);
  for (GrB_Semiring ring : SaxpyDomain<T>::semirings()) {
    const grb::Type* z = ring->mul()->ztype();
    auto generic = [&] { return grb::SemiringRunner(ring, a.type, b.type); };
    auto full = grb::spgemm_reference_kernel(grb::serial_context(), a, b, z,
                                             generic);
    for (int nthreads : {1, 4}) {
      GrB_Context ctx = make_ctx(nthreads);
      for (bool typed : {true, false}) {
        const std::string leg = ring->name() + std::string(" ") +
                                (typed ? "typed" : "generic") +
                                " nthreads=" + std::to_string(nthreads);
        // Two calls in a row: the decoy leaves other values in every
        // worker's accumulator slots before the call under test.
        for (int call = 0; call < 2; ++call) {
          const SaxpyInputs& run = call == 0 ? decoy : in;
          const grb::SpgemmRowCosts& rc = call == 0 ? *decoy_costs : *costs;
          std::shared_ptr<grb::MatrixData> t;
          if (typed) {
            t = grb::fastpath_masked_saxpy_mxm(ctx, *run.sa, *run.sb,
                                               *run.sm, ring, rc);
            ASSERT_NE(t, nullptr) << leg;
          } else {
            t = grb::mxm_masked_saxpy_kernel(
                ctx, *run.sa, *run.sb, *run.sm, z, rc, [&] {
                  return grb::SemiringRunner(ring, run.sa->type,
                                             run.sb->type);
                });
          }
          if (call == 1)
            expect_reference_inside_mask(*t, *full, m, z->size(), leg);
        }
      }
      GrB_free(&ctx);
    }
  }
}

TEST(SpgemmDiff, SaxpyFilterFoldFp64) { check_saxpy_kernel<double>(); }
TEST(SpgemmDiff, SaxpyFilterFoldInt64) { check_saxpy_kernel<int64_t>(); }
TEST(SpgemmDiff, SaxpyFilterFoldBool) { check_saxpy_kernel<bool>(); }

// ---- <PLUS, ONEB> counts ----------------------------------------------
//
// <PLUS, ONEB> makes C(i,j) the number of k with A(i,k) and B(k,j) both
// present; the typed runner's multiply ignores its operands.
// The masked saxpy and the masked dot (each pinned) and the unmasked
// Gustavson engine, typed and generic, at 1 and 4 threads, must equal
// PLUS_TIMES on the ONEB-applied operands and the reference engine bit
// for bit.  The operands hold the pool values above, never 1 (NaN, Inf,
// INT64s whose products wrap), so a kernel that read them would show.
// The typed masked saxpy takes the count fold; the inputs carry its edge
// cases: mask entries no product lands on (all of kNoHitRow, and some in
// rows that do get counts), B rows longer than two kSaxpyChunk, and an
// empty mask row with candidates (kEmptyMaskRow).

template <class T>
struct Tuples {
  std::vector<GrB_Index> rows, cols;
  std::vector<T> vals;
  bool operator==(const Tuples& o) const {
    return rows == o.rows && cols == o.cols && vals.size() == o.vals.size() &&
           std::memcmp(vals.data(), o.vals.data(), vals.size() * sizeof(T)) ==
               0;
  }
};

template <class T>
Tuples<T> tuples_of(GrB_Matrix c) {
  Tuples<T> t;
  GrB_Index n = 0;
  EXPECT_EQ(GrB_Matrix_nvals(&n, c), GrB_SUCCESS);
  t.rows.resize(n);
  t.cols.resize(n);
  t.vals.resize(n);
  EXPECT_EQ(GrB_Matrix_extractTuples(t.rows.data(), t.cols.data(),
                                     t.vals.data(), &n, c),
            GrB_SUCCESS);
  return t;
}

// A copy of `src` homed in `ctx` (a method's objects share a context).
template <class T>
GrB_Matrix home_copy(GrB_Context ctx, GrB_Matrix src) {
  GrB_Index nr = 0, nc = 0;
  EXPECT_EQ(GrB_Matrix_nrows(&nr, src), GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_ncols(&nc, src), GrB_SUCCESS);
  Tuples<T> t = tuples_of<T>(src);
  GrB_Matrix m = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&m, SaxpyDomain<T>::type(), nr, nc, ctx),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_Matrix_build(m, t.rows.data(), t.cols.data(), t.vals.data(),
                             t.rows.size(), GrB_NULL),
            GrB_SUCCESS);
  return m;
}

// C<M, struct> = A*B (no mask when m is null), every object homed in a
// fresh nthreads-context.
template <class T>
Tuples<T> count_mxm(int nthreads, GrB_Semiring ring, GrB_Matrix a,
                    GrB_Matrix b, GrB_Matrix m) {
  GrB_Context ctx = make_ctx(nthreads);
  GrB_Matrix ca = home_copy<T>(ctx, a), cb = home_copy<T>(ctx, b);
  GrB_Matrix cm = m != nullptr ? home_copy<T>(ctx, m) : nullptr;
  GrB_Matrix c = nullptr;
  EXPECT_EQ(GrB_Matrix_new(&c, SaxpyDomain<T>::type(), kSm, kSn, ctx),
            GrB_SUCCESS);
  EXPECT_EQ(GrB_mxm(c, cm, GrB_NULL, ring, ca, cb,
                    cm != nullptr ? GrB_DESC_S : GrB_NULL),
            GrB_SUCCESS);
  Tuples<T> t = tuples_of<T>(c);
  GrB_free(&c);
  GrB_free(&ca);
  GrB_free(&cb);
  if (cm != nullptr) GrB_free(&cm);
  GrB_free(&ctx);
  return t;
}

template <class T>
void check_plus_oneb_counts() {
  constexpr bool kFp = std::is_same_v<T, double>;
  ThresholdGuard threshold;
  SaxpyInputs in;
  make_saxpy_inputs<T>(&in, 5200);
  auto costs = grb::spgemm_row_costs(grb::serial_context(), in.sa, in.sb);
  ASSERT_GT(in.sb->ptr[1] - in.sb->ptr[0], 2 * grb::kSaxpyChunk);
  ASSERT_NE(costs->flops[kNoHitRow], 0u);
  ASSERT_NE(costs->flops[kEmptyMaskRow], 0u);
  ASSERT_EQ(in.sm->ptr[kEmptyMaskRow], in.sm->ptr[kEmptyMaskRow + 1]);
  GrB_BinaryOp oneb = kFp ? GrB_ONEB_FP64 : GrB_ONEB_INT64;
  GrB_Semiring plus_times =
      kFp ? GrB_PLUS_TIMES_SEMIRING_FP64 : GrB_PLUS_TIMES_SEMIRING_INT64;
  GrB_Semiring plus_oneb = nullptr;
  ASSERT_EQ(GrB_Semiring_new(&plus_oneb,
                             kFp ? GrB_PLUS_MONOID_FP64 : GrB_PLUS_MONOID_INT64,
                             oneb),
            GrB_SUCCESS);
  GrB_Matrix a1 = nullptr, b1 = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a1, SaxpyDomain<T>::type(), kSm, kSk),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_Matrix_new(&b1, SaxpyDomain<T>::type(), kSk, kSn),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_apply(a1, GrB_NULL, GrB_NULL, oneb, in.a, T{1}, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_apply(b1, GrB_NULL, GrB_NULL, oneb, in.b, T{1}, GrB_NULL),
            GrB_SUCCESS);
  for (GrB_Matrix m : {in.m, static_cast<GrB_Matrix>(nullptr)}) {
    const std::string what = m != nullptr ? "masked" : "unmasked";
    Tuples<T> want, reference;
    {
      StrategyGuard gustavson(grb::MxmStrategy::kGustavson);
      want = count_mxm<T>(1, plus_times, a1, b1, m);
      ModeGuard mode(grb::SpgemmMode::kReference);
      reference = count_mxm<T>(1, plus_oneb, in.a, in.b, m);
    }
    ASSERT_FALSE(want.vals.empty()) << what;
    if (m != nullptr) {
      // The rows without a product emit nothing, and some row with
      // counts has a mask entry that gets none.
      std::vector<size_t> per_row(kSm, 0);
      for (GrB_Index i : want.rows) ++per_row[i];
      EXPECT_EQ(per_row[kNoHitRow], 0u) << what;
      EXPECT_EQ(per_row[kEmptyMaskRow], 0u) << what;
      bool partial = false;
      for (GrB_Index i = 0; i < kSm; ++i) {
        partial |= per_row[i] != 0 &&
                   per_row[i] < in.sm->ptr[i + 1] - in.sm->ptr[i];
      }
      EXPECT_TRUE(partial) << what;
    }
    EXPECT_TRUE(reference == want) << what << " reference engine";
    std::vector<grb::MxmStrategy> strategies = {grb::MxmStrategy::kGustavson};
    if (m != nullptr) strategies.push_back(grb::MxmStrategy::kMaskedDot);
    for (grb::MxmStrategy strategy : strategies) {
      StrategyGuard pin(strategy);
      for (int nthreads : {1, 4}) {
        for (bool typed : {true, false}) {
          FastpathGuard fastpath(typed);
          EXPECT_TRUE(count_mxm<T>(nthreads, plus_oneb, in.a, in.b, m) ==
                      want)
              << what << " strategy=" << static_cast<int>(strategy)
              << " nthreads=" << nthreads << (typed ? " typed" : " generic");
        }
      }
    }
  }
  GrB_free(&a1);
  GrB_free(&b1);
  GrB_free(&plus_oneb);
}

TEST(SpgemmDiff, PlusOnebCountsMatchPlusTimesOnOnes) {
  check_plus_oneb_counts<int64_t>();
  check_plus_oneb_counts<double>();
}

}  // namespace
