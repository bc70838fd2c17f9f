// Differential test of the pending-tuple fold: setElement/removeElement
// streams folded by GrB_wait, checked entry by entry (bitwise) against a
// std::map reference, for matrices and vectors over 1-, 8- and 24-byte
// domains.  Covers a base with empty first and last rows, repeated keys
// within a batch (the last write wins), deletes of present and absent
// entries, a row emptied by deletes, inserts into empty rows, the
// prefix-split fold (a deferred op that reads the object between two
// setElement bursts), and a base over 2^40 columns, whose keys need
// every radix digit.  Every case frees its objects and checks
// that mem.live_bytes is back at its baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "tests/grb_test_util.hpp"

namespace {

using Bytes = std::vector<uint8_t>;
using Key = std::pair<GrB_Index, GrB_Index>;
using Ref = std::map<Key, Bytes>;

enum class Dom { kBool, kFp64, kUdt24 };

struct Udt24 {
  uint8_t b[24];
};

void udt_bump(void* z, const void* x) {
  Udt24 v;
  std::memcpy(&v, x, sizeof v);
  for (uint8_t& c : v.b) c = static_cast<uint8_t>(c + 1);
  std::memcpy(z, &v, sizeof v);
}

uint64_t live_bytes() {
  uint64_t v = 0;
  EXPECT_EQ(GxB_Stats_get("mem.live_bytes", &v), GrB_SUCCESS);
  return v;
}

// One domain: its type, a value generator, and a unary op with its
// reference (applied in place by the deferred op of the split case).
class Domain {
 public:
  explicit Domain(Dom d) : dom_(d) {
    switch (d) {
      case Dom::kBool:
        type_ = GrB_BOOL;
        op_ = GrB_LNOT;
        break;
      case Dom::kFp64:
        type_ = GrB_FP64;
        op_ = GrB_AINV_FP64;
        break;
      case Dom::kUdt24:
        EXPECT_EQ(GrB_Type_new(&udt_, sizeof(Udt24)), GrB_SUCCESS);
        EXPECT_EQ(GrB_UnaryOp_new(&udt_op_, udt_bump, udt_, udt_),
                  GrB_SUCCESS);
        type_ = udt_;
        op_ = udt_op_;
        break;
    }
  }
  ~Domain() {
    if (udt_op_ != nullptr) GrB_free(&udt_op_);
    if (udt_ != nullptr) GrB_free(&udt_);
  }
  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  GrB_Type type() const { return type_; }
  GrB_UnaryOp op() const { return op_; }
  size_t size() const {
    return dom_ == Dom::kBool ? 1 : dom_ == Dom::kFp64 ? 8 : 24;
  }

  Bytes value(grb::Prng& rng) const {
    Bytes out(size());
    if (dom_ == Dom::kBool) {
      out[0] = static_cast<uint8_t>(rng.next() & 1);
    } else if (dom_ == Dom::kFp64) {
      double x = static_cast<double>(rng.below(1u << 20)) - 0.5;
      std::memcpy(out.data(), &x, sizeof x);
    } else {
      for (uint8_t& c : out) c = static_cast<uint8_t>(rng.next());
    }
    return out;
  }

  void apply_ref(Bytes* v) const {
    if (dom_ == Dom::kBool) {
      (*v)[0] ^= 1;
    } else if (dom_ == Dom::kFp64) {
      double x;
      std::memcpy(&x, v->data(), sizeof x);
      x = -x;
      std::memcpy(v->data(), &x, sizeof x);
    } else {
      udt_bump(v->data(), v->data());
    }
  }

 private:
  Dom dom_;
  GrB_Type type_ = nullptr;
  GrB_UnaryOp op_ = nullptr;
  GrB_Type udt_ = nullptr;
  GrB_UnaryOp udt_op_ = nullptr;
};

// A matrix, or a vector seen as its one-row case (row index 0).
class Obj {
 public:
  Obj(bool is_matrix, const Domain& dom, GrB_Index nrows, GrB_Index ncols)
      : dom_(dom), nrows_(is_matrix ? nrows : 1) {
    if (is_matrix) {
      EXPECT_EQ(GrB_Matrix_new(&m_, dom.type(), nrows, ncols), GrB_SUCCESS);
    } else {
      EXPECT_EQ(GrB_Vector_new(&v_, dom.type(), ncols), GrB_SUCCESS);
    }
  }
  ~Obj() {
    if (m_ != nullptr) GrB_free(&m_);
    if (v_ != nullptr) GrB_free(&v_);
  }
  Obj(const Obj&) = delete;
  Obj& operator=(const Obj&) = delete;

  GrB_Index nrows() const { return nrows_; }

  void build(const Ref& ref) {
    std::vector<GrB_Index> ri, ci;
    Bytes vals;
    for (const auto& [k, x] : ref) {
      ri.push_back(k.first);
      ci.push_back(k.second);
      vals.insert(vals.end(), x.begin(), x.end());
    }
    if (m_ != nullptr) {
      ASSERT_EQ(GrB_Matrix_build_UDT(m_, ri.data(), ci.data(), vals.data(),
                                     ri.size(), GrB_NULL, dom_.type()),
                GrB_SUCCESS);
    } else {
      ASSERT_EQ(GrB_Vector_build_UDT(v_, ci.data(), vals.data(), ci.size(),
                                     GrB_NULL, dom_.type()),
                GrB_SUCCESS);
    }
    ASSERT_EQ(wait(), GrB_SUCCESS);
  }
  GrB_Info set(const Key& k, const Bytes& x) {
    return m_ != nullptr ? GrB_Matrix_setElement_UDT(m_, x.data(),
                                                     dom_.type(), k.first,
                                                     k.second)
                         : GrB_Vector_setElement_UDT(v_, x.data(),
                                                     dom_.type(), k.second);
  }
  GrB_Info remove(const Key& k) {
    return m_ != nullptr ? GrB_Matrix_removeElement(m_, k.first, k.second)
                         : GrB_Vector_removeElement(v_, k.second);
  }
  // A deferred op that reads and rewrites the object in place.
  GrB_Info apply_in_place() {
    return m_ != nullptr
               ? GrB_apply(m_, GrB_NULL, GrB_NULL, dom_.op(), m_, GrB_NULL)
               : GrB_apply(v_, GrB_NULL, GrB_NULL, dom_.op(), v_, GrB_NULL);
  }
  GrB_Info wait() {
    return m_ != nullptr ? GrB_wait(m_, GrB_MATERIALIZE)
                         : GrB_wait(v_, GrB_MATERIALIZE);
  }

  // Asserts the stored entries equal `ref`, bitwise.
  void expect_equals(const Ref& ref) {
    GrB_Index nv = 0;
    ASSERT_EQ(m_ != nullptr ? GrB_Matrix_nvals(&nv, m_)
                            : GrB_Vector_nvals(&nv, v_),
              GrB_SUCCESS);
    ASSERT_EQ(nv, ref.size());
    std::vector<GrB_Index> ri(nv + 1, 0), ci(nv + 1);
    Bytes vals((nv + 1) * dom_.size());
    GrB_Index n = nv;
    ASSERT_EQ(m_ != nullptr
                  ? GrB_Matrix_extractTuples_UDT(ri.data(), ci.data(),
                                                 vals.data(), &n,
                                                 dom_.type(), m_)
                  : GrB_Vector_extractTuples_UDT(ci.data(), vals.data(), &n,
                                                 dom_.type(), v_),
              GrB_SUCCESS);
    ASSERT_EQ(n, nv);
    Ref got;
    for (GrB_Index k = 0; k < n; ++k) {
      const uint8_t* x = vals.data() + k * dom_.size();
      got[{ri[k], ci[k]}] = Bytes(x, x + dom_.size());
    }
    ASSERT_EQ(got.size(), ref.size()) << "duplicate keys extracted";
    auto g = got.begin();
    for (const auto& [k, x] : ref) {
      ASSERT_EQ(g->first, k);
      ASSERT_EQ(g->second, x) << "value at (" << k.first << ", " << k.second
                              << ")";
      ++g;
    }
  }

 private:
  const Domain& dom_;
  GrB_Index nrows_;
  GrB_Matrix m_ = nullptr;
  GrB_Vector v_ = nullptr;
};

// Drives one object and its reference through the same update stream.
class Fold {
 public:
  Fold(Obj* obj, const Domain& dom, GrB_Index ncols, uint64_t seed)
      : obj_(obj), dom_(dom), ncols_(ncols), rng_(seed) {}

  Ref& ref() { return ref_; }

  Key random_key() {
    return {rng_.below(obj_->nrows()), rng_.below(ncols_)};
  }
  // A key stored now, or a random (likely absent) one when none is.
  Key present_key() {
    if (ref_.empty()) return random_key();
    auto it = ref_.begin();
    std::advance(it, static_cast<ptrdiff_t>(rng_.below(ref_.size())));
    return it->first;
  }

  void set(const Key& k) {
    Bytes x = dom_.value(rng_);
    ASSERT_EQ(obj_->set(k, x), GrB_SUCCESS);
    ref_[k] = std::move(x);
    recent_.push_back(k);
  }
  void remove(const Key& k) {
    ASSERT_EQ(obj_->remove(k), GrB_SUCCESS);
    ref_.erase(k);
    recent_.push_back(k);
  }

  // A mixed burst: overwrites, fresh inserts, repeats of this burst's
  // keys (set after set, delete after set, set after delete), and
  // deletes of present and of absent keys.
  void burst(int n) {
    for (int e = 0; e < n; ++e) {
      const uint64_t pick = rng_.below(10);
      const Key k = pick < 3 ? present_key()
                    : pick < 6 || recent_.empty()
                        ? random_key()
                        : recent_[rng_.below(recent_.size())];
      if (rng_.below(4) == 0) {
        remove(k);
      } else {
        set(k);
      }
    }
  }

  // Deletes every stored entry of `row` in columns [lo, hi), each twice.
  void empty_span(GrB_Index row, GrB_Index lo, GrB_Index hi) {
    std::vector<Key> keys;
    for (const auto& [k, x] : ref_)
      if (k.first == row && k.second >= lo && k.second < hi)
        keys.push_back(k);
    for (const Key& k : keys) remove(k);
    for (const Key& k : keys) remove(k);
  }

  void apply_in_place() {
    ASSERT_EQ(obj_->apply_in_place(), GrB_SUCCESS);
    for (auto& [k, x] : ref_) dom_.apply_ref(&x);
  }

 private:
  Obj* obj_;
  const Domain& dom_;
  GrB_Index ncols_;
  grb::Prng rng_;
  Ref ref_;
  std::vector<Key> recent_;
};

void run_case(bool is_matrix, Dom d, GrB_Index nrows, GrB_Index ncols,
              uint64_t seed) {
  const uint64_t base_live = live_bytes();
  {
    Domain dom(d);
    Obj obj(is_matrix, dom, nrows, ncols);
    Fold f(&obj, dom, ncols, seed);
    const GrB_Index rows = obj.nrows();
    // Sparse base: rows 0 and rows-1 stay empty (a vector's one row is
    // populated).
    grb::Prng base_rng(seed ^ 0x5eed);
    Ref base;
    for (int e = 0; e < 300; ++e) {
      const GrB_Index i = rows > 2 ? 1 + base_rng.below(rows - 2) : 0;
      base[{i, base_rng.below(ncols)}] = dom.value(base_rng);
    }
    obj.build(base);
    f.ref() = base;
    obj.expect_equals(f.ref());

    // Batch 1: mixed burst, a row emptied, inserts into the empty rows.
    // A matrix empties a whole row; a vector (one row) a third of it.
    auto empty_part = [&](GrB_Index row) {
      if (is_matrix) {
        f.empty_span(row, 0, ncols);
      } else {
        f.empty_span(row, ncols / 3, 2 * (ncols / 3));
      }
    };
    f.burst(400);
    empty_part(rows / 2);
    f.set({0, ncols - 1});
    f.set({0, 0});
    f.set({rows - 1, ncols / 2});
    f.remove({rows - 1, 1});
    ASSERT_EQ(obj.wait(), GrB_SUCCESS);
    obj.expect_equals(f.ref());

    // Prefix split: the deferred op folds only the tuples before it.
    f.burst(200);
    f.apply_in_place();
    f.burst(200);
    empty_part(rows - 1);
    ASSERT_EQ(obj.wait(), GrB_SUCCESS);
    ASSERT_GT(f.ref().size(), 100u);  // the op's effect stays visible
    obj.expect_equals(f.ref());

    // Deletes only, then one tuple.
    for (int e = 0; e < 100; ++e) f.remove(f.present_key());
    ASSERT_EQ(obj.wait(), GrB_SUCCESS);
    obj.expect_equals(f.ref());
    f.set(f.present_key());
    ASSERT_EQ(obj.wait(), GrB_SUCCESS);
    obj.expect_equals(f.ref());
  }
  EXPECT_EQ(live_bytes(), base_live);
}

constexpr GrB_Index kWide = GrB_Index{1} << 40;

TEST(PendingFoldDiff, MatrixFp64) { run_case(true, Dom::kFp64, 40, 50, 1); }
TEST(PendingFoldDiff, MatrixBool) { run_case(true, Dom::kBool, 40, 50, 2); }
TEST(PendingFoldDiff, MatrixUdt24) { run_case(true, Dom::kUdt24, 40, 50, 3); }
TEST(PendingFoldDiff, MatrixWideColumns) {
  run_case(true, Dom::kFp64, 200, kWide, 4);
}
TEST(PendingFoldDiff, VectorFp64) { run_case(false, Dom::kFp64, 1, 700, 5); }
TEST(PendingFoldDiff, VectorBool) { run_case(false, Dom::kBool, 1, 700, 6); }
TEST(PendingFoldDiff, VectorUdt24) {
  run_case(false, Dom::kUdt24, 1, 700, 7);
}
TEST(PendingFoldDiff, VectorWide) { run_case(false, Dom::kFp64, 1, kWide, 8); }

}  // namespace
