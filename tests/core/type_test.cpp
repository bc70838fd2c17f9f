// Runtime type system: descriptors, casting, truthiness, UDT lifecycle.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/type.hpp"
#include "graphblas/GraphBLAS.h"

namespace grb {
namespace {

TEST(TypeTest, BuiltinSizesAndNames) {
  EXPECT_EQ(TypeBool()->size(), sizeof(bool));
  EXPECT_EQ(TypeInt8()->size(), 1u);
  EXPECT_EQ(TypeUInt16()->size(), 2u);
  EXPECT_EQ(TypeInt32()->size(), 4u);
  EXPECT_EQ(TypeUInt64()->size(), 8u);
  EXPECT_EQ(TypeFP32()->size(), 4u);
  EXPECT_EQ(TypeFP64()->size(), 8u);
  EXPECT_EQ(TypeFP64()->name(), "GrB_FP64");
  EXPECT_TRUE(TypeFP64()->is_builtin());
}

TEST(TypeTest, BuiltinLookupByCode) {
  for (int c = 0; c < kNumBuiltinTypes; ++c) {
    const Type* t = Type::builtin(static_cast<TypeCode>(c));
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(static_cast<int>(t->code()), c);
  }
  EXPECT_EQ(Type::builtin(TypeCode::kUdt), nullptr);
}

TEST(TypeTest, BuiltinSingletons) {
  EXPECT_EQ(TypeFP64(), Type::builtin(TypeCode::kFP64));
  EXPECT_EQ(type_of<double>(), TypeFP64());
  EXPECT_EQ(type_of<bool>(), TypeBool());
  EXPECT_EQ(type_of<int32_t>(), TypeInt32());
}

TEST(TypeTest, CastIntToDouble) {
  int32_t in = -42;
  double out = 0;
  cast_value(TypeFP64(), &out, TypeInt32(), &in);
  EXPECT_EQ(out, -42.0);
}

TEST(TypeTest, CastDoubleToIntTruncates) {
  double in = 3.9;
  int32_t out = 0;
  cast_value(TypeInt32(), &out, TypeFP64(), &in);
  EXPECT_EQ(out, 3);
}

// The float inputs a saturating cast must define: NaN, both infinities
// and both signs of a value beyond every integer domain.
const double kOutOfRange[] = {std::nan(""), HUGE_VAL, -HUGE_VAL, 1e300,
                              -1e300};
const float kOutOfRangeF[] = {std::nanf(""), HUGE_VALF, -HUGE_VALF, 1e38f,
                              -1e38f};

// Expected saturation of kOutOfRange[k] into T.
template <class T>
T saturated(int k) {
  using Lim = std::numeric_limits<T>;
  const T want[] = {T{0}, Lim::max(), Lim::min(), Lim::max(), Lim::min()};
  return want[k];
}

template <class T>
void expect_saturates(const Type* to) {
  for (int k = 0; k < 5; ++k) {
    T out = T{1};
    cast_value(to, &out, TypeFP64(), &kOutOfRange[k]);
    EXPECT_EQ(out, saturated<T>(k)) << to->name() << " from FP64 #" << k;
    out = T{1};
    cast_value(to, &out, TypeFP32(), &kOutOfRangeF[k]);
    EXPECT_EQ(out, saturated<T>(k)) << to->name() << " from FP32 #" << k;
  }
  // In-range values still truncate toward zero.
  const double in = -2.75;
  T out{};
  cast_value(to, &out, TypeFP64(), &in);
  EXPECT_EQ(out, std::is_signed_v<T> ? T(-2) : T{0});
}

TEST(TypeTest, FloatToIntCastsSaturate) {
  expect_saturates<int8_t>(TypeInt8());
  expect_saturates<uint8_t>(TypeUInt8());
  expect_saturates<int16_t>(TypeInt16());
  expect_saturates<uint16_t>(TypeUInt16());
  expect_saturates<int32_t>(TypeInt32());
  expect_saturates<uint32_t>(TypeUInt32());
  expect_saturates<int64_t>(TypeInt64());
  expect_saturates<uint64_t>(TypeUInt64());
  // Just inside INT64's range: the largest double below 2^63.
  const double below = std::nextafter(9223372036854775808.0, 0.0);
  int64_t out = 0;
  cast_value(TypeInt64(), &out, TypeFP64(), &below);
  EXPECT_EQ(out, static_cast<int64_t>(below));
}

template <class T>
void expect_extract_saturates(GrB_Matrix a) {
  for (int k = 0; k < 5; ++k) {
    T out = T{1};
    ASSERT_EQ(GrB_Matrix_extractElement(&out, a, 0, k), GrB_SUCCESS);
    EXPECT_EQ(out, saturated<T>(k)) << "entry " << k;
  }
}

TEST(TypeTest, FloatToIntSaturatesThroughExtractAndSelect) {
  GrB_Matrix a = nullptr, c = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, GrB_FP64, 1, 5), GrB_SUCCESS);
  for (GrB_Index k = 0; k < 5; ++k)
    ASSERT_EQ(GrB_Matrix_setElement(a, kOutOfRange[k], 0, k), GrB_SUCCESS);
  expect_extract_saturates<int64_t>(a);
  expect_extract_saturates<int32_t>(a);
  expect_extract_saturates<uint8_t>(a);
  expect_extract_saturates<uint64_t>(a);

  // select keeps every entry (column - row >= 0) and casts into INT64.
  ASSERT_EQ(GrB_Matrix_new(&c, GrB_INT64, 1, 5), GrB_SUCCESS);
  ASSERT_EQ(GrB_select(c, GrB_NULL, GrB_NULL, GrB_TRIU, a, int64_t{0},
                       GrB_NULL),
            GrB_SUCCESS);
  GrB_Index n = 5;
  std::vector<GrB_Index> ri(n), ci(n);
  std::vector<int64_t> vals(n);
  ASSERT_EQ(GrB_Matrix_extractTuples(ri.data(), ci.data(), vals.data(), &n,
                                     c),
            GrB_SUCCESS);
  ASSERT_EQ(n, 5u);
  for (GrB_Index k = 0; k < n; ++k)
    EXPECT_EQ(vals[k], saturated<int64_t>(static_cast<int>(ci[k]))) << k;
  GrB_free(&c);
  GrB_free(&a);
}

TEST(TypeTest, CastToBoolIsNonzeroTest) {
  double in = 2.5;
  bool out = false;
  cast_value(TypeBool(), &out, TypeFP64(), &in);
  EXPECT_TRUE(out);
  in = 0.0;
  cast_value(TypeBool(), &out, TypeFP64(), &in);
  EXPECT_FALSE(out);
}

TEST(TypeTest, CastIdentityIsMemcpy) {
  uint64_t in = 0xdeadbeefcafef00dull, out = 0;
  cast_value(TypeUInt64(), &out, TypeUInt64(), &in);
  EXPECT_EQ(out, in);
}

TEST(TypeTest, CastUnsignedNarrowingWraps) {
  uint32_t in = 0x1ff;
  uint8_t out = 0;
  cast_value(TypeUInt8(), &out, TypeUInt32(), &in);
  EXPECT_EQ(out, 0xff);
}

TEST(TypeTest, CompatibilityRules) {
  EXPECT_TRUE(types_compatible(TypeFP64(), TypeInt8()));
  EXPECT_TRUE(types_compatible(TypeBool(), TypeFP32()));
  const Type* udt = nullptr;
  ASSERT_EQ(type_new(&udt, 24), Info::kSuccess);
  EXPECT_TRUE(types_compatible(udt, udt));
  EXPECT_FALSE(types_compatible(udt, TypeFP64()));
  EXPECT_FALSE(types_compatible(TypeFP64(), udt));
  const Type* udt2 = nullptr;
  ASSERT_EQ(type_new(&udt2, 24), Info::kSuccess);
  EXPECT_FALSE(types_compatible(udt, udt2));  // same size, distinct types
  EXPECT_EQ(type_free(udt), Info::kSuccess);
  EXPECT_EQ(type_free(udt2), Info::kSuccess);
}

TEST(TypeTest, UdtLifecycleErrors) {
  EXPECT_EQ(type_new(nullptr, 8), Info::kNullPointer);
  const Type* t = nullptr;
  EXPECT_EQ(type_new(&t, 0), Info::kInvalidValue);
  ASSERT_EQ(type_new(&t, 16), Info::kSuccess);
  EXPECT_FALSE(t->is_builtin());
  EXPECT_EQ(t->size(), 16u);
  EXPECT_EQ(type_free(t), Info::kSuccess);
  EXPECT_EQ(type_free(t), Info::kUninitializedObject);  // double free
  EXPECT_EQ(type_free(TypeFP64()), Info::kInvalidValue);
  EXPECT_EQ(type_free(nullptr), Info::kNullPointer);
}

TEST(TypeTest, ValueAsBool) {
  double d = 0.0;
  EXPECT_FALSE(value_as_bool(TypeFP64(), &d));
  d = -1.5;
  EXPECT_TRUE(value_as_bool(TypeFP64(), &d));
  int16_t i = 0;
  EXPECT_FALSE(value_as_bool(TypeInt16(), &i));
  i = 7;
  EXPECT_TRUE(value_as_bool(TypeInt16(), &i));
  bool b = true;
  EXPECT_TRUE(value_as_bool(TypeBool(), &b));
}

TEST(TypeTest, ValueAsBoolUdtBytewise) {
  const Type* udt = nullptr;
  ASSERT_EQ(type_new(&udt, 4), Info::kSuccess);
  unsigned char zero[4] = {0, 0, 0, 0};
  unsigned char nz[4] = {0, 0, 1, 0};
  EXPECT_FALSE(value_as_bool(udt, zero));
  EXPECT_TRUE(value_as_bool(udt, nz));
  EXPECT_EQ(type_free(udt), Info::kSuccess);
}

TEST(ValueArrayTest, PushAndAccess) {
  ValueArray a(sizeof(double));
  double x = 1.5, y = -2.25;
  a.push_back(&x);
  a.push_back(&y);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.get_as<double>(0), 1.5);
  EXPECT_EQ(a.get_as<double>(1), -2.25);
  a.set_as<double>(0, 9.0);
  EXPECT_EQ(a.get_as<double>(0), 9.0);
  ValueArray b(sizeof(double));
  b.push_back_from(a, 1);
  EXPECT_EQ(b.get_as<double>(0), -2.25);
}

TEST(ValueBufTest, SmallAndLarge) {
  ValueBuf small(8);
  uint64_t v = 77;
  std::memcpy(small.data(), &v, 8);
  uint64_t out;
  std::memcpy(&out, small.data(), 8);
  EXPECT_EQ(out, 77u);

  ValueBuf large(1000);
  EXPECT_EQ(large.size(), 1000u);
  std::memset(large.data(), 0xab, 1000);
  EXPECT_EQ(static_cast<const unsigned char*>(large.data())[999], 0xab);
}

}  // namespace
}  // namespace grb
