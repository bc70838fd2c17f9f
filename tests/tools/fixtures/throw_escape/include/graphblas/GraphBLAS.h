// Fixture: no-throw-escape.  Seeded violations:
//  * GrB_Matrix_clear throws inside its veneer body;
//  * GRB_FAIL's body throws, found once at the #define line.
// A `throw` in a comment or a string literal is not code, and the
// guarded veneer's catch handlers below only return codes — clean.
typedef int GrB_Info;
typedef struct GrB_Matrix_opaque* GrB_Matrix;
#define GrB_SUCCESS 0
#define GrB_PANIC (-101)

namespace grb_detail {
template <typename F>
GrB_Info guarded(F f) {
  try {
    return f();
  } catch (...) {
    return GrB_PANIC;
  }
}
}  // namespace grb_detail

#define GRB_FAIL(CODE) throw CODE

inline GrB_Info GrB_Matrix_clear(GrB_Matrix A) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (A == nullptr) throw 1;
    return GrB_SUCCESS;
  });
}

inline GrB_Info GrB_Matrix_free(GrB_Matrix* A) {
  return grb_detail::guarded([&]() -> GrB_Info {
    if (A == nullptr) return GrB_SUCCESS;  // never throw here
    const char* note = "do not throw";
    (void)note;
    return GrB_SUCCESS;
  });
}
