// Fixture: entry-point-parity.  Seeded violations:
//  * GrB_missing_impl is declared but never defined;
//  * GxB_raw does not route through the grb_detail::guarded veneer;
//  * GxB_raw is implemented but absent from GxB_EXTENSIONS;
//  * the registry lists GxB_listed_but_missing, which does not exist;
//  * the first GrB_pair overload skips the veneer — the guarded second
//    overload of the same name must not hide it.
// GrB_ok is fully compliant and must produce no finding.
typedef int GrB_Info;

namespace grb_detail {
template <typename F>
GrB_Info guarded(F f) {
  return f();
}
}  // namespace grb_detail

GrB_Info GrB_missing_impl(int x);

inline GrB_Info GrB_ok(int x) {
  return grb_detail::guarded([&]() -> GrB_Info { return x; });
}

inline GrB_Info GxB_raw(int x) { return x; }

inline GrB_Info GrB_pair(int x, int y) { return x + y; }

inline GrB_Info GrB_pair(int x) {
  return grb_detail::guarded([&]() -> GrB_Info { return x; });
}

static const char* GxB_EXTENSIONS[] = {
    "GxB_listed_but_missing",
};
