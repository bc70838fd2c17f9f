// Fixture: info-string-coverage, the C half of the triple.
enum GrB_Info {
  GrB_SUCCESS = 0,
  GrB_NO_VALUE = 1,
  GrB_NULL_POINTER = -2,
};
