// Fixture: info-string-coverage.  Seeded violations:
//  * kPanic has no GrB_PANIC twin in the C enum;
//  * info_name() has no case for kPanic;
//  * info_name(kNoValue) returns a misspelled name.
// kSuccess and kNullPointer agree everywhere and must stay silent.
#pragma once

namespace grb {

enum class Info : int {
  kSuccess = 0,
  kNoValue = 1,
  kNullPointer = -2,
  kPanic = -101,
};

const char* info_name(Info info);

}  // namespace grb
