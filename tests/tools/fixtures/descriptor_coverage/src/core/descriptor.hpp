// Fixture: descriptor-coverage.  The four descriptor fields.
#pragma once

namespace grb {

enum class DescField : int {
  kOutp = 0,
  kMask = 1,
  kInp0 = 2,
  kInp1 = 3,
};

enum class Info : int { kSuccess = 0, kInvalidValue = -3 };

class Descriptor {
 public:
  Info set(DescField field, int value);

 private:
  int bits_ = 0;
};

}  // namespace grb
