// Fixture: descriptor-coverage.  Seeded violation: Descriptor::set has
// no case for DescField::kInp1.  kInp1 is named in describe() below,
// which must not count as dispatch.
#include "core/descriptor.hpp"

namespace grb {

Info Descriptor::set(DescField field, int value) {
  switch (field) {
    case DescField::kOutp:
      bits_ |= value;
      return Info::kSuccess;
    case DescField::kMask:
      bits_ |= value << 1;
      return Info::kSuccess;
    case DescField::kInp0:
      bits_ |= value << 3;
      return Info::kSuccess;
    default:
      return Info::kInvalidValue;
  }
}

const char* describe(DescField field) {
  switch (field) {
    case DescField::kInp1: return "INP1";
    default: return "other";
  }
}

}  // namespace grb
