#include "core/info.hpp"

namespace grb {

const char* info_name(Info info) {
  switch (info) {
    case Info::kSuccess: return "GrB_SUCCESS";
    case Info::kNoValue: return "GrB_NOVALUE";
    case Info::kNullPointer: return "GrB_NULL_POINTER";
  }
  return "GrB_UNKNOWN";
}

}  // namespace grb
