// Fixture: poison-has-message, the deferred-execution machinery.
//  * defer_or_run poisons with an info_name() message — clean;
//  * ObjectBase::complete_impl poisons with a fixed message and no
//    info_name() text — a seeded violation.
#include "exec/object_base.hpp"

namespace grb {

Info ObjectBase::complete_impl() {
  Info info = run_queue();
  if (static_cast<int>(info) < 0) {
    poison_locked(info, msg_);
  }
  return info;
}

Info defer_or_run(ObjectBase* out, std::function<Info()> op) {
  Info info = op();
  if (static_cast<int>(info) < 0) {
    out->poison(info, std::string("deferred op failed: ") +
                          info_name(info));
  }
  return info;
}

}  // namespace grb
