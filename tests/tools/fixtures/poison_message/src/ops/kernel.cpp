// Fixture: poison-has-message at call sites.  Seeded violations:
//  * fail_empty poisons with an empty message;
//  * fail_bare poisons with no message argument at all.
// fail_tolerated repeats the empty message under an inline allow
// marker — counted as suppressed — and fail_named passes a message
// containing a comma, which is still one argument — clean.
namespace grb {

void fail_empty(ObjectBase* out, Info info) {
  out->poison(info, "");
}

void fail_bare(ObjectBase* out, Info info) {
  out->poison(info);
}

void fail_tolerated(ObjectBase* out, Info info) {
  // grb-analyze: allow(poison-has-message)
  out->poison(info, "");
}

void fail_named(ObjectBase* out, Info info) {
  out->poison(info, std::string("kernel failed, code ") +
                        info_name(info));
}

}  // namespace grb
