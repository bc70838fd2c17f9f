// Fixture: no-alloc-under-lock in definitions whose signature tail is
// more than a parameter list.
//  * Slots::Slots has a member-initializer list ending in a brace
//    initializer and allocates under its lock — a seeded violation.
//  * Slots::grow has a trailing return type and allocates under its
//    lock — a seeded violation.
//  * Slots::Slots(int, int) allocates in its initializer list and
//    takes the lock only afterwards — compliant.
#include <memory>

namespace grb {

Slots::Slots(int n) : n_(n), base_(n), live_{0} {
  MutexLock lock(mu_);
  data_ = new int[n];
}

auto Slots::grow(int n) -> std::unique_ptr<int[]> {
  MutexLock lock(mu_);
  return std::make_unique<int[]>(n);
}

Slots::Slots(int n, int m) : n_(n), data_(new int[m]), live_{0} {
  MutexLock lock(mu_);
  live_ = m;
}

}  // namespace grb
