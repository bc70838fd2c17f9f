// Fixture: atomic-order-explicit.
//  * read_calls uses a defaulted (seq_cst) load — the seeded violation.
//  * read_errors names its order — clean.
//  * bump_suppressed uses a defaulted fetch_add but is covered by the
//    fixture's suppression file — must be counted as suppressed.
//  * reset_window / reset_window_via assign a member atomic through
//    `obj.` and `p->` (implicit seq_cst stores) — two seeded violations;
//    reset_window_explicit names its order — clean.
//  * raise_peak assigns the plain member Summary::peak through `.` and
//    `->`; Gauge declares an atomic of the same name, so the member
//    form cannot tell them apart and must stay silent — clean.
#include <atomic>

namespace grb::obs {

std::atomic<unsigned long> g_calls{0};
std::atomic<unsigned long> g_errors{0};
std::atomic<unsigned long> g_suppressed{0};

unsigned long read_calls() {
  return g_calls.load();
}

unsigned long read_errors() {
  return g_errors.load(std::memory_order_relaxed);
}

void bump_suppressed() {
  g_suppressed.fetch_add(1);
}

struct Window {
  std::atomic<unsigned long> events{0};
};

Window g_window;

void reset_window() {
  g_window.events = 0;
}

void reset_window_via(Window* w) {
  w->events = 0;
}

void reset_window_explicit(Window* w) {
  w->events.store(0, std::memory_order_relaxed);
}

struct Gauge {
  std::atomic<unsigned long> peak{0};
};

struct Summary {
  unsigned long peak = 0;
};

void raise_peak(Summary& s, Summary* t, const Gauge& g) {
  s.peak = g.peak.load(std::memory_order_relaxed);
  t->peak = s.peak;
}

}  // namespace grb::obs
