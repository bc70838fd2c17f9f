#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/info.hpp"
#include "obs/seq_ring.hpp"
#include "obs/telemetry.hpp"

namespace grb {
namespace obs {

namespace {

// One recorded event (SeqRing payload).
struct Event {
  uint64_t ts;
  const char* op;
  uint64_t meta;   // info<<32 | kind<<24 | tid
  uint64_t ext;    // ctx<<32 | flow (32-bit truncated)
  uint64_t calls;  // calls the slot stands for: a run's length, else 1
};
using Ring = SeqRing<Event>;

std::atomic<Ring*> g_ring{nullptr};

// The calling thread's open run: its last record, when that was an
// api-enter.  A repeat of the same entry point while the ring's head is
// still at the run's slot (no record from any thread in between) only
// bumps `calls`; the count reaches the slot every kRunStoreEvery
// repeats, when the thread records anything else, when a dump is taken
// on this thread and when the thread exits.
struct Run {
  Ring* ring = nullptr;  // ring holding the run's slot; nullptr = none
  const char* op = nullptr;  // the repeated entry point
  uint64_t seq = 0;      // the slot's sequence number
  uint64_t calls = 0;    // calls made in the run
  uint64_t stored = 0;   // calls last written to the slot
  Run() = default;
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;
  ~Run();
};
thread_local Run t_run;

constexpr uint64_t kRunStoreEvery = 64;

// Writes the run's count into its slot.  A slot the ring has since
// lapped keeps the lapping event; the count is lost with the run.
void run_store(Run& run) {
  if (run.ring == nullptr || run.calls == run.stored) return;
  const uint64_t calls = run.calls;
  run.ring->update_if(run.seq, [calls](Event& e) { e.calls = calls; });
  run.stored = calls;
}

// Rings are never freed (see retired()), so the slot outlives the thread.
Run::~Run() { run_store(*this); }

// Control-path state (resize, dumps) behind one mutex; the record path
// never takes it.
std::mutex& ctl_mu() {
  static std::mutex mu;
  return mu;
}
// Retired rings are kept alive forever: a writer preempted mid-record
// may still hold a pointer into one.  Resizes are once-per-process
// events (env at init), so the leak is bounded and deliberate.
std::vector<std::unique_ptr<Ring>>& retired() {
  static auto* r = new std::vector<std::unique_ptr<Ring>>();
  return *r;
}
std::string& dump_path() {
  static auto* p = new std::string();
  return *p;
}
std::string& last_dump() {
  static auto* s = new std::string();
  return *s;
}
int g_auto_dumps = 0;

constexpr uint64_t kDefaultCapacity = 4096;
constexpr uint64_t kMaxCapacity = uint64_t{1} << 24;
constexpr uint64_t kAutoDumpTail = 256;  // events rendered per auto-dump
constexpr int kAutoDumpStderrBudget = 4;

uint32_t fr_tid() {
  static thread_local const uint32_t tid = static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffffu);
  return tid;
}

uint64_t pack_meta(FrKind kind, int32_t info, uint32_t tid) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(info)) << 32) |
         (static_cast<uint64_t>(static_cast<uint8_t>(kind)) << 24) |
         (tid & 0xffffffu);
}

const char* kind_name(uint8_t kind) {
  switch (static_cast<FrKind>(kind)) {
    case FrKind::kApiEnter: return "api-enter";
    case FrKind::kApiError: return "api-error";
    case FrKind::kDeferredExec: return "deferred-exec";
    case FrKind::kPoison: return "poison";
    case FrKind::kEnqueue: return "enqueue";
    case FrKind::kWatchdog: return "watchdog";
    case FrKind::kDecision: return "decision";
  }
  return "?";
}

uint64_t round_up_pow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

struct DecodedEvent {
  uint64_t seq;
  uint64_t ts;
  const char* op;
  uint8_t kind;
  int32_t info;
  uint32_t tid;
  uint32_t ctx;
  uint32_t flow;
  uint64_t calls;
};

// Snapshots the readable window of the ring, oldest first.  Torn or
// overwritten slots are skipped.
std::vector<DecodedEvent> snapshot_events(uint64_t max_events) {
  std::vector<DecodedEvent> out;
  Ring* r = g_ring.load(std::memory_order_acquire);
  if (r == nullptr) return out;
  if (t_run.ring == r) run_store(t_run);
  const uint64_t head = r->head();
  uint64_t start = head - std::min(head, r->capacity());
  if (max_events != 0 && head - start > max_events)
    start = head - max_events;
  out.reserve(static_cast<size_t>(head - start));
  for (uint64_t seq = start + 1; seq <= head; ++seq) {
    Event ev;
    if (!r->read(seq, &ev) || ev.op == nullptr) continue;
    DecodedEvent e;
    e.seq = seq - 1;
    e.ts = ev.ts;
    e.op = ev.op;
    e.info = static_cast<int32_t>(static_cast<uint32_t>(ev.meta >> 32));
    e.kind = static_cast<uint8_t>((ev.meta >> 24) & 0xffu);
    e.tid = static_cast<uint32_t>(ev.meta & 0xffffffu);
    e.ctx = static_cast<uint32_t>(ev.ext >> 32);
    e.flow = static_cast<uint32_t>(ev.ext & 0xffffffffu);
    e.calls = ev.calls;
    out.push_back(e);
  }
  return out;
}

}  // namespace

void fr_resize(uint64_t capacity) {
  std::lock_guard<std::mutex> lock(ctl_mu());
  if (capacity == 0) {
    detail::g_flags.fetch_and(~kFlightFlag, std::memory_order_relaxed);
    Ring* old = g_ring.exchange(nullptr, std::memory_order_acq_rel);
    if (old != nullptr) retired().emplace_back(old);
    return;
  }
  uint64_t cap = round_up_pow2(capacity > kMaxCapacity ? kMaxCapacity
                                                       : capacity);
  Ring* cur = g_ring.load(std::memory_order_acquire);
  if (cur == nullptr || cur->capacity() != cap) {
    Ring* next = new Ring(cap);
    Ring* old = g_ring.exchange(next, std::memory_order_acq_rel);
    if (old != nullptr) retired().emplace_back(old);
  }
  detail::g_flags.fetch_or(kFlightFlag, std::memory_order_relaxed);
}

uint64_t fr_capacity() {
  Ring* r = g_ring.load(std::memory_order_acquire);
  return r == nullptr ? 0 : r->capacity();
}

uint64_t fr_event_count() {
  Ring* r = g_ring.load(std::memory_order_acquire);
  return r == nullptr ? 0 : r->head();
}

uint64_t fr_overwrites() {
  Ring* r = g_ring.load(std::memory_order_acquire);
  return r == nullptr ? 0 : r->overwrites();
}

void fr_record(FrKind kind, const char* op, int32_t info, uint64_t ctx,
               uint64_t flow) {
  Ring* r = g_ring.load(std::memory_order_acquire);
  if (r == nullptr) return;
  Run& run = t_run;
  if (kind == FrKind::kApiEnter && run.ring == r && run.op == op &&
      r->head() == run.seq) {
    if (++run.calls - run.stored >= kRunStoreEvery) run_store(run);
    return;
  }
  run_store(run);
  run.ring = nullptr;
  const uint64_t seq = r->push({now_ns(), op, pack_meta(kind, info, fr_tid()),
                                (ctx << 32) | (flow & 0xffffffffu), 1});
  if (kind == FrKind::kApiEnter) {
    run.ring = r;
    run.op = op;
    run.seq = seq;
    run.calls = run.stored = 1;
  }
}

void fr_api_result(const char* op, int32_t info) {
  if (info >= 0) return;
  fr_record(FrKind::kApiError, op, info);
  if (info == static_cast<int32_t>(Info::kPanic))
    fr_auto_dump("GrB_PANIC returned");
}

std::string fr_text(uint64_t max_events) {
  std::vector<DecodedEvent> events = snapshot_events(max_events);
  char line[192];
  std::string out;
  std::snprintf(line, sizeof line,
                "  events=%llu capacity=%llu overwrites=%llu\n",
                static_cast<unsigned long long>(fr_event_count()),
                static_cast<unsigned long long>(fr_capacity()),
                static_cast<unsigned long long>(fr_overwrites()));
  out.append(line);
  for (const DecodedEvent& e : events) {
    std::snprintf(line, sizeof line, "  #%-8llu %12llu  %06x  %-13s %s",
                  static_cast<unsigned long long>(e.seq),
                  static_cast<unsigned long long>(e.ts), e.tid,
                  kind_name(e.kind), e.op);
    out.append(line);
    if (e.calls > 1) {
      std::snprintf(line, sizeof line, " \u00d7%llu",
                    static_cast<unsigned long long>(e.calls));
      out.append(line);
    }
    if (e.ctx != 0 || e.flow != 0) {
      std::snprintf(line, sizeof line, " ctx=%u", e.ctx);
      out.append(line);
      if (e.flow != 0) {
        std::snprintf(line, sizeof line, " flow=%u", e.flow);
        out.append(line);
      }
    }
    if (e.info < 0) {
      out.push_back(' ');
      out.append(info_name(static_cast<Info>(e.info)));
    }
    out.push_back('\n');
  }
  return out;
}

std::string fr_trace_json() {
  std::vector<DecodedEvent> events = snapshot_events(0);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char line[256];
  bool first = true;
  for (const DecodedEvent& e : events) {
    out.append(first ? "\n" : ",\n");
    first = false;
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"cat\":\"flight\",\"ph\":\"i\","
                  "\"s\":\"t\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"args\":{\"kind\":\"%s\",\"seq\":%llu,\"info\":%d,"
                  "\"ctx\":%u,\"flow\":%u,\"calls\":%llu}}",
                  e.op, e.tid, e.ts / 1000.0, kind_name(e.kind),
                  static_cast<unsigned long long>(e.seq), e.info, e.ctx,
                  e.flow, static_cast<unsigned long long>(e.calls));
    out.append(line);
  }
  out.append("\n]}\n");
  return out;
}

bool fr_dump_file(const char* path) {
  if (path == nullptr) {
    std::string text = "flight recorder dump\n" + fr_text(0);
    std::fputs(text.c_str(), stderr);
    return true;
  }
  size_t n = std::strlen(path);
  bool json = n > 5 && std::strcmp(path + n - 5, ".json") == 0;
  std::string body =
      json ? fr_trace_json() : "flight recorder dump\n" + fr_text(0);
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fputs(body.c_str(), f);
  return std::fclose(f) == 0;
}

void fr_auto_dump(const char* reason) {
  if ((flags() & kFlightFlag) == 0) return;
  std::string text = std::string("flight recorder dump: ") + reason + "\n" +
                     fr_text(kAutoDumpTail);
  std::lock_guard<std::mutex> lock(ctl_mu());
  last_dump() = text;
  ++g_auto_dumps;
  const std::string& path = dump_path();
  if (path == "0") return;  // GRB_FLIGHT_DUMP=0 silences auto-dumps
  if (!path.empty()) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) {
      std::fputs(fr_trace_json().c_str(), f);
      std::fclose(f);
    }
  }
  if (g_auto_dumps <= kAutoDumpStderrBudget) {
    // A wrapped ring means the dump below is missing the oldest events
    // — say so loudly, once per dump, with the fix spelled out.
    if (fr_overwrites() >= fr_capacity()) {
      std::fprintf(stderr,
                   "flight recorder: ring wrapped %llu times its capacity "
                   "(%llu events lost) -- the history below is truncated; "
                   "set GRB_FLIGHT_RECORDER=N to enlarge the ring\n",
                   static_cast<unsigned long long>(
                       fr_overwrites() / (fr_capacity() ? fr_capacity() : 1)),
                   static_cast<unsigned long long>(fr_overwrites()));
    }
    std::fputs(text.c_str(), stderr);
    if (g_auto_dumps == kAutoDumpStderrBudget) {
      std::fputs(
          "flight recorder: further automatic dumps suppressed "
          "(use GxB_FlightRecorder_dump)\n",
          stderr);
    }
  }
}

std::string fr_last_dump_text() {
  std::lock_guard<std::mutex> lock(ctl_mu());
  return last_dump();
}

void fr_env_activate() {
  const char* dump = std::getenv("GRB_FLIGHT_DUMP");
  if (dump != nullptr) {
    std::lock_guard<std::mutex> lock(ctl_mu());
    dump_path() = dump;
  }
  const char* size = std::getenv("GRB_FLIGHT_RECORDER");
  uint64_t cap = kDefaultCapacity;
  if (size != nullptr && size[0] != '\0') {
    cap = std::strtoull(size, nullptr, 10);
  }
  fr_resize(cap);
}

}  // namespace obs
}  // namespace grb
