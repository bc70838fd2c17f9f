// Flight-recorder runs (DESIGN.md §11): repeated calls of one entry
// point from one thread, with no record from any thread in between,
// share one ring slot whose count says how many calls it stands for.
// Any other record starts a new slot, so the ring keeps causal order;
// a dump on the run's own thread shows the exact count; and under
// concurrent callers and readers no torn slot is read and the counts
// add up to the calls made.
//
// Compiled into grb_obs_tests (tsan-labelled): every test runs its own
// GrB_init / GrB_finalize.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "graphblas/GraphBLAS.h"
#include "obs/flight_recorder.hpp"

namespace {

// One slot of the trace-JSON dump.
struct Rec {
  std::string name, kind;
  uint64_t seq = 0, calls = 0;
};

std::string str_field(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\":\"";
  const size_t at = line.find(k);
  if (at == std::string::npos) return "";
  const size_t from = at + k.size();
  return line.substr(from, line.find('"', from) - from);
}

uint64_t num_field(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\":";
  const size_t at = line.find(k);
  if (at == std::string::npos) return ~0ull;
  return std::strtoull(line.c_str() + at + k.size(), nullptr, 10);
}

// The slots of fr_trace_json() whose 0-based seq is at least `from`.
std::vector<Rec> slots_since(uint64_t from) {
  const std::string json = grb::obs::fr_trace_json();
  std::vector<Rec> out;
  size_t pos = 0;
  while ((pos = json.find("{\"name\":", pos)) != std::string::npos) {
    const size_t end = json.find('\n', pos);
    const std::string line = json.substr(pos, end - pos);
    pos = end;
    Rec r{str_field(line, "name"), str_field(line, "kind"),
          num_field(line, "seq"), num_field(line, "calls")};
    if (r.seq >= from) out.push_back(r);
  }
  return out;
}

std::string describe(const std::vector<Rec>& recs) {
  std::string s;
  for (const Rec& r : recs)
    s += r.kind + " " + r.name + " x" + std::to_string(r.calls) + "\n";
  return s;
}

class FlightRecorderRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(GrB_init(GrB_NONBLOCKING), GrB_SUCCESS);
    ASSERT_EQ(GrB_Vector_new(&v_, GrB_FP64, 8), GrB_SUCCESS);
    ASSERT_EQ(GrB_wait(v_, GrB_MATERIALIZE), GrB_SUCCESS);
  }
  void TearDown() override {
    GrB_free(&v_);
    EXPECT_EQ(GrB_finalize(), GrB_SUCCESS);
  }
  void nvals(int times) {
    for (int i = 0; i < times; ++i) {
      GrB_Index n = 0;
      ASSERT_EQ(GrB_Vector_nvals(&n, v_), GrB_SUCCESS);
    }
  }

  GrB_Vector v_ = nullptr;
};

// N identical calls take one slot that counts N, in the text dump
// ("×N"), in the trace JSON ("calls") and in flight.events (+1).
TEST_F(FlightRecorderRunTest, RepeatedCallsShareOneSlot) {
  constexpr int kCalls = 1000;
  const uint64_t before = grb::obs::fr_event_count();
  nvals(kCalls);
  EXPECT_EQ(grb::obs::fr_event_count(), before + 1);

  const std::string text = grb::obs::fr_text(0);
  EXPECT_NE(text.find("GrB_Vector_nvals ×" + std::to_string(kCalls)),
            std::string::npos)
      << text;
  const std::vector<Rec> recs = slots_since(before);
  ASSERT_EQ(recs.size(), 1u) << describe(recs);
  EXPECT_EQ(recs[0].name, "GrB_Vector_nvals");
  EXPECT_EQ(recs[0].kind, "api-enter");
  EXPECT_EQ(recs[0].calls, static_cast<uint64_t>(kCalls));
  // The gauge reads the same count of slots through the C API (that
  // read is itself a new entry point, hence one more slot).
  uint64_t events = 0;
  ASSERT_EQ(GxB_Stats_get("flight.events", &events), GrB_SUCCESS);
  EXPECT_EQ(events, before + 2);
}

// A different entry point, an api-error, an enqueue or a deferred
// execution in between starts a new slot, and the slots keep the order
// the records were made in.
TEST_F(FlightRecorderRunTest, AnyOtherRecordStartsANewSlot) {
  GrB_Vector w = nullptr;
  ASSERT_EQ(GrB_Vector_new(&w, GrB_FP64, 8), GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_setElement(w, 1.0, 0), GrB_SUCCESS);
  ASSERT_EQ(GrB_wait(w, GrB_MATERIALIZE), GrB_SUCCESS);
  const uint64_t before = grb::obs::fr_event_count();

  GrB_Index n = 0;
  nvals(3);
  ASSERT_EQ(GrB_Vector_size(&n, v_), GrB_SUCCESS);
  nvals(2);
  EXPECT_EQ(GrB_Vector_nvals(nullptr, v_), GrB_NULL_POINTER);
  nvals(1);
  for (int i = 0; i < 2; ++i)
    ASSERT_EQ(GrB_apply(w, GrB_NULL, GrB_NULL, GrB_AINV_FP64, w, GrB_NULL),
              GrB_SUCCESS);
  for (int i = 0; i < 2; ++i)
    ASSERT_EQ(GrB_Vector_nvals(&n, w), GrB_SUCCESS);

  const std::vector<Rec> recs = slots_since(before);
  const std::vector<std::vector<std::string>> want = {
      {"api-enter", "GrB_Vector_nvals", "3"},
      {"api-enter", "GrB_Vector_size", "1"},
      {"api-enter", "GrB_Vector_nvals", "3"},  // the failing call repeats
      {"api-error", "GrB_Vector_nvals", "1"},
      {"api-enter", "GrB_Vector_nvals", "1"},
      {"api-enter", "GrB_apply", "1"},
      {"enqueue", "GrB_apply", "1"},
      {"api-enter", "GrB_apply", "1"},
      {"enqueue", "GrB_apply", "1"},
      {"api-enter", "GrB_Vector_nvals", "1"},
      {"deferred-exec", "GrB_apply", "1"},
      {"deferred-exec", "GrB_apply", "1"},
      {"api-enter", "GrB_Vector_nvals", "1"},
  };
  ASSERT_EQ(recs.size(), want.size()) << describe(recs);
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(recs[k].kind, want[k][0]) << k << "\n" << describe(recs);
    EXPECT_EQ(recs[k].name, want[k][1]) << k << "\n" << describe(recs);
    EXPECT_EQ(std::to_string(recs[k].calls), want[k][2])
        << k << "\n" << describe(recs);
    if (k > 0) EXPECT_EQ(recs[k].seq, recs[k - 1].seq + 1);
  }
  GrB_free(&w);
}

// A dump on the run's own thread writes the open run's exact count
// first; a dump on another thread reads it at most 63 calls short.
TEST_F(FlightRecorderRunTest, DumpOnRunThreadShowsExactCount) {
  const uint64_t before = grb::obs::fr_event_count();
  nvals(100);
  EXPECT_NE(grb::obs::fr_text(0).find("GrB_Vector_nvals ×100"),
            std::string::npos);
  nvals(900);
  uint64_t seen = 0;
  std::thread other([&] {
    const std::vector<Rec> recs = slots_since(before);
    if (recs.size() == 1) seen = recs[0].calls;
  });
  other.join();
  EXPECT_GE(seen, 1000u - 63u);
  EXPECT_LE(seen, 1000u);
  const std::vector<Rec> recs = slots_since(before);
  ASSERT_EQ(recs.size(), 1u) << describe(recs);
  EXPECT_EQ(recs[0].calls, 1000u);
  EXPECT_EQ(grb::obs::fr_event_count(), before + 1);
}

// Four threads hammer one entry point while a reader dumps: every slot
// read is whole (a known kind and name, a count of at least one), and
// once each thread has closed its run with a different entry point the
// hammered slots count every call.  The ring is sized so that even one
// slot per call cannot wrap it.
TEST_F(FlightRecorderRunTest, ConcurrentRunsCountEveryCall) {
  constexpr int kThreads = 4;
  constexpr int kCalls = 2000;
  grb::obs::fr_resize(4 * kThreads * kCalls);
  const uint64_t before = grb::obs::fr_event_count();

  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const Rec& r : slots_since(before)) {
        const bool nvals_enter =
            r.name == "GrB_Vector_nvals" && r.kind == "api-enter";
        const bool size_enter =
            r.name == "GrB_Vector_size" && r.kind == "api-enter";
        if (!(nvals_enter || size_enter) || r.calls < 1 ||
            r.calls > static_cast<uint64_t>(kCalls))
          bad.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> callers;
  for (int t = 0; t < kThreads; ++t) {
    callers.emplace_back([this] {
      GrB_Index n = 0;
      for (int i = 0; i < kCalls; ++i)
        EXPECT_EQ(GrB_Vector_nvals(&n, v_), GrB_SUCCESS);
      EXPECT_EQ(GrB_Vector_size(&n, v_), GrB_SUCCESS);
    });
  }
  for (auto& t : callers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad.load(), 0);

  uint64_t total = 0, size_calls = 0;
  for (const Rec& r : slots_since(before)) {
    EXPECT_GE(r.calls, 1u);
    if (r.name == "GrB_Vector_nvals") total += r.calls;
    if (r.name == "GrB_Vector_size") size_calls += r.calls;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kCalls);
  EXPECT_EQ(size_calls, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(grb::obs::fr_overwrites(), 0u);
  grb::obs::fr_resize(4096);
}

}  // namespace
