// Decision audit (observability layer 4, DESIGN.md §16).
//
// Every adaptive cost-model branch in the library — the places where the
// runtime, not the user, picks an execution strategy — records what it
// chose, what it rejected, what the model predicted, and (filled in
// after the kernel ran) what actually happened.  Records land in a
// fixed-size lock-free ring tagged with the owning context, surfaced
// four ways: GxB_Explain renders the newest records as text, the
// "decisions" block of GxB_Stats_json carries per-site aggregates, the
// Prometheus exposition exports decision.* record/mispredict families,
// and (flight-gated) each record also lands as a kDecision flight-
// recorder event so post-mortems show strategy choices inline with the
// causal op history.
//
// Overhead contract: emission gates on one relaxed load of g_flags
// (kDecisionFlag); when the bit is clear the site pays only that load.
// The record path is allocation-free — fixed slots, static-string
// alternative names — so sites inside no-alloc lock zones (spgemm) may
// emit directly, though they should still prefer to emit outside
// critical sections.
//
// Registry: GRB_DECISION_SITES below names every translation unit that
// hosts a cost-model branch.  tools/grb_analyze.py's
// decision-audit-coverage rule checks it both ways — a listed file must
// emit a DecisionRecord and an emitting file must be listed — so a new
// adaptive heuristic cannot land unaudited (see DESIGN.md §16 for the
// how-to).
#pragma once

#include <cstdint>
#include <string>

#include "obs/telemetry.hpp"

// Files hosting adaptive cost-model branch sites.  Every file listed
// here must call obs::decision_record (directly), and every file calling
// it outside src/obs/ must be listed — parity is enforced both
// directions by tools/grb_analyze.py (decision-audit-coverage).
#define GRB_DECISION_SITES      \
  "src/exec/context.cpp",       \
  "src/ops/spgemm.hpp",         \
  "src/ops/mxm.cpp"

namespace grb {
namespace obs {

// One enum value per adaptive decision site family.  Order is part of
// the counter schema ("decision.<site_name>.*"); new sites append.
enum class DecisionSite : uint8_t {
  kExecPath = 0,     // serial vs. parallel (exec/context.cpp)
  kSpgemmAccum = 1,  // hash vs. dense SPA rows (ops/spgemm.hpp)
  kMaskedDot = 2,    // dot-product vs. saxpy masked mxm (ops/mxm.cpp)
};
constexpr int kDecisionSiteCount = 3;

const char* decision_site_name(DecisionSite site);

// A completed audit record as readers see it, and the audit ring's
// payload (so no padding: see SeqRing).  Cost units are site-specific —
// predicted and alternative share units within one site, which is all
// the mispredict test needs.
struct DecisionRecord {
  uint64_t seq = 0;          // global emission sequence (1-based)
  uint64_t ts_ns = 0;        // now_ns() at decision time
  uint64_t ctx = 0;          // owning obs context id (0 = unattributed)
  const char* op = nullptr;      // attributed GrB op (static string)
  const char* chosen = nullptr;  // strategy taken (static string)
  const char* rejected = nullptr;  // strategy passed over (static string)
  double predicted_cost = 0;     // model's cost for the chosen strategy
  double alternative_cost = 0;   // model's cost for the rejected one
  uint64_t measured_ns = 0;      // wall time of the governed region
  uint64_t measured_units = 0;   // actual work done, in predicted units
  DecisionSite site = DecisionSite::kExecPath;
  bool measured = false;         // decision_measure completed the record
  bool mispredict = false;       // measured work off by >2x from predicted
  uint8_t pad[5] = {};
};

// Handle returned by decision_record so the site can complete the
// record after the kernel ran.  Zero-initialized tickets (decisions
// emitted while the audit was disabled) are ignored by decision_measure.
struct DecisionTicket {
  uint64_t seq = 0;   // 0 = inactive
  uint64_t t0 = 0;    // now_ns() at record time
  double predicted = 0;
  DecisionSite site = DecisionSite::kExecPath;
};

// Emits one record (gated on decision_enabled(); returns an inactive
// ticket when off).  All strings must have static storage duration.
// Attribution (op when null, ctx) comes from the TLS current-op slots.
DecisionTicket decision_record(DecisionSite site, const char* chosen,
                               const char* rejected, double predicted_cost,
                               double alternative_cost,
                               const char* op = nullptr);

// Completes a record post-execution: stamps measured wall-ns (now -
// ticket.t0) and the actual work in predicted-cost units, and counts a
// mispredict when both are positive and off by more than 2x either way.
// Pass measured_units = 0 when the site has no work metric (timing-only
// sites); the ns still lands but cannot mispredict.  Safe to call with
// an inactive ticket (no-op); tolerates the ring having lapped the slot
// (aggregates still count, the ring text just lost the row).
void decision_measure(const DecisionTicket& ticket, uint64_t measured_units);

// --- Control / introspection ----------------------------------------------
void decision_set_enabled(bool on);  // flips kDecisionFlag
void decision_reset();               // zero counters, clear the ring

// Newest-first snapshot of readable ring records.  `op` filters by
// exact attributed-op match when non-null/non-empty; `ctx` filters by
// owning context when nonzero; `max_records` 0 = all readable.
// Torn/overwritten slots are skipped.
int decision_snapshot(DecisionRecord* out, int max_records, const char* op,
                      uint64_t ctx);

// Human-readable audit rendering (backs GxB_Explain): one line per
// record, newest first, plus a per-site aggregate header.  Never empty:
// reports "decision audit disabled" / "no decisions recorded" when
// there is nothing to show.
std::string decision_explain(const char* op, uint64_t ctx);

// The audit's part of stats_get ("decision.<site>.<field>" and the
// audit-wide totals), of the stats JSON ("decisions" block) and of the
// exposition: walks of its metric tables (decision.cpp).
bool decision_stats_get(const char* name, uint64_t* value);
std::string decision_json();
void decision_prometheus(std::string& out);

// GRB_DECISIONS=1 enables the audit at init (GxB_Stats_enable also
// turns it on: counters without their why are half an answer).
void decision_env_activate();

}  // namespace obs
}  // namespace grb
