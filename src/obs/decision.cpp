#include "obs/decision.hpp"

#include <atomic>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/flight_recorder.hpp"

namespace grb {
namespace obs {

namespace {

// One ring slot.  All fields are relaxed atomics so writers lapping the
// ring stay data-race-free; `seq` brackets the payload (0 = in
// progress, emission-seq = done) so readers detect and skip torn rows.
// Doubles travel as bit patterns inside uint64 atomics.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> ts{0};
  std::atomic<const char*> op{nullptr};
  std::atomic<const char*> chosen{nullptr};
  std::atomic<const char*> rejected{nullptr};
  std::atomic<uint64_t> ctx{0};
  std::atomic<uint8_t> site{0};
  std::atomic<uint64_t> predicted_bits{0};
  std::atomic<uint64_t> alternative_bits{0};
  std::atomic<uint64_t> measured_ns{0};
  std::atomic<uint64_t> measured_units{0};
  std::atomic<uint32_t> state{0};  // bit0 = measured, bit1 = mispredict
};

// Fixed capacity: the audit is a "last N decisions" window, not a log;
// aggregates carry the long-run truth.  Power of two for mask indexing.
constexpr uint64_t kRingCapacity = 256;
Slot g_slots[kRingCapacity];
std::atomic<uint64_t> g_head{0};

struct SiteCounters {
  std::atomic<uint64_t> records{0};
  std::atomic<uint64_t> measured{0};
  std::atomic<uint64_t> mispredicts{0};
  // Sums in site-specific cost units, so mispredict *rates* and the
  // aggregate predicted-vs-measured ratio survive ring wrap.
  std::atomic<uint64_t> predicted_units{0};
  std::atomic<uint64_t> measured_units{0};
};
SiteCounters g_sites[kDecisionSiteCount];

constexpr const char* kSiteNames[kDecisionSiteCount] = {
    "exec_path",       "spgemm_accum", "masked_dot",
    "transpose_cache", "fusion_plan",
};

// A measurement counts as mispredicted when the model's work estimate
// for the chosen strategy was off by more than 2x either way — the
// cost inputs, not the comparison, were wrong.  Both values must be
// positive: timing-only sites (units 0) never mispredict.
bool is_mispredict(double predicted, uint64_t units) {
  if (units == 0 || !(predicted > 0)) return false;
  double u = static_cast<double>(units);
  return u > 2.0 * predicted || 2.0 * u < predicted;
}

bool read_slot(uint64_t seq_idx, DecisionRecord* out) {
  Slot& s = g_slots[seq_idx % kRingCapacity];
  uint64_t want = seq_idx + 1;
  if (s.seq.load(std::memory_order_acquire) != want) return false;
  DecisionRecord r;
  r.seq = want;
  r.ts_ns = s.ts.load(std::memory_order_relaxed);
  r.op = s.op.load(std::memory_order_relaxed);
  r.chosen = s.chosen.load(std::memory_order_relaxed);
  r.rejected = s.rejected.load(std::memory_order_relaxed);
  r.ctx = s.ctx.load(std::memory_order_relaxed);
  r.site = static_cast<DecisionSite>(s.site.load(std::memory_order_relaxed));
  r.predicted_cost =
      std::bit_cast<double>(s.predicted_bits.load(std::memory_order_relaxed));
  r.alternative_cost = std::bit_cast<double>(
      s.alternative_bits.load(std::memory_order_relaxed));
  r.measured_ns = s.measured_ns.load(std::memory_order_relaxed);
  r.measured_units = s.measured_units.load(std::memory_order_relaxed);
  uint32_t state = s.state.load(std::memory_order_relaxed);
  r.measured = (state & 1u) != 0u;
  r.mispredict = (state & 2u) != 0u;
  if (s.seq.load(std::memory_order_acquire) != want) return false;
  if (r.op == nullptr || r.chosen == nullptr) return false;
  *out = r;
  return true;
}

uint64_t cost_units(double cost) {
  if (!(cost > 0)) return 0;
  return static_cast<uint64_t>(std::llround(cost));
}

}  // namespace

const char* decision_site_name(DecisionSite site) {
  uint8_t i = static_cast<uint8_t>(site);
  return i < kDecisionSiteCount ? kSiteNames[i] : "?";
}

DecisionTicket decision_record(DecisionSite site, const char* chosen,
                               const char* rejected, double predicted_cost,
                               double alternative_cost, const char* op) {
  DecisionTicket ticket;
  if (!decision_enabled()) return ticket;
  const char* opname = op != nullptr ? op : current_op();
  uint64_t ctx = current_ctx();
  uint64_t seq_idx = g_head.fetch_add(1, std::memory_order_relaxed);
  Slot& s = g_slots[seq_idx % kRingCapacity];
  s.seq.store(0, std::memory_order_release);  // invalidate for readers
  s.ts.store(now_ns(), std::memory_order_relaxed);
  s.op.store(opname, std::memory_order_relaxed);
  s.chosen.store(chosen, std::memory_order_relaxed);
  s.rejected.store(rejected, std::memory_order_relaxed);
  s.ctx.store(ctx, std::memory_order_relaxed);
  s.site.store(static_cast<uint8_t>(site), std::memory_order_relaxed);
  s.predicted_bits.store(std::bit_cast<uint64_t>(predicted_cost),
                         std::memory_order_relaxed);
  s.alternative_bits.store(std::bit_cast<uint64_t>(alternative_cost),
                           std::memory_order_relaxed);
  s.measured_ns.store(0, std::memory_order_relaxed);
  s.measured_units.store(0, std::memory_order_relaxed);
  s.state.store(0, std::memory_order_relaxed);
  s.seq.store(seq_idx + 1, std::memory_order_release);

  SiteCounters& c = g_sites[static_cast<uint8_t>(site)];
  c.records.fetch_add(1, std::memory_order_relaxed);
  c.predicted_units.fetch_add(cost_units(predicted_cost),
                              std::memory_order_relaxed);
  if (flight_enabled())
    fr_record(FrKind::kDecision, decision_site_name(site),
              static_cast<int32_t>(0), ctx);

  ticket.seq = seq_idx + 1;
  ticket.t0 = now_ns();
  ticket.predicted = predicted_cost;
  ticket.site = site;
  return ticket;
}

void decision_measure(const DecisionTicket& ticket, uint64_t measured_units) {
  if (ticket.seq == 0 || !decision_enabled()) return;
  uint64_t ns = now_ns() - ticket.t0;
  bool mp = is_mispredict(ticket.predicted, measured_units);

  SiteCounters& c = g_sites[static_cast<uint8_t>(ticket.site)];
  c.measured.fetch_add(1, std::memory_order_relaxed);
  c.measured_units.fetch_add(measured_units, std::memory_order_relaxed);
  if (mp) c.mispredicts.fetch_add(1, std::memory_order_relaxed);

  // Best-effort ring fill-in: if the ring has lapped this slot the
  // aggregates above still count, only the rendered row lost its tail.
  // The seq re-check narrows (but cannot close) the race against a
  // lapping writer; a lost or mixed fill-in is benign diagnostic noise.
  Slot& s = g_slots[(ticket.seq - 1) % kRingCapacity];
  if (s.seq.load(std::memory_order_acquire) != ticket.seq) return;
  s.measured_ns.store(ns, std::memory_order_relaxed);
  s.measured_units.store(measured_units, std::memory_order_relaxed);
  s.state.store(mp ? 3u : 1u, std::memory_order_relaxed);
}

void decision_set_enabled(bool on) {
  if (on)
    detail::g_flags.fetch_or(kDecisionFlag, std::memory_order_relaxed);
  else
    detail::g_flags.fetch_and(~kDecisionFlag, std::memory_order_relaxed);
}

void decision_reset() {
  for (SiteCounters& c : g_sites) {
    c.records.store(0, std::memory_order_relaxed);
    c.measured.store(0, std::memory_order_relaxed);
    c.mispredicts.store(0, std::memory_order_relaxed);
    c.predicted_units.store(0, std::memory_order_relaxed);
    c.measured_units.store(0, std::memory_order_relaxed);
  }
  for (Slot& s : g_slots) s.seq.store(0, std::memory_order_release);
  g_head.store(0, std::memory_order_relaxed);
}

int decision_snapshot(DecisionRecord* out, int max_records, const char* op,
                      uint64_t ctx) {
  uint64_t head = g_head.load(std::memory_order_acquire);
  uint64_t start = head > kRingCapacity ? head - kRingCapacity : 0;
  int n = 0;
  for (uint64_t seq = head; seq > start; --seq) {
    if (max_records > 0 && n >= max_records) break;
    DecisionRecord r;
    if (!read_slot(seq - 1, &r)) continue;
    if (op != nullptr && op[0] != '\0' && std::strcmp(op, r.op) != 0)
      continue;
    if (ctx != 0 && r.ctx != ctx) continue;
    out[n++] = r;
  }
  return n;
}

std::string decision_explain(const char* op, uint64_t ctx) {
  std::string text;
  char line[256];
  if (!decision_enabled() &&
      g_head.load(std::memory_order_relaxed) == 0) {
    return "decision audit disabled: enable with GxB_Stats_enable(true) "
           "or GRB_DECISIONS=1\n";
  }
  uint64_t total_records = 0;
  uint64_t total_measured = 0;
  uint64_t total_mispredicts = 0;
  for (const SiteCounters& c : g_sites) {
    total_records += c.records.load(std::memory_order_relaxed);
    total_measured += c.measured.load(std::memory_order_relaxed);
    total_mispredicts += c.mispredicts.load(std::memory_order_relaxed);
  }
  std::snprintf(line, sizeof line,
                "decision audit: %" PRIu64 " recorded, %" PRIu64
                " measured, %" PRIu64 " mispredicted (ring capacity %" PRIu64
                ")\n",
                total_records, total_measured, total_mispredicts,
                kRingCapacity);
  text.append(line);
  for (int i = 0; i < kDecisionSiteCount; ++i) {
    const SiteCounters& c = g_sites[i];
    uint64_t r = c.records.load(std::memory_order_relaxed);
    if (r == 0) continue;
    std::snprintf(line, sizeof line,
                  "  site %-15s records=%" PRIu64 " measured=%" PRIu64
                  " mispredicts=%" PRIu64 " predicted_units=%" PRIu64
                  " measured_units=%" PRIu64 "\n",
                  kSiteNames[i], r, c.measured.load(std::memory_order_relaxed),
                  c.mispredicts.load(std::memory_order_relaxed),
                  c.predicted_units.load(std::memory_order_relaxed),
                  c.measured_units.load(std::memory_order_relaxed));
    text.append(line);
  }
  DecisionRecord rows[kRingCapacity];
  int n = decision_snapshot(rows, static_cast<int>(kRingCapacity), op, ctx);
  if (n == 0) {
    text.append(total_records == 0
                    ? "  no decisions recorded yet\n"
                    : "  no ring records match the filter\n");
    return text;
  }
  std::snprintf(line, sizeof line, "  newest %d record(s)%s%s:\n", n,
                (op != nullptr && op[0] != '\0') ? " for op " : "",
                (op != nullptr && op[0] != '\0') ? op : "");
  text.append(line);
  for (int i = 0; i < n; ++i) {
    const DecisionRecord& r = rows[i];
    std::snprintf(line, sizeof line,
                  "  [#%" PRIu64 "] %s %s ctx=%" PRIu64
                  ": chose %s over %s (predicted %g vs %g units)",
                  r.seq, r.op, decision_site_name(r.site), r.ctx, r.chosen,
                  r.rejected, r.predicted_cost, r.alternative_cost);
    text.append(line);
    if (r.measured) {
      std::snprintf(line, sizeof line,
                    "; measured %" PRIu64 " ns, %" PRIu64 " units%s",
                    r.measured_ns, r.measured_units,
                    r.mispredict ? " MISPREDICT" : "");
      text.append(line);
    }
    text.push_back('\n');
  }
  return text;
}

bool decision_stats_get(const char* name, uint64_t* value) {
  *value = 0;
  if (std::strncmp(name, "decision.", 9) != 0) return false;
  const char* rest = name + 9;
  uint64_t total_records = 0;
  uint64_t total_measured = 0;
  uint64_t total_mispredicts = 0;
  for (const SiteCounters& c : g_sites) {
    total_records += c.records.load(std::memory_order_relaxed);
    total_measured += c.measured.load(std::memory_order_relaxed);
    total_mispredicts += c.mispredicts.load(std::memory_order_relaxed);
  }
  if (std::strcmp(rest, "records") == 0) {
    *value = total_records;
    return true;
  }
  if (std::strcmp(rest, "measured") == 0) {
    *value = total_measured;
    return true;
  }
  if (std::strcmp(rest, "mispredicts") == 0) {
    *value = total_mispredicts;
    return true;
  }
  if (std::strcmp(rest, "ring_capacity") == 0) {
    *value = kRingCapacity;
    return true;
  }
  for (int i = 0; i < kDecisionSiteCount; ++i) {
    size_t len = std::strlen(kSiteNames[i]);
    if (std::strncmp(rest, kSiteNames[i], len) != 0 || rest[len] != '.')
      continue;
    const char* field = rest + len + 1;
    const SiteCounters& c = g_sites[i];
    if (std::strcmp(field, "records") == 0)
      *value = c.records.load(std::memory_order_relaxed);
    else if (std::strcmp(field, "measured") == 0)
      *value = c.measured.load(std::memory_order_relaxed);
    else if (std::strcmp(field, "mispredicts") == 0)
      *value = c.mispredicts.load(std::memory_order_relaxed);
    else if (std::strcmp(field, "predicted_units") == 0)
      *value = c.predicted_units.load(std::memory_order_relaxed);
    else if (std::strcmp(field, "measured_units") == 0)
      *value = c.measured_units.load(std::memory_order_relaxed);
    else
      return false;
    return true;
  }
  return false;
}

std::string decision_json() {
  std::string out = "{";
  char buf[256];
  uint64_t head = g_head.load(std::memory_order_relaxed);
  std::snprintf(buf, sizeof buf,
                "\"enabled\":%s,\"ring_capacity\":%" PRIu64
                ",\"recorded\":%" PRIu64 ",\"sites\":{",
                decision_enabled() ? "true" : "false", kRingCapacity, head);
  out.append(buf);
  bool first = true;
  for (int i = 0; i < kDecisionSiteCount; ++i) {
    const SiteCounters& c = g_sites[i];
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(
        buf, sizeof buf,
        "\"%s\":{\"records\":%" PRIu64 ",\"measured\":%" PRIu64
        ",\"mispredicts\":%" PRIu64 ",\"predicted_units\":%" PRIu64
        ",\"measured_units\":%" PRIu64 "}",
        kSiteNames[i], c.records.load(std::memory_order_relaxed),
        c.measured.load(std::memory_order_relaxed),
        c.mispredicts.load(std::memory_order_relaxed),
        c.predicted_units.load(std::memory_order_relaxed),
        c.measured_units.load(std::memory_order_relaxed));
    out.append(buf);
  }
  out.append("}}");
  return out;
}

void decision_prometheus(std::string& out) {
  char buf[192];
  out.append(
      "# HELP grb_decision_records_total Adaptive cost-model decisions "
      "recorded per site.\n# TYPE grb_decision_records_total counter\n");
  for (int i = 0; i < kDecisionSiteCount; ++i) {
    std::snprintf(buf, sizeof buf,
                  "grb_decision_records_total{site=\"%s\"} %" PRIu64 "\n",
                  kSiteNames[i],
                  g_sites[i].records.load(std::memory_order_relaxed));
    out.append(buf);
  }
  out.append(
      "# HELP grb_decision_measured_total Decisions completed with a "
      "post-execution measurement.\n"
      "# TYPE grb_decision_measured_total counter\n");
  for (int i = 0; i < kDecisionSiteCount; ++i) {
    std::snprintf(buf, sizeof buf,
                  "grb_decision_measured_total{site=\"%s\"} %" PRIu64 "\n",
                  kSiteNames[i],
                  g_sites[i].measured.load(std::memory_order_relaxed));
    out.append(buf);
  }
  out.append(
      "# HELP grb_decision_mispredicts_total Measured decisions whose "
      "predicted work was off by more than 2x.\n"
      "# TYPE grb_decision_mispredicts_total counter\n");
  for (int i = 0; i < kDecisionSiteCount; ++i) {
    std::snprintf(buf, sizeof buf,
                  "grb_decision_mispredicts_total{site=\"%s\"} %" PRIu64 "\n",
                  kSiteNames[i],
                  g_sites[i].mispredicts.load(std::memory_order_relaxed));
    out.append(buf);
  }
}

uint64_t decision_ring_capacity() { return kRingCapacity; }

void decision_env_activate() {
  const char* v = std::getenv("GRB_DECISIONS");
  if (v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0)
    decision_set_enabled(true);
}

}  // namespace obs
}  // namespace grb
