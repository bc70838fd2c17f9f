#include "obs/decision.hpp"

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/flight_recorder.hpp"
#include "obs/metric_table.hpp"
#include "obs/seq_ring.hpp"

namespace grb {
namespace obs {

namespace {

// Fixed capacity: the audit is a "last N decisions" window, not a log;
// aggregates carry the long-run truth.  Power of two for mask indexing.
// Leaked, like every obs registry, so static teardown never frees it
// under a late record.
constexpr uint64_t kRingCapacity = 256;
SeqRing<DecisionRecord>& g_ring = *new SeqRing<DecisionRecord>(kRingCapacity);

// Sums in site-specific cost units, so mispredict *rates* and the
// aggregate predicted-vs-measured ratio survive ring wrap.
template <class T>
struct SiteCells {
  T records{}, measured{}, mispredicts{}, predicted_units{}, measured_units{};
};
using SiteCounters = SiteCells<std::atomic<uint64_t>>;
using SiteAgg = SiteCells<uint64_t>;
SiteCounters g_sites[kDecisionSiteCount];

// The per-site fields, in JSON order.
const Field<SiteAgg, SiteCounters> kSiteFields[] = {
    {"records", &SiteAgg::records, &SiteCounters::records,
     {"grb_decision_records_total",
      "Adaptive cost-model decisions recorded per site.", "counter"}},
    {"measured", &SiteAgg::measured, &SiteCounters::measured,
     {"grb_decision_measured_total",
      "Decisions completed with a post-execution measurement.", "counter"}},
    {"mispredicts", &SiteAgg::mispredicts, &SiteCounters::mispredicts,
     {"grb_decision_mispredicts_total",
      "Measured decisions whose predicted work was off by more than 2x.",
      "counter"}},
    {"predicted_units", &SiteAgg::predicted_units,
     &SiteCounters::predicted_units,
     {"grb_decision_predicted_units_total",
      "Predicted work of the chosen strategies, in site-specific units.",
      "counter"}},
    {"measured_units", &SiteAgg::measured_units,
     &SiteCounters::measured_units,
     {"grb_decision_measured_units_total",
      "Measured work of the chosen strategies, in site-specific units.",
      "counter"}},
};

constexpr const char* kSiteNames[kDecisionSiteCount] = {
    "exec_path", "spgemm_accum", "masked_dot",
};

std::vector<Keyed<SiteAgg>> site_rows() {
  std::vector<Keyed<SiteAgg>> rows;
  for (int i = 0; i < kDecisionSiteCount; ++i) {
    rows.push_back({kSiteNames[i], prom_label("site", kSiteNames[i]), {}});
    add_live(kSiteFields, g_sites[i], &rows.back().agg);
  }
  return rows;
}

SiteAgg site_total() {
  SiteAgg total;
  for (const SiteCounters& c : g_sites) add_live(kSiteFields, c, &total);
  return total;
}

// Audit-wide numbers; the JSON block carries the ring's size and fill.
const Scalar kDecisionScalars[] = {
    {"decision.records", "", nullptr, [] { return site_total().records; },
     {}},
    {"decision.measured", "", nullptr, [] { return site_total().measured; },
     {}},
    {"decision.mispredicts", "", nullptr,
     [] { return site_total().mispredicts; }, {}},
    {"decision.ring_capacity", "ring_capacity", nullptr,
     [] { return g_ring.capacity(); },
     {"grb_decision_ring_capacity", "Decision-audit ring slots.", "gauge"}},
    {"decision.recorded", "recorded", nullptr, [] { return g_ring.head(); },
     {}},
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
  DecisionRecord r;
  r.ts_ns = now_ns();
  r.ctx = ctx;
  r.op = opname;
  r.chosen = chosen;
  r.rejected = rejected;
  r.predicted_cost = predicted_cost;
  r.alternative_cost = alternative_cost;
  r.site = site;
  ticket.seq = g_ring.push(r);

  SiteCounters& c = g_sites[static_cast<uint8_t>(site)];
  c.records.fetch_add(1, std::memory_order_relaxed);
  c.predicted_units.fetch_add(cost_units(predicted_cost),
                              std::memory_order_relaxed);
  if (flight_enabled())
    fr_record(FrKind::kDecision, decision_site_name(site),
              static_cast<int32_t>(0), ctx);

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
  g_ring.update_if(ticket.seq, [&](DecisionRecord& r) {
    r.measured_ns = ns;
    r.measured_units = measured_units;
    r.measured = true;
    r.mispredict = mp;
  });
}

void decision_set_enabled(bool on) {
  if (on)
    detail::g_flags.fetch_or(kDecisionFlag, std::memory_order_relaxed);
  else
    detail::g_flags.fetch_and(~kDecisionFlag, std::memory_order_relaxed);
}

void decision_reset() {
  for (SiteCounters& c : g_sites) reset_live(kSiteFields, &c);
  g_ring.reset();
}

int decision_snapshot(DecisionRecord* out, int max_records, const char* op,
                      uint64_t ctx) {
  const uint64_t head = g_ring.head();
  const uint64_t start = head > kRingCapacity ? head - kRingCapacity : 0;
  int n = 0;
  for (uint64_t seq = head; seq > start; --seq) {
    if (max_records > 0 && n >= max_records) break;
    DecisionRecord& r = out[n];
    if (!g_ring.read(seq, &r) || r.op == nullptr || r.chosen == nullptr)
      continue;
    if (op != nullptr && op[0] != '\0' && std::strcmp(op, r.op) != 0)
      continue;
    if (ctx != 0 && r.ctx != ctx) continue;
    r.seq = seq;
    ++n;
  }
  return n;
}

std::string decision_explain(const char* op, uint64_t ctx) {
  std::string text;
  char line[256];
  if (!decision_enabled() && g_ring.head() == 0) {
    return "decision audit disabled: enable with GxB_Stats_enable(true) "
           "or GRB_DECISIONS=1\n";
  }
  const SiteAgg total = site_total();
  std::snprintf(line, sizeof line,
                "decision audit: %" PRIu64 " recorded, %" PRIu64
                " measured, %" PRIu64 " mispredicted (ring capacity %" PRIu64
                ")\n",
                total.records, total.measured, total.mispredicts,
                kRingCapacity);
  text.append(line);
  for (const Keyed<SiteAgg>& site : site_rows()) {
    const SiteAgg& c = site.agg;
    if (c.records == 0) continue;
    std::snprintf(line, sizeof line,
                  "  site %-15s records=%" PRIu64 " measured=%" PRIu64
                  " mispredicts=%" PRIu64 " predicted_units=%" PRIu64
                  " measured_units=%" PRIu64 "\n",
                  site.key.c_str(), c.records, c.measured, c.mispredicts,
                  c.predicted_units, c.measured_units);
    text.append(line);
  }
  DecisionRecord rows[kRingCapacity];
  int n = decision_snapshot(rows, static_cast<int>(kRingCapacity), op, ctx);
  if (n == 0) {
    text.append(total.records == 0
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
  if (scalar_get(kDecisionScalars, name, value)) return true;
  if (std::strncmp(name, "decision.", 9) != 0) return false;
  // "decision.<site>.<field>"
  const char* rest = name + 9;
  for (const Keyed<SiteAgg>& site : site_rows()) {
    const size_t len = site.key.size();
    if (std::strncmp(rest, site.key.c_str(), len) == 0 && rest[len] == '.')
      return field_get(kSiteFields, site.agg, rest + len + 1, value);
  }
  return false;
}

std::string decision_json() {
  std::string out =
      decision_enabled() ? "{\"enabled\":true," : "{\"enabled\":false,";
  scalar_json(&out, kDecisionScalars);
  out.append("\"sites\":");
  json_rows(&out, kSiteFields, site_rows());
  out.push_back('}');
  return out;
}

void decision_prometheus(std::string& out) {
  prom_rows(&out, kSiteFields, site_rows());
  scalar_prom(&out, kDecisionScalars);
}

void decision_env_activate() {
  const char* v = std::getenv("GRB_DECISIONS");
  if (v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0)
    decision_set_enabled(true);
}

}  // namespace obs
}  // namespace grb
