// Declarative metric tables (DESIGN.md §9).  Every exported number is a
// row: a Scalar for an unkeyed number, a Field for one number of a keyed
// family (per op × context, pool, lock site, decision site).  One
// renderer per output walks the rows — stats_get (and stats_get_ctx),
// the stats JSON and the Prometheus exposition — so the three read the
// same value under the same row, and a new metric is one new row.  The
// tables only read: every bump site keeps its direct relaxed fetch_add
// on a named field.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace grb {
namespace obs {

// The Prometheus face of a row.  A row with `help` opens a family (its
// HELP and TYPE lines); the rows after it without `help` add samples to
// that family: a second outcome label, a summary's quantiles and its
// _sum/_count samples.  No `family`: the row is not in the exposition.
struct Prom {
  const char* family = nullptr;
  const char* help = nullptr;
  const char* type = nullptr;
  const char* label = nullptr;  // extra label, e.g. quantile="0.5"
};

// An unkeyed number: read from `counter` (zeroed by stats_reset) or
// computed by `gauge` (never reset).  `name` is its stats_get name;
// `json` its key inside its JSON block — nullptr for `name` itself, ""
// for a number only stats_get reports.
struct Scalar {
  const char* name;
  const char* json;
  std::atomic<uint64_t>* counter;
  uint64_t (*gauge)();
  Prom prom;
};

bool scalar_get(std::span<const Scalar> rows, const char* name,
                uint64_t* value);
void scalar_json(std::string* out, std::span<const Scalar> rows);
void scalar_prom(std::string* out, std::span<const Scalar> rows);
void scalar_reset(std::span<const Scalar> rows);

// JSON pieces.  Members are written with a trailing comma, which
// json_close turns into the closing bracket.
void json_key(std::string* out, const char* key);  // "key":
void json_u64(std::string* out, const char* key, uint64_t v);
void json_close(std::string* out, char bracket);

// Prometheus pieces: `name="value"` with the value escaped, and one
// sample line of row `p` under the label body `labels` (may be empty).
std::string prom_label(const char* name, const std::string& value);
void prom_header(std::string* out, const Prom& p);
void prom_sample(std::string* out, const Prom& p, const std::string& labels,
                 uint64_t v);

struct NoLive {};

// One number of a keyed family.  `name` is its JSON key and stats_get
// field (nullptr: exposition only).  `live` is the atomic its bump site
// writes, summed into `value` on read; rows without one are derived
// from the merged aggregate (quantiles, maxima, sums of other rows).
template <class Agg, class Live = NoLive>
struct Field {
  const char* name;
  uint64_t Agg::*value;
  std::atomic<uint64_t> Live::*live;
  Prom prom;
};

// One key of a family as the renderers see it: its JSON key, its
// Prometheus label body and its merged values.
template <class Agg>
struct Keyed {
  std::string key;
  std::string labels;
  Agg agg;
};

template <class Agg, class Live, size_t N>
void add_live(const Field<Agg, Live> (&fields)[N], const Live& from,
              Agg* to) {
  for (const auto& f : fields)
    if (f.live != nullptr)
      to->*f.value += (from.*f.live).load(std::memory_order_relaxed);
}

template <class Agg, class Live, size_t N>
void reset_live(const Field<Agg, Live> (&fields)[N], Live* l) {
  for (const auto& f : fields)
    if (f.live != nullptr) (l->*f.live).store(0, std::memory_order_relaxed);
}

// Moves `from`'s counts into `to` by exchange, so a bump racing the
// move lands on one side or the other: never lost, never doubled.
template <class Agg, class Live, size_t N>
void drain_live(const Field<Agg, Live> (&fields)[N], Live* from, Live* to) {
  for (const auto& f : fields)
    if (f.live != nullptr)
      (to->*f.live)
          .fetch_add((from->*f.live).exchange(0, std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

template <class Agg, class Live, size_t N>
bool all_zero(const Field<Agg, Live> (&fields)[N], const Agg& a) {
  for (const auto& f : fields)
    if (f.name != nullptr && a.*f.value != 0) return false;
  return true;
}

template <class Agg, class Live, size_t N>
bool field_get(const Field<Agg, Live> (&fields)[N], const Agg& a,
               const char* field, uint64_t* value) {
  for (const auto& f : fields) {
    if (f.name != nullptr && std::strcmp(f.name, field) == 0) {
      *value = a.*f.value;
      return true;
    }
  }
  return false;
}

// The named fields of one key as JSON members (no brackets).
template <class Agg, class Live, size_t N>
void json_fields(std::string* out, const Field<Agg, Live> (&fields)[N],
                 const Agg& a) {
  for (const auto& f : fields)
    if (f.name != nullptr) json_u64(out, f.name, a.*f.value);
}

// {"key":{fields},...}; `trim` drops keys whose named fields are all 0.
template <class Agg, class Live, size_t N>
void json_rows(std::string* out, const Field<Agg, Live> (&fields)[N],
               const std::vector<Keyed<Agg>>& rows, bool trim = false) {
  out->push_back('{');
  for (const Keyed<Agg>& r : rows) {
    if (trim && all_zero(fields, r.agg)) continue;
    json_key(out, r.key.c_str());
    out->push_back('{');
    json_fields(out, fields, r.agg);
    json_close(out, '}');
    out->push_back(',');
  }
  json_close(out, '}');
}

// Every family of the table, each with the samples of all keys grouped
// under its one HELP/TYPE header.
template <class Agg, class Live, size_t N>
void prom_rows(std::string* out, const Field<Agg, Live> (&fields)[N],
               const std::vector<Keyed<Agg>>& rows) {
  for (size_t i = 0; i < N; ++i) {
    if (fields[i].prom.help == nullptr) continue;
    prom_header(out, fields[i].prom);
    for (const Keyed<Agg>& r : rows)
      for (size_t j = i; j < N && (j == i || fields[j].prom.help == nullptr);
           ++j)
        if (fields[j].prom.family != nullptr)
          prom_sample(out, fields[j].prom, r.labels, r.agg.*fields[j].value);
  }
}

}  // namespace obs
}  // namespace grb
