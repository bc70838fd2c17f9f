#!/usr/bin/env python3
"""Validate a GraphBLAS Prometheus exposition (GRB_METRICS / GxB_Stats_prometheus).

A tiny text-format (version 0.0.4) parser: every non-comment line must be

    metric_name{label="value",...} <number>

with metric and label names matching the Prometheus charset, and every
metric must be introduced by # HELP / # TYPE comments.  On top of the
syntax, the GraphBLAS exposition contract is enforced:

  * per-op latency summaries carry quantile="0.5" and quantile="0.99"
    series (plus _sum/_count), so p50/p99 are always scrapeable;
  * the memory gauges grb_memory_live_bytes / grb_memory_peak_bytes are
    present — the attribution layer is always on;
  * label values use only the text-format escapes (\\, \", \n);
  * no family is introduced by two # TYPE lines (a scraper keeps one and
    silently drops the other exposition);
  * no two samples of one metric share an identical label set (the later
    sample would overwrite the earlier in the scrape);
  * with --require-contexts N, the per-op series must carry at least N
    distinct context="..." tenant labels;
  * whenever the decision-audit families (grb_decision_records_total,
    _measured_total, _mispredicts_total) appear, all three carry the same
    non-empty set of site labels and the per-site invariant
    mispredicts <= measured <= records holds; --require-decisions makes
    their absence an error, and fails any site whose mispredicts exceed
    MISPREDICT_RATE_LIMIT of its measured records (a cost-model
    regression gate).

Usage: grb_prom_check.py metrics.prom [--require-op NAME]
                                      [--require-contexts N]
                                      [--require-decisions]
Exit status: 0 when valid, 1 on any violation, 2 on usage error.
Pure stdlib; no dependencies.
"""

import argparse
import re
import sys

NAME_RE = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
LABEL_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(?:,|$)')
LINE_RE = re.compile(
    r"^(%s)(?:\{([^}]*)\})?\s+(-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
    r"|[+-]?Inf|NaN))$" % NAME_RE)

REQUIRED_GAUGES = ("grb_memory_live_bytes", "grb_memory_peak_bytes")
REQUIRED_QUANTILES = ("0.5", "0.99")
# Decision-audit exposition contract: the three families move together,
# one series per audited site.  The site list itself is the library's
# (obs/decision.cpp); this check only holds the families to each other.
DECISION_FAMILIES = ("grb_decision_records_total",
                     "grb_decision_measured_total",
                     "grb_decision_mispredicts_total")
# --require-decisions: the largest share of a site's measured records
# that may mispredict (predicted work off by more than 2x).
MISPREDICT_RATE_LIMIT = 0.25
# The only escapes the text format (version 0.0.4) defines inside a
# quoted label value.
BAD_ESCAPE_RE = re.compile(r"\\(?![\\\"n])")


def parse(path):
    """Return (samples, typed, errors).

    samples: list of (metric, {label: value}, sample-value) tuples;
    typed:   {metric_family: type} from # TYPE comments.
    """
    samples, typed, helped, errors = [], {}, set(), []
    seen = {}  # (metric, sorted label items) -> first line number
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("# HELP "):
                parts = line.split(None, 3)
                if len(parts) < 4:
                    errors.append("%d: malformed HELP line" % lineno)
                else:
                    helped.add(parts[2])
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                if len(parts) != 4 or parts[3] not in (
                        "counter", "gauge", "summary", "histogram",
                        "untyped"):
                    errors.append("%d: malformed TYPE line" % lineno)
                elif parts[2] in typed:
                    errors.append(
                        "%d: duplicate # TYPE for family %s"
                        % (lineno, parts[2]))
                else:
                    typed[parts[2]] = parts[3]
                continue
            if line.startswith("#"):
                continue  # other comments are legal
            m = LINE_RE.match(line)
            if not m:
                errors.append("%d: unparseable sample line: %s"
                              % (lineno, line[:80]))
                continue
            name, labelstr, value = m.groups()
            labels = {}
            if labelstr:
                consumed = sum(len(lm.group(0))
                               for lm in LABEL_RE.finditer(labelstr))
                if consumed != len(labelstr):
                    errors.append("%d: malformed label set {%s}"
                                  % (lineno, labelstr))
                    continue
                labels = {lm.group(1): lm.group(2)
                          for lm in LABEL_RE.finditer(labelstr)}
                for lname, lvalue in labels.items():
                    if BAD_ESCAPE_RE.search(lvalue):
                        errors.append(
                            '%d: label %s="%s" uses an escape other '
                            "than \\\\, \\\", \\n" % (lineno, lname, lvalue))
            key = (name, tuple(sorted(labels.items())))
            if key in seen:
                errors.append(
                    "%d: duplicate sample %s{%s} (first at line %d)"
                    % (lineno, name,
                       ",".join("%s=%r" % kv
                                for kv in sorted(labels.items())),
                       seen[key]))
            else:
                seen[key] = lineno
            samples.append((name, labels, float(value)))
            family = re.sub(r"_(sum|count|bucket)$", "", name)
            if family not in typed and name not in typed:
                errors.append("%d: sample %s has no preceding # TYPE"
                              % (lineno, name))
            if family not in helped and name not in helped:
                errors.append("%d: sample %s has no preceding # HELP"
                              % (lineno, name))
    return samples, typed, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("metrics", help="Prometheus text exposition file")
    ap.add_argument("--require-op", action="append", default=[],
                    metavar="NAME",
                    help="require latency quantiles for this GrB op "
                         "(repeatable)")
    ap.add_argument("--require-contexts", type=int, default=0, metavar="N",
                    help="require at least N distinct context=\"...\" "
                         "tenant labels on the per-op series")
    ap.add_argument("--require-decisions", action="store_true",
                    help="require the decision-audit counter families "
                         "to be present and every site's mispredict "
                         "rate to stay at or below %g"
                         % MISPREDICT_RATE_LIMIT)
    args = ap.parse_args()

    try:
        samples, typed, errors = parse(args.metrics)
    except OSError as exc:
        print("grb_prom_check: cannot read %s: %s" % (args.metrics, exc),
              file=sys.stderr)
        return 2

    names = {name for name, _, _ in samples}
    for gauge in REQUIRED_GAUGES:
        if gauge not in names:
            errors.append("required memory gauge %s is missing" % gauge)
        elif typed.get(gauge) != "gauge":
            errors.append("%s must be # TYPE gauge" % gauge)

    # Latency summaries: every op with a latency series must expose the
    # required quantiles plus _sum and _count.
    ops = {labels.get("op") for name, labels, _ in samples
           if name == "grb_op_latency_ns" and "op" in labels}
    for op in sorted(ops | set(args.require_op)):
        got = {labels.get("quantile") for name, labels, _ in samples
               if name == "grb_op_latency_ns" and labels.get("op") == op}
        for q in REQUIRED_QUANTILES:
            if q not in got:
                errors.append(
                    "grb_op_latency_ns{op=\"%s\"} lacks quantile=\"%s\""
                    % (op, q))
        for suffix in ("_sum", "_count"):
            if not any(name == "grb_op_latency_ns" + suffix
                       and labels.get("op") == op
                       for name, labels, _ in samples):
                errors.append("grb_op_latency_ns%s{op=\"%s\"} is missing"
                              % (suffix, op))
    if typed.get("grb_op_latency_ns") not in (None, "summary"):
        errors.append("grb_op_latency_ns must be # TYPE summary")

    # Tenant attribution: count distinct context labels on the per-op
    # call counters (every attributed series carries one).
    contexts = {labels["context"] for name, labels, _ in samples
                if name == "grb_op_calls_total" and "context" in labels}
    if args.require_contexts and len(contexts) < args.require_contexts:
        errors.append(
            "expected >= %d distinct context labels on the per-op "
            "series, found %d (%s)"
            % (args.require_contexts, len(contexts),
               ", ".join(sorted(contexts)) or "none"))

    # Decision audit: the three families move together — when any one
    # appears, all three must be counters carrying the same non-empty
    # site label set, and the per-site invariant
    # mispredicts <= measured <= records must hold.
    decisions = {}  # site -> {family: value}
    present = set()
    for name, labels, value in samples:
        if name in DECISION_FAMILIES:
            present.add(name)
            if labels.get("site"):
                decisions.setdefault(labels["site"], {})[name] = value
            else:
                errors.append("%s sample without a site label" % name)
    if args.require_decisions and not decisions:
        errors.append("decision-audit families (%s) are missing"
                      % ", ".join(DECISION_FAMILIES))
    if present:
        for fam in DECISION_FAMILIES:
            if fam not in present:
                errors.append("%s is missing while %s are present"
                              % (fam, ", ".join(sorted(present))))
            elif typed.get(fam) not in (None, "counter"):
                errors.append("%s must be # TYPE counter" % fam)
        for site in sorted(decisions):
            vals = decisions[site]
            missing = [f for f in DECISION_FAMILIES if f not in vals]
            if missing:
                errors.append(
                    "site \"%s\" is missing from %s — the decision "
                    "families must move together" % (site,
                                                     ", ".join(missing)))
                continue
            rec = vals["grb_decision_records_total"]
            mea = vals["grb_decision_measured_total"]
            mis = vals["grb_decision_mispredicts_total"]
            if not (mis <= mea <= rec):
                errors.append(
                    "site \"%s\" violates mispredicts <= measured <= "
                    "records (%g, %g, %g)" % (site, mis, mea, rec))
            if (args.require_decisions and mea > 0
                    and mis > MISPREDICT_RATE_LIMIT * mea):
                errors.append(
                    "site \"%s\" mispredicts %g of %g measured records "
                    "(rate %.2f > %g)"
                    % (site, mis, mea, mis / mea, MISPREDICT_RATE_LIMIT))

    for e in errors:
        print("grb_prom_check: %s" % e, file=sys.stderr)
    print("grb_prom_check: %d samples, %d families, %d op summaries, "
          "%d context(s), %d error(s)"
          % (len(samples), len(typed), len(ops), len(contexts),
             len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
