#!/usr/bin/env python3
"""Summarize a GraphBLAS Chrome trace-event dump (GRB_TRACE / GxB_Trace_dump).

Reads the trace JSON and prints:
  * top-N spans by total and by self time (self = duration minus the
    durations of directly nested spans on the same thread), split by
    category ("api" = GrB_*/GxB_* entry points, "deferred" = deferred
    method executions during complete());
  * a histogram of the deferral gap (time between a method call and its
    deferred execution, the "gap_us" span argument) — the paper's
    nonblocking-mode latency made visible;
  * the enqueue->exec attribution table built from Chrome flow events:
    each deferred method carries a flow id emitted as an "s" record
    inside the enqueuing API span and a "t" record at the execution
    site, so chains (which entry point produced which deferred
    work) are linked exactly, not guessed from names.  Chains rank by
    total execution self time.

Usage: grb_trace_summarize.py trace.json [--top N] [--json]

Exits nonzero if the file cannot be parsed or holds no span events, so
it doubles as a ctest check on the trace-producing pipeline.
Pure stdlib; no dependencies.
"""

import argparse
import json
import sys
from collections import defaultdict


def load_events(path):
    """Return (events, dropped): span list and the dump's dropped count."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    dropped = doc.get("droppedEvents", 0) if isinstance(doc, dict) else 0
    if not isinstance(events, list):
        raise ValueError("traceEvents is not a list")
    return events, dropped


def self_times(spans):
    """Self time per span: duration minus directly nested child durations.

    `spans` is a list of dicts with ts/dur (microseconds) on one thread.
    Chrome 'X' events on a thread nest properly by construction (they
    come from scoped RAII hooks), so a stack sweep suffices.
    """
    out = [s["dur"] for s in spans]
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
    stack = []  # indices of currently open spans
    for i in order:
        s = spans[i]
        while stack and spans[stack[-1]]["ts"] + spans[stack[-1]]["dur"] <= s["ts"]:
            stack.pop()
        if stack:
            out[stack[-1]] -= s["dur"]
        stack.append(i)
    return out


def flow_chains(events, spans):
    """Link "s" (enqueue) flow records to their "t" (execution) ends.

    Each end binds to its enclosing 'X' span by (tid, ts) — the same
    rule the trace viewer uses to draw the arrow.  Returns
    ({(enqueue_op, exec_name): [count, gap_us, exec_self_us]},
     linked, unmatched); spans must already carry "_self" annotations.
    """
    starts, steps = {}, {}
    for e in events:
        if e.get("ph") == "s" and e.get("id") is not None:
            starts.setdefault(e["id"], e)
        elif e.get("ph") == "t" and e.get("id") is not None:
            steps.setdefault(e["id"], e)
    by_tid = defaultdict(list)
    for sp in spans:
        by_tid[sp.get("tid", 0)].append(sp)

    def enclosing(tid, ts):
        best = None
        for sp in by_tid.get(tid, ()):
            if sp["ts"] <= ts <= sp["ts"] + sp["dur"]:
                if best is None or sp["dur"] < best["dur"]:
                    best = sp
        return best

    chains = defaultdict(lambda: [0, 0.0, 0.0])
    linked = unmatched = 0
    for fid, s_ev in starts.items():
        t_ev = steps.get(fid)
        if t_ev is None:
            unmatched += 1
            continue
        linked += 1
        exec_span = enclosing(t_ev.get("tid", 0), t_ev["ts"])
        exec_name = exec_span["name"] if exec_span is not None \
            else t_ev.get("name", "?")
        row = chains[(s_ev.get("name", "?"), exec_name)]
        row[0] += 1
        row[1] += max(t_ev["ts"] - s_ev["ts"], 0.0)
        row[2] += exec_span.get("_self", 0.0) if exec_span is not None \
            else 0.0
    unmatched += sum(1 for fid in steps if fid not in starts)
    return chains, linked, unmatched


def fmt_us(us):
    if us >= 1e6:
        return "%.2fs" % (us / 1e6)
    if us >= 1e3:
        return "%.2fms" % (us / 1e3)
    return "%.1fus" % us


def print_table(title, rows, top):
    print("\n%s" % title)
    print("  %-44s %8s %12s %12s" % ("name", "count", "total", "mean"))
    for name, count, total in rows[:top]:
        print("  %-44s %8d %12s %12s"
              % (name[:44], count, fmt_us(total), fmt_us(total / count)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace-event JSON file")
    ap.add_argument("--top", type=int, default=15, metavar="N",
                    help="rows per table (default 15)")
    ap.add_argument("--json", action="store_true",
                    help="emit the summary as JSON instead of tables")
    args = ap.parse_args()

    try:
        events, dropped = load_events(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        print("grb_trace_summarize: cannot read %s: %s" % (args.trace, exc),
              file=sys.stderr)
        return 2

    if dropped:
        print("=" * 64, file=sys.stderr)
        print("WARNING: %d span event(s) were DROPPED from this trace —"
              % dropped, file=sys.stderr)
        print("the span buffer overflowed while recording.  Totals below"
              " UNDERCOUNT the real workload.", file=sys.stderr)
        print("=" * 64, file=sys.stderr)

    spans = [e for e in events if e.get("ph") == "X"]
    counters = [e for e in events if e.get("ph") == "C"]
    if not spans:
        print("grb_trace_summarize: no span ('X') events in %s" % args.trace,
              file=sys.stderr)
        return 3

    bad = [e for e in spans
           if not isinstance(e.get("ts"), (int, float))
           or not isinstance(e.get("dur"), (int, float)) or e["dur"] < 0]
    if bad:
        print("grb_trace_summarize: %d malformed span events" % len(bad),
              file=sys.stderr)
        return 4

    # Total and self time per (cat, name).
    total = defaultdict(lambda: [0, 0.0])   # name -> [count, total_us]
    self_tot = defaultdict(float)           # name -> self_us
    by_tid = defaultdict(list)
    for s in spans:
        key = (s.get("cat", "api"), s["name"])
        total[key][0] += 1
        total[key][1] += s["dur"]
        by_tid[s.get("tid", 0)].append(s)
    for tid_spans in by_tid.values():
        for s, self_us in zip(tid_spans, self_times(tid_spans)):
            self_tot[(s.get("cat", "api"), s["name"])] += self_us
            s["_self"] = self_us

    def table(cat, metric):
        rows = []
        for (c, name), (count, tot) in total.items():
            if c != cat:
                continue
            val = tot if metric == "total" else self_tot[(c, name)]
            rows.append((name, count, val))
        rows.sort(key=lambda r: -r[2])
        return rows

    # Deferral-gap histogram (log2 microsecond buckets).
    gaps = [e.get("args", {}).get("gap_us", 0)
            for e in spans if e.get("cat") == "deferred"]
    hist = defaultdict(int)
    for g in gaps:
        b = 0
        while (1 << (b + 1)) <= max(g, 1) and b < 24:
            b += 1
        hist[b] += 1

    # Enqueue->exec chains from the flow events.
    chains, flows_linked, flows_unmatched = flow_chains(events, spans)
    chain_rows = sorted(
        ((enq, ex, n, gap, self_us)
         for (enq, ex), (n, gap, self_us) in chains.items()),
        key=lambda r: -r[4])

    if args.json:
        out = {
            "spans": len(spans),
            "counters": len(counters),
            "dropped": dropped,
            "flows_linked": flows_linked,
            "flows_unmatched": flows_unmatched,
            "chains": [{"enqueue": enq, "exec": ex, "count": n,
                        "gap_us": gap, "exec_self_us": self_us}
                       for enq, ex, n, gap, self_us
                       in chain_rows[:args.top]],
            "api": [{"name": n, "count": c, "total_us": t}
                    for n, c, t in table("api", "total")[:args.top]],
            "api_self": [{"name": n, "count": c, "self_us": t}
                         for n, c, t in table("api", "self")[:args.top]],
            "deferred": [{"name": n, "count": c, "total_us": t}
                         for n, c, t in table("deferred", "total")[:args.top]],
            "gap_histogram_us": {str(1 << b): n
                                 for b, n in sorted(hist.items())},
        }
        print(json.dumps(out, indent=2))
        return 0

    print("%s: %d span events, %d counter samples, %d threads"
          % (args.trace, len(spans), len(counters), len(by_tid)))
    print_table("Top API spans by total time", table("api", "total"), args.top)
    print_table("Top API spans by self time", table("api", "self"), args.top)
    if any(c == "deferred" for c, _ in total):
        print_table("Deferred method executions",
                    table("deferred", "total"), args.top)
        print("\nDeferral gap (call -> deferred execution):")
        for b, n in sorted(hist.items()):
            lo, hi = 1 << b, 1 << (b + 1)
            bar = "#" * min(n, 60)
            print("  %8s-%-8s %6d %s" % (fmt_us(lo), fmt_us(hi), n, bar))
    if chain_rows:
        print("\nEnqueue -> exec chains (%d flow(s) linked, %d unmatched),"
              " by exec self time" % (flows_linked, flows_unmatched))
        print("  %-52s %6s %10s %10s"
              % ("enqueue op -> executed as", "count", "gap", "self"))
        for enq, ex, n, gap, self_us in chain_rows[:args.top]:
            label = "%s -> %s" % (enq, ex)
            print("  %-52s %6d %10s %10s"
                  % (label[:52], n, fmt_us(gap), fmt_us(self_us)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
