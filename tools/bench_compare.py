#!/usr/bin/env python3
"""Compare two BENCH_*.json result sets and flag median regressions.

Each input is either a single BENCH_*.json file produced by the
JsonTrajectoryReporter (bench/bench_util.hpp) or a directory holding
several of them.  Benchmarks are keyed by (binary, name, params); for
every key present in both sets the median_ns ratio new/old is printed,
and any slowdown beyond --threshold (default 10%) is flagged as a
REGRESSION.  Exits nonzero when at least one regression is found, so CI
can gate on it; keys present in only one set are reported but do not
fail the comparison (benchmarks come and go across PRs).

Timings from different machines are not comparable.  A BENCH file may
carry a "machine" fingerprint (nproc, cpu_model, compiler, build_type;
bench/bench_util.hpp writes it).  When both sets carry one and the
fingerprints differ, the comparison is refused (exit 2) with the
differing fields named, unless --allow-cross-machine is given.  Files
without a fingerprint compare as before.

Usage: bench_compare.py OLD NEW [--threshold 0.10] [--json out.json]
                        [--allow-cross-machine]

Pure stdlib; no dependencies.
"""

import argparse
import json
import os
import sys


FINGERPRINT_FIELDS = ("nproc", "cpu_model", "compiler", "build_type")


def load_set(path):
    """Return ({(binary, name, params): median_ns}, fingerprint or None).

    The fingerprint is the first "machine" object found in the set.

    Missing or malformed files are warned about and skipped — a crashed
    or interrupted benchmark run must not take the whole comparison down
    with a traceback.  Only real regressions produce a nonzero exit.
    """
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f)
            for f in os.listdir(path)
            if f.startswith("BENCH_") and f.endswith(".json")
        )
        if not files:
            print(f"warning: no BENCH_*.json files under {path}",
                  file=sys.stderr)
    else:
        files = [path]
    rows = {}
    machine = None
    for fname in files:
        try:
            with open(fname, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except OSError as e:
            print(f"warning: skipping {fname}: {e}", file=sys.stderr)
            continue
        except json.JSONDecodeError as e:
            print(f"warning: skipping {fname}: malformed JSON ({e})",
                  file=sys.stderr)
            continue
        if not isinstance(doc, dict):
            print(f"warning: skipping {fname}: not a JSON object",
                  file=sys.stderr)
            continue
        if machine is None and isinstance(doc.get("machine"), dict):
            machine = doc["machine"]
        binary = doc.get("binary", os.path.basename(fname))
        bench_list = doc.get("benchmarks", [])
        if not isinstance(bench_list, list):
            print(f"warning: skipping {fname}: 'benchmarks' is not a list",
                  file=sys.stderr)
            continue
        for b in bench_list:
            try:
                key = (binary, b["name"], b.get("params", ""))
                rows[key] = float(b["median_ns"])
            except (TypeError, KeyError, ValueError) as e:
                print(
                    f"warning: skipping malformed benchmark entry in "
                    f"{fname}: {e!r}",
                    file=sys.stderr,
                )
    return rows, machine


def fingerprint_diff(old, new):
    """Fields whose values differ between two fingerprints, as text."""
    if old is None or new is None:
        return []
    return [f"{k}: {old.get(k)!r} -> {new.get(k)!r}"
            for k in FINGERPRINT_FIELDS if old.get(k) != new.get(k)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="baseline BENCH json file or directory")
    ap.add_argument("new", help="candidate BENCH json file or directory")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="slowdown fraction that counts as a regression (default 0.10)",
    )
    ap.add_argument("--json", help="write the comparison table to this file")
    ap.add_argument(
        "--allow-cross-machine",
        action="store_true",
        help="compare even when the machine fingerprints differ",
    )
    args = ap.parse_args()

    old, old_machine = load_set(args.old)
    new, new_machine = load_set(args.new)
    diff = fingerprint_diff(old_machine, new_machine)
    if diff:
        if not args.allow_cross_machine:
            print("error: refusing to compare results from different "
                  "machines; differing fingerprint fields:", file=sys.stderr)
            for d in diff:
                print(f"  {d}", file=sys.stderr)
            print("pass --allow-cross-machine to compare anyway",
                  file=sys.stderr)
            return 2
        print("warning: comparing across machines: " + "; ".join(diff),
              file=sys.stderr)
    common = sorted(set(old) & set(new))
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))

    table = []
    regressions = 0
    for key in common:
        ratio = new[key] / old[key] if old[key] > 0 else float("inf")
        regressed = ratio > 1.0 + args.threshold
        regressions += regressed
        table.append(
            {
                "binary": key[0],
                "name": key[1],
                "params": key[2],
                "old_ns": old[key],
                "new_ns": new[key],
                "ratio": ratio,
                "regression": regressed,
            }
        )

    width = max((len(f"{r['name']}{r['params']}") for r in table), default=4)
    print(f"{'benchmark':<{width}}  {'old_ms':>10}  {'new_ms':>10}  ratio")
    for r in table:
        label = f"{r['name']}{r['params']}"
        tag = "  REGRESSION" if r["regression"] else ""
        print(
            f"{label:<{width}}  {r['old_ns'] / 1e6:>10.3f}"
            f"  {r['new_ns'] / 1e6:>10.3f}  {r['ratio']:>5.2f}x{tag}"
        )
    for key in only_old:
        print(f"only in baseline: {key[1]}{key[2]} ({key[0]})")
    for key in only_new:
        print(f"only in candidate: {key[1]}{key[2]} ({key[0]})")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(
                {"threshold": args.threshold, "rows": table}, f, indent=1
            )

    if not common:
        # Not a gating failure: sets legitimately diverge when benchmarks
        # are renamed or a run produced no usable files (warned above).
        print(
            "warning: no common benchmarks between the two sets",
            file=sys.stderr,
        )
        return 0
    if regressions:
        print(
            f"{regressions} regression(s) beyond "
            f"{args.threshold:.0%} slowdown"
        )
        return 1
    print(f"OK: {len(common)} benchmarks within {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
