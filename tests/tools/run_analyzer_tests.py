#!/usr/bin/env python3
"""Self-tests for tools/grb_analyze.py.

Each fixture under tests/tools/fixtures/ is a miniature repository
(include/graphblas/GraphBLAS.h + src/ files) seeding known violations
of one rule family next to compliant look-alikes, plus
suppression-mechanism probes (inline allow markers, an honored
suppression-file entry, and a deliberately stale one).  A rule whose
input files a fixture lacks must stay silent there, so every other
rule's count is zero.  The test asserts, per fixture, the EXACT per-rule finding
counts and the suppressed count — a rule that silently stops firing is
as much a failure as one that over-fires.  Finally the analyzer runs
against the real repository, which must report zero unsuppressed
findings (the ci gate's definition of green).

Usage: run_analyzer_tests.py [--repo DIR]
"""

import argparse
import collections
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

# fixture name -> (expected per-rule finding counts, expected suppressed)
EXPECT = {
    "alloc_under_lock": ({"no-alloc-under-lock": 3}, 1),
    "barrier_read": ({"barrier-before-read": 1}, 0),
    "decision_audit": ({"decision-audit-coverage": 2}, 0),
    "atomic_order": ({"atomic-order-explicit": 3, "stale-suppression": 1}, 1),
    "entry_parity": ({"entry-point-parity": 5}, 0),
    "throw_escape": ({"no-throw-escape": 2}, 0),
    "null_check": ({"null-check-before-deref": 3}, 0),
    "info_strings": ({"info-string-coverage": 3}, 0),
    "descriptor_coverage": ({"descriptor-coverage": 2}, 0),
    "ops_validate": ({"ops-validate-first": 2}, 0),
    "poison_message": ({"poison-has-message": 3}, 1),
}


def run_analyzer(repo_root, analyzer, repo):
    with tempfile.NamedTemporaryFile(mode="r", suffix=".json",
                                     delete=False) as tf:
        report_path = tf.name
    try:
        proc = subprocess.run(
            [sys.executable, analyzer, "--repo", repo,
             "--json", report_path],
            capture_output=True, text=True)
        try:
            with open(report_path) as f:
                report = json.load(f)
        except (OSError, ValueError):
            report = None
        return proc, report
    finally:
        os.unlink(report_path)


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--repo", default=os.path.dirname(os.path.dirname(HERE)),
                    help="real repository root for the clean-tree check")
    args = ap.parse_args(argv)
    repo = os.path.abspath(args.repo)
    analyzer = os.path.join(repo, "tools", "grb_analyze.py")

    failures = []

    def check(cond, what):
        tag = "ok" if cond else "FAIL"
        print("  %-4s %s" % (tag, what))
        if not cond:
            failures.append(what)

    for name in sorted(EXPECT):
        want_counts, want_suppressed = EXPECT[name]
        fixture = os.path.join(FIXTURES, name)
        print("fixture %s:" % name)
        if not os.path.isdir(fixture):
            check(False, "fixture directory exists")
            continue
        proc, report = run_analyzer(repo, analyzer, fixture)
        if report is None:
            check(False, "analyzer produced a JSON report (stdout: %r, "
                         "stderr: %r)" % (proc.stdout[-400:],
                                          proc.stderr[-400:]))
            continue
        got = collections.Counter(f["rule"] for f in report["findings"])
        for rule, n in sorted(want_counts.items()):
            check(got.get(rule, 0) == n,
                  "%s fires exactly %d time(s) [got %d]"
                  % (rule, n, got.get(rule, 0)))
        extra = {r: n for r, n in got.items() if r not in want_counts}
        check(not extra, "no findings from other rules [got %s]" % (
            dict(extra) or "none"))
        check(report["suppressed"] == want_suppressed,
              "suppressed == %d [got %d]"
              % (want_suppressed, report["suppressed"]))
        want_exit = 1 if want_counts else 0
        check(proc.returncode == want_exit,
              "exit status %d [got %d]" % (want_exit, proc.returncode))

    print("clean tree (%s):" % repo)
    proc, report = run_analyzer(repo, analyzer, repo)
    check(report is not None, "analyzer produced a JSON report")
    if report is not None:
        check(not report["findings"],
              "zero unsuppressed findings [got %d]" % len(report["findings"]))
        check(report["functions"] > 500,
              "program model is populated (%d functions)"
              % report["functions"])
        check(report["entry_points"] > 150,
              "every header definition is an entry point (%d)"
              % report["entry_points"])
    check(proc.returncode == 0, "exit status 0 [got %d]" % proc.returncode)

    if failures:
        print("FAILED: %d assertion(s)" % len(failures))
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
