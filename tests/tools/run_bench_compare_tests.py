#!/usr/bin/env python3
"""Self-tests for tools/bench_compare.py's machine-fingerprint rule.

Fixtures under tests/tools/fixtures/bench_compare/ hold one benchmark
each: machine_a and machine_a_slower share a fingerprint (the second is
50% slower), machine_b differs in nproc and cpu_model, and no_machine
carries no fingerprint.  Each case asserts the exit code and, where the
comparison is refused, that the message names the differing fields.

Usage: run_bench_compare_tests.py [--repo DIR]
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures", "bench_compare")

# (old, new, extra args, expected exit code, text stderr must contain)
CASES = [
    ("machine_a", "machine_a", [], 0, None),
    ("machine_a", "machine_a_slower", [], 1, None),
    ("machine_a", "machine_b", [], 2, "nproc"),
    ("machine_a", "machine_b", [], 2, "cpu_model"),
    ("machine_a", "machine_b", ["--allow-cross-machine"], 0, "warning"),
    ("no_machine", "machine_b", [], 0, None),
    ("machine_a", "no_machine", [], 0, None),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=os.path.dirname(os.path.dirname(HERE)))
    args = ap.parse_args()
    tool = os.path.join(args.repo, "tools", "bench_compare.py")
    failures = 0
    for old, new, extra, want_rc, want_text in CASES:
        cmd = [sys.executable, tool, os.path.join(FIXTURES, old + ".json"),
               os.path.join(FIXTURES, new + ".json")] + extra
        proc = subprocess.run(cmd, capture_output=True, text=True)
        ok = proc.returncode == want_rc and (
            want_text is None or want_text in proc.stderr)
        label = f"{old} -> {new} {' '.join(extra)}".strip()
        print(f"{'PASS' if ok else 'FAIL'}: {label} (exit {proc.returncode},"
              f" want {want_rc})")
        if not ok:
            failures += 1
            print(proc.stdout + proc.stderr)
    print(f"{len(CASES) - failures}/{len(CASES)} cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
