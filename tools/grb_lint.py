#!/usr/bin/env python3
"""grb_lint: GraphBLAS C-API spec-conformance linter.

Statically checks the contracts of the GraphBLAS 2.0 error model that the
type system cannot express:

  no-throw-escape         Every public GrB_* entry point in GraphBLAS.h is a
                          single `return grb_detail::guarded(...)` statement,
                          so no C++ exception can cross the C boundary, and
                          the header contains no naked `throw`.
  null-check-before-deref A GrB_* veneer that dereferences a caller argument
                          checks it against nullptr first (API errors must be
                          detected eagerly and deterministically, paper §V).
  info-string-coverage    GrB_Info (C enum), grb::Info (core enum) and the
                          info_name() switch agree: same values, same names,
                          and every code has a printable string.
  descriptor-coverage     Descriptor::set dispatches every DescField, and all
                          31 non-default predefined descriptors are declared
                          with their canonical GrB_DESC_* names.
  ops-validate-first      Every public operation in src/ops/*.cpp validates
                          its object arguments (validate_objects) before it
                          snapshots inputs or defers work.
  poison-has-message      Every poison()/poison_locked() call site registers
                          a non-empty GrB_error string, and the deferred-
                          execution machinery poisons with info_name() text.
Retired rules (delegated to the AST tier, tools/grb_analyze.py — see
DESIGN.md §13; grb_lint stays the fast regex tier and must never
re-grow a rule the analyzer owns, or the two tools can disagree):

  gxb-extension-registry  Every GxB_* entry point is listed in the
  gxb-stats-parity        GxB_EXTENSIONS registry, and every listed name
                          is defined, once.  Now grb_analyze's
                          `entry-point-parity` rule, which checks the
                          registry in both directions and rejects
                          duplicates; a missing stats entry point also
                          fails to compile the obs tests that call it.

  fusion-barrier-coverage Every value-observing read path drains the
                          deferred-op queue before touching published
                          container data.  Now enforced by grb_analyze's
                          `barrier-before-read` rule on the ordered
                          event stream of each function body (calls
                          resolved through the call graph, so nvals()
                          delegation is real resolution, not a regex),
                          which this rule only approximated textually.

Findings can be suppressed with a trailing or preceding-line comment:
    // grb-lint: allow(rule-id)

Usage: grb_lint.py [--repo DIR] [--json REPORT]
Exit status: 0 if no unsuppressed findings, 1 otherwise, 2 on usage error.
"""

import argparse
import json
import os
import re
import sys

HANDLE_TYPES = {
    "GrB_Type", "GrB_UnaryOp", "GrB_BinaryOp", "GrB_IndexUnaryOp",
    "GrB_Monoid", "GrB_Semiring", "GrB_Descriptor", "GrB_Scalar",
    "GrB_Vector", "GrB_Matrix", "GrB_Context",
}

# Canonical letter order for predefined descriptor names (REPLACE,
# STRUCTURE, COMP, TRAN0, TRAN1 — the order the spec's names use).
DESC_LETTERS = [(1, "R"), (4, "S"), (2, "C"), (8, "T0"), (16, "T1")]

# Helper declarations in ops/common.hpp that are not operations themselves.
OPS_HELPER_NAMES = {"validate_objects", "check_cast", "check_accum"}

class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def as_dict(self, repo):
        return {
            "rule": self.rule,
            "file": os.path.relpath(self.path, repo),
            "line": self.line,
            "message": self.message,
        }


class Linter:
    def __init__(self, repo):
        self.repo = repo
        self.findings = []
        self.suppressed = 0
        self.entry_points = 0
        self._suppress_lines = {}  # path -> {line -> set(rules)}

    # -- suppression ------------------------------------------------------

    def _suppressions(self, path):
        if path not in self._suppress_lines:
            table = {}
            try:
                lines = open(path).read().splitlines()
            except OSError:
                lines = []
            for i, text in enumerate(lines, 1):
                for m in re.finditer(r"grb-lint:\s*allow\(([\w,\s-]+)\)",
                                     text):
                    rules = {r.strip() for r in m.group(1).split(",")}
                    # A marker covers its own line and the next one.
                    table.setdefault(i, set()).update(rules)
                    table.setdefault(i + 1, set()).update(rules)
            self._suppress_lines[path] = table
        return self._suppress_lines[path]

    def report(self, rule, path, line, message):
        allowed = self._suppressions(path).get(line, set())
        if rule in allowed:
            self.suppressed += 1
            return
        self.findings.append(Finding(rule, path, line, message))

    # -- source utilities -------------------------------------------------

    @staticmethod
    def strip_comments(text):
        """Blank out // and /* */ comments, preserving line structure."""
        out = []
        i, n = 0, len(text)
        while i < n:
            if text.startswith("//", i):
                j = text.find("\n", i)
                j = n if j < 0 else j
                out.append(" " * (j - i))
                i = j
            elif text.startswith("/*", i):
                j = text.find("*/", i)
                j = n if j < 0 else j + 2
                out.append("".join(c if c == "\n" else " "
                                   for c in text[i:j]))
                i = j
            elif text[i] == '"':
                j = i + 1
                while j < n and text[j] != '"':
                    j += 2 if text[j] == "\\" else 1
                out.append(text[i:j + 1])
                i = j + 1
            else:
                out.append(text[i])
                i += 1
        return "".join(out)

    def read(self, rel):
        path = os.path.join(self.repo, rel)
        with open(path) as f:
            return path, f.read()

    @staticmethod
    def expand_function_macros(text):
        """Expand #define macros whose bodies define GrB_* functions.

        Returns text with each macro invocation replaced by the expanded
        body on the invocation's original line (newlines collapsed so
        line numbers of the rest of the file are preserved).
        """
        macros = {}
        out_lines = []
        lines = text.splitlines()
        i = 0
        while i < len(lines):
            line = lines[i]
            m = re.match(r"#define\s+(\w+)\(([\w,\s]*)\)\s*\\", line)
            if m:
                name, params = m.group(1), m.group(2)
                body = []
                i += 1
                while i < len(lines):
                    raw = lines[i]
                    body.append(raw.rstrip("\\").rstrip())
                    if not raw.rstrip().endswith("\\"):
                        break
                    i += 1
                body_text = "\n".join(body)
                if "inline GrB_Info" in body_text:
                    macros[name] = ([p.strip() for p in params.split(",")
                                     if p.strip()], body_text)
                out_lines.append("")  # keep line count stable
                for _ in body:
                    out_lines.append("")
                i += 1
                continue
            expanded = False
            for name, (params, body_text) in macros.items():
                m = re.match(r"%s\(([^)]*)\)\s*$" % re.escape(name), line)
                if m:
                    args = [a.strip() for a in m.group(1).split(",")]
                    if len(args) == len(params):
                        inst = body_text
                        for p, a in zip(params, args):
                            inst = re.sub(r"\b%s\b" % re.escape(p), a, inst)
                        # Collapse to one line so later lines keep numbers.
                        out_lines.append(inst.replace("\n", " "))
                        expanded = True
                        break
            if not expanded:
                out_lines.append(line)
            i += 1
        return "\n".join(out_lines)

    @staticmethod
    def parse_functions(text, name_re):
        """Yield (name, line, params, body) for functions matching name_re."""
        for m in re.finditer(r"inline GrB_Info (%s)\s*\(" % name_re, text):
            name = m.group(1)
            line = text.count("\n", 0, m.start()) + 1
            i = m.end() - 1
            depth = 0
            start = i
            while i < len(text):
                if text[i] == "(":
                    depth += 1
                elif text[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            params = text[start + 1:i]
            # Find the opening brace (skip declarations, none expected).
            j = text.find("{", i)
            if j < 0:
                continue
            depth = 0
            k = j
            while k < len(text):
                if text[k] == "{":
                    depth += 1
                elif text[k] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            yield name, line, params, text[j + 1:k]

    @staticmethod
    def split_params(params):
        """Split a parameter list at top-level commas -> [(type, name)]."""
        parts, depth, cur = [], 0, []
        for ch in params:
            if ch in "<([":
                depth += 1
            elif ch in ">)]":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        if cur:
            parts.append("".join(cur))
        out = []
        for p in parts:
            p = p.split("=")[0].strip()
            if not p:
                continue
            m = re.match(r"(.+?)\s*(\w+)$", p)
            if m:
                out.append((m.group(1).strip(), m.group(2)))
        return out

    # -- rules ------------------------------------------------------------

    def check_header(self):
        path, raw = self.read("include/graphblas/GraphBLAS.h")
        text = self.expand_function_macros(raw)

        for m in re.finditer(r"\bthrow\b", self.strip_comments(text)):
            line = text.count("\n", 0, m.start()) + 1
            self.report("no-throw-escape", path, line,
                        "naked `throw` in the C API header")

        for name, line, params, body in self.parse_functions(text, r"GrB_\w+"):
            self.entry_points += 1
            stripped = body.strip()
            if not stripped.startswith(
                    "return grb_detail::guarded([&]() -> GrB_Info {"):
                self.report(
                    "no-throw-escape", path, line,
                    "%s does not route through grb_detail::guarded(); an "
                    "exception could escape to the C caller" % name)
            self._check_null_before_deref(path, name, line, params, body)

    def _check_null_before_deref(self, path, name, line, params, body):
        for ptype, pname in self.split_params(params):
            is_handle = ptype.rstrip("&").strip() in HANDLE_TYPES
            is_pointer = "*" in ptype
            if not (is_handle or is_pointer):
                continue
            deref = re.search(
                r"(\b%s->|\*\s*%s\b\s*=|\(\s*\*\s*%s\s*\))"
                % (pname, pname, pname), body)
            if not deref:
                continue
            guard = re.search(r"\b%s\s*==\s*nullptr" % pname, body)
            if guard is None or guard.start() > deref.start():
                self.report(
                    "null-check-before-deref", path, line,
                    "%s dereferences parameter `%s` without a preceding "
                    "nullptr check" % (name, pname))

    def check_gxb_extensions(self):
        """GxB_* extension entry points: guarded veneer + null checks.

        Every `inline GrB_Info GxB_*` function must route through
        grb_detail::guarded like the GrB_* surface and null-check handle
        and pointer parameters before dereferencing.
        """
        path, raw = self.read("include/graphblas/GraphBLAS.h")
        text = self.expand_function_macros(raw)
        for name, line, params, body in self.parse_functions(text,
                                                             r"GxB_\w+"):
            self.entry_points += 1
            if not body.strip().startswith(
                    "return grb_detail::guarded([&]() -> GrB_Info {"):
                self.report(
                    "no-throw-escape", path, line,
                    "%s does not route through grb_detail::guarded(); an "
                    "exception could escape to the C caller" % name)
            self._check_null_before_deref(path, name, line, params, body)

    def check_info_strings(self):
        hdr_path, hdr = self.read("include/graphblas/GraphBLAS.h")
        core_path, core = self.read("src/core/info.hpp")
        impl_path, impl = self.read("src/core/info.cpp")

        m = re.search(r"enum GrB_Info \{(.*?)\};", hdr, re.S)
        c_values = {}
        if m:
            for name, val in re.findall(r"GrB_([A-Z_]+)\s*=\s*(-?\d+)",
                                        m.group(1)):
                c_values[name] = int(val)

        m = re.search(r"enum class Info : int \{(.*?)\};", core, re.S)
        core_values = {}
        if m:
            for name, val in re.findall(r"k(\w+)\s*=\s*(-?\d+)", m.group(1)):
                core_values[name] = int(val)

        def camel_to_snake(name):
            return re.sub(r"(?<!^)(?=[A-Z])", "_", name).upper()

        for cname, cval in core_values.items():
            snake = camel_to_snake(cname)
            if snake not in c_values:
                self.report("info-string-coverage", hdr_path, 1,
                            "grb::Info::k%s has no GrB_%s in the C enum"
                            % (cname, snake))
            elif c_values[snake] != cval:
                self.report("info-string-coverage", hdr_path, 1,
                            "GrB_%s = %d but grb::Info::k%s = %d"
                            % (snake, c_values[snake], cname, cval))
        for cname, cval in c_values.items():
            if cval not in core_values.values():
                self.report("info-string-coverage", core_path, 1,
                            "GrB_%s (%d) missing from grb::Info" %
                            (cname, cval))

        cases = dict(re.findall(r'case Info::k(\w+):\s*return "([^"]*)";',
                                impl))
        for cname in core_values:
            line = 1
            lm = re.search(r"const char\* info_name", impl)
            if lm:
                line = impl.count("\n", 0, lm.start()) + 1
            if cname not in cases:
                self.report("info-string-coverage", impl_path, line,
                            "info_name() has no case for Info::k%s" % cname)
            elif cases[cname] != "GrB_" + camel_to_snake(cname):
                self.report("info-string-coverage", impl_path, line,
                            'info_name(Info::k%s) returns "%s", expected '
                            '"GrB_%s"' % (cname, cases[cname],
                                          camel_to_snake(cname)))

    def check_descriptors(self):
        impl_path, impl = self.read("src/core/descriptor.cpp")
        hdr_path, hdr = self.read("include/graphblas/GraphBLAS.h")

        m = re.search(r"Info Descriptor::set\(", impl)
        set_line = impl.count("\n", 0, m.start()) + 1 if m else 1
        for field in ("kOutp", "kMask", "kInp0", "kInp1"):
            if not re.search(r"case DescField::%s\b" % field, impl):
                self.report("descriptor-coverage", impl_path, set_line,
                            "Descriptor::set does not dispatch DescField::%s"
                            % field)

        declared = {}
        for m in re.finditer(r"GRB_DESC\((\w+),\s*(\d+)\)", hdr):
            name, bits = m.group(1), int(m.group(2))
            line = hdr.count("\n", 0, m.start()) + 1
            if name == "NAME":
                continue  # the macro definition itself
            canonical = "GrB_DESC_" + "".join(
                letter for bit, letter in DESC_LETTERS if bits & bit)
            if name != canonical:
                self.report("descriptor-coverage", hdr_path, line,
                            "descriptor bits %d declared as %s, canonical "
                            "name is %s" % (bits, name, canonical))
            if bits in declared:
                self.report("descriptor-coverage", hdr_path, line,
                            "descriptor bits %d declared twice" % bits)
            declared[bits] = name
        for bits in range(1, 32):
            if bits not in declared:
                canonical = "GrB_DESC_" + "".join(
                    letter for bit, letter in DESC_LETTERS if bits & bit)
                self.report("descriptor-coverage", hdr_path, 1,
                            "predefined descriptor %s (bits %d) is not "
                            "declared" % (canonical, bits))

    def _ops_entry_names(self):
        _, common = self.read("src/ops/common.hpp")
        names = set()
        for m in re.finditer(r"^Info (\w+)\(", common, re.M):
            if m.group(1) not in OPS_HELPER_NAMES:
                names.add(m.group(1))
        return names

    def check_ops_validate_first(self):
        names = self._ops_entry_names()
        ops_dir = os.path.join(self.repo, "src", "ops")
        for fname in sorted(os.listdir(ops_dir)):
            if not fname.endswith(".cpp"):
                continue
            path = os.path.join(ops_dir, fname)
            text = self.strip_comments(open(path).read())
            # File-local helpers that perform validation on behalf of the
            # public entry points (e.g. validate_apply_v).
            validators = set()
            for m in re.finditer(r"^Info (\w+)\(", text, re.M):
                name = m.group(1)
                j = text.find("{", m.end())
                if j < 0:
                    continue
                depth, k = 0, j
                while k < len(text):
                    if text[k] == "{":
                        depth += 1
                    elif text[k] == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    k += 1
                if name not in names and \
                        "validate_objects(" in text[j:k]:
                    validators.add(name)
            for m in re.finditer(r"^Info (\w+)\(", text, re.M):
                name = m.group(1)
                if name not in names:
                    continue
                line = text.count("\n", 0, m.start()) + 1
                j = text.find("{", m.end())
                if j < 0:
                    continue
                depth, k = 0, j
                while k < len(text):
                    if text[k] == "{":
                        depth += 1
                    elif text[k] == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    k += 1
                body = text[j:k]
                effects = [body.find("snapshot("), body.find("defer_or_run(")]
                effects = [e for e in effects if e >= 0]
                if not effects:
                    continue  # pure forwarder / computes nothing itself
                checks = [body.find("validate_objects(")] + [
                    body.find(h + "(") for h in validators]
                checks = [c for c in checks if c >= 0]
                v = min(checks) if checks else -1
                if v < 0:
                    self.report(
                        "ops-validate-first", path, line,
                        "%s snapshots or defers without calling "
                        "validate_objects" % name)
                elif v > min(effects):
                    self.report(
                        "ops-validate-first", path, line,
                        "%s calls validate_objects only after taking a "
                        "snapshot or deferring" % name)

    def check_poison_messages(self):
        src_dir = os.path.join(self.repo, "src")
        for root, _, files in os.walk(src_dir):
            for fname in sorted(files):
                if not fname.endswith((".cpp", ".hpp")):
                    continue
                path = os.path.join(root, fname)
                text = self.strip_comments(open(path).read())
                for m in re.finditer(r"\bpoison(?:_locked)?\(", text):
                    line = text.count("\n", 0, m.start()) + 1
                    prefix = text[:m.start()].rstrip()
                    # Skip declarations/definitions of poison itself.
                    if prefix.endswith(("void", "::", "void ObjectBase")) or \
                            re.search(r"void\s+(ObjectBase::)?$", prefix):
                        continue
                    i, depth = m.end() - 1, 0
                    args, cur = [], []
                    while i < len(text):
                        ch = text[i]
                        if ch in "([{":
                            depth += 1
                            if depth == 1:
                                i += 1
                                continue
                        elif ch in ")]}":
                            depth -= 1
                            if depth == 0:
                                args.append("".join(cur).strip())
                                break
                        if ch == "," and depth == 1:
                            args.append("".join(cur).strip())
                            cur = []
                        else:
                            cur.append(ch)
                        i += 1
                    if len(args) < 2 or args[1] in ('""', "{}", ""):
                        self.report(
                            "poison-has-message", path, line,
                            "poison() without an error message: deferred "
                            "failures must register a GrB_error string")

        # The deferred-execution machinery itself must poison with a
        # printable info_name() message on both failure paths.  The drain
        # loop lives in complete_impl(); complete() is a thin watchdog/
        # attribution wrapper around it.
        path, text = self.read("src/exec/object_base.cpp")
        for fn in ("defer_or_run", "Info ObjectBase::complete_impl"):
            m = re.search(re.escape(fn), text)
            if not m:
                self.report("poison-has-message", path, 1,
                            "%s not found in object_base.cpp" % fn)
                continue
            j = text.find("{", m.end())
            depth, k = 0, j
            while k < len(text):
                if text[k] == "{":
                    depth += 1
                elif text[k] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            body = text[j:k]
            if "poison" not in body or "info_name" not in body:
                self.report(
                    "poison-has-message", path,
                    text.count("\n", 0, m.start()) + 1,
                    "%s must poison failed deferred work with an "
                    "info_name() message" % fn)

    # RETIRED: check_fusion_barrier_coverage (PR 7).  The barrier-
    # before-read contract is now enforced by tools/grb_analyze.py
    # (`barrier-before-read`), which checks the ordered event stream of
    # each read path and resolves barrier delegation (e.g. nvals())
    # through the whole-program call graph instead of a same-body regex.
    # Keeping a weaker copy here would let the two tiers disagree about
    # the same contract; this tier deliberately no longer knows it.

    # -- driver -----------------------------------------------------------

    RULES = ("no-throw-escape", "null-check-before-deref",
             "info-string-coverage", "descriptor-coverage",
             "ops-validate-first", "poison-has-message")

    def run(self):
        self.check_header()
        self.check_gxb_extensions()
        self.check_info_strings()
        self.check_descriptors()
        self.check_ops_validate_first()
        self.check_poison_messages()
        return self.findings


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--json", default=None,
                    help="write a machine-readable findings report here")
    args = ap.parse_args(argv)

    repo = args.repo or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(repo, "include", "graphblas",
                                       "GraphBLAS.h")):
        print("grb_lint: %s does not look like the repo root" % repo,
              file=sys.stderr)
        return 2

    linter = Linter(repo)
    findings = linter.run()

    for f in findings:
        print("%s:%d: [%s] %s" % (os.path.relpath(f.path, repo), f.line,
                                  f.rule, f.message))
    print("grb_lint: %d entry points, %d finding(s), %d suppressed"
          % (linter.entry_points, len(findings), linter.suppressed))

    if args.json:
        report = {
            "tool": "grb_lint",
            "rules": list(Linter.RULES),
            "entry_points": linter.entry_points,
            "suppressed": linter.suppressed,
            "findings": [f.as_dict(repo) for f in findings],
        }
        with open(args.json, "w") as out:
            json.dump(report, out, indent=2)
            out.write("\n")

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
