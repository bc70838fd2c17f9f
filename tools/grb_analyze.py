#!/usr/bin/env python3
"""grb_analyze: AST-grounded whole-program conformance analyzer.

The second tier of the repo's static-analysis stack (DESIGN.md §13).
tools/grb_lint.py is the fast regex tier: single-file, pattern-shaped
contracts.  grb_analyze builds a whole-program model — every function
definition in src/ and include/, its ordered body events (calls, lock
scopes, allocations, throws, atomic operations, container-data accesses)
and the call graph over them — and enforces the cross-function contracts
the regex tier cannot see:

  no-alloc-under-lock     No path reachable from a hot-path critical
                          section (spgemm / ewise / the
                          deferred-drain machinery in object_base), or
                          from the grb_detail catch-all veneer's handler
                          bodies, may throw, call operator new, or grow a
                          std:: container — unless the allocation flows
                          through the tracked allocator (obs/memory.hpp).
                          An allocation under a lock can throw bad_alloc
                          with the lock held and stalls every waiter
                          behind the allocator.
  barrier-before-read     Control-flow replacement for grb_lint's retired
                          fusion-barrier-coverage regex rule: every
                          value-observing read path (extract_element,
                          extract_tuples, nvals, export, serialize) must
                          call snapshot()/complete()/flush_pending() —
                          directly or through a callee that does (e.g.
                          nvals() delegation) — before dereferencing
                          published container data.  Checked on the
                          ordered event list, not line order.
  decision-audit-coverage Every file hosting an adaptive cost-model
                          branch emits a DecisionRecord and is listed in
                          GRB_DECISION_SITES (obs/decision.hpp), both
                          directions.
  atomic-order-explicit   Every std::atomic load/store/RMW in src/obs/
                          and src/exec/ names an explicit memory_order.
                          A defaulted seq_cst on a hot-path counter is a
                          silent fence; making the order visible makes
                          the cost and the intent reviewable.
  entry-point-parity      Every GrB_*/GxB_* entry point named in
                          GraphBLAS.h is implemented (no declaration
                          without a definition), routes through the
                          grb_detail::guarded no-throw veneer as its
                          first action, and — for GxB_* — is listed in
                          the GxB_EXTENSIONS registry (both directions,
                          no duplicates).

Frontend
  A self-contained reduced-C++ parser builds the Program model: a
  length-preserving lexer, brace-matched function extraction, and an
  ordered event scan.  No dependencies, deterministic.

Suppressions
  Checked-in file (tools/grb_analyze_suppressions.json):
      {"suppressions": [{"rule": ..., "file": ..., "symbol": ...,
                         "reason": ...}]}
  matching by (rule, file, enclosing function).  `symbol` may be "*" to
  cover a whole file.  Inline markers also work, on the finding's line
  or the one above:
      // grb-analyze: allow(rule-id)
  Every suppression must carry a reason; an unused file suppression is
  itself reported (stale-suppression) so the file cannot rot.

Usage: grb_analyze.py [--repo DIR] [--json REPORT] [--suppressions FILE]
                      [--verbose]
Exit status: 0 if no unsuppressed findings, 1 otherwise, 2 on usage or
infrastructure error.
"""

import argparse
import bisect
import json
import os
import re
import sys

# ---------------------------------------------------------------------------
# Configuration: the contract surface
# ---------------------------------------------------------------------------

# Files whose critical sections are no-alloc zones: the hot kernel paths
# named by the contract (spgemm / ewise), the per-snapshot
# transpose cache, plus the deferred-drain machinery that every
# nonblocking completion runs through.
LOCK_ZONE_FILES = (
    "src/ops/transpose.cpp",
    "src/ops/spgemm.cpp",
    "src/ops/spgemm.hpp",
    "src/ops/ewise_vector.cpp",
    "src/ops/ewise_matrix.cpp",
    "src/exec/object_base.cpp",
    "src/exec/object_base.hpp",
    "src/exec/thread_pool.cpp",
    "src/exec/thread_pool.hpp",
)

# Files holding the value-observing read paths (write paths — import,
# deserialize, build, set_element — queue work and need no barrier).
READ_BARRIER_FILES = (
    "src/ops/element.cpp",
    "src/containers/vector.cpp",
    "src/containers/matrix.cpp",
    "src/containers/scalar.cpp",
    "src/io/import_export.cpp",
    "src/io/serialize.cpp",
)
READ_NAME_RE = re.compile(
    r"(extract_element|extract_tuples|nvals|export(?:_size|_hint)?"
    r"|serialize(?:_size)?)$")
WRITE_NAME_RE = re.compile(r"import|deserialize|build|set_element")

# Barrier functions: draining the deferred queue (snapshot calls
# complete before publishing).
BARRIER_FNS = {"snapshot", "complete", "flush_pending", "wait"}

# Published container data (the snapshot payload or the raw arrays).
ACCESS_RE = re.compile(
    r"\bsnap\s*->|\bdata_\b|\bcurrent_data\s*\(|->\s*(?:vals|ind|ptr)\b")

# Directories whose atomics must name an explicit memory_order.
ATOMIC_ORDER_DIRS = ("src/obs", "src/exec")
ATOMIC_METHODS = {
    "load", "store", "exchange",
    "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
    "compare_exchange_weak", "compare_exchange_strong",
}

# Direct allocation indicators: names whose call allocates.
ALLOC_FREE_FNS = {"make_shared", "make_unique", "to_string", "strdup"}
ALLOC_METHODS = {
    "push_back", "emplace_back", "emplace", "resize", "reserve",
    "insert", "append", "substr", "assign", "push_front",
}
# Types whose construction allocates (declaration `T x(...)` / `T x{...}`).
ALLOC_TYPES = {"string", "vector", "ValueBuf", "ValueArray", "TrackedVec"}
# The tracked allocator itself: allocation flowing through it is the
# sanctioned path (obs/memory.hpp accounts it); cut the closure there.
TRACKED_ALLOC_FNS = {"TrackedAlloc", "allocate", "deallocate"}

# Receiver-call method names never resolved through the call graph: the
# text frontend merges overloads by base name, and these names collide
# with std:: container / synchronization members (queue_.clear() must not
# resolve to Matrix::clear, cv_lock.wait() must not resolve to
# ObjectBase::wait).  Direct allocation through the allocating subset is
# still caught by the ALLOC_METHODS event scan.
NO_RESOLVE_METHODS = {
    "clear", "wait", "swap", "reset", "get", "size", "empty", "lock",
    "unlock", "notify_one", "notify_all", "load", "store", "exchange",
    "c_str", "str", "data", "begin", "end", "find", "count", "at",
    "front", "back",
}

# Lock-scope declarations recognized by the frontend.
LOCK_DECL_RE = re.compile(
    r"\b(?:MutexLock|CvLock|std::lock_guard\s*<[^;>]*>|"
    r"std::unique_lock\s*<[^;>]*>)\s+(\w+)\s*[({]")

CXX_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "new", "delete", "else", "do", "case", "goto", "break", "continue",
    "true", "false", "nullptr", "const", "constexpr", "static", "inline",
    "virtual", "explicit", "typename", "template", "using", "namespace",
    "class", "struct", "enum", "union", "public", "private", "protected",
    "operator", "this", "auto", "void", "int", "bool", "char", "float",
    "double", "unsigned", "signed", "long", "short", "noexcept",
    "override", "final", "mutable", "co_return", "co_await", "co_yield",
    "alignof", "decltype", "default",
}

RULES = (
    "no-alloc-under-lock",
    "barrier-before-read",
    "decision-audit-coverage",
    "atomic-order-explicit",
    "entry-point-parity",
    "stale-suppression",
)


# ---------------------------------------------------------------------------
# Source utilities (shared with the grb_lint tier by construction)
# ---------------------------------------------------------------------------

def strip_comments_and_strings(text):
    """Blank comments and string/char literal contents, preserving length.

    Every replaced character becomes a space (newlines survive), so byte
    offsets and line numbers in the stripped text match the original.
    String literals keep their quotes but lose their contents, so tokens
    inside strings can never look like code.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == '"' or c == "'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            j = min(j, n - 1)
            out.append(q + " " * (j - i - 1) + q)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def blank_preprocessor(text):
    """Blank out preprocessor lines (incl. continuations), keep length."""
    out = []
    for chunk in re.split(r"(\n)", text):
        if chunk == "\n":
            out.append(chunk)
            continue
        out.append(chunk)
    # Work line-wise on the joined text to honor continuations.
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("#"):
            j = i
            while j < len(lines) and lines[j].rstrip().endswith("\\"):
                lines[j] = " " * len(lines[j])
                j += 1
            if j < len(lines):
                lines[j] = " " * len(lines[j])
            i = j + 1
        else:
            i += 1
    return "\n".join(lines)


def expand_function_macros(text):
    """Expand #define macros whose bodies define GrB_* entry points.

    Mirrors the grb_lint tier: each invocation is replaced by the
    expanded body collapsed onto the invocation's line, so line numbers
    of the rest of the file are preserved.
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
            out_lines.append("")
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
                    out_lines.append(inst.replace("\n", " "))
                    expanded = True
                    break
        if not expanded:
            out_lines.append(line)
        i += 1
    return "\n".join(out_lines)


def match_paren(text, open_pos):
    """Index of the char matching the opener at open_pos (or -1)."""
    pairs = {"(": ")", "{": "}", "[": "]"}
    close = pairs[text[open_pos]]
    opener = text[open_pos]
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == opener:
            depth += 1
        elif c == close:
            depth -= 1
            if depth == 0:
                return i
    return -1


# ---------------------------------------------------------------------------
# Program model
# ---------------------------------------------------------------------------

class Event:
    """One ordered occurrence inside a function body."""
    CALL = "call"          # name, receiver, args
    THROW = "throw"
    ALLOC = "alloc"        # what
    ATOMIC = "atomic"      # method, has_order
    ACCESS = "access"      # container-data access (barrier rule)

    __slots__ = ("kind", "pos", "line", "name", "receiver", "args",
                 "has_order", "what")

    def __init__(self, kind, pos, line, name=None, receiver=None,
                 args=None, has_order=False, what=None):
        self.kind = kind
        self.pos = pos
        self.line = line
        self.name = name
        self.receiver = receiver
        self.args = args
        self.has_order = has_order
        self.what = what


class LockScope:
    __slots__ = ("start", "end", "line")

    def __init__(self, start, end, line):
        self.start = start
        self.end = end
        self.line = line


class Function:
    __slots__ = ("name", "qual", "file", "line", "events", "locks",
                 "requires_lock", "body_start", "body_end", "signature")

    def __init__(self, name, qual, file, line, signature=""):
        self.name = name          # base name, e.g. "complete"
        self.qual = qual          # qualified, e.g. "ObjectBase::complete"
        self.file = file          # repo-relative path
        self.line = line
        self.signature = signature
        self.events = []
        self.locks = []           # LockScope list
        self.requires_lock = False
        self.body_start = 0
        self.body_end = 0

    def calls(self):
        return [e for e in self.events if e.kind == Event.CALL]


class Program:
    def __init__(self):
        self.functions = []       # all Function defs, program order
        self.by_name = {}         # base name -> [Function]
        self.files = {}           # rel path -> stripped text
        self.raw_files = {}       # rel path -> raw text

    def add(self, fn):
        self.functions.append(fn)
        self.by_name.setdefault(fn.name, []).append(fn)

    def resolve(self, name):
        """Functions a call to `name` may reach (overloads merged)."""
        base = name.rsplit("::", 1)[-1]
        return self.by_name.get(base, [])


# ---------------------------------------------------------------------------
# Text frontend: a reduced C++ parser (length-preserving, brace-matched)
# ---------------------------------------------------------------------------

FN_CANDIDATE_RE = re.compile(r"([A-Za-z_~][\w]*(?:\s*::\s*~?[A-Za-z_]\w*)*)"
                             r"\s*\(")


class TextFrontend:
    """Builds the Program model without a compiler.

    Limitations are deliberate and documented: no template
    instantiation, overloads merged by base name, lambda bodies attributed
    to their enclosing function.  Every rule is written to stay sound
    under those approximations (conservative for zone rules, exact for
    the site-shaped rules).
    """

    def __init__(self, repo, verbose=False):
        self.repo = repo
        self.verbose = verbose

    def build(self, rel_files):
        prog = Program()
        for rel in rel_files:
            path = os.path.join(self.repo, rel)
            try:
                with open(path) as f:
                    raw = f.read()
            except OSError:
                continue
            if rel.endswith("GraphBLAS.h"):
                raw_for_parse = expand_function_macros(raw)
            else:
                raw_for_parse = raw
            stripped = strip_comments_and_strings(raw_for_parse)
            stripped = blank_preprocessor(stripped)
            prog.files[rel] = stripped
            prog.raw_files[rel] = raw
            self._parse_file(prog, rel, stripped)
        return prog

    # -- function extraction ------------------------------------------------

    def _parse_file(self, prog, rel, text):
        newlines = [m.start() for m in re.finditer("\n", text)]

        def line_of(pos):
            return bisect.bisect_right(newlines, pos) + 1

        # Regions where function definitions may start: anywhere outside
        # an already-recorded function body.
        pos = 0
        n = len(text)
        body_spans = []
        while pos < n:
            m = FN_CANDIDATE_RE.search(text, pos)
            if not m:
                break
            name_tok = m.group(1)
            base = name_tok.rsplit("::", 1)[-1].strip()
            if base in CXX_KEYWORDS or base.startswith("~"):
                pos = m.end()
                continue
            # Inside an existing body? skip.
            if any(s <= m.start() < e for s, e in body_spans):
                pos = m.end()
                continue
            open_paren = m.end() - 1
            close_paren = match_paren(text, open_paren)
            if close_paren < 0:
                pos = m.end()
                continue
            ok, body_open, sig_tail = self._definition_tail(
                text, close_paren + 1)
            if not ok:
                pos = m.end()
                continue
            body_close = match_paren(text, body_open)
            if body_close < 0:
                pos = m.end()
                continue
            qual = re.sub(r"\s+", "", name_tok)
            fn = Function(base, qual, rel, line_of(m.start()),
                          signature=text[m.start():body_open])
            fn.body_start = body_open
            fn.body_end = body_close
            fn.requires_lock = "GRB_REQUIRES(" in sig_tail
            self._scan_body(fn, text, body_open + 1, body_close, line_of)
            # Constructor init lists can allocate too: scan the tail
            # between ')' and '{' for new/alloc events.
            if ":" in sig_tail:
                self._scan_body(fn, text, close_paren + 1, body_open,
                                line_of)
            prog.add(fn)
            body_spans.append((body_open, body_close))
            pos = body_close + 1

    @staticmethod
    def _definition_tail(text, pos):
        """After a param list: is this a definition?  Find the body '{'.

        Accepts cv-qualifiers, ref-qualifiers, noexcept, override/final,
        annotation macros with arguments (GRB_REQUIRES(mu_) etc.),
        trailing return types, and constructor initializer lists.
        Rejects declarations (';'), '= default/delete', and anything
        that doesn't end in a brace.
        """
        tail_chars = []
        n = len(text)
        i = pos
        while i < n:
            c = text[i]
            if c == "{":
                return True, i, "".join(tail_chars)
            if c == ";":
                return False, -1, "".join(tail_chars)
            if c == "=":
                # `= default;` / `= delete;` / `= 0;`
                return False, -1, "".join(tail_chars)
            if c == "(":
                j = match_paren(text, i)
                if j < 0:
                    return False, -1, ""
                tail_chars.append(text[i:j + 1])
                i = j + 1
                continue
            if c in ")>,":
                # A stray closer here means we mis-parsed (e.g. we were
                # inside an expression, not a signature).
                return False, -1, ""
            tail_chars.append(c)
            i += 1
        return False, -1, ""

    # -- event scanning -----------------------------------------------------

    def _scan_body(self, fn, text, start, end, line_of):
        body = text[start:end]
        events = fn.events

        # Lock scopes.
        for m in LOCK_DECL_RE.finditer(body):
            scope_end = self._scope_end(body, m.start())
            fn.locks.append(LockScope(start + m.start(),
                                      start + scope_end,
                                      line_of(start + m.start())))

        # Throws (the bare keyword; rethrow included).
        for m in re.finditer(r"\bthrow\b", body):
            events.append(Event(Event.THROW, start + m.start(),
                                line_of(start + m.start())))

        # operator new (skip `= delete`-style tokens; strings stripped).
        for m in re.finditer(r"\bnew\b", body):
            events.append(Event(Event.ALLOC, start + m.start(),
                                line_of(start + m.start()),
                                what="operator new"))
        for m in re.finditer(r"\bmake_(?:shared|unique)\s*<", body):
            events.append(Event(Event.ALLOC, start + m.start(),
                                line_of(start + m.start()),
                                what=m.group(0).rstrip("<").strip()))

        # Allocating local construction: `std::vector<...> x(...)` etc.
        for m in re.finditer(
                r"\b(?:std::)?(%s)\b\s*(?:<[^;{}]*?>)?\s+\w+\s*[({]"
                % "|".join(ALLOC_TYPES), body):
            events.append(Event(Event.ALLOC, start + m.start(),
                                line_of(start + m.start()),
                                what="%s construction" % m.group(1)))
        # `std::string(...)` temporaries (concatenation chains).
        for m in re.finditer(r"\bstd::string\s*\(", body):
            events.append(Event(Event.ALLOC, start + m.start(),
                                line_of(start + m.start()),
                                what="std::string temporary"))

        # Data accesses (barrier rule).
        for m in ACCESS_RE.finditer(body):
            events.append(Event(Event.ACCESS, start + m.start(),
                                line_of(start + m.start()),
                                what=m.group(0).strip()))

        # Calls (with receiver + args captured).
        for m in FN_CANDIDATE_RE.finditer(body):
            name_tok = re.sub(r"\s+", "", m.group(1))
            base = name_tok.rsplit("::", 1)[-1]
            if base in CXX_KEYWORDS:
                continue
            prev, recv = self._prev_token(body, m.start(1))
            if prev == "decl":
                # `Type name(...)`: a declaration; the constructor call
                # is modeled by the ALLOC_TYPES scan above.
                continue
            open_paren = m.end() - 1
            close_paren = match_paren(body, open_paren)
            args = body[open_paren + 1:close_paren] if close_paren > 0 else ""
            pos = start + m.start(1)
            ev = Event(Event.CALL, pos, line_of(pos), name=name_tok,
                       receiver=recv, args=args)
            events.append(ev)
            if base in ALLOC_METHODS and recv is not None:
                events.append(Event(Event.ALLOC, pos, line_of(pos),
                                    what="%s.%s()" % (recv, base)))
            if base in ALLOC_FREE_FNS:
                events.append(Event(Event.ALLOC, pos, line_of(pos),
                                    what="%s()" % base))
            if base in ATOMIC_METHODS and recv is not None:
                events.append(Event(Event.ATOMIC, pos, line_of(pos),
                                    name=base, receiver=recv,
                                    has_order="memory_order" in args))

        events.sort(key=lambda e: e.pos)

    @staticmethod
    def _prev_token(body, pos):
        """Classify the token before a callee name.

        Returns ("decl", None) when the name is preceded by another
        identifier/'>'/'*'/'&' (i.e. `Type name(` — a declaration),
        ("recv", receiver) for `obj.name(` / `obj->name(`, and
        ("call", None) otherwise.
        """
        i = pos - 1
        while i >= 0 and body[i] in " \t\n":
            i -= 1
        if i < 0:
            return "call", None
        c = body[i]
        if c == "." or (c == ">" and i > 0 and body[i - 1] == "-"):
            j = i - (1 if c == "." else 2)
            k = j
            while k >= 0 and (body[k].isalnum() or body[k] in "_]"):
                if body[k] == "]":
                    depth = 0
                    while k >= 0:
                        if body[k] == "]":
                            depth += 1
                        elif body[k] == "[":
                            depth -= 1
                            if depth == 0:
                                break
                        k -= 1
                k -= 1
            recv = body[k + 1:j + 1].strip()
            return "recv", recv or "?"
        if c.isalnum() or c == "_":
            j = i
            while j >= 0 and (body[j].isalnum() or body[j] == "_"):
                j -= 1
            word = body[j + 1:i + 1]
            if word in CXX_KEYWORDS or word in ("and", "or", "not"):
                return "call", None
            return "decl", None
        if c in ">*&" :
            # `Foo<T> name(` / `Foo* name(` / `Foo& name(` — declaration —
            # but `->name(` was handled above and `a > b (…)` is not valid
            # C++ at a call site, so this classification is safe.
            return "decl", None
        return "call", None

    @staticmethod
    def _scope_end(body, pos):
        """End of the innermost brace scope containing pos."""
        depth = 0
        for i in range(pos, len(body)):
            c = body[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth < 0:
                    return i
        return len(body)


# ---------------------------------------------------------------------------
# Findings, suppressions, reporting
# ---------------------------------------------------------------------------

class Finding:
    def __init__(self, rule, file, line, message, function=None, path=None):
        self.rule = rule
        self.file = file
        self.line = line
        self.message = message
        self.function = function
        self.path = path or []

    def as_dict(self):
        d = {"rule": self.rule, "file": self.file, "line": self.line,
             "message": self.message}
        if self.function:
            d["function"] = self.function
        if self.path:
            d["path"] = self.path
        return d


class Suppressions:
    def __init__(self, repo, path):
        self.entries = []
        self.used = [False] * 0
        self.repo = repo
        self.path = path
        if path and os.path.isfile(path):
            with open(path) as f:
                data = json.load(f)
            self.entries = data.get("suppressions", [])
        self.used = [False] * len(self.entries)
        self._inline = {}

    def _inline_allows(self, rel, line):
        if rel not in self._inline:
            table = {}
            path = os.path.join(self.repo, rel)
            try:
                lines = open(path).read().splitlines()
            except OSError:
                lines = []
            for i, text in enumerate(lines, 1):
                for m in re.finditer(
                        r"grb-analyze:\s*allow\(([\w,\s-]+)\)", text):
                    rules = {r.strip() for r in m.group(1).split(",")}
                    table.setdefault(i, set()).update(rules)
                    table.setdefault(i + 1, set()).update(rules)
            self._inline[rel] = table
        return self._inline[rel]

    def matches(self, finding):
        for i, e in enumerate(self.entries):
            if e.get("rule") != finding.rule:
                continue
            if e.get("file") != finding.file:
                continue
            sym = e.get("symbol", "*")
            if sym != "*" and sym != (finding.function or ""):
                continue
            self.used[i] = True
            return True
        allows = self._inline_allows(finding.file, finding.line)
        return finding.rule in allows.get(finding.line, set())

    def stale(self):
        out = []
        for i, e in enumerate(self.entries):
            if not self.used[i]:
                out.append(e)
        return out


class Reporter:
    def __init__(self, suppressions):
        self.suppressions = suppressions
        self.findings = []
        self.suppressed = 0

    def report(self, rule, file, line, message, function=None, path=None):
        f = Finding(rule, file, line, message, function, path)
        if self.suppressions.matches(f):
            self.suppressed += 1
            return
        self.findings.append(f)


# ---------------------------------------------------------------------------
# Call-graph closures
# ---------------------------------------------------------------------------

class Closures:
    """Memoized transitive properties over the (name-resolved) call graph."""

    def __init__(self, prog):
        self.prog = prog
        self._alloc = {}
        self._barrier = {}

    def _closure(self, fn, memo, direct, cut_names):
        key = id(fn)
        if key in memo:
            return memo[key]
        memo[key] = None  # cycle guard: in progress -> assume False
        hit = direct(fn)
        if hit is not None:
            memo[key] = hit
            return hit
        for ev in fn.calls():
            base = (ev.name or "").rsplit("::", 1)[-1]
            if base in cut_names:
                continue
            for callee in self.prog.resolve(ev.name or ""):
                if callee is fn:
                    continue
                sub = self._closure(callee, memo, direct, cut_names)
                if sub:
                    memo[key] = (ev, callee, sub)
                    return memo[key]
        memo[key] = False
        return False

    def alloc_path(self, fn):
        """Falsy, or a breadcrumb describing why fn may allocate/throw."""
        def direct(f):
            for ev in f.events:
                if ev.kind == Event.ALLOC:
                    return (ev, None, True)
                if ev.kind == Event.THROW:
                    return (ev, None, True)
            return None
        return self._closure(fn, self._alloc, direct, TRACKED_ALLOC_FNS)

    def has_barrier(self, fn):
        def direct(f):
            for ev in f.calls():
                base = (ev.name or "").rsplit("::", 1)[-1]
                if base in BARRIER_FNS:
                    return (ev, None, True)
            return None
        return bool(self._closure(fn, self._barrier, direct, set()))

    @staticmethod
    def describe(fn, hit):
        """Render a breadcrumb chain 'fn > callee > ... > event'."""
        chain = [fn.qual]
        cur = hit
        while cur and cur is not True:
            ev, callee, nxt = cur
            if callee is None:
                what = ev.what or ("throw" if ev.kind == Event.THROW
                                   else ev.name or ev.kind)
                chain.append("%s (line %d)" % (what, ev.line))
                break
            chain.append(callee.qual)
            cur = nxt
        return " > ".join(chain)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def rule_no_alloc_under_lock(prog, repo, rep):
    closures = Closures(prog)
    for fn in prog.functions:
        if fn.file not in LOCK_ZONE_FILES:
            continue
        zones = list(fn.locks)
        if fn.requires_lock:
            zones.append(LockScope(fn.body_start, fn.body_end, fn.line))
        if not zones:
            continue
        seen_lines = set()
        for ev in fn.events:
            in_zone = any(z.start <= ev.pos < z.end for z in zones)
            if not in_zone:
                continue
            if ev.kind in (Event.ALLOC, Event.THROW):
                what = ev.what or "throw"
                if ev.line in seen_lines:
                    continue
                seen_lines.add(ev.line)
                rep.report(
                    "no-alloc-under-lock", fn.file, ev.line,
                    "%s %s inside a critical section of %s: an "
                    "allocation here can throw bad_alloc with the lock "
                    "held and serializes the allocator behind it"
                    % (fn.qual,
                       "throws" if ev.kind == Event.THROW else
                       "allocates (%s)" % what, fn.qual),
                    function=fn.qual)
            elif ev.kind == Event.CALL:
                base = (ev.name or "").rsplit("::", 1)[-1]
                if base in TRACKED_ALLOC_FNS or base in ALLOC_METHODS:
                    continue  # direct events already reported above
                if ev.receiver is not None and base in NO_RESOLVE_METHODS:
                    continue  # std member name; would cross-resolve
                for callee in prog.resolve(ev.name or ""):
                    hit = closures.alloc_path(callee)
                    if hit:
                        if ev.line in seen_lines:
                            break
                        seen_lines.add(ev.line)
                        rep.report(
                            "no-alloc-under-lock", fn.file, ev.line,
                            "%s calls %s inside a critical section, and "
                            "that call can allocate or throw: %s"
                            % (fn.qual, ev.name,
                               Closures.describe(callee, hit)),
                            function=fn.qual,
                            path=Closures.describe(callee, hit).split(" > "))
                        break


def rule_guarded_catch_zone(prog, repo, rep):
    """The catch-all veneer's handler bodies must be straight-line returns.

    Part of the no-alloc-under-lock family: the handlers run while the
    exception is in flight — allocating there can itself throw and
    terminate() across the C boundary.
    """
    rel = "include/graphblas/GraphBLAS.h"
    text = prog.files.get(rel)
    if text is None:
        return
    for m in re.finditer(r"\bcatch\s*\(", text):
        close = match_paren(text, m.end() - 1)
        if close < 0:
            continue
        brace = text.find("{", close)
        if brace < 0:
            continue
        end = match_paren(text, brace)
        body = text[brace + 1:end]
        line = text.count("\n", 0, m.start()) + 1
        if re.search(r"\bnew\b|\bthrow\b(?!\s*;)|make_shared|std::string\s*\(",
                     body):
            rep.report(
                "no-alloc-under-lock", rel, line,
                "catch handler in the no-throw veneer allocates or "
                "rethrows; handlers must reduce to an error-code return")


def rule_barrier_before_read(prog, repo, rep):
    closures = Closures(prog)
    for fn in prog.functions:
        if fn.file not in READ_BARRIER_FILES:
            continue
        if not READ_NAME_RE.search(fn.name) or WRITE_NAME_RE.search(fn.name):
            continue
        first_access = None
        first_barrier = None
        for ev in fn.events:
            if ev.kind == Event.ACCESS and first_access is None:
                first_access = ev
            elif ev.kind == Event.CALL and first_barrier is None:
                base = (ev.name or "").rsplit("::", 1)[-1]
                if base in BARRIER_FNS:
                    first_barrier = ev
                else:
                    for callee in prog.resolve(ev.name or ""):
                        if closures.has_barrier(callee):
                            first_barrier = ev
                            break
            if first_access is not None and first_barrier is not None:
                break
        if first_access is None:
            continue  # dimensions only; no deferred-visible data
        if first_barrier is None:
            rep.report(
                "barrier-before-read", fn.file, first_access.line,
                "%s reads container data (%s) without draining the "
                "deferred-op queue: no snapshot()/complete()/"
                "flush_pending() on any path before the access"
                % (fn.qual, first_access.what), function=fn.qual)
        elif first_barrier.pos > first_access.pos:
            rep.report(
                "barrier-before-read", fn.file, first_access.line,
                "%s touches container data (%s) before its barrier "
                "(%s at line %d); the deferred queue must drain before "
                "any read" % (fn.qual, first_access.what,
                              first_barrier.name, first_barrier.line),
                function=fn.qual)


def rule_decision_audit_coverage(prog, repo, rep):
    # GRB_DECISION_SITES (obs/decision.hpp) names every translation unit
    # hosting an adaptive cost-model branch.  Parity both ways: a file
    # emitting a DecisionRecord outside src/obs/ must be registered, and
    # a registered file must actually emit — so a new heuristic cannot
    # land unaudited and a removed one cannot leave a stale entry.
    reg_rel = "src/obs/decision.hpp"
    reg_text = prog.files.get(reg_rel)
    registered = []
    if reg_text is not None:
        raw = prog.raw_files.get(reg_rel, "")
        m = re.search(r"GRB_DECISION_SITES((?:.|\n)*?)(?:\n\s*\n|$)", raw)
        if m:
            registered = re.findall(r'"([^"]+)"', m.group(1))
        else:
            rep.report(
                "decision-audit-coverage", reg_rel, 1,
                "GRB_DECISION_SITES registry not found in decision.hpp; "
                "adaptive-decision emitters cannot be audited")
    emitting = {}
    for fn in prog.functions:
        for ev in fn.calls():
            base = (ev.name or "").rsplit("::", 1)[-1]
            if base != "decision_record":
                continue
            emitting.setdefault(fn.file, []).append((fn, ev))
    for file, emits in sorted(emitting.items()):
        if file.startswith("src/obs/"):
            continue  # the audit machinery itself
        if registered and file not in registered:
            fn, ev = emits[0]
            rep.report(
                "decision-audit-coverage", file, ev.line,
                "%s emits a DecisionRecord but %s is not listed in "
                "GRB_DECISION_SITES (obs/decision.hpp); register the "
                "site so GxB_Explain coverage matches the code"
                % (fn.qual, file), function=fn.qual)
    for file in registered:
        if file not in emitting:
            rep.report(
                "decision-audit-coverage", reg_rel, 1,
                "GRB_DECISION_SITES lists %s but no decision_record "
                "call originates there; stale registration" % file)


def rule_atomic_order_explicit(prog, repo, rep):
    # Method-call form, from the event stream.
    for fn in prog.functions:
        if not fn.file.startswith(ATOMIC_ORDER_DIRS):
            continue
        for ev in fn.events:
            if ev.kind != Event.ATOMIC:
                continue
            if not ev.has_order:
                rep.report(
                    "atomic-order-explicit", fn.file, ev.line,
                    "%s: %s.%s() without an explicit memory_order "
                    "defaults to seq_cst — name the ordering so the "
                    "fence cost is visible and intentional"
                    % (fn.qual, ev.receiver or "<atomic>", ev.name),
                    function=fn.qual)
    # Operator form (++ / -- / += / = on declared atomics, bare or
    # through `obj.` / `p->` member access).  The name is
    # only trusted when the enclosing function does not declare a local
    # of the same name (a `uint64_t head = r->head.load(...)` shadow must
    # not be mistaken for the atomic member), and an identifier directly
    # before the name means the match is itself a declaration.  The
    # member form cannot tell `obj.name` of an atomic from a plain
    # member of the same name, so it skips names that some scanned file
    # also declares with a non-atomic type outside a function body.
    plain = set()
    for rel, text in prog.files.items():
        if not rel.startswith(ATOMIC_ORDER_DIRS):
            continue
        bodies = [(f.body_start, f.body_end) for f in prog.functions
                  if f.file == rel]
        for m in re.finditer(r"\b([A-Za-z_][\w:]*(?:<[^;{}]*?>)?)[\s*&]+"
                             r"(\w+)\s*[{=;\[]", text):
            if (re.match(r"(?:std::)?atomic\b", m.group(1))
                    or m.group(1) in ("return", "else", "case", "goto")
                    or any(lo <= m.start() < hi for lo, hi in bodies)):
                continue
            plain.add(m.group(2))
    for rel, text in prog.files.items():
        if not rel.startswith(ATOMIC_ORDER_DIRS):
            continue
        names = set(re.findall(
            r"std::atomic\s*<[^;>]*>\s*(\w+)\s*[{=;\[]", text))
        fns = [f for f in prog.functions if f.file == rel]
        for name in sorted(names):
            shadow_re = re.compile(
                r"[\w>*&]\s+%s\s*[=;,)({\[]" % re.escape(name))
            pat = re.compile(
                r"(?:(?:(?<![\w>])|(?<=->))%s\s*(?:\+\+|--|[+\-&|^]=|=(?!=))"
                r"|(?:\+\+|--)\s*(?:\w+\s*(?:\.|->)\s*)*%s\b)"
                % (re.escape(name), re.escape(name)))
            for m in pat.finditer(text):
                fn = next((f for f in fns
                           if f.body_start <= m.start() < f.body_end), None)
                if fn is not None and shadow_re.search(
                        text[fn.body_start:fn.body_end]):
                    continue
                i = m.start() - 1
                while i >= 0 and text[i] in " \t\n":
                    i -= 1
                arrow = i >= 1 and text[i - 1:i + 1] == "->"
                if i >= 0 and not arrow and (text[i].isalnum() or
                                             text[i] in "_>*&"):
                    continue  # `type name = ...`: a declaration
                member = (arrow or (i >= 0 and text[i] == ".")
                          or re.search(r"\.|->", m.group(0)))
                if member and name in plain:
                    continue  # may be a same-named plain member
                line = text.count("\n", 0, m.start()) + 1
                rep.report(
                    "atomic-order-explicit", rel, line,
                    "operator-form access to std::atomic `%s` is an "
                    "implicit seq_cst; use load/store/fetch_* with an "
                    "explicit memory_order" % name,
                    function=fn.qual if fn else None)


def rule_entry_point_parity(prog, repo, rep):
    rel = "include/graphblas/GraphBLAS.h"
    raw = prog.raw_files.get(rel)
    if raw is None:
        return
    text = expand_function_macros(raw)
    stripped = strip_comments_and_strings(text)

    defined = {}
    for m in re.finditer(r"inline GrB_Info ((?:GrB|GxB)_\w+)\s*\(",
                         stripped):
        close = match_paren(stripped, m.end() - 1)
        if close < 0:
            continue
        brace = stripped.find("{", close)
        semi = stripped.find(";", close)
        line = stripped.count("\n", 0, m.start()) + 1
        if brace < 0 or (0 <= semi < brace):
            continue  # declaration; handled below
        end = match_paren(stripped, brace)
        body = text[brace + 1:end]
        defined[m.group(1)] = (line, body)

    # Declarations without a definition anywhere in the header.
    for m in re.finditer(r"\bGrB_Info\s+((?:GrB|GxB)_\w+)\s*\(", stripped):
        close = match_paren(stripped, m.end() - 1)
        if close < 0:
            continue
        after = stripped[close + 1:close + 80].lstrip()
        if after.startswith(";") and m.group(1) not in defined:
            line = stripped.count("\n", 0, m.start()) + 1
            rep.report(
                "entry-point-parity", rel, line,
                "%s is declared but never implemented; every entry "
                "point named in the C API header must ship with its "
                "definition" % m.group(1))

    # Guarded-veneer routing: the body's first action is the veneer call.
    for name, (line, body) in sorted(defined.items()):
        if not body.strip().startswith(
                "return grb_detail::guarded("):
            rep.report(
                "entry-point-parity", rel, line,
                "%s does not route through grb_detail::guarded() as its "
                "first action; an exception could cross the C boundary"
                % name)

    # GxB registry parity, both directions, no duplicates.
    m = re.search(r"GxB_EXTENSIONS\[\]\s*=\s*\{(.*?)\};", text, re.S)
    table = re.findall(r'"(GxB_\w+)"', m.group(1)) if m else []
    table_line = text.count("\n", 0, m.start()) + 1 if m else 1
    gxb_defined = {n for n in defined if n.startswith("GxB_")}
    for name in sorted(gxb_defined):
        if name not in table:
            rep.report(
                "entry-point-parity", rel, defined[name][0],
                "%s is implemented but missing from the GxB_EXTENSIONS "
                "registry; introspection would hide it" % name)
    seen = set()
    for name in table:
        if name not in gxb_defined:
            rep.report(
                "entry-point-parity", rel, table_line,
                "GxB_EXTENSIONS lists %s but no such entry point is "
                "implemented" % name)
        if name in seen:
            rep.report(
                "entry-point-parity", rel, table_line,
                "GxB_EXTENSIONS lists %s twice" % name)
        seen.add(name)


RULE_FNS = (
    rule_no_alloc_under_lock,
    rule_guarded_catch_zone,
    rule_barrier_before_read,
    rule_decision_audit_coverage,
    rule_atomic_order_explicit,
    rule_entry_point_parity,
)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(repo):
    rels = []
    for top in ("src", "include"):
        base = os.path.join(repo, top)
        for root, _, files in os.walk(base):
            for fname in sorted(files):
                if fname.endswith((".cpp", ".hpp", ".h")):
                    rels.append(os.path.relpath(os.path.join(root, fname),
                                                repo))
    return sorted(rels)


def build_program(repo, verbose):
    return TextFrontend(repo, verbose).build(collect_files(repo))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--json", default=None,
                    help="write a machine-readable findings report here")
    ap.add_argument("--suppressions", default=None,
                    help="suppression file (default: "
                         "<repo>/tools/grb_analyze_suppressions.json)")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    repo = args.repo or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    repo = os.path.abspath(repo)
    if not os.path.isfile(os.path.join(repo, "include", "graphblas",
                                       "GraphBLAS.h")):
        print("grb_analyze: %s does not look like a repo root "
              "(no include/graphblas/GraphBLAS.h)" % repo, file=sys.stderr)
        return 2

    supp_path = args.suppressions
    if supp_path is None:
        default = os.path.join(repo, "tools",
                               "grb_analyze_suppressions.json")
        supp_path = default if os.path.isfile(default) else None

    prog = build_program(repo, args.verbose)

    suppressions = Suppressions(repo, supp_path)
    rep = Reporter(suppressions)
    for rule_fn in RULE_FNS:
        rule_fn(prog, repo, rep)

    # A suppression nobody needs anymore is itself a finding: the file
    # must describe the tree, not its history.
    for e in suppressions.stale():
        rep.findings.append(Finding(
            "stale-suppression", e.get("file", "?"), 0,
            "suppression for rule %r on %s (%s) matched nothing; "
            "remove it" % (e.get("rule"), e.get("file"),
                           e.get("symbol", "*"))))

    for f in rep.findings:
        loc = "%s:%d" % (f.file, f.line)
        print("%s: [%s] %s" % (loc, f.rule, f.message))
    print("grb_analyze: functions=%d finding(s)=%d suppressed=%d"
          % (len(prog.functions), len(rep.findings), rep.suppressed))

    if args.json:
        report = {
            "tool": "grb_analyze",
            "rules": list(RULES),
            "functions": len(prog.functions),
            "suppressed": rep.suppressed,
            "findings": [f.as_dict() for f in rep.findings],
        }
        with open(args.json, "w") as out:
            json.dump(report, out, indent=2)
            out.write("\n")

    return 1 if rep.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
