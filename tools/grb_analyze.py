#!/usr/bin/env python3
"""grb_analyze: whole-program conformance analyzer for the GraphBLAS C API.

The repo's one static analyzer (DESIGN.md §13).  It builds a program
model — every function definition in src/ and include/, its ordered
body events (calls, lock scopes, allocations, throws, atomic
operations, container-data accesses) and the call graph over them —
and enforces the contracts the type system cannot express:

  no-throw-escape         GraphBLAS.h contains no naked `throw`: the C
                          API is a no-throw interface (paper §V).
  entry-point-parity      Every GrB_*/GxB_* entry point named in
                          GraphBLAS.h is implemented (no declaration
                          without a definition), every definition —
                          each overload, macro-expanded ones included —
                          is `return grb_detail::guarded([&]() -> GrB_Info
                          {...})`, and every GxB_* is listed in the
                          GxB_EXTENSIONS registry (both directions, no
                          duplicates).
  null-check-before-deref An entry point that dereferences a handle or
                          pointer argument checks it against nullptr
                          first (API errors are detected eagerly and
                          deterministically, paper §V).
  info-string-coverage    GrB_Info (C enum), grb::Info (core enum) and
                          the info_name() switch agree: same values, same
                          names, and every code has a printable string.
  descriptor-coverage     Descriptor::set dispatches every DescField, and
                          all 31 non-default predefined descriptors are
                          declared once, under their canonical GrB_DESC_*
                          names.
  ops-validate-first      Every public operation in src/ops/*.cpp calls
                          validate_objects (directly or through a
                          file-local validator) before it snapshots
                          inputs or defers work.
  poison-has-message      Every poison()/poison_locked() call passes a
                          non-empty GrB_error string, and the deferred-
                          execution machinery poisons with info_name()
                          text.
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
  barrier-before-read     Every value-observing read path
                          (extract_element, extract_tuples, nvals,
                          export, serialize) must call snapshot()/
                          complete()/flush_pending() — directly or
                          through a callee that does (e.g. nvals()
                          delegation) — before dereferencing published
                          container data.  Checked on the ordered event
                          list, not line order.
  decision-audit-coverage Every file hosting an adaptive cost-model
                          branch emits a DecisionRecord and is listed in
                          GRB_DECISION_SITES (obs/decision.hpp), both
                          directions.
  atomic-order-explicit   Every std::atomic load/store/RMW in src/obs/
                          and src/exec/ names an explicit memory_order.
                          A defaulted seq_cst on a hot-path counter is a
                          silent fence; making the order visible makes
                          the cost and the intent reviewable.

A rule whose input files are absent from the tree reports nothing.

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
Exit status: 0 if no unsuppressed findings, 1 otherwise, 2 on usage or
infrastructure error.
"""

import argparse
import bisect
import functools
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

# The C API header: entry points, the no-throw veneer, GrB_Info, and the
# predefined descriptors.
HEADER = "include/graphblas/GraphBLAS.h"

# The shape every entry-point body must have: its first statement returns
# the veneer's result, so nothing runs outside the catch-all handlers.
GUARDED_RE = re.compile(r"\s*return\s+grb_detail::guarded\s*\(\s*\[&\]\s*"
                        r"\(\s*\)\s*->\s*GrB_Info\s*\{")

# Handle parameters whose dereference needs a preceding nullptr check.
HANDLE_TYPES = {
    "GrB_Type", "GrB_UnaryOp", "GrB_BinaryOp", "GrB_IndexUnaryOp",
    "GrB_Monoid", "GrB_Semiring", "GrB_Descriptor", "GrB_Scalar",
    "GrB_Vector", "GrB_Matrix", "GrB_Context",
}

# Canonical letter order for predefined descriptor names (REPLACE,
# STRUCTURE, COMP, TRAN0, TRAN1 — the order the spec's names use).
DESC_LETTERS = [(1, "R"), (4, "S"), (2, "C"), (8, "T0"), (16, "T1")]

# Declarations in ops/common.hpp that are helpers, not operations.
OPS_HELPER_NAMES = {"validate_objects", "check_cast", "check_accum"}
# What an operation must not do before validating its objects.
OPS_EFFECT_FNS = {"snapshot", "defer_or_run"}
POISON_FNS = {"poison", "poison_locked"}

RULES = (
    "no-throw-escape",
    "entry-point-parity",
    "null-check-before-deref",
    "info-string-coverage",
    "descriptor-coverage",
    "ops-validate-first",
    "poison-has-message",
    "no-alloc-under-lock",
    "barrier-before-read",
    "decision-audit-coverage",
    "atomic-order-explicit",
    "stale-suppression",
)


# ---------------------------------------------------------------------------
# Source utilities
# ---------------------------------------------------------------------------

# Comments and string/char literals, leftmost first (an unterminated one
# runs to the end of the text).
LEXEME_RE = re.compile(r"//[^\n]*|/\*.*?(?:\*/|\Z)"
                       r"|\"(?:[^\"\\]|\\.)*(?:\"|\Z)|'(?:[^'\\]|\\.)*(?:'|\Z)",
                       re.S)


def _blank_lexeme(m):
    s = m.group(0)
    if s[0] in "\"'":
        return s[0] + " " * (len(s) - 2) + s[0] if len(s) > 1 else s
    return "\n".join(" " * len(part) for part in s.split("\n"))


def strip_comments_and_strings(text):
    """Blank comments and string/char literal contents, preserving length.

    Every replaced character becomes a space (newlines in comments
    survive), so byte offsets and line numbers in the stripped text
    match the original.  String literals keep their quotes but lose
    their contents, so tokens inside strings can never look like code.
    """
    return LEXEME_RE.sub(_blank_lexeme, text)


def blank_preprocessor(text):
    """Blank out preprocessor lines (incl. continuations), keep length."""
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

    Each invocation is replaced by the expanded body collapsed onto the
    invocation's line, so line numbers of the rest of the file are
    preserved.
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


# Opener -> a pattern matching it and its closer.
BRACKET_RES = {o: re.compile("[%s]" % re.escape(o + c))
               for o, c in ("()", "{}", "[]")}


def match_paren(text, open_pos, opener=None):
    """Index of the closer matching the opener at open_pos (or -1).

    With `opener` given, open_pos lies inside an already-open scope of
    that bracket kind, and the result is the closer ending that scope.
    """
    depth = 0 if opener is None else 1
    opener = opener or text[open_pos]
    for m in BRACKET_RES[opener].finditer(text, open_pos):
        depth += 1 if m.group() == opener else -1
        if depth == 0:
            return m.start()
    return -1


def split_top_level(text, nest="([{"):
    """Split text at commas outside the brackets in `nest`, stripped."""
    close = {"(": ")", "[": "]", "{": "}", "<": ">"}
    closers = {close[c] for c in nest}
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in nest:
            depth += 1
        elif c in closers:
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


def line_at(text, pos):
    return text.count("\n", 0, pos) + 1


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


def call_base(ev):
    """Unqualified callee name of a CALL event."""
    return (ev.name or "").rsplit("::", 1)[-1]


class LockScope:
    __slots__ = ("start", "end", "line")

    def __init__(self, start, end, line):
        self.start = start
        self.end = end
        self.line = line


class Function:
    __slots__ = ("name", "qual", "file", "line", "start", "events", "locks",
                 "requires_lock", "body_start", "body_end", "signature")

    def __init__(self, name, qual, file, line, start, signature=""):
        self.name = name          # base name, e.g. "complete"
        self.qual = qual          # qualified, e.g. "ObjectBase::complete"
        self.file = file          # repo-relative path
        self.line = line
        self.start = start        # offset of the name in the file text
        self.signature = signature
        self.events = []
        self.locks = []           # LockScope list
        self.requires_lock = False
        self.body_start = 0
        self.body_end = 0

    def calls(self):
        return [e for e in self.events if e.kind == Event.CALL]

    def params(self):
        """The parameter list's text (signature starts at the name)."""
        open_paren = self.signature.index("(")
        return self.signature[open_paren + 1:
                              match_paren(self.signature, open_paren)]


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
        return self.by_name.get(name.rsplit("::", 1)[-1], [])

    def body(self, fn):
        return self.files[fn.file][fn.body_start + 1:fn.body_end]

    def find(self, file, qual):
        """The first definition of `qual` in `file`, or None."""
        return next((f for f in self.functions
                     if f.file == file and f.qual == qual), None)

    @functools.cached_property
    def entry_points(self):
        """Every `inline GrB_Info GrB_*/GxB_*` definition in the header.

        One entry per definition, not per name: each overload and each
        macro-expanded instance is its own entry point.
        """
        text = self.files.get(HEADER, "")
        return [fn for fn in self.functions
                if fn.file == HEADER
                and re.match(r"(?:GrB|GxB)_\w+$", fn.qual)
                and re.search(r"\binline\s+GrB_Info\s+$",
                              text[max(0, fn.start - 32):fn.start])]


# ---------------------------------------------------------------------------
# Text frontend: a reduced C++ parser (length-preserving, brace-matched)
# ---------------------------------------------------------------------------

# Words that start a new declaration and so never follow a parameter list.
DECL_START_RE = re.compile(r"\b(?:inline|static|template|typedef|struct|class"
                           r"|namespace|enum|extern|return)\b")

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

    def __init__(self, repo):
        self.repo = repo

    def build(self, rel_files):
        prog = Program()
        for rel in rel_files:
            path = os.path.join(self.repo, rel)
            try:
                with open(path) as f:
                    raw = f.read()
            except OSError:
                continue
            if rel == HEADER:
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
            fn = Function(base, qual, rel, line_of(m.start()), m.start(),
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
        Rejects declarations (';'), '= default/delete', anything that
        doesn't end in a brace, and a tail that reaches into the next
        declaration (a macro invocation such as `GRB_DESC(N, 1)` followed
        by `inline GrB_Info GrB_init(...) {` is not GRB_DESC's body).
        """
        tail_chars = []
        n = len(text)
        i = pos
        # None, "init" after a constructor's ':' or "ret" after '->'.
        # Either one lets ',' and template brackets into the tail.
        mode = None
        while i < n:
            c = text[i]
            if c == "{":
                prev = "".join(tail_chars).rstrip()[-1:]
                if mode == "init" and (prev.isalnum() or prev in "_>"):
                    # A brace initializer (`a_{0}`, `Base<T>{}`), not
                    # the body: the body follows a ')' or a '}'.
                    j = match_paren(text, i)
                    if j < 0:
                        return False, -1, ""
                    tail_chars.append(text[i:j + 1])
                    i = j + 1
                    continue
                tail = "".join(tail_chars)
                if DECL_START_RE.search(tail):
                    return False, -1, ""
                return True, i, tail
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
            if mode is None and text.startswith("->", i):
                mode = "ret"
                tail_chars.append("->")
                i += 2
                continue
            if (mode is None and c == ":"
                    and text[i - 1] != ":" and text[i + 1:i + 2] != ":"):
                mode = "init"
            elif c == ")" or (c in ">," and mode is None):
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
            scope_end = match_paren(body, m.start(), "{")
            if scope_end < 0:
                scope_end = len(body)
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
            base = call_base(ev)
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
                base = call_base(ev)
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
                base = call_base(ev)
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
    text = prog.files.get(HEADER)
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
        line = line_at(text, m.start())
        if re.search(r"\bnew\b|\bthrow\b(?!\s*;)|make_shared|std::string\s*\(",
                     body):
            rep.report(
                "no-alloc-under-lock", HEADER, line,
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
                base = call_base(ev)
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
            base = call_base(ev)
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
                line = line_at(text, m.start())
                rep.report(
                    "atomic-order-explicit", rel, line,
                    "operator-form access to std::atomic `%s` is an "
                    "implicit seq_cst; use load/store/fetch_* with an "
                    "explicit memory_order" % name,
                    function=fn.qual if fn else None)


def rule_no_throw_escape(prog, repo, rep):
    """No naked `throw` anywhere in the C API header, macros included."""
    raw = prog.raw_files.get(HEADER)
    if raw is None:
        return
    text = strip_comments_and_strings(raw)
    for m in re.finditer(r"\bthrow\b", text):
        rep.report("no-throw-escape", HEADER, line_at(text, m.start()),
                   "naked `throw` in the C API header; errors cross the "
                   "C boundary as GrB_Info codes only")


def rule_entry_point_parity(prog, repo, rep):
    raw = prog.raw_files.get(HEADER)
    if raw is None:
        return
    stripped = prog.files[HEADER]
    entry_points = prog.entry_points
    defined = {}
    for fn in entry_points:
        defined.setdefault(fn.name, fn.line)

    # Declarations without a definition anywhere in the header.
    for m in re.finditer(r"\bGrB_Info\s+((?:GrB|GxB)_\w+)\s*\(", stripped):
        close = match_paren(stripped, m.end() - 1)
        if close < 0:
            continue
        after = stripped[close + 1:close + 80].lstrip()
        if after.startswith(";") and m.group(1) not in defined:
            rep.report(
                "entry-point-parity", HEADER, line_at(stripped, m.start()),
                "%s is declared but never implemented; every entry "
                "point named in the C API header must ship with its "
                "definition" % m.group(1))

    # Every definition, overloads included: the body opens with the
    # guarded veneer, and handles are null-checked before use.
    for fn in entry_points:
        body = prog.body(fn)
        if not GUARDED_RE.match(body):
            rep.report(
                "entry-point-parity", HEADER, fn.line,
                "%s does not route through grb_detail::guarded() as its "
                "first action; an exception could cross the C boundary"
                % fn.name, function=fn.name)
        check_null_before_deref(fn, body, rep)

    # GxB registry parity, both directions, no duplicates.
    m = re.search(r"GxB_EXTENSIONS\[\]\s*=\s*\{(.*?)\};", raw, re.S)
    table = re.findall(r'"(GxB_\w+)"', m.group(1)) if m else []
    table_line = line_at(raw, m.start()) if m else 1
    gxb_defined = {n for n in defined if n.startswith("GxB_")}
    for name in sorted(gxb_defined):
        if name not in table:
            rep.report(
                "entry-point-parity", HEADER, defined[name],
                "%s is implemented but missing from the GxB_EXTENSIONS "
                "registry; introspection would hide it" % name)
    seen = set()
    for name in table:
        if name not in gxb_defined:
            rep.report(
                "entry-point-parity", HEADER, table_line,
                "GxB_EXTENSIONS lists %s but no such entry point is "
                "implemented" % name)
        if name in seen:
            rep.report(
                "entry-point-parity", HEADER, table_line,
                "GxB_EXTENSIONS lists %s twice" % name)
        seen.add(name)


def check_null_before_deref(fn, body, rep):
    for param in split_top_level(fn.params(), "<([{"):
        m = re.match(r"(.+?)\s*\b(\w+)$", param.split("=")[0].strip())
        if not m:
            continue
        ptype, pname = m.group(1), m.group(2)
        handle = re.sub(r"^const\s+|\s*&$", "", ptype.strip())
        if handle not in HANDLE_TYPES and "*" not in ptype:
            continue
        deref = re.search(r"(\b%s->|\*\s*%s\b\s*=|\(\s*\*\s*%s\s*\))"
                          % (pname, pname, pname), body)
        if not deref:
            continue
        guard = re.search(r"\b%s\s*==\s*nullptr" % pname, body)
        if guard is None or guard.start() > deref.start():
            rep.report(
                "null-check-before-deref", HEADER, fn.line,
                "%s dereferences parameter `%s` without a preceding "
                "nullptr check" % (fn.name, pname), function=fn.name)


def camel_to_snake(name):
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).upper()


def rule_info_string_coverage(prog, repo, rep):
    core_rel, impl_rel = "src/core/info.hpp", "src/core/info.cpp"
    hdr, core = prog.files.get(HEADER), prog.files.get(core_rel)
    impl = prog.raw_files.get(impl_rel)
    if hdr is None or core is None or impl is None:
        return
    m = re.search(r"enum GrB_Info \{(.*?)\};", hdr, re.S)
    hdr_line = line_at(hdr, m.start()) if m else 1
    c_values = {name: int(val) for name, val in re.findall(
        r"GrB_([A-Z_]+)\s*=\s*(-?\d+)", m.group(1) if m else "")}
    m = re.search(r"enum class Info : int \{(.*?)\};", core, re.S)
    core_line = line_at(core, m.start()) if m else 1
    core_values = {name: int(val) for name, val in re.findall(
        r"k(\w+)\s*=\s*(-?\d+)", m.group(1) if m else "")}

    for cname, cval in core_values.items():
        snake = camel_to_snake(cname)
        if snake not in c_values:
            rep.report("info-string-coverage", HEADER, hdr_line,
                       "grb::Info::k%s has no GrB_%s in the C enum"
                       % (cname, snake))
        elif c_values[snake] != cval:
            rep.report("info-string-coverage", HEADER, hdr_line,
                       "GrB_%s = %d but grb::Info::k%s = %d"
                       % (snake, c_values[snake], cname, cval))
    for cname, cval in c_values.items():
        if cval not in core_values.values():
            rep.report("info-string-coverage", core_rel, core_line,
                       "GrB_%s (%d) missing from grb::Info" % (cname, cval))

    fn = prog.find(impl_rel, "info_name")
    line = fn.line if fn else 1
    cases = dict(re.findall(r'case Info::k(\w+):\s*return "([^"]*)";', impl))
    for cname in core_values:
        want = "GrB_" + camel_to_snake(cname)
        if cname not in cases:
            rep.report("info-string-coverage", impl_rel, line,
                       "info_name() has no case for Info::k%s" % cname)
        elif cases[cname] != want:
            rep.report("info-string-coverage", impl_rel, line,
                       'info_name(Info::k%s) returns "%s", expected "%s"'
                       % (cname, cases[cname], want))


def rule_descriptor_coverage(prog, repo, rep):
    decl_rel, impl_rel = "src/core/descriptor.hpp", "src/core/descriptor.cpp"
    hdr, decl = prog.files.get(HEADER), prog.files.get(decl_rel)
    if hdr is None or decl is None or impl_rel not in prog.files:
        return
    m = re.search(r"enum class DescField\b[^{]*\{(.*?)\};", decl, re.S)
    fields = re.findall(r"\b(k\w+)\s*=", m.group(1)) if m else []
    setter = prog.find(impl_rel, "Descriptor::set")
    if setter is None:
        rep.report("descriptor-coverage", impl_rel, 1,
                   "Descriptor::set not found in descriptor.cpp")
    else:
        body = prog.body(setter)
        for field in fields:
            if not re.search(r"case DescField::%s\b" % field, body):
                rep.report("descriptor-coverage", impl_rel, setter.line,
                           "Descriptor::set does not dispatch DescField::%s"
                           % field, function=setter.qual)

    def canonical(bits):
        return "GrB_DESC_" + "".join(
            letter for bit, letter in DESC_LETTERS if bits & bit)

    declared = {}
    for m in re.finditer(r"\bGRB_DESC\((\w+),\s*(\d+)\)", hdr):
        name, bits = m.group(1), int(m.group(2))
        line = line_at(hdr, m.start())
        if name != canonical(bits):
            rep.report("descriptor-coverage", HEADER, line,
                       "descriptor bits %d declared as %s, canonical name "
                       "is %s" % (bits, name, canonical(bits)))
        if bits in declared:
            rep.report("descriptor-coverage", HEADER, line,
                       "descriptor bits %d declared twice" % bits)
        declared[bits] = name
    for bits in range(1, 32):
        if bits not in declared:
            rep.report("descriptor-coverage", HEADER, 1,
                       "predefined descriptor %s (bits %d) is not declared"
                       % (canonical(bits), bits))


def rule_ops_validate_first(prog, repo, rep):
    common = prog.files.get("src/ops/common.hpp")
    if common is None:
        return
    ops = {name for name in re.findall(r"^Info (\w+)\(", common, re.M)
           if name not in OPS_HELPER_NAMES}
    by_file = {}
    for fn in prog.functions:
        if os.path.dirname(fn.file) == "src/ops" and fn.file.endswith(".cpp"):
            by_file.setdefault(fn.file, []).append(fn)
    for fns in by_file.values():
        # File-local helpers that validate on behalf of the operations
        # (e.g. validate_apply_v).
        validators = {"validate_objects"} | {
            fn.name for fn in fns if fn.name not in ops
            and any(call_base(ev) == "validate_objects" for ev in fn.calls())}
        for fn in fns:
            if fn.qual not in ops:
                continue
            first_check = first_effect = None
            for ev in fn.calls():
                base = call_base(ev)
                if first_check is None and base in validators:
                    first_check = ev
                if first_effect is None and base in OPS_EFFECT_FNS:
                    first_effect = ev
            if first_effect is None:
                continue  # pure forwarder / computes nothing itself
            if first_check is None:
                rep.report("ops-validate-first", fn.file, fn.line,
                           "%s snapshots or defers without calling "
                           "validate_objects" % fn.qual, function=fn.qual)
            elif first_check.pos > first_effect.pos:
                rep.report("ops-validate-first", fn.file, fn.line,
                           "%s calls validate_objects only after %s() at "
                           "line %d" % (fn.qual, call_base(first_effect),
                                        first_effect.line),
                           function=fn.qual)


def rule_poison_has_message(prog, repo, rep):
    for fn in prog.functions:
        if not fn.file.startswith("src/"):
            continue
        for ev in fn.calls():
            if call_base(ev) not in POISON_FNS:
                continue
            args = split_top_level(ev.args or "")
            if len(args) < 2 or args[1] in ('""', "{}", ""):
                rep.report("poison-has-message", fn.file, ev.line,
                           "%s: poison() without an error message; deferred "
                           "failures must register a GrB_error string"
                           % fn.qual, function=fn.qual)

    # The deferred-execution machinery itself must poison with a
    # printable info_name() message on both failure paths.  The drain
    # loop lives in complete_impl(); complete() is a thin watchdog/
    # attribution wrapper around it.
    rel = "src/exec/object_base.cpp"
    if rel not in prog.files:
        return
    for qual in ("defer_or_run", "ObjectBase::complete_impl"):
        fn = prog.find(rel, qual)
        if fn is None:
            rep.report("poison-has-message", rel, 1,
                       "%s not found in object_base.cpp" % qual)
            continue
        called = {call_base(ev) for ev in fn.calls()}
        if not (called & POISON_FNS and "info_name" in called):
            rep.report("poison-has-message", rel, fn.line,
                       "%s must poison failed deferred work with an "
                       "info_name() message" % qual, function=qual)


RULE_FNS = (
    rule_no_throw_escape,
    rule_entry_point_parity,
    rule_info_string_coverage,
    rule_descriptor_coverage,
    rule_ops_validate_first,
    rule_poison_has_message,
    rule_no_alloc_under_lock,
    rule_guarded_catch_zone,
    rule_barrier_before_read,
    rule_decision_audit_coverage,
    rule_atomic_order_explicit,
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


def build_program(repo):
    return TextFrontend(repo).build(collect_files(repo))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--json", default=None,
                    help="write a machine-readable findings report here")
    ap.add_argument("--suppressions", default=None,
                    help="suppression file (default: "
                         "<repo>/tools/grb_analyze_suppressions.json)")
    args = ap.parse_args(argv)

    repo = args.repo or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    repo = os.path.abspath(repo)
    if not os.path.isfile(os.path.join(repo, HEADER)):
        print("grb_analyze: %s does not look like a repo root "
              "(no include/graphblas/GraphBLAS.h)" % repo, file=sys.stderr)
        return 2

    supp_path = args.suppressions
    if supp_path is None:
        default = os.path.join(repo, "tools",
                               "grb_analyze_suppressions.json")
        supp_path = default if os.path.isfile(default) else None

    prog = build_program(repo)

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
    print("grb_analyze: functions=%d entry_points=%d finding(s)=%d "
          "suppressed=%d" % (len(prog.functions), len(prog.entry_points),
                             len(rep.findings), rep.suppressed))

    if args.json:
        report = {
            "tool": "grb_analyze",
            "rules": list(RULES),
            "functions": len(prog.functions),
            "entry_points": len(prog.entry_points),
            "suppressed": rep.suppressed,
            "findings": [f.as_dict() for f in rep.findings],
        }
        with open(args.json, "w") as out:
            json.dump(report, out, indent=2)
            out.write("\n")

    return 1 if rep.findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
