#!/usr/bin/env python3
"""adpa static concurrency, hot-path & hostile-input analyzer (DESIGN.md §13).

Repo-specific whole-program checks that neither the compiler nor lint.py's
line-regex rules can express — they need function bodies, a call graph, and
lock scopes. Five rules (ids used by the `// analyze:allow(<id>)` escape
hatch):

  hot-alloc           Functions tagged ADPA_HOT (the serving ForwardRows /
                      Classify path, the MicroBatcher flush, every
                      kernels_*.cc entry point) must not *transitively*
                      reach an allocation site — operator new, push_back/
                      emplace_back/emplace, resize/reserve/insert/assign/
                      append, make_unique/make_shared, std::to_string —
                      without an `// analyze:allow(alloc)` waiver. This is
                      what keeps the allocation-free-serving property (PR 6)
                      structural instead of benchmark-luck.
  blocking-under-lock No blocking while holding an adpa::Mutex: file IO
                      (std::*fstream, getline, C stdio), sleeps (nanosleep,
                      sleep_for, usleep), failpoint hits (ADPA_FAILPOINT*),
                      or stream writes (std::cout/cerr) inside a MutexLock
                      scope or a Lock()/Unlock() span. CondVar::Wait under
                      the lock is legal only as the body of a while/for
                      predicate loop (CondVar deliberately has no lambda
                      predicate overload — see src/core/mutex.h).
  guard-coverage      In any class that owns an adpa::Mutex, every mutable
                      data member must be ADPA_GUARDED_BY / ADPA_PT_GUARDED_BY
                      one of the class's mutexes, or be exempt by construction
                      (const, static/constexpr, std::atomic, Mutex/CondVar/
                      once_flag), or carry an `// analyze:allow(guard)`
                      waiver explaining the protocol.
  untrusted-size      Interprocedural taint dataflow for hostile-input sizes
                      (DESIGN.md §13.4). Sources: integers produced by
                      BinaryReader::Read{U8..U64,I8..I64}, jsonl ParseInt,
                      and `stream >> x` extraction. Sinks: the count argument
                      of resize/reserve/assign, `new T[n]`, Matrix and
                      vector count constructors. A tainted value must pass a
                      sanitizer before reaching a sink: a dominating
                      if-comparison against a named bound (`x > limits.max`,
                      `n > kMax`), an ADPA_CHECK_LE/LT, a consumed
                      Validate*/Check*/Verify*/ *ShapedLike call, an
                      equality test against a trusted value, or a std::min
                      clamp at the sink. Multiplying two tainted values
                      before any bound check is its own finding — overflow
                      can forge the bound (the per_step=0 cache-bomb shape).
                      Taint flows through locals, struct members, call
                      arguments, out-parameters, and return values along the
                      same name-matched call graph hot-alloc uses.
  unchecked-status    Every call to a Status- or Result<T>-returning function
                      must consume the value: assign it, return it, branch
                      on it, or feed it to an ADPA_*-style macro
                      (ADPA_RETURN_IF_ERROR / ADPA_CHECK_OK). A bare
                      `Foo();` — or a `(void)Foo();` cast — silently
                      swallows the error path hostile input is designed to
                      hit. Backed by ADPA_NODISCARD ([[nodiscard]]) on
                      Status/Result in src/core/status.h; this rule audits
                      what the compiler warning enforces, and also fires on
                      (void)-suppressions the warning would miss.

Waiver placement (`// analyze:allow(<id>)[: reason]`):
  * on the flagged line or the line directly above it — suppresses that
    site (hot-alloc: the allocation; guard-coverage: the member;
    untrusted-size: the sink or multiply; unchecked-status: the call);
  * hot-alloc / untrusted-size, on a *call* line (or the line above) — the
    analyzer does not traverse into / import taint from that callee at
    this site;
  * on a function *declaration* — hot-alloc: the whole callee is treated
    as an allocation-free leaf everywhere it is called; untrusted-size:
    the callee's outputs are trusted (no taint imported from it);
    unchecked-status: the callee's result may be discarded anywhere
    (fire-and-forget by contract). A definition header's waiver (alloc,
    untrusted-size) covers the header from its first code line, so a
    waiver on the previous function's last line does not reach it.

Frontends (`--frontend`):
  internal (default)  A dependency-free C++ lexer: comments/strings/
                      preprocessor lines are blanked, braces are matched
                      into a scope tree, function definitions and their
                      calls / allocation tokens / lock scopes are extracted
                      textually. Name-based call-graph edges (last `::`
                      component) make the reachability an over-approximation
                      — by design: a false edge is a waiver, a missed one
                      would be a hole.
  libclang            The same model built from a real AST via the clang
                      python bindings, using compile_commands.json for
                      flags, and used for the hot-alloc reachability BFS in
                      place of the lexical call graph. The statement-level
                      rules (blocking-under-lock, guard-coverage,
                      untrusted-size, unchecked-status) always run on the
                      internal frontend — they need lexical statement and
                      lock-scope structure the AST walk does not model.
                      Opt-in because libclang is not part of the base
                      toolchain; CI runs it as a second pass where the
                      static-analysis job installs the bindings.

The TU list comes from --compdb (compile_commands.json, exported by CMake)
when present, falling back to walking src/; headers under src/ are always
included. Fixture trees (tests/analyze_fixtures/) are excluded from tree
runs exactly like lint_fixtures.

Usage:
  tools/analyze.py --root REPO_ROOT [--compdb build/compile_commands.json]
  tools/analyze.py --root R --files f1 f2 ...   # analyze specific files
Exit status is 1 iff at least one finding survives suppression.
"""

import argparse
import json
import os
import re
import sys

ALLOW_RE = re.compile(
    r"//\s*analyze:allow\((alloc|blocking|guard|untrusted-size|"
    r"unchecked-status)\)")

EXCLUDED_PARTS = {".git", "analyze_fixtures", "lint_fixtures"}

CXX_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "decltype", "catch", "throw", "new", "delete", "static_cast",
    "dynamic_cast", "reinterpret_cast", "const_cast", "defined", "case",
    "do", "else", "goto", "co_await", "co_return", "co_yield", "void",
    "int", "bool", "float", "double", "char", "auto", "assert",
    "static_assert", "noexcept", "alignas", "typeid", "requires",
}

ALLOC_TOKEN_RE = re.compile(
    r"(?:[.\->]\s*(push_back|emplace_back|emplace|resize|reserve|insert|"
    r"assign|append)\s*\()"
    r"|(\bnew\b)"
    r"|\b(make_unique|make_shared)\s*<"
    r"|\b(to_string)\s*\(")

BLOCKING_TOKEN_RE = re.compile(
    r"\bstd::(?:i|o)?fstream\b|\bstd::c(?:out|err)\b"
    r"|\b(?:fopen|fread|fwrite|fflush|fsync|getline|nanosleep|usleep)\s*\("
    r"|\bsleep_for\s*\(|\bADPA_FAILPOINT\w*\s*\(")

CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")
MUTEX_LOCK_RE = re.compile(r"\bMutexLock\s+\w+\s*\(")
MANUAL_LOCK_RE = re.compile(r"[.\->]\s*Lock\s*\(\s*\)")
MANUAL_UNLOCK_RE = re.compile(r"[.\->]\s*Unlock\s*\(\s*\)")
CV_WAIT_RE = re.compile(r"[.\->]\s*Wait\s*\(")

CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct)\s+(?:ADPA_\w+\s*(?:\([^()]*\))?\s*)*([\w:]+)")
GUARDED_RE = re.compile(r"\bADPA_(?:PT_)?GUARDED_BY\s*\(")
MEMBER_EXEMPT_RE = re.compile(
    r"\bconst\b|\bconstexpr\b|\bstatic\b|\bstd::atomic\b"
    r"|(?<!std::)\bMutex\b|\bCondVar\b|\bonce_flag\b|\bfriend\b"
    r"|\busing\b|\btypedef\b")
HAS_MUTEX_MEMBER_RE = re.compile(r"(?:^|[^:\w])Mutex\s+\w+")
ADPA_MACRO_CALL_RE = re.compile(r"\bADPA_\w+\s*\([^()]*\)")


class Finding:
    def __init__(self, rel_path, lineno, rule_id, message):
        self.rel_path = rel_path
        self.lineno = lineno
        self.rule_id = rule_id
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (
            self.rel_path, self.lineno, self.rule_id, self.message)


class FunctionDef:
    """One textual function definition: its calls, allocation sites, and
    blocking-under-lock findings (computed during the scan, since lock
    scopes are lexical)."""

    def __init__(self, name, rel_path, lineno, hot, leaf_waived, params=None):
        self.name = name
        self.rel_path = rel_path
        self.lineno = lineno
        self.hot = hot
        self.leaf_waived = leaf_waived
        self.params = params or []   # positional parameter names
        self.calls = []       # (callee_name, lineno, waived)
        self.allocs = []      # (token, lineno, waived)
        self.blocking = []    # Finding
        self.statements = []  # (text, first_lineno) in body order
        self.taint_trusted = False   # decl/def-level untrusted-size waiver


class SourceModel:
    """Whole-tree model shared by both frontends."""

    def __init__(self):
        self.functions = {}   # name -> [FunctionDef]
        self.hot_names = set()
        self.leaf_names = set()   # decl-level alloc waivers
        self.findings = []        # guard/blocking findings
        self.raw_lines = {}       # rel_path -> raw source lines (waivers)
        self.status_fns = set()   # names returning Status / Result<T>
        self.taint_trusted_names = set()   # decl-level untrusted-size waivers
        self.status_discard_ok = set()     # decl-level unchecked-status waivers

    def add_function(self, fn):
        self.functions.setdefault(fn.name, []).append(fn)
        if fn.hot:
            self.hot_names.add(fn.name)
        if fn.leaf_waived:
            self.leaf_names.add(fn.name)


def blank_code(text):
    """Blanks comments, string/char literals, and preprocessor directives,
    preserving every character position (newlines stay put) so line numbers
    and brace offsets survive."""
    out = []
    i, n = 0, len(text)
    state = "code"
    line_start = True
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if line_start and c == "#":
                state = "preproc"
                out.append(" ")
            elif c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 1
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 1
            elif c == '"':
                state = "string"
                out.append('"')
            elif c == "'":
                state = "char"
                out.append("'")
            else:
                out.append(c)
        elif state == "preproc":
            if c == "\n":
                # A trailing backslash continues the directive.
                j = len(out) - 1
                while j >= 0 and out[j] in " \t":
                    j -= 1
                out.append("\n")
                if not (text[i - 1] == "\\" or
                        (i >= 2 and text[i - 2] == "\\" and
                         text[i - 1] == "\r")):
                    state = "code"
                i += 1
                line_start = True
                continue
            out.append(" ")
        elif state == "line_comment":
            if c == "\n":
                out.append("\n")
                state = "code"
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                out.append("  ")
                i += 1
                state = "code"
            else:
                out.append("\n" if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 1
            elif c == '"':
                out.append('"')
                state = "code"
            else:
                out.append("\n" if c == "\n" else " ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 1
            elif c == "'":
                out.append("'")
                state = "code"
            else:
                out.append(" ")
        if c == "\n":
            line_start = True
        elif c not in " \t":
            line_start = False
        i += 1
    return "".join(out)


def waiver_at(raw_lines, lineno, waiver_id):
    """True if `// analyze:allow(<id>)` covers `lineno` (that line or the
    one directly above)."""
    for cand in (lineno, lineno - 1):
        if 1 <= cand <= len(raw_lines):
            for m in ALLOW_RE.finditer(raw_lines[cand - 1]):
                if m.group(1) == waiver_id:
                    return True
    return False


def paren_depth_zero_eq(header):
    """True if the header contains a top-level `=` (so the brace opens an
    initializer list, not a body). `operator==`-style names are masked
    first."""
    header = re.sub(r"operator\s*\S{1,3}", "OP", header)
    depth = 0
    for c in header:
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth = max(0, depth - 1)
        elif c == "=" and depth == 0:
            return True
    return False


class Scope:
    def __init__(self, kind, header, lineno, name=None):
        self.kind = kind          # function|class|namespace|block|other
        self.header = header
        self.lineno = lineno
        self.name = name
        self.fn = None            # FunctionDef for kind == function
        self.locked = False       # blocking-under-lock state
        self.members = []         # (text, lineno) for kind == class


def classify_header(header, in_function):
    """Returns (kind, name) for the scope a `{` opens."""
    stripped = header.strip()
    if in_function:
        return ("block", None)
    m = CLASS_HEAD_RE.search(stripped)
    if m and not paren_depth_zero_eq(stripped):
        return ("class", m.group(1).split("::")[-1])
    if re.search(r"\bnamespace\b", stripped):
        return ("namespace", None)
    if re.search(r"\b(?:enum|union)\b", stripped):
        return ("other", None)
    if paren_depth_zero_eq(stripped):
        return ("other", None)
    m = CALL_RE.search(stripped)
    if m and m.group(1) not in CXX_KEYWORDS:
        return ("function", m.group(1).split("::")[-1])
    return ("other", None)


def header_is_hot(header):
    return "ADPA_HOT" in header


def split_top_level(text, sep=","):
    """Splits on `sep` at bracket depth 0 (parens/brackets/braces only —
    angle brackets are ambiguous with comparisons and are ignored, which at
    worst mangles a template-typed parameter's extracted name)."""
    parts, depth, start = [], 0, 0
    for idx, c in enumerate(text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth = max(0, depth - 1)
        elif c == sep and depth == 0:
            parts.append(text[start:idx])
            start = idx + 1
    parts.append(text[start:])
    return parts


def parse_params(header):
    """Positional parameter names from a function definition header: the
    first call-like paren group's comma-split trailing identifiers."""
    m = CALL_RE.search(re.sub(r"operator\s*\S{1,3}", "OP", header))
    if not m:
        return []
    open_idx = m.end() - 1
    depth, close_idx = 0, -1
    for idx in range(open_idx, len(header)):
        if header[idx] == "(":
            depth += 1
        elif header[idx] == ")":
            depth -= 1
            if depth == 0:
                close_idx = idx
                break
    if close_idx < 0:
        return []
    inner = header[open_idx + 1:close_idx].strip()
    if not inner or inner == "void":
        return []
    params = []
    for part in split_top_level(inner):
        part = part.split("=")[0].rstrip()
        part = re.sub(r"\[\s*\]\s*$", "", part).rstrip()
        nm = re.search(r"([A-Za-z_]\w*)\s*$", part)
        params.append(nm.group(1) if nm else "")
    return params


def scan_declarations(model, rel_path, code_lines, raw_lines, body_lines):
    """Collects ADPA_HOT roots and decl-level waivers (alloc leaf,
    untrusted-size trusted-output, unchecked-status discard-ok) from
    declarations (statements ending in `;`, so they never open a scope and
    the definition walk cannot see them). `body_lines` excludes function
    bodies: a site-waived call statement in a body also ends in `;`, and
    without the exclusion its waiver would leak into the callee's *name*
    and silence every other call site tree-wide."""
    for idx, line in enumerate(code_lines):
        lineno = idx + 1
        if lineno in body_lines:
            continue
        is_decl = line.strip().endswith(";")
        is_hot_decl = "ADPA_HOT" in line
        is_leaf_decl = is_decl and waiver_at(raw_lines, lineno, "alloc")
        is_trusted_decl = is_decl and waiver_at(raw_lines, lineno,
                                                "untrusted-size")
        is_discard_decl = is_decl and waiver_at(raw_lines, lineno,
                                                "unchecked-status")
        if not (is_hot_decl or is_leaf_decl or is_trusted_decl or
                is_discard_decl):
            continue
        m = CALL_RE.search(line)
        if not m or m.group(1) in CXX_KEYWORDS:
            continue
        name = m.group(1).split("::")[-1]
        if is_hot_decl:
            model.hot_names.add(name)
        if is_leaf_decl:
            model.leaf_names.add(name)
        if is_trusted_decl:
            model.taint_trusted_names.add(name)
        if is_discard_decl:
            model.status_discard_ok.add(name)


STATUS_DEF_RE = re.compile(r"\bStatus\s+([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*\(")
RESULT_TOKEN_RE = re.compile(r"\bResult\s*<")
LAMBDA_STATUS_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*=\s*\[[^\[\]]*\]\s*\([^()]*\)\s*"
    r"->\s*[\w:]*?(?:Status\b|Result\s*<)")


def register_status_functions(model, code):
    """Records every function name declared (or defined) to return Status or
    Result<T> — the unchecked-status rule's `[[nodiscard]]` set. Name-based
    like the call graph: an overload set where only some overloads return
    Status is treated as all-Status (over-approximation by design)."""
    for m in STATUS_DEF_RE.finditer(code):
        model.status_fns.add(m.group(1).split("::")[-1])
    for m in RESULT_TOKEN_RE.finditer(code):
        # Angle-match the template argument list, then expect `name (`.
        depth, idx = 0, m.end() - 1
        while idx < len(code):
            if code[idx] == "<":
                depth += 1
            elif code[idx] == ">":
                depth -= 1
                if depth == 0:
                    break
            elif code[idx] == ";":
                break
            idx += 1
        tail = code[idx + 1:idx + 200]
        nm = re.match(r"\s+([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*\(", tail)
        if nm:
            model.status_fns.add(nm.group(1).split("::")[-1])
    for m in LAMBDA_STATUS_RE.finditer(code):
        model.status_fns.add(m.group(1))


def check_member(model, rel_path, raw_lines, class_name, text, lineno):
    """guard-coverage for one member declaration of a mutex-owning class.

    `lineno` is the first line of the statement, which may open with blanked
    comment lines; the waiver may sit on any spanned line or directly above,
    and the finding anchors to the last code line (the declaration itself).
    """
    span_lines = text.split("\n")
    code_offsets = [k for k, part in enumerate(span_lines) if part.strip()]
    decl_line = lineno + (code_offsets[-1] if code_offsets else 0)
    if any(waiver_at(raw_lines, lineno + k, "guard")
           for k in range(len(span_lines))):
        return
    text = re.sub(r"\b(?:public|private|protected)\s*:", " ", text)
    stripped = text.strip()
    if not stripped:
        return
    without_macros = ADPA_MACRO_CALL_RE.sub(" ", stripped)
    if "(" in without_macros:       # method / ctor declaration
        return
    if "=" in without_macros.split("ADPA_")[0] and \
            not re.search(r"\w\s+\w", without_macros.split("=")[0].strip()):
        return                      # enum-style constant, not a member
    if not re.search(r"[\w>&*\]]\s+[A-Za-z_]\w*\s*(?:=.*)?$",
                     without_macros.rstrip(";").rstrip()):
        return                      # not `type name [= init]`
    if GUARDED_RE.search(stripped):
        return
    if MEMBER_EXEMPT_RE.search(without_macros):
        return
    member = re.search(r"([A-Za-z_]\w*)\s*(?:=[^=].*)?$",
                       without_macros.rstrip(";").rstrip())
    member_name = member.group(1) if member else "?"
    model.findings.append(Finding(
        rel_path, decl_line, "guard-coverage",
        "member '%s' of mutex-owning class %s has no ADPA_GUARDED_BY and is "
        "not const/atomic; annotate it, or waive with analyze:allow(guard) "
        "stating the protocol" % (member_name, class_name)))


def scan_file_internal(model, root, rel_path):
    path = os.path.join(root, rel_path)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as err:
        model.findings.append(Finding(rel_path, 1, "io-error", str(err)))
        return
    raw_lines = text.splitlines()
    code = blank_code(text)
    code_lines = code.splitlines()
    model.raw_lines[rel_path] = raw_lines
    register_status_functions(model, code)

    stack = []
    paren_depth = 0
    boundary = 0          # start of the current statement/header
    lineno = 1
    body_lines = set()    # lines inside function bodies (brace to brace)
    i, n = 0, len(code)

    def innermost_function():
        for scope in reversed(stack):
            if scope.kind == "function":
                return scope
        return None

    def in_locked_region():
        for scope in reversed(stack):
            if scope.locked:
                return True
            if scope.kind == "function":
                break
        return False

    def wait_in_loop(stmt_prefix):
        if re.search(r"\b(?:while|for)\s*\(", stmt_prefix):
            return True
        for scope in reversed(stack):
            if scope.kind == "function":
                break
            if scope.kind == "block" and \
                    re.search(r"\b(?:while|for)\s*\(", scope.header):
                return True
        return False

    def flush_statement(end):
        """Handles one completed statement inside a function or class."""
        stmt = code[boundary:end]
        if not stmt.strip():
            return
        stmt_line = lineno - stmt.count("\n")
        fn = innermost_function()
        if fn is not None:
            scan_statement(fn, stmt, stmt_line)
        elif stack and stack[-1].kind == "class":
            stack[-1].members.append((stmt, stmt_line))

    def scan_statement(fn_scope, stmt, stmt_line):
        fn = fn_scope.fn
        fn.statements.append((stmt, stmt_line))
        for off_line, part in enumerate(stmt.split("\n")):
            at = stmt_line + off_line
            for m in ALLOC_TOKEN_RE.finditer(part):
                token = next(g for g in m.groups() if g)
                fn.allocs.append((token, at, waiver_at(raw_lines, at,
                                                      "alloc")))
            for m in CALL_RE.finditer(part):
                name = m.group(1)
                if name in CXX_KEYWORDS or name.startswith("ADPA_"):
                    continue
                fn.calls.append((name.split("::")[-1], at,
                                 waiver_at(raw_lines, at, "alloc")))
            if MUTEX_LOCK_RE.search(part) or MANUAL_LOCK_RE.search(part):
                for scope in reversed(stack):
                    scope.locked = True
                    break
            if MANUAL_UNLOCK_RE.search(part):
                for scope in reversed(stack):
                    if scope.locked:
                        scope.locked = False
                        break
                    if scope.kind == "function":
                        break
            if in_locked_region():
                bm = BLOCKING_TOKEN_RE.search(part)
                if bm and not waiver_at(raw_lines, at, "blocking"):
                    fn.blocking.append(Finding(
                        rel_path, at, "blocking-under-lock",
                        "'%s' while holding an adpa::Mutex in %s(); move it "
                        "outside the lock scope or waive with "
                        "analyze:allow(blocking)" % (
                            bm.group(0).strip(), fn.name)))
                wm = CV_WAIT_RE.search(part)
                if wm and not wait_in_loop(part[:wm.start()]) and \
                        not waiver_at(raw_lines, at, "blocking"):
                    fn.blocking.append(Finding(
                        rel_path, at, "blocking-under-lock",
                        "CondVar Wait() in %s() is not the body of a "
                        "while/for predicate loop; spurious wakeups will "
                        "break the invariant" % fn.name))

    while i < n:
        c = code[i]
        if c == "\n":
            lineno += 1
        elif c == "(":
            paren_depth += 1
        elif c == ")":
            paren_depth = max(0, paren_depth - 1)
        elif c == ";" and paren_depth == 0:
            flush_statement(i)
            boundary = i + 1
        elif c == "{" and paren_depth == 0:
            header = code[boundary:i]
            header_line = lineno - header.count("\n")
            fn_scope = innermost_function()
            kind, name = classify_header(header, fn_scope is not None)
            scope = Scope(kind, header, header_line, name)
            if kind == "function":
                # Header waivers cover the header from its first code line:
                # the text before it ends the previous definition, whose
                # last call-site waiver must not leaf-waive this function.
                lead = header[:len(header) - len(header.lstrip())]
                span = range(lead.count("\n"), header.count("\n") + 1)
                fn = FunctionDef(
                    name, rel_path, header_line, header_is_hot(header),
                    any(waiver_at(raw_lines, header_line + k, "alloc")
                        for k in span),
                    parse_params(header))
                fn.taint_trusted = any(
                    waiver_at(raw_lines, header_line + k, "untrusted-size")
                    for k in span)
                scope.fn = fn
                model.add_function(fn)
            elif kind == "block" and fn_scope is not None:
                # The block header (e.g. `while (...) cond` prefix) may
                # itself contain calls/allocs — attribute them now.
                scan_statement(fn_scope, header, header_line)
                scope.fn = fn_scope.fn
            scope.brace_line = lineno
            stack.append(scope)
            boundary = i + 1
        elif c == "}" and paren_depth == 0:
            flush_statement(i)
            if stack:
                closing = stack.pop()
                if closing.kind == "function":
                    body_lines.update(range(closing.brace_line, lineno + 1))
                if closing.kind == "class" and closing.name:
                    members_text = " ".join(t for t, _ in closing.members)
                    if HAS_MUTEX_MEMBER_RE.search(members_text):
                        for text_, line_ in closing.members:
                            check_member(model, rel_path, raw_lines,
                                         closing.name, text_, line_)
            boundary = i + 1
        i += 1
    scan_declarations(model, rel_path, code_lines, raw_lines, body_lines)


def scan_tree_libclang(model, root, rel_paths, compdb):
    """AST frontend over the clang python bindings (opt-in)."""
    try:
        from clang import cindex  # noqa: deferred, optional dependency
    except ImportError:
        sys.exit("analyze: --frontend=libclang requires the clang python "
                 "bindings (python3-clang + libclang); the base toolchain "
                 "does not ship them — use --frontend=internal")
    index = cindex.Index.create()
    args_by_file = {}
    if compdb and os.path.exists(compdb):
        with open(compdb, encoding="utf-8") as f:
            for entry in json.load(f):
                rel = os.path.relpath(
                    os.path.join(entry["directory"], entry["file"]), root)
                flags = [a for a in entry.get("command", "").split()[1:]
                         if not a.endswith(".o") and a not in ("-c", "-o")]
                args_by_file[rel.replace(os.sep, "/")] = flags
    for rel_path in rel_paths:
        if not rel_path.endswith(".cc"):
            continue
        raw_lines = open(os.path.join(root, rel_path), encoding="utf-8",
                         errors="replace").read().splitlines()
        tu = index.parse(
            os.path.join(root, rel_path),
            args=args_by_file.get(rel_path.replace(os.sep, "/"),
                                  ["-std=c++17", "-I", root]))
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind not in (cindex.CursorKind.FUNCTION_DECL,
                                   cindex.CursorKind.CXX_METHOD):
                continue
            if not cursor.is_definition():
                continue
            hot = any(ch.kind == cindex.CursorKind.ANNOTATE_ATTR and
                      ch.spelling == "adpa_hot"
                      for ch in cursor.get_children())
            fn = FunctionDef(cursor.spelling, rel_path,
                             cursor.location.line, hot, False)
            for node in cursor.walk_preorder():
                line = node.location.line
                if node.kind == cindex.CursorKind.CXX_NEW_EXPR:
                    fn.allocs.append(("new", line,
                                      waiver_at(raw_lines, line, "alloc")))
                elif node.kind == cindex.CursorKind.CALL_EXPR:
                    callee = node.spelling or ""
                    if ALLOC_TOKEN_RE.search("." + callee + "("):
                        fn.allocs.append(
                            (callee, line,
                             waiver_at(raw_lines, line, "alloc")))
                    elif callee:
                        fn.calls.append(
                            (callee, line,
                             waiver_at(raw_lines, line, "alloc")))
            model.add_function(fn)


# --- untrusted-size: interprocedural taint dataflow (DESIGN.md §13.4) ------
#
# Paths are normalized member chains ("cache.key.steps"); `->` is folded to
# `.`. Taint on a base path implies taint on its members; sanitizing a path
# overrides taint inherited from an ancestor (nearest-ancestor decision).
# Each function is analyzed in one forward pass over its statements
# (single-pass per body; a whole-program fixpoint over call summaries makes
# the analysis interprocedural). Summaries are keyed by bare name exactly
# like the hot-alloc call graph — an over-approximation by design.

IDENT_PATH = r"[A-Za-z_]\w*(?:\s*(?:->|\.)\s*[A-Za-z_]\w*)*"
IDENT_PATH_RE = re.compile(IDENT_PATH)

# The member-access prefix is optional: BinaryReader's own methods call the
# narrower readers unqualified (`ReadI64(&rows)`), and those are sources too.
INT_SOURCE_RE = re.compile(
    r"(?:(?:\.|->)\s*)?\bRead(?:U8|U16|U32|U64|I8|I16|I32|I64)\s*"
    r"\(\s*&?\s*(%s)" % IDENT_PATH)
PARSE_INT_SOURCE_RE = re.compile(r"\bParseInt\s*\(\s*&?\s*(%s)" % IDENT_PATH)
# `stream >> x` only when the left operand looks like a stream — plain
# identifiers named like streams — so arithmetic shifts never become sources.
STREAM_EXTRACT_RE = re.compile(
    r"\b(?:in|is|iss|oss|input|stream|body|file|ifs|cin|line_stream)\s*>>")
EXTRACT_TARGET_RE = re.compile(
    r">>\s*(?:\(\s*\*\s*([A-Za-z_]\w*)\s*\)|(%s))" % IDENT_PATH)

SINK_METHOD_RE = re.compile(r"(?:\.|->)\s*(resize|reserve|assign)\s*\(")
NEW_ARRAY_RE = re.compile(r"\bnew\s+[\w:]+(?:\s*<[^\[\]<>;]*>)?\s*\[")
MATRIX_CTOR_RE = re.compile(r"\bMatrix\b\s*(?:[A-Za-z_]\w*\s*)?\(")
VECTOR_CTOR_RE = re.compile(r"\bvector\s*<")

SANITIZING_CALL_RE = re.compile(
    r"\b((?:Validate|Check|Verify)\w*|\w*ShapedLike\w*)\s*\(")
CHECK_MACRO_RE = re.compile(r"\bADPA_D?CHECK_(LE|LT|GE|GT|EQ)\s*\(")
IF_HEAD_RE = re.compile(r"^\s*(?:\}\s*)?(?:else\s+)?if\b")
RELOP_RE = re.compile(r"<=|>=|==|<|>")
MIN_CLAMP_RE = re.compile(r"\bmin\s*(?:<[^<>]*>)?\s*\(")
MULT_PAIR_RE = re.compile(r"(%s)\s*\*\s*(%s)" % (IDENT_PATH, IDENT_PATH))


def norm_path(text):
    return re.sub(r"\s+", "", re.sub(r"\s*->\s*|\s*\.\s*", ".", text))


def match_close(text, open_idx, open_c="(", close_c=")"):
    depth = 0
    for idx in range(open_idx, len(text)):
        if text[idx] == open_c:
            depth += 1
        elif text[idx] == close_c:
            depth -= 1
            if depth == 0:
                return idx
    return -1


def strip_expr(expr):
    """Peels outer parens, casts, std::move, &/* and trailing [index] so a
    wrapped lvalue path compares equal to its bare spelling."""
    expr = expr.strip()
    while expr:
        if expr[0] in "&*":
            expr = expr[1:].lstrip()
            continue
        if expr.startswith("(") and match_close(expr, 0) == len(expr) - 1:
            expr = expr[1:-1].strip()
            continue
        m = re.match(r"(?:static_cast\s*<[^<>]*>|std\s*::\s*move|std\s*::\s*"
                     r"size|int64_t|int32_t|uint32_t|uint64_t|size_t)\s*\(",
                     expr)
        if m and match_close(expr, m.end() - 1) == len(expr) - 1:
            expr = expr[m.end():-1].strip()
            continue
        if expr.endswith("]"):
            open_br = expr.rfind("[")
            if open_br > 0 and match_close(expr, open_br, "[", "]") == \
                    len(expr) - 1:
                expr = expr[:open_br].rstrip()
                continue
        break
    return expr


def lone_path(expr):
    """The normalized path if `expr` is a single (possibly wrapped) lvalue
    chain, else None."""
    s = strip_expr(expr)
    if s and IDENT_PATH_RE.fullmatch(s):
        return norm_path(s)
    return None


class TaintState:
    """Per-function taint facts: path -> origin string, plus the set of
    paths explicitly sanitized (a sanitize overrides ancestor taint)."""

    def __init__(self):
        self.taint = {}
        self.sanitized = set()

    def add(self, path, origin):
        self.sanitized.discard(path)
        if path not in self.taint:
            self.taint[path] = origin

    def sanitize(self, path):
        for p in [p for p in self.taint
                  if p == path or p.startswith(path + ".")]:
            del self.taint[p]
        self.sanitized.add(path)

    def clear(self, path):
        """Strong update: fresh untainted value overwrites the path."""
        for p in [p for p in self.taint
                  if p == path or p.startswith(path + ".")]:
            del self.taint[p]
        self.sanitized.discard(path)

    def lookup(self, path):
        """Origin if tainted, else None — nearest-ancestor decision."""
        probe = path
        while True:
            if probe in self.taint:
                return self.taint[probe]
            if probe in self.sanitized:
                return None
            if "." not in probe:
                return None
            probe = probe.rsplit(".", 1)[0]

    def suffixes_under(self, base):
        """{suffix: origin} for base itself ("" suffix) and its members."""
        out = {}
        direct = self.lookup(base)
        if direct is not None:
            out[""] = direct
        for p, origin in self.taint.items():
            if p.startswith(base + "."):
                suffix = p[len(base) + 1:]
                if self.lookup(p) is not None:
                    out.setdefault(suffix, origin)
        return out


def join_path(base, suffix):
    return base + "." + suffix if suffix else base


def expr_tainted(expr, state):
    """(path, origin) of the first tainted lvalue path in `expr`, skipping
    call results and accessor methods (`x.size()` of a tainted x is bounded
    by materialized memory, not by the hostile header), else None."""
    for m in IDENT_PATH_RE.finditer(expr):
        k = m.end()
        while k < len(expr) and expr[k] in " \t\n":
            k += 1
        if k < len(expr) and expr[k] == "(":
            continue            # call or accessor — not a value read
        path = norm_path(m.group(0))
        origin = state.lookup(path)
        if origin is not None:
            return (path, origin)
    return None


def find_calls_with_args(stmt):
    """[(bare_name, start, open_idx, close_idx, [arg texts])] for every
    complete call expression in the statement."""
    out = []
    for m in CALL_RE.finditer(stmt):
        name = m.group(1)
        if name in CXX_KEYWORDS:
            continue
        open_idx = m.end() - 1
        close_idx = match_close(stmt, open_idx)
        if close_idx < 0:
            continue
        inner = stmt[open_idx + 1:close_idx]
        args = split_top_level(inner) if inner.strip() else []
        out.append((name.split("::")[-1], m.start(), open_idx, close_idx,
                    args))
    return out


def trim_operand_left(text):
    """Suffix of `text` after its last unmatched '(' — the left operand of
    a comparison, cut at the enclosing condition paren."""
    depth = 0
    for idx in range(len(text) - 1, -1, -1):
        c = text[idx]
        if c == ")":
            depth += 1
        elif c == "(":
            if depth == 0:
                return text[idx + 1:]
            depth -= 1
        elif c in ";{}":
            return text[idx + 1:]
    return text


def trim_operand_right(text):
    """Prefix of `text` before its first unmatched ')' (or statement end)."""
    depth = 0
    for idx, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            if depth == 0:
                return text[:idx]
            depth -= 1
        elif c in ";{}?":
            return text[:idx]
    return text


def mask_non_relational(text):
    """Folds `->` and masks shifts and template argument lists so RELOP_RE
    only sees genuine comparisons."""
    text = text.replace("->", " .")
    text = re.sub(r"<<|>>", "  ", text)
    return re.sub(r"<[^<>]*>(?=\s*\()", lambda m: " " * len(m.group(0)),
                  text)


def apply_comparison_sanitizers(stmt, state):
    """Bound checks inside an if-condition. A lone tainted path compared
    (any relop but !=) against a named expression with no unsanitized taint
    on the other side is considered bounded from here on. Divisors on the
    bound side (`steps > limit / per_step`) are sanitized too — that is the
    overflow-free way to bound a product. Loop headers deliberately do NOT
    sanitize: `for (i = 0; i < n; ++i)` says nothing about n's magnitude."""
    if not IF_HEAD_RE.match(stmt):
        return
    for clause in re.split(r"&&|\|\|", stmt):
        masked = mask_non_relational(clause)
        m = RELOP_RE.search(masked)
        if not m:
            continue
        lhs = trim_operand_left(masked[:m.start()])
        rhs = trim_operand_right(masked[m.end():])
        for side, other in ((lhs, rhs), (rhs, lhs)):
            path = lone_path(side)
            if path is None:
                continue
            if not re.search(r"[A-Za-z_]", other):
                continue        # pure literal (`x > 0`) is not a bound
            divisors = {norm_path(d) for d in
                        re.findall(r"/\s*(%s)" % IDENT_PATH, other)}
            hit = expr_tainted(other, state)
            if hit is not None and hit[0] not in divisors:
                continue        # bound side itself unsanitized-tainted
            if state.lookup(path) is not None:
                state.sanitize(path)
            # Divisors bound even when the compared path was already
            # sanitized by an earlier clause (`x > lim || x > lim / y`).
            for d in divisors:
                if state.lookup(d) is not None:
                    state.sanitize(d)


def apply_check_macro_sanitizers(stmt, state):
    for m in CHECK_MACRO_RE.finditer(stmt):
        close = match_close(stmt, stmt.index("(", m.end() - 1))
        if close < 0:
            continue
        args = split_top_level(stmt[stmt.index("(", m.end() - 1) + 1:close])
        op = m.group(1)
        guarded = {"LE": [0], "LT": [0], "GE": [1], "GT": [1],
                   "EQ": [0, 1]}[op]
        for i in guarded:
            if i < len(args):
                path = lone_path(args[i])
                if path is not None:
                    state.sanitize(path)


def apply_call_sanitizers(stmt, state):
    """A Validate*/Check*/Verify*/*ShapedLike call vouches for its receiver
    and its lvalue arguments (the call's error path is audited separately by
    unchecked-status)."""
    for m in SANITIZING_CALL_RE.finditer(stmt):
        open_idx = stmt.index("(", m.end() - 1)
        close_idx = match_close(stmt, open_idx)
        if close_idx < 0:
            continue
        recv = re.search(r"(%s)\s*(?:\.|->)\s*$" % IDENT_PATH,
                         stmt[:m.start()])
        if recv:
            state.sanitize(norm_path(recv.group(1)))
        inner = stmt[open_idx + 1:close_idx]
        if inner.strip():
            for arg in split_top_level(inner):
                path = lone_path(arg)
                if path is not None:
                    state.sanitize(path)


def sink_sites(stmt):
    """[(desc, count_arg_exprs, offset)] for every allocation-count sink in
    the statement."""
    sites = []
    for m in SINK_METHOD_RE.finditer(stmt):
        open_idx = stmt.index("(", m.end() - 1)
        close_idx = match_close(stmt, open_idx)
        if close_idx < 0:
            continue
        args = split_top_level(stmt[open_idx + 1:close_idx])
        if args and args[0].strip():
            sites.append(("%s() count" % m.group(1), [args[0]], m.start()))
    for m in NEW_ARRAY_RE.finditer(stmt):
        close_idx = match_close(stmt, m.end() - 1, "[", "]")
        if close_idx < 0:
            continue
        expr = stmt[m.end():close_idx]
        if expr.strip():
            sites.append(("new[] count", [expr], m.start()))
    for m in MATRIX_CTOR_RE.finditer(stmt):
        open_idx = stmt.index("(", m.end() - 1)
        close_idx = match_close(stmt, open_idx)
        if close_idx < 0:
            continue
        args = split_top_level(stmt[open_idx + 1:close_idx])
        if len(args) >= 2:
            sites.append(("Matrix(rows, cols) shape", args[:2], m.start()))
    for m in VECTOR_CTOR_RE.finditer(stmt):
        close_angle = match_close(stmt, m.end() - 1, "<", ">")
        if close_angle < 0:
            continue
        nm = re.match(r"\s*[A-Za-z_]\w*\s*\(", stmt[close_angle + 1:])
        if not nm:
            continue
        open_idx = close_angle + 1 + nm.end() - 1
        close_idx = match_close(stmt, open_idx)
        if close_idx < 0:
            continue
        args = split_top_level(stmt[open_idx + 1:close_idx])
        if args and args[0].strip():
            sites.append(("vector count constructor", [args[0]], m.start()))
    return sites


def top_level_assign_idx(stmt):
    depth = 0
    for idx, c in enumerate(stmt):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth = max(0, depth - 1)
        elif c == "=" and depth == 0:
            prev = stmt[idx - 1] if idx else ""
            nxt = stmt[idx + 1] if idx + 1 < len(stmt) else ""
            if prev not in "=!<>+-*/%&|^" and nxt != "=":
                return idx
    return -1


def taint_trusted(model, name):
    if name in model.taint_trusted_names:
        return True
    return any(d.taint_trusted for d in model.functions.get(name, []))


def analyze_function_taint(model, fn, entry, summaries, collect):
    """One forward pass over fn's statements. Returns (findings, exports,
    out_params, ret_taints); `entry` is {param_idx: {suffix: origin}} taint
    arriving from callers, `exports` the symmetric taint this body sends to
    its callees' parameters."""
    state = TaintState()
    findings = []
    exports = {}
    ret_taints = {}
    raw_lines = model.raw_lines.get(fn.rel_path, [])
    for idx, suffix_map in entry.items():
        if idx < len(fn.params) and fn.params[idx]:
            for suffix, origin in suffix_map.items():
                state.add(join_path(fn.params[idx], suffix), origin)

    for stmt, stmt_line in fn.statements:
        def line_at(offset, _stmt=stmt, _line=stmt_line):
            return _line + _stmt[:offset].count("\n")

        # 1. Sources.
        for regex, kind in ((INT_SOURCE_RE, "binary Read*"),
                            (PARSE_INT_SOURCE_RE, "jsonl ParseInt")):
            for m in regex.finditer(stmt):
                path = norm_path(m.group(1))
                state.add(path, "%s at %s:%d"
                          % (kind, fn.rel_path, line_at(m.start())))
        if STREAM_EXTRACT_RE.search(stmt):
            for m in EXTRACT_TARGET_RE.finditer(stmt):
                target = m.group(1) or m.group(2)
                state.add(norm_path(target), "stream >> at %s:%d"
                          % (fn.rel_path, line_at(m.start())))

        # 2. Call effects: export argument taint to callees, import
        #    out-parameter taint from summaries.
        for name, pos, open_idx, close_idx, args in \
                find_calls_with_args(stmt):
            if name.startswith("ADPA_"):
                continue
            call_line = line_at(pos)
            if waiver_at(raw_lines, call_line, "untrusted-size"):
                continue
            if taint_trusted(model, name):
                continue
            if name in model.functions:
                for i, arg in enumerate(args):
                    base = lone_path(arg)
                    if base is not None:
                        suffix_map = state.suffixes_under(base)
                    else:
                        hit = expr_tainted(arg, state)
                        suffix_map = {"": hit[1]} if hit else {}
                    if suffix_map:
                        dst = exports.setdefault(name, {}).setdefault(i, {})
                        for suffix, origin in suffix_map.items():
                            dst.setdefault(suffix, origin)
            summ = summaries.get(name)
            if summ:
                for i, suffix_map in summ["out"].items():
                    if i < len(args):
                        base = lone_path(args[i])
                        if base is not None:
                            for suffix, origin in suffix_map.items():
                                state.add(join_path(base, suffix), origin)

        # 3. Tainted multiply before any bound check — overflow can forge
        #    the subsequent comparison (the per_step=0 cache-bomb shape).
        for m in MULT_PAIR_RE.finditer(stmt):
            a, b = norm_path(m.group(1)), norm_path(m.group(2))
            oa, ob = state.lookup(a), state.lookup(b)
            if oa is None or ob is None:
                continue
            line = line_at(m.start())
            if collect and not waiver_at(raw_lines, line, "untrusted-size"):
                findings.append(Finding(
                    fn.rel_path, line, "untrusted-size",
                    "'%s * %s' multiplies two untrusted sizes (%s; %s) "
                    "before any bound check — the product can overflow and "
                    "forge a later comparison; bound each factor first or "
                    "divide the limit (see the per_step cache-bomb), or "
                    "waive with analyze:allow(untrusted-size)"
                    % (a, b, oa, ob)))

        # 4. Sanitizers (before sinks: a braceless `if (n > max) use(n)` is
        #    treated as bounded; loop headers never sanitize).
        apply_comparison_sanitizers(stmt, state)
        apply_check_macro_sanitizers(stmt, state)
        apply_call_sanitizers(stmt, state)

        # 5. Sinks.
        for desc, count_args, offset in sink_sites(stmt):
            line = line_at(offset)
            if waiver_at(raw_lines, line, "untrusted-size"):
                continue
            for arg in count_args:
                if MIN_CLAMP_RE.search(arg):
                    continue    # explicit clamp at the sink
                hit = expr_tainted(arg, state)
                if hit is not None and collect:
                    findings.append(Finding(
                        fn.rel_path, line, "untrusted-size",
                        "untrusted size '%s' (%s) reaches %s in %s() "
                        "without a dominating bound check; compare it "
                        "against a limit first or waive with "
                        "analyze:allow(untrusted-size)"
                        % (hit[0], hit[1], desc, fn.name)))

        # 6. Assignment propagation (strong updates).
        eq = top_level_assign_idx(stmt)
        if eq >= 0:
            lhs_m = re.search(
                r"(%s)\s*(?:\[[^\[\]]*\]\s*)?$" % IDENT_PATH,
                stmt[:eq].rstrip())
            if lhs_m:
                lhs = norm_path(lhs_m.group(1))
                rhs = stmt[eq + 1:]
                src = lone_path(rhs)
                if src is not None:
                    suffix_map = state.suffixes_under(src)
                    state.clear(lhs)
                    for suffix, origin in suffix_map.items():
                        state.add(join_path(lhs, suffix), origin)
                else:
                    ret_map = {}
                    stripped = strip_expr(rhs)
                    cm = re.match(r"([A-Za-z_][\w:]*)\s*\(", stripped)
                    if cm and not taint_trusted(
                            model, cm.group(1).split("::")[-1]):
                        summ = summaries.get(cm.group(1).split("::")[-1])
                        if summ and match_close(stripped, cm.end() - 1) == \
                                len(stripped) - 1:
                            ret_map = summ["ret"]
                    if ret_map:
                        state.clear(lhs)
                        for suffix, origin in ret_map.items():
                            state.add(join_path(lhs, suffix), origin)
                    else:
                        hit = expr_tainted(rhs, state)
                        if hit is None:
                            for name, _, _, _, _ in \
                                    find_calls_with_args(rhs):
                                summ = summaries.get(name)
                                if summ and summ["ret"] and \
                                        not taint_trusted(model, name):
                                    hit = (name + "()",
                                           next(iter(summ["ret"].values())))
                                    break
                        state.clear(lhs)
                        if hit is not None:
                            state.add(lhs, hit[1])

        # 7. Returned taint.
        rm = re.match(r"\s*return\b(.*)$", stmt, re.S)
        if rm and rm.group(1).strip():
            expr = rm.group(1)
            src = lone_path(expr)
            if src is not None:
                for suffix, origin in state.suffixes_under(src).items():
                    ret_taints.setdefault(suffix, origin)
            else:
                hit = expr_tainted(expr, state)
                if hit is not None:
                    ret_taints.setdefault("", hit[1])

    out_params = {}
    for idx, pname in enumerate(fn.params):
        if not pname:
            continue
        # Only taint the body *introduced* is a summary effect; echoing the
        # caller-provided entry taint back would re-taint call-site arguments
        # after their sanitizers ran (by-value params cannot write back).
        suffix_map = {s: o for s, o in state.suffixes_under(pname).items()
                      if s not in entry.get(idx, {})}
        if suffix_map:
            out_params[idx] = suffix_map
    return findings, exports, out_params, ret_taints


def report_untrusted_size(model):
    """Whole-program fixpoint over per-function taint summaries, then a
    final reporting pass with the converged summaries."""
    entries = {}
    summaries = {}
    relevant = {}
    for name, defs in model.functions.items():
        for fn in defs:
            has_source = any(
                INT_SOURCE_RE.search(s) or PARSE_INT_SOURCE_RE.search(s) or
                STREAM_EXTRACT_RE.search(s) for s, _ in fn.statements)
            relevant[id(fn)] = (has_source,
                               {callee for callee, _, _ in fn.calls})

    def skippable(name, fn):
        if fn.taint_trusted or name in model.taint_trusted_names:
            return True
        has_source, callees = relevant[id(fn)]
        if has_source or entries.get(name):
            return False
        return not any(
            summaries.get(c) and (summaries[c]["out"] or summaries[c]["ret"])
            for c in callees)

    for _ in range(15):
        changed = False
        for name in sorted(model.functions):
            for fn in model.functions[name]:
                if skippable(name, fn):
                    continue
                _, exports, outs, rets = analyze_function_taint(
                    model, fn, entries.get(name, {}), summaries,
                    collect=False)
                summ = summaries.setdefault(name, {"out": {}, "ret": {}})
                for i, suffix_map in outs.items():
                    dst = summ["out"].setdefault(i, {})
                    for suffix, origin in suffix_map.items():
                        if suffix not in dst:
                            dst[suffix] = origin
                            changed = True
                for suffix, origin in rets.items():
                    if suffix not in summ["ret"]:
                        summ["ret"][suffix] = origin
                        changed = True
                for callee, arg_map in exports.items():
                    if taint_trusted(model, callee):
                        continue
                    ent = entries.setdefault(callee, {})
                    for i, suffix_map in arg_map.items():
                        dst = ent.setdefault(i, {})
                        for suffix, origin in suffix_map.items():
                            if suffix not in dst:
                                dst[suffix] = origin
                                changed = True
        if not changed:
            break

    findings = []
    for name in sorted(model.functions):
        for fn in model.functions[name]:
            if skippable(name, fn):
                continue
            fs, _, _, _ = analyze_function_taint(
                model, fn, entries.get(name, {}), summaries, collect=True)
            findings.extend(fs)
    return findings


# --- unchecked-status: mandatory error consumption --------------------------

def report_unchecked_status(model):
    """Every call to a Status/Result-returning function must consume the
    value: nested in another expression (condition, macro argument, callee
    argument), assigned, returned, or member-chained (`.ok()`). A bare
    `Foo();` — including `(void)Foo();`, which is at paren depth 0 once the
    cast closes — is a finding."""
    findings = []
    for defs in model.functions.values():
        for fn in defs:
            raw_lines = model.raw_lines.get(fn.rel_path, [])
            for stmt, stmt_line in fn.statements:
                for name, pos, open_idx, close_idx, _ in \
                        find_calls_with_args(stmt):
                    if name not in model.status_fns or \
                            name in model.status_discard_ok or \
                            name.startswith("ADPA_"):
                        continue
                    prefix = stmt[:pos]
                    if prefix.count("(") - prefix.count(")") > 0:
                        continue    # argument / condition / macro operand
                    if re.search(r"\breturn\b|\bco_return\b", prefix):
                        continue
                    if top_level_assign_idx(prefix) >= 0:
                        continue
                    k = close_idx + 1
                    while k < len(stmt) and stmt[k] in " \t\n":
                        k += 1
                    if stmt[k:k + 1] == "." or stmt[k:k + 2] == "->":
                        continue    # chained consumption (.ok(), .status())
                    line = stmt_line + prefix.count("\n")
                    if waiver_at(raw_lines, line, "unchecked-status"):
                        continue
                    findings.append(Finding(
                        fn.rel_path, line, "unchecked-status",
                        "result of Status/Result-returning %s() is "
                        "discarded in %s(); assign, return, branch on, or "
                        "ADPA_CHECK_OK it — or waive with "
                        "analyze:allow(unchecked-status) if fire-and-forget "
                        "is the contract" % (name, fn.name)))
    return findings


def report_hot_alloc(model):
    """BFS from every ADPA_HOT root over name-matched call edges."""
    findings = []
    visited = set()
    parent = {}
    queue = sorted(model.hot_names)
    for name in queue:
        visited.add(name)
    while queue:
        name = queue.pop(0)
        for fn in model.functions.get(name, []):
            for token, lineno, waived in fn.allocs:
                if waived:
                    continue
                chain = [name]
                while chain[-1] in parent:
                    chain.append(parent[chain[-1]])
                findings.append(Finding(
                    fn.rel_path, lineno, "hot-alloc",
                    "allocation '%s' reachable from hot entry point %s() "
                    "(via %s); reuse capacity or waive with "
                    "analyze:allow(alloc)" % (
                        token, chain[-1], " <- ".join(chain))))
            for callee, _, call_waived in fn.calls:
                if call_waived or callee in model.leaf_names:
                    continue
                if callee in visited or callee not in model.functions:
                    continue
                visited.add(callee)
                parent[callee] = name
                queue.append(callee)
    return findings


def collect_findings(model, hot_model=None):
    """All rules. `hot_model` (when the libclang frontend built one) swaps
    the call-graph model used for hot-alloc reachability; the statement-level
    rules always come from the internal model."""
    findings = list(model.findings)
    for defs in model.functions.values():
        for fn in defs:
            findings.extend(fn.blocking)
    findings.extend(report_hot_alloc(hot_model or model))
    findings.extend(report_unchecked_status(model))
    findings.extend(report_untrusted_size(model))
    seen = set()
    unique = []
    for f in sorted(findings,
                    key=lambda f: (f.rel_path, f.lineno, f.rule_id)):
        key = (f.rel_path, f.lineno, f.rule_id, f.message)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def is_excluded(rel_path):
    parts = rel_path.split(os.sep)
    if any(part in EXCLUDED_PARTS for part in parts):
        return True
    return any(part.startswith("build") for part in parts)


def collect_files(root, compdb):
    """TU list from compile_commands.json when available, plus every header
    (and, as fallback, every source) under src/ and tools/ — the CLI and
    serve binaries sit on the same hostile-input paths the taint rules
    audit."""
    rel_paths = set()
    if compdb and os.path.exists(compdb):
        try:
            with open(compdb, encoding="utf-8") as f:
                for entry in json.load(f):
                    path = os.path.join(entry["directory"], entry["file"])
                    rel = os.path.relpath(os.path.abspath(path), root)
                    norm = rel.replace(os.sep, "/")
                    if norm.startswith(("src/", "tools/")) and \
                            not is_excluded(rel):
                        rel_paths.add(rel)
        except (OSError, ValueError, KeyError) as err:
            print("analyze: ignoring unreadable compdb %s (%s)"
                  % (compdb, err))
    # Headers are always scanned (inline bodies, annotations, ADPA_HOT
    # declarations live there); sources come from the compdb when it listed
    # any, otherwise from the walk — so a stale or empty export can only
    # widen coverage, never silently shrink it.
    have_compdb_tus = any(p.endswith(".cc") for p in rel_paths)
    for base in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(root, base)):
            dirnames[:] = [d for d in dirnames if not is_excluded(
                os.path.relpath(os.path.join(dirpath, d), root))]
            for fname in sorted(filenames):
                if fname.endswith(".h") or (fname.endswith(".cc")
                                            and not have_compdb_tus):
                    rel = os.path.relpath(os.path.join(dirpath, fname),
                                          root)
                    if not is_excluded(rel):
                        rel_paths.add(rel)
    return sorted(rel_paths)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--compdb", default=None,
                        help="compile_commands.json for the TU list "
                             "(and libclang flags)")
    parser.add_argument("--frontend", choices=("internal", "libclang"),
                        default="internal")
    parser.add_argument("--files", nargs="*", default=None,
                        help="analyze only these paths (relative to --root); "
                             "exclusion filters are bypassed")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if args.files is not None:
        rel_paths = [os.path.relpath(os.path.abspath(p), root)
                     if os.path.isabs(p) else p for p in args.files]
    else:
        rel_paths = collect_files(root, args.compdb)

    # The internal lexical scan always runs: the statement-level rules
    # (blocking/guard/untrusted-size/unchecked-status) need its statement
    # stream. --frontend=libclang swaps in an AST-derived call graph for the
    # hot-alloc reachability BFS only.
    model = SourceModel()
    for rel_path in rel_paths:
        scan_file_internal(model, root, rel_path)
    hot_model = None
    if args.frontend == "libclang":
        hot_model = SourceModel()
        scan_tree_libclang(hot_model, root, rel_paths, args.compdb)
        hot_model.leaf_names |= model.leaf_names

    findings = collect_findings(model, hot_model)
    for finding in findings:
        print(finding)
    if findings:
        print("analyze: %d finding(s) in %d file(s)" % (
            len(findings), len({f.rel_path for f in findings})))
        return 1
    print("analyze: OK (%d files, %d functions, %d hot roots)" % (
        len(rel_paths), sum(len(d) for d in model.functions.values()),
        len(model.hot_names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
