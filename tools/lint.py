#!/usr/bin/env python3
"""adpa repo lint: project invariants the compiler cannot enforce.

The parallel runtime (PR 1) stakes a bitwise thread-count-invariance
contract on three confinement rules — all threading goes through
src/core/parallel.*, all randomness through src/core/random.*, and all
reductions accumulate in double. This linter machine-checks those rules
plus a few hygiene invariants, so a future PR cannot silently break
determinism by spawning a raw std::thread or seeding from the wall clock.

Rules (ids used by the `// lint:allow(<rule>)` escape hatch):

  parallel-primitives      std::thread / std::jthread / std::async / OpenMP
                           are forbidden in src/ outside src/core/parallel.*;
                           build on ParallelFor instead.
  mutex-annotations        raw std::mutex / std::condition_variable /
                           std::lock_guard / std::unique_lock / ... are
                           forbidden in src/; lock through the annotated
                           adpa::Mutex / MutexLock / CondVar wrappers
                           (src/core/mutex.h) so Clang Thread Safety
                           Analysis sees every acquire/release. The wrapper
                           header itself carries per-line lint:allow
                           waivers; std::call_once/once_flag stay legal.
  deterministic-randomness std::random_device, rand()/srand(), <random>
                           engines, wall-clock reads (*_clock::now, time())
                           are forbidden in src/ outside src/core/random.*;
                           draw from an explicitly seeded adpa::Rng.
  float-accumulator        scalar `float` accumulators (names containing
                           acc/sum/total/dot) in kernel code (src/tensor,
                           src/graph, src/metrics, src/models); accumulate in
                           double with a single final round to float32.
  no-direct-io             std::cout / printf in src/ outside
                           src/core/logging.*; route output through
                           TablePrinter / Status / the CLI binary.
                           Additionally, in src/io/, src/serve/, and
                           src/net/ raw C stdio (fopen/fread/FILE* ...) is
                           forbidden:
                           persistence and serving do all file access
                           through the checked stream APIs
                           (BinaryReader/BinaryWriter over std::fstream),
                           so every failure surfaces as a Status instead
                           of a silently ignored return value.
  no-unordered-iteration   range-for over a std::unordered_{map,set} in
                           result-affecting paths (src/models, src/train);
                           hash iteration order is implementation-defined and
                           breaks run-to-run reproducibility.
  simd-isolation           raw SIMD intrinsics (<immintrin.h>, _mm*/_mm256*/
                           _mm512* calls) are forbidden in src/ outside the
                           dispatch kernel files src/tensor/kernels_*.cc;
                           everything else calls simd::Kernels() so the
                           portable level stays complete and runtime dispatch
                           cannot be bypassed.
  socket-isolation         raw socket/epoll/poll syscalls (socket, bind,
                           listen, accept, epoll_wait, ...) and their headers
                           are forbidden in src/ outside src/net/; everything
                           else uses the FdOwner/ListenTcp/ReadSome/WriteSome
                           wrappers and the Server event loop so EINTR
                           handling, non-blocking semantics, and failpoint
                           seams stay in one place.
  single-owner             Mutex / MutexLock / CondVar, the
                           src/core/mutex.h include, std::atomic and
                           std::shared_ptr in src/serve/ and src/net/; the
                           thread running Server::Serve() owns every
                           connection, the batcher, the session registry and
                           the serving metrics (the caller owns them before
                           Serve() starts and after it returns), so these
                           layers take no lock and share no session.
  no-bare-exit             exit()/abort()/_exit()/quick_exit() in src/
                           outside the failpoint and logging machinery;
                           library code reports failure as a Status (or an
                           ADPA_CHECK with a message) so callers — and the
                           crash-recovery tests — decide process fate.
  pragma-once              every header in src/, tests/, bench/, tools/ must
                           use #pragma once.
  gradcheck-registry       every Variable-returning op declared in
                           src/tensor/autograd.h must appear (as a quoted
                           string) in the gradcheck registry in
                           src/tensor/gradcheck.cc, so a new autograd op
                           cannot ship without finite-difference coverage.
  failpoint-coverage       every name in the failpoint catalog
                           (src/core/failpoint.cc) must appear as a quoted
                           string in at least one test under tests/, so a
                           new fault-injection seam cannot ship without a
                           test that arms it — an untested failpoint gives
                           false confidence precisely where confidence is
                           the product.

A finding on line N is suppressed by `// lint:allow(<rule>)` on line N or
line N-1. Shell scripts under tools/ are additionally run through shellcheck
when it is installed (skipped with a notice otherwise).

Usage:
  tools/lint.py --root REPO_ROOT            # lint the tree (ctest `lint`)
  tools/lint.py --root R --files f1 f2 ...  # lint specific files (tests)
Exit status is 1 iff at least one finding survives suppression.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z0-9-]+)\)")

# Directories never linted: build trees, VCS metadata, and the rule-violation
# fixtures exercised by tests/lint_test.py and tests/analyze_test.py.
EXCLUDED_PARTS = {".git", "lint_fixtures", "analyze_fixtures"}


def is_excluded(rel_path):
    parts = rel_path.split(os.sep)
    if any(part in EXCLUDED_PARTS for part in parts):
        return True
    return any(part.startswith("build") for part in parts)


class Rule:
    """A regex rule with a path scope and optional per-file exemptions."""

    def __init__(self, rule_id, message, patterns, scopes, exempt=()):
        self.rule_id = rule_id
        self.message = message
        self.patterns = [re.compile(p) for p in patterns]
        self.scopes = scopes
        self.exempt = exempt

    def applies_to(self, rel_path):
        norm = rel_path.replace(os.sep, "/")
        if norm in self.exempt:
            return False
        return any(norm.startswith(scope) for scope in self.scopes)

    def check(self, rel_path, lines):
        for lineno, line in enumerate(lines, start=1):
            code = strip_line_comment(line)
            for pattern in self.patterns:
                if pattern.search(code):
                    yield Finding(rel_path, lineno, self.rule_id, self.message)
                    break


class Finding:
    def __init__(self, rel_path, lineno, rule_id, message):
        self.rel_path = rel_path
        self.lineno = lineno
        self.rule_id = rule_id
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (
            self.rel_path, self.lineno, self.rule_id, self.message)


def strip_line_comment(line):
    """Drops a trailing // comment (naive: ignores // inside strings, which
    is fine for flag-this-token rules and keeps commented-out code unflagged,
    matching the escape hatch's spirit)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


CXX_SOURCE_SCOPES = ("src/",)

RULES = [
    Rule(
        "parallel-primitives",
        "raw threading primitive outside src/core/parallel.*; use ParallelFor "
        "(its determinism contract is what keeps results thread-count "
        "invariant)",
        [
            r"\bstd::(thread|jthread|async)\b",
            r"#\s*include\s*<(thread|omp\.h|execution)>",
            r"#\s*pragma\s+omp\b",
        ],
        scopes=CXX_SOURCE_SCOPES,
        exempt=("src/core/parallel.h", "src/core/parallel.cc"),
    ),
    Rule(
        "mutex-annotations",
        "raw standard-library locking type in src/; use the annotated "
        "adpa::Mutex / MutexLock / CondVar (src/core/mutex.h) so Clang "
        "Thread Safety Analysis can prove every guarded access holds the "
        "lock",
        [
            r"\bstd::(?:mutex|recursive_mutex|timed_mutex|"
            r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
            r"condition_variable(?:_any)?|lock_guard|unique_lock|"
            r"scoped_lock|shared_lock)\b",
            r"#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>",
        ],
        scopes=CXX_SOURCE_SCOPES,
    ),
    Rule(
        "deterministic-randomness",
        "non-deterministic or wall-clock-derived randomness outside "
        "src/core/random.*; every stochastic draw must come from an "
        "explicitly seeded adpa::Rng",
        [
            r"\bstd::random_device\b",
            r"\bstd::(mt19937(_64)?|minstd_rand0?|default_random_engine)\b",
            r"(?<!\w)s?rand\s*\(",
            r"\bstd::time\s*\(",
            r"(?<!\w)time\s*\(\s*(NULL|nullptr|0)\s*\)",
            r"_clock::now\s*\(",
        ],
        scopes=CXX_SOURCE_SCOPES,
        exempt=("src/core/random.h", "src/core/random.cc"),
    ),
    Rule(
        "float-accumulator",
        "scalar float accumulator in kernel code; accumulate in double and "
        "round to float32 once (the dense/sparse kernels' precision "
        "contract)",
        [r"\bfloat\s+\w*(acc|sum|total|dot)\w*\s*(=|\{|;)"],
        scopes=("src/tensor/", "src/graph/", "src/metrics/", "src/models/"),
    ),
    Rule(
        "no-direct-io",
        "direct stdout write outside src/core/logging.* and the CLI; use "
        "TablePrinter, Status, or return data to the caller",
        [r"\bstd::cout\b", r"(?<!\w)printf\s*\("],
        scopes=CXX_SOURCE_SCOPES,
        exempt=("src/core/logging.h", "src/core/logging.cc"),
    ),
    Rule(
        "no-direct-io",
        "raw C stdio in the persistence/serving layers; all file access "
        "goes through the checked stream APIs (BinaryReader/BinaryWriter "
        "over std::fstream) so every I/O failure is a Status, never an "
        "unchecked return value",
        [
            r"\b(fopen|fdopen|freopen|fclose|fread|fwrite|fflush|"
            r"fseeko?|ftello?|rewind|fgets|fgetc|fputs|fputc|fscanf|"
            r"fprintf|setvbuf|tmpfile)\s*\(",
            r"\bFILE\s*\*",
        ],
        scopes=("src/io/", "src/serve/", "src/net/"),
    ),
    Rule(
        "no-bare-exit",
        "bare process-exit call in library code; return a Status (or use "
        "ADPA_CHECK for invariant violations) so the caller decides process "
        "fate — only the failpoint crash action and the CHECK machinery may "
        "terminate",
        [r"(?<![\w.])(?:std::|::)?(_exit|_Exit|quick_exit|abort|exit)\s*\("],
        scopes=CXX_SOURCE_SCOPES,
        exempt=(
            "src/core/failpoint.h",
            "src/core/failpoint.cc",
            "src/core/logging.h",
            "src/core/logging.cc",
        ),
    ),
    Rule(
        "simd-isolation",
        "raw SIMD intrinsics outside the dispatch kernel files "
        "(src/tensor/kernels_*.cc); go through simd::Kernels() so the "
        "portable level stays complete and ADPA_SIMD_LEVEL dispatch cannot "
        "be bypassed",
        [
            r"#\s*include\s*<[xei]mmintrin\.h>",
            r"#\s*include\s*<immintrin\.h>",
            r"\b_mm(?:256|512)?_\w+\s*\(",
        ],
        scopes=CXX_SOURCE_SCOPES,
        exempt=(
            "src/tensor/kernels_portable.cc",
            "src/tensor/kernels_avx2.cc",
            "src/tensor/kernels_avx512.cc",
        ),
    ),
    Rule(
        "socket-isolation",
        "raw socket/epoll/poll syscalls outside src/net/; go through the "
        "FdOwner/ListenTcp/ReadSome/WriteSome wrappers (src/net/socket.h) "
        "and the Server event loop so EINTR handling, non-blocking "
        "semantics, and failpoint seams stay in one place",
        [
            r"#\s*include\s*<(?:sys/socket\.h|sys/epoll\.h|netinet/in\.h|"
            r"netinet/tcp\.h|arpa/inet\.h|poll\.h|sys/select\.h|netdb\.h)>",
            r"(?<![\w:.])(?:::)?(?:socket|bind|listen|accept4?|connect|recv|"
            r"recvfrom|recvmsg|send|sendto|sendmsg|setsockopt|getsockopt|"
            r"getsockname|getpeername|shutdown|epoll_create1?|epoll_ctl|"
            r"epoll_wait|epoll_pwait|ppoll|inet_pton|inet_ntop|getaddrinfo|"
            r"freeaddrinfo)\s*\(",
        ],
        scopes=CXX_SOURCE_SCOPES,
        exempt=(
            "src/net/socket.h",
            "src/net/socket.cc",
            "src/net/framing.h",
            "src/net/framing.cc",
            "src/net/server.h",
            "src/net/server.cc",
        ),
    ),
    Rule(
        "single-owner",
        "lock or shared ownership in a single-owner layer; the thread "
        "running Server::Serve() owns the connections, the batcher, the "
        "SessionRegistry and the ServeMetrics (the caller owns them before "
        "Serve() starts and after it returns), so src/serve/ and src/net/ "
        "take no lock and share no session",
        [
            r"\b(?:Mutex|MutexLock|CondVar)\b",
            r'#\s*include\s*"src/core/mutex\.h"',
            r"\bstd::(?:atomic\w*|shared_ptr|make_shared)\b",
        ],
        scopes=("src/serve/", "src/net/"),
    ),
    Rule(
        "no-unordered-iteration",
        "iteration over an unordered container in a result-affecting path; "
        "hash order is implementation-defined — use a sorted container or "
        "sort before iterating",
        [],  # handled by check_unordered_iteration (needs two passes)
        scopes=("src/models/", "src/train/"),
    ),
]

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{()]*>\s+(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*&?\*?(\w+)\s*\)")


def check_unordered_iteration(rule, rel_path, lines):
    declared = set()
    for line in lines:
        code = strip_line_comment(line)
        for match in UNORDERED_DECL_RE.finditer(code):
            declared.add(match.group(1))
    if not declared:
        return
    for lineno, line in enumerate(lines, start=1):
        code = strip_line_comment(line)
        match = RANGE_FOR_RE.search(code)
        if match and match.group(1) in declared:
            yield Finding(rel_path, lineno, rule.rule_id, rule.message)


HEADER_SCOPES = ("src/", "tests/", "bench/", "tools/")


PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")


def check_pragma_once(rel_path, lines):
    if not any(PRAGMA_ONCE_RE.match(line) for line in lines):
        yield Finding(
            rel_path, 1, "pragma-once",
            "header is missing #pragma once (include-guard style is not "
            "used in this repo)")


GRADCHECK_HEADER = "src/tensor/autograd.h"
GRADCHECK_SOURCE = "src/tensor/gradcheck.cc"
# Namespace-level op declarations returning Variable. Ops returning plain
# Matrix (e.g. DropoutMask) are helpers, not tape ops, and are exempt by
# construction.
VARIABLE_OP_RE = re.compile(r"^Variable\s+(\w+)\s*\(")
QUOTED_NAME_RE = re.compile(r'"(\w+)"')


def check_gradcheck_registry(root):
    """Cross-file rule: autograd ops without a gradcheck registry entry.

    Scans src/tensor/autograd.h for `Variable <Name>(...)` declarations and
    requires each name to occur as a quoted string in src/tensor/gradcheck.cc
    (where OpGradcheckRegistry() registers its cases). The string match is an
    over-approximation — any mention counts — but a missing mention is
    always a genuinely unregistered op.
    """
    header_path = os.path.join(root, GRADCHECK_HEADER)
    if not os.path.exists(header_path):
        return []
    with open(header_path, encoding="utf-8", errors="replace") as f:
        header_lines = f.read().splitlines()
    registered = set()
    source_path = os.path.join(root, GRADCHECK_SOURCE)
    if os.path.exists(source_path):
        with open(source_path, encoding="utf-8", errors="replace") as f:
            registered = set(QUOTED_NAME_RE.findall(f.read()))
    findings = []
    for lineno, line in enumerate(header_lines, start=1):
        match = VARIABLE_OP_RE.match(strip_line_comment(line))
        if match and match.group(1) not in registered:
            findings.append(Finding(
                GRADCHECK_HEADER, lineno, "gradcheck-registry",
                "op %s has no case in OpGradcheckRegistry() (%s); every "
                "autograd op must be finite-difference checked" % (
                    match.group(1), GRADCHECK_SOURCE)))
    return [f for f in findings if not suppressed(f, header_lines)]


FAILPOINT_SOURCE = "src/core/failpoint.cc"
# A catalog entry opens `{"dotted.name",` — every real point name has at
# least one dot, which keeps brace-initialized strings elsewhere in the
# file from matching.
FAILPOINT_NAME_RE = re.compile(r'\{"([a-z0-9_]+(?:\.[a-z0-9_]+)+)",')
QUOTED_DOTTED_RE = re.compile(r'"([a-z0-9_]+(?:\.[a-z0-9_]+)+)"')


def check_failpoint_coverage(root):
    """Cross-file rule: failpoint catalog names no test ever mentions.

    Scans the catalog entries in src/core/failpoint.cc and requires each
    name to occur as a quoted string in some test file under tests/
    (fixtures excluded). Any mention counts — arming it, asserting on its
    Status message, a soak-script grep target listed in a test — but a
    missing mention is always a seam that can silently rot.
    """
    source_path = os.path.join(root, FAILPOINT_SOURCE)
    if not os.path.exists(source_path):
        return []
    with open(source_path, encoding="utf-8", errors="replace") as f:
        source_lines = f.read().splitlines()

    mentioned = set()
    tests_dir = os.path.join(root, "tests")
    for dirpath, dirnames, filenames in os.walk(tests_dir):
        dirnames[:] = [
            d for d in dirnames
            if not is_excluded(os.path.relpath(os.path.join(dirpath, d),
                                               root))]
        for name in filenames:
            if not name.endswith((".cc", ".h", ".py", ".sh")):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8", errors="replace") as f:
                mentioned.update(QUOTED_DOTTED_RE.findall(f.read()))

    findings = []
    for lineno, line in enumerate(source_lines, start=1):
        for match in FAILPOINT_NAME_RE.finditer(strip_line_comment(line)):
            if match.group(1) not in mentioned:
                findings.append(Finding(
                    FAILPOINT_SOURCE, lineno, "failpoint-coverage",
                    "failpoint %s is exercised by no test under tests/; "
                    "add one that arms it (or observes its injected "
                    "failure) before shipping the seam" % match.group(1)))
    return [f for f in findings if not suppressed(f, source_lines)]


def suppressed(finding, lines):
    """True if `// lint:allow(<rule>)` covers the finding's line."""
    for lineno in (finding.lineno, finding.lineno - 1):
        if 1 <= lineno <= len(lines):
            for match in ALLOW_RE.finditer(lines[lineno - 1]):
                if match.group(1) == finding.rule_id:
                    return True
    return False


def lint_file(root, rel_path):
    path = os.path.join(root, rel_path)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as err:
        return [Finding(rel_path, 1, "io-error", str(err))]
    findings = []
    norm = rel_path.replace(os.sep, "/")
    if norm.endswith((".cc", ".h")):
        for rule in RULES:
            if not rule.applies_to(rel_path):
                continue
            if rule.rule_id == "no-unordered-iteration":
                findings.extend(check_unordered_iteration(rule, rel_path, lines))
            else:
                findings.extend(rule.check(rel_path, lines))
    if norm.endswith(".h") and norm.startswith(HEADER_SCOPES):
        findings.extend(check_pragma_once(rel_path, lines))
    return [f for f in findings if not suppressed(f, lines)]


def run_shellcheck(root, rel_paths):
    """Shellcheck for tools/*.sh; a missing shellcheck binary is a skipped
    check (the sanitizer/CI jobs install it), not a lint failure."""
    scripts = [p for p in rel_paths if p.replace(os.sep, "/").endswith(".sh")]
    if not scripts:
        return []
    exe = shutil.which("shellcheck")
    if exe is None:
        print("lint: shellcheck not installed; skipping %d shell script(s)"
              % len(scripts))
        return []
    findings = []
    result = subprocess.run(
        [exe, "--format=gcc"] + [os.path.join(root, p) for p in scripts],
        capture_output=True, text=True, check=False)
    for line in result.stdout.splitlines():
        # gcc format: path:line:col: level: message [SCxxxx]
        parts = line.split(":", 3)
        if len(parts) == 4:
            rel = os.path.relpath(parts[0], root)
            findings.append(Finding(rel, int(parts[1]), "shellcheck",
                                    parts[3].strip()))
    return findings


def collect_files(root):
    rel_paths = []
    for scope in ("src", "tests", "bench", "tools", "examples"):
        scope_dir = os.path.join(root, scope)
        for dirpath, dirnames, filenames in os.walk(scope_dir):
            dirnames[:] = [
                d for d in dirnames
                if not is_excluded(os.path.relpath(os.path.join(dirpath, d),
                                                   root))]
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".sh")):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    if not is_excluded(rel):
                        rel_paths.append(rel)
    return rel_paths


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--files", nargs="*", default=None,
                        help="lint only these paths (relative to --root); "
                             "exclusion filters are bypassed")
    parser.add_argument("--no-shellcheck", action="store_true")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if args.files is not None:
        rel_paths = [os.path.relpath(os.path.abspath(p), root)
                     if os.path.isabs(p) else p for p in args.files]
    else:
        rel_paths = collect_files(root)

    findings = []
    for rel_path in rel_paths:
        findings.extend(lint_file(root, rel_path))
    norm_paths = {p.replace(os.sep, "/") for p in rel_paths}
    if args.files is None or GRADCHECK_HEADER in norm_paths:
        findings.extend(check_gradcheck_registry(root))
    if args.files is None or FAILPOINT_SOURCE in norm_paths:
        findings.extend(check_failpoint_coverage(root))
    if not args.no_shellcheck:
        findings.extend(run_shellcheck(root, rel_paths))

    for finding in findings:
        print(finding)
    if findings:
        print("lint: %d finding(s) in %d file(s)" % (
            len(findings), len({f.rel_path for f in findings})))
        return 1
    print("lint: OK (%d files)" % len(rel_paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
