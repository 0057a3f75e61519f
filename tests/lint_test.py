#!/usr/bin/env python3
"""Fixture-driven tests for tools/lint.py.

Runs the linter against tests/lint_fixtures/ (a miniature repo tree in
which every rule is violated at least once) and asserts that each rule
fires where expected, that the `// lint:allow(<rule>)` escape hatch and the
per-file exemptions (src/core/parallel.*, src/core/random.*) suppress
findings, and that clean code produces none.
"""

import os
import re
import subprocess
import sys
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_ROOT = os.path.join(REPO_ROOT, "tests", "lint_fixtures")
LINT = os.path.join(REPO_ROOT, "tools", "lint.py")

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z-]+)\]")


def run_lint(files=None):
    """Returns (exit_code, list of (path, line, rule))."""
    cmd = [sys.executable, LINT, "--root", FIXTURE_ROOT, "--no-shellcheck"]
    if files is not None:
        cmd += ["--files"] + files
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    findings = []
    for line in proc.stdout.splitlines():
        match = FINDING_RE.match(line)
        if match:
            findings.append((match.group("path").replace(os.sep, "/"),
                             int(match.group("line")), match.group("rule")))
    return proc.returncode, findings


def rules_for(findings, path):
    return sorted({rule for p, _, rule in findings if p == path})


class LintRuleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exit_code, cls.findings = run_lint()

    def test_violations_fail_the_run(self):
        self.assertEqual(self.exit_code, 1)

    def test_parallel_primitives_fires_on_thread_use(self):
        rules = rules_for(self.findings, "src/models/bad_thread.cc")
        self.assertEqual(rules, ["parallel-primitives"])
        hits = [line for p, line, r in self.findings
                if p == "src/models/bad_thread.cc"]
        self.assertEqual(len(hits), 2)  # the #include and the declaration

    def test_mutex_annotations_fires_on_raw_locking_types(self):
        rules = rules_for(self.findings, "src/models/bad_mutex.cc")
        self.assertEqual(rules, ["mutex-annotations"])
        hits = [line for p, line, r in self.findings
                if p == "src/models/bad_mutex.cc"]
        # Two raw includes, two raw members, and the lock_guard fire; the
        # lint:allow'd std::mutex is suppressed.
        self.assertEqual(len(hits), 5)

    def test_deterministic_randomness_fires_on_entropy_and_clock(self):
        hits = [(line, rule) for p, line, rule in self.findings
                if p == "src/models/bad_random.cc"]
        self.assertTrue(hits)
        self.assertEqual({rule for _, rule in hits},
                         {"deterministic-randomness"})
        # random_device, rand(), and the wall-clock read must all fire.
        self.assertGreaterEqual(len(hits), 3)

    def test_float_accumulator_fires_in_kernel_scope(self):
        rules = rules_for(self.findings, "src/tensor/bad_float_acc.cc")
        self.assertEqual(rules, ["float-accumulator"])
        hits = [line for p, line, r in self.findings
                if p == "src/tensor/bad_float_acc.cc"]
        self.assertEqual(len(hits), 2)  # `float sum =` and `float dot_acc{`

    def test_no_direct_io_fires_on_cout_and_printf_only(self):
        hits = [(line, rule) for p, line, rule in self.findings
                if p == "src/data/bad_io.cc"]
        self.assertEqual({rule for _, rule in hits}, {"no-direct-io"})
        # std::cout and printf( are findings; fprintf(stderr)/snprintf are
        # not, so exactly two lines fire.
        self.assertEqual(len(hits), 2)

    def test_no_direct_io_fires_on_raw_stdio_in_serve_layer(self):
        hits = [(line, rule) for p, line, rule in self.findings
                if p == "src/serve/bad_fopen.cc"]
        self.assertEqual({rule for _, rule in hits}, {"no-direct-io"})
        # The FILE*/fopen line, fread, and fclose fire (one finding per
        # line); snprintf does not.
        self.assertEqual(len(hits), 3)

    def test_no_bare_exit_fires_on_process_terminating_calls(self):
        hits = [(line, rule) for p, line, rule in self.findings
                if p == "src/serve/bad_exit.cc"]
        self.assertEqual({rule for _, rule in hits}, {"no-bare-exit"})
        # exit(2), std::abort(), and _exit(3) fire; the lint:allow'd exit(0)
        # is suppressed.
        self.assertEqual(len(hits), 3)

    def test_no_unordered_iteration_fires_on_range_for_only(self):
        hits = [line for p, line, rule in self.findings
                if p == "src/models/bad_unordered.cc"]
        self.assertEqual(len(hits), 1)  # size()/membership uses stay legal

    def test_pragma_once_fires_on_guard_style_header(self):
        rules = rules_for(self.findings, "src/graph/bad_header.h")
        self.assertEqual(rules, ["pragma-once"])

    def test_gradcheck_registry_fires_on_unregistered_op(self):
        hits = [(line, rule) for p, line, rule in self.findings
                if p == "src/tensor/autograd.h"]
        self.assertEqual({rule for _, rule in hits}, {"gradcheck-registry"})
        # Only Frobnicate fires: Add is registered, MakeMask returns Matrix,
        # Backward returns void.
        self.assertEqual(len(hits), 1)

    def test_failpoint_coverage_fires_on_untested_point(self):
        hits = [(line, rule) for p, line, rule in self.findings
                if p == "src/core/failpoint.cc"]
        self.assertEqual({rule for _, rule in hits}, {"failpoint-coverage"})
        # Only uncovered.point fires: covered.point is mentioned by
        # tests/covered_test.cc and waived.point carries lint:allow.
        self.assertEqual(len(hits), 1)

    def test_simd_isolation_fires_outside_kernel_files(self):
        hits = [(line, rule) for p, line, rule in self.findings
                if p == "src/tensor/bad_intrinsics.cc"]
        self.assertEqual({rule for _, rule in hits}, {"simd-isolation"})
        # The <immintrin.h> include and all four raw intrinsic calls fire;
        # the lint:allow'd fence is suppressed.
        self.assertEqual(len(hits), 5)

    def test_simd_isolation_exempts_dispatch_kernel_files(self):
        self.assertEqual(
            rules_for(self.findings, "src/tensor/kernels_avx512.cc"), [])

    def test_socket_isolation_fires_outside_net_layer(self):
        hits = [(line, rule) for p, line, rule in self.findings
                if p == "src/serve/bad_socket.cc"]
        self.assertEqual({rule for _, rule in hits}, {"socket-isolation"})
        # The <sys/socket.h> include, the socket() call, and the qualified
        # ::listen() fire; the lint:allow'd shutdown() is suppressed and
        # member-call/std::bind-style mentions never match.
        self.assertEqual(len(hits), 3)

    def test_single_owner_fires_on_locks_in_serve_layer(self):
        hits = [(line, rule) for p, line, rule in self.findings
                if p == "src/serve/bad_lock.cc"]
        self.assertEqual({rule for _, rule in hits}, {"single-owner"})
        # The mutex.h include, both shared_ptr declarations, the MutexLock,
        # the Mutex and the CondVar fire; the lint:allow'd shared_ptr, the
        # unique_ptr and the comment naming a Mutex do not.
        self.assertEqual(len(hits), 6)

    def test_single_owner_fires_on_atomics_in_net_layer(self):
        hits = [(line, rule) for p, line, rule in self.findings
                if p == "src/net/bad_atomic.cc"]
        # Only the std::atomic member fires, not the <atomic> include.
        self.assertEqual(hits, [(9, "single-owner")])

    def test_allow_escape_hatch_suppresses_everything(self):
        self.assertEqual(rules_for(self.findings, "src/models/allowed.cc"), [])

    def test_clean_file_has_no_findings(self):
        self.assertEqual(rules_for(self.findings, "src/models/clean.cc"), [])

    def test_parallel_and_random_cores_are_exempt(self):
        self.assertEqual(rules_for(self.findings, "src/core/parallel.cc"), [])
        self.assertEqual(rules_for(self.findings, "src/core/random.cc"), [])


class LintInvocationTest(unittest.TestCase):
    def test_explicit_file_list_restricts_the_run(self):
        code, findings = run_lint(files=["src/models/clean.cc"])
        self.assertEqual(code, 0)
        self.assertEqual(findings, [])

    def test_explicit_bad_file_fails(self):
        code, findings = run_lint(files=["src/models/bad_thread.cc"])
        self.assertEqual(code, 1)
        self.assertEqual(rules_for(findings, "src/models/bad_thread.cc"),
                         ["parallel-primitives"])

    def test_real_tree_walk_skips_fixtures(self):
        # Linting the actual repository must pass — and must not pick the
        # deliberately broken fixture files up.
        proc = subprocess.run(
            [sys.executable, LINT, "--root", REPO_ROOT, "--no-shellcheck"],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, msg=proc.stdout + proc.stderr)
        self.assertNotIn("lint_fixtures", proc.stdout)


if __name__ == "__main__":
    unittest.main()
