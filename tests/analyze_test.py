#!/usr/bin/env python3
"""Fixture-driven tests for tools/analyze.py (the internal frontend).

Runs the analyzer against tests/analyze_fixtures/ (a miniature repo tree
exercising every rule and every waiver placement) and asserts that each
rule fires where expected — including the edge cases the lexer frontend
must get right: templated hot functions, lambda bodies attributed to their
enclosing function, manual Lock()/Unlock() spans, and predicate-loop
CondVar waits — and that the real tree stays clean.
"""

import os
import re
import subprocess
import sys
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_ROOT = os.path.join(REPO_ROOT, "tests", "analyze_fixtures")
ANALYZE = os.path.join(REPO_ROOT, "tools", "analyze.py")

FINDING_RE = re.compile(
    r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z-]+)\] (?P<msg>.*)$")


def run_analyze(root=FIXTURE_ROOT, files=None):
    """Returns (exit_code, list of (path, line, rule, message), stdout)."""
    cmd = [sys.executable, ANALYZE, "--root", root]
    if files is not None:
        cmd += ["--files"] + files
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    findings = []
    for line in proc.stdout.splitlines():
        match = FINDING_RE.match(line)
        if match:
            findings.append((match.group("path").replace(os.sep, "/"),
                             int(match.group("line")), match.group("rule"),
                             match.group("msg")))
    return proc.returncode, findings, proc.stdout


def hits_for(findings, path):
    return [(line, rule, msg) for p, line, rule, msg in findings
            if p == path]


class AnalyzeRuleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exit_code, cls.findings, cls.stdout = run_analyze()

    def test_violations_fail_the_run(self):
        self.assertEqual(self.exit_code, 1)

    def test_hot_alloc_fires_on_direct_allocations(self):
        hits = hits_for(self.findings, "src/serve/hot_alloc.cc")
        self.assertEqual({rule for _, rule, _ in hits}, {"hot-alloc"})
        # push_back and operator new each fire once.
        self.assertEqual(len(hits), 2)
        self.assertTrue(all("HotDirect" in msg for _, _, msg in hits))

    def test_hot_alloc_fires_transitively_with_call_chain(self):
        hits = hits_for(self.findings, "src/serve/hot_transitive.cc")
        self.assertEqual([rule for _, rule, _ in hits], ["hot-alloc"])
        # The finding anchors to the resize() inside Helper, and the message
        # names the path back to the hot root.
        self.assertIn("Helper <- HotCaller", hits[0][2])
        self.assertIn("HotCaller()", hits[0][2])

    def test_all_waiver_placements_suppress(self):
        # Site waiver, call-site waiver, and decl-level leaf waiver each
        # silence their allocation.
        self.assertEqual(hits_for(self.findings, "src/serve/hot_waived.cc"),
                         [])

    def test_templated_hot_function_is_a_root(self):
        hits = hits_for(self.findings, "src/tensor/hot_template.cc")
        self.assertEqual([rule for _, rule, _ in hits], ["hot-alloc"])
        self.assertIn("HotTemplate", hits[0][2])

    def test_lambda_body_attributed_to_enclosing_function(self):
        hits = hits_for(self.findings, "src/tensor/hot_lambda.cc")
        self.assertEqual([rule for _, rule, _ in hits], ["hot-alloc"])
        self.assertIn("HotLambda", hits[0][2])

    def test_executor_waiver_stays_with_its_executor(self):
        # Two executors define the ops a hot template calls by name. One
        # executor's call-site waivers must silence neither the other
        # executor's op of the same name nor the definition after them.
        path = "src/models/executors.cc"
        hits = hits_for(self.findings, path)
        self.assertEqual([rule for _, rule, _ in hits], ["hot-alloc"])
        with open(os.path.join(FIXTURE_ROOT, path), encoding="utf-8") as f:
            expected = [n for n, text in enumerate(f, 1)
                        if "expect: hot-alloc" in text]
        self.assertEqual([line for line, _, _ in hits], expected)
        self.assertIn("Finish <- Definition <- HotExecutorRoot", hits[0][2])

    def test_blocking_under_lock_variants(self):
        hits = hits_for(self.findings, "src/core/block_under_lock.cc")
        self.assertEqual({rule for _, rule, _ in hits},
                         {"blocking-under-lock"})
        # IO under MutexLock, Wait outside a loop, IO inside a manual
        # Lock()/Unlock() span, and IO inside a lambda under the lock.
        flagged = {fn for _, _, msg in hits
                   for fn in ("BlockedRead", "WaitNoLoop", "ManualLockSpan",
                              "LambdaUnderLock") if fn in msg}
        self.assertEqual(flagged, {"BlockedRead", "WaitNoLoop",
                                   "ManualLockSpan", "LambdaUnderLock"})
        self.assertEqual(len(hits), 4)
        # Predicate-loop waits and post-Unlock IO stay legal.
        all_msgs = " ".join(msg for _, _, msg in hits)
        self.assertNotIn("WaitInLoop", all_msgs)
        self.assertNotIn("WaitInBracedLoop", all_msgs)

    def test_guard_coverage_fires_on_the_one_unguarded_member(self):
        hits = hits_for(self.findings, "src/core/unguarded.h")
        self.assertEqual([rule for _, rule, _ in hits], ["guard-coverage"])
        self.assertIn("'errors_'", hits[0][2])
        # Guarded, const, atomic, waived, and sync-primitive members — and
        # the mutex-free class — all stay clean.
        for name in ("requests_", "capacity_", "peak_", "waived_", "cv_",
                     "free_counter_"):
            self.assertNotIn(name, hits[0][2])

    def test_clean_hot_path_has_no_findings(self):
        self.assertEqual(hits_for(self.findings, "src/models/clean.cc"), [])

    # --- untrusted-size -----------------------------------------------------

    def test_taint_bomb_multiply_and_both_sinks_fire(self):
        # The PR 4 propagation-cache shape: a product-only bound check is
        # itself a finding, and it bounds neither factor, so both resizes
        # fire too.
        hits = hits_for(self.findings, "src/io/taint_bomb.cc")
        self.assertEqual({rule for _, rule, _ in hits}, {"untrusted-size"})
        self.assertEqual(len(hits), 3)
        multiply = [msg for _, _, msg in hits if "multiplies" in msg]
        self.assertEqual(len(multiply), 1)
        self.assertIn("steps * per_step", multiply[0])
        sinks = [msg for _, _, msg in hits if "reaches resize()" in msg]
        self.assertEqual(len(sinks), 2)
        self.assertTrue(any("'steps'" in msg for msg in sinks))
        self.assertTrue(any("'per_step'" in msg for msg in sinks))

    def test_taint_flows_through_call_argument(self):
        # Taint read in the caller reaches the sink inside the callee via
        # the interprocedural parameter entry.
        hits = hits_for(self.findings, "src/io/taint_flows.cc")
        self.assertEqual({rule for _, rule, _ in hits}, {"untrusted-size"})
        param = [msg for _, _, msg in hits if "SinkParam" in msg]
        self.assertEqual(len(param), 1)
        self.assertIn("binary Read*", param[0])

    def test_taint_flows_through_return_and_local_copy(self):
        hits = hits_for(self.findings, "src/io/taint_flows.cc")
        ret = [msg for _, _, msg in hits
               if "FlowThroughReturnAndLocal" in msg]
        self.assertEqual(len(ret), 1)
        # The reported path is the local copy, the origin the wire read
        # inside the callee the value returned from.
        self.assertIn("'copy'", ret[0])
        self.assertIn("reaches reserve()", ret[0])

    def test_taint_flows_through_struct_member(self):
        hits = hits_for(self.findings, "src/io/taint_flows.cc")
        member = [msg for _, _, msg in hits if "FlowThroughMember" in msg]
        self.assertEqual(len(member), 1)
        self.assertIn("'header.count'", member[0])

    def test_stream_extraction_is_a_source(self):
        hits = hits_for(self.findings, "src/io/taint_flows.cc")
        stream = [msg for _, _, msg in hits if "FlowFromStream" in msg]
        self.assertEqual(len(stream), 1)
        self.assertIn("stream >>", stream[0])

    def test_array_new_is_a_sink(self):
        hits = hits_for(self.findings, "src/io/taint_flows.cc")
        arr = [msg for _, _, msg in hits if "FlowIntoArrayNew" in msg]
        self.assertEqual(len(arr), 1)
        self.assertIn("new[]", arr[0])

    def test_sanitized_flows_are_silent(self):
        # Comparison against a named limit, CHECK macro, consumed Validate
        # call, equality pin, min-clamp at the sink, and the
        # divide-the-limit product guard each bound their count.
        self.assertEqual(
            hits_for(self.findings, "src/io/taint_sanitized.cc"), [])

    def test_taint_waiver_placements_suppress(self):
        # Site, call-site, and definition-header waivers all silence the
        # report.
        self.assertEqual(
            hits_for(self.findings, "src/io/taint_waived.cc"), [])

    # --- unchecked-status ---------------------------------------------------

    def test_bare_and_void_cast_discards_fire(self):
        hits = hits_for(self.findings, "src/serve/unchecked_status.cc")
        self.assertEqual({rule for _, rule, _ in hits},
                         {"unchecked-status"})
        self.assertEqual(len(hits), 2)
        flagged = {fn for _, _, msg in hits
                   for fn in ("Flush", "CountRows") if fn + "()" in msg}
        self.assertEqual(flagged, {"Flush", "CountRows"})
        self.assertTrue(all("BareDiscards" in msg for _, _, msg in hits))

    def test_status_consumption_forms_and_waivers_are_silent(self):
        # Assignment, return, branch, macro operands, member chaining, the
        # declaration waiver, and the site waiver all consume or excuse the
        # value — only the two BareDiscards lines fire in this file.
        hits = hits_for(self.findings, "src/serve/unchecked_status.cc")
        all_msgs = " ".join(msg for _, _, msg in hits)
        for silent_fn in ("ProperConsumption", "DeclWaivedDiscard",
                          "SiteWaivedDiscard"):
            self.assertNotIn(silent_fn, all_msgs)


class AnalyzeInvocationTest(unittest.TestCase):
    def test_explicit_file_list_restricts_the_run(self):
        code, findings, _ = run_analyze(files=["src/models/clean.cc"])
        self.assertEqual(code, 0)
        self.assertEqual(findings, [])

    def test_explicit_bad_file_fails(self):
        code, findings, _ = run_analyze(files=["src/serve/hot_alloc.cc"])
        self.assertEqual(code, 1)
        self.assertEqual({rule for _, _, rule, _ in findings}, {"hot-alloc"})

    def test_real_tree_walk_is_clean_and_skips_fixtures(self):
        # The actual repository must analyze clean — every hot path is
        # allocation-free or explicitly waived — and the deliberately broken
        # fixtures must not be picked up.
        code, findings, stdout = run_analyze(root=REPO_ROOT)
        self.assertEqual(code, 0, msg=stdout)
        self.assertEqual(findings, [])
        self.assertNotIn("analyze_fixtures", stdout)
        self.assertIn("analyze: OK", stdout)


if __name__ == "__main__":
    unittest.main()
