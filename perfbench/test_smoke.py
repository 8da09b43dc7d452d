"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 -m unittest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(*args, cwd=ROOT, run=RUN):
    return subprocess.run(
        [sys.executable, run, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def parse(proc):
    """(detail lines, result line) of a finished run."""
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return lines[:-1], lines[-1]


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def assert_metrics(self, metrics, specs):
        for m in specs:
            self.assertIn(m["name"], metrics)
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float), m["name"])

    def test_end_to_end_metrics_and_fingerprints(self):
        runs = []
        for _ in range(2):
            proc = bench("--workload", "all", "--seed", "5", "--items", "6", "--seconds", "0")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            details, result = parse(proc)
            self.assertTrue(result["correct"], details)
            self.assertEqual(result["failed"], 0)
            self.assertEqual([d["workload"] for d in details], [w["name"] for w in self.spec["workloads"]])
            for d in details:
                self.assert_metrics(d["metrics"], self.spec["end_to_end"])
                self.assertEqual(d["metrics"]["fail_ratio"]["unit"], "ratio")
                self.assertEqual(d["fail_ratio"]["items"], 6)
                self.assertEqual(d["environment"]["nproc"], os.cpu_count())
            runs.append({d["workload"]: d["fingerprint"] for d in details})
        for name, fp in runs[0].items():
            self.assertEqual(fp["answers"], runs[1][name]["answers"], name)
            self.assertEqual(fp["keys"], runs[1][name]["keys"], name)

    def test_per_layer_metrics_and_spans(self):
        sys.path.insert(0, HERE)
        from tracer import read_spans

        proc = bench("--workload", "all", "--seed", "5", "--items", "3", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        details, result = parse(proc)
        self.assertTrue(result["correct"], details)
        for d in details:
            self.assert_metrics(d["metrics"], self.spec["per_layer"])
            header, cols = read_spans(os.path.join(ROOT, d["spans"]["path"]))
            self.assertEqual(header["count"], d["spans"]["count"])
            self.assertGreater(header["count"], 0)
            for k, parent in enumerate(cols["parent"]):
                self.assertLess(parent, k)
                self.assertLessEqual(cols["start_ns"][k], cols["end_ns"][k])
            self.assertEqual(set(cols["item"]) - {-1}, {0, 1, 2})
            self.assertIn("modules.modules_isomorphic.true", d["outcomes"])
            self.assertIn("certificates.enumerate_modules.accept_ratio", d["outcomes"])
        calls = {d["workload"]: d["metrics"]["cli.main.calls"]["value"] for d in details}
        self.assertEqual(calls, {"resolve": 0, "ghost": 0, "homsupport": 0, "certify": 6})

    def test_inactive_tracer_records_nothing(self):
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tr = Tracer()
        double = tr.wrap("x.double", lambda v: 2 * v)
        tr.active = False
        self.assertEqual(double(2), 4)
        self.assertEqual((tr.call_count("x.double"), len(tr.span_start)), (0, 0))
        tr.active = True
        self.assertEqual(double(3), 6)
        self.assertEqual((tr.call_count("x.double"), len(tr.span_start)), (1, 1))

    def test_changed_item_count_is_a_mismatch(self):
        sys.path.insert(0, HERE)
        from run import check_fingerprint

        stored = {"seed": 0, "workloads": {"w": {"items": 10, "keys": "k", "answers": "a"}}}
        fp = {"items": 10, "keys": "k", "answers": "a"}
        self.assertEqual(check_fingerprint("w", 0, fp, stored, False)["status"], "match")
        self.assertEqual(check_fingerprint("w", 3, dict(fp, answers="b"), stored, False)["status"], "match")
        self.assertEqual(check_fingerprint("w", 0, dict(fp, answers="b"), stored, False)["status"], "mismatch")
        self.assertEqual(check_fingerprint("w", 3, dict(fp, items=9), stored, False)["status"], "mismatch")
        self.assertEqual(check_fingerprint("v", 3, fp, stored, False)["status"], "mismatch")
        self.assertEqual(check_fingerprint("w", 3, dict(fp, items=9), stored, True)["status"], "unchecked")

    def test_tampered_certificate_counted_as_rejected(self):
        sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
        from workloads import Certify

        with tempfile.TemporaryDirectory() as tmp:
            wl = Certify(5, limit=2, workdir=tmp)
            wl.setup()
            try:
                prep = wl.prepare(0)
                cert, text, rc, rc_bad = wl.run(prep)
                self.assertEqual((rc, rc_bad), (0, 1))
                self.assertEqual(wl.check(prep, (cert, text, rc, rc_bad))[2], [])
                # a verifier that let the tampered copy through fails the item
                self.assertNotEqual(wl.check(prep, (cert, text, rc, 0))[2], [])
            finally:
                wl.close()

    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "resolve", "--seed", "1", "--seconds", "1", cwd=tmp,
                         run=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
