#!/usr/bin/env python3
"""Tests of the repository benchmark, on a short configuration of each workload.

    python3 perfbench/test_perfbench.py        (from the root of a checkout)

They check that each run prints every metric BENCHMARK.json names, with its unit,
plus the workload's own metrics; that an injected wrong report (one flipped value
bit) raises failed_ratio; and that the benchmark fails without the library sources.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

COMMON = {"setup_s": "s", "setup_generate_s": "s", "setup_construct_s": "s",
          "setup_warmup_s": "s", "setup_wall_s": "s", "latency_p50_ms": "ms",
          "cpu_per_op_ms": "ms", "peak_rss_mb": "MiB",
          "failed_ratio": "fraction", "exact.oracle.hit_ratio": "fraction",
          "centrality.passes_per_query": "count"}
OWN = {
    "estimate-social-cold": {"latency_mh_p50_ms": "ms", "latency_mh_rb_p50_ms": "ms",
                             "throughput_per_s": "1/s"},
    "exact-road": {"exact_unweighted_s": "s", "throughput_per_s": "1/s"},
    "exact-road-weighted": {"exact_weighted_s": "s", "throughput_per_s": "1/s"},
    "serve-mixed": {"write_p50_ms": "ms", "max_rate_rps": "1/s",
                    "p99_limit_ms": "ms", "serve.server_elapsed_ms": "ms",
                    "serve.queue_depth_mean": "count", "serve.busy_workers_mean": "count",
                    "serve.rejected_overload": "count",
                    "rung1.generator_lateness_p50_ms": "ms", "rung1.backlog_grew": "bool"},
}
OWN_TRACED = {
    "exact-road": {"exact.brandes.parallel_efficiency": "fraction"},
    "exact-road-weighted": {"exact.brandes.parallel_efficiency": "fraction"},
    "serve-mixed": {"serve.lease_wait_ms": "ms", "serve.mutate_drain_ms": "ms"},
}
META = ["workload", "why", "seed", "nproc", "compiler", "build_type", "cxx_flags", "git_sha"]


def run(workload, trace, *extra, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "2", "--trace", str(trace), "--small", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


class PerfbenchTest(unittest.TestCase):

    def check_run(self, workload, trace):
        rc, lines = run(workload, trace)
        self.assertEqual(rc, 0, lines)
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], report["failures"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(units(result["metrics"]), {m["name"]: m["unit"] for m in declared})
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))
        wanted = dict(COMMON, **OWN[workload])
        if trace:
            wanted.update(OWN_TRACED.get(workload, {}))
        got = units(report["report"])
        for name, unit in wanted.items():
            self.assertEqual(got.get(name), unit, f"{workload}: {name}")
        # A tail is reported only with at least 10 samples beyond it.
        tails = [n for n in got if re.fullmatch(r"latency_p(99|90|75)_ms", n)]
        samples = report["report"]["latency_samples"]["value"]
        self.assertEqual(len(tails), 1 if samples >= 40 else 0, f"{workload}: latency tail")
        self.assertTrue(all(got[t] == "ms" for t in tails))
        self.assertEqual(got["latency_samples"], "count")
        self.assertEqual(report["report"]["failed_ratio"]["value"], 0)
        for key in META:
            self.assertIn(key, report["meta"])
        return report, result

    def test_end_to_end_metrics_on_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, trace=0)

    def test_traced_run_reconciles_on_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                report, _ = self.check_run(workload, trace=1)
                self.assertGreater(report["report"]["trace.traced_ops"]["value"], 0)
                self.assertLess(report["report"]["trace.reconcile_gap_ms"]["value"], 1e-6)
                spans = json.loads(pathlib.Path(report["meta"]["trace_file"]).read_text())
                self.assertTrue(spans["spans"])
                self.assertTrue(spans["breakdowns"])

    def test_injected_wrong_report_raises_failed_ratio(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, lines = run(workload, 0, "--inject-wrong-report")
                self.assertEqual(rc, 0, lines)
                report, result = json.loads(lines[-2]), json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertGreater(report["report"]["failed_ratio"]["value"], 0)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            for path in BENCHMARK["paths"]:
                shutil.copytree(ROOT / path, pathlib.Path(scratch) / path)
            rc, lines = run(WORKLOADS[0], 0, cwd=scratch)
            self.assertNotEqual(rc, 0)
            self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
