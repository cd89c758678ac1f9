#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py        (from the repo root)

They build the benchmark through perfbench/run.py on first use and run
short versions of the workloads, about half a minute once built:

* every workload and metric name `perfbench --list` prints appears in
  BENCHMARK.json, and the reverse, with matching units;
* a traced run of each discover workload is correct and its layer self
  times cover at least 90% of job wall time;
* the benchmark fails, without printing a result, when the ocdd sources
  are missing.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import unittest

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
OUT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class NamesTest(unittest.TestCase):
    def test_listed_names_match_benchmark_json(self):
        proc = run("--list")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        listed = {"workload": set(), "end_to_end": set(), "per_layer": set()}
        for line in proc.stdout.splitlines():
            kind, name = line.split()
            listed[kind].add(name)
        self.assertEqual(listed["workload"],
                         {w["name"] for w in SPEC["workloads"]})
        self.assertEqual(listed["end_to_end"],
                         {m["name"] for m in SPEC["end_to_end"]})
        self.assertEqual(listed["per_layer"],
                         {m["name"] for m in SPEC["per_layer"]})

    def test_untraced_run_prints_every_end_to_end_metric(self):
        proc = run("--workload", "discover-checks", "--seed", "3",
                   "--seconds", "2", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = result_of(proc)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         units)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)


class TracedRunTest(unittest.TestCase):
    def check_traced(self, workload):
        proc = run("--workload", workload, "--seed", "5", "--seconds", "4",
                   "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = result_of(proc)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         units)
        # ROADMAP aim 1: the layers account for the job's wall time.
        self.assertGreaterEqual(
            result["metrics"]["trace.self_coverage"]["value"], 0.9)
        spans = OUT / "results" / f"{workload}.seed5.trace1.spans.jsonl"
        names = {json.loads(line)["name"]
                 for line in spans.read_text().splitlines()}
        self.assertTrue({"job", "relation.csv_read", "relation.encode",
                         "core.discover", "report.to_json",
                         "engine.spawn", "incremental.apply"} <= names)

    def test_discover_checks_layers_cover_job_time(self):
        self.check_traced("discover-checks")

    def test_discover_ingest_layers_cover_job_time(self):
        self.check_traced("discover-ingest")


class IsolationTest(unittest.TestCase):
    def test_fails_without_program_sources(self):
        lone = OUT / "lone-checkout"
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", lone / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", lone / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "discover-checks", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=lone, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
