#!/usr/bin/env python3
"""The benchmark's own tests, run outside the timed runs:

    python3 perfbench/test_perfbench.py

Every workload runs at --scale quick (small inputs, about a second each).
The tests check the output contract (every metric of BENCHMARK.json, with
its unit), that a seed replays identical simulated outputs, that another
seed changes the generated inputs, that matrix_sharded at 2 engine workers
simulates exactly what it does at 1, that the host-time ratios are the host
seconds over the reference kernel's, and that bad invocations are refused.
"""
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
WORKLOADS = ("paper_ttcp", "matrix_sharded", "conn_churn")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed=1, trace=0, *extra, cwd=ROOT, script=None):
    cmd = [sys.executable, str(script)] if script else list(RUN)
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--scale", "quick", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=600, check=False)


def parse(proc):
    """(contract line, full report) of a finished run."""
    lines = proc.stdout.strip().split("\n")
    report = next(json.loads(l[len("report: "):]) for l in lines
                  if l.startswith("report: "))
    return json.loads(lines[-1]), report


def simulated(report):
    """Everything a run simulated: its outputs and its sim_* metrics."""
    sims = {k: v["value"] for k, v in report["metrics"].items()
            if k.startswith("sim_")}
    return report["info"]["sim_outputs"], sims


class OutputContract(unittest.TestCase):
    def test_every_metric_present_with_unit(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    p = run(workload, trace=trace)
                    self.assertEqual(p.returncode, 0, p.stdout[-2000:] + p.stderr[-2000:])
                    last, _ = parse(p)
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(last["correct"], True)
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.assertEqual(last["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    self.assertEqual(set(last["metrics"]), set(want))
                    for name, m in last["metrics"].items():
                        self.assertEqual(set(m), {"value", "unit"})
                        self.assertEqual(m["unit"], want[name], name)
                        self.assertIsInstance(m["value"], (int, float), name)
                        if section == "end_to_end":
                            self.assertGreater(m["value"], 0, name)


class Determinism(unittest.TestCase):
    def test_same_seed_same_simulation(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, a = parse(run(workload, seed=7))
                _, b = parse(run(workload, seed=7))
                self.assertEqual(simulated(a), simulated(b))

    def test_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, a = parse(run(workload, seed=7))
                _, b = parse(run(workload, seed=8))
                self.assertNotEqual(a["info"]["sim_outputs"], b["info"]["sim_outputs"])

    def test_matrix_two_workers_match_one(self):
        _, one = parse(run("matrix_sharded", 5, 0, "--workers", "1"))
        _, two = parse(run("matrix_sharded", 5, 0, "--workers", "2"))
        self.assertEqual(simulated(one), simulated(two))


class ReferenceKernel(unittest.TestCase):
    def test_ratios_are_host_time_over_kernel_time(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, report = parse(run(workload))
                m = {k: v["value"] for k, v in report["metrics"].items()}
                self.assertGreaterEqual(m["host.ref_runs"], 1)
                self.assertEqual(m["host.ref_runs"],
                                 len(report["info"]["reference_kernel_wall_s"]))
                self.assertAlmostEqual(m["wall_ref_ratio"],
                                       m["wall_s"] / m["host.ref_wall_s"])
                self.assertAlmostEqual(m["cpu_ref_ratio"],
                                       m["cpu_s"] / m["host.ref_cpu_s"])


class Invocation(unittest.TestCase):
    def test_unknown_flag_rejected(self):
        p = subprocess.run(RUN + ["--workload", "paper_ttcp", "--seed", "1",
                                  "--seconds", "1", "--trace", "0", "--quick"],
                           capture_output=True, text=True, cwd=ROOT, check=False)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")

    def test_binary_rejects_unknown_flag(self):
        binary = ROOT / ".bench_build" / "perfbench" / "nectar_perfbench"
        run("paper_ttcp")  # make sure it is built
        p = subprocess.run([str(binary), "--workload", "paper_ttcp", "--seed", "1",
                            "--seconds", "1", "--trace", "0", "--bogus", "1"],
                           capture_output=True, text=True, check=False)
        self.assertEqual(p.returncode, 2)
        self.assertEqual(p.stdout, "")

    def test_fails_without_library_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark.
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            p = run("paper_ttcp", cwd=bare, script=bare / "perfbench" / "run.py")
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
