#!/usr/bin/env python3
"""Run one nectar benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call builds the library and the
benchmark from this checkout's sources into .bench_build/perfbench (CMake,
RelWithDebInfo); later calls rebuild incrementally. The workload then runs
in a process of its own, so its set-up time and peak RSS never include an
earlier workload's heap or warm caches.

Standard output carries the workload's human-readable summary, the full
report (environment, sample counts, simulated outputs, span host times),
and, as its last line, one JSON object with exactly the keys "correct",
"attempted", "failed" and "metrics". With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 its per-layer metrics.
The exit status is 0 only if every correctness check passed.

Extra flags for the benchmark's own tests: --scale quick (small inputs) and
--workers 1 (matrix_sharded engine threads). Unknown flags are rejected.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "nectar_perfbench"
WORKLOADS = ("paper_ttcp", "matrix_sharded", "conn_churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--scale", default="full", choices=("full", "quick"))
    p.add_argument("--workers", default=2, type=int, choices=(1, 2))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"{spec_path} not found")
    return json.loads(spec_path.read_text())


def build():
    """Configure (once) and build the benchmark; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no library sources (src/CMakeLists.txt) in this checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the toolchain's scratch files inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "nectar_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                               timeout=BUILD_TIMEOUT_S, check=False)
        except FileNotFoundError:
            die(f"{cmd[0]} not found")
        except subprocess.TimeoutExpired:
            die(f"build step timed out: {' '.join(cmd)}")
        if r.returncode != 0:
            die(f"build step failed ({r.returncode}): {' '.join(cmd)}")


def provenance():
    """Which sources produced this result: git sha when available, and a
    hash of the library and benchmark sources either way."""
    sha = None
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                            "HEAD"],
                           capture_output=True, text=True, timeout=10, check=False)
        top, _, head = r.stdout.strip().partition("\n")
        # Only this checkout's own repository, not one it happens to sit in.
        if r.returncode == 0 and Path(top).resolve() == ROOT:
            sha = head
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for f in sorted(top.rglob("*")):
            if f.is_file() and f.suffix in (".h", ".cc", ".txt", ".py"):
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return {"git_sha": sha, "source_sha256": h.hexdigest()}


def main(argv):
    args = parse_args(argv)
    spec = load_spec()
    build()

    out_dir = ROOT / ".bench_build" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--workers", str(args.workers)]
    if args.trace:
        cmd += ["--trace-out", str(out_dir / f"{args.workload}.spans.jsonl")]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die(f"workload did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(r.stdout)
        die(f"workload printed no report (exit {r.returncode})", 1)

    report["info"]["env"].update(provenance())
    errors = list(report["errors"])
    want = [m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for name in want:
        m = report["metrics"].get(name)
        if m is None:
            errors.append(f"metric {name} not reported")
        elif m["unit"] != units[name]:
            errors.append(f"metric {name} has unit {m['unit']}, expected {units[name]}")
        else:
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
    correct = bool(report["correct"]) and not errors and r.returncode == 0
    report["errors"] = errors
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    for e in errors:
        print(f"ERROR: {e}")
    print("report: " + json.dumps(report, separators=(",", ":")))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics},
                     separators=(",", ":")))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
