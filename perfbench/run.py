#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the simulator's libraries from ../src) into the
directory named by CARGO_TARGET_DIR, default .bench_build; later calls only
rebuild what changed. The benchmark binary prints a human-readable summary
and, as its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics. Reports, output tables and the Chrome trace
of a traced run land in <build dir>/out/.

--self-test runs one workload twice back to back and requires identical
model outputs with no failures, then runs it against a deliberately
perturbed record (a copy of the seed-1 records in the build directory
with one cycles field bumped) and requires failures.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ("event-step", "cycle-sweep", "model-sweep", "stream")
SELF_TEST_WORKLOAD = "event-step"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then build the benchmark target; returns the binary."""
    for need in ("CMakeLists.txt", "src/exec/run.hpp"):
        if not (ROOT / need).is_file():
            fail(f"simulator sources not found ({need} is missing)")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                   stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if r.returncode != 0:
                fail(f"build failed: {' '.join(cmd)}")
    exe = out / "perfbench"
    if not exe.is_file():
        fail("build produced no perfbench binary")
    (out / "out").mkdir(exist_ok=True)
    return exe


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the simulator and benchmark sources."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH):
        files += [p for p in top.rglob("*") if p.is_file()
                  and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_bench(exe, workload, seed, seconds, trace, expected=BENCH / "expected",
              capture=False):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(build_dir() / "out"),
           "--expected-dir", str(expected),
           "--commit", commit(), "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=capture)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run timed out after {RUN_TIMEOUT_S} s")


def perturbed_records():
    """A copy of the self-test workload's seed-1 records with the first
    request's cycles bumped by one; returns its directory."""
    name = f"{SELF_TEST_WORKLOAD}.seed1.tsv"
    lines = (BENCH / "expected" / name).read_text().splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    fields = lines[i].split("\t")
    fields[1] = str(int(fields[1]) + 1)
    lines[i] = "\t".join(fields)
    out = build_dir() / "self-test-expected"
    out.mkdir(exist_ok=True)
    (out / name).write_text("".join(lines))
    return out


def self_test(exe):
    """Back-to-back runs agree exactly; a perturbed record is caught."""
    results, outputs = [], []
    table = build_dir() / "out" / f"{SELF_TEST_WORKLOAD}-seed1-trace0.outputs.tsv"
    for expected in (BENCH / "expected", BENCH / "expected",
                     perturbed_records()):
        r = run_bench(exe, SELF_TEST_WORKLOAD, 1, 1, 0, expected,
                      capture=True)
        if r.returncode != 0:
            print(r.stdout + r.stderr, file=sys.stderr)
            fail("self-test: benchmark exited with an error")
        results.append(json.loads(r.stdout.strip().splitlines()[-1]))
        outputs.append(table.read_text())
    checks = [
        ("first run correct", results[0]["correct"] and
         results[0]["failed"] == 0),
        ("second run correct", results[1]["correct"] and
         results[1]["failed"] == 0),
        ("back-to-back outputs identical", outputs[0] == outputs[1]),
        ("sim_cycles identical", results[0]["metrics"]["sim_cycles"] ==
         results[1]["metrics"]["sim_cycles"]),
        ("perturbed record detected", not results[2]["correct"] and
         results[2]["failed"] > 0),
    ]
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(ok for _, ok in checks) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    exe = build()
    if args.self_test:
        return self_test(exe)
    sys.stdout.flush()
    r = run_bench(exe, args.workload, args.seed, args.seconds, args.trace)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
