#!/usr/bin/env python3
"""Build and run the libpds benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The driver (perfbench/driver, a CMake package
of its own that compiles the library from ../src) is built into
.bench_build/perfbench on first use and rebuilt incrementally after. The
driver's standard output passes through: its last line is the result
object, whose metric names and units must match BENCHMARK.json. Build logs
and diagnostics go to standard error. The exit code is non-zero when the
sources are missing, the build fails, an answer is wrong, or the result
does not match BENCHMARK.json.
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
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
MAX_THREADS = 4
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(why):
    print(f"perfbench: {why}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    if not (ROOT / ".git").exists():
        return None  # not a clone: do not report an enclosing repository
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256():
    """Content hash of the benchmarked sources: provenance without git."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def build(jobs):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources under src/; run from a full checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "pdsbench",
                  "-j", str(jobs)])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step failed: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD_DIR / "pdsbench"


def check_result(line, trace):
    """The result line must carry exactly BENCHMARK.json's metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"extra {extra}, or units differ")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys differ from the contract")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    jobs = max(1, min(os.cpu_count() or 1, MAX_THREADS))
    binary = build(jobs)
    commit = git("rev-parse", "HEAD") or "unknown"
    status = git("status", "--porcelain")
    dirty = "unknown" if status is None else ("1" if status else "0")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit, "--dirty", dirty,
           "--source-sha256", source_sha256()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"pdsbench did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        sys.exit(done.returncode)
    lines = done.stdout.strip().splitlines()
    try:
        check_result(lines[-1] if lines else "", args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
