#!/usr/bin/env python3
"""Builds and runs the MPIWasm benchmark for one workload.

    python3 perfbench/run.py --workload hpcg|npb_is|startup \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (the
library from src/ plus the driver) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the driver, and prints the driver's
output with one JSON result line last. Before printing, it checks that the
metric names match BENCHMARK.json and that every exact count repeats the
value an earlier run of the same sources recorded.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources the benchmark builds, for the record."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configures and builds the driver; returns its path or None."""
    steps = [["cmake", "--build", str(build_dir), "-j", "4"]]
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            return None
    return build_dir / "mpiwasm_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["hpcg", "npb_is", "startup"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "embedder" / "embedder.h").is_file():
        sys.stderr.write("run.py: MPIWasm sources (src/) not found\n")
        return 1
    if not spec_path.is_file():
        sys.stderr.write("run.py: BENCHMARK.json not found\n")
        return 1
    spec = json.loads(spec_path.read_text())

    out_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = out_root / "perfbench"
    exe = build(build_dir)
    if exe is None:
        sys.stderr.write("run.py: build failed\n")
        return 1

    scratch = build_dir / f"scratch-{os.getpid()}"
    spans = out_root / f"perfbench-spans-{args.workload}.json"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch), "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark timed out\n")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(f"run.py: driver exited with {proc.returncode}\n")
        return proc.returncode or 1
    result = json.loads(lines[-1])

    # Self-check 1: the metric names are exactly those BENCHMARK.json lists.
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"] for m in spec[section]}
    got = set(result["metrics"])
    if got != expected:
        result["correct"] = False
        print(f"# FAIL metric names differ from BENCHMARK.json: "
              f"missing {sorted(expected - got)}, extra {sorted(got - expected)}")

    # Self-check 2: exact counts repeat across runs of the same sources.
    counts = {}
    for line in lines:
        if line.startswith("# count "):
            name, value = line[len("# count "):].split(" = ")
            counts[name] = float(value)
    digest = source_digest()
    record = out_root / "perfbench-counts.json"
    seen = json.loads(record.read_text()) if record.is_file() else {}
    previous = seen.setdefault(digest, {}).setdefault(
        f"{args.workload}/trace{args.trace}", {})
    for name, value in counts.items():
        if name in previous and previous[name] != value:
            result["correct"] = False
            print(f"# FAIL count {name} = {value}, an earlier run had "
                  f"{previous[name]}")
        previous.setdefault(name, value)
    record.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")

    print(f"# commit: {git_commit()} source_sha256: {digest}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
