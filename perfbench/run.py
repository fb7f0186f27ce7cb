#!/usr/bin/env python3
"""Builds the benchmark binary and runs one workload in an isolated process.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
                             [--smoke] [--expect-wrong]

Run from anywhere inside a checkout of the repository.  The binary is built
with cargo (offline, release) into $CARGO_TARGET_DIR (default `.bench_build`).
Each workload runs in its own process with its own TMPDIR and scratch
directory under `.bench_run/`, both deleted afterwards; a file left behind
in TMPDIR (a leaked spill file) counts as a failed op.  The last line of
standard output is the result object of the workload; with `--workload all`
every workload runs in turn and a table of every metric is printed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

WORKLOADS = ["search-par", "search-spill", "gather-live", "sweep-service"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"


def build():
    """Builds the benchmark; returns the binary path or None on failure."""
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    binary = target / "release" / "perfbench"
    if done.returncode != 0 or not binary.is_file():
        print("perfbench: build failed", file=sys.stderr)
        return None
    return binary


def output_of(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def provenance(workload, seed):
    digest = hashlib.sha256()
    for pattern in ("crates/**/*.rs", "crates/**/Cargo.toml", "Cargo.toml", "perfbench/src/*.rs"):
        for path in sorted(ROOT.glob(pattern)):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": output_of(["rustc", "--version"]),
        "commit": output_of(["git", "rev-parse", "HEAD"]) or "unknown",
        "source_sha256": digest.hexdigest(),
    }


def leftovers(tmp):
    return sorted(str(p.relative_to(tmp)) for p in tmp.rglob("*") if not p.is_dir())


def run_workload(binary, args, workload):
    """Runs one workload; returns (stdout lines, result dict or None, exit ok)."""
    run_dir = ROOT / ".bench_run" / f"{workload}-{os.getpid()}"
    tmp = run_dir / "tmp"
    shutil.rmtree(run_dir, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [
        str(binary),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(run_dir / "work"),
    ]
    if args.trace:
        cmd += ["--trace-out", str(ROOT / ".bench_run" / f"trace-{workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.expect_wrong:
        cmd.append("--expect-wrong")
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        lines, ok = done.stdout.splitlines(), done.returncode == 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        lines, ok = [], False
    left = leftovers(tmp)
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return lines, None, False
    if left:
        lines.insert(-1, f"# FAILED: files left in TMPDIR: {', '.join(left[:5])}")
        result["attempted"] += 1
        result["failed"] += 1
        result["correct"] = False
    ok = ok and result["correct"]
    lines.insert(-1, "# provenance " + json.dumps(provenance(workload, args.seed), sort_keys=True))
    lines[-1] = json.dumps(result)
    return lines, result, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--expect-wrong", action="store_true", help="perturb the stored expected values")
    args = parser.parse_args()

    if not MANIFEST.is_file() or not (ROOT / "crates").is_dir():
        print("perfbench: not inside a checkout of the repository", file=sys.stderr)
        return 1
    binary = build()
    if binary is None:
        return 1

    if args.workload != "all":
        lines, result, ok = run_workload(binary, args, args.workload)
        print("\n".join(lines))
        return 0 if ok and result is not None else 1

    results, all_ok = {}, True
    for workload in WORKLOADS:
        started = time.monotonic()
        lines, result, ok = run_workload(binary, args, workload)
        all_ok = all_ok and ok and result is not None
        print("\n".join(line for line in lines[:-1] if line.startswith("#")))
        print(f"# {workload}: {time.monotonic() - started:.1f} s")
        results[workload] = result
    print(f"\n{'workload':<14} {'metric':<30} {'value':>16} unit")
    for workload, result in results.items():
        if result is None:
            print(f"{workload:<14} (no result)")
            continue
        frac = result["failed"] / max(result["attempted"], 1)
        print(f"{workload:<14} {'failed_frac':<30} {frac:>16.6g} ({result['failed']} of {result['attempted']} ops)")
        for name, metric in result["metrics"].items():
            print(f"{workload:<14} {name:<30} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(results))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
