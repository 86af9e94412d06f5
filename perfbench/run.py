#!/usr/bin/env python3
"""Build and run one workload of the zkVC benchmark.

    python3 perfbench/run.py --workload prove-g --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds `zkvc-perfbench` and the `zkvc` binary
in release mode (into $CARGO_TARGET_DIR, default `.bench_build`), runs the
workload in a fresh process with a private cache directory, checks its
result line against BENCHMARK.json and prints that line last. Exits
non-zero when the build fails, a proof does not verify, or the result
line is malformed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = "perfbench"
RUN_TIMEOUT_S = 170
# Runnable but not listed in BENCHMARK.json: its small-request latencies
# swing past any allowed bound on a noisy 2-core host (see README.md).
UNLISTED_WORKLOADS = ["serve-mix"]
# Trees whose contents identify the code under test.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "src", BENCH_DIR]


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build(target_dir):
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    base = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    for extra in (["-p", "zkvc-perfbench"], ["-p", "zkvc-runtime", "--bin", "zkvc"]):
        env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
        done = subprocess.run(base + extra, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"run.py: build failed: {' '.join(base + extra)}")


def source_digest():
    """SHA-256 over every tracked-looking source file (paths and bytes)."""
    h = hashlib.sha256()
    for root in SOURCE_ROOTS:
        paths = [root] if os.path.isfile(root) else []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_build"))
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for path in paths:
            if path.endswith((".rs", ".toml", ".lock", ".py", ".md")):
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        return out.stdout.strip() or "none"
    except OSError:
        return "none"


def check_result(line, bench, trace):
    """The result line has exactly the keys and the metrics BENCHMARK.json declares."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        raise ValueError("failed must be a whole number")
    declared = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise ValueError(f"{name} is not a number")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]] + UNLISTED_WORKLOADS
    if args.workload not in names:
        raise SystemExit(f"run.py: unknown workload {args.workload!r} (have {names})")

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(target_dir)
    release = os.path.join(target_dir, "release")
    run_dir = os.path.join(target_dir, "perfbench", f"run-{os.getpid()}")
    os.makedirs(os.path.join(run_dir, "xdg"), exist_ok=True)
    env = dict(os.environ, XDG_CACHE_HOME=os.path.join(run_dir, "xdg"))
    for var in ("ZKVC_TUNE", "ZKVC_KEY_CACHE"):
        env.pop(var, None)
    cmd = [
        os.path.join(release, "zkvc-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--zkvc-bin", os.path.join(release, "zkvc"),
        "--run-dir", run_dir,
        "--git-commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    # Own process group, so a timeout also takes down the serve child.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"run.py: {args.workload} failed (exit {proc.returncode})")
    try:
        result = check_result(lines[-1], bench, args.trace)
    except (ValueError, KeyError, TypeError) as e:
        raise SystemExit(f"run.py: bad result line: {e}")
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
