#!/usr/bin/env python3
"""Build and run the selfstab benchmark.

    python3 perfbench/run.py [--workload cold|churn|sparse|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the repository root (any directory works; the script changes to
the root). It builds `perfbench/` (its own Cargo workspace) and the shipped
`selfstab-cli` daemon in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), prints a header (nproc, CPU model, rustc, commit), then
runs the benchmark binary. With one workload, the binary's last stdout
line is the JSON result. With `--workload all` (the default) every
workload runs untraced and then traced, and the output ends with the
operations attempted and failed per workload.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["cold", "churn", "sparse"]


def sh(cmd):
    """Output of a command, or None if it cannot run."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def header():
    nproc = len(os.sched_getaffinity(0))
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = sh(["rustc", "--version"]) or "unknown"
    # Only a repository rooted here counts: a checkout nested in some
    # other repository must not report that repository's commit.
    top = sh(["git", "-C", ROOT, "rev-parse", "--show-toplevel"])
    commit = top and os.path.realpath(top) == os.path.realpath(ROOT) and sh(
        ["git", "-C", ROOT, "rev-parse", "HEAD"])
    commit = commit or "unknown (not a git checkout)"
    print(f"# nproc={nproc} cpu={cpu!r} rustc={rustc!r} commit={commit}", flush=True)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "Cargo.toml",
         "-p", "selfstab-cli", "--bin", "selfstab-cli"],
    ]
    for cmd in steps:
        # Build logs go to stderr: stdout carries only the benchmark's report.
        if subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def run_one(binary, cli, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--cli", cli,
           "--workdir", os.path.join(".bench_build", f"perfbench-run-{os.getpid()}")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    ops = [l for l in proc.stdout.splitlines() if l.startswith("ops: ")]
    return proc.returncode, (ops[-1] if ops else f"ops: workload={workload} (no result)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    os.chdir(ROOT)
    header()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    binary = os.path.join(target, "release", "selfstab-perfbench")
    cli = os.path.join(target, "release", "selfstab-cli")

    if args.workload != "all":
        code, _ = run_one(binary, cli, args.workload, args.seed, args.seconds, args.trace)
        sys.exit(code)

    # The checkers' self-tests: each must reject a hand-built wrong output.
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    tests = subprocess.run(["cargo", "test", "--release", "--offline", "--manifest-path",
                            "perfbench/Cargo.toml"], env=env, capture_output=True, text=True)
    print("## checker self-tests:", "passed" if tests.returncode == 0 else "FAILED", flush=True)
    if tests.returncode != 0:
        sys.stdout.write(tests.stdout)
    summary, worst = [], tests.returncode
    for trace in (0, 1):
        for w in WORKLOADS:
            print(f"## {w} ({'traced' if trace else 'untraced'})", flush=True)
            code, ops = run_one(binary, cli, w, args.seed, args.seconds, trace)
            summary.append(f"{ops} trace={trace}")
            worst = max(worst, code)
    print("## operations")
    print("\n".join(summary))
    sys.exit(worst)


if __name__ == "__main__":
    main()
