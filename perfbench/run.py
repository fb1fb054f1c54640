#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 20 --trace 0

Cargo's build output goes to stderr; the benchmark's report goes to stdout,
ending with the one-line JSON result. The build lands in $CARGO_TARGET_DIR
(default: .bench_build at the repository root). A traced run (--trace 1)
writes its spans to <target dir>/perfbench-traces/<workload>-seed<seed>.jsonl.
See perfbench/README.md for the workloads and metrics.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def feature_args():
    """Enables the library's `parallel` feature while the repository declares
    it: the threaded paths the pinned thread grant exercises are compiled only
    with it. Once the threaded paths are unconditional the flag is dropped and
    the same benchmark builds unchanged."""
    try:
        with open(os.path.join(ROOT, "Cargo.toml"), encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError:
        return []
    section = None
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped
        elif section == "[features]" and stripped.split("=")[0].strip() == "parallel":
            return ["--features", "distributed-clique-listing/parallel"]
    return []


def git_rev():
    """The checkout's git revision, or the CLIQUELIST_GIT_REV override, or
    "unknown" outside a git repository."""
    if os.environ.get("CLIQUELIST_GIT_REV"):
        return os.environ["CLIQUELIST_GIT_REV"]
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run(cmd, env):
    """Runs `cmd` to completion, forwarding SIGTERM/SIGINT to it and waiting
    for it to end before returning its exit code."""
    child = subprocess.Popen(cmd, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    previous = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        for s, handler in previous.items():
            signal.signal(s, handler)


def flag_value(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ] + feature_args()
    # Cargo reports on stderr; stdout is kept for the benchmark's report.
    if run(build, env) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(target, "release", "perfbench")] + args + ["--git-rev", git_rev()]
    if flag_value(args, "--trace") == "1":
        name = "{}-seed{}.jsonl".format(flag_value(args, "--workload"), flag_value(args, "--seed"))
        cmd += ["--trace-out", os.path.join(target, "perfbench-traces", name)]
    return run(cmd, env)


if __name__ == "__main__":
    sys.exit(main())
