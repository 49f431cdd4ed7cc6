#!/usr/bin/env python3
"""Layer-ladder benchmark entry point.

    python3 perfladder/run.py --workload news20-inmem --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfladder/ (Release) into
.bench_build/perfladder on first use, runs the `ladder` driver, and passes its
output through: the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. Full results (host
fingerprint, failed share, layer mapping) and traces land in
.bench_build/perfladder/results/. Exits non-zero when the build, the run or a
correctness check fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    cmds = [["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfladder: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfladder")
    build_dir = os.path.abspath(os.path.join(root, "build"))
    build(build_dir)
    cmd = [
        os.path.join(build_dir, "ladder"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", os.path.abspath(os.path.join(root, "results")),
    ]
    # Its own session, so a timeout also stops the process group it forks.
    with subprocess.Popen(cmd, start_new_session=True) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            sys.exit("perfladder: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
