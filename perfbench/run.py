#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/perfbench.exe from
source with dune, runs it with the same arguments plus provenance (git
revision when there is one, a digest of the sources, the host's CPU
count), and passes its output through: human-readable metric lines, then
one JSON object as the last line. Results and traces are appended under
perfbench/out/. The exit code is the benchmark's; it is non-zero when a
check fails or the sources are missing.

Workloads: loadstore, sets, serve, instrumented (see perfbench.ml).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
SOURCE_DIRS = ("lib", "perfbench")
RUN_TIMEOUT_S = 170


def source_digest():
    """MD5 over the library and benchmark sources, in path order."""
    h = hashlib.md5()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(
                f"run.py: {needed} not found under {ROOT}; run from a full "
                "checkout of the repository",
                file=sys.stderr,
            )
            return 3

    # Build output goes to stderr: the last line of stdout is the result.
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./perfbench/perfbench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", os.path.join(ROOT, "perfbench", "out"),
        "--rev", git_rev(),
        "--src-digest", source_digest(),
        "--nproc", str(os.cpu_count() or 0),
    ]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
