#!/usr/bin/env python3
"""Performance gate: this checkout against a base revision, on perfbench.

    python3 tools/perf_gate.py BASE_REV

Checks BASE_REV out into a temporary git worktree outside the tree and,
for every workload in BENCHMARK.json, runs PAIRS alternating base/change
pairs of

    python3 perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0

with seed S = pair number (1..PAIRS) on both sides. Each run's last
stdout line is its JSON result. The gate fails when

- an end_to_end metric's median over the change's runs is worse than
  the base median by more than that metric's bound (in its `better`
  direction), or the metric is missing from a run of either side;
- any run is not `correct`;
- the share of failed operations (failed / attempted, summed over a
  side's runs) rose.

It prints one table per workload and exits 1 on any failure, 2 on a
usage or checkout error.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 5
SECONDS = 5


def run_once(tree, workload, seed):
    """One perfbench run in `tree`; its JSON result, or a failed stand-in."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-2000:])
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    if proc.returncode != 0:
        result["correct"] = False
    return result


def failed_share(runs):
    attempted = sum(r.get("attempted", 0) for r in runs)
    return sum(r.get("failed", 0) for r in runs) / attempted if attempted else 0.0


def worsening(metric, base, change):
    """How much worse `change` is than `base`, as a fraction of `base`."""
    delta = (change - base) if metric["better"] == "lower" else (base - change)
    if base == 0:
        return 0.0 if delta == 0 else float("inf") * delta
    return delta / abs(base)


def compare(end_to_end, base_runs, change_runs):
    """The verdict on one workload: (table lines, failure messages)."""
    rows = [f"  {'metric':<20} {'base':>14} {'change':>14} {'worse':>8} "
            f"{'bound':>6}  verdict"]
    failures = []
    for metric in end_to_end:
        name = metric["name"]
        sides = [[r.get("metrics", {}).get(name, {}).get("value")
                  for r in runs] for runs in (base_runs, change_runs)]
        if any(v is None for side in sides for v in side):
            rows.append(f"  {name:<20} {'missing':>14}")
            failures.append(f"{name}: missing from a run")
            continue
        base, change = (statistics.median(side) for side in sides)
        worse = worsening(metric, base, change)
        ok = worse <= metric["bound"]
        rows.append(f"  {name:<20} {base:>14.6g} {change:>14.6g} "
                    f"{100 * worse:>+7.1f}% {100 * metric['bound']:>5.0f}%  "
                    f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{name}: {100 * worse:+.1f}% worse, bound "
                            f"{100 * metric['bound']:.0f}%")
    for label, runs in (("base", base_runs), ("change", change_runs)):
        bad = sum(1 for r in runs if not r.get("correct"))
        if bad:
            failures.append(f"{label}: {bad} of {len(runs)} runs not correct")
    base_share, change_share = failed_share(base_runs), failed_share(change_runs)
    rows.append(f"  failed share: base {base_share:.6f}, change {change_share:.6f}")
    if change_share > base_share:
        failures.append("failed share rose")
    return rows, failures


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/perf_gate.py BASE_REV", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    tmp = tempfile.mkdtemp(prefix="perf-gate-")
    base_tree = os.path.join(tmp, "base")
    add = subprocess.run(["git", "worktree", "add", "--detach", base_tree,
                          argv[1]], cwd=ROOT)
    if add.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        return 2
    failed = False
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {"base": [], "change": []}
            for seed in range(1, PAIRS + 1):
                order = ("base", "change") if seed % 2 else ("change", "base")
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    runs[side].append(run_once(tree, workload, seed))
            rows, failures = compare(bench["end_to_end"], runs["base"],
                                     runs["change"])
            print(f"{workload}: {PAIRS} pairs, {SECONDS} s runs, medians")
            print("\n".join(rows))
            for msg in failures:
                print(f"  FAIL {workload}: {msg}")
            failed = failed or bool(failures)
            sys.stdout.flush()
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree],
                       cwd=ROOT)
        shutil.rmtree(tmp, ignore_errors=True)
    print("perf gate:", "FAIL" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
