"""Alternating benchmark pairs: a parent checkout against a change.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--trace 0|1]

Runs ``perfbench/run.py --workload W --seed 301 --seconds 20 --trace T``
in PARENT_DIR and in CHANGE_DIR, N pairs, alternating which side goes
first, one run at a time (a run owns its Ray session; two at once would
measure each other). Each run prints one JSON line: side, pair, exit
code, ``correct``, attempted, failed and the run's metrics. The last
line is a JSON summary: per side, the exit codes and the median of every
metric; per metric, the change's median relative to the parent's. Exit
code 0 only if every run exited 0; exit code 2, before any further run,
when a ``raylet`` from another Ray session is alive.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from check_oracles import refuse_beside_live_ray

SEED = 301
SECONDS = 20


def run_once(checkout: str, workload: str, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its exit code plus
    the result line it printed last (empty metrics if it printed none)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=checkout,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}
    return {"exit": proc.returncode, **result}


def medians(runs: list[dict]) -> dict[str, float]:
    """Per metric, the median of its ``value`` over the runs that have it."""
    names = sorted({k for r in runs for k in r["metrics"]})
    return {
        k: statistics.median(r["metrics"][k]["value"] for r in runs if k in r["metrics"])
        for k in names
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = parser.parse_args()
    sides = {"parent": os.path.abspath(a.parent_dir), "change": os.path.abspath(a.change_dir)}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for pair in range(a.pairs):
        # alternate which side goes first, so drift over the session
        # does not favour one side
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for side in order:
            if refuse_beside_live_ray("bench_pairs"):
                return 2
            run = run_once(sides[side], a.workload, a.trace)
            runs[side].append(run)
            print(json.dumps({"side": side, "pair": pair, **run}), flush=True)
    med = {side: medians(rs) for side, rs in runs.items()}
    rel = {
        k: med["change"][k] / v - 1.0
        for k, v in med["parent"].items()
        if k in med["change"] and v
    }
    print(json.dumps({
        "workload": a.workload,
        "trace": a.trace,
        "pairs": a.pairs,
        "exit_codes": {side: [r["exit"] for r in rs] for side, rs in runs.items()},
        "all_correct": all(r.get("correct") for rs in runs.values() for r in rs),
        "median": med,
        "change_vs_parent": rel,
    }))
    return 0 if all(r["exit"] == 0 for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
