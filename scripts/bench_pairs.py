"""Alternating benchmark pairs: a parent checkout against a change.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--trace 0|1] [--seed S]

Runs ``perfbench/run.py --workload W --seed S --seconds 20 --trace T``
(seed 301 unless given) in PARENT_DIR and in CHANGE_DIR, N pairs,
alternating which side goes first, one run at a time (a run owns its
Ray session; two at once would measure each other). Each run prints one
JSON line: side, pair, exit code, ``correct``, attempted, failed, the
run's metrics and, where the workload records them, the median seconds
of each op over the run's iterations (``op_seconds``).

The last line is a JSON summary. Per side: the exit codes and, for
every metric, the median and the quartiles ``[q1, median, q3]``. Per
metric: the change's median relative to the parent's and, for every
metric that CHANGE_DIR's ``BENCHMARK.json`` gives a ``better``
direction, the pairs the change won (ties count for neither) and
whether the gain rule holds: the change won at least nine tenths of
the pairs and its median beats the parent's by more than the parent's
interquartile range.

Exit code 0 only if every run exited 0; exit code 2, before any further
run, when a ``raylet`` from another Ray session is alive.
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
#: share of the pairs the change must win for a gain
WIN_SHARE = 0.9


def run_once(checkout: str, workload: str, trace: int, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its exit code plus
    the result line it printed last (empty metrics if it printed none),
    and the per-op median seconds from the run's detail record."""
    last = os.path.join(checkout, ".perfbench", f"last-{workload}-trace{trace}.json")
    if os.path.exists(last):
        os.remove(last)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
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
    if os.path.exists(last):
        with open(last, encoding="utf-8") as fh:
            per_iter = json.load(fh).get("detail", {}).get("op_seconds", [])
        if per_iter:
            result["op_seconds"] = {
                op: statistics.median(it[op] for it in per_iter) for op in per_iter[0]
            }
    return {"exit": proc.returncode, **result}


def values(runs: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def quartiles(xs: list[float]) -> list[float]:
    """``[q1, median, q3]`` of ``xs`` (inclusive method; one value is
    its own quartiles)."""
    if len(xs) < 2:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def directions(change_dir: str) -> dict[str, str]:
    """Metric name → ``"lower"`` / ``"higher"``, from BENCHMARK.json."""
    with open(os.path.join(change_dir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def gain(parent: list[dict], change: list[dict], name: str, better: str) -> dict:
    """The change's pair wins on ``name`` and whether the gain rule holds."""
    sign = 1.0 if better == "higher" else -1.0
    wins = 0
    for p, c in zip(parent, change):
        if name in p["metrics"] and name in c["metrics"]:
            wins += sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
    pq, cq = quartiles(values(parent, name)), quartiles(values(change, name))
    pairs = len(parent)
    return {
        "wins": wins,
        "pairs": pairs,
        "holds": wins >= WIN_SHARE * pairs and sign * (cq[1] - pq[1]) > pq[2] - pq[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=SEED)
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
            run = run_once(sides[side], a.workload, a.trace, a.seed)
            runs[side].append(run)
            print(json.dumps({"side": side, "pair": pair, **run}), flush=True)
    names = sorted({k for rs in runs.values() for r in rs for k in r["metrics"]})
    quart = {
        side: {k: quartiles(values(rs, k)) for k in names if values(rs, k)}
        for side, rs in runs.items()
    }
    med = {side: {k: q[1] for k, q in qs.items()} for side, qs in quart.items()}
    rel = {
        k: med["change"][k] / v - 1.0
        for k, v in med["parent"].items()
        if k in med["change"] and v
    }
    better = directions(sides["change"])
    ops = sorted({op for rs in runs.values() for r in rs for op in r.get("op_seconds", {})})
    print(json.dumps({
        "workload": a.workload,
        "trace": a.trace,
        "seed": a.seed,
        "pairs": a.pairs,
        "exit_codes": {side: [r["exit"] for r in rs] for side, rs in runs.items()},
        "all_correct": all(r.get("correct") for rs in runs.values() for r in rs),
        "median": med,
        "quartiles": quart,
        "change_vs_parent": rel,
        "gain": {
            k: gain(runs["parent"], runs["change"], k, better[k])
            for k in names
            if k in better and k in med["parent"] and k in med["change"]
        },
        "op_seconds_median": {
            side: {
                op: statistics.median(r["op_seconds"][op] for r in rs if op in r.get("op_seconds", {}))
                for op in ops
                if any(op in r.get("op_seconds", {}) for r in rs)
            }
            for side, rs in runs.items()
        },
    }))
    return 0 if all(r["exit"] == 0 for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
