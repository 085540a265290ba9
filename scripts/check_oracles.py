"""Local replica of the driver's correctness gate.

Runs every ``__ray_entry__.queries()`` entry and its ``oracle_sql()`` twin
side-by-side at a given sf (default 0.01) and compares row count, column
names, and order-insensitive values (columns sorted by name, rows sorted
by all columns). Exit code 0 iff everything matches.

Usage: python scripts/check_oracles.py [sf_dir] [query ...] [--json PATH]
       [--against RECORD]

``--json PATH`` writes one record per query: ``wall_s`` (the Ray side,
plan build through ``to_pandas``; the DuckDB oracle is not timed), Ray
``executions`` (calls of ``StreamingExecutor.execute``, which is what
every materialize, count or pull of a lazy plan runs), ``all_to_all``
(the all-to-all operators in the plans those calls ran), ``probes``
(those executions that are the ``limit(1)`` copy of a lazy plan Ray
runs to answer ``Dataset.schema()``), ``rows`` and ``match`` (``"match"``,
``"mismatch"`` or ``"rows-only"``).

``--against RECORD`` reads such a record (e.g. the committed
``scripts/oracle_runs_sf0.001.json``) and exits 1, naming the query,
when any query run makes more ``executions``, ``all_to_all`` or
``probes`` than the record holds for it: a plan that gained a barrier
or a schema probe fails the sweep even when its rows still match.

The sweep refuses to start (exit 2) while a ``raylet`` runs on the box:
two local Ray sessions alive at once crash each other.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
import warnings

import duckdb
import pandas as pd


def _to_pandas(result) -> pd.DataFrame:
    """A query's result as one frame. A Dataset's blocks are pulled in its
    one execution and concatenated as ``Dataset.to_pandas`` does, except
    that a rowless result keeps the columns of its first typed block:
    ``to_pandas`` skips rowless blocks and so returns no columns."""
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data._internal.pandas_block import PandasBlockBuilder
    from ray.data.block import BlockAccessor

    if isinstance(result, ray.data.Dataset):
        frames = [
            BlockAccessor.for_block(ray.get(ref)).to_pandas()
            for bundle in result.iter_internal_ref_bundles()
            for ref in bundle.block_refs
        ]
        if not any(len(f) for f in frames):
            return next((f for f in frames if len(f.columns)), pd.DataFrame())
        builder = PandasBlockBuilder()
        for f in frames:
            if len(f):
                builder.add_block(f)
        return BlockAccessor.for_block(builder.build()).to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def compare(name: str, got: pd.DataFrame, exp: pd.DataFrame) -> list[str]:
    problems = []
    if len(got) != len(exp):
        problems.append(f"row count: got {len(got)} expected {len(exp)}")
    if sorted(got.columns) != sorted(exp.columns):
        problems.append(f"columns: got {sorted(got.columns)} expected {sorted(exp.columns)}")
        return problems
    g, e = _canon(got), _canon(exp)
    if len(g) == len(e):
        for c in g.columns:
            gc, ec = g[c], e[c]
            try:
                same = gc.equals(ec) or (gc.astype(ec.dtype).equals(ec))
            except (TypeError, ValueError):
                same = list(gc) == list(ec)
            if not same:
                mism = [(i, gc.iloc[i], ec.iloc[i]) for i in range(len(g)) if gc.iloc[i] != ec.iloc[i]][:3]
                problems.append(f"column {c!r} values differ; first mismatches: {mism}")
    return problems


def rises_above(records: dict, record_path: str) -> list[str]:
    """One line per query of ``records`` whose ``executions``,
    ``all_to_all`` or ``probes`` is above the ``--json`` record at
    ``record_path`` (queries, or fields, the record lacks are not
    judged)."""
    with open(record_path) as f:
        recorded = json.load(f)["queries"]
    rises = []
    for name, rec in sorted(records.items()):
        for field in ("executions", "all_to_all", "probes"):
            was = recorded.get(name, {}).get(field)
            if was is not None and rec.get(field, 0) > was:
                rises.append(f"{name}: {field} {rec[field]} > {was} recorded")
    return rises


def _count_executions() -> list[int]:
    """Count ``StreamingExecutor.execute`` calls in this process, the
    all-to-all operators (Ray's sorts, groupbys and repartitions) in the
    plans they run, and the schema probes: the calls whose plan's top
    operator is a limit of 1 row, run by Ray's ``ExecutionPlan.schema``
    to answer ``Dataset.schema()`` on a lazy plan (an aggregate pulled
    with ``take(1)``, e.g. ``Dataset.max``, is a 1-row limit too, but no
    probe); the returned three-item list holds the running totals
    ``[executions, all_to_all, probes]``."""
    from ray.data._internal.execution.operators.base_physical_operator import (
        AllToAllOperator,
    )
    from ray.data._internal.execution.operators.limit_operator import LimitOperator
    from ray.data._internal.execution.streaming_executor import StreamingExecutor
    from ray.data._internal.plan import ExecutionPlan

    calls = [0, 0, 0]
    orig = StreamingExecutor.execute

    def all_to_all(dag) -> int:
        ops, todo = {}, [dag]
        while todo:
            op = todo.pop()
            if id(op) not in ops:
                ops[id(op)] = op
                todo.extend(op.input_dependencies)
        return sum(isinstance(op, AllToAllOperator) for op in ops.values())

    def probe(dag) -> bool:
        if not (isinstance(dag, LimitOperator) and dag._limit == 1):
            return False
        frame = sys._getframe()
        while frame is not None and frame.f_code is not ExecutionPlan.schema.__code__:
            frame = frame.f_back
        return frame is not None

    def execute(self, dag, *args, **kwargs):
        calls[0] += 1
        calls[1] += all_to_all(dag)
        calls[2] += probe(dag)
        return orig(self, dag, *args, **kwargs)

    StreamingExecutor.execute = execute
    return calls


def raylet_pids(proc: str = "/proc") -> list[int]:
    """Pids of the running ``raylet`` processes, read from ``proc``'s
    ``<pid>/comm`` files."""
    pids = []
    for d in os.listdir(proc):
        if not d.isdigit():
            continue
        try:
            with open(os.path.join(proc, d, "comm")) as f:
                if f.read().strip() == "raylet":
                    pids.append(int(d))
        except OSError:  # the process ended, or is not ours to read
            continue
    return sorted(pids)


def refuse_beside_live_ray(prog: str) -> int:
    """0 when no raylet runs; else print why ``prog`` will not start and
    return 2. A second ``ray.init(address="local")`` session beside a
    live one makes both die with ``Tried to complete task that was not
    pending``."""
    pids = raylet_pids()
    if pids:
        named = ", ".join(map(str, pids))
        print(
            f"{prog}: a Ray session is already running (raylet pid {named});"
            " two local sessions crash each other, stop it first",
            file=sys.stderr,
        )
        return 2
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sf_dir", nargs="?", default="/root/testdata/sf0.01")
    ap.add_argument("queries", nargs="*", help="run only these queries")
    ap.add_argument("--json", metavar="PATH", help="write per-query records here")
    ap.add_argument(
        "--against",
        metavar="RECORD",
        help="exit 1 when a query's executions, all_to_all or probes rise above this --json record",
    )
    args = ap.parse_args()
    sf_dir, only = args.sf_dir, set(args.queries)

    if refuse_beside_live_ray("check_oracles"):
        return 2
    import ray

    warnings.filterwarnings("ignore")
    ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events documents embeddings"
    ).split():
        path = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(path):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")

    qs, oracles = e.queries(), e.oracle_sql()
    executions = _count_executions()
    failed = []
    records = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        sql = oracles.get(name)
        before, t0 = list(executions), time.perf_counter()
        got = _to_pandas(fn(sf_dir))
        records[name] = {
            "wall_s": round(time.perf_counter() - t0, 3),
            "executions": executions[0] - before[0],
            "all_to_all": executions[1] - before[1],
            "probes": executions[2] - before[2],
            "rows": len(got),
            "match": "rows-only",
        }
        if sql is None:
            print(f"  {name}: rows-only ({len(got)} rows)")
            continue
        exp = con.execute(sql).df()
        problems = compare(name, got, exp)
        records[name]["match"] = "mismatch" if problems else "match"
        if problems:
            failed.append(name)
            print(f"✗ {name}:")
            for p in problems:
                print(f"    {p}")
        else:
            print(f"✓ {name}: {len(got)} rows match")
    ray.shutdown()
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"sf_dir": sf_dir, "queries": records}, f, indent=1, sort_keys=True)
    rises = rises_above(records, args.against) if args.against else []
    for line in rises:
        print(f"✗ above {args.against}: {line}")
    if failed:
        print(f"FAILED: {failed}")
        return 1
    print("ALL ORACLES MATCH")
    return 1 if rises else 0


if __name__ == "__main__":
    raise SystemExit(main())
