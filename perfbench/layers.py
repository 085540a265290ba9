"""Per-layer metrics of the traced run.

Three sources feed them:

- worker spans (``trace.py``): busy time, rows and fan-out of each layer
  callable, summed over every Ray worker process;
- Ray Data's own operator statistics of every dataset the driver pulled
  or wrote (``DatasetStatsSummary.operators_stats``), folded into four
  operator families and the exchange metrics;
- a single-process replay of the OCR stage functions over the same
  input, with no Ray (``replay_ocr``): each layer's self time. Ray
  overhead is the untraced iteration wall time minus their sum.

Every metric is per iteration (summed over the traced iterations, then
divided by their number). A layer that does not run in a workload reads
0.
"""

from __future__ import annotations

import glob
import os
import time

#: span-name prefix → layer, first match wins
SPAN_LAYERS = (
    ("zerox_ray.stages.classify.", "stages.classify"),
    ("zerox_ray.stages.split.", "stages.split"),
    ("zerox_ray.stages.score.", "stages.score"),
    ("zerox_ray.stages.reassemble.", "stages.reassemble"),
    ("zerox_ray.pipelines.relational.hash_join.", "pipelines.relational.hash_join"),
    ("zerox_ray.pipelines.relational.", "pipelines.relational"),
    ("zerox_ray.pipelines.agg.", "pipelines.agg"),
    ("zerox_ray.pipelines.graph.", "pipelines.graph"),
    ("zerox_ray.pipelines.boilerplate.", "pipelines.boilerplate"),
    ("zerox_ray.pipelines.textqual.", "pipelines.textqual"),
    ("driver_pull.", "driver_pull"),
)
BUSY_LAYERS = [layer for _, layer in SPAN_LAYERS if layer != "driver_pull"]
OP_FAMILIES = ("read", "map", "shuffle_map", "shuffle_reduce")
OP_FIELDS = ("wall_s", "cpu_s", "udf_s", "rows", "bytes")
REPLAY_LAYERS = ("sources.pages", "stages.classify", "stages.split", "stages.score", "stages.reassemble", "sink")


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s_per_page")):
        return "s"
    if metric.endswith(("bytes", "bytes_moved")):
        return "bytes"
    if metric.endswith(("rows", "rows_moved", "retries")):
        return "count"
    return "ratio"


def layer_of(span_name: str) -> str:
    for prefix, layer in SPAN_LAYERS:
        if span_name.startswith(prefix):
            return layer
    return "other"


def op_family(name: str, is_sub: bool) -> str:
    if name.startswith("Read"):
        return "read"
    if is_sub:
        return "shuffle_reduce" if name.endswith("Reduce") else "shuffle_map"
    return "map"


def op_rows(summaries) -> list[dict]:
    """Flatten stats summaries (and their parents) into one row per
    operator; a dataset reached twice from one summary counts once."""
    rows = []

    def walk(s, seen):
        if id(s) in seen:
            return
        seen.add(id(s))
        for op in s.operators_stats:
            wall = op.wall_time or {}
            n_tasks = round(wall["sum"] / wall["mean"]) if wall.get("mean") else 0
            rows.append(
                {
                    "name": op.operator_name,
                    "family": op_family(op.operator_name, op.is_sub_operator),
                    "wall_s": wall.get("sum", 0.0),
                    "wall_max_s": wall.get("max", 0.0),
                    "tasks": n_tasks,
                    "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                    "udf_s": (op.udf_time or {}).get("sum", 0.0),
                    "rows": (op.output_num_rows or {}).get("sum", 0),
                    "bytes": (op.output_size_bytes or {}).get("sum", 0),
                }
            )
        for p in s.parents:
            walk(p, seen)

    for s in summaries:
        walk(s, set())
    return rows


def replay_ocr(pages_dir: str, cfg, num_partitions: int, out_path: str) -> dict[str, float]:
    """Run the OCR stage functions in this process, in the order and
    batch sizes ``run_ocr`` uses, over every pages file (Ray reads one
    block per file here); returns self seconds per layer."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.ocr import _fold_kwargs
    from zerox_ray.stages.classify import ClassifyPayload
    from zerox_ray.stages.reassemble import merge_partials_bucket, partial_reassemble_block
    from zerox_ray.stages.score import Scorer
    from zerox_ray.stages.split import PageSplitter, chunk_giant_docs

    took = dict.fromkeys(REPLAY_LAYERS, 0.0)

    def timed(layer, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        took[layer] += time.perf_counter() - t0
        return out

    def batched(layer, fn, table, size):
        parts = [timed(layer, fn, table.slice(i, size)) for i in range(0, table.num_rows, size)]
        return pa.concat_tables(parts) if parts else table

    classify = ClassifyPayload(num_partitions)
    splitter = PageSplitter(select_pages=cfg.select_pages, error_mode=cfg.error_mode)
    scorer = Scorer(**_fold_kwargs(cfg))
    partials = []
    for path in sorted(glob.glob(os.path.join(pages_dir, "*.parquet"))):
        block = timed("sources.pages", pq.read_table, path, columns=["url", "html"])
        block = timed("stages.classify", classify, block)
        if cfg.giant_page_threshold is not None:
            block = timed("stages.split", chunk_giant_docs, block, chunk_pages=cfg.giant_page_threshold)
        frags = batched("stages.split", splitter, block, cfg.split_batch_size)
        scored = batched("stages.score", scorer, frags, cfg.score_batch_size)
        partials.append(timed("stages.reassemble", partial_reassemble_block, scored.to_pandas()))
    import pandas as pd

    merged = pd.concat(partials, ignore_index=True)
    docs = [timed("stages.reassemble", merge_partials_bucket, g) for _, g in merged.groupby("pid")]
    table = pa.Table.from_pandas(pd.concat(docs, ignore_index=True), preserve_index=False)
    timed("sink", pq.write_table, table, out_path)
    return took


def per_layer(
    spans: list[dict],
    summaries: list,
    n_iter: int,
    counters: list[dict],
    replay: dict[str, float] | None,
    untraced_wall_s: float,
    traced_wall_s: float,
) -> dict[str, float]:
    """Every per-layer metric, per traced iteration."""
    from perfbench.trace import self_times

    n = max(1, n_iter)
    own = self_times(spans)
    busy = dict.fromkeys(BUSY_LAYERS, 0.0)
    rows_in: dict[str, int] = {}
    rows_out: dict[str, int] = {}
    pull_rows = pull_bytes = 0
    for s in spans:
        layer = layer_of(s["name"])
        if layer in busy:
            busy[layer] += own[s["id"]]
        short = s["name"].rsplit(".", 1)[-1]
        rows_in[short] = rows_in.get(short, 0) + s["rows"]
        rows_out[short] = rows_out.get(short, 0) + s["rows_out"]
        if layer == "driver_pull":
            pull_rows += s["rows_out"]
            pull_bytes += s["bytes"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {f"{layer}.busy_s": busy[layer] / n for layer in BUSY_LAYERS}
    m["stages.split.fanout"] = ratio(rows_out.get("PageSplitter", 0), rows_in.get("ClassifyPayload", 0))
    m["stages.score.s_per_page"] = ratio(busy["stages.score"], rows_in.get("Scorer", 0))
    m["stages.reassemble.partial_ratio"] = ratio(
        rows_out.get("partial_reassemble_block", 0), rows_in.get("partial_reassemble_block", 0)
    )
    attempts = sum(c.get("attempts", 0) for c in counters)
    replies = sum(c.get("replies", 0) for c in counters)
    m["models.providers.requests_per_page"] = ratio(attempts, replies)
    m["models.providers.retries"] = sum(c.get("faults", 0) for c in counters) / n
    m["models.providers.stub_wait_s"] = sum(c.get("busy_s", 0.0) for c in counters) / n
    m["driver_pull.rows"] = pull_rows / n
    m["driver_pull.bytes"] = pull_bytes / n

    ops = op_rows(summaries)
    for fam in OP_FAMILIES:
        fam_ops = [o for o in ops if o["family"] == fam]
        for field in OP_FIELDS:
            m[f"ray.op.{fam}.{field}"] = sum(o[field] for o in fam_ops) / n
    moved = [o for o in ops if o["family"] == "shuffle_map"]
    reduce = [o for o in ops if o["family"] == "shuffle_reduce"]
    m["exchange.rows_moved"] = sum(o["rows"] for o in moved) / n
    m["exchange.bytes_moved"] = sum(o["bytes"] for o in moved) / n
    # skew within each exchange: slowest over mean reduce task of one
    # operator of one dataset, weighted by that operator's task count
    n_tasks = sum(o["tasks"] for o in reduce)
    skews = sum(o["tasks"] * ratio(o["wall_max_s"], ratio(o["wall_s"], o["tasks"])) for o in reduce)
    m["exchange.task_skew"] = ratio(skews, n_tasks)

    replay = replay or {}
    for layer in REPLAY_LAYERS:
        if layer.startswith("stages."):
            m[f"{layer}.self_s"] = replay.get(layer, 0.0)
    # the scan and the parquet sink run inside Ray's own operators, which
    # no span can wrap: their time comes from the replay
    m["sources.pages.busy_s"] = replay.get("sources.pages", 0.0)
    m["sink.busy_s"] = replay.get("sink", 0.0)
    self_total = sum(replay.values()) if replay else sum(busy.values()) / n
    m["ray.overhead_s"] = untraced_wall_s - self_total
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    m["trace.overhead_frac"] = ratio(traced_wall_s - untraced_wall_s, untraced_wall_s)
    return m
