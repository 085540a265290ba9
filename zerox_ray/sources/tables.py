"""Shuffle-aware table reads for the dataops/dedup/relational pipelines.

Ray Data's groupby/sort aggregate derives its sample + reduce width from
the INPUT BLOCK COUNT, and the barrier's fixed cost grows with it:
measured on the sandbox corpus, the identical MinHash pipeline runs in
~3.5 s with 64 read blocks and ~1.7 s with 16 — the data is tiny, the
difference is pure per-task scheduling in the two sort exchanges.

``read_table`` therefore bounds the block count for SMALL inputs
(≤ ``SMALL_TABLE_MAX_BYTES``) to ~half the cluster CPUs — enough map
parallelism to keep cores busy on the vectorized partial stages, few
enough blocks that the downstream shuffle's overhead doesn't dwarf the
data. Inputs past the threshold keep Ray's own splitting untouched: at
real 100 TB scale the file count dominates and per-block overhead
amortizes, so the override must never apply there.
"""

from __future__ import annotations

import glob
import os

import ray
import ray.data

#: inputs at or below this total size get a bounded block count
SMALL_TABLE_MAX_BYTES = 1 << 30


def _input_bytes(path: str) -> int:
    if os.path.isdir(path):
        return sum(
            os.path.getsize(f)
            for f in glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True)
        )
    return os.path.getsize(path)


def small_read_blocks() -> int:
    """Block count for shuffle-bound small reads: ~cpus/2, floor 8."""
    cpus = 4
    if ray.is_initialized():
        cpus = max(1, int(ray.cluster_resources().get("CPU", 4)))
    return max(8, cpus // 2)


def clean_read_schema(path: str | list, columns: list[str] | None):
    """Metadata-free (and column-pruned) schema for ``read_parquet``'s
    ``schema=`` argument, from one footer. Passing it makes the READ
    OPERATOR itself emit hashable schemas — stripping in a downstream map
    still leaves the read's own blocks warning per task. Returns None
    (let Ray infer) when no footer is readable."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    p = path[0] if isinstance(path, (list, tuple)) else path
    if os.path.isdir(p):
        files = sorted(glob.glob(os.path.join(p, "**", "*.parquet"), recursive=True))
        if not files:
            return None
        p = files[0]
    try:
        full = pq.read_schema(p).remove_metadata()
    except OSError:
        return None
    if columns is None:
        return full
    return pa.schema([full.field(c) for c in columns])


def read_table(path: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """Column-pruned parquet read; bounded block count for small inputs
    (see module docstring), Ray-default splitting for large ones."""
    kwargs: dict = {"columns": columns, "schema": clean_read_schema(path, columns)}
    try:
        if _input_bytes(path) <= SMALL_TABLE_MAX_BYTES:
            kwargs["override_num_blocks"] = small_read_blocks()
    except OSError:
        pass  # unreadable size → let Ray decide
    return ray.data.read_parquet(path, **kwargs)


def table_num_rows(path: str) -> int:
    """Row count straight from parquet footer metadata — a broadcastable
    scalar (e.g. the N in idf weights) obtained without reading data."""
    import pyarrow.parquet as pq

    if os.path.isdir(path):
        # recursive, like every other reader here — a partitioned table
        # with nested dirs must not silently undercount
        files = sorted(
            glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True)
        )
    else:
        files = [path]
    return sum(pq.read_metadata(f).num_rows for f in files)
