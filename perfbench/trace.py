"""Span tracing for the traced run, installed from outside the library.

``Tracer.install()`` replaces, at the class-attribute level in the driver
process, the Ray Data entry points every ``zerox_ray`` layer goes
through:

- ``Dataset.map_batches`` and ``GroupedData.map_groups``: a user function
  defined in ``zerox_ray`` (``ClassifyPayload``, ``chunk_giant_docs``,
  ``PageSplitter``, ``Scorer``, ``partial_reassemble_block``,
  ``merge_partials_bucket``, the tag/merge/reduce closures of
  ``hash_join`` and ``bucketed_group_*``, ...) is swapped for a traced
  stand-in before Ray sees it. The stand-in runs in the Ray worker and
  records one span per call;
- ``Dataset.to_pandas`` / ``Dataset.take_all`` (driver pulls) and
  ``Dataset.write_parquet`` (the sink): a driver-side span, plus the
  executed dataset's operator statistics.

A span is ``(name, start, end, parent, rows, bytes, rows_out,
iteration, pid)``. Spans go to a per-process buffer that is appended to
``spans-<pid>.jsonl`` in the span directory as soon as the outermost
span of that process ends, so a worker that Ray kills at shutdown loses
nothing already measured.
"""

from __future__ import annotations

import inspect
import json
import os
import threading
import time

#: per-process span buffers, keyed by span directory
_BUFFERS: dict[str, "_Buffer"] = {}
_BUFFERS_LOCK = threading.Lock()


class _Buffer:
    def __init__(self, span_dir: str):
        os.makedirs(span_dir, exist_ok=True)
        self.path = os.path.join(span_dir, f"spans-{os.getpid()}.jsonl")
        self.local = threading.local()
        self.lock = threading.Lock()
        self.pending: list[dict] = []
        self.next_id = 0

    def open(self, name: str, iteration: int, rows: int, nbytes: int) -> dict:
        stack = self.local.__dict__.setdefault("stack", [])
        with self.lock:
            self.next_id += 1
            span_id = self.next_id
        span = {
            "name": name,
            "id": f"{os.getpid()}:{span_id}",
            "parent": stack[-1]["id"] if stack else None,
            "iteration": iteration,
            "pid": os.getpid(),
            "rows": rows,
            "bytes": nbytes,
            "start": time.time(),
            "_t0": time.perf_counter(),
        }
        stack.append(span)
        return span

    def close(self, span: dict, rows_out: int) -> None:
        span["dur"] = time.perf_counter() - span.pop("_t0")
        span["end"] = span["start"] + span["dur"]
        span["rows_out"] = rows_out
        stack = self.local.stack
        stack.pop()
        with self.lock:
            self.pending.append(span)
            if stack:
                return
            lines = "".join(json.dumps(s) + "\n" for s in self.pending)
            self.pending = []
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(lines)


def _buffer(span_dir: str) -> _Buffer:
    with _BUFFERS_LOCK:
        if span_dir not in _BUFFERS:
            _BUFFERS[span_dir] = _Buffer(span_dir)
        return _BUFFERS[span_dir]


def batch_size_of(batch) -> tuple[int, int]:
    """(rows, bytes) of a pyarrow Table, pandas DataFrame or dict of
    numpy columns; pandas bytes are the shallow column buffers."""
    if batch is None:
        return 0, 0
    if hasattr(batch, "num_rows") and hasattr(batch, "nbytes"):
        return batch.num_rows, batch.nbytes
    if hasattr(batch, "memory_usage"):
        return len(batch), int(batch.memory_usage(index=False, deep=False).sum())
    if isinstance(batch, dict):
        cols = list(batch.values())
        return (len(cols[0]) if cols else 0), sum(getattr(c, "nbytes", 0) for c in cols)
    return 0, 0


def _row_bytes(row: dict) -> int:
    """Payload bytes of one pulled row: string/bytes lengths, 8 per
    other value."""
    return sum(len(v) if isinstance(v, (str, bytes)) else 8 for v in row.values())


def _timed(name: str, span_dir: str, iteration: int, fn, batch, args, kwargs):
    buf = _buffer(span_dir)
    rows, nbytes = batch_size_of(batch)
    span = buf.open(name, iteration, rows, nbytes)
    rows_out = 0
    try:
        out = fn(batch, *args, **kwargs)
        if inspect.isgenerator(out):
            out = list(out)
            rows_out = sum(batch_size_of(b)[0] for b in out)
            return iter(out)
        rows_out = batch_size_of(out)[0]
        return out
    finally:
        buf.close(span, rows_out)


class TracedCall:
    """Picklable traced stand-in for a function or a callable instance."""

    def __init__(self, name: str, fn, span_dir: str, iteration: int):
        self.name = name
        # Ray names operators after (and map_groups copies) __name__
        self.__name__ = name.rsplit(".", 1)[-1]
        self.fn = fn
        self.span_dir = span_dir
        self.iteration = iteration

    def __call__(self, batch, *args, **kwargs):
        return _timed(self.name, self.span_dir, self.iteration, self.fn, batch, args, kwargs)


def traced_class(cls: type, name: str, span_dir: str, iteration: int) -> type:
    """Subclass of a callable class (an actor-pool stage) whose calls are
    traced. It is built at run time, so Ray ships it by value."""

    def __call__(self, batch, *args, **kwargs):
        return _timed(name, span_dir, iteration, super(sub, self).__call__, batch, args, kwargs)

    sub = type(cls.__name__, (cls,), {"__call__": __call__})
    return sub


def qualified_name(fn) -> str:
    target = fn if inspect.isclass(fn) or inspect.isfunction(fn) else type(fn)
    return f"{target.__module__}.{target.__qualname__}"


class Tracer:
    """Installs and removes the wrappers; holds what the driver saw."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.iteration = 0
        #: stats summaries of every dataset pulled or written while installed
        self.op_stats: list = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap_udf(self, fn):
        name = qualified_name(fn)
        if not name.startswith("zerox_ray."):
            return fn
        if inspect.isclass(fn):
            return traced_class(fn, name, self.span_dir, self.iteration)
        return TracedCall(name, fn, self.span_dir, self.iteration)

    def _driver_span(self, name: str, call, stats_of):
        tracer = self

        def wrapper(ds, *args, **kwargs):
            buf = _buffer(tracer.span_dir)
            span = buf.open(name, tracer.iteration, 0, 0)
            rows_out = 0
            try:
                out = call(ds, *args, **kwargs)
                if hasattr(out, "memory_usage"):
                    rows_out = len(out)
                    span["bytes"] = int(out.memory_usage(index=False, deep=True).sum())
                elif isinstance(out, list):
                    rows_out = len(out)
                    span["bytes"] = sum(_row_bytes(r) for r in out)
                summary = stats_of(ds)
                if summary is not None:
                    tracer.op_stats.append(summary)
                return out
            finally:
                buf.close(span, rows_out)

        return wrapper

    def install(self) -> None:
        from ray.data import Dataset
        from ray.data.grouped_data import GroupedData

        tracer = self
        orig_map_batches = Dataset.map_batches
        orig_map_groups = GroupedData.map_groups

        def map_batches(ds, fn, *args, **kwargs):
            return orig_map_batches(ds, tracer.wrap_udf(fn), *args, **kwargs)

        def map_groups(grouped, fn, *args, **kwargs):
            return orig_map_groups(grouped, tracer.wrap_udf(fn), *args, **kwargs)

        def own_stats(ds):
            return ds._get_stats_summary()

        def write_stats(ds):
            return ds._write_ds._get_stats_summary() if ds._write_ds is not None else None

        patches = [
            (Dataset, "map_batches", map_batches),
            (GroupedData, "map_groups", map_groups),
            (Dataset, "to_pandas", self._driver_span("driver_pull.to_pandas", Dataset.to_pandas, own_stats)),
            (Dataset, "take_all", self._driver_span("driver_pull.take_all", Dataset.take_all, own_stats)),
            (Dataset, "write_parquet", self._driver_span("sink.write_parquet", Dataset.write_parquet, write_stats)),
        ]
        for owner, attr, new in patches:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def read_spans(self) -> list[dict]:
        spans = []
        if not os.path.isdir(self.span_dir):
            return spans
        for fname in sorted(os.listdir(self.span_dir)):
            if fname.startswith("spans-") and fname.endswith(".jsonl"):
                with open(os.path.join(self.span_dir, fname), encoding="utf-8") as fh:
                    spans.extend(json.loads(line) for line in fh if line.strip())
        return spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id → self time: its duration minus the part its direct
    children (same process, by construction) cover."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["dur"]
    return {s["id"]: s["dur"] - child.get(s["id"], 0.0) for s in spans}
