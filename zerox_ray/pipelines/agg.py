"""The engine's exchange layer: the bucket tag, shuffle width, loop
coalesce width, broadcast gate, gathered-state gate, per-worker
broadcast cache, grouped exchanges, bounded driver pull and top-k the
pipelines share.

Parts:

- ``_bucket_ids`` — the one bucket tag (``key % W`` for integer keys,
  ``crc32(text) % W`` otherwise);
- ``shuffle_width`` — the one exchange-width rule: the cluster width
  (~2 reduce waves per CPU), narrowed for small inputs so a tiny
  per-round table is not fanned into cluster-width buckets of a few
  rows each;
- ``coalesce_width`` — the block count an iterative loop coalesces
  its per-round state into;
- ``BROADCAST_MAX_BYTES`` / ``fits_broadcast`` — the broadcast gate.
  ``relational.lookup_join`` decides every broadcast-or-join lookup
  with it, on the right side's materialized bytes: up to 1 GiB ships
  once, larger goes through ``relational.hash_join``. The size alone
  picks the path; a test forces the join path by monkeypatching the
  constant to -1. (dedup's pair-verify stages also gate a whole-file
  broadcast on it.)
- ``GATHER_MAX_BYTES`` / ``gathered`` — the gate over a whole loop's
  state: while the materialized inputs' summed bytes pass
  ``fits_broadcast`` and stay within ``GATHER_MAX_BYTES`` (128 MiB, set
  from measured runs: one core and no memory reservation), ONE Ray
  task concatenates each input (``concat_blocks``, shared with
  ``lookup_join``'s broadcast) and runs a kernel over them; above it the
  caller runs its distributed rounds. ``graph.kcore`` and the PageRank
  family run their fixed points through it: on a small graph one core
  finishes the loop before the rounds' barriers would;
- ``worker_cached`` — the one per-worker cache of deserialized
  broadcast state, FIFO-capped so a long-lived worker serving many
  queries evicts instead of growing without bound;
- ``_bucketed`` — the one keyed exchange: tag, ONE groupby on the tag,
  and an Arrow body per bucket. ``bucketed_group_agg`` /
  ``bucketed_group_map`` run pandas kernels on it (converted inside
  their wrapper), and ``relational.hash_join`` runs its Arrow join
  kernel on the tagged union of its two sides. Every keyed step that
  buckets rows and runs one vectorized kernel per bucket goes through
  ``bucketed_group_map`` (a fixed ``num_buckets`` where a size bound
  depends on which keys share a call, e.g.
  ``relational.N_USER_BUCKETS``); ``group_agg`` is
  ``bucketed_group_agg``'s per-bucket kernel;
- ``collect_bounded`` — a driver pull with a stated row bound: one
  execution that stops one row past the bound and raises, naming the
  pull, instead of landing an unbounded table on the driver;
- ``bucketed_top_k`` — the one top-k path: ONE exchange whose reduce
  runs the caller's kernel (e.g. ``group_agg``) and keeps the bucket's
  top-k, then a ``collect_bounded`` merge of the ≤ ``shuffle_width()·k``
  partial rows on the driver, with no global sort.
  ``relational.shipping_priority``, ``dataops.top_spenders`` and
  ``dataops.top_ngrams`` take it.

Exchanges that stay hand-written, and why:

- the four LSH banding exchanges in ``dedup`` (``MinHashBander`` for
  ``minhash_lsh_pairs`` and ``containment_pairs``,
  ``_explode_simhash_blocks``, ``HyperplaneBander``): the key is the
  composite (band key, band id), held by no single column, and the
  bander emits its ``% N_COARSE`` tag in the pass that makes the rows;
- ``dataops``' ``rng`` range groups (token-shard packing and its
  explode): their kernels need exactly one range per call, so they
  group on the range itself, not on a bucket of ranges;
- ``sketches``' tree merges: each batch emits one partial row already
  carrying its merge bucket, so a tag stage would be a second pass
  over a handful of rows.

``Dataset.groupby(keys).aggregate(...)`` (Ray's Aggregate operator) was
measured at ~2.5-3 s of fixed overhead per query on the sandbox corpus,
independent of data size; the identical reduction expressed as ONE
explicit exchange on a coarse hash bucket + a vectorized pandas
aggregation per bucket runs in ~0.6 s (see BENCH notes):

    partials → +bucket(hash(key) % W) → groupby(bucket)
             → map_groups(vectorized pandas groupby-agg)

Each reduce task handles |keys|/W groups — bounded per-task memory at
scale, amortized per-group Python cost (one pandas call per BUCKET, not
per key).

The module keeps its ``zerox_ray.pipelines.agg`` path, and ``hash_join``
stays in ``relational.py``: the benchmark attributes worker time to
layers by these qualified-name prefixes (``perfbench/layers.py``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.block import BlockAccessor

from zerox_ray.functions.hashing import crc32_array

#: broadcast gate: state up to this many bytes ships once; above it the
#: partitioned hash join is the path
BROADCAST_MAX_BYTES = 1 << 30

#: gathered gate: a fixed point whose materialized state passes
#: ``fits_broadcast`` and is at most this many bytes runs its whole loop
#: in one task (one core, no memory reservation); above it the
#: distributed rounds. Measured on 4 CPUs over replicated sf0.1 corpora,
#: the one task won at every size tried (kcore 3.7x at 190 MB of state,
#: pagerank 8.7x at 28 MB), and the kernel's working memory grew to
#: 1.6-2.9x its Arrow input (0.7 GB resident at 118 MB of PageRank
#: state), so the bound sits within the sizes measured
GATHER_MAX_BYTES = 1 << 27

#: per-worker cache cap: each entry may hold a materialized broadcast
#: (a corpus copy, a model), so a worker keeps at most this many
WORKER_CACHE_MAX = 4
_WORKER_CACHE: dict = {}


def shuffle_width(rows: int | None = None) -> int:
    """Exchange width: the cluster width, or for an input of ``rows``
    rows one bucket per 10k rows on top of 8, capped at the cluster
    width."""
    from zerox_ray.stages.classify import default_num_partitions

    width = default_num_partitions()
    if rows is None:
        return width
    return max(8, min(width, rows // 10_000 + 8))


def coalesce_width(rows: int) -> int:
    """Block count for a loop's per-round state of ``rows`` rows: one
    block per 250k rows on top of 8, capped at 1024. A round's shuffle
    emits as many blocks as it receives, so state fed back into the
    next round without this coalesce doubles its block count per
    round."""
    return max(8, min(1024, rows // 250_000 + 8))


def fits_broadcast(nbytes: int) -> bool:
    """True when ``nbytes`` of state may ship by broadcast. Reads the
    module constant at call time, so a monkeypatch reaches every site."""
    return nbytes <= BROADCAST_MAX_BYTES


def fits_gathered(nbytes: int) -> bool:
    """True when ``nbytes`` of state may go to one task: it passes
    ``fits_broadcast`` and is at most ``GATHER_MAX_BYTES``."""
    return fits_broadcast(nbytes) and nbytes <= GATHER_MAX_BYTES


def block_refs(ds: ray.data.Dataset) -> list:
    """Object refs of a materialized dataset's blocks."""
    return [ref for b in ds.iter_internal_ref_bundles() for ref, _ in b.blocks]


def concat_blocks(blocks) -> pa.Table:
    """One metadata-free Arrow table from Ray blocks (Arrow or pandas).
    Rowless blocks are skipped: a group exchange over an empty bucket
    emits one that may carry no schema, which would break the concat.
    With no rows at all the first block that has columns is kept (none:
    an empty, columnless table)."""
    tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
    keep = [t for t in tables if t.num_rows] or [t for t in tables if t.num_columns][:1]
    if not keep:
        return pa.table({})
    return pa.concat_tables(
        [t.replace_schema_metadata(None) for t in keep], promote_options="permissive"
    )


@ray.remote
def _gathered_task(kernel, counts: list[int], *blocks) -> pa.Table:
    tables, i = [], 0
    for n in counts:
        tables.append(concat_blocks(blocks[i : i + n]))
        i += n
    return kernel(*tables).replace_schema_metadata(None)


def gathered(kernel, *inputs: ray.data.Dataset) -> ray.data.Dataset | None:
    """``kernel(*tables) -> pa.Table`` run in ONE Ray task over the whole
    of each materialized input, when their summed block bytes (Ray's
    block metadata, no extra pass) pass ``fits_broadcast`` and
    ``GATHER_MAX_BYTES``; the result is
    a one-block dataset and never lands on the driver. Returns None
    above the gate: the caller then runs its distributed rounds. Each
    input reaches the kernel as one ``concat_blocks`` table, so a rowless
    input may have no columns."""
    if not fits_gathered(sum(ds.size_bytes() for ds in inputs)):
        return None
    refs = [block_refs(ds) for ds in inputs]
    # block refs passed as top-level arguments are fetched by Ray itself
    out = _gathered_task.remote(kernel, [len(r) for r in refs], *(x for r in refs for x in r))
    return ray.data.from_arrow_refs(out)


def worker_cached(key, build):
    """``build()`` once per worker process and ``key``; the oldest entry
    is evicted past ``WORKER_CACHE_MAX`` (eviction costs one rebuild)."""
    if key not in _WORKER_CACHE:
        while len(_WORKER_CACHE) >= WORKER_CACHE_MAX:
            _WORKER_CACHE.pop(next(iter(_WORKER_CACHE)))
        _WORKER_CACHE[key] = build()
    return _WORKER_CACHE[key]


def cached_get(kind: str, ref):
    """The broadcast object behind ``ref``, deserialized once per worker
    (``ray.get`` re-deserializes plain Python objects on every call)."""
    return worker_cached((kind, ref.hex()), lambda: ray.get(ref))


def _bucket_ids(col: pa.ChunkedArray | pa.Array, n: int) -> np.ndarray:
    """Deterministic int64 bucket id per row of an Arrow key column:
    ``key % n`` for integer keys (nulls land in bucket 0), else
    ``crc32(text) % n`` of the key's UTF-8 text, with a null read as
    ``"None"`` (``str()`` of a null in a pandas object column)."""
    if pa.types.is_integer(col.type):
        return pc.fill_null(col, 0).to_numpy(zero_copy_only=False).astype(np.int64) % n
    text = pc.fill_null(col.cast(pa.large_string()), "None")
    return (crc32_array(text) % np.uint32(n)).astype(np.int64)


def _bucketed(ds: ray.data.Dataset, key: str, body, num_buckets: int | None):
    """Tag every row with ``_bucket_ids`` of ``key`` (one appended Arrow
    column), exchange on the tag, and run ``body`` on each bucket's rows
    (an Arrow table that still holds the ``__b`` tag). The engine's one
    keyed exchange: ``bucketed_group_agg``, ``bucketed_group_map`` and
    ``relational.hash_join`` run on it. ``body`` itself is the reduce's
    function, so the benchmark's per-layer trace names its caller."""
    n = num_buckets or shuffle_width()

    # the tag stage emits CLEAN Arrow (no pandas schema-metadata blob,
    # which a batch from a pandas stage carries): the reduce's block
    # concat then dedups schemas by hash instead of logging per-task
    # warnings (see sources/tables.py)
    def tag(t: pa.Table) -> pa.Table:
        b = pa.array(_bucket_ids(t[key], n), pa.int64())
        return t.append_column("__b", b).replace_schema_metadata(None)

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    return tagged.groupby("__b").map_groups(body, batch_format="pyarrow")


def _pandas_body(fn):
    """A pandas group function as a ``_bucketed`` body: the bucket's
    rows, tag dropped, reach ``fn`` as Ray converts Arrow to pandas, and
    its frame goes back as clean Arrow."""

    def body(t: pa.Table) -> pa.Table:
        out = fn(BlockAccessor.for_block(t.drop_columns(["__b"])).to_pandas())
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return body


def group_agg(
    keys: list[str],
    named_aggs: dict[str, tuple[str, str]],
    dtypes: dict[str, str] | None = None,
):
    """The per-bucket kernel of ``bucketed_group_agg``: a pandas frame →
    ``groupby(keys).agg(**named_aggs)``, cast to ``dtypes`` if given."""
    aggs = {k: pd.NamedAgg(column=c, aggfunc=op) for k, (c, op) in named_aggs.items()}

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(list(keys), as_index=False).agg(**aggs)
        return out.astype(dtypes) if dtypes else out

    return final


def bucketed_group_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    named_aggs: dict[str, tuple[str, str]],
    num_buckets: int | None = None,
    dtypes: dict[str, str] | None = None,
) -> ray.data.Dataset:
    """groupby(keys) + named aggregations via one coarse-bucket exchange
    (bucketed on ``keys[0]``).

    ``named_aggs``: output_col → (src_col, op) exactly as pandas
    ``DataFrame.groupby().agg(**named_aggs)`` takes them. Ops must be
    MERGEABLE over row partitions of a key (sum/min/max/size over
    already-partial rows) — the caller is responsible for emitting
    per-batch partials first when the op needs it (e.g. ``size`` → emit
    a count column and sum it here)."""
    return _bucketed(
        ds, keys[0], _pandas_body(group_agg(keys, named_aggs, dtypes)), num_buckets
    )


def bucketed_group_map(
    ds: ray.data.Dataset,
    key: str,
    fn,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """groupby(key).map_groups(fn) via the same ONE coarse-bucket
    exchange as ``bucketed_group_agg``, for group functions that are not
    expressible as mergeable named aggs (winner marking, ranking, ...).

    ``fn`` receives a pandas DataFrame holding EVERY row of each key in
    the bucket — but many keys per call (|keys|/W), so per-group Python
    cost is amortized; ``fn`` must do its own per-key grouping/sorting,
    and its rows must NOT depend on which keys share a call. A fixed
    ``num_buckets`` pins that sharing (``key % num_buckets`` for integer
    keys) where a size bound relies on it. The ``__b`` tag column is
    dropped before ``fn`` sees the rows."""
    return _bucketed(ds, key, _pandas_body(fn), num_buckets)


def collect_bounded(ds: ray.data.Dataset, max_rows: int, what: str) -> pd.DataFrame:
    """``ds`` pulled to the driver as one pandas frame of at most
    ``max_rows`` rows, in one Ray execution that stops after
    ``max_rows + 1`` rows. A pull over the bound raises ``ValueError``
    naming ``what``, instead of landing an unbounded table on the
    driver."""
    rows = ds.limit(max_rows + 1).to_pandas()
    if len(rows) > max_rows:
        raise ValueError(f"{what}: driver pull exceeds its bound of {max_rows} rows")
    return rows


def bucketed_top_k(
    ds: ray.data.Dataset,
    key: str,
    kernel,
    by: list[str],
    ascending: list[bool],
    k: int,
    schema: pa.Schema,
    what: str,
) -> ray.data.Dataset:
    """The first ``k`` rows of ``kernel``'s output in the order
    ``sort_values(by, ascending)``, through ONE keyed exchange and a
    bounded driver merge.

    ``kernel`` is the per-bucket reduce (e.g. ``group_agg``): it gets
    every row of each ``key`` in its bucket, as ``bucketed_group_map``
    gives them, and each bucket keeps its own top ``k`` of its output.
    The at most ``shuffle_width() * k`` partial rows are pulled through
    ``collect_bounded`` (``what`` names the pull) and the global top
    ``k`` is taken on the driver; the result is a one-block dataset
    typed by ``schema`` (zero rows when the kernel emits none). ``by``
    must order rows totally — its last column unique per output row —
    so a tie at the k-th place breaks the same way in a bucket and on
    the driver."""
    n = shuffle_width()

    def top(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(by, ascending=ascending, kind="mergesort").head(k)

    part = bucketed_group_map(ds, key, lambda g: top(kernel(g)), num_buckets=n)
    rows = collect_bounded(part, n * k, what)
    if rows.empty:
        return ray.data.from_arrow(schema.empty_table())
    table = pa.Table.from_pandas(top(rows), schema=schema, preserve_index=False)
    return ray.data.from_arrow(table.replace_schema_metadata(None))
