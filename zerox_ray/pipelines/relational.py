"""Relational operators the engine adds beyond the reference (which has
no joins at all — SURVEY §2.5): broadcast-dimension enrichment, an
explicit partitioned hash join, the broadcast-or-join lookup join, an
as-of (time-travel) join, and session windows over the events stream.

Scale design:
- **Broadcast join** (`orders_by_nation`): the small side (customer →
  nation dims) is ``ray.put`` ONCE and read zero-copy by every task —
  never a shuffle, never re-shipped per batch. Each batch pre-aggregates
  (combiner) so the final groupby exchanges ~|nations| rows per block.
- **Hash join** (`hash_join`): both sides are tagged with their side,
  padded to one column set and unioned, and the union goes through
  ``agg._bucketed`` on the key: the engine's one keyed exchange, ONE
  all-to-all, buckets ``agg._bucket_ids`` of the key. Inside a bucket an
  Arrow index join (``_join_kernel``) matches the two sides and gathers
  their columns with ``take``, so every column keeps its Arrow type.
  Supported: inner, left, semi and anti.
- **Lookup join** (`lookup_join`): a keyed table attached to another
  side (inner/left/semi/anti). The table is materialized; while its
  bytes fit ``agg.fits_broadcast`` its blocks ship once and every
  other-side batch is joined in place, else it is ``hash_join``. Both
  paths run the same per-partition kernel (``_join_kernel``).
- **As-of join** (`asof_purchase_view`): per-key ordered semantics →
  ``bucketed_group_map`` on ``user_id`` + in-bucket sort + vectorized
  ``merge_asof`` (no global sort). Concurrency comes from many users; a
  hot key only slows its own bucket.
- **Session windows** (`events_sessions`): gap-based sessionization =
  ``bucketed_group_map`` on ``user_id``, then a per-user sort +
  diff/cumsum inside each bucket (batch analogue of a streaming session
  window; watermark-free because input is bounded). Every per-user
  events query takes this one exchange.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.block import BlockAccessor

from zerox_ray.sources.tables import read_table
from zerox_ray.pipelines.agg import (
    _bucketed,
    block_refs,
    bucketed_group_agg,
    bucketed_group_map,
    bucketed_top_k,
    concat_blocks,
    fits_broadcast,
    group_agg,
    shuffle_width,
    worker_cached,
)

CENTS = 100


# --- broadcast-dimension enrichment ------------------------------------------


class _NationEnricher:
    """map_batches combiner: orders batch → per-nation partial aggregates.

    Dims arrive as ObjectRefs (ray.put on the driver); ray.get in the
    ctor is a zero-copy read once per worker process."""

    def __init__(self, cust_ref, nation_ref):
        cust = ray.get(cust_ref)
        nation = ray.get(nation_ref)
        # custkey → nation name dict (composed through nationkey)
        n_name = dict(
            zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
        )
        self.cust_to_nation = {
            c: n_name[n]
            for c, n in zip(
                cust["c_custkey"].to_pylist(), cust["c_nationkey"].to_pylist()
            )
        }

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        names = df["o_custkey"].map(self.cust_to_nation)
        cents = np.floor(df["o_totalprice"].to_numpy() * CENTS).astype(np.int64)
        part = (
            pd.DataFrame({"n_name": names, "cents": cents})
            .groupby("n_name", sort=True)
            .agg(n_orders=("cents", "size"), total_cents=("cents", "sum"))
            .reset_index()
        )
        part["n_orders"] = part["n_orders"].astype("int64")
        part["total_cents"] = part["total_cents"].astype("int64")
        return part


def _enrich_batch(df, cust_ref, nation_ref):
    key = ("nation", cust_ref.hex(), nation_ref.hex())
    return worker_cached(key, lambda: _NationEnricher(cust_ref, nation_ref))(df)


def orders_by_nation(sf_dir: str) -> ray.data.Dataset:
    """Orders enriched via broadcast dims, aggregated per nation.
    Output: (n_name, n_orders, total_cents)."""
    cust_ref = ray.put(
        pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    )
    nation_ref = ray.put(
        pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    )
    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    # per-worker cache: dims are one zero-copy ray.get
    partials = ds.map_batches(
        _enrich_batch,
        fn_kwargs={"cust_ref": cust_ref, "nation_ref": nation_ref},
        batch_format="pandas",
    )
    return bucketed_group_agg(
        partials,
        ["n_name"],
        {"n_orders": ("n_orders", "sum"), "total_cents": ("total_cents", "sum")},
    )


# --- explicit partitioned hash join ------------------------------------------


def _kernel_frame(t: pa.Table) -> pd.DataFrame:
    """A join result as pandas consumers read it: Ray's Arrow → pandas
    conversion, except that an integer column holding nulls becomes
    pandas nullable Int64 / UInt64 instead of float64, which would round
    values above 2^53."""
    df = BlockAccessor.for_block(t).to_pandas()
    for c, col in zip(t.column_names, t.columns):
        if pa.types.is_integer(col.type) and col.null_count:
            signed = pa.types.is_signed_integer(col.type)
            nullable = pd.Int64Dtype() if signed else pd.UInt64Dtype()
            df[c] = col.to_pandas(types_mapper=lambda _: nullable)
    return df


def _join_kernel(on: str, how: str):
    """The per-partition join that ``hash_join`` runs per bucket and
    ``lookup_join`` per left batch, so both paths emit the same rows.

    Returns ``join(l, r)`` over Arrow rows of the two sides. semi/anti
    filter ``l`` by key membership. inner/left match the keys through
    ``pc.index_in`` and gather each side's columns with ``take``, so
    every column keeps its Arrow type and no payload enters a hash
    table. Rows come in pandas' merge order (left order, then right
    order within a key), and a null key matches a null key. Columns are
    the left ones, then the right ones but ``on``; a name on both sides
    gets ``_x`` / ``_y``. Matched rows come as a ``_kernel_frame``, so
    pandas consumers read an integer column holding nulls (a left join's
    unmatched rows) as nullable Int64, not float64; one Ray task emits
    one block type, so this holds for every non-empty result, and an
    empty one stays a typed Arrow table. Any other ``how`` raises
    ``ValueError`` here, before a plan is built."""
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"join how={how!r} is not supported: use inner, left, semi or anti")

    def join(l: pa.Table, r: pa.Table):
        lk = l[on]
        rk = r[on].cast(lk.type)
        if how in ("semi", "anti"):
            present = pc.is_in(lk, value_set=rk)
            return l.filter(present if how == "semi" else pc.invert(present))
        keys = pc.unique(rk)
        # right rows grouped by key, right order within a key
        group = pc.index_in(rk, value_set=keys).to_numpy(zero_copy_only=False)
        by_key = np.argsort(group, kind="stable")
        counts = np.bincount(group, minlength=len(keys))
        # per left row: its key's match count and first grouped right row
        # (an unmatched row reads the appended 0 of both)
        g = pc.fill_null(pc.index_in(lk, value_set=keys), len(keys))
        g = g.to_numpy(zero_copy_only=False)
        n = np.append(counts, 0)[g]
        start = np.append(np.cumsum(counts) - counts, 0)[g]
        reps = np.maximum(n, 1) if how == "left" else n
        pos = np.repeat(start - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
        ri = pa.array(np.append(by_key, 0)[pos], mask=np.repeat(n == 0, reps))
        # the common lookup matches each left row once: no left gather
        lt = l if (reps == 1).all() else l.take(np.repeat(np.arange(len(g)), reps))
        rt = r.drop_columns([on]).take(ri)
        both = set(lt.column_names) & set(rt.column_names)
        names = [c + "_x" if c in both else c for c in lt.column_names]
        names += [c + "_y" if c in both else c for c in rt.column_names]
        out = pa.Table.from_arrays(lt.columns + rt.columns, names=names)
        return _kernel_frame(out) if out.num_rows else out

    return join


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    num_buckets: int | None = None,
    how: str = "inner",
) -> ray.data.Dataset:
    """Partitioned hash join (inner, left, semi or anti) of two Datasets
    on an integer or string key.

    Each side is tagged ``__side`` and padded with the other side's
    columns (never read); the union goes through the engine's one
    keyed exchange, ``agg._bucketed`` on ``on`` (``key % B`` for
    integers, ``crc32(text) % B`` otherwise; ``B`` defaults to
    ``agg.shuffle_width()``), and ``_join_kernel`` joins each bucket's
    two sides in Arrow."""
    kernel = _join_kernel(on, how)
    # a rowless side can surface with NO schema at all (e.g. a groupby
    # over an empty stream) — resolve the join semantically instead of
    # crashing on schema introspection. The right side is checked first:
    # ``left.schema()`` of a lazy left runs part of its plan.
    rschema = right.schema()
    if rschema is None:
        # inner/semi: nothing matches. anti: nothing to subtract. left:
        # every left row with null right columns — but the right columns
        # are UNKNOWABLE here, so left comes back unchanged; callers'
        # downstream fillna/column-adds handle the absence
        # (link_components' early return relies on exactly this shape)
        return left.limit(0) if how in ("inner", "semi") else left
    lschema = left.schema()
    if lschema is None:
        return left  # empty in every mode
    lcols, rcols = list(lschema.names), list(rschema.names)
    #: one canonical column order so every tagged block shares a schema
    order = list(dict.fromkeys(lcols + rcols)) + ["__side"]

    # Each side is padded with the other side's columns, which ``body``
    # never reads: integers as typed ZEROS, the rest as typed nulls (a
    # pandas-block schema may name no Arrow type: untyped). A rowless
    # pandas block from upstream passes every map untouched, and when it
    # comes first Ray's sort reduce concatenates the bucket in pandas,
    # where a null would turn an int column float64 and round values
    # above 2^53 (63-bit url keys in graph.link_components).
    def pad(typ, n: int) -> pa.Array:
        if not isinstance(typ, pa.DataType):
            return pa.nulls(n)
        if pa.types.is_integer(typ):
            return pa.array(np.zeros(n, typ.to_pandas_dtype()))
        return pa.nulls(n, typ)

    def tagger(side: int, own: list[str], other):
        missing = [(c, t) for c, t in zip(other.names, other.types) if c not in own]

        def tag(t: pa.Table) -> pa.Table:
            n = t.num_rows
            for c, typ in missing:
                t = t.append_column(c, pad(typ, n))
            t = t.append_column("__side", pa.array(np.full(n, side, np.int8)))
            return t.select(order).replace_schema_metadata(None)

        return tag

    def body(t: pa.Table):
        is_left = pc.equal(t["__side"], 0)
        return kernel(t.filter(is_left).select(lcols), t.filter(pc.invert(is_left)).select(rcols))

    lt = left.map_batches(tagger(0, lcols, rschema), batch_format="pyarrow")
    rt = right.map_batches(tagger(1, rcols, lschema), batch_format="pyarrow")
    return _bucketed(lt.union(rt), on, body, num_buckets)


def rename_columns(ds: ray.data.Dataset, names: dict[str, str]) -> ray.data.Dataset:
    """``ds`` with columns renamed by ``names``, as a lazy per-block map
    in the block's own format (Ray 2.49's ``Dataset.rename_columns``
    fails on pandas blocks, which pandas stages emit)."""

    def rename(b):
        if isinstance(b, pd.DataFrame):
            return b.rename(columns=names)
        return b.rename_columns([names.get(c, c) for c in b.column_names])

    return ds.map_batches(rename, batch_format=None)


def lookup_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    how: str = "inner",
    right_on: str | None = None,
    num_buckets: int | None = None,
) -> ray.data.Dataset:
    """Join ``left`` against the keyed table ``right`` (inner, left,
    semi or anti), by broadcast when ``right`` is small and by
    ``hash_join`` otherwise. ``right_on`` names right's key column when
    it is not ``on``; the output carries it as ``on``.

    ``right`` is materialized, and its bytes come from Ray's block
    metadata (no extra pass). When ``agg.fits_broadcast`` of them holds,
    the right blocks ship once — each worker fetches and concatenates
    them once (``agg.worker_cached``) — and every left batch is joined
    in place, so ``left`` never enters an exchange. Otherwise this is
    ``hash_join(left, right, on, num_buckets, how)``. Both paths run
    ``_join_kernel``, so they emit the same rows.

    This is the one place a keyed lookup chooses between broadcast and
    join: a test drives every caller down the join path by setting
    ``agg.BROADCAST_MAX_BYTES = -1``."""
    kernel = _join_kernel(on, how)
    right = right.materialize()
    rename = {right_on: on} if right_on not in (None, on) else {}
    known = right.schema() is not None
    if not known or not fits_broadcast(right.size_bytes()):
        # a schemaless right is rowless: hash_join resolves it unshuffled
        if rename and known:
            right = rename_columns(right, rename)
        return hash_join(left, right, on, num_buckets=num_buckets, how=how)

    refs = block_refs(right)
    key = ("lookup", on, right_on, *(ref.hex() for ref in refs))

    def gather() -> pa.Table:
        t = concat_blocks(ray.get(refs))
        return t.rename_columns([rename.get(c, c) for c in t.column_names])

    def probe(t: pa.Table):
        return kernel(t, worker_cached(key, gather))

    return left.map_batches(probe, batch_format="pyarrow")


def revenue_by_priority(sf_dir: str) -> ray.data.Dataset:
    """lineitem ⋈ orders on orderkey → revenue per order priority.
    Output: (o_orderpriority, n_items, revenue_cents)."""
    li = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    # combiner BEFORE the join: collapse lineitem to per-orderkey partial
    # revenue (shrinks the shuffled left side to one row per order)
    def li_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            df["l_extendedprice"].to_numpy() * (1 - df["l_discount"].to_numpy()) * CENTS
        ).astype(np.int64)
        out = (
            pd.DataFrame({"l_orderkey": df["l_orderkey"].astype("int64"), "cents": cents})
            .groupby("l_orderkey", sort=False)
            .agg(n_items=("cents", "size"), revenue_cents=("cents", "sum"))
            .reset_index()
        )
        return out.astype({"n_items": "int64", "revenue_cents": "int64"})

    li_agg = li.map_batches(li_partial, batch_format="pandas")
    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(
        lambda df: df.rename(columns={"o_orderkey": "l_orderkey"}),
        batch_format="pandas",
    )
    joined = hash_join(li_agg, orders, on="l_orderkey")
    return bucketed_group_agg(
        joined,
        ["o_orderpriority"],
        {"n_items": ("n_items", "sum"), "revenue_cents": ("revenue_cents", "sum")},
    )


# --- as-of join --------------------------------------------------------------


#: user buckets of the per-user events exchanges (``bucketed_group_map``
#: on ``user_id``, so bucket = ``user_id % N_USER_BUCKETS``): one kernel
#: call per bucket, each sessionizing/joining thousands of users with
#: vectorized code instead of one Python call per user. It also bounds
#: the users one kernel call sees, which ``_neighbors_bucket``'s int64
#: composite-key guard relies on
N_USER_BUCKETS = 256


def _asof_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """One coarse bucket of users → purchases joined to each user's
    latest view at-or-before (merge_asof by=user_id: one C-level pass
    over all users in the bucket)."""
    g = g.sort_values(["ts", "event_id"], kind="mergesort")
    views = g[g["event_type"] == "view"]
    buys = g[g["event_type"] == "purchase"]
    if len(buys) == 0:
        return pd.DataFrame(
            {"event_id": pd.Series([], dtype="int64"),
             "user_id": pd.Series([], dtype="int64"),
             "view_ts_us": pd.Series([], dtype="int64")}
        )
    m = pd.merge_asof(
        pd.DataFrame(
            {
                "ts": buys["ts"].astype("int64").to_numpy(),
                "event_id": buys["event_id"].astype("int64").to_numpy(),
                "user_id": buys["user_id"].astype("int64").to_numpy(),
            }
        ),
        pd.DataFrame(
            {
                "ts": views["ts"].astype("int64").to_numpy(),
                "user_id": views["user_id"].astype("int64").to_numpy(),
                "view_ts_us": views["ts"].astype("int64").to_numpy(),
            }
        ),
        on="ts",
        by="user_id",
        direction="backward",
        allow_exact_matches=True,
    )
    return pd.DataFrame(
        {
            "event_id": m["event_id"].astype("int64"),
            "user_id": m["user_id"].astype("int64"),
            "view_ts_us": m["view_ts_us"].fillna(-1).astype("int64"),
        }
    )


def asof_purchase_view(sf_dir: str) -> ray.data.Dataset:
    """As-of join inside the events stream: each purchase matched to the
    user's latest view at-or-before it (-1 when none).
    Output: (event_id, user_id, view_ts_us)."""
    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    ).map_batches(
        lambda df: df[df["event_type"].isin(["purchase", "view"])],
        batch_format="pandas",
    )
    return bucketed_group_map(ds, "user_id", _asof_bucket, num_buckets=N_USER_BUCKETS)


# --- range self-join ----------------------------------------------------------

#: ±4 h neighborhood (µs) — sized to the synthetic stream's per-user rate
NEIGHBOR_WINDOW_US = 4 * 3600 * 1_000_000


def _neighbors_bucket(g: pd.DataFrame, window_us: int) -> pd.DataFrame:
    """One coarse bucket of users → per-event neighbor aggregates, fully
    vectorized across ALL users at once: rows are sorted by a composite
    key that embeds user identity as a stride larger than any in-user
    span (+window padding), so one searchsorted pair per side yields each
    event's [ts−W, ts+W] window bounds WITHIN its own user segment —
    no per-user Python loop, prefix sums finish the value aggregation."""
    n = len(g)
    if n == 0:
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("event_id", "n_neighbors", "neighbor_cents")}
        )
    ts = g["ts"].astype("int64").to_numpy()
    uid, _ = pd.factorize(g["user_id"].astype("int64"), sort=False)
    cents = np.floor(g["value"].to_numpy() * 100).astype(np.int64)
    span = int(ts.max()) - int(ts.min()) + 2 * window_us + 2
    # composite-key capacity check: silent int64 wraparound would corrupt
    # the window bounds without an error — fail loudly with the remedy
    if (int(uid.max()) + 1) * span >= 2**63:
        raise ValueError(
            "events_neighbors composite key would overflow int64: "
            f"{int(uid.max()) + 1} users × span {span} µs in one bucket; "
            "raise N_USER_BUCKETS (narrower buckets) or shrink the ts range "
            "per run (e.g. partition the input by time first)"
        )
    key = uid.astype(np.int64) * span + (ts - int(ts.min()) + window_us + 1)
    order = np.argsort(key, kind="mergesort")
    k, c, eid = key[order], cents[order], g["event_id"].astype("int64").to_numpy()[order]
    lo = np.searchsorted(k, k - window_us, side="left")
    hi = np.searchsorted(k, k + window_us, side="right")
    pref = np.r_[0, np.cumsum(c)]
    return pd.DataFrame(
        {
            "event_id": eid,
            "n_neighbors": (hi - lo - 1).astype(np.int64),
            "neighbor_cents": (pref[hi] - pref[lo] - c).astype(np.int64),
        }
    )


def events_neighbors(
    sf_dir: str, window_us: int = NEIGHBOR_WINDOW_US
) -> ray.data.Dataset:
    """Range self-join on the events stream: for every event, the count
    and value (integer cents, floor(value·100) per event so the sum is
    order-free) of the same user's OTHER events within ±window.

    This is the interval-join shape Ray Data lacks natively: ONE
    user-hash exchange co-locates each user's events, then the bucketed
    kernel answers every in-window query with two binary searches — at
    10^12 rows the shuffle is the unavoidable cost and the per-bucket
    work stays O(rows log rows) with bounded memory (users per bucket
    shrink as the cluster and bucket count grow).
    Output: (event_id, n_neighbors, neighbor_cents)."""
    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )
    return bucketed_group_map(
        ds,
        "user_id",
        lambda g: _neighbors_bucket(g, window_us),
        num_buckets=N_USER_BUCKETS,
    )


# --- session windows ---------------------------------------------------------

_US = 1_000_000


def _sessionize_bucket(g: pd.DataFrame, gap_us: int) -> pd.DataFrame:
    """One coarse bucket of users → session rows, fully vectorized across
    ALL users at once: session boundaries are run starts in the
    (user_id, ts, event_id)-sorted stream (user change OR gap), and each
    session's (n_events, start, end) falls out of run-length indexing —
    no per-user Python call, no pandas groupby."""
    g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    ts = g["ts"].astype("int64").to_numpy()
    uid = g["user_id"].astype("int64").to_numpy()
    n = len(ts)
    if n == 0:
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("user_id", "session_id", "n_events", "start_us", "end_us")}
        )
    new = np.ones(n, dtype=bool)
    new[1:] = (uid[1:] != uid[:-1]) | (ts[1:] - ts[:-1] > gap_us)
    gsid = np.cumsum(new)  # global session ordinal over the bucket
    # per-user session_id restarting at 1: subtract the user's first ordinal
    ustart = np.ones(n, dtype=bool)
    ustart[1:] = uid[1:] != uid[:-1]
    first_gsid = gsid[ustart]  # one per user, in stream order
    sid = gsid - first_gsid[np.cumsum(ustart) - 1] + 1
    s0 = np.flatnonzero(new)               # first row of each session
    s1 = np.r_[s0[1:], n] - 1              # last row of each session
    return pd.DataFrame(
        {
            "user_id": uid[s0],
            "session_id": sid[s0],
            "n_events": (s1 - s0 + 1).astype(np.int64),
            "start_us": ts[s0],
            "end_us": ts[s1],
        }
    )


def events_sessions(sf_dir: str, gap_hours: int = 8) -> ray.data.Dataset:
    """Gap-based session windows per user over the events stream.
    Output: (user_id, session_id, n_events, start_us, end_us)."""
    gap_us = gap_hours * 3600 * _US
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    return bucketed_group_map(
        ds,
        "user_id",
        lambda g: _sessionize_bucket(g, gap_us),
        num_buckets=N_USER_BUCKETS,
    )


# --- sliding windows ---------------------------------------------------------


def events_sliding(
    sf_dir: str, window_hours: int = 2, slide_hours: int = 1
) -> ray.data.Dataset:
    """Sliding-window counts over the events stream: each event lands in
    window_hours/slide_hours consecutive windows; the explode happens
    per batch (vectorized repeat) and the only shuffle is the final
    pre-aggregated groupby. Output: (user_id, window_start_us, n_events,
    sum_value_cents)."""
    w_us = window_hours * 3600 * _US
    s_us = slide_hours * 3600 * _US
    # number of slide-aligned starts in (ts - w, ts]: ceil, not floor —
    # floor silently drops the earliest covering window when w % s != 0
    n_windows = -(-w_us // s_us)

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"].astype("int64").to_numpy()
        cents = np.floor(df["value"].to_numpy() * 100).astype(np.int64)
        uid = df["user_id"].astype("int64").to_numpy()
        # window starts containing ts: last start = ts//s*s, going back
        last_start = (ts // s_us) * s_us
        offs = (np.arange(n_windows, dtype=np.int64) * s_us)[None, :]
        starts = (last_start[:, None] - offs).ravel()
        # a start is valid iff start > ts - w (always true when s | w)
        valid = starts > (np.repeat(ts, n_windows) - w_us)
        part = pd.DataFrame(
            {
                "user_id": np.repeat(uid, n_windows)[valid],
                "window_start_us": starts[valid],
                "n_events": np.ones(int(valid.sum()), dtype=np.int64),
                "sum_value_cents": np.repeat(cents, n_windows)[valid],
            }
        )
        # combiner: collapse within the batch before the shuffle
        out = (
            part.groupby(["user_id", "window_start_us"], sort=False)
            .sum()
            .reset_index()
        )
        return out.astype(
            {"user_id": "int64", "window_start_us": "int64",
             "n_events": "int64", "sum_value_cents": "int64"}
        )

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )
    return bucketed_group_agg(
        ds.map_batches(explode, batch_format="pandas"),
        ["user_id", "window_start_us"],
        {"n_events": ("n_events", "sum"), "sum_value_cents": ("sum_value_cents", "sum")},
    )


# --- funnel analysis (ordered sequence matching) -----------------------------


def _funnel_bucket(
    g: pd.DataFrame, steps: tuple[str, ...], within_us: int
) -> pd.DataFrame:
    """One user bucket → greedy earliest-completion funnel per user:
    step i+1 must occur STRICTLY after the time step i was reached and
    within ``within_us`` of it (ties at the same microsecond do not
    advance the funnel — mirrored by the oracle's ``ts >`` joins).
    Vectorized stepwise: one groupby-min per step over the bucket, never
    a per-user Python loop."""
    ts = g["ts"].astype("int64")
    uid = g["user_id"].astype("int64")
    et = g["event_type"]
    reached: list[pd.Series] = []  # user_id → ts of reaching step i
    cur: pd.Series | None = None
    for i, step in enumerate(steps):
        mask = (et == step).to_numpy()
        sub = pd.DataFrame({"user_id": uid[mask], "ts": ts[mask]})
        if cur is not None:
            prev = sub["user_id"].map(cur)
            sub = sub[prev.notna() & (sub["ts"] > prev) & (sub["ts"] <= prev + within_us)]
        cur = sub.groupby("user_id")["ts"].min()
        if cur.empty:
            break
        reached.append(cur)
    if not reached:
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("user_id", "depth", "start_us", "end_us")}
        )
    users = reached[0].index
    depth = pd.Series(1, index=users, dtype="int64")
    end = reached[0].copy()
    for i, r in enumerate(reached[1:], start=2):
        depth.loc[r.index] = i
        end.loc[r.index] = r
    return pd.DataFrame(
        {
            "user_id": users.astype("int64"),
            "depth": depth.to_numpy(),
            "start_us": reached[0].to_numpy(),
            "end_us": end.to_numpy(),
        }
    )


def events_funnel(
    sf_dir: str,
    steps: tuple[str, ...] = ("view", "click", "purchase"),
    within_hours: int = 24,
) -> ray.data.Dataset:
    """Funnel over the events stream: how far each user progressed
    through an ordered step sequence, earliest-completion semantics
    (reference has nothing like it — engine-added streaming-analytics
    operator, same ordered-scan family as sessionization).

    Scale shape: ONE exchange on the coarse user bucket (reuses the
    sessionize bucketing), then all steps resolve inside the bucket with
    per-step vectorized groupby-mins. Users with no step-1 event emit no
    row; each later step must land within ``within_hours`` of the prior
    step. Output: (user_id, depth, start_us, end_us)."""
    within_us = within_hours * 3600 * _US
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"])
    return bucketed_group_map(
        ds,
        "user_id",
        lambda g: _funnel_bucket(g, steps, within_us),
        num_buckets=N_USER_BUCKETS,
    )


# --- semi / anti joins --------------------------------------------------------


def _recent_order_customers(sf_dir: str, since_us: int) -> ray.data.Dataset:
    """Distinct c_custkey of customers with an order at/after ``since_us``
    — the small side of the semi/anti joins below. Per-batch filter +
    dedup is the combiner: the join then shuffles O(distinct keys), not
    O(orders)."""

    def distinct_keys(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["o_orderdate"].astype("int64")
        keys = df.loc[ts >= since_us, "o_custkey"].drop_duplicates()
        return pd.DataFrame({"c_custkey": keys.astype("int64")})

    return read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    ).map_batches(distinct_keys, batch_format="pandas")


def dormant_customers(
    sf_dir: str, since: str = "2001-06-01"
) -> ray.data.Dataset:
    """Customers with NO order at/after ``since`` — a partitioned ANTI
    join (engine-added; the reference has no joins, SURVEY §2.5). The
    existence probe is `hash_join(how='anti')`: both sides bucket by
    key hash, right side is pre-deduped per batch, and each bucket task
    does one vectorized isin — no driver materialization, O(keys)
    shuffle on the probe side. Output: (c_custkey, c_name,
    acctbal_cents)."""
    since_us = int(pd.Timestamp(since).value // 1_000)

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_custkey": df["c_custkey"].astype("int64"),
                "c_name": df["c_name"],
                "acctbal_cents": np.floor(
                    df["c_acctbal"].to_numpy() * CENTS
                ).astype(np.int64),
            }
        )

    cust = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_acctbal"]
    ).map_batches(project, batch_format="pandas")
    return hash_join(
        cust, _recent_order_customers(sf_dir, since_us), on="c_custkey", how="anti"
    )


def active_segments(sf_dir: str, since: str = "2001-06-01") -> ray.data.Dataset:
    """Market segments of customers WITH an order at/after ``since`` —
    partitioned SEMI join feeding a bucketed rollup. Output:
    (c_mktsegment, n_customers)."""
    since_us = int(pd.Timestamp(since).value // 1_000)
    cust = read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    active = hash_join(
        cust, _recent_order_customers(sf_dir, since_us), on="c_custkey", how="semi"
    )
    counts = active.map_batches(
        lambda df: df.groupby("c_mktsegment", as_index=False).agg(
            n_customers=("c_custkey", "size")
        ),
        batch_format="pandas",
    )
    return bucketed_group_agg(
        counts, ["c_mktsegment"], {"n_customers": ("n_customers", "sum")}
    )


# --- per-user ordered ledger (running totals + lag gaps) ----------------------


def _ledger_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """One coarse user bucket → per-event running purchase-value totals
    and inter-event gaps, vectorized across all users at once (same
    run-length trick as ``_sessionize_bucket``): a per-user cumsum is
    the global cumsum minus the value it had at the user's first row."""
    g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    uid = g["user_id"].astype("int64").to_numpy()
    ts = g["ts"].astype("int64").to_numpy()
    cents = g["cents"].to_numpy()
    n = len(g)
    if n == 0:
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("event_id", "user_id", "ts_us", "running_cents", "gap_us")}
        )
    ustart = np.ones(n, dtype=bool)
    ustart[1:] = uid[1:] != uid[:-1]
    cs = np.cumsum(cents)
    base = cs - cents  # global cumsum just before each row
    # per-row: the base of ITS user's first row
    user_base = base[ustart][np.cumsum(ustart) - 1]
    running = cs - user_base
    gap = np.empty(n, dtype=np.int64)
    gap[0] = -1
    gap[1:] = ts[1:] - ts[:-1]
    gap[ustart] = -1
    return pd.DataFrame(
        {
            "event_id": g["event_id"].astype("int64").to_numpy(),
            "user_id": uid,
            "ts_us": ts,
            "running_cents": running.astype(np.int64),
            "gap_us": gap,
        }
    )


def user_event_ledger(sf_dir: str) -> ray.data.Dataset:
    """Per-event running purchase-value total and inter-event gap per
    user — the batch analogue of a keyed streaming scan with state
    (cumulative aggregate + previous-element watermark), engine-added.
    O(rows) output; ONE exchange on the coarse user bucket.
    Output: (event_id, user_id, ts_us, running_cents, gap_us) where
    gap_us = -1 for each user's first event."""

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "ts": df["ts"],
                "cents": np.floor(df["value"].to_numpy() * CENTS).astype(np.int64),
            }
        )

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    ).map_batches(prep, batch_format="pandas")
    return bucketed_group_map(ds, "user_id", _ledger_bucket, num_buckets=N_USER_BUCKETS)


# --- TPC-H-Q1-style pricing rollup --------------------------------------------


def pricing_summary(sf_dir: str, cutoff: str = "1999-01-01") -> ray.data.Dataset:
    """Multi-key pricing rollup over lineitem (TPC-H Q1 shape): filter on
    ship date, then per-batch partial groupby on (l_returnflag,
    l_linestatus) and one tiny bucketed exchange — the shuffle moves
    O(flag×status × batches) rows. All money in integer cents
    (floor(x*100), matching the oracle bit-for-bit; the float products
    evaluate left-to-right in both numpy and DuckDB so the doubles agree
    exactly). Output: (l_returnflag, l_linestatus, sum_qty,
    sum_base_cents, sum_disc_cents, sum_charge_cents, n_rows)."""
    cutoff_us = int(pd.Timestamp(cutoff).value // 1_000)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        keep = df["l_shipdate"].astype("int64") <= cutoff_us
        df = df.loc[keep]
        price = df["l_extendedprice"].to_numpy()
        disc = df["l_discount"].to_numpy()
        tax = df["l_tax"].to_numpy()
        part = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": np.floor(df["l_quantity"].to_numpy()).astype(np.int64),
                "sum_base_cents": np.floor(price * 100.0).astype(np.int64),
                "sum_disc_cents": np.floor(price * (1.0 - disc) * 100.0).astype(
                    np.int64
                ),
                "sum_charge_cents": np.floor(
                    price * (1.0 - disc) * (1.0 + tax) * 100.0
                ).astype(np.int64),
                "n_rows": np.ones(len(df), dtype=np.int64),
            }
        )
        return part.groupby(
            ["l_returnflag", "l_linestatus"], as_index=False
        ).sum()

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate",
        ],
    )
    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("sum_qty", "sum"),
            "sum_base_cents": ("sum_base_cents", "sum"),
            "sum_disc_cents": ("sum_disc_cents", "sum"),
            "sum_charge_cents": ("sum_charge_cents", "sum"),
            "n_rows": ("n_rows", "sum"),
        },
    )


# --- exact grouped quantiles ----------------------------------------------------

QUANTILE_PCTS = (25, 50, 75)


def _group_quantiles(g: pd.DataFrame, pcts: tuple[int, ...]) -> pd.DataFrame:
    """One coarse bucket of priorities → discrete order-statistic rows,
    vectorized per key: for each quantile q% the value at zero-based rank
    (n-1)*q // 100 of the sorted values — a pure multiset property, so
    the result is independent of tie order and bit-exact in SQL."""
    rows = {"o_orderpriority": [], "q_pct": [], "value_cents": []}
    for key, sub in g.groupby("o_orderpriority", sort=False):
        v = np.sort(sub["cents"].to_numpy(dtype=np.int64), kind="mergesort")
        n = len(v)
        for q in pcts:
            rows["o_orderpriority"].append(key)
            rows["q_pct"].append(q)
            rows["value_cents"].append(int(v[(n - 1) * q // 100]))
    return pd.DataFrame(
        {
            "o_orderpriority": pd.Series(rows["o_orderpriority"], dtype="string"),
            "q_pct": pd.Series(rows["q_pct"], dtype="int64"),
            "value_cents": pd.Series(rows["value_cents"], dtype="int64"),
        }
    )


def priority_price_quantiles(
    sf_dir: str, pcts: tuple[int, ...] = QUANTILE_PCTS
) -> ray.data.Dataset:
    """EXACT per-group quantiles (p25/p50/p75 of order price per
    priority), complementing the mergeable histogram sketch
    (sketches.price_quantiles) with the shuffle-based exact path: one
    key-hash exchange co-locates each group, the order statistic is read
    off the in-group sort. Integer cents end-to-end.

    Scale note: per-group exact quantiles fundamentally need the group's
    values together (or a multi-pass selection); this is the few-groups /
    many-rows shape where one exchange is the right cost. For
    many-groups-huge-group inputs, the histogram sketch is the scale
    path. Output: (o_orderpriority, q_pct, value_cents)."""
    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    ).map_batches(
        lambda df: pd.DataFrame(
            {
                "o_orderpriority": df["o_orderpriority"],
                "cents": np.floor(df["o_totalprice"].to_numpy() * 100).astype(
                    np.int64
                ),
            }
        ),
        batch_format="pandas",
    )
    return bucketed_group_map(
        ds, "o_orderpriority", lambda g: _group_quantiles(g, pcts)
    )


# --- embedding enrichment join --------------------------------------------------


def lang_embedding_centroids(sf_dir: str) -> ray.data.Dataset:
    """Per-language embedding centroid (quantized-exact): embeddings
    joined to their documents' lang via the partitioned hash join, then
    per-(lang, dim) sums of floor(1e6·x) — integer micro-units so the
    reduction is order-free and the oracle value-checks every cell.
    Output: (lang, dim, sum_q, n_vecs); centroid = sum_q / n_vecs / 1e6.

    Scale shape: ONE bucketed join exchange (embedding payloads move
    once) + per-batch dense partial sums (n_langs × 64 rows per batch)
    + a tiny grouped merge — no driver materialization anywhere."""
    def quantize(df: pd.DataFrame) -> pd.DataFrame:
        # list<float> → one binary cell of int64 micro-units per row:
        # a clean Arrow binary column survives the join's pandas blocks
        # (object-dtype ndarray-of-ndarray columns do not)
        if len(df) == 0:  # empty block → stable schema, not a stack error
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "qbytes": pd.Series([], dtype=object),
                }
            )
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        q = np.floor(mat * 1_000_000.0).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": df["vec_id"].astype("int64"),
                "qbytes": pd.Series([r.tobytes() for r in q], dtype=object),
            }
        )

    emb = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(quantize, batch_format="pandas")
    langs = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    joined = hash_join(emb, langs, on="doc_id")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:  # one-sided join bucket → empty block here
            return pd.DataFrame(
                {
                    "lang": pd.Series([], dtype="string"),
                    "dim": pd.Series([], dtype="int64"),
                    "sum_q": pd.Series([], dtype="int64"),
                    "n_vecs": pd.Series([], dtype="int64"),
                }
            )
        q = np.frombuffer(b"".join(df["qbytes"]), dtype=np.int64).reshape(
            len(df), -1
        )
        dim = q.shape[1]
        rows = {"lang": [], "dim": [], "sum_q": [], "n_vecs": []}
        for lang, idx in df.groupby("lang", sort=False).indices.items():
            rows["lang"] += [lang] * dim
            rows["dim"] += list(range(dim))
            rows["sum_q"] += q[idx].sum(axis=0).tolist()
            rows["n_vecs"] += [len(idx)] * dim
        return pd.DataFrame(
            {
                "lang": pd.Series(rows["lang"], dtype="string"),
                "dim": pd.Series(rows["dim"], dtype="int64"),
                "sum_q": pd.Series(rows["sum_q"], dtype="int64"),
                "n_vecs": pd.Series(rows["n_vecs"], dtype="int64"),
            }
        )

    partials = joined.map_batches(partial, batch_format="pandas")
    return bucketed_group_agg(
        partials,
        ["lang", "dim"],
        {"sum_q": ("sum_q", "sum"), "n_vecs": ("n_vecs", "sum")},
    )


# --- star-schema fact rollup (multi-dim broadcast join) -----------------------


class _StarEnricher:
    """lineitem batch → per-(brand, region) revenue partials. The THREE
    dim chains (part→brand; supplier→nation→region name) are composed
    driver-side into two flat lookups and broadcast once — the classic
    star-join: the fact table never shuffles, dims never re-ship."""

    def __init__(self, part_ref, supp_region_ref):
        part = ray.get(part_ref)
        self.part_to_brand = dict(
            zip(part["p_partkey"].to_pylist(), part["p_brand"].to_pylist())
        )
        self.supp_to_region = ray.get(supp_region_ref)

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(
            df["l_extendedprice"].to_numpy()
            * (1.0 - df["l_discount"].to_numpy())
            * 100.0
        ).astype(np.int64)
        part = (
            pd.DataFrame(
                {
                    "p_brand": df["l_partkey"].map(self.part_to_brand),
                    "r_name": df["l_suppkey"].map(self.supp_to_region),
                    "cents": cents,
                }
            )
            .groupby(["p_brand", "r_name"], sort=False, as_index=False)
            .agg(n_items=("cents", "size"), revenue_cents=("cents", "sum"))
        )
        return part.astype({"n_items": "int64", "revenue_cents": "int64"})


def _star_batch(df, part_ref, supp_region_ref):
    key = ("star", part_ref.hex(), supp_region_ref.hex())
    return worker_cached(key, lambda: _StarEnricher(part_ref, supp_region_ref))(df)


def brand_region_revenue(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q9-style star rollup: discounted lineitem revenue per
    (part brand, supplier region). Scale shape: the fact scan is the
    only big movement — dims (part/supplier/nation/region) broadcast
    once via ``ray.put`` after composing the supplier→nation→region
    chain on the driver (all dim tables are lookup-sized; a dim too big
    to broadcast is what hash_join is for). Per-batch combiner → one
    tiny exchange over ≤ |brands|·|regions| rows.
    Output: (p_brand, r_name, n_items, revenue_cents)."""
    part_ref = ray.put(
        pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"])
    )
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    r_name = dict(
        zip(region["r_regionkey"].to_pylist(), region["r_name"].to_pylist())
    )
    n_region = {
        int(nk): r_name[int(rk)]
        for nk, rk in zip(
            nation["n_nationkey"].to_pylist(), nation["n_regionkey"].to_pylist()
        )
    }
    supp_region_ref = ray.put(
        {
            int(sk): n_region[int(nk)]
            for sk, nk in zip(
                supp["s_suppkey"].to_pylist(), supp["s_nationkey"].to_pylist()
            )
        }
    )
    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    partials = ds.map_batches(
        _star_batch,
        fn_kwargs={"part_ref": part_ref, "supp_region_ref": supp_region_ref},
        batch_format="pandas",
    )
    return bucketed_group_agg(
        partials,
        ["p_brand", "r_name"],
        {"n_items": ("n_items", "sum"), "revenue_cents": ("revenue_cents", "sum")},
    )


# --- grouping-sets cube -------------------------------------------------------


class _CubeEnricher:
    """map_batches combiner: orders batch → per-(nation, priority)
    partial aggregates — the FINEST grain of the cube. Dims arrive as
    ObjectRefs (ray.put on the driver); ray.get in the ctor is a
    zero-copy read once per worker process."""

    def __init__(self, cust_ref, nation_ref):
        cust = ray.get(cust_ref)
        nation = ray.get(nation_ref)
        n_name = dict(
            zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
        )
        self.cust_to_nation = {
            c: n_name[n]
            for c, n in zip(
                cust["c_custkey"].to_pylist(), cust["c_nationkey"].to_pylist()
            )
        }

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        part = (
            pd.DataFrame(
                {
                    "n_name": df["o_custkey"].map(self.cust_to_nation),
                    "o_orderpriority": df["o_orderpriority"],
                    "cents": np.floor(
                        df["o_totalprice"].to_numpy() * CENTS
                    ).astype(np.int64),
                }
            )
            .groupby(["n_name", "o_orderpriority"], sort=False, as_index=False)
            .agg(n_orders=("cents", "size"), total_cents=("cents", "sum"))
        )
        return part.astype({"n_orders": "int64", "total_cents": "int64"})


def _cube_batch(df, cust_ref, nation_ref):
    key = ("cube", cust_ref.hex(), nation_ref.hex())
    return worker_cached(key, lambda: _CubeEnricher(cust_ref, nation_ref))(df)


def revenue_cube(sf_dir: str) -> ray.data.Dataset:
    """GROUPING-SETS revenue cube over (nation, order priority): the
    four groupings {(n,p), (n), (p), ()} of order count + total cents,
    masked dims carrying the ``'ALL'`` sentinel — the OLAP rollup the
    reference's per-document world never needs but a corpus-report
    consumer asks of any engine (reference has no aggregation layer at
    all, SURVEY §2.9).

    Scale shape: ONE fact scan with a per-batch combiner → ONE exchange
    at the FINEST (n_name, o_orderpriority) grain. Every coarser set is
    a partition of the finest one, so the cube derives from those base
    rows alone (≤ |nations|·|priorities| of them at ANY corpus size —
    bounded by dim cardinalities, not fact rows) via a 4-way re-mask +
    a second scalar-sized exchange; the fact table is never rescanned.
    Output: (n_name, o_orderpriority, n_orders, total_cents)."""
    cust_ref = ray.put(
        pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    )
    nation_ref = ray.put(
        pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    )
    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority", "o_totalprice"],
    )
    base = bucketed_group_agg(
        ds.map_batches(
            _cube_batch,
            fn_kwargs={"cust_ref": cust_ref, "nation_ref": nation_ref},
            batch_format="pandas",
        ),
        ["n_name", "o_orderpriority"],
        {"n_orders": ("n_orders", "sum"), "total_cents": ("total_cents", "sum")},
    )

    def remask(df: pd.DataFrame) -> pd.DataFrame:
        sets = []
        for mask_n, mask_p in ((False, False), (False, True), (True, False), (True, True)):
            g = df.copy()
            if mask_n:
                g["n_name"] = "ALL"
            if mask_p:
                g["o_orderpriority"] = "ALL"
            sets.append(g)
        out = pd.concat(sets, ignore_index=True)
        return out.astype({"n_orders": "int64", "total_cents": "int64"})

    return bucketed_group_agg(
        base.map_batches(remask, batch_format="pandas"),
        ["n_name", "o_orderpriority"],
        {"n_orders": ("n_orders", "sum"), "total_cents": ("total_cents", "sum")},
    )


# --- interval join (non-equi overlap join via bucket replication) -------------

_US_PER_DAY = 86_400_000_000
#: coarse time-bucket width in days for the interval join's equi exchange;
#: windows replicate to ceil(duration / width) + 1 buckets, so width ≳ the
#: max window duration keeps the replication factor ≤ 2
INTERVAL_BUCKET_DAYS = 32
#: deterministic synthetic window duration: 1 + o_orderkey % 20 days
_INTERVAL_MAX_DUR_DAYS = 20


def _interval_rows(df: pd.DataFrame, bucket_days: int) -> pd.DataFrame:
    """One orders batch → tagged bucket rows for BOTH sides of the join:
    kind=0 window rows [s, e) replicated to every time bucket the window
    overlaps; kind=1 probe rows (the same order's date point) to their
    single bucket. Only int64 columns leave."""
    key = df["o_orderkey"].to_numpy(np.int64)
    day = (df["o_orderdate"].astype("int64").to_numpy() // _US_PER_DAY).astype(
        np.int64
    )
    dur = 1 + key % _INTERVAL_MAX_DUR_DAYS
    s, e = day, day + dur
    # windows: replicate to buckets floor(s/W) .. floor((e-1)/W)
    first, last = s // bucket_days, (e - 1) // bucket_days
    reps = (last - first + 1).astype(np.int64)
    widx = np.repeat(np.arange(len(key)), reps)
    cum = np.cumsum(reps)
    offs = (
        np.arange(int(cum[-1]), dtype=np.int64) - np.repeat(cum - reps, reps)
        if len(reps)
        else np.array([], np.int64)
    )
    wrows = pd.DataFrame(
        {
            "bucket": first[widx] + offs,
            "kind": 0,
            "a": s[widx],
            "b": e[widx],
            "key": key[widx],
        }
    )
    prows = pd.DataFrame(
        {"bucket": day // bucket_days, "kind": 1, "a": day, "b": 0, "key": key}
    )
    return pd.concat([wrows, prows], ignore_index=True).astype("int64")


def _interval_bucket_kernel(g: pd.DataFrame) -> pd.DataFrame:
    """One (or more) complete time buckets: per bucket, sort window starts
    and (exclusive) ends once; every probe t answers
    ``#windows containing t`` with two binary searches —
    count = #(start ≤ t) − #(end ≤ t). Replication guarantees every
    window overlapping the bucket is present exactly once in it."""
    out_key: list[np.ndarray] = []
    out_n: list[np.ndarray] = []
    for _, sub in g.groupby("bucket", sort=False):
        w = sub[sub["kind"] == 0]
        p = sub[sub["kind"] == 1]
        if len(p) == 0:
            continue
        starts = np.sort(w["a"].to_numpy(np.int64))
        ends = np.sort(w["b"].to_numpy(np.int64))
        t = p["a"].to_numpy(np.int64)
        n = np.searchsorted(starts, t, side="right") - np.searchsorted(
            ends, t, side="right"
        )
        out_key.append(p["key"].to_numpy(np.int64))
        out_n.append(n.astype(np.int64))
    if not out_key:
        return pd.DataFrame(
            {"o_orderkey": pd.Series([], dtype="int64"),
             "n_windows": pd.Series([], dtype="int64")}
        )
    return pd.DataFrame(
        {
            "o_orderkey": np.concatenate(out_key),
            "n_windows": np.concatenate(out_n),
        }
    )


def interval_join(
    sf_dir: str, bucket_days: int = INTERVAL_BUCKET_DAYS
) -> ray.data.Dataset:
    """Non-equi INTERVAL JOIN via bucket replication — the general form of
    the range-join family (events_neighbors is the keyed self-join
    special case; this one joins point probes against arbitrary
    overlapping windows with NO shared key). Each order defines a
    deterministic window [o_orderdate, o_orderdate + (1 + o_orderkey %
    20) days); the join counts, for every order's date point, how many
    windows (its own included) contain it.

    Scale shape: the classic replicate-to-bucket rewrite that turns a
    non-equi join into ONE equi exchange — windows are copied to every
    coarse time bucket they overlap (≤ ceil(max_dur / bucket_days) + 1 ≈
    2 copies here), probes go to exactly one bucket, and a single
    bucket-keyed groupby co-locates them; inside a bucket two sorted
    arrays answer all probes with binary searches (no pairwise scan). At
    10^12 rows the exchange width is the bucket count — size
    ``bucket_days`` down for denser data (more, smaller buckets) and up
    for longer windows (less replication); hot buckets (burst days) are
    the skew axis: narrow ``bucket_days`` when one bucket dominates.
    Output: (o_orderkey, n_windows)."""
    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    )
    tagged = orders.map_batches(
        lambda df: _interval_rows(df, bucket_days), batch_format="pandas"
    )
    return bucketed_group_map(tagged, "bucket", _interval_bucket_kernel)


# --- event-type transition matrix (Markov sequence stats) ----------------------


def _transitions_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """One coarse bucket of users → (from_type, to_type, n) partials,
    vectorized across all users at once: adjacent pairs in the
    (user_id, ts, event_id)-sorted stream, masked at user boundaries."""
    g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    uid = g["user_id"].astype("int64").to_numpy()
    et = g["event_type"].to_numpy(object)
    if len(uid) < 2:
        return pd.DataFrame(
            {
                "from_type": pd.Series([], dtype=object),
                "to_type": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
            }
        )
    same = uid[1:] == uid[:-1]
    pairs = pd.DataFrame({"from_type": et[:-1][same], "to_type": et[1:][same]})
    out = pairs.groupby(["from_type", "to_type"], as_index=False).size()
    return out.rename(columns={"size": "n"}).astype({"n": "int64"})


def event_transitions(sf_dir: str) -> ray.data.Dataset:
    """First-order Markov transition counts over every user's event
    stream: how often event type A is immediately followed by B for the
    same user (ordered by (ts, event_id)) — the sequence-mining
    primitive behind funnel discovery, next-action models and bot
    detection (bots have near-degenerate transition rows).

    Scale shape: ONE user-bucket exchange co-locates each user's events
    (the events_sessions idiom — per-bucket work is a single mergesort +
    boundary-masked adjacent-pair count, no per-user python); per-bucket
    (from, to) partials then collapse in ONE tiny grouped sum bounded by
    |event types|² rows, never by the stream length.
    Output: (from_type, to_type, n)."""
    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    partials = bucketed_group_map(
        ds, "user_id", _transitions_bucket, num_buckets=N_USER_BUCKETS
    )
    return bucketed_group_agg(
        partials, ["from_type", "to_type"], {"n": ("n", "sum")}
    )


# --- first-touch session attribution ------------------------------------------


def _attribution_bucket(g: pd.DataFrame, gap_us: int) -> pd.DataFrame:
    """One user bucket → (first_type, n_sessions, revenue_cents)
    partials, fully vectorized: session boundaries by run-length (user
    change OR gap), first event type at each session start, purchase
    cents credited to the session via one ``np.add.at`` scatter."""
    g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    ts = g["ts"].astype("int64").to_numpy()
    uid = g["user_id"].astype("int64").to_numpy()
    n = len(ts)
    if n == 0:
        return pd.DataFrame(
            {
                "first_type": pd.Series([], dtype=object),
                "n_sessions": pd.Series([], dtype="int64"),
                "revenue_cents": pd.Series([], dtype="int64"),
            }
        )
    new = np.ones(n, dtype=bool)
    new[1:] = (uid[1:] != uid[:-1]) | (ts[1:] - ts[:-1] > gap_us)
    sid = np.cumsum(new) - 1  # 0-based session ordinal within the bucket
    et = g["event_type"].to_numpy(object)
    first_type = et[new]
    cents = np.floor(g["value"].to_numpy() * 100).astype(np.int64)
    cents[et != "purchase"] = 0
    rev = np.zeros(int(sid[-1]) + 1, dtype=np.int64)
    np.add.at(rev, sid, cents)
    part = pd.DataFrame({"first_type": first_type, "revenue_cents": rev})
    out = part.groupby("first_type", as_index=False).agg(
        n_sessions=("revenue_cents", "size"), revenue_cents=("revenue_cents", "sum")
    )
    return out.astype({"n_sessions": "int64", "revenue_cents": "int64"})


def session_attribution(sf_dir: str, gap_hours: int = 8) -> ray.data.Dataset:
    """First-touch attribution over gap-sessionized event streams: every
    session's purchase revenue (integer cents, floor(value·100)) is
    credited to the TYPE of the session's first event — the
    marketing-analytics composition of session windows + keyed rollup
    ("which entry action do converting sessions start with?").

    Scale shape: the events_sessions idiom — ONE user-bucket exchange,
    vectorized run-length sessionization + one scatter-add per bucket,
    then a tiny (first_type) grouped sum (≤ |event types| rows). Output:
    (first_type, n_sessions, revenue_cents)."""
    gap_us = gap_hours * 3600 * _US
    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )
    partials = bucketed_group_map(
        ds,
        "user_id",
        lambda g: _attribution_bucket(g, gap_us),
        num_buckets=N_USER_BUCKETS,
    )
    return bucketed_group_agg(
        partials,
        ["first_type"],
        {"n_sessions": ("n_sessions", "sum"), "revenue_cents": ("revenue_cents", "sum")},
    )


# --- shipping-priority revenue (the TPC-H Q3 shape) ----------------------------

SHIPPING_CUTOFF = "1998-06-01"
SHIPPING_SEGMENT = "BUILDING"
SHIPPING_TOPK = 10


def shipping_priority(
    sf_dir: str,
    segment: str = SHIPPING_SEGMENT,
    cutoff: str = SHIPPING_CUTOFF,
    k: int = SHIPPING_TOPK,
) -> ray.data.Dataset:
    """TPC-H Q3's plan shape — the canonical 3-table analytic join:
    customers of one market segment ⋈ their orders placed BEFORE the
    cutoff ⋈ lineitems shipped AFTER it, revenue = Σ ep_cents ·
    (10000 − disc_bp) integer micro-units, top-k order groups by
    (revenue DESC, o_orderdate ASC, l_orderkey ASC).

    Scale shape: segment custkeys are the tiny side — broadcast ONCE,
    orders filter shuffle-free; lineitem (the 10^12-row fact) pre-
    aggregates revenue per orderkey INSIDE each batch, then meets the
    kept orders through ``lookup_join`` (broadcast while they pass
    ``agg.fits_broadcast``, else ``hash_join``). ``agg.bucketed_top_k``
    then runs ONE exchange on ``l_orderkey`` whose reduce sums revenue
    and keeps each bucket's top-k, and merges the ≤ shuffle_width()·k
    partial rows on the driver — never the order count. Below the gate
    that is the query's one all-to-all. Output: (l_orderkey,
    o_orderdate_us, o_orderpriority, revenue_micro)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as _pq

    cutoff_us = int(pd.Timestamp(cutoff).value // 1_000)

    seg = _pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    keys = pc.filter(
        seg["c_custkey"], pc.equal(seg["c_mktsegment"], segment)
    ).to_numpy(zero_copy_only=False).astype(np.int64)
    keys_ref = ray.put(keys)

    orders = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    )

    def keep_orders(df: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(keys_ref)
        date_us = df["o_orderdate"].astype("int64").to_numpy()
        cust = df["o_custkey"].astype("int64").to_numpy()
        hit = np.isin(cust, ks) & (date_us < cutoff_us)
        out = df.loc[hit, ["o_orderkey", "o_orderdate", "o_orderpriority"]].copy()
        out["o_orderdate_us"] = out["o_orderdate"].astype("int64")
        return out.drop(columns=["o_orderdate"]).astype({"o_orderkey": "int64"})

    kept = orders.map_batches(keep_orders, batch_format="pandas")

    li = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def rev_partial(df: pd.DataFrame) -> pd.DataFrame:
        ship = df["l_shipdate"].astype("int64").to_numpy()
        m = ship > cutoff_us
        if not m.any():
            return pd.DataFrame(
                {
                    "l_orderkey": pd.Series([], dtype="int64"),
                    "revenue_micro": pd.Series([], dtype="int64"),
                }
            )
        ep = np.floor(df["l_extendedprice"].to_numpy()[m] * 100).astype(np.int64)
        bp = np.floor(df["l_discount"].to_numpy()[m] * 10_000).astype(np.int64)
        part = pd.DataFrame(
            {
                "l_orderkey": df["l_orderkey"].astype("int64").to_numpy()[m],
                "revenue_micro": ep * (10_000 - bp),
            }
        )
        return part.groupby("l_orderkey", as_index=False).agg(
            revenue_micro=("revenue_micro", "sum")
        )

    rev = li.map_batches(rev_partial, batch_format="pandas")
    joined = lookup_join(rev, kept, on="l_orderkey", right_on="o_orderkey")
    return bucketed_top_k(
        joined,
        "l_orderkey",
        group_agg(
            ["l_orderkey", "o_orderdate_us", "o_orderpriority"],
            {"revenue_micro": ("revenue_micro", "sum")},
        ),
        by=["revenue_micro", "o_orderdate_us", "l_orderkey"],
        ascending=[False, True, True],
        k=k,
        schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("o_orderdate_us", pa.int64()),
                ("o_orderpriority", pa.string()),
                ("revenue_micro", pa.int64()),
            ]
        ),
        what="shipping_priority partial top-k",
    )


def _conversion_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """One user bucket → (prev2_type, prev1_type, n) partials for every
    same-user event TRIPLE whose third event is a purchase — two shifted
    views of the sorted stream, boundary-masked, no per-user python."""
    g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    uid = g["user_id"].astype("int64").to_numpy()
    et = g["event_type"].to_numpy(object)
    n = len(uid)
    if n < 3:
        return pd.DataFrame(
            {
                "prev2_type": pd.Series([], dtype=object),
                "prev1_type": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
            }
        )
    same = (uid[2:] == uid[1:-1]) & (uid[1:-1] == uid[:-2])
    hit = same & (et[2:] == "purchase")
    pairs = pd.DataFrame(
        {"prev2_type": et[:-2][hit], "prev1_type": et[1:-1][hit]}
    )
    out = pairs.groupby(["prev2_type", "prev1_type"], as_index=False).size()
    return out.rename(columns={"size": "n"}).astype({"n": "int64"})


def conversion_paths(sf_dir: str) -> ray.data.Dataset:
    """Second-order conversion-path counts: for every purchase, the two
    events the same user performed immediately before it — the
    path-to-conversion table marketing funnels and next-action models
    read ("what two steps precede buying?"). Extends
    ``event_transitions`` to order-2 paths anchored on an outcome.

    Scale shape: identical to event_transitions — ONE user-bucket
    exchange, two shifted boundary-masked views per bucket, ONE grouped
    sum bounded by |types|². Output: (prev2_type, prev1_type, n)."""
    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    partials = bucketed_group_map(
        ds, "user_id", _conversion_bucket, num_buckets=N_USER_BUCKETS
    )
    return bucketed_group_agg(
        partials, ["prev2_type", "prev1_type"], {"n": ("n", "sum")}
    )
