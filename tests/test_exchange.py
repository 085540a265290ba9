"""The exchange layer (pipelines/agg.py): bucket tag, shuffle width,
broadcast gate, gathered-state gate, the bounded per-worker cache and
the bounded driver pull; and the broadcast-or-join
``relational.lookup_join`` built on them."""

import uuid
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray
import ray.data

from zerox_ray.pipelines import agg, relational, similarity


def _ids(col, n):
    return agg._bucket_ids(col, n).tolist()


def test_bucket_ids_int64_match_scalar_mod():
    vals = [0, 1, -1, -17, 63, 2**53 + 1, 2**63 - 1, -(2**63)]
    for n in (1, 7, 64):
        want = [v % n for v in vals]
        assert _ids(pa.array(vals, pa.int64()), n) == want
        # chunked columns (what a batch table holds) tag the same
        chunked = pa.chunked_array([vals[:3], vals[3:]], pa.int64())
        assert _ids(chunked, n) == want


def test_bucket_ids_strings_match_scalar_crc32():
    vals = ["", "a", "https://example.org/doc/17", "ünïcödé", "x" * 300]
    for typ in (pa.string(), pa.large_string()):
        for n in (1, 16, 257):
            want = [zlib.crc32(v.encode()) % n for v in vals]
            assert _ids(pa.array(vals, typ), n) == want


def test_bucket_ids_all_null_and_empty():
    # a null key hashes as str(None), its value in a pandas object column
    none = zlib.crc32(b"None") % 16
    assert _ids(pa.nulls(3), 16) == [none] * 3
    assert _ids(pa.array([None, None], pa.string()), 16) == [none] * 2
    for typ in (pa.int64(), pa.string(), pa.null()):
        assert _ids(pa.array([], typ), 16) == []
        assert _ids(pa.chunked_array([], typ), 16) == []


def test_shuffle_width():
    full = agg.shuffle_width()
    assert full >= 8
    assert agg.shuffle_width(0) == 8
    assert agg.shuffle_width(10_000 * (full - 8) + 9_999) == full
    assert agg.shuffle_width(10**12) == full


def test_coalesce_width():
    assert agg.coalesce_width(0) == 8
    assert agg.coalesce_width(250_000 * 5 + 1) == 13
    assert agg.coalesce_width(10**12) == 1024


def test_fits_broadcast_reads_the_constant_at_call_time(monkeypatch):
    assert agg.fits_broadcast(0)
    assert agg.fits_broadcast(1 << 30)
    assert not agg.fits_broadcast((1 << 30) + 1)
    monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)
    assert not agg.fits_broadcast(0)


def test_worker_cached_stays_within_cap(monkeypatch):
    monkeypatch.setattr(agg, "_WORKER_CACHE", {})
    built = []
    for i in range(agg.WORKER_CACHE_MAX + 3):
        assert agg.worker_cached(("k", i), lambda i=i: built.append(i) or i) == i
        assert len(agg._WORKER_CACHE) <= agg.WORKER_CACHE_MAX
    assert len(agg._WORKER_CACHE) == agg.WORKER_CACHE_MAX
    # FIFO: the oldest entries went first; a hit does not rebuild
    assert ("k", 0) not in agg._WORKER_CACHE
    last = agg.WORKER_CACHE_MAX + 2
    assert agg.worker_cached(("k", last), lambda: -1) == last
    assert built == list(range(agg.WORKER_CACHE_MAX + 3))


def test_per_batch_state_goes_through_the_bounded_cache(monkeypatch):
    monkeypatch.setattr(agg, "_WORKER_CACHE", {})
    cust = pa.table({"c_custkey": [1, 2], "c_nationkey": [0, 1]})
    nation = pa.table({"n_nationkey": [0, 1], "n_name": ["A", "B"]})
    orders = pd.DataFrame({"o_custkey": [1, 2, 2], "o_totalprice": [1.0, 2.0, 3.0]})
    for _ in range(agg.WORKER_CACHE_MAX + 2):  # a new broadcast per query
        out = relational._enrich_batch(orders, ray.put(cust), ray.put(nation))
        assert out.set_index("n_name")["n_orders"].to_dict() == {"A": 1, "B": 2}
        assert len(agg._WORKER_CACHE) <= agg.WORKER_CACHE_MAX
    assert {k[0] for k in agg._WORKER_CACHE} == {"nation"}

    queries = ray.put((np.array([0], np.int64), np.array([[1.0, 0.0]])))
    emb = pd.DataFrame(
        {"vec_id": [0, 1, 2], "embedding": [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]}
    )
    top = similarity._topk_partial_batch(emb, queries, 1)
    assert top["neighbor_id"].tolist() == [2]
    assert ("bf", queries.hex(), 1) in agg._WORKER_CACHE
    assert len(agg._WORKER_CACHE) <= agg.WORKER_CACHE_MAX


def test_bucketed_group_map_calls_fn_once_per_residue():
    """Each ``fn`` call gets exactly the rows of one residue ``key % N``
    (Python semantics, so negative keys too), never the ``__b`` tag, and
    the output blocks carry no pandas schema metadata. The per-user
    events kernels and ``_neighbors_bucket``'s int64 guard rely on this
    bucket composition."""
    n = 7
    edge = [-(2**63), -(2**53) - 3, -15, -8, -1, 0, 1, 6, 7]
    edge += [2**53 + 1, 2**53 + 8, 2**62 + 5, 2**63 - 1]
    keys = edge * 3 + list(range(-40, 40, 3))
    blocks = [pa.table({"k": pa.array(keys[i::4], pa.int64())}) for i in range(4)]

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "k": g["k"].astype("int64"),
                "call": uuid.uuid4().hex,
                "cols": ",".join(g.columns),
            }
        )

    out = agg.bucketed_group_map(ray.data.from_arrow(blocks), "k", fn, num_buckets=n)
    mat = out.materialize()
    for ref in mat.iter_internal_ref_bundles():
        for block_ref, _ in ref.blocks:
            assert ray.get(block_ref).schema.metadata is None

    got = mat.to_pandas()
    assert sorted(got["k"].tolist()) == sorted(keys)
    assert set(got["cols"]) == {"k"}
    residue = got["k"].map(lambda v: int(v) % n)
    assert residue.groupby(got["call"]).nunique().eq(1).all()
    assert got["call"].groupby(residue).nunique().eq(1).all()
    assert set(residue) == {int(v) % n for v in keys}


def _schemaless_empty() -> ray.data.Dataset:
    """A rowless dataset with no schema (a group exchange over an empty
    stream emits one)."""
    return agg.bucketed_group_agg(
        ray.data.from_pandas(pd.DataFrame({"k": [1]})).filter(lambda r: False),
        ["k"],
        {"n": ("k", "size")},
    )


def test_gathered_runs_one_task_over_every_block(monkeypatch):
    # two inputs of several blocks each, one of them rowless and
    # schemaless: the kernel sees each input as one metadata-free table
    a = ray.data.from_pandas(
        [pd.DataFrame({"x": [1, 2]}), pd.DataFrame({"x": [], "y": []}), pd.DataFrame({"x": [3]})]
    ).materialize()
    b = _schemaless_empty().materialize()

    def kernel(ta: pa.Table, tb: pa.Table) -> pa.Table:
        assert ta.schema.metadata is None and tb.num_columns == 0
        return pa.table({"s": [int(np.sum(ta["x"].to_numpy()))], "n": [tb.num_rows]})

    out = agg.gathered(kernel, a, b)
    assert out.num_blocks() == 1
    assert out.to_pandas().to_dict("list") == {"s": [6], "n": [0]}
    # the bound is on the inputs' summed block bytes, inclusive
    nbytes = a.size_bytes() + b.size_bytes()
    monkeypatch.setattr(agg, "GATHER_MAX_BYTES", nbytes)
    assert agg.gathered(kernel, a, b) is not None
    monkeypatch.setattr(agg, "GATHER_MAX_BYTES", nbytes - 1)
    assert agg.gathered(kernel, a, b) is None
    monkeypatch.undo()
    monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)
    assert agg.gathered(kernel, a, b) is None


def test_collect_bounded_raises_one_row_over_its_bound():
    ds = ray.data.from_pandas([pd.DataFrame({"x": range(i, i + 4)}) for i in (0, 4, 8)])
    assert sorted(agg.collect_bounded(ds, 12, "probe pull")["x"]) == list(range(12))
    with pytest.raises(ValueError, match="probe pull"):
        agg.collect_bounded(ds, 11, "probe pull")


def _rows(ds: ray.data.Dataset) -> tuple[list[str], list[tuple]]:
    """Column names and the rows in a canonical order, nulls as None."""
    df = ds.to_pandas()
    cols = sorted(df.columns)
    rows = [
        tuple(None if pd.isna(v) else v for v in row)
        for row in df[cols].astype(object).itertuples(index=False)
    ]
    return cols, sorted(rows, key=repr)


class TestLookupJoin:
    """``relational.lookup_join`` emits ``hash_join``'s rows on both of
    its paths: the broadcast (default, every right side here is small)
    and the partitioned join (forced by ``BROADCAST_MAX_BYTES = -1``)."""

    BIG = 2**53
    HOWS = ("inner", "left", "semi", "anti")

    @staticmethod
    def _left(keys, n_blocks=2):
        df = pd.DataFrame({"k": keys, "a": np.arange(len(keys), dtype=np.int64)})
        return ray.data.from_pandas(np.array_split(df, n_blocks))

    def _check(self, monkeypatch, path, left, right, right_on=None):
        """lookup_join(left, right) against hash_join on the renamed
        right, for every supported ``how``."""
        if path == "join":
            monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)
        renamed = right
        if right_on is not None and right.schema() is not None:
            renamed = relational.rename_columns(right, {right_on: "k"})
        for how in self.HOWS:
            got = relational.lookup_join(left, right, on="k", how=how, right_on=right_on)
            want = relational.hash_join(left, renamed, on="k", how=how)
            assert _rows(got) == _rows(want), how

    def _int_right(self, key="k"):
        big = self.BIG
        return ray.data.from_arrow(
            pa.table(
                {
                    key: pa.array([big + 1, 2**62 + 7, 5, big + 3, 5], pa.int64()),
                    "v": pa.array([2**60 + 1, None, 7, 8, 2**61 + 3], pa.int64()),
                    "s": pa.array(["p", "q", None, "r", "s"], pa.string()),
                }
            )
        )

    @pytest.mark.parametrize("path", ["broadcast", "join"])
    def test_int64_keys_above_2_53_with_null_values(self, monkeypatch, path):
        big = self.BIG
        left = self._left([big + 1, big + 2, 5, 2**62 + 7, 9, big + 1])
        self._check(monkeypatch, path, left, self._int_right())
        # exact values above 2^53 come through the value column too
        got = relational.lookup_join(left, self._int_right(), on="k").to_pandas()
        assert sorted(got.loc[got["k"] == big + 1, "v"].tolist()) == [2**60 + 1] * 2

    @pytest.mark.parametrize("path", ["broadcast", "join"])
    def test_string_keys(self, monkeypatch, path):
        left = ray.data.from_pandas(
            [
                pd.DataFrame({"k": ["h1.example", "h2.example"], "a": [1, 2]}),
                pd.DataFrame({"k": ["ünï", "h1.example", "zz"], "a": [3, 4, 5]}),
            ]
        )
        right = ray.data.from_arrow(
            pa.table({"k": ["h1.example", "ünï", "nope"], "deg": [3, 1, 9]})
        )
        self._check(monkeypatch, path, left, right)

    @pytest.mark.parametrize("path", ["broadcast", "join"])
    def test_right_on(self, monkeypatch, path):
        left = self._left([self.BIG + 1, 5, 6])
        self._check(monkeypatch, path, left, self._int_right(key="v_key"), right_on="v_key")

    @pytest.mark.parametrize("path", ["broadcast", "join"])
    def test_right_with_a_rowless_schemaless_block(self, monkeypatch, path):
        right = _schemaless_empty().union(self._int_right())
        left = self._left([self.BIG + 1, 5, 6, 2**62 + 7])
        self._check(monkeypatch, path, left, right)

    @pytest.mark.parametrize("path", ["broadcast", "join"])
    def test_empty_right(self, monkeypatch, path):
        left = self._left([1, 2, 3])
        typed = ray.data.from_arrow(
            pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
        )
        self._check(monkeypatch, path, left, typed)
        self._check(monkeypatch, path, left, _schemaless_empty())

    def test_rejects_right_row_emitting_joins(self):
        with pytest.raises(ValueError, match="not supported"):
            relational.lookup_join(self._left([1]), self._left([1]), on="k", how="outer")

    @staticmethod
    def _path(monkeypatch, path):
        if path == "join":
            monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)

    @pytest.mark.parametrize("path", ["broadcast", "join"])
    def test_nullable_int64_pandas_side_above_2_53(self, monkeypatch, path):
        # a pandas-built side with a nullable Int64 column joins as the
        # same rows built in Arrow do, exact above 2^53
        self._path(monkeypatch, path)
        left = self._left([1, 2, 3])
        v = [2**60 + 1, None]
        from_pandas = ray.data.from_pandas(
            pd.DataFrame({"k": [1, 2], "v": pd.array(v, dtype="Int64")})
        )
        from_arrow = ray.data.from_arrow(
            pa.table({"k": pa.array([1, 2], pa.int64()), "v": pa.array(v, pa.int64())})
        )
        for how in self.HOWS:
            got = relational.lookup_join(left, from_pandas, on="k", how=how)
            want = relational.lookup_join(left, from_arrow, on="k", how=how)
            assert _rows(got) == _rows(want), how
        got = relational.lookup_join(left, from_pandas, on="k", how="left").to_pandas()
        assert got.sort_values("k")["v"].tolist()[0] == 2**60 + 1

    @pytest.mark.parametrize("path", ["broadcast", "join"])
    def test_rowless_results_are_typed_arrow(self, monkeypatch, path):
        # the text side comes from a pandas stage (object columns, no
        # Arrow type in its schema); a batch or bucket with no match
        # emits a typed Arrow block, which Ray can size
        self._path(monkeypatch, path)
        docs = ray.data.from_pandas(
            [pd.DataFrame({"k": np.arange(i, i + 8, dtype=np.int64)}) for i in (0, 8)]
        ).map_batches(
            lambda df: df.assign(text=[f"doc {k}" for k in df["k"]]), batch_format="pandas"
        )
        nothing = self._left([100, 101, 102, 103], n_blocks=2)
        for how in ("inner", "semi"):
            out = relational.lookup_join(nothing, docs, on="k", how=how).materialize()
            blocks = ray.get(agg.block_refs(out))
            assert blocks and all(isinstance(b, pa.Table) and b.num_rows == 0 for b in blocks)
            if how == "inner":
                assert {b.schema.field("text").type for b in blocks} == {pa.string()}
        some = self._left([1, 100, 3, 101], n_blocks=2)
        got = relational.lookup_join(some, docs, on="k").to_pandas()
        assert sorted(got["text"]) == ["doc 1", "doc 3"]

    #: null keys on both sides: a null key matches a null key, as the
    #: pandas merge did before the Arrow kernel; rows as (k, a, v)
    NULL_KEY_ROWS = {
        "inner": [(None, 1, 10), (None, 3, 10), (2, 2, 20), (2, 2, 21)],
        "left": [(1, 0, None), (None, 1, 10), (None, 3, 10), (2, 2, 20), (2, 2, 21), (3, 4, None)],
        "semi": [(None, 1), (None, 3), (2, 2)],
        "anti": [(1, 0), (3, 4)],
    }

    @pytest.mark.parametrize("path", ["broadcast", "join"])
    def test_null_keys_match_null_keys(self, monkeypatch, path):
        self._path(monkeypatch, path)
        left = ray.data.from_arrow(
            pa.table({"k": pa.array([1, None, 2, None, 3], pa.int64()), "a": np.arange(5)})
        )
        right = ray.data.from_arrow(
            pa.table({"k": pa.array([None, 2, 2, 4], pa.int64()), "v": [10, 20, 21, 40]})
        )
        for how, want in self.NULL_KEY_ROWS.items():
            got = relational.lookup_join(left, right, on="k", how=how).to_pandas()
            cols = ["k", "a", "v"][: len(want[0])]
            assert list(got.columns) == cols, how
            rows = [
                tuple(None if pd.isna(x) else int(x) for x in r)
                for r in got[cols].astype(object).itertuples(index=False)
            ]
            assert sorted(rows, key=repr) == sorted(want, key=repr), how

    @pytest.mark.parametrize("path", ["broadcast", "join"])
    def test_duplicate_right_keys_in_merge_order(self, path):
        # one block a side and one bucket (the join path is hash_join's
        # with one bucket): rows come in left order, then right order
        # within a key, as pandas merges them
        left = self._left([5, 7, 5, 9], n_blocks=1)
        right = ray.data.from_pandas(
            pd.DataFrame({"k": [5, 7, 5, 5], "v": [0, 1, 2, 3], "a": [9, 9, 9, 9]})
        )
        want = {
            "inner": [(0, 0), (0, 2), (0, 3), (1, 1), (2, 0), (2, 2), (2, 3)],
            "left": [(0, 0), (0, 2), (0, 3), (1, 1), (2, 0), (2, 2), (2, 3), (3, None)],
        }
        for how, pairs in want.items():
            if path == "join":
                got = relational.hash_join(left, right, on="k", how=how, num_buckets=1)
            else:
                got = relational.lookup_join(left, right, on="k", how=how)
            got = got.to_pandas()
            # a name on both sides gets the merge suffixes
            assert list(got.columns) == ["k", "a_x", "v", "a_y"]
            got_pairs = [
                (a, None if pd.isna(v) else int(v)) for a, v in zip(got["a_x"], got["v"])
            ]
            assert got_pairs == pairs, how

    @pytest.mark.parametrize("path", ["broadcast", "join"])
    def test_list_float_payload(self, monkeypatch, path):
        # the embedding joins carry list<float> columns, which the kernel
        # gathers with take (Acero's join rejects them as payload)
        self._path(monkeypatch, path)
        right = ray.data.from_arrow(
            pa.table(
                {
                    "k": pa.array([1, 2, 4], pa.int64()),
                    "emb": pa.array([[0.5, 1.5], [2.5, -1.0], [0.0, 0.0]], pa.list_(pa.float32())),
                }
            )
        )
        want = {1: [0.5, 1.5], 2: [2.5, -1.0]}
        for how, keys in (("inner", [1, 2, 3, 2]), ("left", [2, 1, 2])):
            got = relational.lookup_join(self._left(keys), right, on="k", how=how).to_pandas()
            rows = sorted((int(k), a, list(e)) for k, a, e in zip(got["k"], got["a"], got["emb"]))
            assert rows == sorted((k, a, want[k]) for a, k in enumerate(keys) if k in want), how
        # a left join that leaves rows unmatched, in a block with matches
        # and in one without: the list column keeps its type, with nulls
        keys = [2, 3, 1, 3]
        got = relational.lookup_join(self._left(keys), right, on="k", how="left").to_pandas()
        assert got["emb"].dtype == pd.ArrowDtype(pa.list_(pa.float32()))
        rows = sorted(
            (int(k), a, None if e is pd.NA else list(e))
            for k, a, e in zip(got["k"], got["a"], got["emb"])
        )
        assert rows == sorted((k, a, want.get(k)) for a, k in enumerate(keys))

    def test_rowless_pandas_blocks_keep_int64_exact(self):
        # rowless, columnless pandas blocks (what a pandas group stage
        # emits for an empty bucket) pass the side tags untouched and
        # can make Ray's sort reduce concatenate a bucket in pandas: the
        # other side's pads must not null an int column there
        left = ray.data.from_pandas(
            [pd.DataFrame({"k": [0, 3], "big": [2**60 + 1, 2**62 + 7]})] + [pd.DataFrame()] * 3
        ).map_batches(lambda df: df[df["k"] >= 0], batch_format="pandas")
        right = ray.data.from_pandas(
            [pd.DataFrame({"k": np.arange(i, i + 5), "blob": [b"x"] * 5}) for i in (0, 5)]
        ).map_batches(lambda df: df, batch_format="pandas")
        got = relational.hash_join(left, right, on="k", num_buckets=4).to_pandas()
        assert sorted(got["big"].tolist()) == [2**60 + 1, 2**62 + 7]
        assert str(got["big"].dtype) == "int64"


#: the functions that call ``relational.hash_join`` directly: the join
#: path of ``lookup_join`` and the fact⋈fact joins whose right side is
#: payload streamed into the exchange (each named in its docstring)
HASH_JOIN_CALLERS = {
    "lookup_join",
    "revenue_by_priority",
    "_verify_pairs_by_join",
    "_verify_containment_by_join",
    "_verify_vec_pairs_by_join",
}


def test_keyed_lookups_go_through_lookup_join():
    """Every ``hash_join(`` call in ``zerox_ray/pipelines`` sits in
    ``lookup_join`` or in a fact⋈fact site ``hash_join``'s docstring
    names; any other keyed lookup calls ``lookup_join``, whose gate
    broadcasts a small right side with no join exchange or schema
    probe."""
    import ast
    import pathlib

    def calls(tree) -> set[int]:
        return {
            n.lineno
            for n in ast.walk(tree)
            if isinstance(n, ast.Call)
            and "hash_join" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
        }

    stray = []
    for path in sorted(pathlib.Path(relational.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set().union(
            *(
                calls(fn)
                for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name in HASH_JOIN_CALLERS
            )
        )
        stray += [f"{path.name}:{line}" for line in sorted(calls(tree) - allowed)]
    assert not stray, f"hash_join called outside lookup_join and the fact⋈fact sites: {stray}"
    for name in HASH_JOIN_CALLERS - {"lookup_join"}:
        assert name in relational.hash_join.__doc__, name
