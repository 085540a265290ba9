"""The exchange layer (pipelines/agg.py): bucket tag, shuffle width,
broadcast gate and the bounded per-worker cache."""

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from zerox_ray.pipelines import agg, relational, similarity
from zerox_ray.stages.reassemble import _cached_model


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

    model = _cached_model("deterministic", {"prior_tail_chars": 8})
    assert model in agg._WORKER_CACHE.values()
    assert len(agg._WORKER_CACHE) <= agg.WORKER_CACHE_MAX
