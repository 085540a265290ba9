"""Regression tests for review-found edge cases."""

import numpy as np
import pandas as pd
import pytest

from zerox_ray.functions.schema import validate_llm_params
from zerox_ray.models.mock import DeterministicExtractorModel
from zerox_ray.pipelines.dataops import _quality_batch
from zerox_ray.pipelines.relational import _asof_bucket
from zerox_ray.stages.reassemble import _cached_model


def test_asof_bucket_purchases_without_views():
    g = pd.DataFrame(
        {
            "event_id": [1, 2],
            "user_id": [7, 7],
            "ts": pd.to_datetime([1_000_000, 2_000_000], unit="us"),
            "event_type": ["purchase", "purchase"],
        }
    )
    out = _asof_bucket(g)
    assert list(out.view_ts_us) == [-1, -1]


def test_cached_model_accepts_unhashable_kwargs():
    m1 = _cached_model("deterministic", {"prior_tail_chars": 8})
    m2 = _cached_model("deterministic", {"prior_tail_chars": 8})
    assert m1 is m2  # cache hit with a plain dict key


def test_hyperplane_bander_n_bits_variants():
    from zerox_ray.pipelines.dedup import HyperplaneBander

    emb = pd.DataFrame(
        {"vec_id": [0, 1], "embedding": [np.ones(8, np.float32), -np.ones(8, np.float32)]}
    )
    for n_bits in (16, 32, 128):
        out = HyperplaneBander(dim=8, n_bits=n_bits)(emb)
        assert len(out) == 2 * (n_bits // 16)
        assert out.key.between(0, 65535).all()
    with pytest.raises(ValueError, match="multiple of 16"):
        HyperplaneBander(dim=8, n_bits=10)


def test_sliding_nondivisible_counts_every_window(sf_dir):
    from zerox_ray.pipelines.relational import events_sliding

    import pyarrow.parquet as pq

    got = events_sliding(sf_dir, window_hours=3, slide_hours=2).to_pandas()
    n_events = pq.read_metadata(f"{sf_dir}/events.parquet").num_rows
    # w=3h s=2h: an event at offset t within its slide period is covered
    # by 2 windows iff t < 1h, else 1 → total strictly between n and 2n
    assert n_events < got.n_events.sum() < 2 * n_events


def test_quality_zero_token_doc():
    import pyarrow as pa

    out = _quality_batch(
        pa.table({"doc_id": pa.array([0], pa.int64()), "text": pa.array(["12345 !!"], pa.string())})
    ).to_pandas()
    assert out.stop_ratio_ppm.dtype == "int64"
    assert out.stop_ratio_ppm.iloc[0] == 0 and out.avg_token_len_ppm.iloc[0] == 0


def test_validate_llm_params_bool_number_confusion():
    with pytest.raises(ValueError):
        validate_llm_params({"logprobs": 1.5}, "openai")
    with pytest.raises(ValueError):
        validate_llm_params({"temperature": True}, "openai")
    assert validate_llm_params({"logprobs": True}, "openai")["logprobs"] is True


def test_prior_tail_zero_disables_conditioning():
    m = DeterministicExtractorModel(prior_tail_chars=0)
    c = m.complete(b"<p>hello</p>", "sheet")
    assert c.tail == ""


def _pages_ds(rows):
    """In-memory pages table from (url, html) pairs."""
    import pyarrow as pa
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array([u for u, _ in rows], pa.string()),
                "html": pa.array([h for _, h in rows], pa.binary()),
            }
        )
    )


def _link_html(targets):
    return b"".join(b'<a href="%s">x</a>' % t.encode() for t in targets) or b"<p>leaf</p>"


def test_pagerank_linkless_corpus_all_base_rank():
    """No edges at all: every node's rank is the (1-d) base after any
    number of rounds."""
    from zerox_ray.pipelines.graph import PR_DAMP_DEN, PR_DAMP_NUM, PR_SCALE, pagerank

    ds = _pages_ds([(f"u{i}", b"<p>no links</p>") for i in range(5)])
    got = pagerank(ds, prefix="u").to_pandas()
    base = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_SCALE // PR_DAMP_DEN
    assert len(got) == 5
    assert (got["rank"] == base).all()


def test_pagerank_self_loop_and_multi_edge():
    """Self-links and duplicate hrefs count as ordinary (multi-)edges —
    replay the exact integer recurrence in python."""
    from zerox_ray.pipelines.graph import (
        PR_DAMP_DEN,
        PR_DAMP_NUM,
        PR_ITERS,
        PR_SCALE,
        pagerank,
    )

    #  a -> a, a -> b, a -> b (dup), b -> a
    ds = _pages_ds(
        [("a", _link_html(["a", "b", "b"])), ("b", _link_html(["a"]))]
    )
    got = dict(zip(*(lambda d: (d.url, d["rank"]))(pagerank(ds, prefix="").to_pandas())))
    edges = [("a", "a"), ("a", "b"), ("a", "b"), ("b", "a")]
    outdeg = {"a": 3, "b": 1}
    base = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_SCALE // PR_DAMP_DEN
    r = {"a": PR_SCALE, "b": PR_SCALE}
    for _ in range(PR_ITERS):
        acc = {"a": 0, "b": 0}
        for s, d in edges:
            acc[d] += r[s] // outdeg[s]
        r = {v: base + PR_DAMP_NUM * acc[v] // PR_DAMP_DEN for v in r}
    assert got == r


def test_link_components_no_same_lang_edges_selfs():
    """Every page its own component when no same-language edge exists
    (exercises the comp.count()==0 fallback path)."""
    import pyarrow as pa
    import ray.data

    from zerox_ray.pipelines.graph import link_components

    ds = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array(["a", "b"], pa.string()),
                "lang": pa.array(["en", "fr"], pa.string()),
                "html": pa.array(
                    [b'<a href="b">x</a>', b'<a href="a">x</a>'], pa.binary()
                ),
            }
        )
    )
    got = link_components(ds, prefix="").to_pandas()
    assert dict(zip(got.url, got.component)) == {"a": "a", "b": "b"}


def test_crawl_depth_no_seeds_empty():
    from zerox_ray.pipelines.graph import crawl_depth

    ds = _pages_ds([("a", _link_html(["b"])), ("b", b"<p>x</p>")])
    got = crawl_depth(ds, seeds=[], prefix="").to_pandas()
    assert len(got) == 0


def test_crawl_depth_unreachable_absent():
    from zerox_ray.pipelines.graph import crawl_depth

    # a -> b; c is disconnected
    ds = _pages_ds(
        [("a", _link_html(["b"])), ("b", b"<p>x</p>"), ("c", b"<p>x</p>")]
    )
    got = crawl_depth(ds, seeds=["a"], prefix="").to_pandas()
    assert dict(zip(got.url, got.depth)) == {"a": 0, "b": 1}


def test_hash_join_empty_schemaless_side():
    """A rowless side whose schema is unknowable (groupby over an empty
    stream) must resolve semantically, not crash on schema introspection
    (surfaced by pagerank over a linkless corpus)."""
    import pandas as pd
    import pytest
    import ray.data

    from zerox_ray.pipelines.agg import bucketed_group_agg
    from zerox_ray.pipelines.relational import hash_join

    left = ray.data.from_pandas(
        pd.DataFrame({"k": [1, 2], "v": [10, 20]})
    )
    # empty through a groupby: the classic no-schema producer
    empty = bucketed_group_agg(
        ray.data.from_pandas(pd.DataFrame({"k": [1]})).filter(lambda r: False),
        ["k"],
        {"n": ("k", "size")},
    )
    assert hash_join(left, empty, on="k").count() == 0
    assert hash_join(left, empty, on="k", how="semi").count() == 0
    anti = hash_join(left, empty, on="k", how="anti").to_pandas()
    assert sorted(anti.k) == [1, 2]
    # left: every left row survives; the right columns are unknowable, so
    # the result is left unchanged (callers fillna/add columns downstream)
    lj = hash_join(left, empty, on="k", how="left").to_pandas()
    assert sorted(lj.k) == [1, 2] and list(lj.columns) == ["k", "v"]
    with pytest.raises(ValueError, match="not supported"):
        hash_join(left, empty, on="k", how="outer")


def test_snapshot_delta_statuses(tmp_path):
    """single / changed / unchanged classification, keep-order (warc_ts,
    crc32) alignment with latest_snapshots, and count correctness when a
    url's snapshots spread across blocks."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from zerox_ray.sources.pages import snapshot_delta

    def row(url, ts, payload):
        return {"url": url, "warc_ts": ts, "html": payload}

    rows = [
        row("u/single", 10, b"<p>only</p>"),
        # changed: newest payload differs from previous
        row("u/changed", 10, b"<p>old</p>"),
        row("u/changed", 20, b"<p>new</p>"),
        # unchanged: identical recrawl 5us later
        row("u/same", 10, b"<p>same</p>"),
        row("u/same", 15, b"<p>same</p>"),
        # 3 snapshots: only the newest two decide the diff
        row("u/tri", 10, b"<p>v1</p>"),
        row("u/tri", 20, b"<p>v2</p>"),
        row("u/tri", 30, b"<p>v2</p>"),
    ]
    t = pa.table(
        {
            "url": pa.array([r["url"] for r in rows], pa.string()),
            "warc_ts": pa.array(
                [r["warc_ts"] for r in rows], pa.timestamp("us")
            ),
            "html": pa.array([r["html"] for r in rows], pa.binary()),
            "text": pa.array([""] * len(rows), pa.string()),
            "lang": pa.array([""] * len(rows), pa.string()),
        }
    )
    # two files so one url's snapshots span input blocks
    pq.write_table(t.slice(0, 4), tmp_path / "a.parquet")
    pq.write_table(t.slice(4), tmp_path / "b.parquet")
    got = (
        snapshot_delta(str(tmp_path))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    want = {
        "u/changed": (2, "changed", 10),
        "u/same": (2, "unchanged", 5),
        "u/single": (1, "single", 0),
        "u/tri": (3, "unchanged", 10),
    }
    assert {
        u: (n, s, d)
        for u, n, s, d in zip(
            got.url, got.n_snapshots, got.status, got.delta_us
        )
    } == want


def test_triangle_stats_linkless_corpus_all_zero():
    from zerox_ray.pipelines.graph import triangle_stats

    ds = _pages_ds([(f"u{i}", b"<p>no links</p>") for i in range(5)])
    got = triangle_stats(ds, prefix="u").to_pandas()
    assert got.iloc[0].to_dict() == {
        "n_nodes": 0,
        "n_edges": 0,
        "n_wedges": 0,
        "n_triangles": 0,
        "global_clustering_ppm": 0,
    }


def test_triangle_stats_self_loops_and_dup_edges_collapse():
    # u0–u1–u2 triangle with self-loops and duplicated hrefs: the census
    # counts the UNDIRECTED SIMPLE graph (3 nodes, 3 edges, 1 triangle)
    from zerox_ray.pipelines.graph import triangle_stats

    ds = _pages_ds(
        [
            ("u0", _link_html(["u0", "u1", "u1", "u2"])),
            ("u1", _link_html(["u2", "u2", "u1"])),
            ("u2", _link_html(["u0"])),
        ]
    )
    got = triangle_stats(ds, prefix="u").to_pandas().iloc[0]
    assert got.n_nodes == 3 and got.n_edges == 3
    assert got.n_wedges == 3 and got.n_triangles == 1
    assert got.global_clustering_ppm == 1_000_000


def test_random_walks_dangling_seeds_stop_at_step_zero():
    from zerox_ray.pipelines.graph import random_walks

    # seed_mod=1: every url seeds a walk; no page has out-links, so every
    # walk is exactly its step-0 row
    ds = _pages_ds([(f"u{i}", b"<p>no links</p>") for i in range(4)])
    got = random_walks(ds, seed_mod=1, prefix="u").to_pandas()
    assert len(got) == 4
    assert (got.step == 0).all()
    assert sorted(got.url) == [f"u{i}" for i in range(4)]


def test_kcore_linkless_corpus_empty():
    from zerox_ray.pipelines.graph import kcore

    ds = _pages_ds([(f"u{i}", b"<p>no links</p>") for i in range(5)])
    got = kcore(ds, prefix="u").to_pandas()
    # rowless (possibly schemaless — Ray's to_pandas drops the schema
    # of an all-empty dataset), same contract as reciprocal_links
    assert got.empty


def test_kcore_clique_survives_peel():
    # K5 survives a k=4 peel intact (every degree is exactly 4);
    # a pendant node hanging off it is removed in round 1
    from zerox_ray.pipelines.graph import kcore

    rows = []
    for i in range(5):
        targets = [f"u{j}" for j in range(5) if j != i]
        if i == 0:
            targets.append("u5")  # pendant
        rows.append(
            (f"u{i}", "".join(f'<a href="{t}">x</a>' for t in targets).encode())
        )
    rows.append(("u5", b'<a href="u0">back</a>'))
    ds = _pages_ds(rows)
    got = kcore(ds, k=4, prefix="u").to_pandas().sort_values("url")
    assert list(got.url) == [f"u{i}" for i in range(5)]
    assert (got.degree == 4).all()
