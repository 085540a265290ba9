"""Frequency-based boilerplate removal (pipelines/boilerplate.py) checked
against pure-python replays of the generator plan."""

from collections import Counter

import pytest

from zerox_ray.pipelines.boilerplate import (
    boilerplate_blocks,
    paragraph_dedup,
    raw_text_blocks,
)
from zerox_ray.testgen import pages_dir_for, plan_doc

NAV_BLOCKS = ["home", "about us", "contact", "log in"]
FOOTER_BLOCK = "terms of service privacy policy site map (c) example"


@pytest.fixture(scope="module")
def sf_dir():
    return "/root/testdata/sf0.001"


def _replay_blocks(sf_dir):
    """(url, page_index, block_index, block) rows straight from the plan."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    rows = []
    for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        p = plan_doc(d, txt)
        if p["kind"] == "corrupt":
            continue
        for i, c in enumerate(p["chunks"], 1):
            if p["kind"] == "pdf":
                if c:
                    rows.append((p["url"], i, 0, c))
            else:
                for j, b in enumerate(NAV_BLOCKS):
                    rows.append((p["url"], i, j, b))
                if c:
                    rows.append((p["url"], i, 4, c))
                rows.append((p["url"], i, 5, FOOTER_BLOCK))
    return rows


def test_raw_text_blocks_match_plan(sf_dir):
    want = set(_replay_blocks(sf_dir))
    got = raw_text_blocks(pages_dir_for(sf_dir)).to_pandas()
    assert (
        set(zip(got.url, got.page_index, got.block_index, got.block)) == want
    )
    assert len(got) == len(want)


def test_paragraph_dedup_matches_replay(sf_dir):
    rows = _replay_blocks(sf_dir)
    counts = Counter(b for *_, b in rows)
    want = {}
    for url, i, j, b in sorted(rows, key=lambda r: (r[0], r[1], r[2])):
        tc, nb, nr = want.get(url, ([], 0, 0))
        if counts[b] >= 2:
            want[url] = (tc, nb + 1, nr + 1)
        else:
            want[url] = (tc + [b], nb + 1, nr)
    got = paragraph_dedup(pages_dir_for(sf_dir)).to_pandas()
    assert len(got) == len(want)
    for url, tc, nb, nr in zip(got.url, got.text_clean, got.n_blocks, got.n_removed):
        w_tc, w_nb, w_nr = want[url]
        assert ("\n\n".join(w_tc), w_nb, w_nr) == (tc, nb, nr), url


def test_statistical_pass_recovers_chrome(sf_dir):
    """The whole point: the corpus-frequency pass finds exactly the
    template chrome the DOM heuristics strip structurally (plus any
    genuinely repeated body chunks)."""
    cat = boilerplate_blocks(pages_dir_for(sf_dir)).to_pandas()
    got = dict(zip(cat.block, cat.n))
    n_html_pages = sum(
        1
        for *_ , b in _replay_blocks(sf_dir)
        if b == FOOTER_BLOCK
    )
    for b in NAV_BLOCKS + [FOOTER_BLOCK]:
        assert got[b] == n_html_pages, b
    # every catalogued block really does repeat
    assert (cat.n >= 2).all()


def test_join_path_matches_broadcast_path(sf_dir, monkeypatch):
    """The size-gated broadcast and the partitioned-join fallbacks are
    output-identical (the 100 TB path gets the same bits as the fast
    path)."""
    from zerox_ray.pipelines import agg

    a = (
        paragraph_dedup(pages_dir_for(sf_dir))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)  # force the join path
    b = (
        paragraph_dedup(pages_dir_for(sf_dir))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)


def test_min_count_threshold(ray_session):
    """min_count is honored on a hand-built corpus: a block must appear
    min_count times before it is removed."""
    import ray.data

    def page(txt):
        return (
            f"<html><body><div class=\"page\"><p>{txt}</p></div></body></html>"
        ).encode()

    ds = ray.data.from_items(
        [
            {"url": "u1", "html": page("twice")},
            {"url": "u2", "html": page("twice")},
            {"url": "u3", "html": page("unique")},
        ]
    )
    got2 = paragraph_dedup(ds, min_count=2).to_pandas().set_index("url")
    assert got2.loc["u1"].text_clean == "" and got2.loc["u1"].n_removed == 1
    assert got2.loc["u3"].text_clean == "unique"
    got3 = paragraph_dedup(ds, min_count=3).to_pandas().set_index("url")
    assert got3.loc["u1"].text_clean == "twice"
    assert int(got3.n_removed.sum()) == 0


def test_density_extract_context_rule(sf_dir):
    """The jusText context effect is live: some short blocks survive
    (good neighbors), isolated chrome does not; dense_text reconstructs
    kept blocks in order."""
    import re

    from zerox_ray.pipelines.boilerplate import density_extract
    from zerox_ray.testgen import pages_dir_for

    df = density_extract(pages_dir_for(sf_dir)).to_pandas()
    assert len(df) == 495  # corrupt docs emit no blocks
    assert (df["kept_blocks"] <= df["n_blocks"]).all()
    assert 0 < df["kept_blocks"].sum() < df["n_blocks"].sum()
    tok = re.compile(r"[a-z]+")
    short_kept = lonely_short_dropped = False
    for txt in df["dense_text"]:
        if not txt:
            continue
        blocks = txt.split("\n\n")
        ws = [len(tok.findall(b)) for b in blocks]
        # a block with < 15 words survived only via its neighbors
        if any(w < 15 for w in ws):
            short_kept = True
    # the standalone nav chrome ('home' etc, w<=2 with chrome neighbors)
    # never survives: no dense_text starts with the nav sequence
    lonely_short_dropped = not any(
        t.startswith("home\n\nabout us") for t in df["dense_text"]
    )
    assert short_kept and lonely_short_dropped


class TestDomTemplates:
    def test_clusters_by_page_count(self, sf_dir):
        """html docs share a template iff they have the same page count
        (the only structural degree of freedom in the generator)."""
        import numpy as np
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.boilerplate import dom_templates
        from zerox_ray.testgen import pages_dir_for

        got = dom_templates(pages_dir_for(sf_dir)).to_pandas()
        ids = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])[
            "doc_id"
        ].to_pylist()
        html_ids = [d for d in ids if d % 101 != 13 and d % 10 != 7]
        want = {}
        for d in html_ids:
            np_ = 24 if d % 50 == 0 else 1 + d % 4
            want[np_] = want.get(np_, 0) + 1
        assert sorted(got.n_docs) == sorted(want.values())
        assert got.n_docs.sum() == len(html_ids)
        assert got.template_h.is_unique

    def test_filler_does_not_split_templates(self):
        """Docs differing only in comment filler hash to one template."""
        from zerox_ray.functions.hashing import md5_64
        from zerox_ray.pipelines.boilerplate import _TAG_RE
        from zerox_ray.testgen import build_html

        a = build_html(1, ["hello world"], filler=False)
        b = build_html(97 * 3 + 1 - 1, ["other text"], filler=True)  # any filler doc
        ta = b" ".join(_TAG_RE.findall(a))
        tb = b" ".join(_TAG_RE.findall(b))
        assert ta == tb
        assert md5_64(ta) == md5_64(tb)


class TestHostTemplateSkew:
    def test_shares_and_totals(self, sf_dir):
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.boilerplate import host_template_skew
        from zerox_ray.testgen import multihost_pages_dir_for

        got = host_template_skew(multihost_pages_dir_for(sf_dir)).to_pandas()
        ids = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])[
            "doc_id"
        ].to_pylist()
        html_ids = [d for d in ids if d % 101 != 13 and d % 10 != 7]
        assert got.n_docs.sum() == len(html_ids)
        assert len(got) == len({d % 23 for d in html_ids})
        assert got.top_share_ppm.between(1, 1_000_000).all()
        # replay one host end-to-end
        h0 = [d for d in html_ids if d % 23 == 0]
        from collections import Counter

        c = Counter(24 if d % 50 == 0 else 1 + d % 4 for d in h0)
        r = got[got.host == "h0.example.net"].iloc[0]
        assert r.n_docs == len(h0) and r.n_templates == len(c)
        assert r.top_share_ppm == max(c.values()) * 1_000_000 // len(h0)
