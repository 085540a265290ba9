"""web_curate capstone: html pages → OCR → gate → dedup → shards, checked
against a pure-python replay built from the OCR golden rows."""

import numpy as np
import pytest

from zerox_ray.functions.hashing import md5_64
from zerox_ray.functions.text import TOKEN_RE
from zerox_ray.pipelines import agg
from zerox_ray.pipelines.web import (
    WEB_MIN_TOKENS,
    WEB_TOKENS_PER_SHARD,
    web_curate,
)
from zerox_ray.testgen import expected_documents_rows, pages_dir_for


@pytest.fixture(scope="module")
def sf_dir():
    return "/root/testdata/sf0.001"


def _replay(sf_dir):
    rows = expected_documents_rows(f"{sf_dir}/documents.parquet")
    gated = []
    for r in rows:
        n_tok = len(TOKEN_RE.findall(r["markdown"]))
        if r["ocr_failed"] == 0 and n_tok >= WEB_MIN_TOKENS:
            gated.append((r["url"], r["markdown"], n_tok))
    seen = {}
    for url, md, n_tok in sorted(gated):
        seen.setdefault(md, (url, n_tok))
    kept = sorted(seen.values(), key=lambda p: (md5_64(p[0].encode()), p[0]))
    out, excl = {}, 0
    for url, n_tok in kept:
        out[url] = (n_tok, excl // WEB_TOKENS_PER_SHARD)
        excl += n_tok
    return out


def test_web_curate_matches_replay(sf_dir):
    got = web_curate(pages_dir_for(sf_dir)).to_pandas()
    want = _replay(sf_dir)
    assert len(got) == len(want)
    for url, n_tok, shard in zip(got.url, got.n_tok, got.shard_id):
        assert want[url] == (n_tok, shard), url
    # shards are token-budgeted: every shard except the last holds
    # >= tokens_per_shard once its first doc lands past the boundary
    assert got.shard_id.max() >= 1  # the budget actually splits
    # dedup + gate actually fire on the synthetic corpus
    n_docs = len(expected_documents_rows(f"{sf_dir}/documents.parquet"))
    assert len(got) < n_docs


def test_web_curate_invariant_to_blocking(sf_dir):
    import pandas as pd

    a = (
        web_curate(pages_dir_for(sf_dir))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    import ray.data

    from zerox_ray.sources.pages import read_pages

    ds = read_pages(pages_dir_for(sf_dir)).repartition(13)
    b = web_curate(ds).to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_snapshot_curate_equals_base_curate(sf_dir):
    """Collapsing the multi-snapshot corpus to newest-per-url then
    curating must equal curating the base corpus directly."""
    import pandas as pd

    from zerox_ray.pipelines.web import web_curate
    from zerox_ray.sources.pages import read_pages
    from zerox_ray.testgen import snapshot_pages_dir_for

    base = (
        web_curate(pages_dir_for(sf_dir))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    snap = (
        web_curate(
            read_pages(
                snapshot_pages_dir_for(sf_dir),
                columns=("url", "html"),
                latest_snapshot_only=True,
            )
        )
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(base, snap)


def test_page_metadata_matches_plan(sf_dir):
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.graph import page_metadata
    from zerox_ray.testgen import URL_PREFIX, plan_doc

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    want = {}
    for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        p = plan_doc(d, txt)
        if p["kind"] == "html":
            want[p["url"]] = ("html", f"doc {d}", 3, p["n_pages"])
        elif p["kind"] == "pdf":
            want[p["url"]] = ("pdf", "", 0, p["n_pages"])
        else:  # corrupt → sniffed unknown, page_count floored at 1
            want[p["url"]] = ("unknown", "", 0, 1)
    got = page_metadata(pages_dir_for(sf_dir)).to_pandas()
    assert len(got) == len(want)
    for url, kind, title, n_links, pc_ in zip(
        got.url, got.kind, got.title, got.n_links, got.page_count
    ):
        assert want[url] == (kind, title, n_links, pc_), url


def test_inlink_summaries_aggregate_anchor_table(sf_dir):
    from zerox_ray.pipelines.graph import anchor_texts, inlink_summaries

    a = anchor_texts(pages_dir_for(sf_dir)).to_pandas()
    want = {
        dst: "|".join(g.sort_values(["anchor", "src"]).anchor)
        for dst, g in a.groupby("dst")
    }
    got = inlink_summaries(pages_dir_for(sf_dir)).to_pandas()
    assert len(got) == len(want)
    for dst, n, anchors in zip(got.dst, got.n_inlinks, got.anchors):
        assert anchors == want[dst], dst
        assert n == anchors.count("|") + 1


def test_rank_curate_orders_by_authority(sf_dir):
    """rank_curate = web_curate's keepers packed in (rank desc, h, url)
    order; replay the packing from the engine's own pagerank output +
    the pure-python keeper replay."""
    from zerox_ray.pipelines.graph import pagerank
    from zerox_ray.pipelines.web import rank_curate

    ranks = pagerank(pages_dir_for(sf_dir)).to_pandas()
    rank_of = dict(zip(ranks.url, ranks["rank"]))
    keepers = _replay(sf_dir)  # url -> (n_tok, md5-order shard)
    order = sorted(
        keepers.items(),
        key=lambda kv: (-rank_of[kv[0]], md5_64(kv[0].encode()), kv[0]),
    )
    want, excl = {}, 0
    for url, (n_tok, _) in order:
        want[url] = (n_tok, rank_of[url], excl // WEB_TOKENS_PER_SHARD)
        excl += n_tok
    got = rank_curate(pages_dir_for(sf_dir)).to_pandas()
    assert len(got) == len(want)
    for url, n_tok, rank, shard in zip(got.url, got.n_tok, got["rank"], got.shard_id):
        assert want[url] == (n_tok, rank, shard), url
    # authority ordering is real: shard 0's mean rank exceeds the last
    # shard's mean rank
    by_shard = got.groupby("shard_id")["rank"].mean()
    assert by_shard.iloc[0] > by_shard.iloc[-1]


class TestGraphOps:
    def test_link_graph_matches_generator(self, sf_dir):
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.graph import link_graph
        from zerox_ray.testgen import URL_PREFIX, plan_doc, related_links

        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        n = t.num_rows
        want = set()
        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if plan_doc(d, txt)["kind"] == "html":
                for tgt in related_links(d, n):
                    want.add((f"{URL_PREFIX}{d}", f"{URL_PREFIX}{tgt}"))
        got = link_graph(pages_dir_for(sf_dir)).to_pandas()
        assert set(zip(got.src, got.dst)) == want
        assert len(got) == len(want)  # no duplicate edges in this corpus

    def test_pagerank_matches_pure_python(self, sf_dir):
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.graph import (
            PR_DAMP_DEN,
            PR_DAMP_NUM,
            PR_ITERS,
            PR_SCALE,
            pagerank,
        )
        from zerox_ray.testgen import URL_PREFIX, plan_doc, related_links

        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        n = t.num_rows
        edges = []
        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if plan_doc(d, txt)["kind"] == "html":
                edges += [(d, tgt) for tgt in related_links(d, n)]
        outdeg = {}
        for s, _ in edges:
            outdeg[s] = outdeg.get(s, 0) + 1
        r = {d: PR_SCALE for d in t["doc_id"].to_pylist()}
        base = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_SCALE // PR_DAMP_DEN
        for _ in range(PR_ITERS):
            s = {d: 0 for d in r}
            for u, v in edges:
                s[v] += r[u] // outdeg[u]
            r = {d: base + PR_DAMP_NUM * s[d] // PR_DAMP_DEN for d in r}
        got = pagerank(pages_dir_for(sf_dir)).to_pandas()
        assert len(got) == n
        for url, rank in zip(got.url, got["rank"]):
            assert r[int(url.rsplit("/", 1)[1])] == rank, url
        # rank discriminates: the graph isn't degenerate
        assert got["rank"].nunique() > 10

    def test_link_components_matches_union_find(self, sf_dir):
        import hashlib

        import pyarrow.parquet as pq

        from zerox_ray.pipelines.graph import link_components
        from zerox_ray.testgen import URL_PREFIX, plan_doc, related_links

        t = pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
        )
        n = t.num_rows
        langs = dict(zip(t["doc_id"].to_pylist(), t["lang"].to_pylist()))
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if plan_doc(d, txt)["kind"] != "html":
                continue
            for tgt in related_links(d, n):
                if langs[d] == langs[tgt]:
                    ra, rb = find(d), find(tgt)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)

        def h63(d):
            u = f"{URL_PREFIX}{d}"
            return int(hashlib.md5(u.encode()).hexdigest()[:16], 16) >> 1

        rep = {}  # root -> min-h63 member url
        for d in range(n):
            r = find(d)
            if r not in rep or h63(d) < h63(rep[r]):
                rep[r] = d
        want = {f"{URL_PREFIX}{d}": f"{URL_PREFIX}{rep[find(d)]}" for d in range(n)}
        got = link_components(pages_dir_for(sf_dir)).to_pandas()
        assert len(got) == n
        assert dict(zip(got.url, got.component)) == want
        # discriminating: many components of varied size
        assert got.component.nunique() > 10

    def test_anchor_texts_carry_link_slots(self, sf_dir):
        from zerox_ray.pipelines.graph import anchor_texts
        from zerox_ray.testgen import URL_PREFIX, plan_doc, related_links

        import pyarrow.parquet as pq

        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        n = t.num_rows
        want = set()
        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if plan_doc(d, txt)["kind"] != "html":
                continue
            for j, tgt in enumerate(related_links(d, n)):
                want.add((f"{URL_PREFIX}{d}", f"{URL_PREFIX}{tgt}", f"related {j}"))
        got = anchor_texts(pages_dir_for(sf_dir)).to_pandas()
        assert set(zip(got.src, got.dst, got.anchor)) == want
        assert len(got) == len(want)

    def test_leaf_pages_are_linkless_payloads(self, sf_dir):
        from zerox_ray.pipelines.graph import leaf_pages
        from zerox_ray.testgen import URL_PREFIX, plan_doc

        import pyarrow.parquet as pq

        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        want = {
            f"{URL_PREFIX}{d}"
            for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
            if plan_doc(d, txt)["kind"] != "html"
        }
        got = leaf_pages(pages_dir_for(sf_dir)).to_pandas()
        assert set(got.url) == want
        assert len(got) == len(want)  # no duplicate leaf rows

    def test_crawl_depth_matches_python_bfs(self, sf_dir):
        from collections import deque

        from zerox_ray.pipelines.graph import crawl_depth
        from zerox_ray.testgen import URL_PREFIX, plan_doc, related_links

        import pyarrow.parquet as pq

        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        n = t.num_rows
        adj = {
            d: related_links(d, n)
            for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
            if plan_doc(d, txt)["kind"] == "html"
        }
        K = 4
        dist = {d: 0 for d in range(0, n, 50)}
        frontier = deque(dist)
        for hop in range(1, K + 1):
            nxt = deque()
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in dist:
                        dist[v] = hop
                        nxt.append(v)
            frontier = nxt
        want = {f"{URL_PREFIX}{d}": h for d, h in dist.items()}
        seeds = [f"{URL_PREFIX}{d}" for d in range(0, n, 50)]
        got = crawl_depth(pages_dir_for(sf_dir), seeds=seeds, max_hops=K).to_pandas()
        assert dict(zip(got.url, got.depth)) == want
        assert len(got) == len(want)
        # every hop level populated: the graph expansion isn't degenerate
        assert set(got.depth) == set(range(K + 1))

    def test_crawl_frontier_combines_rank_and_depth(self, sf_dir):
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.graph import crawl_depth, crawl_frontier, pagerank
        from zerox_ray.testgen import URL_PREFIX

        n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
        seeds = [f"{URL_PREFIX}{d}" for d in range(0, n, 50)]
        ranks = dict(
            zip(*(lambda d: (d.url, d["rank"]))(
                pagerank(pages_dir_for(sf_dir)).to_pandas()
            ))
        )
        depths = dict(
            zip(*(lambda d: (d.url, d.depth))(
                crawl_depth(pages_dir_for(sf_dir), seeds=seeds).to_pandas()
            ))
        )
        got = crawl_frontier(pages_dir_for(sf_dir), seeds=seeds).to_pandas()
        assert len(got) == len(depths)
        for url, rank, depth, pr in zip(got.url, got["rank"], got.depth, got.priority):
            assert rank == ranks[url]
            assert depth == depths[url]
            assert pr == rank // (1 + depth)

    def test_extract_links_generic_hrefs(self):
        import pyarrow as pa
        import ray.data

        from zerox_ray.pipelines.graph import extract_links

        pages = ray.data.from_arrow(
            pa.table(
                {
                    "url": ["u1", "u2"],
                    "html": [
                        b'<a href="/x">x</a><a href="https://e.org/y">y</a>',
                        b"no links here",
                    ],
                }
            )
        )
        got = extract_links(pages).to_pandas()
        assert list(got.href) == ["/x", "https://e.org/y"]
        assert list(got.src) == ["u1", "u1"]


def test_crawl_timeline_counts_cover_corpus(sf_dir):
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.graph import crawl_timeline
    from zerox_ray.testgen import plan_doc

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n = t.num_rows
    n_html = sum(
        1
        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
        if plan_doc(d, txt)["kind"] == "html"
    )
    got = crawl_timeline(pages_dir_for(sf_dir)).to_pandas()
    assert int(got.n_pages.sum()) == n
    assert int(got.n_html.sum()) == n_html
    # window alignment: every start on the hour boundary
    assert (got.window_start_us % 3_600_000_000 == 0).all()
    # lang split is real
    assert got.lang.nunique() > 1


class TestHostOps:
    """Host-level family over the MULTIHOST corpus (testgen.mh_url:
    23 hosts), each checked against a pure-python replay."""

    @staticmethod
    def _mh_edges(sf_dir):
        import pyarrow.parquet as pq

        from zerox_ray.testgen import mh_url, plan_doc, related_links

        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        n = t.num_rows
        edges = []
        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if plan_doc(d, txt)["kind"] == "html":
                for tgt in related_links(d, n):
                    edges.append(
                        (
                            mh_url(d).split("/")[2],
                            mh_url(tgt).split("/")[2],
                        )
                    )
        return edges

    def test_host_of_vectorized(self):
        import pyarrow as pa

        from zerox_ray.pipelines.graph import host_of

        got = host_of(
            pa.array(
                [
                    "https://h3.example.net/doc/5",
                    "http://a.b.c/x?y=1",
                    "ftp://files.example.org",
                    "not-a-url",
                ]
            )
        ).to_pylist()
        assert got == ["h3.example.net", "a.b.c", "files.example.org", ""]

    def test_host_graph_matches_generator(self, sf_dir):
        from collections import Counter

        from zerox_ray.pipelines.graph import host_graph
        from zerox_ray.testgen import multihost_pages_dir_for

        want = Counter(self._mh_edges(sf_dir))
        got = host_graph(multihost_pages_dir_for(sf_dir)).to_pandas()
        assert {
            (s, d): n for s, d, n in zip(got.src_host, got.dst_host, got.n_links)
        } == dict(want)

    def test_host_rank_matches_pure_python(self, sf_dir):
        from collections import Counter

        from zerox_ray.pipelines.graph import (
            PR_DAMP_DEN,
            PR_DAMP_NUM,
            PR_ITERS,
            PR_SCALE,
            host_rank,
        )
        from zerox_ray.testgen import MH_HOSTS, multihost_pages_dir_for

        edges = self._mh_edges(sf_dir)
        hosts = [f"h{i}.example.net" for i in range(MH_HOSTS)]
        outdeg = Counter(s for s, _ in edges)
        r = {h: PR_SCALE for h in hosts}
        base = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_SCALE // PR_DAMP_DEN
        for _ in range(PR_ITERS):
            c = {h: 0 for h in hosts}
            for s, d in edges:
                c[d] += r[s] // outdeg[s]
            r = {h: base + PR_DAMP_NUM * c[h] // PR_DAMP_DEN for h in hosts}
        got = host_rank(multihost_pages_dir_for(sf_dir)).to_pandas()
        assert dict(zip(got.host, got["rank"])) == r

    def test_host_stats_matches_pandas(self, sf_dir):
        import pandas as pd
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.graph import host_stats
        from zerox_ray.testgen import EPOCH_US, MH_HOSTS, multihost_pages_dir_for

        docs = pq.read_table(f"{sf_dir}/documents.parquet").to_pandas()
        docs["host"] = "h" + (docs.doc_id % MH_HOSTS).astype(str) + ".example.net"
        docs["ts_us"] = EPOCH_US + docs.doc_id * 1_000_000
        docs["n_chars"] = docs.text.str.len()
        want = docs.groupby("host").agg(
            n_pages=("doc_id", "size"),
            n_langs=("lang", "nunique"),
            total_chars=("n_chars", "sum"),
            first_ts_us=("ts_us", "min"),
            last_ts_us=("ts_us", "max"),
        )
        got = (
            host_stats(multihost_pages_dir_for(sf_dir))
            .to_pandas()
            .set_index("host")
            .sort_index()
        )
        pd.testing.assert_frame_equal(
            got.astype("int64"), want.sort_index().astype("int64")
        )

    def test_host_quota_top5_per_host(self, sf_dir):
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.graph import host_quota
        from zerox_ray.testgen import MH_HOSTS, mh_url, multihost_pages_dir_for

        docs = pq.read_table(f"{sf_dir}/documents.parquet").to_pandas()
        docs["host"] = "h" + (docs.doc_id % MH_HOSTS).astype(str) + ".example.net"
        docs["url"] = docs.doc_id.map(mh_url)
        docs["n_chars"] = docs.text.str.len()
        docs = docs.sort_values(
            ["host", "n_chars", "url"], ascending=[True, False, True]
        )
        top = docs.groupby("host").head(5)
        want = {
            u: (h, c, i + 1)
            for h, grp in top.groupby("host")
            for i, (u, c) in enumerate(zip(grp.url, grp.n_chars))
        }
        got = host_quota(multihost_pages_dir_for(sf_dir)).to_pandas()
        assert len(got) == len(want)
        for h, u, c, rk in zip(got.host, got.url, got.n_chars, got["rank"]):
            assert want[u] == (h, c, rk), u


def test_host_curate_caps_domains_and_packs(sf_dir):
    """Full replay: keeper chain (gate + min-url-per-markdown dedup) →
    per-host top-10 by (n_tok DESC, url) → hash-order shard packing."""
    from zerox_ray.pipelines.web import HOST_CURATE_CAP, host_curate
    from zerox_ray.testgen import (
        expected_documents_rows,
        mh_url,
        multihost_pages_dir_for,
    )

    rows = expected_documents_rows(f"{sf_dir}/documents.parquet")
    gated = []
    for d, r in enumerate(rows):
        n_tok = len(TOKEN_RE.findall(r["markdown"]))
        if r["ocr_failed"] == 0 and n_tok >= WEB_MIN_TOKENS:
            gated.append((mh_url(d), r["markdown"], n_tok))
    seen = {}
    for url, md, n_tok in sorted(gated):
        seen.setdefault(md, (url, n_tok))
    by_host = {}
    for url, n_tok in seen.values():
        by_host.setdefault(url.split("/")[2], []).append((url, n_tok))
    capped = []
    for host, items in by_host.items():
        items.sort(key=lambda p: (-p[1], p[0]))
        capped += [(url, host, n_tok) for url, n_tok in items[:HOST_CURATE_CAP]]
    capped.sort(key=lambda p: (md5_64(p[0].encode()), p[0]))
    want, excl = {}, 0
    for url, host, n_tok in capped:
        want[url] = (host, n_tok, excl // WEB_TOKENS_PER_SHARD)
        excl += n_tok
    got = host_curate(multihost_pages_dir_for(sf_dir)).to_pandas()
    assert len(got) == len(want)
    assert int(got.groupby("host").size().max()) <= HOST_CURATE_CAP
    for url, host, n_tok, shard in zip(got.url, got.host, got.n_tok, got.shard_id):
        assert want[url] == (host, n_tok, shard), url


def test_host_schedule_serializes_hosts(sf_dir):
    """Politeness invariants: slots are dense 0..n-1 per host, ordering
    follows (warc_ts, url), consecutive fetches of one host are exactly
    delay_us apart, and different hosts may overlap in time."""
    from zerox_ray.pipelines.graph import HOST_FETCH_DELAY_US, host_schedule
    from zerox_ray.testgen import multihost_pages_dir_for

    got = host_schedule(multihost_pages_dir_for(sf_dir)).to_pandas()
    assert len(got) == 500
    for host, g in got.groupby("host"):
        g = g.sort_values("slot")
        assert list(g.slot) == list(range(len(g)))
        assert (g.planned_fetch_us.diff().dropna() == HOST_FETCH_DELAY_US).all()
        # slot order respects the recrawl-oldest-first rule
        docs = [int(u.rsplit("/", 1)[1]) for u in g.url]
        assert docs == sorted(docs)  # warc_ts increases with doc_id


class TestGraphCensus:
    def _edges(self, sf_dir):
        import pyarrow.parquet as pq

        from zerox_ray.testgen import URL_PREFIX, plan_doc, related_links

        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        n = t.num_rows
        edges = set()
        for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if plan_doc(d, txt)["kind"] == "html":
                for tgt in related_links(d, n):
                    edges.add((f"{URL_PREFIX}{d}", f"{URL_PREFIX}{tgt}"))
        return edges

    def test_triangle_stats_matches_pure_python(self, sf_dir):
        from zerox_ray.pipelines.graph import triangle_stats

        und = set()
        for s, d in self._edges(sf_dir):
            if s != d:
                und.add((min(s, d), max(s, d)))
        adj = {}
        for a, b in und:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        wedges = sum(len(v) * (len(v) - 1) // 2 for v in adj.values())
        tris = 0
        for a, b in und:
            tris += sum(
                1 for c in adj[a] & adj[b] if (min(a, c), max(a, c)) in und
                and (min(b, c), max(b, c)) in und
            )
        tris //= 3
        got = triangle_stats(pages_dir_for(sf_dir)).to_pandas().iloc[0]
        assert got.n_nodes == len(adj)
        assert got.n_edges == len(und)
        assert got.n_wedges == wedges
        assert got.n_triangles == tris
        assert got.global_clustering_ppm == 3 * tris * 1_000_000 // wedges

    def test_random_walks_deterministic_replay(self, sf_dir):
        import hashlib

        from zerox_ray.pipelines.graph import random_walks

        def h63(u):
            return int(hashlib.md5(u.encode()).hexdigest()[:16], 16) >> 1

        out_edges = {}
        for s, d in self._edges(sf_dir):
            out_edges.setdefault(s, []).append(d)
        for v in out_edges.values():
            v.sort()

        got = random_walks(pages_dir_for(sf_dir)).to_pandas()
        walks = {}
        for r in got.itertuples():
            walks.setdefault(r.walk, {})[r.step] = r.url
        for start, pos in walks.items():
            assert pos[0] == start and h63(start) % 16 == 0
            cur = start
            for s in range(1, 4):
                nb = out_edges.get(cur)
                if nb is None:
                    assert s not in pos  # dangling: walk stopped
                    break
                want = nb[(h63(cur) + s) % len(nb)]
                assert pos[s] == want, (start, s)
                cur = want
        # contiguity: no step present after a missing one
        for pos in walks.values():
            steps = sorted(pos)
            assert steps == list(range(len(steps)))

    def test_local_clustering_matches_pure_python(self, sf_dir):
        from zerox_ray.pipelines.graph import local_clustering

        und = set()
        for s, d in self._edges(sf_dir):
            if s != d:
                und.add((min(s, d), max(s, d)))
        adj = {}
        for a, b in und:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        tri = {}
        for a, b in und:
            for c in adj[a] & adj[b]:
                for x in (a, b, c):
                    tri[x] = tri.get(x, 0) + 1
        # each triangle visited once per edge = 3 times; corners credited
        # 3x each → divide by 3
        tri = {k: v // 3 for k, v in tri.items()}

        got = local_clustering(pages_dir_for(sf_dir)).to_pandas()
        assert got.url.is_unique
        for r in got.itertuples():
            deg = len(adj.get(r.url, ()))
            t = tri.get(r.url, 0)
            assert r.degree == deg, r.url
            assert r.n_triangles == t, r.url
            want_c = 2 * t * 1_000_000 // (deg * (deg - 1)) if deg >= 2 else 0
            assert r.clustering_ppm == want_c, r.url
        # signal is real: some node closes a triangle
        assert got.n_triangles.sum() > 0

    def test_local_clustering_join_path_matches_broadcast(self, sf_dir, monkeypatch):
        import zerox_ray.pipelines.graph as G

        bcast = (
            G.local_clustering(pages_dir_for(sf_dir))
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)
        joined = (
            G.local_clustering(pages_dir_for(sf_dir))
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        assert bcast.equals(joined)

    def test_adamic_adar_matches_pure_python(self, sf_dir):
        from zerox_ray.pipelines.graph import AA_RES, adamic_adar

        und = set()
        for s, d in self._edges(sf_dir):
            if s != d:
                und.add((min(s, d), max(s, d)))
        adj = {}
        for a, b in und:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        want = {}
        for z, nb_all in adj.items():
            deg = len(nb_all)
            nb = sorted(nb_all)[:256]
            c = AA_RES // deg
            for i in range(len(nb)):
                for j in range(i + 1, len(nb)):
                    key = (nb[i], nb[j])
                    cnt, sc = want.get(key, (0, 0))
                    want[key] = (cnt + 1, sc + c)
        want = {
            k: v
            for k, v in want.items()
            if v[0] >= 2 and k not in und
        }

        got = adamic_adar(pages_dir_for(sf_dir)).to_pandas()
        assert len(got) == len(want)
        for r in got.itertuples():
            assert want[(r.url_a, r.url_b)] == (r.n_common, r.aa_score), (
                r.url_a,
                r.url_b,
            )
        from zerox_ray.pipelines.graph import (
            PR_DAMP_DEN,
            PR_DAMP_NUM,
            PR_ITERS,
            PR_SCALE,
            personalized_pagerank,
        )
        from zerox_ray.testgen import URL_PREFIX

        edges = sorted(self._edges(sf_dir))
        nodes = set()
        for s, d in edges:
            nodes.add(s)
            nodes.add(d)
        n_docs = max(int(u.rsplit("/", 1)[1]) for u in nodes) + 1
        all_urls = [f"{URL_PREFIX}{d}" for d in range(n_docs)]
        seeds = {f"{URL_PREFIX}{d}" for d in range(0, n_docs, 50)}
        outdeg = {}
        for s, _ in edges:
            outdeg[s] = outdeg.get(s, 0) + 1
        base = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_SCALE // PR_DAMP_DEN
        r = {u: PR_SCALE if u in seeds else 0 for u in all_urls}
        for _ in range(PR_ITERS):
            s = {u: 0 for u in all_urls}
            for u, v in edges:
                s[v] += r[u] // outdeg[u]
            r = {
                u: (base if u in seeds else 0) + PR_DAMP_NUM * s[u] // PR_DAMP_DEN
                for u in all_urls
            }
        got = personalized_pagerank(
            pages_dir_for(sf_dir), seeds=sorted(seeds)
        ).to_pandas()
        assert len(got) == n_docs
        for url, rank in zip(got.url, got["rank"]):
            assert r[url] == rank, url
        # teleport concentration is real: some pages are unreached (0)
        # and seeds outrank the median
        assert (got["rank"] == 0).any()
        assert (
            got[got.url.isin(seeds)]["rank"].median()
            > got["rank"].median()
        )

    def test_triangle_stats_join_path_matches_broadcast(self, sf_dir, monkeypatch):
        # force the above-cap partitioned-join branch and pin it
        # output-identical to the broadcast branch
        import zerox_ray.pipelines.graph as G

        bcast = G.triangle_stats(pages_dir_for(sf_dir)).to_pandas()
        monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)
        joined = G.triangle_stats(pages_dir_for(sf_dir)).to_pandas()
        assert bcast.equals(joined)


def test_kcore_join_path_matches_broadcast(sf_dir, monkeypatch):
    # force the above-cap two-semi-join branch and pin it
    # output-identical to the survivor-broadcast branch
    import zerox_ray.pipelines.graph as G

    bcast = (
        G.kcore(pages_dir_for(sf_dir))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)
    joined = (
        G.kcore(pages_dir_for(sf_dir))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert bcast.equals(joined)


def test_degree_assortativity_join_path_matches_broadcast(sf_dir, monkeypatch):
    # force the above-cap degree-attach hash-join branch and pin it
    # output-identical to the broadcast-map branch
    import zerox_ray.pipelines.graph as G

    bcast = G.degree_assortativity(pages_dir_for(sf_dir)).to_pandas()
    monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)
    joined = G.degree_assortativity(pages_dir_for(sf_dir)).to_pandas()
    assert bcast.equals(joined)


def test_degree_assortativity_known_graph():
    # star K1,3: every edge joins deg-3 hub to deg-1 leaf -> r = -1
    import pyarrow as pa
    import ray.data

    from zerox_ray.pipelines.graph import degree_assortativity

    html = b"".join(b'<a href="u%c">x</a>' % c for c in b"abc")
    ds = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array(["uh", "ua", "ub", "uc"], pa.string()),
                "html": pa.array([html, b"", b"", b""], pa.binary()),
            }
        )
    )
    got = degree_assortativity(ds, prefix="u").to_pandas().iloc[0]
    assert int(got["n_nodes"]) == 4
    assert int(got["n_edges"]) == 3
    assert int(got["assortativity_milli"]) == -1000


def test_anchor_augment_fuses_anchor_rollup_into_text(sf_dir):
    from zerox_ray.pipelines.graph import anchor_augment, inlink_summaries
    from zerox_ray.sources.pages import read_pages

    roll = inlink_summaries(pages_dir_for(sf_dir)).to_pandas()
    want = {d: (n, a) for d, n, a in zip(roll.dst, roll.n_inlinks, roll.anchors)}
    texts = dict(
        read_pages(pages_dir_for(sf_dir), columns=("url", "text"))
        .to_pandas()[["url", "text"]]
        .itertuples(index=False, name=None)
    )
    got = anchor_augment(pages_dir_for(sf_dir)).to_pandas()
    assert len(got) == len(texts)  # one row per page, linked or not
    # the synthetic link targets (id*31+7j+3 mod n) blanket the id space,
    # so every page has inlinks here; the n_anchors==0 branch is covered
    # by the hash_join empty/unmatched paths in compose (linkless-corpus
    # guard) rather than by this corpus
    assert (got.n_anchors > 0).all()
    for url, n, aug in zip(got.url, got.n_anchors, got.aug_text):
        if url in want:
            exp_n, anchors = want[url]
            assert n == exp_n
            assert aug == texts[url] + "\n\n[anchors] " + anchors
        else:
            assert n == 0 and aug == texts[url]

def test_lpa_join_path_matches_broadcast(sf_dir, monkeypatch):
    # force the above-cap label-attach hash-join branch and pin it
    # output-identical to the broadcast searchsorted branch
    import zerox_ray.pipelines.graph as G

    key = ["url", "community"]
    bcast = (
        G.lpa_communities(pages_dir_for(sf_dir))
        .to_pandas()
        .sort_values(key)
        .reset_index(drop=True)
    )
    monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)
    joined = (
        G.lpa_communities(pages_dir_for(sf_dir))
        .to_pandas()
        .sort_values(key)
        .reset_index(drop=True)
    )
    assert bcast.equals(joined)


def test_lpa_two_triangles_converge_to_min_member():
    # a triangle converges to its min-63-bit-key member in 2 synchronous
    # rounds; two disjoint triangles -> two communities; the linkless
    # page stays its own community
    import pyarrow as pa
    import ray.data

    from zerox_ray.pipelines.graph import _h63, lpa_communities

    tri1, tri2, lone = ["ua", "ub", "uc"], ["ud", "ue", "uf"], "ug"

    def html_for(group, me):
        return b"".join(
            b'<a href="%s">x</a>' % o.encode() for o in group if o != me
        )

    urls = tri1 + tri2 + [lone]
    htmls = (
        [html_for(tri1, u) for u in tri1]
        + [html_for(tri2, u) for u in tri2]
        + [b""]
    )
    ds = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "html": pa.array(htmls, pa.binary()),
            }
        )
    )
    got = dict(
        zip(*(lambda d: (d["url"], d["community"]))(
            lpa_communities(ds, prefix="u").to_pandas()
        ))
    )
    rep1 = tri1[int(__import__("numpy").argmin(_h63(tri1)))]
    rep2 = tri2[int(__import__("numpy").argmin(_h63(tri2)))]
    assert all(got[u] == rep1 for u in tri1)
    assert all(got[u] == rep2 for u in tri2)
    assert got[lone] == lone

def test_bowtie_census_known_graph():
    # seed = max-inlink node ua (2 inlinks); F={ua,ub,uo}, B={ua,ub,ui}
    # -> core {ua,ub}, in {ui}, out {uo}, other {ux}
    import pyarrow as pa
    import ray.data

    from zerox_ray.pipelines.graph import bowtie_census

    pages = {
        "ua": b'<a href="ub">x</a>',
        "ub": b'<a href="ua">x</a><a href="uo">x</a>',
        "ui": b'<a href="ua">x</a>',
        "uo": b"",
        "ux": b"",
    }
    ds = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array(list(pages), pa.string()),
                "html": pa.array(list(pages.values()), pa.binary()),
            }
        )
    )
    got = bowtie_census(ds, prefix="u").to_pandas().iloc[0]
    assert got["seed_url"] == "ua"
    assert int(got["core_pages"]) == 2
    assert int(got["in_pages"]) == 1
    assert int(got["out_pages"]) == 1
    assert int(got["other_pages"]) == 1


def test_bowtie_join_path_matches_broadcast(sf_dir, monkeypatch):
    import zerox_ray.pipelines.graph as G

    bcast = G.bowtie_census(pages_dir_for(sf_dir)).to_pandas()
    monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)
    joined = G.bowtie_census(pages_dir_for(sf_dir)).to_pandas()
    assert bcast.equals(joined)


def test_bowtie_linkless_corpus_is_all_other():
    import pyarrow as pa
    import ray.data

    from zerox_ray.pipelines.graph import bowtie_census

    ds = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array(["ua", "ub"], pa.string()),
                "html": pa.array([b"", b""], pa.binary()),
            }
        )
    )
    got = bowtie_census(ds, prefix="u").to_pandas().iloc[0]
    assert got["seed_url"] == ""
    assert int(got["other_pages"]) == 2
    assert int(got["core_pages"]) == 0


def test_mirror_hosts_join_path_matches_broadcast(sf_dir, monkeypatch):
    # force the above-cap degree-attach hash-join branch and pin it
    # output-identical to the broadcast-map branch
    import zerox_ray.pipelines.graph as G
    from zerox_ray.testgen import multihost_pages_dir_for

    key = ["host_a", "host_b"]
    bcast = (
        G.mirror_hosts(multihost_pages_dir_for(sf_dir))
        .to_pandas()
        .sort_values(key)
        .reset_index(drop=True)
    )
    monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)
    joined = (
        G.mirror_hosts(multihost_pages_dir_for(sf_dir))
        .to_pandas()
        .sort_values(key)
        .reset_index(drop=True)
    )
    assert bcast.equals(joined)


def test_mirror_hosts_known_graph():
    # a and b link to {t1, t2, t3}; c links to {t1} only. Jaccard(a,b)=1,
    # Jaccard(a,c)=Jaccard(b,c)=1/3 < 0.5 -> only the (a,b) mirror pair
    # survives the threshold. Self-loops on a must not count.
    import pyarrow as pa
    import ray.data

    from zerox_ray.pipelines.graph import mirror_hosts

    def page(url, targets):
        html = b"".join(
            b'<a href="%s">x</a>' % t.encode() for t in targets
        )
        return url, html

    rows = [
        page("https://ha.net/p1", ["https://t1.net/x", "https://t2.net/x"]),
        page("https://ha.net/p2", ["https://t3.net/x", "https://ha.net/p1"]),
        page("https://hb.net/p1",
             ["https://t1.net/x", "https://t2.net/x", "https://t3.net/x"]),
        page("https://hc.net/p1", ["https://t1.net/x"]),
        page("https://t1.net/x", []),
        page("https://t2.net/x", []),
        page("https://t3.net/x", []),
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array([r[0] for r in rows], pa.string()),
                "html": pa.array([r[1] for r in rows], pa.binary()),
            }
        )
    )
    got = mirror_hosts(ds, prefix="https://").to_pandas()
    assert len(got) == 1
    row = got.iloc[0]
    assert (row.host_a, row.host_b) == ("ha.net", "hb.net")
    assert row.n_common == 3 and row.deg_a == 3 and row.deg_b == 3
    assert row.jaccard_ppm == 1_000_000


def test_extraction_parity_flags_exactly_the_error_docs(sf_dir):
    """The north-rule audit: every successfully-extracted document's
    stripped markdown fingerprint equals the reference text's; the only
    mismatches are the corrupt (ERROR) docs, whose markdown is empty."""
    from zerox_ray.pipelines.web import extraction_parity

    got = extraction_parity(pages_dir_for(sf_dir)).to_pandas()
    rows = expected_documents_rows(f"{sf_dir}/documents.parquet")
    assert len(got) == len(rows)
    failed = {r["url"] for r in rows if r["ocr_failed"] > 0}
    by_url = got.set_index("url")
    for r in rows:
        row = by_url.loc[r["url"]]
        if r["url"] in failed:
            assert row.is_match == 0 and row.md_chars == 0
        else:
            assert row.is_match == 1, r["url"]
            assert row.md_chars == row.ref_chars


def test_extraction_parity_catches_reference_drift(sf_dir):
    """Tampering with one reference text flips exactly that url to 0 —
    the audit actually compares content, not just row presence."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from zerox_ray.pipelines.web import extraction_parity

    t = pq.read_table(pages_dir_for(sf_dir))
    texts = t["text"].to_pylist()
    urls = t["url"].to_pylist()
    victim = next(
        r["url"] for r in expected_documents_rows(f"{sf_dir}/documents.parquet")
        if r["ocr_failed"] == 0
    )
    idx = urls.index(victim)
    texts[idx] = texts[idx] + "DRIFT"
    tampered = t.set_column(
        t.schema.get_field_index("text"), "text", pa.array(texts, pa.string())
    )
    got = extraction_parity(ray.data.from_arrow(tampered)).to_pandas()
    assert int(got.loc[got.url == victim, "is_match"].iloc[0]) == 0
    assert int((got["is_match"] == 0).sum()) == 1 + sum(
        1
        for r in expected_documents_rows(f"{sf_dir}/documents.parquet")
        if r["ocr_failed"] > 0
    )


def test_host_quality_matches_pandas_replay(sf_dir):
    """Per-host rollup equals a pure-pandas replay of the per-doc gate."""
    import pandas as pd
    import pyarrow.parquet as pq

    from zerox_ray.functions.text import STOPWORD_RE
    from zerox_ray.pipelines.graph import (
        HOSTQ_FLAG_PPM,
        HOSTQ_MAX_STOP_PPM,
        HOSTQ_MIN_TOKENS,
        host_quality,
    )
    from zerox_ray.testgen import MH_HOSTS, multihost_pages_dir_for

    got = (
        host_quality(multihost_pages_dir_for(sf_dir))
        .to_pandas()
        .sort_values("host")
        .reset_index(drop=True)
    )
    assert len(got) == MH_HOSTS
    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).to_pandas()
    docs["host"] = ("h" + (docs.doc_id % MH_HOSTS).astype(str) + ".example.net")
    docs["n_tok"] = docs.text.map(lambda t: len(TOKEN_RE.findall(t)))
    docs["n_stop"] = docs.text.map(lambda t: len(STOPWORD_RE.findall(t)))
    docs["stop_ppm"] = (1_000_000 * docs.n_stop) // docs.n_tok.clip(lower=1)
    docs.loc[docs.n_tok == 0, "stop_ppm"] = 0
    docs["low_q"] = (
        (docs.n_tok < HOSTQ_MIN_TOKENS) | (docs.stop_ppm > HOSTQ_MAX_STOP_PPM)
    ).astype(int)
    want = (
        docs.groupby("host")
        .agg(
            n_docs=("doc_id", "size"),
            n_tokens=("n_tok", "sum"),
            sum_stop=("stop_ppm", "sum"),
            low_q_docs=("low_q", "sum"),
        )
        .reset_index()
        .sort_values("host")
        .reset_index(drop=True)
    )
    assert (got.n_docs.to_numpy() == want.n_docs.to_numpy()).all()
    assert (got.n_tokens.to_numpy() == want.n_tokens.to_numpy()).all()
    assert (
        got.mean_stop_ppm.to_numpy()
        == (want.sum_stop // want.n_docs).to_numpy()
    ).all()
    assert (got.low_q_docs.to_numpy() == want.low_q_docs.to_numpy()).all()
    lowppm = (1_000_000 * want.low_q_docs) // want.n_docs
    assert (got.low_q_ppm.to_numpy() == lowppm.to_numpy()).all()
    assert (got.flagged.to_numpy() == (lowppm > HOSTQ_FLAG_PPM).to_numpy()).all()
    # the gate must actually fire on the synthetic corpus
    assert got.low_q_docs.sum() > 0


def test_component_sizes_conserve_nodes(sf_dir):
    """Σ(size × count) = corpus size, and the histogram agrees with a
    direct pandas rollup of link_components."""
    from zerox_ray.pipelines.graph import component_sizes, link_components
    from zerox_ray.testgen import expected_documents_rows

    got = component_sizes(pages_dir_for(sf_dir)).to_pandas()
    n_docs = len(expected_documents_rows(f"{sf_dir}/documents.parquet"))
    assert int((got.component_size * got.n_components).sum()) == n_docs
    comp = link_components(pages_dir_for(sf_dir)).to_pandas()
    want = (
        comp.groupby("component")
        .size()
        .value_counts()
        .sort_index()
    )
    got_s = got.set_index("component_size")["n_components"].sort_index()
    assert got_s.to_dict() == want.to_dict()
    # multiple component scales exist (singletons + larger communities)
    assert len(got) > 1


def test_robots_filter_prefix_semantics():
    """RFC 9309 prefix matching on a hand-built corpus: whole-host
    block, narrow prefix block, unlisted host passes."""
    import pyarrow as pa
    import ray.data

    from zerox_ray.pipelines.graph import robots_filter

    urls = [
        "https://h2.example.net/doc/5",     # k=2: whole /doc/ blocked
        "https://h2.example.net/other/5",   # k=2 but different prefix
        "https://h3.example.net/doc/19",    # k=3: /doc/1 prefix blocked
        "https://h3.example.net/doc/25",    # k=3, id not starting '1'
        "https://h4.example.net/doc/11",    # unlisted host
    ]
    ds = ray.data.from_arrow(pa.table({"url": pa.array(urls)}))
    got = robots_filter(ds).to_pandas().set_index("url")["allowed"]
    assert got[urls[0]] == 0
    assert got[urls[1]] == 1
    assert got[urls[2]] == 0
    assert got[urls[3]] == 1
    assert got[urls[4]] == 1


class TestCrawlBudget:
    def test_hamilton_properties(self, sf_dir):
        import numpy as np
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.graph import crawl_budget
        from zerox_ray.testgen import multihost_pages_dir_for

        got = crawl_budget(multihost_pages_dir_for(sf_dir)).to_pandas()
        ids = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])[
            "doc_id"
        ].to_pylist()
        n_by_host = {}
        for d in ids:
            n_by_host[f"h{d % 23}.example.net"] = (
                n_by_host.get(f"h{d % 23}.example.net", 0) + 1
            )
        assert got.alloc.sum() == 1000  # exact budget, no stranded slots
        assert dict(zip(got.host, got.n_docs)) == n_by_host
        # quota rule: every host within [floor, floor+1] of proportionality
        N = sum(n_by_host.values())
        for _, r in got.iterrows():
            base = 1000 * r.n_docs // N
            assert r.alloc in (base, base + 1)

    def test_matches_sorted_reference(self, sf_dir):
        """Full largest-remainder replay with an explicit sort — the
        engine's sort-free selection must agree everywhere."""
        from zerox_ray.functions.hashing import md5_64
        from zerox_ray.pipelines.graph import crawl_budget
        from zerox_ray.testgen import multihost_pages_dir_for
        import pyarrow.parquet as pq

        got = crawl_budget(multihost_pages_dir_for(sf_dir)).to_pandas()
        ids = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])[
            "doc_id"
        ].to_pylist()
        n_by_host = {}
        for d in ids:
            h = f"h{d % 23}.example.net"
            n_by_host[h] = n_by_host.get(h, 0) + 1
        N = sum(n_by_host.values())
        base = {h: 1000 * n // N for h, n in n_by_host.items()}
        rem = {h: 1000 * n - base[h] * N for h, n in n_by_host.items()}
        order = sorted(
            n_by_host, key=lambda h: (-rem[h], md5_64(h.encode()) >> 1)
        )
        R = 1000 - sum(base.values())
        want = {h: base[h] + (1 if i < R else 0) for i, h in enumerate(order)}
        assert dict(zip(got.host, got.alloc)) == want
