"""Property-based tests (hypothesis) for the pure functions that carry
the byte-identity invariant — coverage the reference entirely lacks
(SURVEY §5: no property/randomized testing)."""

import string

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerox_ray.functions.htmlx import extract_main_text, split_html_pages
from zerox_ray.functions.sheetx import build_sheet_payload, split_sheet_pages
from zerox_ray.functions.text import format_markdown
from zerox_ray.stages.classify import url_pid
from zerox_ray.stages.reassemble import (
    merge_partials_bucket,
    partial_reassemble_block,
    reassemble_bucket,
)
from zerox_ray.testgen import build_html

_plain = st.text(
    alphabet=string.ascii_lowercase + string.digits + " .,;:!?-",
    min_size=1,
    max_size=80,
)


@given(st.text(min_size=0, max_size=200).filter(lambda s: "```" not in s and "§§§" not in s))
def test_format_markdown_identity_without_fences(s):
    assert format_markdown(s) == s


@given(_plain)
def test_format_markdown_strips_html_fence_exactly(body):
    assert format_markdown(f"```html\n{body}\n```") == f"\n{body}\n"


@given(st.lists(_plain, min_size=1, max_size=6))
def test_html_roundtrip_byte_identical(chunks):
    """build_html page chunks survive split + main-text extraction
    byte-for-byte (the core deterministic-OCR invariant)."""
    payload = build_html(1, chunks, False)
    pages = split_html_pages(payload)
    assert len(pages) == len(chunks)
    got = [extract_main_text(p.decode("utf-8")) for p in pages]
    assert got == chunks


@given(
    st.lists(
        st.tuples(
            st.text(alphabet=string.ascii_letters + string.digits, min_size=1, max_size=12),
            # any content is legal — the length-prefixed container never
            # splits on content, so the header marker and trailing
            # newlines round-trip exactly
            st.text(
                alphabet=string.printable.replace("\r", ""),
                min_size=0,
                max_size=60,
            ),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_sheet_payload_roundtrip(sheets):
    pages = split_sheet_pages(build_sheet_payload(sheets))
    assert len(pages) == len(sheets)
    for page, (name, cell) in zip(pages, sheets):
        text = page.decode("utf-8")
        assert text.startswith("<h1>") and "<table>" in text


@given(st.text(min_size=0, max_size=100), st.integers(min_value=1, max_value=4096))
def test_url_pid_bounds_and_stability(url, p):
    a, b = url_pid(url, p), url_pid(url, p)
    assert a == b and 0 <= a < p


@settings(deadline=1000)
@given(
    n_pages=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
    cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
    err_every=st.integers(min_value=2, max_value=9),
)
def test_combiner_equals_single_shot_reassembly(n_pages, cuts, err_every):
    """For ANY per-url page counts and ANY contiguous cut positions, the
    combiner (partial + merge) equals single-shot bucket reassembly."""
    rows = []
    for u, np_ in enumerate(n_pages):
        for p in range(1, np_ + 1):
            err = (u * 31 + p) % err_every == 0
            rows.append(
                {
                    "url": f"u{u:03d}",
                    "pid": 0,
                    "page_index": p,
                    "content": "" if err else f"c{u}.{p}",
                    "content_length": 0 if err else len(f"c{u}.{p}"),
                    "status": "ERROR" if err else "SUCCESS",
                    "error": "e" if err else "",
                    "input_tokens": 1,
                    "output_tokens": 1,
                }
            )
    df = pd.DataFrame(rows)
    expected = reassemble_bucket(df).sort_values("url").reset_index(drop=True)
    bounds = sorted({0, len(df), *[c for c in cuts if c <= len(df)]})
    partials = pd.concat(
        [
            partial_reassemble_block(df.iloc[a:b])
            for a, b in zip(bounds, bounds[1:])
            if b > a
        ],
        ignore_index=True,
    )
    got = merge_partials_bucket(partials).sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[expected.columns.tolist()], expected)


@given(
    st.lists(
        st.tuples(st.sampled_from(["A", "B", "C"]), st.integers(0, 255)),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 59),
)
@settings(max_examples=40, deadline=None)
def test_grouped_histogram_partials_split_invariant(rows, cut):
    """Per-(group,bin) counts merged from any batch split equal the
    single-shot counts — the mergeability contract of the grouped
    histogram-quantile sketch."""
    df = pd.DataFrame(rows, columns=["g", "v"]).astype({"v": "float64"})
    cut = min(cut, len(df) - 1) or 1

    def partial(d):
        bins = np.clip((d["v"].to_numpy() // 16).astype(np.int64), 0, 15)
        return (
            pd.DataFrame({"g": d["g"].to_numpy(), "b": bins})
            .groupby(["g", "b"], as_index=False)
            .size()
        )

    whole = partial(df).set_index(["g", "b"])["size"]
    parts = pd.concat([partial(df.iloc[:cut]), partial(df.iloc[cut:])])
    merged = parts.groupby(["g", "b"])["size"].sum()
    pd.testing.assert_series_equal(
        whole.sort_index(), merged.sort_index(), check_names=False
    )


@given(
    st.lists(
        st.tuples(st.sampled_from(["x", "y"]), st.integers(0, 10_000)),
        min_size=1,
        max_size=80,
    ),
    st.integers(1, 79),
)
@settings(max_examples=40, deadline=None)
def test_grouped_hll_register_merge_split_invariant(rows, cut):
    """max-merge of per-batch (group, register) partials ≡ single-shot
    registers, for any split point — the grouped-HLL mergeability law."""
    from zerox_ray.pipelines.sketches import _hll_reg_rank

    df = pd.DataFrame(rows, columns=["g", "uid"])
    cut = min(cut, len(df) - 1) or 1

    def regs(d):
        r, k = _hll_reg_rank(d["uid"].to_numpy(dtype=np.int64), 12)
        return (
            pd.DataFrame({"g": d["g"].to_numpy(), "r": r, "k": k})
            .groupby(["g", "r"], as_index=False)["k"]
            .max()
        )

    whole = regs(df).set_index(["g", "r"])["k"]
    merged = (
        pd.concat([regs(df.iloc[:cut]), regs(df.iloc[cut:])])
        .groupby(["g", "r"])["k"]
        .max()
    )
    pd.testing.assert_series_equal(
        whole.sort_index(), merged.sort_index(), check_names=False
    )


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 40)),  # (user, week)
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=40, deadline=None)
def test_cohort_cells_independent_of_duplicate_events(pairs):
    """Cohort-retention cells depend only on the DISTINCT (user, week)
    set — duplicating any event never changes a cell (the per-batch
    drop_duplicates combiner is lossless)."""
    uw = pd.DataFrame(pairs, columns=["u", "w"])

    def cells(d):
        d = d.drop_duplicates(["u", "w"])
        cohort = d.groupby("u")["w"].transform("min")
        c = pd.DataFrame({"cw": cohort, "off": d["w"] - cohort})
        return c.groupby(["cw", "off"]).size().sort_index()

    doubled = pd.concat([uw, uw.iloc[: max(1, len(uw) // 2)]])
    pd.testing.assert_series_equal(cells(uw), cells(doubled), check_names=False)


@given(
    st.lists(
        st.binary(min_size=0, max_size=300),
        min_size=0,
        max_size=50,
    )
)
@settings(max_examples=60, deadline=None)
def test_crc32_array_matches_zlib(values):
    """The vectorized table-driven crc32 must be BIT-IDENTICAL to
    zlib.crc32 for every input — pid layout and resume manifests key on
    it, so "close" would corrupt partition assignment silently."""
    import zlib

    import pyarrow as pa

    from zerox_ray.functions.hashing import crc32_array

    arr = pa.array(values, pa.binary())
    got = crc32_array(arr)
    want = np.array([zlib.crc32(v) for v in values], dtype=np.uint32)
    assert got.dtype == np.uint32
    np.testing.assert_array_equal(got, want)
    # chunked + sliced layouts hit the offset arithmetic
    if len(values) >= 2:
        ch = pa.chunked_array([arr.slice(0, 1), arr.slice(1)])
        np.testing.assert_array_equal(crc32_array(ch), want)


def test_crc32_array_long_and_empty_values():
    import zlib

    import pyarrow as pa

    from zerox_ray.functions.hashing import crc32_array

    vals = [b"x" * 100_003, b"", b"abc"]
    got = crc32_array(pa.array(vals, pa.binary()))
    np.testing.assert_array_equal(
        got, np.array([zlib.crc32(v) for v in vals], dtype=np.uint32)
    )


# --- web-graph property tests (random small graphs through the real
# --- distributed operators, checked against pure-python replicas)


@settings(max_examples=5, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        min_size=0,
        max_size=25,
    ),
)
def test_pagerank_random_graphs_match_replica(n, raw_edges):
    import pyarrow as pa
    import ray.data

    from zerox_ray.pipelines.graph import (
        PR_DAMP_DEN,
        PR_DAMP_NUM,
        PR_ITERS,
        PR_SCALE,
        pagerank,
    )

    edges = [(a % n, b % n) for a, b in raw_edges]
    urls = [f"n{i}" for i in range(n)]
    out = {i: [] for i in range(n)}
    for a, b in edges:
        out[a].append(b)
    html = [
        ("".join(f'<a href="n{t}">x</a>' for t in out[i]) or "<p>leaf</p>").encode()
        for i in range(n)
    ]
    ds = ray.data.from_arrow(
        pa.table({"url": pa.array(urls), "html": pa.array(html, pa.binary())})
    )
    got = dict(
        zip(*(lambda d: (d.url, d["rank"]))(pagerank(ds, prefix="n").to_pandas()))
    )
    base = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_SCALE // PR_DAMP_DEN
    r = {i: PR_SCALE for i in range(n)}
    deg = {i: len(out[i]) for i in range(n)}
    for _ in range(PR_ITERS):
        acc = {i: 0 for i in range(n)}
        for a, b in edges:
            acc[b] += r[a] // deg[a]
        r = {i: base + PR_DAMP_NUM * acc[i] // PR_DAMP_DEN for i in range(n)}
    assert got == {f"n{i}": r[i] for i in range(n)}


@settings(max_examples=5, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        min_size=1,
        max_size=16,
    ),
)
def test_link_components_random_graphs_match_union_find(n, raw_edges):
    import hashlib

    import pyarrow as pa
    import ray.data

    from zerox_ray.pipelines.graph import link_components

    edges = [(a % n, b % n) for a, b in raw_edges]
    urls = [f"n{i}" for i in range(n)]
    out = {i: [] for i in range(n)}
    for a, b in edges:
        out[a].append(b)
    html = [
        ("".join(f'<a href="n{t}">x</a>' for t in out[i]) or "<p>leaf</p>").encode()
        for i in range(n)
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array(urls),
                "lang": pa.array(["en"] * n),
                "html": pa.array(html, pa.binary()),
            }
        )
    )
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    def h63(i):
        return int(hashlib.md5(f"n{i}".encode()).hexdigest()[:16], 16) >> 1

    rep = {}
    for i in range(n):
        r = find(i)
        if r not in rep or h63(i) < h63(rep[r]):
            rep[r] = i
    want = {f"n{i}": f"n{rep[find(i)]}" for i in range(n)}
    got = link_components(ds, prefix="n").to_pandas()
    assert dict(zip(got.url, got.component)) == want


@settings(max_examples=5, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        min_size=0,
        max_size=25,
    ),
)
def test_hits_random_graphs_match_replica(n, raw_edges):
    import pyarrow as pa
    import ray.data

    from zerox_ray.pipelines.graph import HITS_ITERS, PR_SCALE, hits

    edges = sorted({(a % n, b % n) for a, b in raw_edges})
    urls = [f"n{i}" for i in range(n)]
    out = {i: [] for i in range(n)}
    for a, b in edges:
        out[a].append(b)
    html = [
        ("".join(f'<a href="n{t}">x</a>' for t in out[i]) or "<p>leaf</p>").encode()
        for i in range(n)
    ]
    ds = ray.data.from_arrow(
        pa.table({"url": pa.array(urls), "html": pa.array(html, pa.binary())})
    )
    got = hits(ds, prefix="n").to_pandas()
    got_map = {u: (h, a) for u, h, a in zip(got.url, got.hub, got.authority)}

    h = {i: PR_SCALE for i in range(n)}
    a = {i: 0 for i in range(n)}
    if edges:
        for _ in range(HITS_ITERS):
            ar = {}
            for s, d in edges:
                ar[d] = ar.get(d, 0) + h.get(s, 0)
            amax = max(max(ar.values(), default=0), 1)
            a = {d: v * PR_SCALE // amax for d, v in ar.items()}
            hr = {}
            for s, d in edges:
                hr[s] = hr.get(s, 0) + a.get(d, 0)
            hmax = max(max(hr.values(), default=0), 1)
            h = {s: v * PR_SCALE // hmax for s, v in hr.items()}
        want = {f"n{i}": (h.get(i, 0), a.get(i, 0)) for i in range(n)}
    else:
        want = {f"n{i}": (0, 0) for i in range(n)}
    assert got_map == want


@settings(max_examples=5, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        min_size=0,
        max_size=20,
    ),
)
def test_reciprocal_links_random_graphs_match_set_replica(n, raw_edges):
    import pyarrow as pa
    import ray.data

    from zerox_ray.pipelines.graph import reciprocal_links

    edges = {(a % n, b % n) for a, b in raw_edges if a % n != b % n}
    urls = [f"n{i}" for i in range(n)]
    out = {i: [] for i in range(n)}
    for a, b in edges:
        out[a].append(b)
    html = [
        ("".join(f'<a href="n{t}">x</a>' for t in out[i]) or "<p>leaf</p>").encode()
        for i in range(n)
    ]
    ds = ray.data.from_arrow(
        pa.table({"url": pa.array(urls), "html": pa.array(html, pa.binary())})
    )
    got = reciprocal_links(ds, prefix="n").to_pandas()
    # a linkless corpus yields a rowless (possibly schemaless) result
    got_pairs = (
        set() if got.empty else set(zip(got["url_a"], got["url_b"]))
    )
    want = {
        (f"n{min(a, b)}", f"n{max(a, b)}")
        for a, b in edges
        if (b, a) in edges and a < b
    }
    assert got_pairs == want


def test_token_chunks_windows_and_tail(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.dataops import token_chunks

    words = [f"w{i:03d}".replace("0", "o").replace("1", "i").replace(
        "2", "t").replace("3", "h").replace("4", "f").replace(
        "5", "v").replace("6", "s").replace("7", "n").replace(
        "8", "e").replace("9", "g") for i in range(100)]
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array([" ".join(words), "one two", ""], pa.string()),
            "lang": pa.array(["en"] * 3),
            "source": pa.array(["s"] * 3),
            "n_chars": pa.array([1, 1, 0], pa.int64()),
        }
    )
    pq.write_table(docs, tmp_path / "documents.parquet")
    got = (
        token_chunks(str(tmp_path), chunk_tokens=64, stride=48)
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    d0 = got[got.doc_id == 0]
    # 100 tokens, stride 48 -> starts 0, 48, 96: windows 64, 52, 4
    assert list(d0.n_tok) == [64, 52, 4]
    assert d0.chunk_text.iloc[0] == " ".join(words[:64])
    assert d0.chunk_text.iloc[2] == " ".join(words[96:])
    d1 = got[got.doc_id == 1]
    assert list(d1.n_tok) == [2] and d1.chunk_text.iloc[0] == "one two"
    assert (got.doc_id == 2).sum() == 0  # empty doc emits nothing


@settings(max_examples=5, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        min_size=0,
        max_size=24,
    ),
)
def test_cocitation_counts_random_graphs_match_counter_replica(n, raw_edges):
    import pyarrow as pa
    import ray.data
    from collections import Counter

    from zerox_ray.pipelines.graph import cocitation_counts

    edges = {(a % n, b % n) for a, b in raw_edges}
    urls = [f"n{i}" for i in range(n)]
    out = {i: [] for i in range(n)}
    for a, b in edges:
        out[a].append(b)
    html = [
        ("".join(f'<a href="n{t}">x</a>' for t in out[i]) or "<p>leaf</p>").encode()
        for i in range(n)
    ]
    ds = ray.data.from_arrow(
        pa.table({"url": pa.array(urls), "html": pa.array(html, pa.binary())})
    )
    want = Counter()
    for i in range(n):
        ts = sorted(set(out[i]), key=lambda t: f"n{t}")
        for x in range(len(ts)):
            for y in range(x + 1, len(ts)):
                want[(f"n{ts[x]}", f"n{ts[y]}")] += 1
    for min_sources in (1, 2):
        got = cocitation_counts(ds, prefix="n", min_sources=min_sources).to_pandas()
        got_m = (
            {}
            if got.empty
            else dict(zip(zip(got["url_a"], got["url_b"]), got["n_sources"]))
        )
        assert got_m == {k: v for k, v in want.items() if v >= min_sources}


@settings(max_examples=5, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        min_size=0,
        max_size=24,
    ),
    st.integers(min_value=1, max_value=4),
)
@pytest.mark.parametrize("path", ["gathered", "rounds"])
def test_kcore_random_graphs_match_peel_replica(path, n, raw_edges, k):
    import pyarrow as pa
    import ray.data
    from collections import Counter

    import zerox_ray.pipelines.graph as G

    edges = {(a % n, b % n) for a, b in raw_edges if a % n != b % n}
    und = edges | {(b, a) for a, b in edges}
    urls = [f"n{i}" for i in range(n)]
    out = {i: [] for i in range(n)}
    for a, b in edges:
        out[a].append(b)
    html = [
        ("".join(f'<a href="n{t}">x</a>' for t in out[i]) or "<p>leaf</p>").encode()
        for i in range(n)
    ]
    ds = ray.data.from_arrow(
        pa.table({"url": pa.array(urls), "html": pa.array(html, pa.binary())})
    )
    # 3-round fixed peel replica
    E = set(und)
    for _ in range(3):
        deg = Counter(a for a, b in E)
        surv = {v for v, d in deg.items() if d >= k}
        if len(surv) == len(deg):
            break
        E = {(a, b) for a, b in E if a in surv and b in surv}
    want = dict(Counter(f"n{a}" for a, b in E))
    with pytest.MonkeyPatch.context() as m:
        if path == "rounds":
            m.setattr(G, "gathered", lambda kernel, *inputs: None)
        got = G.kcore(ds, k=k, prefix="n").to_pandas()
    got_m = {} if got.empty else dict(zip(got.url, got.degree))
    assert got_m == want


@settings(max_examples=5, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        min_size=0,
        max_size=24,
    ),
)
def test_coupling_counts_random_graphs_match_counter_replica(n, raw_edges):
    import pyarrow as pa
    import ray.data
    from collections import Counter

    from zerox_ray.pipelines.graph import coupling_counts

    edges = {(a % n, b % n) for a, b in raw_edges}
    urls = [f"n{i}" for i in range(n)]
    out = {i: [] for i in range(n)}
    for a, b in edges:
        out[a].append(b)
    html = [
        ("".join(f'<a href="n{t}">x</a>' for t in out[i]) or "<p>leaf</p>").encode()
        for i in range(n)
    ]
    ds = ray.data.from_arrow(
        pa.table({"url": pa.array(urls), "html": pa.array(html, pa.binary())})
    )
    by_dst = {}
    for a, b in edges:
        by_dst.setdefault(b, set()).add(f"n{a}")
    want = Counter()
    for srcs in by_dst.values():
        ss = sorted(srcs)
        for x in range(len(ss)):
            for y in range(x + 1, len(ss)):
                want[(ss[x], ss[y])] += 1
    for min_targets in (1, 2):
        got = coupling_counts(ds, prefix="n", min_targets=min_targets).to_pandas()
        got_m = (
            {}
            if got.empty
            else dict(zip(zip(got["url_a"], got["url_b"]), got["n_targets"]))
        )
        assert got_m == {k: v for k, v in want.items() if v >= min_targets}
