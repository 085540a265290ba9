"""Frequency-based boilerplate removal — the CCNet paragraph-dedup family.

Where the flagship OCR pipeline strips boilerplate STRUCTURALLY (DOM
heuristics: nav/footer priors + link-ratio scoring, functions/htmlx.py),
this module removes it STATISTICALLY: extract EVERY visible text block
from every page, count exact block occurrences across the whole corpus,
and drop blocks seen ``min_count``-or-more times — repeated chrome
(menus, footers, cookie banners) repeats across pages; body text does
not. This is the CCNet/C4 paragraph-level dedup step, the standard
second boilerplate pass in LLM training-data pipelines (it catches
template text DOM heuristics miss, and vice versa).

Scale design (100 TB posture):
- block extraction is one shuffle-free compiled-regex pass over the
  payload bytes (the same scan shape as the splitter — payloads never
  move);
- occurrence counting is a per-batch combiner (count within batch) →
  ONE coarse-bucketed grouped sum keyed on the 63-bit block hash —
  the exchange moves one (hash, n) row per distinct block per batch,
  never block text;
- the duplicated-block set joins back via ONE partitioned hash join on
  the hash key (``how='left'``) — at web scale the duplicated set is
  O(distinct boilerplate blocks), far too big to broadcast, which is
  exactly what the partitioned join is for;
- per-url reassembly is ONE coarse-bucketed url exchange (block text
  moves exactly once end-to-end).

Honest cap — 63-bit block keys: two DISTINCT blocks colliding under
md5-64 would be counted as one (the unique one wrongly removed). Same
birthday math as graph._h63: ~50% probability of a single collision at
3×10⁹ distinct blocks; CCNet itself dedups on 64-bit SHA-1 prefixes
(Wenzek et al. 2020, §3.1) and accepts the same risk. The SQL oracle
counts by block TEXT, so a collision would surface as a correctness
mismatch rather than hide.

Reference anchor: zerox has no corpus-level pass at all (it is a
per-document converter, node-zerox/src/index.ts); this family is
engine-native web-corpus functionality like pipelines/dedup.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from zerox_ray.functions.htmlx import parse_blocks, split_html_pages
from zerox_ray.functions.pdfx import extract_pdf_text, is_pdf_payload, split_pdf_pages
from zerox_ray.pipelines.agg import bucketed_group_agg, bucketed_group_map
from zerox_ray.pipelines.relational import lookup_join
from zerox_ray.sources.pages import read_pages

#: remove a block seen this many times corpus-wide (CCNet: any repeat)
PARA_MIN_COUNT = 2


def raw_text_blocks(pages: ray.data.Dataset | str) -> ray.data.Dataset:
    """Every visible text block of every page, boilerplate INCLUDED:
    (url, page_index, block_index, block) — page_index 1-based,
    block_index the 0-based position in the page's block scan (empty
    blocks keep their slot but are not emitted, so downstream joins on
    a gap-free key never see '' rows).

    html payloads: ``split_html_pages`` page fragments (each carries the
    document's nav/footer chrome — the page-image parity model) scanned
    by ``parse_blocks`` with NO structural strip and NO link-ratio
    filter. pdf payloads: one block per page (the extracted page text).
    Payloads that parse to nothing (corrupt rows) emit zero blocks —
    frequency cleaning is a curation op; error accounting is the OCR
    pipeline's job."""
    ds = read_pages(pages, columns=["url", "html"]) if isinstance(pages, str) else pages

    def blocks(t: pa.Table) -> pa.Table:
        urls: list[str] = []
        pidx: list[int] = []
        bidx: list[int] = []
        texts: list[str] = []
        for url, payload in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            if is_pdf_payload(payload):
                try:
                    frags = split_pdf_pages(payload)
                except ValueError:
                    continue
                for i, frag in enumerate(frags, 1):
                    txt = extract_pdf_text(frag)
                    if txt:
                        urls.append(url)
                        pidx.append(i)
                        bidx.append(0)
                        texts.append(txt)
            else:
                # non-PDF bytes take the html path; payloads with no
                # block tags (corrupt rows) just yield no blocks
                for i, frag in enumerate(split_html_pages(payload), 1):
                    fhtml = frag.decode("utf-8", errors="replace")
                    for j, b in enumerate(parse_blocks(fhtml)):
                        if b.text:
                            urls.append(url)
                            pidx.append(i)
                            bidx.append(j)
                            texts.append(b.text)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "page_index": pa.array(pidx, pa.int64()),
                "block_index": pa.array(bidx, pa.int64()),
                "block": pa.array(texts, pa.string()),
            }
        )

    return ds.map_batches(blocks, batch_format="pyarrow")


def _h63_text(texts: list[str]) -> np.ndarray:
    """63-bit md5 block keys — SQL-replayable as
    ``('0x'||substring(md5(t),1,16))::UBIGINT // 2`` (graph._h63 for
    text)."""
    from zerox_ray.functions.hashing import md5_64_array

    return (md5_64_array([t.encode() for t in texts]) >> np.uint64(1)).astype(np.int64)


def paragraph_dedup(
    pages: ray.data.Dataset | str,
    min_count: int = PARA_MIN_COUNT,
) -> ray.data.Dataset:
    """CCNet-style corpus-frequency boilerplate removal.

    Output one row per url that produced any block: (url, text_clean,
    n_blocks, n_removed) where text_clean joins the SURVIVING blocks
    with a blank line in (page_index, block_index) order, n_blocks
    counts all extracted blocks and n_removed the duplicated ones. On
    the synthetic corpus the nav/footer chrome repeats on every html
    page and the body chunks are unique, so the statistical pass
    recovers (nearly) the structural extraction — the two passes
    cross-validate.

    Exchanges: one grouped count on the block hash + one url-keyed
    reassembly; the duplicated-hash set reaches the blocks through a
    left ``relational.lookup_join`` on the hash — a broadcast while the
    set fits (the block TEXT then moves exactly once), else a
    partitioned hash join (one extra text exchange). Both paths are
    output-identical and both are tested.

    Deliberate trade: the payload parse runs TWICE (once feeding the
    hash-count branch, once feeding the mark/reassemble branch) rather
    than materializing the exploded block table between them — measured
    at bench scale the corpus-sized materialize costs more than the
    second streaming parse (4.4 s vs 4.2 s end-to-end at sf0.1·16), and
    at cluster scale it would push the whole block corpus through the
    object store (spill) to save one CPU-side parse. Flip the trade
    only when the parser dominates (e.g. a real DOM library): insert
    ``.materialize()`` after the add_hash map."""
    blocks = raw_text_blocks(pages)

    def add_hash(t: pa.Table) -> pa.Table:
        return t.append_column(
            "h", pa.array(_h63_text(t["block"].to_pylist()), pa.int64())
        )

    hb = blocks.map_batches(add_hash, batch_format="pyarrow")

    # occurrence counts: per-batch combiner → one grouped sum on h
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("h", as_index=False).size()
        return out.rename(columns={"size": "n"}).astype({"n": "int64"})

    counts = bucketed_group_agg(
        hb.select_columns(["h"]).map_batches(partial, batch_format="pandas"),
        ["h"],
        {"n": ("n", "sum")},
    )

    def to_common(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        out = t.filter(pc.greater_equal(t["n"], min_count))
        return pa.table(
            {"h": out["h"], "dup": pa.array([1] * out.num_rows, pa.int64())}
        )

    # unmatched blocks are the keepers (dup is null)
    joined = lookup_join(
        hb, counts.map_batches(to_common, batch_format="pyarrow"), on="h", how="left"
    )

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["url", "page_index", "block_index"], kind="mergesort"
        )
        dup = g["dup"].notna()  # matched: 1; unmatched: null
        stats = g.groupby("url", sort=False).agg(
            n_blocks=("block", "size")
        )
        stats["n_removed"] = dup.groupby(g["url"], sort=False).sum().astype("int64")
        texts = (
            g.loc[~dup]
            .groupby("url", sort=False)["block"]
            .agg("\n\n".join)
            .reindex(stats.index, fill_value="")
        )
        return pd.DataFrame(
            {
                "url": stats.index.astype(object),
                "text_clean": texts.to_numpy(object),
                "n_blocks": stats["n_blocks"].to_numpy("int64"),
                "n_removed": stats["n_removed"].to_numpy("int64"),
            }
        )

    return bucketed_group_map(joined, "url", reassemble)


def boilerplate_blocks(
    pages: ray.data.Dataset | str, min_count: int = PARA_MIN_COUNT
) -> ray.data.Dataset:
    """The corpus's boilerplate catalogue: every block removed by
    ``paragraph_dedup``, with its occurrence count — (block, n). The
    audit table a curation operator reviews before trusting a frequency
    threshold (and a ready-made blocklist for a cheaper single-pass
    filter on the next crawl). One extra tiny exchange over the counts
    table to recover one representative text per duplicated hash."""
    blocks = raw_text_blocks(pages)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("block", as_index=False).size()
        return out.rename(columns={"size": "n"}).astype({"n": "int64"})

    counts = bucketed_group_agg(
        blocks.select_columns(["block"]).map_batches(partial, batch_format="pandas"),
        ["block"],
        {"n": ("n", "sum")},
    )

    def keep_common(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.greater_equal(t["n"], min_count))

    return counts.map_batches(keep_common, batch_format="pyarrow")


# --- density-smoothed main-content extraction (the jusText family) -------------

#: keep a block iff its 3-block word window (prev + self + next) clears
#: this — jusText's context rule (Pomikálek 2011): short blocks survive
#: next to long body text ("good neighbors"), isolated chrome does not.
DENSITY_MIN_WINDOW_WORDS = 15


def density_extract(
    pages: ray.data.Dataset | str,
    min_window_words: int = DENSITY_MIN_WINDOW_WORDS,
) -> ray.data.Dataset:
    """Main-content extraction by TEXT DENSITY — the third boilerplate
    strategy beside the flagship's DOM heuristics (structural priors +
    link-ratio) and ``paragraph_dedup``'s corpus frequency counting:
    score every visible block by word count, smooth over the
    3-block neighborhood in document order, keep blocks whose window
    clears ``min_window_words`` (the jusText/Readability context-
    smoothing idea, integer form). The three passes cross-validate —
    each catches chrome the others can miss (unseen templates for the
    frequency pass, atypical markup for the DOM pass, short body
    fragments for this one).

    Output: (url, n_blocks, kept_blocks, dense_text) with dense_text
    the kept blocks rejoined in (page_index, block_index) order.

    Scale shape: block extraction is ``raw_text_blocks``' shuffle-free
    payload scan; the smoothing needs each url's blocks ordered, so it
    rides ONE coarse-bucketed url exchange (block text moves once —
    the reassembly shuffle shape); the window arithmetic is a
    vectorized shift inside the reduce task, no per-block Python."""
    blocks = raw_text_blocks(pages)

    def smooth(g: pd.DataFrame) -> pd.DataFrame:
        import re

        out = []
        tok = re.compile(r"[a-z]+")
        for url, grp in g.groupby("url", sort=False):
            grp = grp.sort_values(["page_index", "block_index"], kind="mergesort")
            w = np.array([len(tok.findall(b)) for b in grp["block"]], np.int64)
            prev = np.concatenate([[0], w[:-1]])
            nxt = np.concatenate([w[1:], [0]])
            keep = (prev + w + nxt) >= min_window_words
            out.append(
                (
                    url,
                    len(grp),
                    int(keep.sum()),
                    "\n\n".join(grp["block"].to_numpy()[keep]),
                )
            )
        return pd.DataFrame(
            out, columns=["url", "n_blocks", "kept_blocks", "dense_text"]
        ).astype(
            {
                "url": "string",
                "n_blocks": "int64",
                "kept_blocks": "int64",
                "dense_text": "string",
            }
        )

    return bucketed_group_map(blocks, "url", smooth)


# --- DOM template clustering ---------------------------------------------------

import re as _re

#: opening-tag scanner: matches `<tagname` only (closing tags start `</`,
#: comments `<!--` — neither matches), so the sequence is the page's
#: opening-tag skeleton
_TAG_RE = _re.compile(rb"<([a-z][a-z0-9]*)")


def dom_templates(pages: ray.data.Dataset | str) -> ray.data.Dataset:
    """Structural template clustering of the html corpus: every page's
    OPENING-TAG sequence (its DOM skeleton, stripped of all text and
    attributes) is hashed, and pages grouped by skeleton — the CMS/
    template-detection primitive behind per-template extractor routing
    and template-skew diagnostics (one template dominating a host is the
    crawler's mirror/soft-404 tell). Comments and closing tags are
    excluded by construction, so text-only boilerplate (filler comments)
    does not split templates.

    Scale shape: ONE streaming pass over the payloads (compiled regex,
    per-batch combiner emitting ≤ |distinct templates per batch| partial
    rows) → ONE tiny grouped sum on the template hash — cluster count is
    O(templates), never O(pages). Output: (template_h, n_docs).

    The oracle rebuilds each template's exact tag sequence closed-form
    from the generator plan (testgen.build_html) and must match the
    hash of what the engine parsed from the real payload bytes — a
    parser-fidelity check, not just a count check."""
    from zerox_ray.functions.hashing import md5_64

    ds = read_pages(pages, columns=["url", "html"]) if isinstance(pages, str) else pages

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hs: list[int] = []
        for payload in df["html"]:
            b = bytes(payload)
            if not b.startswith(b"<html"):
                continue  # pdf / corrupt payloads have no DOM skeleton
            tags = _TAG_RE.findall(b)
            hs.append(md5_64(b" ".join(tags)) >> 1)
        if not hs:
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64") for c in ("template_h", "n_docs")}
            )
        vc = pd.Series(hs, dtype="int64").value_counts()
        return pd.DataFrame(
            {
                "template_h": vc.index.to_numpy(np.int64),
                "n_docs": vc.to_numpy(np.int64),
            }
        )

    counts = ds.map_batches(partial, batch_format="pandas")
    return bucketed_group_agg(counts, ["template_h"], {"n_docs": ("n_docs", "sum")})


def host_template_skew(pages: ray.data.Dataset | str) -> ray.data.Dataset:
    """Per-HOST template-domination diagnostic over the multihost corpus:
    for every host, how many docs it serves, how many distinct DOM
    templates they use, and the dominant template's share (ppm). A host
    whose pages are one template at ~100% is a mirror / soft-404 / tag
    farm candidate; a healthy host mixes templates — the crawl-budget
    signal ``dom_templates`` feeds when grouped by authority.

    Scale shape: ONE payload pass emitting per-batch (host, template)
    count partials (host via the vectorized RE2 authority kernel,
    template via the compiled opening-tag scan) → ONE (host, template)
    grouped sum (O(hosts·templates) rows, hosts ≈ 10⁸ at web scale vs
    pages 10¹²) → ONE tiny host-bucketed reduce for the share. Output:
    (host, n_docs, n_templates, top_share_ppm)."""
    from zerox_ray.functions.hashing import md5_64
    from zerox_ray.pipelines.graph import host_of

    ds = read_pages(pages, columns=["url", "html"]) if isinstance(pages, str) else pages

    def partial(t: pa.Table) -> pd.DataFrame:
        hosts = host_of(t["url"]).to_pylist()
        rows_h: list[str] = []
        rows_t: list[int] = []
        for host, payload in zip(hosts, t["html"].to_pylist()):
            b = bytes(payload)
            if not b.startswith(b"<html"):
                continue
            rows_h.append(host)
            rows_t.append(md5_64(b" ".join(_TAG_RE.findall(b))) >> 1)
        if not rows_h:
            return pd.DataFrame(
                {
                    "host": pd.Series([], dtype=object),
                    "template_h": pd.Series([], dtype="int64"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        vc = (
            pd.DataFrame({"host": rows_h, "template_h": rows_t})
            .groupby(["host", "template_h"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return vc.astype({"template_h": "int64", "n": "int64"})

    counts = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["host", "template_h"],
        {"n": ("n", "sum")},
    )

    def per_host(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("host").agg(
            n_docs=("n", "sum"), n_templates=("n", "size"), mx=("n", "max")
        )
        return pd.DataFrame(
            {
                "host": agg.index.astype(object),
                "n_docs": agg["n_docs"].to_numpy(np.int64),
                "n_templates": agg["n_templates"].to_numpy(np.int64),
                "top_share_ppm": (
                    agg["mx"].to_numpy(np.int64) * 1_000_000
                    // agg["n_docs"].to_numpy(np.int64)
                ),
            }
        )

    return bucketed_group_map(counts, "host", per_host)
