"""End-to-end web-corpus curation capstone: raw Common-Crawl-style pages
→ zerox OCR extraction → quality gate → exact dedup → token-budget
training shards, composed as ONE lazy streaming plan.

This is the north-star composition (BASELINE.json north_rule: html in,
training-ready corpus out) built from stages that each carry their own
oracle elsewhere: the flagship OCR reassembly (pipelines/ocr.py), the
curate_corpus gate/dedup idioms (pipelines/dataops.py), and the
token_shards distributed prefix sum — re-keyed here for STRING urls via
the md5-64 hash order, which doubles as a deterministic training-order
shuffle (same trick as shuffled_shards).

Exchanges in the whole plan: the OCR pid reassembly, ONE markdown-keyed
dedup exchange (shrunk first by the gate and per-batch combiners), and
the ≤65,536-range grouped sum of the prefix pass — never an all-to-all
over raw pages.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from zerox_ray.config import ZeroxConfig
from zerox_ray.functions.text import TOKEN_RE
from zerox_ray.pipelines.agg import bucketed_group_agg, bucketed_group_map
from zerox_ray.pipelines.ocr import run_ocr

#: coarse prefix-sum ranges: rng = md5_64(url) >> 48 → ≤65,536 ranges,
#: so the driver-side offset table stays scalar-sized at any corpus size
_HASH_RANGE_SHIFT = 48

WEB_TOKENS_PER_SHARD = 20_000
WEB_MIN_TOKENS = 5


def _coarse_modulus(n_rows: int) -> int:
    """Pass-2 coarse-bucket count for the prefix-sum shard assign: each
    map_groups task holds ~n_rows/m keeper KEY rows (url, n_tok, h, rng
    — ~100 B/row, the payload never rides along), so m scales with the
    corpus to hold a task near ~250k rows (≈25 MB) instead of a fixed
    1/256 corpus fraction; capped at the 65,536-range space (beyond
    that, lower _HASH_RANGE_SHIFT for more ranges first)."""
    return max(256, min(1 << 16, n_rows // 250_000 + 1))


def _curated_keepers(
    pages: ray.data.Dataset | str,
    cfg: ZeroxConfig | None,
    min_tokens: int,
) -> ray.data.Dataset:
    """Shared front of the curation capstones: OCR → quality gate →
    exact dedup. Returns (url, n_tok) keeper rows."""
    docs = run_ocr(pages, cfg)

    def gate(t: pa.Table) -> pa.Table:
        n_tok = pc.cast(
            pc.count_substring_regex(t["markdown"], TOKEN_RE.pattern), pa.int64()
        )
        keep = pc.and_(
            pc.equal(t["ocr_failed"], pa.scalar(0, pa.int64())),
            pc.greater_equal(n_tok, pa.scalar(min_tokens, pa.int64())),
        )
        out = pa.table(
            {"url": t["url"], "markdown": t["markdown"], "n_tok": n_tok}
        )
        return out.filter(keep)

    gated = docs.map_batches(gate, batch_format="pyarrow")

    def dd_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values("url").drop_duplicates("markdown")

    def dd_keep(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("url").drop_duplicates("markdown")
        return pd.DataFrame(
            {
                "url": g["url"].astype("string"),
                "n_tok": g["n_tok"].astype("int64"),
            }
        )

    return bucketed_group_map(
        gated.map_batches(dd_partial, batch_format="pandas"),
        "markdown",
        dd_keep,
    )


def web_curate(
    pages: ray.data.Dataset | str,
    cfg: ZeroxConfig | None = None,
    tokens_per_shard: int = WEB_TOKENS_PER_SHARD,
    min_tokens: int = WEB_MIN_TOKENS,
) -> ray.data.Dataset:
    """pages(html) → (url, n_tok, shard_id) for the curated corpus.

    1. OCR: the flagship extraction pipeline (byte-identical markdown).
    2. Gate: drop documents with any failed page or < min_tokens tokens
       (vectorized Arrow regex count — the same kernel token_stats pins).
    3. Exact dedup: keep the lexicographically-lowest url per markdown
       (per-batch first-occurrence combiner, then one text-keyed
       exchange — the curate_corpus idiom).
    4. Shard packing: exclusive prefix token count in (md5_64(url), url)
       order // tokens_per_shard — the token_shards two-pass distributed
       prefix sum, hash order doubling as the training shuffle.
    """
    keepers = _curated_keepers(pages, cfg, min_tokens)
    return _pack_shards(keepers, tokens_per_shard)


def _pack_shards(
    keepers: ray.data.Dataset,
    tokens_per_shard: int,
    extra_cols: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Two-pass distributed exclusive-prefix-sum shard packing of
    (url, n_tok[, *extra_cols]) keeper rows in (md5_64(url), url) order
    — hash order doubles as the training shuffle. ``extra_cols`` ride
    along unchanged (host_curate carries the host column through).
    Output: (url, *extra_cols, n_tok, shard_id)."""

    def hash_batch(df: pd.DataFrame) -> pd.DataFrame:
        from zerox_ray.functions.hashing import md5_64_array

        h = md5_64_array([u.encode() for u in df["url"]])
        return pd.DataFrame(
            {
                "url": df["url"].astype("string"),
                **{c: df[c] for c in extra_cols},
                "n_tok": df["n_tok"].astype("int64"),
                "h": pd.Series(h, dtype="uint64"),
                "rng": pd.Series(
                    (h >> np.uint64(_HASH_RANGE_SHIFT)).astype(np.int64),
                    dtype="int64",
                ),
            }
        )

    hashed = keepers.map_batches(hash_batch, batch_format="pandas").materialize()

    # pass 1: per-block partial sums → ONE grouped-sum exchange on rng →
    # driver prefix scan. The exchange is what bounds the driver pull at
    # ≤65,536 rows (one per range): without it the driver would receive
    # O(blocks × ranges-per-block) partials — worst case O(keeper rows)
    # when blocks are small (the importance_sample idiom, dataops.py).
    range_sums = (
        bucketed_group_agg(
            hashed.map_batches(
                lambda df: df.groupby("rng", as_index=False)["n_tok"].sum(),
                batch_format="pandas",
            ),
            ["rng"],
            {"n_tok": ("n_tok", "sum")},
        )
        .to_pandas()
        .sort_values("rng")
    )
    offsets = dict(
        zip(
            range_sums["rng"].to_numpy(),
            np.concatenate(
                [[0], np.cumsum(range_sums["n_tok"].to_numpy())[:-1]]
            ),
        )
    )
    off_ref = ray.put(offsets)

    # pass 2: within-range exclusive cumsum in (h, url) order + offset.
    # Grouped on a COARSE bucket of ranges, not per range: map_groups is
    # one Python call per group, and at small corpus sizes most of the
    # 65,536 ranges hold a single row (measured: the per-range version
    # spent 60 s of task time on 5k rows). Ranges are independent, so a
    # bucket handles many at once with a vectorized groupby-cumsum.
    def assign(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        g = g.sort_values(["rng", "h", "url"], kind="mergesort")
        tok = g["n_tok"].to_numpy(dtype=np.int64)
        ingrp = (
            g.groupby("rng", sort=False)["n_tok"].cumsum().to_numpy(np.int64)
            - tok
        )
        excl = ingrp + g["rng"].map(off).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "url": g["url"].astype("string"),
                **{c: g[c] for c in extra_cols},
                "n_tok": tok,
                "shard_id": (excl // tokens_per_shard).astype(np.int64),
            }
        )

    cm = _coarse_modulus(hashed.count())
    return bucketed_group_map(hashed, "rng", assign, num_buckets=cm).select_columns(
        ["url", *extra_cols, "n_tok", "shard_id"]
    )


def extraction_parity(
    pages: ray.data.Dataset | str,
    cfg: ZeroxConfig | None = None,
) -> ray.data.Dataset:
    """The north-rule invariant as a first-class audit operator: per
    url, does the extracted markdown carry EXACTLY the reference
    ``text`` column's characters? Whitespace-insensitive by definition —
    the pipeline inserts ``"\\n\\n"`` page separators at arbitrary chunk
    boundaries (reference: node-zerox/src/index.ts:566), so both sides
    are compared with every ``\\s`` removed. A regression anywhere in
    the extraction chain (boilerplate strip, page split, fence strip,
    reassembly order) flips rows to 0; failed documents (markdown
    empty, reference text not) report 0 by construction.

    Output: (url, md_chars, ref_chars, is_match) — char counts of the
    stripped sides plus the 0/1 verdict.

    Scale shape: each side reduces to a 16-hex md5 fingerprint of its
    stripped text INSIDE the scan, so the ONE url-keyed lookup join
    (a broadcast of the reference side while it fits) moves (key,
    fingerprint, n_chars) rows — document payloads never ride it.
    63-bit join keys carry both url copies for the usual
    collision guard (equality-filtered after the join)."""
    import hashlib

    from zerox_ray.pipelines.graph import _h63
    from zerox_ray.pipelines.relational import lookup_join
    from zerox_ray.sources.pages import read_pages

    docs = run_ocr(pages, cfg)

    def _strip_fp(col: pa.ChunkedArray | pa.Array) -> tuple[list[str], np.ndarray]:
        stripped = pc.replace_substring_regex(col, r"\s+", "")
        vals = stripped.to_pylist()
        fps = [hashlib.md5(v.encode()).hexdigest()[:16] for v in vals]
        return fps, np.array([len(v) for v in vals], dtype=np.int64)

    def md_side(t: pa.Table) -> pa.Table:
        fps, chars = _strip_fp(t["markdown"])
        urls = t["url"].to_pylist()
        return pa.table(
            {
                "k": pa.array(_h63(urls), pa.int64()),
                "url": t["url"],
                "md_fp": pa.array(fps, pa.string()),
                "md_chars": pa.array(chars, pa.int64()),
            }
        )

    def ref_side(t: pa.Table) -> pa.Table:
        fps, chars = _strip_fp(t["text"])
        urls = t["url"].to_pylist()
        return pa.table(
            {
                "k": pa.array(_h63(urls), pa.int64()),
                "url_r": t["url"],
                "ref_fp": pa.array(fps, pa.string()),
                "ref_chars": pa.array(chars, pa.int64()),
            }
        )

    refs = (
        read_pages(pages, columns=["url", "text"])
        if isinstance(pages, str)
        else pages.select_columns(["url", "text"])
    )
    joined = lookup_join(
        docs.map_batches(md_side, batch_format="pyarrow"),
        refs.map_batches(ref_side, batch_format="pyarrow"),
        on="k",
    )
    return joined.map_batches(
        lambda df: df.loc[df["url"] == df["url_r"]].assign(
            is_match=lambda g: (g["md_fp"] == g["ref_fp"]).astype("int64")
        )[["url", "md_chars", "ref_chars", "is_match"]].astype(
            {"md_chars": "int64", "ref_chars": "int64"}
        ),
        batch_format="pandas",
    )


#: per-host keeper cap for host_curate (the anti-domination default:
#: CCNet/Gopher-style corpora cap any one domain's share of the corpus)
HOST_CURATE_CAP = 10


def host_curate(
    pages: ray.data.Dataset | str,
    cfg: ZeroxConfig | None = None,
    per_host_cap: int = HOST_CURATE_CAP,
    tokens_per_shard: int = WEB_TOKENS_PER_SHARD,
    min_tokens: int = WEB_MIN_TOKENS,
) -> ray.data.Dataset:
    """Domain-balanced curation: web_curate's keeper chain (OCR → gate →
    exact dedup) with a per-host anti-domination cap BEFORE shard
    packing — no single domain may contribute more than ``per_host_cap``
    documents to the curated corpus (the CCNet/Gopher politeness rule,
    here at curation time rather than crawl time; the crawl-time twin is
    graph.host_quota). Output: (url, host, n_tok, shard_id).

    Scale shape: the cap is a per-batch partial top-k (≤cap rows per
    (host, batch) enter the exchange) finished by ONE coarse-bucketed
    host exchange — the host_quota idiom — then the same two-pass
    prefix-sum packing as web_curate with the host column riding along.
    """
    from zerox_ray.pipelines.graph import host_of

    keepers = _curated_keepers(pages, cfg, min_tokens)

    def add_host(t: pa.Table) -> pa.Table:
        return t.append_column("host", host_of(t["url"]))

    hosted = keepers.map_batches(add_host, batch_format="pyarrow")

    def cap_partial(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(["host", "n_tok", "url"], ascending=[True, False, True])
            .groupby("host")
            .head(per_host_cap)
        )

    def cap_final(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.sort_values(["host", "n_tok", "url"], ascending=[True, False, True])
            .groupby("host")
            .head(per_host_cap)
        )
        return out.reset_index(drop=True)

    capped = bucketed_group_map(
        hosted.map_batches(cap_partial, batch_format="pandas"),
        "host",
        cap_final,
    )
    return _pack_shards(capped, tokens_per_shard, extra_cols=("host",))


#: rank-range granularity for rank_curate's prefix pass: 256 micro-units
#: of PageRank per range keeps the driver-side offset table bounded by
#: max_rank/256 ENTRIES (a property of the rank VALUE range, not the
#: corpus size)
_RANK_RANGE_SHIFT = 8


def rank_curate(
    pages: ray.data.Dataset | str,
    cfg: ZeroxConfig | None = None,
    tokens_per_shard: int = WEB_TOKENS_PER_SHARD,
    min_tokens: int = WEB_MIN_TOKENS,
) -> ray.data.Dataset:
    """Authority-ordered curation: the web_curate composition, but shard
    packing follows GLOBAL PageRank-descending order instead of hash
    order — crawl-graph signals feeding training-data selection. The
    highest-authority content lands in the earliest shards, so "spend a
    token budget B on the best pages" is the post-filter
    ``shard_id < B // tokens_per_shard`` with no further shuffle.

    Output: (url, n_tok, rank, shard_id); order key is
    (rank DESC, md5_64(url) ASC, url ASC) — hash tie-break keeps equal
    ranks deterministic and skew-spread.

    Scale shape: the same two-pass distributed prefix sum as web_curate,
    but ranged on the rank VALUE (``-(rank >> 8)``) so range order IS
    rank order; the driver-side offset table is bounded by max_rank/256
    entries regardless of corpus size. Two payload scans total (one OCR,
    one link extraction — pagerank needs the full graph either way).
    Honest cap: all rows tied at one exact rank land in one range group;
    the in-group sort is vectorized but per-group memory is the bound —
    the refinement path at extreme tie mass is a secondary h-range split
    of the modal rank value."""
    from zerox_ray.pipelines.graph import pagerank
    from zerox_ray.pipelines.relational import lookup_join

    keepers = _curated_keepers(pages, cfg, min_tokens)
    ranks = pagerank(pages)

    def key_keep(df: pd.DataFrame) -> pd.DataFrame:
        from zerox_ray.functions.hashing import md5_64_array

        h = md5_64_array([u.encode() for u in df["url"]])
        return pd.DataFrame(
            {
                "k": pd.Series((h >> np.uint64(1)).astype(np.int64), dtype="int64"),
                "url": df["url"].astype(object),
                "n_tok": df["n_tok"].astype("int64"),
                "h": pd.Series(h, dtype="uint64"),
            }
        )

    def key_rank(df: pd.DataFrame) -> pd.DataFrame:
        from zerox_ray.functions.hashing import md5_64_array

        h = md5_64_array([u.encode() for u in df["url"]])
        return pd.DataFrame(
            {
                "k": pd.Series((h >> np.uint64(1)).astype(np.int64), dtype="int64"),
                "url_r": df["url"].astype(object),
                "rank": df["rank"].astype("int64"),
            }
        )

    joined = lookup_join(
        keepers.map_batches(key_keep, batch_format="pandas"),
        ranks.map_batches(key_rank, batch_format="pandas"),
        on="k",
    )
    # collision guard: 63-bit keys birthday-collide at ~10^12 urls
    # (≈50% at 3e9); the rank side carries its url so a cross-pairing
    # from a collided key is dropped here instead of corrupting a row
    ranged = joined.map_batches(
        lambda df: df.loc[df["url"] == df["url_r"]]
        .assign(rng=lambda g: -(g["rank"].to_numpy(np.int64) >> _RANK_RANGE_SHIFT))
        [["url", "n_tok", "h", "rank", "rng"]],
        batch_format="pandas",
    ).materialize()

    # pass 1: per-block partial sums → ONE grouped-sum exchange on rng →
    # driver prefix scan over ascending rng (= descending rank). The
    # exchange bounds the pull at one row per occupied rank range
    # (≤ max_rank >> 8 rows), independent of block count / corpus size.
    range_sums = (
        bucketed_group_agg(
            ranged.map_batches(
                lambda df: df.groupby("rng", as_index=False)["n_tok"].sum(),
                batch_format="pandas",
            ),
            ["rng"],
            {"n_tok": ("n_tok", "sum")},
        )
        .to_pandas()
        .sort_values("rng")
    )
    offsets = dict(
        zip(
            range_sums["rng"].to_numpy(),
            np.concatenate(
                [[0], np.cumsum(range_sums["n_tok"].to_numpy())[:-1]]
            ),
        )
    )
    off_ref = ray.put(offsets)

    # pass 2: within-range exclusive cumsum in (rank desc, h, url) order.
    # Coarse-bucketed like web_curate's pass 2: ranges are independent,
    # so one Python call handles many ranges with a vectorized
    # groupby-cumsum instead of one call per (mostly single-row) range.
    def assign(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        g = g.copy()
        g["__nr"] = -g["rank"].to_numpy(np.int64)
        g = g.sort_values(["rng", "__nr", "h", "url"], kind="mergesort")
        tok = g["n_tok"].to_numpy(dtype=np.int64)
        ingrp = (
            g.groupby("rng", sort=False)["n_tok"].cumsum().to_numpy(np.int64)
            - tok
        )
        excl = ingrp + g["rng"].map(off).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "url": g["url"].astype("string"),
                "n_tok": tok,
                "rank": g["rank"].astype("int64"),
                "shard_id": (excl // tokens_per_shard).astype(np.int64),
            }
        )

    cm = _coarse_modulus(ranged.count())
    return bucketed_group_map(ranged, "rng", assign, num_buckets=cm).select_columns(
        ["url", "n_tok", "rank", "shard_id"]
    )
