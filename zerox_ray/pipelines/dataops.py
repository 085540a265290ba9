"""Training-data pipeline operations over the ``documents``/``events``
tables: text analysis, quality scoring, exact dedup, windowed aggregates.

These are the large-scale-corpus operators a 100 TB pipeline needs beyond
the reference's own surface (which has none — SURVEY §2.8). Design rules
applied throughout:

- prune columns at the read;
- vectorized pandas/pyarrow kernels inside map_batches (compiled regexes
  at module level — once per worker process);
- PRE-AGGREGATE inside map_batches (one partial row per key per batch),
  then a small ``groupby().aggregate(Sum)`` over partials, so the shuffle
  moves O(keys × batches) rows, not O(rows);
- integer (ppm / cents) arithmetic for anything an exact-value oracle
  checks, so no float-summation-order nondeterminism.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from zerox_ray.sources.tables import read_table
from zerox_ray.functions.text import STOPWORD_RE, TOKEN_RE
from zerox_ray.pipelines.agg import bucketed_group_agg, bucketed_group_map, cached_get

PPM = 1_000_000


# --- token / quality analysis ------------------------------------------------


def _token_partials(t: pa.Table) -> pa.Table:
    """Arrow-native partial: pc.count_substring_regex (RE2) matches
    Python re semantics for these class-only patterns; no Arrow→pandas
    string materialization on the hot read path."""
    part = pa.table(
        {
            "lang": t["lang"],
            "n_docs": pa.array([1] * t.num_rows, pa.int64()),
            "total_tokens": pc.cast(
                pc.count_substring_regex(t["text"], TOKEN_RE.pattern), pa.int64()
            ),
            "total_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
        }
    )
    return part.group_by("lang").aggregate(
        [("n_docs", "sum"), ("total_tokens", "sum"), ("total_chars", "sum")]
    ).rename_columns(["lang", "n_docs", "total_tokens", "total_chars"])


def token_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-language token/char counts with per-batch partial aggregation.
    Output: (lang, n_docs, total_tokens, total_chars)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["text", "lang"])
    partials = ds.map_batches(
        _token_partials, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucketed_group_agg(
        partials,
        ["lang"],
        {
            "n_docs": ("n_docs", "sum"),
            "total_tokens": ("total_tokens", "sum"),
            "total_chars": ("total_chars", "sum"),
        },
    )


def _quality_batch(t: pa.Table) -> pa.Table:
    """Arrow-native per-doc features: RE2 count kernels over the string
    column (zero-copy from the object store), integer ppm arithmetic.
    Zero-token docs get ratio 0 (divide-by-clipped + if_else keeps the
    columns int64 — no NaN-driven float upcast)."""
    n_tokens = pc.cast(pc.count_substring_regex(t["text"], TOKEN_RE.pattern), pa.int64())
    n_stop = pc.cast(pc.count_substring_regex(t["text"], STOPWORD_RE.pattern), pa.int64())
    letters = pc.cast(pc.count_substring_regex(t["text"], "[a-z]"), pa.int64())
    has_tokens = pc.greater(n_tokens, 0)
    clipped = pc.max_element_wise(n_tokens, pa.scalar(1, pa.int64()))
    zero = pa.scalar(0, pa.int64())
    ppm = pa.scalar(PPM, pa.int64())
    return pa.table(
        {
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            "n_tokens": n_tokens,
            "n_stopwords": n_stop,
            "stop_ratio_ppm": pc.if_else(
                has_tokens, pc.divide(pc.multiply(ppm, n_stop), clipped), zero
            ),
            "avg_token_len_ppm": pc.if_else(
                has_tokens, pc.divide(pc.multiply(ppm, letters), clipped), zero
            ),
        }
    )


def quality_scores(sf_dir: str) -> ray.data.Dataset:
    """Per-document quality features (length / stopword-ratio / mean token
    length) — the classic web-corpus quality filter signals, fully
    vectorized. Output: (doc_id, n_chars, n_tokens, n_stopwords,
    stop_ratio_ppm, avg_token_len_ppm)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(_quality_batch, batch_format="pyarrow", zero_copy_batch=True)


# --- exact dedup -------------------------------------------------------------


def _sha1(s: str) -> str:
    return hashlib.sha1(s.encode()).hexdigest()


def _dedup_partials(df: pd.DataFrame) -> pd.DataFrame:
    part = pd.DataFrame({"h": df["text"].map(_sha1), "doc_id": df["doc_id"], "n_copies": 1})
    return (
        part.groupby("h", as_index=False)
        .agg(doc_id=("doc_id", "min"), n_copies=("n_copies", "sum"))
        .astype({"doc_id": "int64", "n_copies": "int64"})
    )


def dedup_exact(sf_dir: str) -> ray.data.Dataset:
    """Exact content dedup: hash text → per-batch partial (min doc_id,
    count) → small groupby over partials → keeper rows.
    Output: (doc_id, n_copies), one row per distinct text, doc_id = the
    smallest id in the duplicate class."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    partials = ds.map_batches(_dedup_partials, batch_format="pandas")
    agg = bucketed_group_agg(
        partials,
        ["h"],
        {"doc_id": ("doc_id", "min"), "n_copies": ("n_copies", "sum")},
    )
    return agg.select_columns(["doc_id", "n_copies"])


# --- language identification (heuristic n-gram/stopword profiles) -----------

_LANG_PROFILES: dict[str, str] = {
    # function-word profiles; \b word-boundary regexes, compiled below
    "en": r"\b(?:the|and|of|to|a|in|is|that|it|for)\b",
    "de": r"\b(?:der|die|und|das|ein|ist|zu|den|mit|nicht)\b",
    "fr": r"\b(?:le|la|et|les|des|un|est|une|dans|que)\b",
    "es": r"\b(?:el|de|que|y|en|un|ser|se|no|por)\b",
    "it": r"\b(?:il|di|che|e|la|per|un|in|non|una)\b",
}
import re as _re

_LANG_RES = {lang: _re.compile(p) for lang, p in _LANG_PROFILES.items()}


def _lang_id_batch(t: pa.Table) -> pa.Table:
    """Arrow-native: one RE2 count pass per language profile, numpy
    argmax with a deterministic tie-break (alphabetical — argmax picks
    the first maximum of the sorted-lang stack), 'und' when nothing
    matches."""
    import numpy as np

    langs = sorted(_LANG_RES)
    mat = np.stack(
        [
            pc.cast(
                pc.count_substring_regex(t["text"], _LANG_RES[lang].pattern),
                pa.int64(),
            ).to_numpy(zero_copy_only=False)
            for lang in langs
        ]
    )
    best = mat.argmax(axis=0)
    best_n = mat.max(axis=0)
    pred = np.array(langs, dtype=object)[best]
    pred[best_n <= 0] = "und"
    return pa.table(
        {
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "pred_lang": pa.array(pred, pa.string()),
            "n_matches": pa.array(best_n, pa.int64()),
        }
    )


def lang_id(sf_dir: str) -> ray.data.Dataset:
    """Heuristic language ID over documents.
    Output: (doc_id, pred_lang, n_matches)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(_lang_id_batch, batch_format="pyarrow", zero_copy_batch=True)


def lang_confusion(sf_dir: str) -> ray.data.Dataset:
    """Metadata-vs-heuristic language agreement matrix: the audit that
    decides whether a corpus's ``lang`` column can be trusted for
    stratification (CCNet runs exactly this check before per-language
    bucketing). Output: (lang, pred_lang, n_docs) — one row per observed
    (claimed, predicted) pair.

    Scale shape: the lang-id scan emits per-batch (lang, pred_lang)
    count partials, then ONE grouped sum over a ≤|langs|² key space —
    the exchange is bounded by the label-pair vocabulary, not the
    corpus."""
    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )

    def partial(t: pa.Table) -> pa.Table:
        pred = _lang_id_batch(t)
        df = pd.DataFrame(
            {
                "lang": t["lang"].to_pylist(),
                "pred_lang": pred["pred_lang"].to_pylist(),
            }
        )
        out = df.groupby(["lang", "pred_lang"], as_index=False).size()
        return pa.Table.from_pandas(
            out.rename(columns={"size": "n_docs"}).astype({"n_docs": "int64"}),
            preserve_index=False,
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed_group_agg(
        partials, ["lang", "pred_lang"], {"n_docs": ("n_docs", "sum")}
    )


#: corpus_split holdout thresholds (ppm of the md5 hash space): test =
#: [0, 50k), val = [50k, 150k), train = the rest — 5% / 10% / 85%
SPLIT_TEST_PPM = 50_000
SPLIT_VAL_PPM = 100_000


def corpus_split(
    sf_dir: str,
    test_ppm: int = SPLIT_TEST_PPM,
    val_ppm: int = SPLIT_VAL_PPM,
) -> ray.data.Dataset:
    """Deterministic train/val/test assignment: split by md5-hash range
    of the document id (the sample_documents idiom), NOT by per-language
    rank quota — hash-range membership is STABLE under corpus growth (a
    doc never migrates between splits when new data arrives, the
    property honest held-out evaluation needs; exact-fraction quotas are
    rank-based and reshuffle on every ingest — that variant exists as
    stratified_sample). Because the hash is uniform within every
    subpopulation, the split is stratified in expectation over any
    attribute without ever exchanging a row.

    Output: (doc_id, split). Zero exchanges — pure streaming map."""

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    test_hi = test_ppm
    val_hi = test_ppm + val_ppm

    def assign(t: pa.Table) -> pa.Table:
        from zerox_ray.functions.hashing import md5_64_array

        ids = t["doc_id"].to_pylist()
        h = md5_64_array([str(d).encode() for d in ids]) % np.uint64(1_000_000)
        split = np.where(
            h < test_hi, "test", np.where(h < val_hi, "val", "train")
        )
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "split": pa.array(split.astype(object), pa.string()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


# --- windowed aggregate over the events stream table -------------------------

_US_PER_HOUR = 3_600_000_000


def _events_partials(t: pa.Table) -> pa.Table:
    us = pc.cast(t["ts"], pa.int64())  # timestamp[us] → µs since epoch
    hour_id = pc.divide(us, _US_PER_HOUR)  # ts >= epoch → trunc == floor
    cents = pc.cast(pc.floor(pc.multiply(t["value"], pa.scalar(100.0))), pa.int64())
    df = pd.DataFrame(
        {
            "user_id": t["user_id"].to_numpy(),
            "hour_id": hour_id.to_numpy(),
            "n_events": 1,
            "sum_value_cents": cents.to_numpy(),
        }
    )
    out = df.groupby(["user_id", "hour_id"], as_index=False).sum()
    # strip the b'pandas' schema metadata: pa.Schema with a metadata dict
    # is UNHASHABLE, which makes Ray's shuffle-side schema dedup log a
    # "Failed to hash the schemas" warning per reduce task
    return pa.Table.from_pandas(
        out.astype({"n_events": "int64", "sum_value_cents": "int64"}),
        preserve_index=False,
    ).replace_schema_metadata(None)


def events_hourly(sf_dir: str) -> ray.data.Dataset:
    """Tumbling 1-hour window aggregate per user over the events table
    (streaming-shaped workload as an ordered, partitioned log — SURVEY
    guide pattern). Pre-aggregated per batch; value summed in integer
    cents so the result is order-independent and exactly SQL-checkable.
    Output: (user_id, hour_id, n_events, sum_value_cents)."""
    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "value"]
    )
    partials = ds.map_batches(_events_partials, batch_format="pyarrow")
    return bucketed_group_agg(
        partials,
        ["user_id", "hour_id"],
        {
            "n_events": ("n_events", "sum"),
            "sum_value_cents": ("sum_value_cents", "sum"),
        },
    )


# --- BPE-style pre-tokenization counting -------------------------------------

# GPT-2-style pretokenizer shape (contractions / letter runs / digit runs /
# punctuation runs / whitespace), RE2-compatible so the DuckDB oracle can
# run the IDENTICAL pattern. Lowercase corpus → [a-z] suffices.
BPE_RE_PATTERN = r"'(?:s|t|re|ve|m|ll|d)| ?[a-z]+| ?[0-9]+| ?[^\sa-z0-9']+|\s+"
import re as _re2

_BPE_RE = _re2.compile(BPE_RE_PATTERN)


def _bpe_count_batch(df: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"].astype("int64"),
            "n_bpe_tokens": df["text"].str.count(_BPE_RE).astype("int64"),
            "n_ws_tokens": df["text"].str.split().str.len().astype("int64"),
        }
    )


def token_counts_bpe(sf_dir: str) -> ray.data.Dataset:
    """Per-doc token counts: BPE-ish pretokenizer regex + whitespace split.
    Output: (doc_id, n_bpe_tokens, n_ws_tokens)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(_bpe_count_batch, batch_format="pandas")


# --- top-k (sort + limit over a pre-aggregated groupby) ----------------------


def top_spenders(sf_dir: str, k: int = 10) -> ray.data.Dataset:
    """Top-k customers by total order spend (cents). Pre-aggregates per
    batch (combiner), groupby-sums, then a small global sort+limit —
    the only globally-ordered step runs over |customers| rows, not
    |orders|. Output: (o_custkey, total_cents)."""
    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        cents = np.floor(df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        out = (
            pd.DataFrame({"o_custkey": df["o_custkey"].astype("int64"), "total_cents": cents})
            .groupby("o_custkey", sort=False)["total_cents"]
            .sum()
            .reset_index()
        )
        return out.astype({"total_cents": "int64"})

    agg = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["o_custkey"],
        {"total_cents": ("total_cents", "sum")},
    )
    # deterministic tie-break: (-total, custkey)
    return agg.sort(["total_cents", "o_custkey"], descending=[True, False]).limit(k)


def quality_filter(
    sf_dir: str,
    min_tokens: int = 20,
    max_stop_ratio_ppm: int = 500_000,
) -> ray.data.Dataset:
    """End-to-end quality filtering: score then keep docs above the
    length floor and below the stopword-ratio ceiling — the standard
    web-corpus pruning step built on quality_scores.
    Output: (doc_id, n_tokens, stop_ratio_ppm) for SURVIVING docs."""
    scored = quality_scores(sf_dir)

    def keep(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.greater_equal(t["n_tokens"], min_tokens),
            pc.less_equal(t["stop_ratio_ppm"], max_stop_ratio_ppm),
        )
        return t.filter(mask).select(["doc_id", "n_tokens", "stop_ratio_ppm"])

    return scored.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def top_orders_per_priority(sf_dir: str, k: int = 3) -> ray.data.Dataset:
    """Grouped top-k: the k highest-value orders within each priority.
    Per-batch partial top-k (combiner) bounds the shuffle to k rows per
    (priority, batch); the groupby finishes the selection.
    Output: (o_orderpriority, o_orderkey, total_cents, rank)."""
    import numpy as np

    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "o_orderpriority": df["o_orderpriority"],
                "o_orderkey": df["o_orderkey"].astype("int64"),
                "total_cents": np.floor(df["o_totalprice"].to_numpy() * 100).astype(
                    "int64"
                ),
            }
        )
        return (
            out.sort_values(
                ["o_orderpriority", "total_cents", "o_orderkey"],
                ascending=[True, False, True],
            )
            .groupby("o_orderpriority")
            .head(k)
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["total_cents", "o_orderkey"], ascending=[False, True]
        ).head(k).reset_index(drop=True)
        g["rank"] = pd.Series(range(1, len(g) + 1), dtype="int64")
        return g

    partials = ds.map_batches(partial, batch_format="pandas")
    return partials.groupby("o_orderpriority").map_groups(final, batch_format="pandas")


def sample_documents(sf_dir: str, rate_ppm: int = 100_000) -> ray.data.Dataset:
    """Deterministic hash sampling: keep docs where md5_64(doc_id) lands
    under the rate threshold. Unlike random_sample, the kept set is a
    pure function of the key — identical across runs, cluster shapes,
    and resumes (the property a reproducible training-data pipeline
    needs), and md5 is SQL-computable so the DuckDB oracle checks the
    exact kept set. Output: (doc_id,)."""
    from zerox_ray.functions.hashing import md5_64_array

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        h = (md5_64_array([str(int(i)).encode() for i in ids]) % PPM).astype("int64")
        return pd.DataFrame({"doc_id": ids[h < rate_ppm]})

    return ds.map_batches(keep, batch_format="pandas")


# --- benchmark decontamination ------------------------------------------------


def _bench_shingles_ref(
    sf_dir: str, benchmark_mod: int, benchmark_rem: int, shingle_n: int
):
    """Broadcast ref of the held-out benchmark's shingle set. The slice
    is filtered ON THE CLUSTER and only its rows are collected — the
    driver never sees the corpus text (eval sets are fixed-size while
    the corpus grows; take_all here is bounded by the benchmark)."""
    import ray

    from zerox_ray.functions.hashing import token_shingles

    def bench_filter(t: pa.Table) -> pa.Table:
        keep = pc.equal(
            pc.subtract(
                t["doc_id"],
                pc.multiply(pc.divide(t["doc_id"], benchmark_mod), benchmark_mod),
            ),
            benchmark_rem,
        )
        return t.filter(keep).select(["text"])

    bench_rows = (
        read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .map_batches(bench_filter, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )
    bench_shingles: set = set()
    for r in bench_rows:
        bench_shingles.update(
            token_shingles(TOKEN_RE.findall(r["text"]), shingle_n)
        )
    return ray.put(frozenset(bench_shingles))


def decontaminate(
    sf_dir: str,
    benchmark_mod: int = 97,
    benchmark_rem: int = 3,
    shingle_n: int = 3,
    max_overlap_ppm: int = 800_000,
) -> ray.data.Dataset:
    """Benchmark decontamination (the GPT-3 appendix-C / Pile dedup
    step): drop training documents whose token-shingle overlap with a
    held-out benchmark set exceeds ``max_overlap_ppm``.

    The benchmark here is the deterministic held-out slice
    ``doc_id % benchmark_mod == benchmark_rem`` — self-contained and
    SQL-mirrorable, standing in for an external eval set.

    Scale shape: the benchmark is the SMALL side by definition (eval
    sets are fixed-size while the corpus grows), so its shingle set is
    collected once on the driver and broadcast via one ``ray.put``;
    each worker reads it zero-copy and scores batches vectorized-ish
    (set intersection per doc). The corpus side streams — no shuffle
    at all. Output: (doc_id, overlap_ppm) for SURVIVING documents
    (benchmark members overlap 100% and are dropped by construction).
    """
    import ray

    from zerox_ray.functions.text import TOKEN_RE
    from zerox_ray.functions.hashing import token_shingles

    bench_ref = _bench_shingles_ref(
        sf_dir, benchmark_mod, benchmark_rem, shingle_n
    )

    def score(df: pd.DataFrame) -> pd.DataFrame:
        # ray.get of a pickled frozenset DESERIALIZES per call — cache
        # the materialized set once per worker process, keyed on the ref
        bench = cached_get("decon", bench_ref)
        ids, ppms = [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            sh = set(token_shingles(TOKEN_RE.findall(text), shingle_n))
            ppm = int(len(sh & bench) / len(sh) * PPM) if sh else 0
            if ppm <= max_overlap_ppm:
                ids.append(int(doc_id))
                ppms.append(ppm)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "overlap_ppm": pd.Series(ppms, dtype="int64"),
            }
        )

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(score, batch_format="pandas")


# --- token-budget shard packing -----------------------------------------------

#: coarse doc_id ranges for the distributed prefix sum (token_shards)
_SHARD_RANGE = 4096


def token_chunks(
    sf_dir: str, chunk_tokens: int = 64, stride: int = 48
) -> ray.data.Dataset:
    """Sliding-window training chunks: each document's token stream
    (``TOKEN_RE`` matches, the corpus-wide tokenizer) is cut into
    windows of ``chunk_tokens`` starting every ``stride`` tokens —
    the context-window packing step between curation and tokenization
    (overlap = chunk_tokens - stride preserves cross-boundary context).
    Output: (doc_id, chunk_id, n_tok, chunk_text); chunks are joined
    with single spaces; empty documents emit nothing.

    Scale shape: embarrassingly parallel — a per-batch flat-map with a
    compiled regex, NO exchange anywhere; output size is bounded by
    ~n_tokens·(chunk/stride), streaming straight to the sink. The
    per-row findall loop is the multi-match-regex posture extract_links
    documents (no Arrow kernel exists); the chunk assembly is pure
    slicing of the match list."""
    if stride <= 0 or chunk_tokens <= 0:
        raise ValueError("chunk_tokens and stride must be positive")
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def chunks(t: pa.Table) -> pa.Table:
        ids: list[int] = []
        cids: list[int] = []
        ntoks: list[int] = []
        texts: list[str] = []
        for doc_id, text in zip(
            t["doc_id"].to_pylist(), t["text"].to_pylist()
        ):
            toks = TOKEN_RE.findall(text or "")
            for ci, start in enumerate(range(0, len(toks), stride)):
                window = toks[start : start + chunk_tokens]
                ids.append(doc_id)
                cids.append(ci)
                ntoks.append(len(window))
                texts.append(" ".join(window))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "chunk_id": pa.array(cids, pa.int64()),
                "n_tok": pa.array(ntoks, pa.int64()),
                "chunk_text": pa.array(texts, pa.string()),
            }
        )

    return ds.map_batches(chunks, batch_format="pyarrow")


def token_shards(sf_dir: str, tokens_per_shard: int = 50_000) -> ray.data.Dataset:
    """Pack documents into ~equal-token training shards (the LLM
    pretraining data-prep step): shard_id = exclusive-prefix token count
    in doc_id order // tokens_per_shard, so every shard except the last
    holds ≥ tokens_per_shard tokens and doc order is preserved.

    Scale shape — distributed prefix sum, the textbook two-pass:
    1. per-batch partial token sums per coarse doc_id RANGE
       (doc_id // _SHARD_RANGE) → tiny grouped sum (~n_docs/4096 rows);
    2. the range-sum table alone is prefix-scanned ON THE DRIVER
       (bounded: 10^12 docs → 244M ranges… at that scale raise
       _SHARD_RANGE; the table shrinks linearly) and broadcast;
    3. a second streaming pass computes each doc's within-range
       exclusive cumsum and adds its range's offset — no all-to-all at
       any point.

    Output: (doc_id, n_tokens, shard_id).
    """
    import numpy as np
    import ray

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def tokens_batch(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(t["text"], TOKEN_RE.pattern), pa.int64()
                ),
            }
        )

    counted = ds.map_batches(
        tokens_batch, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # reused by both passes; 2 int64 columns only

    def range_partials(t: pa.Table) -> pa.Table:
        rng = pc.divide(t["doc_id"], _SHARD_RANGE)
        part = pa.table({"rng": rng, "tok": t["n_tokens"]})
        return part.group_by("rng").aggregate([("tok", "sum")]).rename_columns(
            ["rng", "tok"]
        )

    # the grouped-sum EXCHANGE before the driver pull is load-bearing:
    # it reduces O(blocks × ranges-per-block) partials down to one row
    # per range, so the driver receives ≤ n_docs/_SHARD_RANGE rows no
    # matter how small the upstream blocks are
    range_sums = (
        bucketed_group_agg(
            counted.map_batches(
                range_partials, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["rng"],
            {"tok": ("tok", "sum")},
        )
        .to_pandas()
        .sort_values("rng")
    )
    # exclusive prefix offset per range
    offsets = dict(
        zip(
            range_sums["rng"].to_numpy(),
            np.concatenate([[0], np.cumsum(range_sums["tok"].to_numpy())[:-1]]),
        )
    )
    off_ref = ray.put(offsets)

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        off = cached_get("shard_off", off_ref)
        g = g.sort_values("doc_id", kind="mergesort")
        tok = g["n_tokens"].to_numpy(dtype=np.int64)
        excl = np.concatenate([[0], np.cumsum(tok)[:-1]])
        rng = int(g["doc_id"].iloc[0]) // _SHARD_RANGE
        excl += int(off[rng])
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(dtype=np.int64),
                "n_tokens": tok,
                "shard_id": (excl // tokens_per_shard).astype(np.int64),
            }
        )

    # one group per coarse range: within-range docs must be contiguous
    # for the exclusive cumsum, and ranges are few (tiny shuffle)
    return (
        counted.map_batches(
            lambda df: df.assign(rng=(df["doc_id"] // _SHARD_RANGE).astype("int64")),
            batch_format="pandas",
        )
        .groupby("rng")
        .map_groups(assign, batch_format="pandas")
    )


# --- repetition / n-gram statistics -------------------------------------------


def repetition_scores(sf_dir: str) -> ray.data.Dataset:
    """Gopher-style repetition signal per document: the fraction of token
    instances covered by the single most frequent bigram
    (2 × max bigram count / n_tokens, ppm floor; 0 when fewer than 2
    tokens). High values flag boilerplate/spam for corpus filtering.
    Pure map — no shuffle. Output: (doc_id, n_tokens, top_bigram_ppm)."""
    from collections import Counter

    def score(df: pd.DataFrame) -> pd.DataFrame:
        ids, ntoks, ppms = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = TOKEN_RE.findall(text)
            n = len(toks)
            if n < 2:
                top = 0
            else:
                counts = Counter(zip(toks, toks[1:]))
                top = max(counts.values())
            ids.append(int(doc_id))
            ntoks.append(n)
            # integer floor division — exact, SQL-mirrorable with //
            ppms.append((2 * top * PPM) // n if n >= 2 else 0)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_tokens": pd.Series(ntoks, dtype="int64"),
                "top_bigram_ppm": pd.Series(ppms, dtype="int64"),
            }
        )

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(score, batch_format="pandas")


def top_ngrams(sf_dir: str, n: int = 2, k: int = 20) -> ray.data.Dataset:
    """Corpus-level most frequent n-grams — the canonical wordcount
    shape: per-batch partial Counter (one row per distinct n-gram per
    batch), bucketed grouped sum (shuffle moves O(distinct n-grams)),
    driver-free global top-k with a deterministic tie-break
    (count DESC, ngram ASC). Output: (ngram, n_occurrences), k rows."""
    from collections import Counter

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for text in df["text"]:
            toks = TOKEN_RE.findall(text)
            c.update(" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1))
        return pd.DataFrame(
            {
                "ngram": pd.Series(list(c.keys()), dtype="string"),
                "n_occurrences": pd.Series(list(c.values()), dtype="int64"),
            }
        )

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    counts = bucketed_group_agg(
        ds.map_batches(partials, batch_format="pandas"),
        ["ngram"],
        {"n_occurrences": ("n_occurrences", "sum")},
    )

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["n_occurrences", "ngram"], ascending=[False, True], kind="mergesort"
        ).head(k)

    # per-block top-k partials, then one tiny final take: the full count
    # table never leaves the cluster
    part = counts.map_batches(local_topk, batch_format="pandas")
    final = part.to_pandas().sort_values(
        ["n_occurrences", "ngram"], ascending=[False, True], kind="mergesort"
    ).head(k).reset_index(drop=True)
    return ray.data.from_pandas(final)


# --- PII scrubbing -----------------------------------------------------------

# RE2-compatible (no backrefs/lookaround) so the DuckDB oracle applies the
# IDENTICAL patterns with regexp_replace(..., 'g') / regexp_extract_all;
# greedy char-class quantifiers behave the same under Python re and RE2.
PII_EMAIL_RE = _re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
PII_IP_RE = _re.compile(r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b")
PII_PHONE_RE = _re.compile(r"\+\d[\d-]{6,13}\d")


def scrub_pii_batch(texts: pd.Series) -> pd.DataFrame:
    """Vectorized sequential scrub: count+redact emails, then IPv4s on
    the email-redacted text, then phones — sequential so a pattern never
    matches inside an earlier replacement. Returns (clean_text,
    n_emails, n_ips, n_phones)."""
    n_emails = texts.str.count(PII_EMAIL_RE).astype("int64")
    s = texts.str.replace(PII_EMAIL_RE, "<EMAIL>", regex=True)
    n_ips = s.str.count(PII_IP_RE).astype("int64")
    s = s.str.replace(PII_IP_RE, "<IP>", regex=True)
    n_phones = s.str.count(PII_PHONE_RE).astype("int64")
    s = s.str.replace(PII_PHONE_RE, "<PHONE>", regex=True)
    return pd.DataFrame(
        {"clean_text": s, "n_emails": n_emails, "n_ips": n_ips, "n_phones": n_phones}
    )


def _pii_plant(df: pd.DataFrame) -> pd.Series:
    """Deterministic PII augmentation for the demo query: the synthetic
    corpus contains no PII, so plant some as a pure function of doc_id
    (doc_id%3==0 → email, %4==0 → ip, %5==0 → phone) — replayed verbatim
    by the oracle SQL."""
    did = df["doc_id"].astype("int64")
    s = df["text"].astype("string")
    email = (" mail user" + did.astype(str) + "@example.com").where(did % 3 == 0, "")
    ip = (
        " from 10." + (did % 200).astype(str) + ".0." + (did % 250 + 1).astype(str)
    ).where(did % 4 == 0, "")
    phone = (" tel +1-555-" + (1000 + did % 9000).astype(str)).where(did % 5 == 0, "")
    return (s + email.astype("string") + ip.astype("string") + phone.astype("string"))


def pii_scrub(sf_dir: str) -> ray.data.Dataset:
    """PII redaction over the documents corpus — map-only (no shuffle),
    compiled-regex vectorized, emitting the full redacted text so the
    value-hash gate checks every byte. Output: (doc_id, clean_text,
    n_emails, n_ips, n_phones, clean_len)."""

    def batch(df: pd.DataFrame) -> pd.DataFrame:
        out = scrub_pii_batch(_pii_plant(df))
        out.insert(0, "doc_id", df["doc_id"].astype("int64").to_numpy())
        out["clean_len"] = out["clean_text"].str.len().astype("int64")
        out["clean_text"] = out["clean_text"].astype(str)
        return out

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(batch, batch_format="pandas")


# --- stratified (per-language) quota sampling --------------------------------


def stratified_sample(sf_dir: str, k: int = 25) -> ray.data.Dataset:
    """Deterministic quota sampling: the k documents with the smallest
    md5-derived rank hash WITHIN EACH language — the balanced-corpus
    selection step (cap every stratum at a quota regardless of its raw
    share). Hash-ranked selection is resume-stable and oracle-replayable
    (md5 of the decimal doc_id), unlike any RNG-based sampler.

    Scale shape: per-batch partial top-k bounds the shuffle to k rows
    per (lang, batch); the final per-lang selection groups only
    |langs| * k rows. Output: (lang, doc_id, rank), rank 1..k by
    (hash, doc_id)."""
    from zerox_ray.functions.hashing import md5_64_array

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "lang": df["lang"].astype("string"),
                "doc_id": df["doc_id"].astype("int64"),
                "h": md5_64_array(
                    [str(int(d)).encode() for d in df["doc_id"]]
                ),
            }
        )
        return (
            out.sort_values(["lang", "h", "doc_id"]).groupby("lang").head(k)
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc_id"]).head(k).reset_index(drop=True)
        return pd.DataFrame(
            {
                "lang": g["lang"].astype(str),
                "doc_id": g["doc_id"].astype("int64"),
                "rank": pd.Series(range(1, len(g) + 1), dtype="int64"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pandas")
    return partials.groupby("lang").map_groups(final, batch_format="pandas")


# --- TF-IDF top terms per document ------------------------------------------


def tfidf_top_terms(sf_dir: str, k: int = 5) -> ray.data.Dataset:
    """Per-document most DISTINCTIVE terms: tf weighted by linear inverse
    document frequency (N/df). Linear idf instead of log-idf on purpose:
    the score stays a pure-integer-ratio double (IEEE-exact, identical
    bits in numpy and DuckDB), so the value-hash oracle can check every
    score — log-idf would hang correctness on libm rounding.

    Scale shape: explode to distinct (term, doc_id, tf) rows per batch;
    exchange 1 groups by TERM to count df and attach it in place;
    exchange 2 groups by DOC to rank and keep the top k. Both exchanges
    move only (term, doc_id, tf[, df]) — never text. N comes from
    parquet metadata (no data read). Output: (doc_id, term, tf, df,
    score_ppm, rank), k rows per doc."""
    import pyarrow.parquet as _pq
    from collections import Counter

    from zerox_ray.pipelines.agg import bucketed_group_map
    from zerox_ray.sources.tables import table_num_rows

    n_docs = table_num_rows(f"{sf_dir}/documents.parquet")

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        doc_ids: list[int] = []
        terms: list[str] = []
        tfs: list[int] = []
        for did, text in zip(df["doc_id"].astype("int64"), df["text"]):
            c = Counter(text.split(" "))
            doc_ids.extend([did] * len(c))
            terms.extend(c.keys())
            tfs.extend(c.values())
        return pd.DataFrame(
            {
                "term": pd.Series(terms, dtype="string"),
                "doc_id": pd.Series(doc_ids, dtype="int64"),
                "tf": pd.Series(tfs, dtype="int64"),
            }
        )

    def attach_df(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["df"] = g.groupby("term")["term"].transform("size").astype("int64")
        return g

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        g = g.copy()
        # association mirrors the oracle: ((1e6 * tf) * N) / df
        g["score_ppm"] = np.floor(
            1_000_000.0
            * g["tf"].to_numpy(dtype="float64")
            * float(n_docs)
            / g["df"].to_numpy(dtype="float64")
        ).astype("int64")
        g = g.sort_values(
            ["doc_id", "score_ppm", "term"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        g["rank"] = g.groupby("doc_id").cumcount().astype("int64") + 1
        g = g[g["rank"] <= k]
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].astype("int64"),
                "term": g["term"].astype(str),
                "tf": g["tf"].astype("int64"),
                "df": g["df"].astype("int64"),
                "score_ppm": g["score_ppm"],
                "rank": g["rank"],
            }
        )

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    tf_rows = ds.map_batches(explode, batch_format="pandas")
    with_df = bucketed_group_map(tf_rows, "term", attach_df)
    return bucketed_group_map(with_df, "doc_id", topk)


# --- weighted corpus mixing ----------------------------------------------------


def corpus_mix(sf_dir: str) -> ray.data.Dataset:
    """Deterministic weighted corpus mixing: each source keeps a
    different target fraction of its documents (the LLM-data "mixture
    weights" step — up-/down-sample sources to hit a recipe). The keep
    decision is a pure function of (doc_id, source): md5_64(doc_id) %
    1M under the source's rate, so the mix is identical across runs,
    cluster shapes, and resumes, and shuffle-free (map-only). The demo
    recipe derives each source's rate from its numeric suffix —
    ((idx*37)%10+1)*100k ppm — replayed verbatim by the oracle SQL.
    Output: (doc_id, source)."""
    from zerox_ray.functions.hashing import md5_64_array

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        idx = df["source"].str.slice(3).astype("int64")
        rate = ((idx * 37) % 10 + 1) * 100_000
        # one canonical decimal-id md5 recipe (functions/hashing.py) —
        # the same expression the oracle mirrors
        h = (md5_64_array([str(int(i)).encode() for i in ids]) % PPM).astype("int64")
        m = h < rate.to_numpy()
        return pd.DataFrame({"doc_id": ids[m], "source": df["source"][m]})

    return ds.map_batches(keep, batch_format="pandas")


# --- text normalization ---------------------------------------------------------

# RE2-compatible classes: the oracle applies the IDENTICAL patterns.
_CTRL_RE = _re.compile(r"[\x00-\x08\x0b-\x1f\x7f]")
_WS_RE = _re.compile(r"[ \t]+")


def _normalize_plant(df: pd.DataFrame) -> pd.Series:
    """Deterministic mess for the demo query: the synthetic corpus is
    clean ASCII, so plant denormalized unicode (combining acute),
    control chars, and tab/space runs as a pure function of doc_id —
    replayed verbatim by the oracle SQL (chr(769)=U+0301, chr(7)=BEL)."""
    did = df["doc_id"].astype("int64")
    s = "  " + df["text"].astype("string") + " \t "
    acc = pd.Series(" cafe\u0301", index=s.index, dtype="string").where(
        did % 2 == 0, ""
    )
    ctrl = pd.Series("\tx\x07y", index=s.index, dtype="string").where(
        did % 3 == 0, ""
    )
    return s + acc + ctrl


def normalize_text(sf_dir: str) -> ray.data.Dataset:
    """Unicode + whitespace normalization over the corpus — the standard
    pre-tokenization cleanup: NFC-normalize, strip control characters
    (keeping \\n), collapse space/tab runs to one space, trim. Map-only,
    vectorized, full normalized text value-checked by the oracle
    (DuckDB nfc_normalize mirrors unicodedata NFC). Output: (doc_id,
    norm_text, norm_len, changed)."""
    import unicodedata

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def batch(df: pd.DataFrame) -> pd.DataFrame:
        planted = _normalize_plant(df)
        nfc = pd.Series(
            [unicodedata.normalize("NFC", t) for t in planted],
            index=planted.index,
            dtype="string",
        )
        clean = (
            nfc.str.replace(_CTRL_RE, "", regex=True)
            .str.replace(_WS_RE, " ", regex=True)
            .str.strip(" ")
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "norm_text": clean.astype(str),
                "norm_len": clean.str.len().astype("int64"),
                "changed": (clean != df["text"].astype("string")).astype("int64"),
            }
        )

    return ds.map_batches(batch, batch_format="pandas")


# --- grouped exact distinct (two-level shuffle) ---------------------------------


def event_type_reach(sf_dir: str) -> ray.data.Dataset:
    """Exact distinct-user count PER event type — the two-level distinct
    shape: per-batch (event_type, user_id) dedup is the combiner, one
    bucketed exchange on user_id dedups globally WITHOUT materializing
    the distinct set anywhere central, then a tiny second-level rollup
    counts per type. At 10^12 rows the first exchange moves O(distinct
    pairs), not O(events). Output: (event_type, n_users)."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])

    def pair_partials(df: pd.DataFrame) -> pd.DataFrame:
        out = df.drop_duplicates(["event_type", "user_id"])
        return pd.DataFrame(
            {
                "event_type": out["event_type"],
                "user_id": out["user_id"].astype("int64"),
                "n": pd.Series(1, index=out.index, dtype="int64"),
            }
        )

    pairs = bucketed_group_agg(
        ds.map_batches(pair_partials, batch_format="pandas"),
        ["user_id", "event_type"],
        {"n": ("n", "min")},  # any pair survives exactly once
    )
    counts = pairs.map_batches(
        lambda df: df.groupby("event_type", as_index=False).agg(
            n_users=("n", "sum")
        ),
        batch_format="pandas",
    )
    return bucketed_group_agg(
        counts, ["event_type"], {"n_users": ("n_users", "sum")}
    )


def above_median_docs(sf_dir: str) -> ray.data.Dataset:
    """Documents longer than their LANGUAGE's median length — the
    grouped-threshold filter every per-language quality gate needs
    (filter by a statistic of the row's own group).

    Scale shape: pass 1 computes the exact per-lang median with one
    lang-keyed exchange of (lang, n_chars) rows and reads the
    order statistic off the in-group sort (zero-based rank
    (n-1)*50//100 — tie-order independent); the resulting table is
    ≤ |langs| rows, a scalar-sized artifact broadcast once via
    ``ray.put``. Pass 2 is a shuffle-free filter scan against the
    broadcast map. For many-groups/huge-group inputs swap pass 1 for
    the grouped histogram sketch (sketches.grouped_price_quantiles
    shape); exact medians are the few-langs shape.
    Output: (doc_id, lang, n_chars) rows above their lang median."""
    vals = read_table(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])

    def med(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lang, h in g.groupby("lang", sort=True):
            v = np.sort(h["n_chars"].to_numpy())
            rows.append({"lang": lang, "med": int(v[(len(v) - 1) * 50 // 100])})
        return pd.DataFrame(rows)

    medians = bucketed_group_map(vals, "lang", med).to_pandas()
    lookup_ref = ray.put(dict(zip(medians["lang"], medians["med"])))

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        lookup = cached_get("lang_med", lookup_ref)
        thr = df["lang"].map(lookup)
        return df[df["n_chars"] > thr]

    return ds.map_batches(keep, batch_format="pandas")


_PROPS_K_RE = re.compile(r'"k"\s*:\s*(-?\d+)')


def _props_partial(df: pd.DataFrame) -> pd.DataFrame:
    """One batch → per-event_type (n, missing, sum/min/max of k) partial."""
    k = df["props"].str.extract(_PROPS_K_RE, expand=False).astype("float64")
    t = pd.DataFrame(
        {
            "event_type": df["event_type"],
            "k": k,
            "n": np.int64(1),
            "miss": k.isna().astype("int64"),
        }
    )
    out = t.groupby("event_type", as_index=False).agg(
        n_events=("n", "sum"),
        n_missing=("miss", "sum"),
        sum_k=("k", "sum"),
        min_k=("k", "min"),
        max_k=("k", "max"),
    )
    # identity elements keep an all-missing group mergeable (sum 0,
    # min +∞, max -∞); n_missing == n_events flags such groups. The
    # ±∞ sentinels are assigned AFTER the int64 cast: INT64_MAX is not
    # float64-representable, so fillna-then-cast would wrap it negative
    # and invert the min-merge.
    miss_min = out["min_k"].isna()
    miss_max = out["max_k"].isna()
    out["sum_k"] = out["sum_k"].fillna(0)
    out = out.fillna({"min_k": 0, "max_k": 0}).astype(
        {"n_events": "int64", "n_missing": "int64", "sum_k": "int64",
         "min_k": "int64", "max_k": "int64"}
    )
    out.loc[miss_min, "min_k"] = np.iinfo(np.int64).max
    out.loc[miss_max, "max_k"] = np.iinfo(np.int64).min
    return out


def props_field_stats(sf_dir: str) -> ray.data.Dataset:
    """Semi-structured extraction over the events ``props`` JSON column:
    pull the integer field ``k`` out of every payload and roll it up per
    event type — the schema-on-read shape (JSON stays a string column at
    rest; fields are extracted in the scan, never materialized wide).

    Scale shape: extraction is ONE vectorized regex pass per batch
    (``Series.str.extract`` — a full JSON parse per row would be a
    Python-loop hot path), the combiner pre-aggregates per (event_type)
    inside the batch, and one tiny bucketed exchange merges partials.
    Rows with no parseable ``k`` count into n_missing instead of
    poisoning the sums.

    CONTRACT: payloads are flat JSON objects (the corpus shape). The
    regex matches a top-level-looking ``"k": int`` anywhere in the
    string, so NESTED objects, ``k`` inside string values, or float
    ``k`` would diverge from a strict JSON reading (and from the
    json_extract oracle) — payloads like that need a real JSON-parse
    stage, not this fast path.
    Output: (event_type, n_events, n_missing, sum_k, min_k, max_k)."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "props"])
    partials = ds.map_batches(_props_partial, batch_format="pandas")
    return bucketed_group_agg(
        partials,
        ["event_type"],
        {
            "n_events": ("n_events", "sum"),
            "n_missing": ("n_missing", "sum"),
            "sum_k": ("sum_k", "sum"),
            "min_k": ("min_k", "min"),
            "max_k": ("max_k", "max"),
        },
    )


def cohort_retention(sf_dir: str) -> ray.data.Dataset:
    """Weekly cohort-retention matrix over the events stream: users are
    cohorted by their first active ISO week (Monday-truncated), and each
    (cohort_week, week_offset) cell counts distinct users from that
    cohort active offset weeks later.

    Scale shape — two exchanges, both bounded:
    1. per-batch distinct (user_id, week) pairs (the combiner: a user
       active 1000× in a week ships once per batch), then ONE bucketed
       exchange on user_id so each user's weeks are co-located; the
       reduce computes cohort = min(week) per user and emits per-cell
       PARTIAL counts — O(cohorts × offsets) rows per bucket.
    2. a tiny second exchange sums cells across buckets.
    Nothing is per-event after the first map; the driver holds nothing.
    Output: (cohort_wk, week_offset, n_users); cohort_wk is the
    Monday-aligned week index since 1970-01-05."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        days = df["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
        out = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64").to_numpy(),
                "wk": (days - 4) // 7,  # Monday-truncated week index
            }
        ).drop_duplicates()
        return out

    pairs = ds.map_batches(pair_partial, batch_format="pandas")

    def per_user_cells(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "wk"])
        cohort = g.groupby("user_id")["wk"].transform("min")
        cells = pd.DataFrame(
            {"cohort_wk": cohort, "week_offset": g["wk"] - cohort}
        )
        return (
            cells.groupby(["cohort_wk", "week_offset"], as_index=False)
            .size()
            .rename(columns={"size": "n_users"})
            .astype("int64")
        )

    cell_partials = bucketed_group_map(pairs, "user_id", per_user_cells)
    return bucketed_group_agg(
        cell_partials,
        ["cohort_wk", "week_offset"],
        {"n_users": ("n_users", "sum")},
    )


# --- sketch-driven percentile normalization -------------------------------------

_QP_BINS = 1024


def quality_percentiles(sf_dir: str) -> ray.data.Dataset:
    """Per-document quality-score percentile via a BROADCAST histogram —
    the sketch-driven normalization shape: pass 1 builds a 1024-bin
    histogram of stop_ratio_ppm (per-batch bincount partials → one tiny
    exchange → ≤1024 rows on the driver, legal at any corpus size);
    pass 2 re-scores each doc and assigns
    percentile_ppm = (docs in strictly lower bins) * 1M // total,
    reading the cumulative table via ONE ray.put. Ties within a bin get
    equal percentiles — deterministic, so the oracle mirrors it with a
    window cumsum. Output: (doc_id, score_ppm, percentile_ppm)."""
    import numpy as np

    from zerox_ray.pipelines.dataops import _quality_batch

    width = PPM // _QP_BINS
    path = f"{sf_dir}/documents.parquet"

    def hist_partial(t: pa.Table) -> pa.Table:
        score = _quality_batch(t)["stop_ratio_ppm"].to_numpy(zero_copy_only=False)
        bins = np.minimum(score // width, _QP_BINS - 1)
        counts = np.bincount(bins, minlength=_QP_BINS)
        nz = np.nonzero(counts)[0]
        return pa.table(
            {
                "bin_id": pa.array(nz, pa.int64()),
                "n": pa.array(counts[nz], pa.int64()),
            }
        )

    ds = read_table(path, columns=["doc_id", "text"])
    hist = bucketed_group_agg(
        ds.map_batches(hist_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["bin_id"],
        {"n": ("n", "sum")},
    ).to_pandas()  # ≤1024 rows regardless of corpus size
    counts = np.zeros(_QP_BINS, dtype=np.int64)
    counts[hist["bin_id"].to_numpy()] = hist["n"].to_numpy()
    below = np.concatenate([[0], np.cumsum(counts)[:-1]])
    total = int(counts.sum())
    below_ref = ray.put(below)

    def assign(t: pa.Table) -> pa.Table:
        b = cached_get("qp_below", below_ref)  # deserialized once per worker
        q = _quality_batch(t)
        score = q["stop_ratio_ppm"].to_numpy(zero_copy_only=False)
        bins = np.minimum(score // width, _QP_BINS - 1)
        pct = (b[bins] * PPM) // total
        return pa.table(
            {
                "doc_id": q["doc_id"],
                "score_ppm": pa.array(score, pa.int64()),
                "percentile_ppm": pa.array(pct, pa.int64()),
            }
        )

    return read_table(path, columns=["doc_id", "text"]).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True
    )


# --- per-source corpus report ---------------------------------------------------


def source_report(sf_dir: str) -> ray.data.Dataset:
    """Per-source corpus rollup (the triage table a corpus curator reads
    first): doc count, total chars, total whitespace tokens — all exact
    integers via per-batch partials + one tiny grouped sum.
    Output: (source, n_docs, total_chars, total_tokens)."""
    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["source", "text", "n_chars"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "source": df["source"],
                "n_docs": np.int64(1),
                "total_chars": df["n_chars"].astype("int64"),
                "total_tokens": (df["text"].str.count(" ") + 1).astype("int64"),
            }
        )
        return out.groupby("source", as_index=False).sum()

    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["source"],
        {
            "n_docs": ("n_docs", "sum"),
            "total_chars": ("total_chars", "sum"),
            "total_tokens": ("total_tokens", "sum"),
        },
    )


# --- deterministic corpus shuffle -----------------------------------------------

N_SHUFFLE_SHARDS = 64


def shuffled_shards(sf_dir: str, n_shards: int = N_SHUFFLE_SHARDS) -> ray.data.Dataset:
    """Deterministic training-order shuffle: every doc gets a splitmix64
    key; shard = key % n_shards, position = rank of (key//2, doc_id)
    within the shard. Hash-derived, so the assignment is identical across
    runs, cluster shapes, and resumes (unlike random_shuffle) — the
    property a resumable training-data pipeline needs. key//2 (int63)
    is the sort key so every column stays int64; doc_id breaks the
    (vanishingly rare) halved-key ties on both sides.

    Scale shape: pure map to (doc_id, shard, k) + ONE shard exchange with
    an in-group argsort — the same single-exchange cost as any global
    re-partition, with n_shards controlling downstream file granularity.
    Output: (doc_id, shard, pos)."""
    from zerox_ray.pipelines.agg import bucketed_group_map
    from zerox_ray.pipelines.sketches import _hll_hash

    def key_batch(df: pd.DataFrame) -> pd.DataFrame:
        z = _hll_hash(df["doc_id"].to_numpy(dtype=np.int64))
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "shard": (z % np.uint64(n_shards)).astype(np.int64),
                "k": (z >> np.uint64(1)).astype(np.int64),
            }
        )

    def rank_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["shard", "k", "doc_id"], kind="mergesort")
        pos = g.groupby("shard", sort=False).cumcount().astype("int64")
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(dtype=np.int64),
                "shard": g["shard"].to_numpy(dtype=np.int64),
                "pos": pos.to_numpy(),
            }
        )

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    keyed = ds.map_batches(key_batch, batch_format="pandas")
    return bucketed_group_map(keyed, "shard", rank_shard)


# --- distributed global ranking --------------------------------------------------


def global_rank_docs(sf_dir: str) -> ray.data.Dataset:
    """Global total order WITHOUT a global sort: rank every document by
    (n_chars DESC, doc_id ASC) via the two-pass offset technique —
    pass 1 counts docs per n_chars value (per-batch value_counts → one
    tiny grouped sum; the reduced table is O(distinct values), the same
    bounded-driver-state contract as quality_percentiles' 1024-bin
    histogram); pass 2 broadcasts the per-value rank offsets and each
    value-group orders only ITS OWN doc_ids locally. The corpus is never
    globally sorted — the one exchange is a value-hash groupby whose
    groups order themselves independently.

    For continuous scores, bin first (quality_percentiles shows the
    shape); for integer-valued keys like n_chars this is exact.
    Output: (doc_id, n_chars, rank), rank 1-based, ties on doc_id."""
    from zerox_ray.pipelines.agg import bucketed_group_map

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["n_chars"].value_counts()
        return pd.DataFrame(
            {"n_chars": vc.index.astype("int64"), "n": vc.to_numpy().astype("int64")}
        )

    counts = (
        bucketed_group_agg(
            ds.map_batches(count_partial, batch_format="pandas"),
            ["n_chars"],
            {"n": ("n", "sum")},
        )
        .to_pandas()  # O(distinct n_chars) rows — bounded driver state
        .sort_values("n_chars", ascending=False)
    )
    # offset[v] = number of docs with n_chars strictly greater than v;
    # broadcast via ray.put (closure capture would pickle the whole
    # O(distinct n_chars) dict into every serialized task)
    off_ref = ray.put(
        dict(
            zip(
                counts["n_chars"].to_numpy(),
                np.r_[0, np.cumsum(counts["n"].to_numpy())[:-1]],
            )
        )
    )

    def rank_group(g: pd.DataFrame) -> pd.DataFrame:
        offsets = cached_get("rank_off", off_ref)
        g = g.sort_values(["n_chars", "doc_id"], kind="mergesort")
        base = g["n_chars"].map(offsets).to_numpy(dtype=np.int64)
        pos = g.groupby("n_chars", sort=False).cumcount().to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(dtype=np.int64),
                "n_chars": g["n_chars"].to_numpy(dtype=np.int64),
                "rank": base + pos + 1,
            }
        )

    return bucketed_group_map(ds, "n_chars", rank_group)


def curate_corpus(
    sf_dir: str,
    k: int = 50,
    min_tokens: int = 20,
    max_stop_ppm: int = 500_000,
    max_overlap_ppm: int = 800_000,
    benchmark_mod: int = 97,
    benchmark_rem: int = 3,
    shingle_n: int = 3,
) -> ray.data.Dataset:
    """The LLM data-curation chain — quality gate → benchmark
    decontamination → exact dedup (first-occurrence keep) → per-language
    quota sample — composed as ONE streaming pipeline, proving the
    operators chain in a single lazy plan instead of materializing
    between steps.

    Scale shape: the quality gate and contamination score are ONE fused
    per-batch map (no exchange; the benchmark shingle set broadcasts
    once, exactly like ``decontaminate``); surviving rows pay ONE
    text-keyed exchange for the exact-dup keeper; the quota step ships
    only per-batch top-k partials per language (the
    ``stratified_sample`` shape). Each stage shrinks the stream before
    the next — the pipeline's total exchange volume is bounded by the
    SURVIVORS of the previous gates, not the corpus.
    Output: (lang, doc_id, rank), rank 1..k per language by md5 hash."""
    from zerox_ray.functions.hashing import md5_64_array, token_shingles

    bench_ref = _bench_shingles_ref(
        sf_dir, benchmark_mod, benchmark_rem, shingle_n
    )
    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        # quality: same counts as _quality_batch, pandas RE2 kernels
        nt = df["text"].str.count(TOKEN_RE).to_numpy(dtype=np.int64)
        ns = df["text"].str.count(STOPWORD_RE).to_numpy(dtype=np.int64)
        stop_ppm = np.where(nt > 0, (PPM * ns) // np.maximum(nt, 1), 0)
        df = df[(nt >= min_tokens) & (stop_ppm <= max_stop_ppm)]
        # decontamination: same per-doc overlap rule as `decontaminate`
        bench = cached_get("decon", bench_ref)
        keep_ids, keep_langs, keep_texts = [], [], []
        for doc_id, lang, text in zip(df["doc_id"], df["lang"], df["text"]):
            sh = set(token_shingles(TOKEN_RE.findall(text), shingle_n))
            ppm = int(len(sh & bench) / len(sh) * PPM) if sh else 0
            if ppm <= max_overlap_ppm:
                keep_ids.append(int(doc_id))
                keep_langs.append(lang)
                keep_texts.append(text)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(keep_ids, dtype="int64"),
                "lang": pd.Series(keep_langs, dtype="string"),
                "text": pd.Series(keep_texts, dtype="string"),
            }
        )

    survivors = ds.map_batches(gate, batch_format="pandas")

    # exact dedup among survivors: per-batch first-occurrence combiner,
    # then one text-keyed exchange picks the global min-doc_id keeper
    def dedup_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values("doc_id").drop_duplicates("text")

    def dedup_keep(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("doc_id").drop_duplicates("text")[
            ["doc_id", "lang"]
        ]

    keepers = bucketed_group_map(
        survivors.map_batches(dedup_partial, batch_format="pandas"),
        "text",
        dedup_keep,
    )

    # per-language quota: hash-ranked top-k (the stratified_sample shape)
    def rank_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "lang": df["lang"].astype("string"),
                "doc_id": df["doc_id"].astype("int64"),
                "h": md5_64_array([str(int(d)).encode() for d in df["doc_id"]]),
            }
        )
        return out.sort_values(["lang", "h", "doc_id"]).groupby("lang").head(k)

    def rank_final(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lang, h in g.groupby("lang", sort=True):
            top = h.sort_values(["h", "doc_id"]).head(k).reset_index(drop=True)
            rows.append(
                pd.DataFrame(
                    {
                        "lang": top["lang"].astype("string"),
                        "doc_id": top["doc_id"].astype("int64"),
                        "rank": pd.Series(
                            range(1, len(top) + 1), dtype="int64"
                        ),
                    }
                )
            )
        if not rows:
            return pd.DataFrame(
                {
                    "lang": pd.Series([], dtype="string"),
                    "doc_id": pd.Series([], dtype="int64"),
                    "rank": pd.Series([], dtype="int64"),
                }
            )
        return pd.concat(rows, ignore_index=True)

    return bucketed_group_map(
        keepers.map_batches(rank_partial, batch_format="pandas"),
        "lang",
        rank_final,
    )


# --- importance resampling (DSIR) ---------------------------------------------

DSIR_BUCKETS = 256
DSIR_KEEP_PPM = 100_000  # keep the top 10% by importance weight

#: worker-global token → md5-64 memo: natural-language vocabulary is
#: heavy-tailed, so most tokens repeat across documents — hashing each
#: DISTINCT token once per worker cuts the md5 bill by the repeat factor.
#: Capped so a long-lived worker on an open-vocab corpus can't grow it
#: unboundedly (cleared wholesale — the common tokens re-enter at once).
_DSIR_MEMO: dict[str, int] = {}
_DSIR_MEMO_MAX = 1_000_000


def _dsir_buckets(toks: list[str], n_buckets: int) -> np.ndarray:
    from zerox_ray.functions.hashing import md5_64_array

    memo = _DSIR_MEMO
    new = [t for t in set(toks) if t not in memo]
    if new:
        if len(memo) + len(new) > _DSIR_MEMO_MAX:
            memo.clear()
        for t, h in zip(new, md5_64_array([t.encode() for t in new])):
            memo[t] = int(h)
    return np.fromiter(
        (memo[t] % n_buckets for t in toks), dtype=np.int64, count=len(toks)
    )


def importance_sample(
    sf_dir: str,
    n_buckets: int = DSIR_BUCKETS,
    keep_ppm: int = DSIR_KEEP_PPM,
) -> ray.data.Dataset:
    """DSIR-style importance resampling (Xie et al. 2023,
    arXiv:2302.03169): score every document by hashed-feature importance
    against the corpus feature distribution, keep the top fraction.

    Deterministic integer form (so the oracle value-checks it): features
    are md5-64 token hashes bucketed mod ``n_buckets``; a token is RARE
    iff its bucket's corpus count is below the uniform mean
    (count·n_buckets < total) — the integer surrogate for a low
    source-probability feature, whose importance the sampler up-weights;
    weight_ppm = (n_rare·1e6) // n_tok; selection is the global
    top-⌈n_docs·keep_ppm/1e6⌉ by (weight desc, doc_id asc).

    Scale shape — threshold selection, never a global sort:
    1. feature histogram: ≤ n_buckets partial rows per batch into one
       tiny groupby (a scalar-sized driver artifact, broadcast back);
    2. scoring pass: the payload is scanned once more and the scored
       table (4 int64 columns) is materialized in the object store;
    3. weight histogram: weight_ppm is BOUNDED in [0, 1e6], so a
       mergeable (weight → count) histogram (≤ 1e6+1 rows) reaches the
       driver, which reads off the selection threshold w*; ties AT w*
       are resolved to exact doc_id d* by one more bounded histogram
       over doc_id ranges (≤ n_docs/4096 rows) plus a single ≤4096-row
       boundary-range pull — the quality_percentiles idiom, never a
       top-k merge over a corpus fraction;
    4. selection is then a shuffle-free broadcast-threshold filter, and
       rank = (kept docs with higher weight, from the histogram) +
       (within-weight doc_id position, one coarse-bucketed exchange
       keyed on weight value — per-task memory is the tie mass of the
       bucket's weights, ~k/W expected; the same documented cap as
       rank_curate's rank ranges).
    Zero-token docs are excluded (no features → no importance
    estimate). Output: (doc_id, n_tok, n_rare, weight_ppm, rank)."""
    import ray

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _bucket_counts(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """per-doc (n_tok, n_rare-compatible bucket lists) helper is not
        needed — this returns the flat bucket histogram for pass 1."""
        counts = np.zeros(n_buckets, dtype=np.int64)
        for text in texts:
            toks = TOKEN_RE.findall(text)
            if toks:
                counts += np.bincount(
                    _dsir_buckets(toks, n_buckets), minlength=n_buckets
                )
        return counts

    def hist_partial(t: pa.Table) -> pa.Table:
        counts = _bucket_counts(t["text"].to_pylist())
        nz = np.nonzero(counts)[0]
        return pa.table(
            {
                "bucket": pa.array(nz.astype(np.int64), pa.int64()),
                "c": pa.array(counts[nz], pa.int64()),
            }
        )

    hist = bucketed_group_agg(
        ds.map_batches(hist_partial, batch_format="pyarrow"),
        ["bucket"],
        {"c": ("c", "sum")},
    ).to_pandas()  # ≤ n_buckets rows — scalar-sized, like the Bloom bitmap
    counts = np.zeros(n_buckets, dtype=np.int64)
    counts[hist["bucket"].to_numpy()] = hist["c"].to_numpy()
    total = int(counts.sum())
    rare_ref = ray.put(counts * n_buckets < total)

    n_docs = ds.count()
    k = max(1, (n_docs * keep_ppm + PPM - 1) // PPM)

    def score_batch(t: pa.Table) -> pa.Table:
        rare = ray.get(rare_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = np.zeros(len(ids), dtype=np.int64)
        n_rare = np.zeros(len(ids), dtype=np.int64)
        for i, text in enumerate(t["text"].to_pylist()):
            toks = TOKEN_RE.findall(text)
            if toks:
                b = _dsir_buckets(toks, n_buckets)
                n_tok[i] = len(toks)
                n_rare[i] = int(rare[b].sum())
        m = n_tok > 0
        ids, n_tok, n_rare = ids[m], n_tok[m], n_rare[m]
        w = (n_rare * PPM) // np.maximum(n_tok, 1)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tok": pa.array(n_tok, pa.int64()),
                "n_rare": pa.array(n_rare, pa.int64()),
                "weight_ppm": pa.array(w, pa.int64()),
            }
        )

    # 4 int64 columns, reused by the weight histogram, the boundary
    # refinement and the selection pass — one payload scan total here
    scored = ds.map_batches(score_batch, batch_format="pyarrow").materialize()

    def w_partial(t: pa.Table) -> pa.Table:
        part = pa.table({"weight_ppm": t["weight_ppm"]})
        return (
            part.group_by("weight_ppm")
            .aggregate([("weight_ppm", "count")])
            .rename_columns(["weight_ppm", "cnt"])
        )

    whist = (
        bucketed_group_agg(
            scored.map_batches(w_partial, batch_format="pyarrow"),
            ["weight_ppm"],
            {"cnt": ("cnt", "sum")},
        )
        .to_pandas()
        .sort_values("weight_ppm", ascending=False)
        .reset_index(drop=True)
    )
    wvals = whist["weight_ppm"].to_numpy(np.int64)
    cnts = whist["cnt"].to_numpy(np.int64)
    cum = np.cumsum(cnts)
    total_scored = int(cum[-1]) if len(cum) else 0

    if total_scored <= k:
        # every scored doc is kept: weights are ≥ 0, so w*=-1 passes all
        w_star, d_star, c_gt = -1, np.iinfo(np.int64).max, 0
    else:
        i_star = int(np.searchsorted(cum, k))  # first cum ≥ k
        w_star = int(wvals[i_star])
        c_gt = int(cum[i_star - 1]) if i_star else 0
        r = k - c_gt  # boundary-weight slots remaining
        if r == int(cnts[i_star]):
            d_star = np.iinfo(np.int64).max  # whole tie mass fits
        else:
            # refine the boundary weight's doc_id cutoff: bounded range
            # histogram → driver prefix scan → one ≤_SHARD_RANGE-row pull
            boundary = scored.map_batches(
                lambda t, w=w_star: pa.table(
                    {
                        "rng": pc.divide(
                            t.filter(pc.equal(t["weight_ppm"], w))["doc_id"],
                            _SHARD_RANGE,
                        )
                    }
                ),
                batch_format="pyarrow",
            )
            rhist = (
                bucketed_group_agg(
                    boundary.map_batches(
                        lambda t: t.group_by("rng")
                        .aggregate([("rng", "count")])
                        .rename_columns(["rng", "cnt"]),
                        batch_format="pyarrow",
                    ),
                    ["rng"],
                    {"cnt": ("cnt", "sum")},
                )
                .to_pandas()
                .sort_values("rng")
                .reset_index(drop=True)
            )
            rcum = np.cumsum(rhist["cnt"].to_numpy(np.int64))
            j = int(np.searchsorted(rcum, r))
            r_star = int(rhist["rng"].iloc[j])
            r2 = r - (int(rcum[j - 1]) if j else 0)
            tail = scored.map_batches(
                lambda t, w=w_star, rg=r_star: t.filter(
                    pc.and_(
                        pc.equal(t["weight_ppm"], w),
                        pc.equal(pc.divide(t["doc_id"], _SHARD_RANGE), rg),
                    )
                ).select(["doc_id"]),
                batch_format="pyarrow",
            ).to_pandas()  # ≤ _SHARD_RANGE rows (doc_ids are unique)
            d_star = int(np.sort(tail["doc_id"].to_numpy(np.int64))[r2 - 1])

    # exclusive offset of each kept weight = kept docs with HIGHER weight
    kept_w = wvals[: int(np.searchsorted(cum, k)) + 1] if total_scored > k else wvals
    offs = np.concatenate([[0], cum[: len(kept_w) - 1]]) if len(kept_w) else cum[:0]
    off_ref = ray.put(dict(zip(kept_w.tolist(), offs.astype(np.int64).tolist())))
    thresh = (w_star, d_star)

    def keep(t: pa.Table) -> pa.Table:
        w, d = thresh
        m = pc.or_(
            pc.greater(t["weight_ppm"], w),
            pc.and_(
                pc.equal(t["weight_ppm"], w), pc.less_equal(t["doc_id"], d)
            ),
        )
        return t.filter(m)

    def rank_group(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(off_ref)
        g = g.sort_values(["weight_ppm", "doc_id"], ascending=[False, True])
        pos = g.groupby("weight_ppm", sort=False).cumcount().to_numpy(np.int64)
        base = g["weight_ppm"].map(off).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].astype("int64"),
                "n_tok": g["n_tok"].astype("int64"),
                "n_rare": g["n_rare"].astype("int64"),
                "weight_ppm": g["weight_ppm"].astype("int64"),
                "rank": base + pos + 1,
            }
        )

    return bucketed_group_map(
        scored.map_batches(keep, batch_format="pyarrow"),
        "weight_ppm",
        rank_group,
    )


def dup_class_sizes(sf_dir: str) -> ray.data.Dataset:
    """Histogram of exact-duplicate class sizes — the first diagnostic a
    dedup operator reads (how much mass is in 2×, 3×, N× classes decides
    whether dedup is worth a shuffle at all). Shape: dedup_exact's
    per-batch (hash → partial count) combiner → ONE hash-key grouped sum
    (class sizes) → per-batch histogram partial → ONE size-key grouped
    sum. The second exchange moves one row per distinct class size per
    batch — O(max class size). Output: (n_copies, n_classes)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    partials = ds.map_batches(_dedup_partials, batch_format="pandas")
    classes = bucketed_group_agg(
        partials, ["h"], {"n_copies": ("n_copies", "sum")}
    )

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["n_copies"].value_counts()
        return pd.DataFrame(
            {
                "n_copies": vc.index.to_numpy(np.int64),
                "n_classes": vc.to_numpy(np.int64),
            }
        )

    return bucketed_group_agg(
        classes.map_batches(hist_partial, batch_format="pandas"),
        ["n_copies"],
        {"n_classes": ("n_classes", "sum")},
    )


def corpus_datacard(sf_dir: str) -> ray.data.Dataset:
    """Per-(lang, source) corpus data card — the summary sheet a dataset
    release ships (datasheets-for-datasets shape): document count, token
    and char totals, mean doc length, and the exact-duplicate rate.

    Shape: ONE scan emits BOTH partial kinds — per-(lang, source) sums
    AND per-(lang, source, text-hash) presence rows — then two bounded
    reductions: a grouped sum for the additive stats and a two-level
    dedup-then-count for distinct texts (the standard distinct-count
    composition). Output: (lang, source, n_docs, total_tokens,
    total_chars, mean_tokens_micro, n_distinct_texts, dup_ppm)."""
    from zerox_ray.functions.hashing import md5_64_array

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "source"]
    )

    def sum_partial(df: pd.DataFrame) -> pd.DataFrame:
        n_tok = df["text"].str.count(" ").to_numpy(np.int64) + 1
        out = pd.DataFrame(
            {
                "lang": df["lang"].astype(str),
                "source": df["source"].astype(str),
                "n_docs": 1,
                "total_tokens": n_tok,
                "total_chars": df["text"].str.len().to_numpy(np.int64),
            }
        ).groupby(["lang", "source"], as_index=False).sum()
        return out.astype(
            {"n_docs": "int64", "total_tokens": "int64", "total_chars": "int64"}
        )

    sums = bucketed_group_agg(
        ds.map_batches(sum_partial, batch_format="pandas"),
        ["lang", "source"],
        {
            "n_docs": ("n_docs", "sum"),
            "total_tokens": ("total_tokens", "sum"),
            "total_chars": ("total_chars", "sum"),
        },
    )

    def hash_partial(df: pd.DataFrame) -> pd.DataFrame:
        h = (md5_64_array([t.encode() for t in df["text"]]) >> np.uint64(1)).astype(
            np.int64
        )
        out = pd.DataFrame(
            {"lang": df["lang"].astype(str), "source": df["source"].astype(str), "h": h}
        ).drop_duplicates()
        out["one"] = 1
        return out

    distinct = bucketed_group_agg(
        ds.map_batches(hash_partial, batch_format="pandas"),
        ["lang", "source", "h"],
        {"one": ("one", "min")},
    )

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["lang", "source"], as_index=False).size()
        return out.rename(columns={"size": "n_distinct_texts"}).astype(
            {"n_distinct_texts": "int64"}
        )

    ndist = bucketed_group_agg(
        distinct.map_batches(count_partial, batch_format="pandas"),
        ["lang", "source"],
        {"n_distinct_texts": ("n_distinct_texts", "sum")},
    )

    from zerox_ray.functions.hashing import md5_64_array
    from zerox_ray.pipelines.relational import hash_join

    # both sides are O(langs × sources) — tiny; tag with the engine's
    # 63-bit md5 key convention on a \x1f-delimited pair (the separator
    # cannot occur in parquet string values that tokenized as text), and
    # carry BOTH sides' key columns through the join so a key collision
    # is filtered by string equality instead of silently cross-matching
    def keyed(prefix: str):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            df = df.rename(
                columns={"lang": f"{prefix}lang", "source": f"{prefix}source"}
            )
            df["k"] = (
                md5_64_array(
                    [
                        f"{l}\x1f{s}".encode()
                        for l, s in zip(df[f"{prefix}lang"], df[f"{prefix}source"])
                    ]
                )
                >> np.uint64(1)
            ).astype(np.int64)
            return df

        return f

    joined = hash_join(
        sums.map_batches(keyed(""), batch_format="pandas"),
        ndist.map_batches(keyed("r_"), batch_format="pandas"),
        on="k",
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df[
            (df["lang"] == df["r_lang"]) & (df["source"] == df["r_source"])
        ]
        nd = df["n_docs"].to_numpy(np.int64)
        tt = df["total_tokens"].to_numpy(np.int64)
        nx = df["n_distinct_texts"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "lang": df["lang"].astype(str),
                "source": df["source"].astype(str),
                "n_docs": nd,
                "total_tokens": tt,
                "total_chars": df["total_chars"].to_numpy(np.int64),
                "mean_tokens_micro": 1_000_000 * tt // nd,
                "n_distinct_texts": nx,
                "dup_ppm": 1_000_000 * (nd - nx) // nd,
            }
        )

    return joined.map_batches(finish, batch_format="pandas")


# --- robust (median/MAD) outlier detection --------------------------------------


#: MAD outlier multiplier: |v − median| > 2·MAD — the robust z-score
#: gate (Hampel's family; 2·MAD ≈ 3σ under normality once the 1.4826
#: consistency factor is folded in, and exact integers beat carrying
#: that float through the oracle). k is a tunable either way.
MAD_K = 2


def mad_outliers(sf_dir: str, k: int = MAD_K) -> ray.data.Dataset:
    """Robust length-outlier detection: flag documents whose character
    count deviates from the corpus median by more than ``k`` times the
    median-absolute-deviation — the standard robust gate (mean/stddev
    break down exactly when the corpus HAS outliers; median/MAD don't).
    Both statistics are lower medians (zero-based order statistic
    (n−1)//2 — tie-order independent, integer-exact, SQL-replayable).

    Scale shape: ONE exchange total — per-batch value-count partials
    over n_chars → ONE value-grouped sum → the driver pulls ≤|distinct
    lengths| rows (bounded by the length DOMAIN, not the corpus; a
    length cap bounds it absolutely). Median AND MAD both read off that
    one histogram driver-side (|v − M| counts are a re-bucketing of the
    same table — no second scan). Pass 2 is a shuffle-free flag scan
    with two broadcast scalars. Output: (doc_id, n_chars, abs_dev,
    is_outlier) for every document."""
    vals = read_table(f"{sf_dir}/documents.parquet", columns=["n_chars"])

    def vc_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["n_chars"].value_counts()
        return pd.DataFrame(
            {"v": vc.index.to_numpy(np.int64), "n": vc.to_numpy(np.int64)}
        )

    hist = (
        bucketed_group_agg(
            vals.map_batches(vc_partial, batch_format="pandas"),
            ["v"],
            {"n": ("n", "sum")},
        )
        .to_pandas()  # ≤ |distinct n_chars values| rows at any corpus size
        .sort_values("v")
    )
    v = hist["v"].to_numpy(np.int64)
    n = hist["n"].to_numpy(np.int64)
    total = int(n.sum())
    if total == 0:  # empty corpus → typed empty, stable schema
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_chars": pa.array([], pa.int64()),
                    "abs_dev": pa.array([], pa.int64()),
                    "is_outlier": pa.array([], pa.int64()),
                }
            )
        )

    def hist_lower_median(values: np.ndarray, counts: np.ndarray) -> int:
        rank = (total - 1) // 2  # zero-based lower median
        return int(values[np.searchsorted(np.cumsum(counts), rank + 1)])

    med = hist_lower_median(v, n)
    # |v − med| histogram is a re-bucketing of the same table
    dev = pd.DataFrame({"d": np.abs(v - med), "n": n}).groupby("d", as_index=True)[
        "n"
    ].sum()
    mad = hist_lower_median(dev.index.to_numpy(np.int64), dev.to_numpy(np.int64))
    thr = k * mad

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        ad = np.abs(df["n_chars"].to_numpy(np.int64) - med)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_chars": df["n_chars"].astype("int64"),
                "abs_dev": ad,
                "is_outlier": (ad > thr).astype(np.int64),
            }
        )

    return ds.map_batches(flag, batch_format="pandas")


# --- wrap-around sequence packing (GPT-style pretraining batches) --------------

PACK_SEQ_LEN = 128


def packed_sequences(sf_dir: str, seq_len: int = PACK_SEQ_LEN) -> ray.data.Dataset:
    """Wrap-around sequence packing — the GPT-style pretraining batch
    layout: all documents are concatenated in doc_id order into one
    global token stream, and the stream is sliced into fixed
    ``seq_len``-token training sequences; a document that straddles a
    boundary CONTINUES in the next sequence (unlike ``token_shards``,
    which bins whole documents, or ``token_chunks``, which windows
    within one document). Output: one row per (document × sequence)
    overlap — (doc_id, seq_id, seq_off, n_tok) with seq_off the
    document's start position INSIDE the sequence — exactly the index
    a loader needs to materialize attention-mask resets at document
    boundaries. Empty documents emit nothing.

    Scale shape: the token_shards two-pass distributed prefix sum
    verbatim (per-range partial sums → ONE grouped-sum exchange →
    ≤ n_docs/_SHARD_RANGE-row driver scan → broadcast offsets), then a
    shuffle-free streaming pass that np.repeat-explodes each document
    over the ⌈n/seq_len⌉+1 sequences it can touch — per-batch output is
    O(tokens/seq_len), no Python loop over documents."""
    if seq_len <= 0:
        raise ValueError("seq_len must be positive")
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def tokens_batch(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_tokens": pc.cast(
                    pc.count_substring_regex(t["text"], TOKEN_RE.pattern), pa.int64()
                ),
            }
        )

    counted = ds.map_batches(
        tokens_batch, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # 2 int64 columns; reused by both passes

    def range_partials(t: pa.Table) -> pa.Table:
        rng = pc.divide(t["doc_id"], _SHARD_RANGE)
        part = pa.table({"rng": rng, "tok": t["n_tokens"]})
        return part.group_by("rng").aggregate([("tok", "sum")]).rename_columns(
            ["rng", "tok"]
        )

    range_sums = (
        bucketed_group_agg(
            counted.map_batches(
                range_partials, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["rng"],
            {"tok": ("tok", "sum")},
        )
        .to_pandas()  # ≤ n_docs/_SHARD_RANGE rows (the reduced table)
        .sort_values("rng")
    )
    offsets = dict(
        zip(
            range_sums["rng"].to_numpy(),
            np.concatenate([[0], np.cumsum(range_sums["tok"].to_numpy())[:-1]]),
        )
    )
    off_ref = ray.put(offsets)

    def explode(g: pd.DataFrame) -> pd.DataFrame:
        off_map = cached_get("pack_off", off_ref)
        g = g.sort_values("doc_id", kind="mergesort")
        n = g["n_tokens"].to_numpy(dtype=np.int64)
        off = np.concatenate([[0], np.cumsum(n)[:-1]])
        off += int(off_map[int(g["doc_id"].iloc[0]) // _SHARD_RANGE])
        doc = g["doc_id"].to_numpy(dtype=np.int64)
        m = n > 0
        doc, n, off = doc[m], n[m], off[m]
        if len(doc) == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype="int64"),
                    "seq_id": pd.Series(dtype="int64"),
                    "seq_off": pd.Series(dtype="int64"),
                    "n_tok": pd.Series(dtype="int64"),
                }
            )
        first = off // seq_len
        last = (off + n - 1) // seq_len
        reps = (last - first + 1).astype(np.int64)
        d_out = np.repeat(doc, reps)
        base = np.repeat(first, reps)
        # within-doc sequence counter 0..reps-1, vectorized
        idx = np.arange(reps.sum(), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(reps)[:-1]]), reps
        )
        seq = base + idx
        doc_start = np.repeat(off, reps)
        doc_end = doc_start + np.repeat(n, reps)
        lo = np.maximum(doc_start, seq * seq_len)
        hi = np.minimum(doc_end, (seq + 1) * seq_len)
        return pd.DataFrame(
            {
                "doc_id": d_out,
                "seq_id": seq,
                "seq_off": lo - seq * seq_len,
                "n_tok": hi - lo,
            }
        )

    return (
        counted.map_batches(
            lambda df: df.assign(rng=(df["doc_id"] // _SHARD_RANGE).astype("int64")),
            batch_format="pandas",
        )
        .groupby("rng")
        .map_groups(explode, batch_format="pandas")
    )
