"""Webtext quality-filtering and LM-scoring operators — the model-free
half of a pretraining curation stack, each expressed as Ray Data batch
transforms with the engine's bounded-exchange shapes:

- ``gopher_rules``      — Gopher-style repetition/length/stopword rule
  flags (Rae et al. 2021 §A1.1); zero exchanges, one vectorized scan.
- ``unigram_logprobs``  — CCNet-style language-model fluency scoring
  (Wenzek et al. 2020) with a corpus unigram model: one bounded
  vocabulary exchange, then a broadcast-scored streaming pass.
- ``perplexity_buckets``— CCNet's head/middle/tail split by per-language
  score tertiles, via the broadcast-histogram percentile idiom
  (quality_percentiles' shape; driver state ≤ langs × 4096 bins).
- ``classifier_scores`` — fastText-style hashed linear quality
  classifier (Joulin et al. 2017; the FineWeb-Edu filtering shape):
  deterministic md5-bucket weights so the oracle can replay the model.
- ``inverted_index``    — postings construction (term → df/ctf/first-K
  doc ids): per-batch partial postings, ONE term-key exchange with a
  mergeable capped-list combine.

All arithmetic is integer (micro/milli units) so DuckDB oracles match
bit-for-bit; every driver pull is bounded (vocab / histogram bins), and
the bound's 100-TB story is documented per function.

The reference engine (getomni-ai/zerox) has no corpus-level text
analytics — this family is part of the engine's training-data surface
(SURVEY.md §2 extension table), not a port.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from zerox_ray.functions.hashing import md5_64_array
from zerox_ray.pipelines.agg import bucketed_group_agg, bucketed_group_map, cached_get
from zerox_ray.sources.tables import read_table

PPM = 1_000_000

# Gopher-style rule thresholds, calibrated to the synthetic corpus so
# every flag has both pass and fail mass (the real Gopher bounds —
# 50..100k words, mean word length 3..10 — are one constant away).
GOPHER_MIN_WORDS = 20
GOPHER_MAX_WORDS = 80
GOPHER_MIN_MWL_PPM = 4_300_000  # mean word length ≥ 4.3 chars
GOPHER_MAX_MWL_PPM = 4_700_000  # ≤ 4.7 chars
GOPHER_MAX_TOP_PPM = 120_000  # most-common word ≤ 12% of tokens
GOPHER_STOPWORDS = ("a", "the")
GOPHER_MIN_STOP_HITS = 2

_PPLX_BINS = 4096
_INDEX_TOP_K = 8


def _doc_token_stats(texts: pd.Series) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a batch of space-separated docs into (flat token array,
    per-doc token counts, per-token doc index) — the one tokenization
    this module runs; everything downstream is numpy on the flat view."""
    toks = texts.str.split(" ")
    lens = toks.str.len().to_numpy(dtype=np.int64)
    flat = np.concatenate(toks.to_numpy()) if len(toks) else np.array([], dtype=object)
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    return flat, lens, doc_idx


def gopher_rules(sf_dir: str) -> ray.data.Dataset:
    """Per-document Gopher-style quality rule flags — word-count bounds,
    mean-word-length bounds, most-common-word fraction, stopword
    presence — plus the conjunctive keep bit. Mirrors Gopher §A1.1's
    rule filter (the reference webtext-curation recipe); thresholds are
    module constants.

    Scale shape: a single vectorized map_batches scan, NO exchange —
    per-doc top-term frequency comes from one np.unique over the
    batch's flat token view (term ids × doc ids folded into one key),
    not a per-row Counter. Output: one row per doc with integer
    micro-unit metrics and 0/1 flags."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def flags(df: pd.DataFrame) -> pd.DataFrame:
        flat, n_words, doc_idx = _doc_token_stats(df["text"])
        uniq, term_id = np.unique(flat, return_inverse=True)
        mwl_ppm, top_ppm, stop_hits = _gopher_metric_arrays(
            flat, n_words, doc_idx, uniq, term_id
        )
        f_words = (
            (n_words >= GOPHER_MIN_WORDS) & (n_words <= GOPHER_MAX_WORDS)
        ).astype(np.int64)
        f_mwl = (
            (mwl_ppm >= GOPHER_MIN_MWL_PPM) & (mwl_ppm <= GOPHER_MAX_MWL_PPM)
        ).astype(np.int64)
        f_top = (top_ppm <= GOPHER_MAX_TOP_PPM).astype(np.int64)
        f_stop = (stop_hits >= GOPHER_MIN_STOP_HITS).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "n_words": n_words,
                "mean_word_len_ppm": mwl_ppm,
                "top_word_ppm": top_ppm,
                "stop_hits": stop_hits,
                "flag_word_count": f_words,
                "flag_word_len": f_mwl,
                "flag_top_word": f_top,
                "flag_stopwords": f_stop,
                "keep": f_words * f_mwl * f_top * f_stop,
            }
        )

    return ds.map_batches(flags, batch_format="pandas")


def _corpus_unigram_ic(sf_dir: str) -> tuple[dict, int]:
    """Pass 1 of the CCNet scoring: corpus unigram counts via per-batch
    np.unique partials → ONE grouped sum → the reduced vocabulary on the
    driver. Driver state is O(|vocab|): exact here; at open-web scale
    the same pass caps the model at the top-V terms via a Misra-Gries
    pre-filter (sketches.heavy_hitters) with an OOV smoothing bucket —
    the model quality degrades gracefully, the exchange stays bounded.

    Returns ({term: ic_micro}, total_tokens) where
    ic_micro(t) = (1e6 · T) // ctf(t) — an integer information-content
    surrogate for -log p(t) that DuckDB replays exactly."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["text"])

    def vocab_partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, _, _ = _doc_token_stats(df["text"])
        uniq, counts = np.unique(flat, return_counts=True)
        return pd.DataFrame({"term": uniq, "n": counts.astype(np.int64)})

    vocab = bucketed_group_agg(
        ds.map_batches(vocab_partial, batch_format="pandas"),
        ["term"],
        {"n": ("n", "sum")},
    ).to_pandas()  # O(|vocab|) rows — bounded driver state (see docstring)
    total = int(vocab["n"].sum())
    ic = {t: (PPM * total) // int(n) for t, n in zip(vocab["term"], vocab["n"])}
    return ic, total


def _score_batch(df: pd.DataFrame, ic: dict) -> pd.DataFrame:
    """Vectorized per-doc unigram score: xent_micro = Σ ic(t) // n_words."""
    flat, n_words, doc_idx = _doc_token_stats(df["text"])
    uniq, term_id = np.unique(flat, return_inverse=True)
    uniq_ic = np.fromiter((ic[t] for t in uniq), np.int64, count=len(uniq))
    ic_sum = np.zeros(len(df), np.int64)
    np.add.at(ic_sum, doc_idx, uniq_ic[term_id])
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
            "lang": df["lang"].astype(str),
            "n_words": n_words,
            "ic_sum": ic_sum,
            "xent_micro": ic_sum // n_words,
        }
    )


def _gopher_metric_arrays(
    flat: np.ndarray,
    n_words: np.ndarray,
    doc_idx: np.ndarray,
    uniq: np.ndarray,
    term_id: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ONE Gopher metric kernel (mean word length, top-term
    fraction, stopword hits) over a batch's flat token view — shared by
    ``gopher_rules`` and the fused ``quality_curate`` scan so the
    standalone operator and the capstone gate can never drift."""
    n_docs = len(n_words)
    tok_len = np.fromiter((len(t) for t in flat), np.int64, count=len(flat))
    chars = np.zeros(n_docs, np.int64)
    np.add.at(chars, doc_idx, tok_len)
    mwl_ppm = PPM * chars // n_words
    pair_key = doc_idx * len(uniq) + term_id
    pair_u, pair_n = np.unique(pair_key, return_counts=True)
    top_tf = np.zeros(n_docs, np.int64)
    np.maximum.at(top_tf, pair_u // len(uniq), pair_n)
    top_ppm = PPM * top_tf // n_words
    stopset = set(GOPHER_STOPWORDS)
    stop_mask = np.array([t in stopset for t in uniq], dtype=bool)
    stop_hits = np.zeros(n_docs, np.int64)
    np.add.at(stop_hits, doc_idx, stop_mask[term_id].astype(np.int64))
    return mwl_ppm, top_ppm, stop_hits


def _gopher_keep(
    n_words: np.ndarray,
    mwl_ppm: np.ndarray,
    top_ppm: np.ndarray,
    stop_hits: np.ndarray,
) -> np.ndarray:
    """Conjunction of the four Gopher rule thresholds (bool array)."""
    return (
        (n_words >= GOPHER_MIN_WORDS)
        & (n_words <= GOPHER_MAX_WORDS)
        & (mwl_ppm >= GOPHER_MIN_MWL_PPM)
        & (mwl_ppm <= GOPHER_MAX_MWL_PPM)
        & (top_ppm <= GOPHER_MAX_TOP_PPM)
        & (stop_hits >= GOPHER_MIN_STOP_HITS)
    )


def _hashed_weights(uniq: np.ndarray) -> np.ndarray:
    """fastText-style hashed weights per unique term (milli-units)."""
    return (md5_64_array([t.encode() for t in uniq]) % np.uint64(2001)).astype(
        np.int64
    )


def _tertile_state(scores: ray.data.Dataset):
    """Per-language tertile state from a slim (lang, xent_micro, …)
    table — the broadcast-histogram percentile machinery shared by
    ``perplexity_buckets``, ``quality_curate`` and ``tier_shards``:
    ONE grouped-max exchange (bin widths + per-lang counts, ≤ |langs|
    rows on the driver) then ONE (lang, bin) histogram exchange
    (≤ langs × 4096 rows), reduced into DENSE per-lang cumulative
    arrays so the per-row assignment is pure numpy indexing.

    Returns a ``ray.put`` ref of ({lang: bin width}, {lang: n_docs},
    {lang: int64[4096] strictly-below counts})."""

    def max_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(
            m=("xent_micro", "max"), nl=("xent_micro", "size")
        )
        return g.astype({"m": "int64", "nl": "int64"})

    mx = bucketed_group_agg(
        scores.map_batches(max_partial, batch_format="pandas"),
        ["lang"],
        {"m": ("m", "max"), "nl": ("nl", "sum")},
    ).to_pandas()  # ≤ |langs| rows
    width = {r.lang: int(r.m) // _PPLX_BINS + 1 for r in mx.itertuples()}
    n_lang = {r.lang: int(r.nl) for r in mx.itertuples()}

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        w = df["lang"].map(width).to_numpy(dtype=np.int64)
        b = df["xent_micro"].to_numpy(dtype=np.int64) // w
        out = (
            pd.DataFrame({"lang": df["lang"], "bin": b})
            .groupby(["lang", "bin"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return out.astype({"bin": "int64", "n": "int64"})

    hist = bucketed_group_agg(
        scores.map_batches(hist_partial, batch_format="pandas"),
        ["lang", "bin"],
        {"n": ("n", "sum")},
    ).to_pandas()  # ≤ langs × 4096 rows — bounded driver state
    below = {}
    for lang, grp in hist.groupby("lang"):
        counts = np.zeros(_PPLX_BINS, np.int64)
        counts[grp["bin"].to_numpy(np.int64)] = grp["n"].to_numpy(np.int64)
        below[lang] = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return ray.put((width, n_lang, below))


def _pct_ppm(df: pd.DataFrame, state) -> np.ndarray:
    """Vectorized tertile percentile per row: one numpy gather per
    language present in the batch (dense cumulative array indexing) —
    no per-row Python in the streaming scan."""
    width, n_lang, below = state
    xent = df["xent_micro"].to_numpy(np.int64)
    langs = df["lang"].to_numpy()
    pct = np.empty(len(df), np.int64)
    for lg in pd.unique(df["lang"]):
        m = langs == lg
        bins = xent[m] // width[lg]
        pct[m] = below[lg][bins] * PPM // n_lang[lg]
    return pct


def _tertile_bucket(pct: np.ndarray) -> np.ndarray:
    """head (<1/3), middle (<2/3), tail — the 3·pct integer form the
    oracles replay."""
    return np.where(
        pct * 3 < PPM, "head", np.where(pct * 3 < 2 * PPM, "middle", "tail")
    )


def unigram_logprobs(sf_dir: str) -> ray.data.Dataset:
    """CCNet-style LM fluency scoring with a corpus unigram model:
    pass 1 reduces the vocabulary (one bounded exchange,
    ``_corpus_unigram_ic``), pass 2 broadcasts the {term → ic} table via
    ray.put and scores every document in one streaming scan — the
    payload text is read exactly twice and never shuffled.

    Output: (doc_id, lang, n_words, ic_sum, xent_micro) — xent_micro is
    the integer mean information content, the replayable stand-in for
    the KenLM perplexity CCNet buckets on."""

    ic, _ = _corpus_unigram_ic(sf_dir)
    ic_ref = ray.put(ic)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        return _score_batch(df, cached_get("unigram_ic", ic_ref))

    return read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    ).map_batches(score, batch_format="pandas")


def perplexity_buckets(sf_dir: str) -> ray.data.Dataset:
    """CCNet head/middle/tail split: per-language score tertiles over
    the unigram xent, assigned via the broadcast-histogram percentile
    idiom (quality_percentiles' shape, made per-group):

    1. score once into a slim (doc_id, lang, xent) table, materialized
       so the text payload is scanned exactly twice total (vocab+score)
       no matter how many reductions follow;
    2. per-lang max → bin width (ONE tiny grouped-max exchange,
       ≤ |langs| rows on the driver);
    3. per-(lang, bin) histogram (ONE grouped sum, ≤ langs × 4096 rows);
    4. broadcast cumulative counts; each doc gets
       pct_ppm = (docs in strictly lower bins) · 1M // n_lang and
       bucket head (<1/3), middle (<2/3), tail — ties inside one bin
       share a bucket, which the oracle mirrors exactly.

    Driver state is langs × 4096 ints at ANY corpus size."""

    ic, _ = _corpus_unigram_ic(sf_dir)
    ic_ref = ray.put(ic)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        out = _score_batch(df, cached_get("unigram_ic", ic_ref))
        return out[["doc_id", "lang", "xent_micro"]]

    scores = (
        read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
        .map_batches(score, batch_format="pandas")
        .materialize()  # slim 3-column table; payload text is NOT re-read below
    )

    state_ref = _tertile_state(scores)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        pct = _pct_ppm(df, cached_get("pplx_state", state_ref))
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "lang": df["lang"].astype(str),
                "xent_micro": df["xent_micro"].to_numpy(np.int64),
                "pct_ppm": pct,
                "bucket": _tertile_bucket(pct),
            }
        )

    return scores.map_batches(assign, batch_format="pandas")


def classifier_scores(sf_dir: str) -> ray.data.Dataset:
    """fastText-style hashed linear quality classifier (the
    FineWeb-Edu filtering shape): each term's weight is a deterministic
    md5 bucket w(t) = md5_64(t) % 2001 ∈ [0, 2000] milli-units — a
    stand-in for trained weights that the SQL oracle replays exactly —
    and the doc score is the mean token weight; label 'keep' at ≥ the
    1000-milli midpoint.

    Scale shape: stateless single scan, NO exchange; weights are hashed
    on the fly per batch over the np.unique term view (O(distinct terms
    per batch) md5 calls, not per token), so there is no model table to
    ship at all — the idiom for hashing-trick models whose weight
    vector would otherwise be a broadcast."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        flat, n_words, doc_idx = _doc_token_stats(df["text"])
        uniq, term_id = np.unique(flat, return_inverse=True)
        w_sum = np.zeros(len(df), np.int64)
        np.add.at(w_sum, doc_idx, _hashed_weights(uniq)[term_id])
        mean_milli = w_sum // n_words
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "n_words": n_words,
                "w_sum": w_sum,
                "mean_milli": mean_milli,
                "label": np.where(mean_milli >= 1000, "keep", "drop"),
            }
        )

    return ds.map_batches(score, batch_format="pandas")


def inverted_index(sf_dir: str, top_k: int = _INDEX_TOP_K) -> ray.data.Dataset:
    """Postings-list construction: term → (df, ctf, first-K doc ids) —
    the build side of the BM25 searcher, as its own operator. Per-batch
    partial postings (df/ctf plus each batch's K smallest doc ids, a
    MERGEABLE capped sketch of the full postings) → ONE term-key
    exchange → per-term combine. The full postings list is never
    materialized anywhere: every partial and every merged row carries at
    most K doc ids, so term skew ('the' appearing in every doc) costs
    O(partials · K) per term, not O(df).

    Output: (term, df, ctf, top_docs) with top_docs a comma-joined
    ascending doc-id string (stable for value-hash compare)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, _, doc_idx = _doc_token_stats(df["text"])
        doc_ids = df["doc_id"].to_numpy(dtype=np.int64)[doc_idx]
        uniq, term_id = np.unique(flat, return_inverse=True)
        ctf = np.bincount(term_id, minlength=len(uniq)).astype(np.int64)
        # distinct (term, doc) pairs, doc-sorted per term
        pair = pd.DataFrame({"tid": term_id, "doc_id": doc_ids}).drop_duplicates()
        pair = pair.sort_values(["tid", "doc_id"])
        dfreq = np.bincount(pair["tid"].to_numpy(), minlength=len(uniq)).astype(
            np.int64
        )
        docs = pair.groupby("tid", sort=True)["doc_id"].agg(
            lambda s: ",".join(map(str, s.head(top_k)))
        )
        return pd.DataFrame(
            {
                "term": uniq,
                "df": dfreq,
                "ctf": ctf,
                "docs": docs.reindex(range(len(uniq)), fill_value="").to_numpy(),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for term, grp in g.groupby("term", sort=False):
            ids: list[int] = []
            for s in grp["docs"]:
                if s:
                    ids.extend(int(x) for x in s.split(","))
            ids = sorted(set(ids))[:top_k]
            out.append(
                (
                    term,
                    int(grp["df"].sum()),
                    int(grp["ctf"].sum()),
                    ",".join(map(str, ids)),
                )
            )
        return pd.DataFrame(out, columns=["term", "df", "ctf", "top_docs"]).astype(
            {"df": "int64", "ctf": "int64"}
        )

    return bucketed_group_map(
        ds.map_batches(partial, batch_format="pandas"), "term", combine
    )


def quality_curate(sf_dir: str) -> ray.data.Dataset:
    """The model-free quality-curation capstone: Gopher rule gate ∧
    classifier gate ∧ non-tail perplexity bucket → exact-content dedup
    (keep the smallest doc_id per duplicate class) — the FineWeb-style
    filter chain, composed so the document text is tokenized ONCE.

    Scale shape: pass 1 is the bounded vocabulary exchange
    (``_corpus_unigram_ic``); pass 2 computes EVERY per-doc metric —
    Gopher flags, classifier milli-score, unigram xent, and the 63-bit
    content hash for dedup — from a single flat-token view per batch and
    materializes only a slim metrics table (text never moves again);
    the per-language tertile state then costs two tiny exchanges over
    that slim table (≤ langs × 4096 driver rows), the gate is a
    shuffle-free filter, and dedup is ONE content-hash exchange keeping
    min-doc_id. Output: (doc_id, lang, n_words, xent_micro, mean_milli,
    bucket) for surviving documents."""

    ic, _ = _corpus_unigram_ic(sf_dir)
    ic_ref = ray.put(ic)

    def metrics(df: pd.DataFrame) -> pd.DataFrame:
        icm = cached_get("unigram_ic", ic_ref)
        flat, n_words, doc_idx = _doc_token_stats(df["text"])
        n_docs = len(df)
        # one unique-term view feeds all three scorers (shared kernels —
        # the standalone operators use the same functions, so the fused
        # gate can never drift from gopher_rules / classifier_scores)
        uniq, term_id = np.unique(flat, return_inverse=True)
        mwl_ppm, top_ppm, stop_hits = _gopher_metric_arrays(
            flat, n_words, doc_idx, uniq, term_id
        )
        gopher_keep = _gopher_keep(n_words, mwl_ppm, top_ppm, stop_hits)
        w_sum = np.zeros(n_docs, np.int64)
        np.add.at(w_sum, doc_idx, _hashed_weights(uniq)[term_id])
        mean_milli = w_sum // n_words
        uniq_ic = np.fromiter((icm[t] for t in uniq), np.int64, count=len(uniq))
        ic_sum = np.zeros(n_docs, np.int64)
        np.add.at(ic_sum, doc_idx, uniq_ic[term_id])
        h = (
            md5_64_array([t.encode() for t in df["text"]]) >> np.uint64(1)
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(np.int64),
                "lang": df["lang"].astype(str),
                "h": h,
                "n_words": n_words,
                "xent_micro": ic_sum // n_words,
                "mean_milli": mean_milli,
                "gate": (gopher_keep & (mean_milli >= 1000)).astype(np.int64),
            }
        )

    scored = (
        read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
        .map_batches(metrics, batch_format="pandas")
        .materialize()  # slim metrics only — text is never re-read
    )

    state_ref = _tertile_state(scored)

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        pct = _pct_ppm(df, cached_get("qc_state", state_ref))
        bucket = _tertile_bucket(pct)
        keep = (df["gate"].to_numpy(np.int64) == 1) & (bucket != "tail")
        out = df.loc[keep, ["doc_id", "lang", "h", "n_words", "xent_micro", "mean_milli"]]
        out = out.assign(bucket=bucket[keep])
        return out

    gated = scored.map_batches(gate, batch_format="pandas")

    def keep_min(g: pd.DataFrame) -> pd.DataFrame:
        idx = g.groupby("h", sort=False)["doc_id"].idxmin()
        out = g.loc[idx].drop(columns=["h"])
        return out.reset_index(drop=True)

    return bucketed_group_map(gated, "h", keep_min)


def bigram_counts(sf_dir: str, min_count: int = 2) -> ray.data.Dataset:
    """Adjacent-bigram count table — the data-engine half of CCNet's
    KenLM step (the LM trains from exactly these counts): one vectorized
    scan building within-document bigrams from the flat token view
    (document boundaries masked, no cross-doc pairs), per-batch partial
    counts, then ONE (w1, w2) grouped sum; pairs below ``min_count`` are
    dropped AFTER the global sum (a pair can cross block boundaries).
    Output: (w1, w2, n). The count table is O(distinct bigrams) — the
    same bounded-output contract as the vocabulary pass; at open-web
    scale the min_count filter is what keeps the tail from dominating
    (Google n-gram corpora ship with count ≥ 40 for the same reason)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, _, doc_idx = _doc_token_stats(df["text"])
        if len(flat) < 2:
            return pd.DataFrame(
                {
                    "w1": pd.Series(dtype=str),
                    "w2": pd.Series(dtype=str),
                    "n": pd.Series(dtype="int64"),
                }
            )
        m = doc_idx[:-1] == doc_idx[1:]
        out = (
            pd.DataFrame({"w1": flat[:-1][m], "w2": flat[1:][m]})
            .groupby(["w1", "w2"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return out.astype({"n": "int64"})

    counts = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["w1", "w2"],
        {"n": ("n", "sum")},
    )
    return counts.filter(expr=f"n >= {int(min_count)}")


#: joins a bigram's two words into one flat key for np.unique grouping;
#: '\x1f' (ASCII unit separator) cannot appear in the space-split token
#: stream — and unlike '\x00' it survives numpy's fixed-width unicode
#: arrays, which treat NUL as a terminator and silently truncate it
_BG_SEP = "\x1f"


def _corpus_bigram_model(
    sf_dir: str, min_count: int
) -> tuple[dict, dict, int]:
    """Pass 1 of the bigram LM: ONE fused scan emits both unigram and
    adjacent-bigram partial counts (unigram rows carry the ``_BG_SEP``
    sentinel in w2, which no real token can contain), then ONE (w1, w2)
    grouped sum — the vocabulary and the n-gram table come out of a
    single exchange instead of two payload scans. Bigrams below
    ``min_count`` are dropped AFTER the global sum (they take the
    backoff path at scoring time — so the backoff branch is exercised,
    not dead code). Driver state is O(|vocab| + distinct bigrams), the
    bounded-model contract of ``_corpus_unigram_ic``; at open-web scale
    the same Misra-Gries cap + higher min_count apply (KenLM prunes its
    n-gram tables identically).

    Returns ({w: ctf}, {(w1, w2): n}, total_tokens)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, _, doc_idx = _doc_token_stats(df["text"])
        uniq, counts = np.unique(flat, return_counts=True)
        uni = pd.DataFrame(
            {"w1": uniq, "w2": _BG_SEP, "n": counts.astype(np.int64)}
        )
        if len(flat) < 2:
            return uni
        m = doc_idx[:-1] == doc_idx[1:]
        bi = (
            pd.DataFrame({"w1": flat[:-1][m], "w2": flat[1:][m]})
            .groupby(["w1", "w2"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
            .astype({"n": "int64"})
        )
        return pd.concat([uni, bi], ignore_index=True)

    counts = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["w1", "w2"],
        {"n": ("n", "sum")},
    ).to_pandas()  # O(|vocab| + distinct bigrams) — bounded driver state
    is_uni = counts["w2"] == _BG_SEP
    c1 = dict(
        zip(counts.loc[is_uni, "w1"], counts.loc[is_uni, "n"].astype(int))
    )
    bi = counts.loc[~is_uni]
    bi = bi.loc[bi["n"] >= min_count]
    c2 = {
        (w1, w2): int(n)
        for w1, w2, n in zip(bi["w1"], bi["w2"], bi["n"])
    }
    return c1, c2, int(sum(c1.values()))


def bigram_logprobs(sf_dir: str, min_count: int = 2) -> ray.data.Dataset:
    """Bigram-LM fluency scoring with stupid backoff — the order-2 step
    from ``unigram_logprobs`` toward CCNet's KenLM scorer (Wenzek et
    al. 2020; backoff per Brants et al. 2007 "Large Language Models in
    Machine Translation"). Each within-document adjacent pair (w1, w2)
    scores an integer conditional information content:

    - seen pair (count ≥ min_count):  ic = (1e6 · ctf(w1)) // c(w1, w2)
      — the micro-unit inverse of p(w2|w1);
    - unseen pair (pruned tail):      ic = 2 · ((1e6 · T) // ctf(w2))
      — stupid backoff to the unigram model with α = 1/2 (the ×2 is
      the integer mirror of the +log 2 penalty).

    Scale shape: pass 1 is the fused ONE-exchange count pass
    (``_corpus_bigram_model``); pass 2 broadcasts the model via ray.put
    and scores every document in one streaming scan — per batch, pairs
    collapse through np.unique on a sentinel-joined key so model
    lookups run once per DISTINCT pair in the batch, never per token.
    The text is read exactly twice and never shuffled.

    Output: (doc_id, lang, n_bigrams, ic2_sum, xent2_micro) — one row
    per document with ≥ 2 words (a 1-word doc has no bigram to score,
    exactly the rows the SQL mirror's pair-unnest drops)."""

    c1, c2, total = _corpus_bigram_model(sf_dir, min_count)
    ic2 = {
        w1 + _BG_SEP + w2: (PPM * c1[w1]) // n for (w1, w2), n in c2.items()
    }
    back = {w: 2 * ((PPM * total) // n) for w, n in c1.items()}
    model_ref = ray.put((ic2, back))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        ic2_b, back_b = cached_get("bigram_model", model_ref)
        flat, n_words, doc_idx = _doc_token_stats(df["text"])
        m = (
            doc_idx[:-1] == doc_idx[1:]
            if len(flat) >= 2
            else np.zeros(0, dtype=bool)
        )
        keys = np.char.add(
            np.char.add(flat[:-1][m].astype(str), _BG_SEP),
            flat[1:][m].astype(str),
        )
        d = doc_idx[:-1][m] if len(flat) >= 2 else np.zeros(0, np.int64)
        uniq, inv = np.unique(keys, return_inverse=True)
        uniq_ic = np.fromiter(
            (
                ic2_b.get(k) or back_b[k.rsplit(_BG_SEP, 1)[1]]
                for k in uniq
            ),
            np.int64,
            count=len(uniq),
        )
        ic_sum = np.zeros(len(df), np.int64)
        np.add.at(ic_sum, d, uniq_ic[inv])
        nb = np.zeros(len(df), np.int64)
        np.add.at(nb, d, 1)
        keep = nb > 0
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64)[keep],
                "lang": df["lang"].astype(str).to_numpy()[keep],
                "n_bigrams": nb[keep],
                "ic2_sum": ic_sum[keep],
                "xent2_micro": ic_sum[keep] // nb[keep],
            }
        )

    return read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    ).map_batches(score, batch_format="pandas")


def ngram_novelty(sf_dir: str) -> ray.data.Dataset:
    """Cross-document n-gram novelty: per document, the fraction of its
    DISTINCT adjacent bigrams that occur in no other document — the
    memorization/duplication-pressure signal dedup audits rank by (a
    doc whose bigrams all recur elsewhere is template/boilerplate mass;
    one that is all-novel is unique content). Complements
    ``repetition_scores`` (intra-doc) with the corpus-wide axis.
    Output: (doc_id, n_bigrams, n_novel, novelty_ppm) with
    novelty_ppm = (n_novel * 1e6) // n_bigrams (0 for bigram-less docs).

    Scale shape: ONE payload scan emits the distinct (doc, bigram-key)
    pair table — 63-bit md5 keys, 16 B/row, O(tokens) but text-free —
    materialized once and reused by both consumers: (1) the document
    frequency table via per-batch partial counts (a document is one row,
    so in-batch distinct pairs are globally distinct) + ONE k-grouped
    sum; (2) a left ``lookup_join`` of the pairs against the df≥2
    "common" keys, finished by per-batch partial per-doc counts + ONE
    doc-grouped sum. Bounded exchanges over token-scale integer rows,
    payload read once. At heavy-tail web scale the common-key side is
    the SMALL side (recurring bigrams ≪ singletons): it broadcasts while
    it passes ``agg.fits_broadcast`` and is joined above it, as the
    common mass grows with the corpus. Honest cap: 63-bit bigram keys
    birthday-collide around 3×10⁹ distinct bigrams; a collision
    conflates two bigrams' document frequencies (slightly deflating
    novelty) — the SQL oracle replays the same keys, so correctness
    checks remain bit-exact."""
    from zerox_ray.functions.hashing import md5_64_array
    from zerox_ray.pipelines.relational import lookup_join

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def pair_scan(df: pd.DataFrame) -> pd.DataFrame:
        flat, lens, doc_idx = _doc_token_stats(df["text"])
        ids = df["doc_id"].to_numpy(np.int64)
        frames = []
        if len(flat) >= 2:
            m = doc_idx[:-1] == doc_idx[1:]
            w1 = flat[:-1][m]
            w2 = flat[1:][m]
            k = (
                md5_64_array(
                    [(a + _BG_SEP + b).encode() for a, b in zip(w1, w2)]
                )
                >> np.uint64(1)
            ).astype(np.int64)
            frames.append(
                pd.DataFrame(
                    {"k": k, "doc_id": ids[doc_idx[:-1][m]]}
                ).drop_duplicates()
            )
        # bigram-less docs still get an output row: a k=-1 sentinel that
        # never enters the df table and counts as zero bigrams downstream
        zero = ids[lens < 2]
        if len(zero):
            frames.append(pd.DataFrame({"k": np.full(len(zero), -1), "doc_id": zero}))
        if not frames:
            return pd.DataFrame(
                {"k": pd.Series(dtype="int64"), "doc_id": pd.Series(dtype="int64")}
            )
        return pd.concat(frames, ignore_index=True).astype(
            {"k": "int64", "doc_id": "int64"}
        )

    pairs = ds.map_batches(pair_scan, batch_format="pandas").materialize()

    common = (
        bucketed_group_agg(
            pairs.map_batches(
                lambda df: df[df["k"] >= 0]
                .groupby("k", as_index=False)
                .size()
                .rename(columns={"size": "c"})
                .astype({"c": "int64"}),
                batch_format="pandas",
            ),
            ["k"],
            {"c": ("c", "sum")},
        )
        .filter(expr="c >= 2")
        .map_batches(
            lambda df: pd.DataFrame(
                {"k": df["k"].astype("int64"), "hit": np.ones(len(df), np.int64)}
            ),
            batch_format="pandas",
        )
    )

    tagged = lookup_join(pairs, common, on="k", how="left")

    def doc_partial(df: pd.DataFrame) -> pd.DataFrame:
        real = (df["k"] >= 0).to_numpy()
        hit = df["hit"].fillna(0).to_numpy(dtype="float64").astype(np.int64)
        out = (
            pd.DataFrame(
                {
                    "doc_id": df["doc_id"].astype("int64"),
                    "n_bigrams": real.astype(np.int64),
                    "n_common": hit * real,
                }
            )
            .groupby("doc_id", as_index=False)
            .sum()
        )
        return out.astype(
            {"doc_id": "int64", "n_bigrams": "int64", "n_common": "int64"}
        )

    sums = bucketed_group_agg(
        tagged.map_batches(doc_partial, batch_format="pandas"),
        ["doc_id"],
        {"n_bigrams": ("n_bigrams", "sum"), "n_common": ("n_common", "sum")},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        nb = df["n_bigrams"].to_numpy(np.int64)
        novel = nb - df["n_common"].to_numpy(np.int64)
        ppm = np.where(nb > 0, (novel * np.int64(PPM)) // np.maximum(nb, 1), 0)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_bigrams": nb,
                "n_novel": novel,
                "novelty_ppm": ppm.astype(np.int64),
            }
        )

    return sums.map_batches(finish, batch_format="pandas")


_TIER_RANGE = 4096  # docs per coarse prefix-sum range (see token_shards)
_TIER_CODE = {"head": 0, "middle": 1, "tail": 2}


def tier_shards(sf_dir: str, tokens_per_shard: int = 2_000) -> ray.data.Dataset:
    """Tier extraction — the quality-tiered training-shard layout: every
    document gets its CCNet tertile tier (head/middle/tail per language,
    the perplexity_buckets assignment), then each tier is independently
    packed into ~equal-token shards in doc_id order, so a training run
    can draw from tiers at its own mixing ratio (curriculum / annealing
    schedules read head-heavy, ablations read tails) without a second
    pass over the corpus.

    Scale shape: the textqual scoring passes (vocab exchange + ONE
    metric scan, slim table materialized) → tertile state broadcast →
    per-(tier, doc-range) distributed exclusive prefix sum — the
    token_shards two-pass with the range key extended by the tier code,
    so the driver scan stays ≤ 3 × n_docs/4096 rows and shard ids are
    LOCAL to each tier. Output: (doc_id, tier, n_tokens, shard_id)."""

    ic, _ = _corpus_unigram_ic(sf_dir)
    ic_ref = ray.put(ic)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        out = _score_batch(df, cached_get("unigram_ic", ic_ref))
        return out[["doc_id", "lang", "n_words", "xent_micro"]]

    scored = (
        read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
        .map_batches(score, batch_format="pandas")
        .materialize()  # slim — text is never re-read below
    )

    state_ref = _tertile_state(scored)

    def tier_of(df: pd.DataFrame) -> pd.DataFrame:
        pct = _pct_ppm(df, cached_get("tier_state", state_ref))
        tier = _tertile_bucket(pct)
        code = np.where(pct * 3 < PPM, 0, np.where(pct * 3 < 2 * PPM, 1, 2))
        doc_id = df["doc_id"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": doc_id,
                "tier": tier,
                "n_tokens": df["n_words"].to_numpy(np.int64),
                # range key extended with the tier code: one prefix-sum
                # domain per (tier, coarse doc range)
                "rng": (doc_id // _TIER_RANGE) * 3 + code,
            }
        )

    tiered = scored.map_batches(tier_of, batch_format="pandas").materialize()

    def range_partials(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("rng", as_index=False)["n_tokens"].sum()
        return out.astype({"rng": "int64", "n_tokens": "int64"})

    range_sums = (
        bucketed_group_agg(
            tiered.map_batches(range_partials, batch_format="pandas"),
            ["rng"],
            {"n_tokens": ("n_tokens", "sum")},
        )
        .to_pandas()  # ≤ 3 × n_docs/_TIER_RANGE rows — bounded driver state
    )
    # exclusive prefix offsets per TIER: scan ranges in (tier, doc-range)
    # order, i.e. sorted by (rng % 3, rng // 3)
    range_sums["tier_code"] = range_sums["rng"] % 3
    range_sums = range_sums.sort_values(["tier_code", "rng"])
    offsets = {}
    for _, grp in range_sums.groupby("tier_code", sort=True):
        tok = grp["n_tokens"].to_numpy(np.int64)
        excl = np.concatenate([[0], np.cumsum(tok)[:-1]])
        offsets.update(dict(zip(grp["rng"].to_numpy(), excl)))
    off_ref = ray.put(offsets)

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        # many rng keys per bucket (bucketed_group_map contract):
        # vectorized per-key exclusive cumsum + the key's global offset
        off = cached_get("tier_shard_off", off_ref)
        g = g.sort_values(["rng", "doc_id"], kind="mergesort")
        tok = g["n_tokens"].to_numpy(np.int64)
        excl = (
            g.groupby("rng", sort=False)["n_tokens"].cumsum().to_numpy(np.int64)
            - tok
            + g["rng"].map(off).to_numpy(np.int64)
        )
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "tier": g["tier"].astype(str),
                "n_tokens": tok,
                "shard_id": (excl // tokens_per_shard).astype(np.int64),
            }
        )

    return bucketed_group_map(tiered, "rng", assign)


VOCAB_GROWTH_CHECKPOINTS = 8


def vocab_growth(
    sf_dir: str, n_checkpoints: int = VOCAB_GROWTH_CHECKPOINTS
) -> ray.data.Dataset:
    """Heaps'-law vocabulary growth curve — distinct-token count and
    total-token count at ``n_checkpoints`` evenly spaced doc-id prefixes
    of the corpus (checkpoint m covers doc_id < ((m+1)·n_docs) //
    n_checkpoints). This is the tokenizer-sizing / corpus-saturation
    diagnostic: where the V(N) curve flattens tells you how much more
    crawl adds vocabulary versus repetition.

    Prefix-distinct counting is inherently sequential done naively; the
    distributed form is the min-first-occurrence trick: vocab_size at
    checkpoint m = #terms whose MIN doc_id falls under the boundary, so
    the whole curve needs only (1) the term → min(doc_id) table — ONE
    bounded vocabulary exchange, the `_corpus_unigram_ic` contract —
    and (2) two ≤ n_checkpoints-row histograms (per-batch partial
    counts per checkpoint slot → ONE grouped sum → a driver cumsum over
    ≤ n_checkpoints rows). The text is read once; nothing row-scale
    ever reaches the driver.

    Output: (checkpoint, n_docs, n_tokens, vocab_size), one row per
    checkpoint, cumulative."""
    n = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"]).count()
    bounds = np.array(
        [((m + 1) * n) // n_checkpoints for m in range(n_checkpoints)],
        dtype=np.int64,
    )
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, n_words, doc_idx = _doc_token_stats(df["text"])
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        # per-term min doc id within the batch
        term_first = (
            pd.DataFrame({"t": flat, "f": ids[doc_idx]})
            .groupby("t", as_index=False)
            .min()
        )
        # token mass per checkpoint slot (first slot whose bound covers
        # the doc; suffix-cumsum happens on the tiny final table)
        slot = np.searchsorted(bounds, ids, side="right")
        tok = np.zeros(len(bounds) + 1, np.int64)
        np.add.at(tok, slot, n_words)
        out_tok = pd.DataFrame(
            {
                "t": [f"\x00tok{m}" for m in range(len(bounds))],
                "f": -np.int64(1),
                "n_tok": tok[: len(bounds)],
                "slot": np.arange(len(bounds), dtype=np.int64),
            }
        )
        term_first["n_tok"] = np.int64(0)
        term_first["slot"] = -np.int64(1)
        return pd.concat([term_first, out_tok], ignore_index=True)

    agg = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["t"],
        {"f": ("f", "min"), "n_tok": ("n_tok", "sum"), "slot": ("slot", "max")},
    ).to_pandas()  # O(|vocab| + n_checkpoints) — bounded driver state

    tok_rows = agg[agg["slot"] >= 0].sort_values("slot")
    n_tokens = np.cumsum(tok_rows["n_tok"].to_numpy(np.int64))
    vocab_slot = np.searchsorted(bounds, agg.loc[agg["slot"] < 0, "f"], side="right")
    vc = np.zeros(len(bounds) + 1, np.int64)
    np.add.at(vc, vocab_slot, 1)
    vocab_size = np.cumsum(vc[: len(bounds)])
    import pyarrow as _pa

    return ray.data.from_arrow(
        _pa.table(
            {
                "checkpoint": _pa.array(range(len(bounds)), _pa.int64()),
                "n_docs": _pa.array(bounds, _pa.int64()),
                "n_tokens": _pa.array(n_tokens, _pa.int64()),
                "vocab_size": _pa.array(vocab_size, _pa.int64()),
            }
        )
    )


PMI_WINDOW = 3


def pmi_pairs(
    sf_dir: str, window: int = PMI_WINDOW, min_count: int = 2
) -> ray.data.Dataset:
    """Windowed token co-occurrence with pointwise-mutual-information
    scoring (Church & Hanks 1990; the word2vec/GloVe context-count
    table): unordered token pairs within a ``window``-token intra-doc
    span, counted corpus-wide, each scored with the exact integer PMI
    ratio  pmi_ratio_ppm = ⌊1e6 · p(a,b) / (p(a)·p(b))⌋
                        = (1e6 · c_ab · T²) // (P · c_a · c_b)
    where T is total tokens and P total window slots. Values > 1e6 mean
    positive association — the collocation / multi-word-expression
    signal a tokenizer-merges or phrase-mining pass ranks by.

    Scale shape: per-batch vectorized pair partials (one shifted-mask
    compare per offset — no Python loop over tokens) → ONE (w1, w2)
    grouped sum; P is a scalar aggregate of that same table BEFORE the
    min_count filter; the unigram model rides the bounded-vocab
    contract (`_corpus_unigram_ic`) and broadcasts. The PMI arithmetic
    runs per row of the MODEL table (O(distinct surviving pairs), not
    corpus-scale) in exact Python ints — the numerator c_ab·T² can
    exceed int64 at web scale, which DuckDB mirrors in HUGEINT.

    Output: (w1, w2, n, pmi_ratio_ppm) with w1 ≤ w2."""

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, _, doc_idx = _doc_token_stats(df["text"])
        frames = []
        for off in range(1, window + 1):
            if len(flat) <= off:
                break
            m = doc_idx[:-off] == doc_idx[off:]
            a = flat[:-off][m]
            b = flat[off:][m]
            swap = a > b  # canonical lexicographic order (np.minimum
            frames.append(  # has no unicode loop; np.where does)
                pd.DataFrame(
                    {"w1": np.where(swap, b, a), "w2": np.where(swap, a, b)}
                )
            )
        if not frames:
            return pd.DataFrame(
                {
                    "w1": pd.Series(dtype=str),
                    "w2": pd.Series(dtype=str),
                    "n": pd.Series(dtype="int64"),
                }
            )
        out = (
            pd.concat(frames, ignore_index=True)
            .groupby(["w1", "w2"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return out.astype({"n": "int64"})

    counts = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["w1", "w2"],
        {"n": ("n", "sum")},
    ).materialize()  # model table: O(distinct window pairs), reused twice
    p_total = int(counts.sum("n") or 0)
    c1, t_total = _raw_unigram_counts(sf_dir)
    model_ref = ray.put((c1, t_total, p_total))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        c1_b, t_b, p_b = cached_get("pmi_model", model_ref)
        df = df[df["n"] >= min_count]
        # exact big-int PMI per MODEL row (bounded table, not corpus
        # scale): c_ab·T² overflows int64 at web scale, so Python ints
        ratios = [
            (PPM * int(n) * t_b * t_b) // (p_b * c1_b[a] * c1_b[b])
            for a, b, n in zip(df["w1"], df["w2"], df["n"])
        ]
        return pd.DataFrame(
            {
                "w1": df["w1"].astype(object),
                "w2": df["w2"].astype(object),
                "n": df["n"].astype("int64"),
                "pmi_ratio_ppm": pd.Series(ratios, dtype="int64", index=df.index),
            }
        )

    return counts.map_batches(score, batch_format="pandas")


def _raw_unigram_counts(sf_dir: str) -> tuple[dict, int]:
    """{term: corpus count} + total tokens — the raw-count twin of
    ``_corpus_unigram_ic`` (same ONE bounded vocabulary exchange)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["text"])

    def vocab_partial(df: pd.DataFrame) -> pd.DataFrame:
        flat, _, _ = _doc_token_stats(df["text"])
        uniq, cnt = np.unique(flat, return_counts=True)
        return pd.DataFrame({"term": uniq, "n": cnt.astype(np.int64)})

    vocab = bucketed_group_agg(
        ds.map_batches(vocab_partial, batch_format="pandas"),
        ["term"],
        {"n": ("n", "sum")},
    ).to_pandas()  # O(|vocab|) — bounded driver state
    counts = {t: int(n) for t, n in zip(vocab["term"], vocab["n"])}
    return counts, int(vocab["n"].sum())


# --- C4 line/document filtering (Raffel et al. 2020 §2.2) ---------------------

#: C4's own line rule: a line must have ≥ 5 words to survive
C4_MIN_LINE_WORDS = 5
#: C4's own doc rule: a document must retain ≥ 3 surviving lines
C4_MIN_KEPT_LINES = 3
#: C4 drops lines containing blocklisted tokens ("javascript", policy
#: boilerplate, "lorem ipsum"); the synthetic corpus' analogue with real
#: fail mass is 'slow' (~1 occurrence per document on average).
#: Substring semantics (like C4's phrase match), mirrored as SQL LIKE.
C4_BANNED = ("slow",)


def c4_rules(
    pages,
    min_line_words: int = C4_MIN_LINE_WORDS,
    min_kept_lines: int = C4_MIN_KEPT_LINES,
    banned: tuple[str, ...] = C4_BANNED,
) -> ray.data.Dataset:
    """C4-style line + document filtering (Raffel et al. 2020 §2.2) over
    the EXTRACTED corpus — the third classic curation family next to
    ``gopher_rules`` (Rae 2021) and the CCNet ops (Wenzek 2020).

    C4 filters sentences ("lines") of plain text; the page-parity
    analogue here treats each extracted PAGE as a line, which keeps the
    rules exactly the paper's: a line survives iff it has ≥ 5 words and
    no blocklisted phrase; a document is kept iff ≥ 3 lines survive.
    Output per url: (url, n_lines, kept_lines, kept_words, keep,
    c4_text) where c4_text is the surviving lines re-joined in page
    order — ERROR-status pages never count as lines, so fully-corrupt
    documents drop out entirely.

    Scale shape: the line gate is one vectorized Arrow pass over the
    already-streaming extracted-pages pipeline (regex word count +
    substring match — no Python loop); the per-document rollup is ONE
    coarse-bucketed url exchange carrying each surviving line's text
    exactly once (the reassembly shuffle shape). Nothing touches the
    driver. Reference anchor: zerox has no corpus filtering at all
    (SURVEY §2.8); this is engine-native curation like gopher_rules."""
    import pyarrow.compute as pc

    from zerox_ray.functions.text import TOKEN_RE
    from zerox_ray.pipelines.ocr import extracted_pages

    rows = extracted_pages(pages)

    def gate(t: pa.Table) -> pa.Table:
        ok = pc.equal(t["status"], "SUCCESS")
        t = t.filter(ok)
        words = pc.cast(
            pc.count_substring_regex(t["content"], TOKEN_RE.pattern),
            pa.int64(),
        )
        kept = pc.greater_equal(words, min_line_words)
        for b in banned:
            kept = pc.and_(
                kept, pc.invert(pc.match_substring(t["content"], b))
            )
        return pa.table(
            {
                "url": t["url"],
                "page_index": t["page_index"],
                "content": t["content"],
                "w": words,
                "kept": pc.cast(kept, pa.int64()),
            }
        )

    lines = rows.map_batches(gate, batch_format="pyarrow")

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for url, grp in g.groupby("url", sort=False):
            grp = grp.sort_values("page_index", kind="mergesort")
            k = grp["kept"].to_numpy()
            kept_lines = int(k.sum())
            kept_words = int(grp.loc[k == 1, "w"].sum())
            out.append(
                (
                    url,
                    len(grp),
                    kept_lines,
                    kept_words,
                    1 if kept_lines >= min_kept_lines else 0,
                    "\n\n".join(grp.loc[k == 1, "content"]),
                )
            )
        return pd.DataFrame(
            out,
            columns=["url", "n_lines", "kept_lines", "kept_words", "keep", "c4_text"],
        ).astype(
            {
                "url": "string",
                "n_lines": "int64",
                "kept_lines": "int64",
                "kept_words": "int64",
                "keep": "int64",
                "c4_text": "string",
            }
        )

    return bucketed_group_map(lines, "url", per_doc)


# --- Naive-Bayes classifier training (the missing half of classifier_scores) ---

NB_BUCKETS = 4096
NB_KEEP_PPM = 500_000


def classifier_train(sf_dir: str, n_buckets: int = NB_BUCKETS) -> ray.data.Dataset:
    """TRAIN a hashed Naive-Bayes-style quality classifier on the corpus
    itself — the training half that ``classifier_scores`` (fixed
    md5-weight inference) deliberately stubbed: positive class = English
    documents (the CCNet recipe trains its LM on a trusted corpus and
    scores everything else; here the trusted slice is lang='en'),
    features = md5-hashed token buckets (the hashing trick, Weinberger
    et al. 2009), model = per-bucket Laplace-smoothed positive rate
    pos_rate_ppm = (n_pos+1)·1e6 // (n_pos+n_neg+2).

    Scale shape: per-batch flat-token bucket counting (np.unique over
    the batch vocabulary — md5 once per DISTINCT term) → ONE grouped
    sum on the bucket key; the model is ≤ n_buckets rows no matter the
    corpus size. Output: (bucket, n_pos, n_neg, pos_rate_ppm)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        flat, _, doc_idx = _doc_token_stats(df["text"])
        pos_doc = (df["lang"] == "en").to_numpy()
        uniq, term_id = np.unique(flat, return_inverse=True)
        bucket = (
            md5_64_array([t.encode() for t in uniq]) % np.uint64(n_buckets)
        ).astype(np.int64)[term_id]
        is_pos = pos_doc[doc_idx]
        out = pd.DataFrame({"bucket": bucket, "p": is_pos.astype(np.int64)})
        g = out.groupby("bucket", as_index=False).agg(
            n_pos=("p", "sum"), n_tot=("p", "size")
        )
        g["n_neg"] = g["n_tot"] - g["n_pos"]
        return g[["bucket", "n_pos", "n_neg"]].astype("int64")

    agg = bucketed_group_agg(
        ds.map_batches(counts, batch_format="pandas"),
        ["bucket"],
        {"n_pos": ("n_pos", "sum"), "n_neg": ("n_neg", "sum")},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df[["bucket", "n_pos", "n_neg"]].astype("int64")
        df["pos_rate_ppm"] = ((df["n_pos"] + 1) * 1_000_000) // (
            df["n_pos"] + df["n_neg"] + 2
        )
        return df

    return agg.map_batches(finish, batch_format="pandas")


def classifier_trained_scores(
    sf_dir: str, n_buckets: int = NB_BUCKETS, keep_ppm: int = NB_KEEP_PPM
) -> ray.data.Dataset:
    """Score every document with the ``classifier_train`` model — the
    full train→infer composition (FineWeb-Edu's shape: train a cheap
    classifier, gate the corpus on its score). Doc score = mean
    pos_rate_ppm over token occurrences; keep at ≥ keep_ppm.

    Scale shape: the trained model is ≤ n_buckets rows → ONE bounded
    driver pull + ray.put broadcast (the size-gated small-side idiom);
    scoring is a shuffle-free streaming pass with a dense int64
    lookup table. Output: (doc_id, n_tok, score_ppm, keep)."""
    import ray

    model = classifier_train(sf_dir, n_buckets).to_pandas()  # ≤ n_buckets rows
    dense = np.zeros(n_buckets, np.int64)
    dense[model["bucket"].to_numpy(np.int64)] = model["pos_rate_ppm"].to_numpy(
        np.int64
    )
    ref = ray.put(dense)

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def score(df: pd.DataFrame) -> pd.DataFrame:
        w = cached_get("nbmodel", ref)
        flat, n_tok, doc_idx = _doc_token_stats(df["text"])
        uniq, term_id = np.unique(flat, return_inverse=True)
        bucket = (
            md5_64_array([t.encode() for t in uniq]) % np.uint64(n_buckets)
        ).astype(np.int64)
        s = np.zeros(len(df), np.int64)
        np.add.at(s, doc_idx, w[bucket[term_id]])
        score_ppm = s // np.maximum(n_tok, 1)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "n_tok": n_tok,
                "score_ppm": score_ppm,
                "keep": (score_ppm >= keep_ppm).astype(np.int64),
            }
        )

    return ds.map_batches(score, batch_format="pandas")


# --- BPE merge training (Sennrich et al. 2016) ---------------------------------

BPE_ROUNDS = 3


def bpe_merges(sf_dir: str, rounds: int = BPE_ROUNDS) -> ray.data.Dataset:
    """Learn the first ``rounds`` byte-pair-encoding merges over the
    corpus (Sennrich et al. 2016) — actual subword-tokenizer TRAINING,
    the step upstream of ``token_counts_bpe``'s pretokenizer. Classic
    intra-word BPE: symbols start as characters, each round merges the
    most frequent adjacent symbol pair corpus-wide (count ties broken
    by the lexicographically smallest expanded pair, so the merge
    table is fully deterministic). Output: (round, left_sym,
    right_sym, pair_count) with symbols in expanded string form.

    Scale shape — exactly how production BPE trainers distribute
    (HuggingFace tokenizers): the corpus-wide WORD COUNT is the only
    distributed pass (ONE bounded vocabulary exchange, the
    unigram_logprobs posture — natural-language vocabulary is
    heavy-tailed, so the vocab table is millions of rows at 100 TB,
    not corpus-sized; cap to top-K by count if it ever isn't), then
    the merge loop runs over the weighted vocab driver-side: pair
    counting over DISTINCT words × their counts, cost O(|vocab| ·
    word_len) per round, independent of corpus size. Merged symbols
    are placeholder control chars so merge application is a plain
    non-overlapping left-to-right ``str.replace`` — the exact
    semantics DuckDB's ``replace`` has, which is what lets the oracle
    replay every round bit-for-bit."""
    rows, _ = _bpe_state(sf_dir, rounds)
    return ray.data.from_arrow(
        pa.table(
            {
                "round": pa.array([r[0] for r in rows], pa.int64()),
                "left_sym": pa.array([r[1] for r in rows], pa.string()),
                "right_sym": pa.array([r[2] for r in rows], pa.string()),
                "pair_count": pa.array([r[3] for r in rows], pa.int64()),
            }
        )
    )


def _bpe_state(
    sf_dir: str, rounds: int
) -> tuple[list[tuple[int, str, str, int]], list[tuple[str, str]]]:
    """The BPE merge loop over the distributed word count: returns
    (merge-table rows with expanded symbols, [(pattern, placeholder)]
    replace sequence in placeholder space) — shared by ``bpe_merges``
    (the model table) and ``bpe_encode`` (applying it)."""
    counts, _ = _raw_unigram_counts(sf_dir)
    expand: dict[str, str] = {}

    def ex(sym: str) -> str:
        return "".join(expand.get(ch, ch) for ch in sym)

    vocab: dict[str, int] = dict(counts)
    rows: list[tuple[int, str, str, int]] = []
    pats: list[tuple[str, str]] = []
    for r in range(rounds):
        pair_counts: dict[tuple[str, str], int] = {}
        for w, c in vocab.items():
            for a, b in zip(w, w[1:]):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + c
        if not pair_counts:
            break
        (la, rb), n = min(
            pair_counts.items(), key=lambda kv: (-kv[1], ex(kv[0][0]), ex(kv[0][1]))
        )
        rows.append((r + 1, ex(la), ex(rb), n))
        ph = chr(1 + r)
        expand[ph] = ex(la) + ex(rb)
        pats.append((la + rb, ph))
        merged: dict[str, int] = {}
        for w, c in vocab.items():
            nw = w.replace(la + rb, ph)
            merged[nw] = merged.get(nw, 0) + c
        vocab = merged
    return rows, pats


def bpe_encode(sf_dir: str, rounds: int = BPE_ROUNDS) -> ray.data.Dataset:
    """Apply the learned BPE merges to the corpus — the tokenizer
    train→apply composition: per document, the subword count after
    ``rounds`` merges (the number a sequence-packing or cost model
    would consume). Output: (doc_id, n_words, n_subwords).

    Scale shape: training is ``_bpe_state``'s one bounded vocabulary
    exchange + driver merge loop; application broadcasts the ≤rounds
    replace patterns and streams — per batch one vectorized pandas-str
    replace chain over the flat word view, no exchange at all."""
    import ray

    _, pats = _bpe_state(sf_dir, rounds)
    ref = ray.put(pats)
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        patterns = cached_get("bpe_pats", ref)
        flat, n_words, doc_idx = _doc_token_stats(df["text"])
        s = pd.Series(flat, dtype="string")
        for pat, ph in patterns:
            s = s.str.replace(pat, ph, regex=False)
        lens = s.str.len().to_numpy(np.int64)
        n_sub = np.zeros(len(df), np.int64)
        np.add.at(n_sub, doc_idx, lens)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "n_words": n_words,
                "n_subwords": n_sub,
            }
        )

    return ds.map_batches(encode, batch_format="pandas")


# --- corpus drift (distribution distance between corpus slices) ----------------


def corpus_drift(sf_dir: str) -> pd.DataFrame:
    """Distribution-drift monitor: total-variation distance between the
    unigram distributions of two corpus slices (here the deterministic
    halves doc_id % 2 — in production, yesterday's crawl vs today's).
    TV = ½ Σ_w |p_A(w) − p_B(w)|, computed EXACTLY in integers as
    Σ|c_A·N_B − c_B·N_A| · 1e6 // (2·N_A·N_B) ppm — the one-number
    answer to "did the corpus change under me?" that gates retraining
    of every distribution-fitted artifact (LM filters, classifiers,
    importance weights).

    Scale shape: ONE token exchange — per-batch (term-hash, side) count
    partials → one grouped sum (O(vocab) rows) → per-batch scalar
    partials of the TV numerator (int64 per batch; the grand total is
    summed in PYTHON ints on the driver, so a 10^12-token corpus cannot
    overflow the final add — the oracle's HUGEINT sum mirrors it).
    Output: one row (n_terms, n_tokens_a, n_tokens_b, tv_ppm)."""
    from zerox_ray.sources.tables import read_table as _rt

    ds = _rt(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sides = df["doc_id"].astype("int64") % 2
        frames = []
        for side in (0, 1):
            toks = [
                t
                for text in df.loc[sides == side, "text"]
                for t in text.split(" ")
            ]
            if not toks:
                continue
            hs = (md5_64_array([t.encode() for t in toks]) >> np.uint64(1)).astype(
                np.int64
            )
            vc = pd.Series(hs).value_counts()
            zeros = np.zeros(len(vc), np.int64)
            frames.append(
                pd.DataFrame(
                    {
                        "h": vc.index.to_numpy(np.int64),
                        "ca": vc.to_numpy(np.int64) if side == 0 else zeros,
                        "cb": zeros if side == 0 else vc.to_numpy(np.int64),
                    }
                )
            )
        if not frames:
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64") for c in ("h", "ca", "cb")}
            )
        return pd.concat(frames, ignore_index=True)

    counts = bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["h"],
        {"ca": ("ca", "sum"), "cb": ("cb", "sum")},
    ).materialize()  # O(vocab) narrow rows — reused by two reductions

    tot = counts.map_batches(
        lambda df: pd.DataFrame(
            {
                "na": [int(df["ca"].sum())],
                "nb": [int(df["cb"].sum())],
                "nt": [len(df)],
            }
        ),
        batch_format="pandas",
    ).to_pandas()
    na, nb, n_terms = (
        int(tot["na"].sum()),
        int(tot["nb"].sum()),
        int(tot["nt"].sum()),
    )

    num = counts.map_batches(
        lambda df: pd.DataFrame(
            {
                "num": [
                    int(
                        np.abs(
                            df["ca"].to_numpy(np.int64) * nb
                            - df["cb"].to_numpy(np.int64) * na
                        ).sum()
                    )
                ]
            }
        ),
        batch_format="pandas",
    ).to_pandas()
    numerator = sum(int(x) for x in num["num"])  # python ints — no overflow

    tv_ppm = numerator * 1_000_000 // (2 * na * nb) if na and nb else 0
    return pd.DataFrame(
        {
            "n_terms": pd.Series([n_terms], dtype="int64"),
            "n_tokens_a": pd.Series([na], dtype="int64"),
            "n_tokens_b": pd.Series([nb], dtype="int64"),
            "tv_ppm": pd.Series([tv_ppm], dtype="int64"),
        }
    )
