"""Near-duplicate detection suites: MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine — the scale-out dedup operators a training-data pipeline
needs (none exist in the reference; SURVEY §2.8).

Scale design (the part that matters at 10^12 docs):
- signatures are computed per batch, vectorized (numpy minhash over
  md5-derived 64-bit shingle hashes — md5 so the driver's DuckDB oracle
  can recompute every signature exactly, see functions/hashing.py);
- LSH banding explodes each doc into (band_id, band_key) rows, and the
  ONLY shuffle is the groupby on those keys — candidate generation never
  compares all pairs;
- candidate pairs are verified with exact similarity. At sandbox scale
  the verify stage broadcasts the needed columns via ``ray.put`` (small
  side); at 10^12-doc scale you'd replace the broadcast with a
  hash-partitioned re-join of (doc_id → tokens) on the candidate ids —
  the stage boundary is the same, only the lookup impl changes.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from zerox_ray.sources.tables import read_table
from zerox_ray.pipelines.agg import (
    bucketed_group_agg,
    bucketed_group_map,
    fits_broadcast,
    shuffle_width,
    worker_cached,
)

from zerox_ray.functions.hashing import (
    band_keys,
    jaccard,
    md5_64,
    md5_64_array,
    minhash_params,
    minhash_signature,
    rolling_fingerprint,
    simhash64,
    token_shingles,
)
from zerox_ray.functions.text import TOKEN_RE

PPM = 1_000_000


# --- MinHash + LSH -----------------------------------------------------------


#: coarse shuffle buckets: map_groups is called once per GROUP, so
#: grouping directly on (band_id, band_key) means one Python call per
#: tiny LSH bucket (~0.5 ms each — measured 41 CPU-s at sf0.1). Grouping
#: on a coarse hash of the key instead gives ~N_COARSE calls, each
#: handling thousands of buckets with vectorized pandas ops.
N_COARSE = 256
MAX_BUCKET_DOCS = 512

# minlabel_components: above this many label rows the per-round convergence
# sum runs as a distributed aggregate instead of a driver-side block stream.
DRIVER_SUM_MAX_NODES = 1_000_000


class MinHashBander:
    """map_batches: documents → (band_id, band_key, bucket, doc_id) LSH
    rows. Permutation params are built once per actor/worker (seeded).

    Arrow-native: the batch arrives zero-copy from the object store and
    the output is assembled with numpy (every doc emits exactly n_bands
    rows, so repeat/tile build the fan-out without per-row appends); the
    remaining per-doc Python (regex, md5 shingle hashing) is the part the
    SQL-parity hash demands."""

    def __init__(self, k: int = 64, n_bands: int = 16, shingle_n: int = 3):
        self.a, self.b = minhash_params(k)
        self.n_bands = n_bands
        self.shingle_n = shingle_n

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_vals = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n_docs = len(doc_vals)
        nb = self.n_bands
        keys = np.empty(n_docs * nb, dtype=np.int64)
        texts = batch["text"].to_pylist()
        for i, text in enumerate(texts):
            toks = TOKEN_RE.findall(text)
            sig = minhash_signature(
                md5_64_array(token_shingles(toks, self.shingle_n)), self.a, self.b
            )
            keys[i * nb : (i + 1) * nb] = band_keys(sig, nb)
        doc_ids = np.repeat(doc_vals, nb)
        band_ids = np.tile(np.arange(nb, dtype=np.int64), n_docs)
        bucket = (keys * 1_000_003 + band_ids) % N_COARSE
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "band_id": pa.array(band_ids, pa.int64()),
                "band_key": pa.array(keys, pa.int64()),
                "bucket": pa.array(bucket, pa.int64()),
            }
        )


def _coarse_bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
    """One COARSE bucket (many LSH buckets) → candidate pairs (a < b),
    vectorized: self-merge on the bucket key, upper-triangle filter.
    Degenerate buckets (hash collapse) are truncated with a sentinel row
    (doc_a = doc_b = -1) so the cap is visible, never silent."""
    keys = ["band_id", "band_key"]
    sizes = g.groupby(keys)["doc_id"].transform("size")
    out_parts = []
    big = sizes > MAX_BUCKET_DOCS
    if big.any():
        gb = g[big].sort_values(keys + ["doc_id"], kind="mergesort")
        n_big = gb.groupby(keys).ngroups
        out_parts.append(
            pd.DataFrame({"doc_a": [-1] * n_big, "doc_b": [-1] * n_big})
        )
        g = pd.concat([g[~big], gb.groupby(keys).head(MAX_BUCKET_DOCS)])
    m = g.merge(g, on=keys)
    m = m[m["doc_id_x"] < m["doc_id_y"]]
    pairs = m.rename(columns={"doc_id_x": "doc_a", "doc_id_y": "doc_b"})[
        ["doc_a", "doc_b"]
    ].drop_duplicates()
    out_parts.append(pairs)
    out = pd.concat(out_parts, ignore_index=True)
    return out.astype({"doc_a": "int64", "doc_b": "int64"})


def _pair_bucket(df: pd.DataFrame) -> pd.DataFrame:
    out = df.copy()
    out["pb"] = ((out["doc_a"] * 1_000_003 + out["doc_b"]) % N_COARSE).astype("int64")
    return out


def _dedupe_pairs(g: pd.DataFrame) -> pd.DataFrame:
    return g.drop_duplicates(["doc_a", "doc_b"])[["doc_a", "doc_b"]]


class JaccardVerifier:
    """Verify candidate pairs with EXACT shingle Jaccard.

    Broadcast lookup: the docs table ref is ``ray.put`` once on the
    driver; each worker ``ray.get``s the Arrow table once, then builds a
    Python-side id→text dict from it (a materialized copy — the reason
    this state is FIFO-capped in ``agg.worker_cached`` and why the
    partitioned re-join is the scale path, see _verify_pairs_by_join)."""

    def __init__(self, docs_ref, shingle_n: int, threshold_ppm: int):
        table = ray.get(docs_ref)
        self.texts = dict(zip(table["doc_id"].to_pylist(), table["text"].to_pylist()))
        self.shingle_n = shingle_n
        self.threshold_ppm = threshold_ppm
        self._cache: dict[int, set] = {}

    def _shingles(self, doc_id: int) -> set:
        if doc_id not in self._cache:
            toks = TOKEN_RE.findall(self.texts[doc_id])
            self._cache[doc_id] = set(token_shingles(toks, self.shingle_n))
        return self._cache[doc_id]

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        rows = {"doc_a": [], "doc_b": [], "jaccard_ppm": []}
        for a, b in zip(df["doc_a"], df["doc_b"]):
            if a < 0:  # degenerate-bucket sentinel — not a real pair
                continue
            j = int(jaccard(self._shingles(int(a)), self._shingles(int(b))) * PPM)
            if j >= self.threshold_ppm:
                rows["doc_a"].append(int(a))
                rows["doc_b"].append(int(b))
                rows["jaccard_ppm"].append(j)
        return pd.DataFrame(
            {k: pd.Series(v, dtype="int64") for k, v in rows.items()}
        )


def _jaccard_verify_batch(
    df: pd.DataFrame, docs_ref, shingle_n: int, threshold_ppm: int
) -> pd.DataFrame:
    key = ("jac", docs_ref.hex(), shingle_n, threshold_ppm)
    return worker_cached(
        key, lambda: JaccardVerifier(docs_ref, shingle_n, threshold_ppm)
    )(df)


def _cosine_verify_batch(df: pd.DataFrame, emb_ref, threshold_ppm: int) -> pd.DataFrame:
    key = ("cos", emb_ref.hex(), threshold_ppm)
    return worker_cached(key, lambda: CosineVerifier(emb_ref, threshold_ppm))(df)


def _verify_pairs_by_join(
    uniq: ray.data.Dataset, sf_dir: str, shingle_n: int, threshold_ppm: int
) -> ray.data.Dataset:
    """The 10^12-doc verify path: re-join candidate pairs to the docs
    table on each side (partitioned hash joins — no broadcast of the
    corpus), then exact Jaccard per joined row. Candidate pairs are the
    small side of both joins, so the shuffle volume is O(pairs)."""
    from zerox_ray.pipelines.relational import hash_join

    docs = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    side_a = docs.map_batches(
        lambda df: df.rename(columns={"doc_id": "doc_a", "text": "text_a"}),
        batch_format="pandas",
    )
    side_b = docs.map_batches(
        lambda df: df.rename(columns={"doc_id": "doc_b", "text": "text_b"}),
        batch_format="pandas",
    )
    sane = uniq.map_batches(
        lambda df: df[df["doc_a"] >= 0], batch_format="pandas"
    )
    joined = hash_join(hash_join(sane, side_a, on="doc_a"), side_b, on="doc_b")

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"doc_a": [], "doc_b": [], "jaccard_ppm": []}
        for a, b, ta, tb in zip(df["doc_a"], df["doc_b"], df["text_a"], df["text_b"]):
            sa = set(token_shingles(TOKEN_RE.findall(ta), shingle_n))
            sb = set(token_shingles(TOKEN_RE.findall(tb), shingle_n))
            j = int(jaccard(sa, sb) * PPM)
            if j >= threshold_ppm:
                rows["doc_a"].append(int(a))
                rows["doc_b"].append(int(b))
                rows["jaccard_ppm"].append(j)
        return pd.DataFrame({k: pd.Series(v, dtype="int64") for k, v in rows.items()})

    return joined.map_batches(verify, batch_format="pandas")


def minhash_lsh_pairs(
    sf_dir: str,
    k: int = 64,
    n_bands: int = 16,
    shingle_n: int = 3,
    threshold_ppm: int = 500_000,
) -> ray.data.Dataset:
    """Full MinHash-LSH near-dup pipeline:
    shingle → minhash → band rows → groupby(band) → candidate pairs →
    dedupe pairs → exact-Jaccard verify → (doc_a, doc_b, jaccard_ppm).

    Verify path by corpus size (``agg.fits_broadcast`` of the parquet
    footprint): a corpus that fits the object store of every node is
    ``ray.put`` once as (doc_id, text) and looked up per worker; a
    larger one is re-joined to the pairs with partitioned hash joins —
    the 10^12-doc path, shuffling O(pairs). Broadcasting the BIG side is
    the one thing this pipeline must never do at scale."""
    path = f"{sf_dir}/documents.parquet"
    ds = read_table(path, columns=["doc_id", "text"])
    bands = ds.map_batches(
        MinHashBander(k, n_bands, shingle_n), batch_format="pyarrow"
    )
    cands = bands.groupby("bucket").map_groups(
        _coarse_bucket_pairs, batch_format="pandas"
    )
    # a pair surfaces once per colliding band — dedupe before the
    # (expensive) verify stage; coarse pair-hash buckets again keep the
    # per-group call count at N_COARSE, not per-pair
    uniq = (
        cands.map_batches(_pair_bucket, batch_format="pandas")
        .groupby("pb")
        .map_groups(_dedupe_pairs, batch_format="pandas")
    )
    if not fits_broadcast(os.path.getsize(path)):
        return _verify_pairs_by_join(uniq, sf_dir, shingle_n, threshold_ppm)
    docs_ref = ray.put(pq.read_table(path, columns=["doc_id", "text"]))
    # task mode + per-worker cache instead of an actor pool: the state is
    # one zero-copy ray.get of the broadcast table — cheap to build once
    # per worker, and task mode skips per-query actor-pool startup
    return uniq.map_batches(
        _jaccard_verify_batch,
        fn_kwargs={
            "docs_ref": docs_ref,
            "shingle_n": shingle_n,
            "threshold_ppm": threshold_ppm,
        },
        batch_format="pandas",
    )


def _containment_ppm(inter: int, n: int) -> int:
    """Exact-integer containment: (1e6·|A∩B|) // |A|; the empty set is
    contained in anything (ppm = 1e6) — mirrored verbatim in SQL."""
    return 1_000_000 if n == 0 else (1_000_000 * inter) // n


def _containment_row(sa: set, sb: set) -> tuple[int, int, int]:
    inter = len(sa & sb)
    uni = len(sa) + len(sb) - inter
    return (
        _containment_ppm(inter, len(sa)),
        _containment_ppm(inter, len(sb)),
        1_000_000 if uni == 0 else (1_000_000 * inter) // uni,
    )


class ContainmentVerifier:
    """Verify LSH candidate pairs with EXACT asymmetric shingle
    containment (same broadcast-lookup posture as JaccardVerifier)."""

    def __init__(self, docs_ref, shingle_n: int, threshold_ppm: int):
        table = ray.get(docs_ref)
        self.texts = dict(zip(table["doc_id"].to_pylist(), table["text"].to_pylist()))
        self.shingle_n = shingle_n
        self.threshold_ppm = threshold_ppm
        self._cache: dict[int, set] = {}

    def _shingles(self, doc_id: int) -> set:
        if doc_id not in self._cache:
            toks = TOKEN_RE.findall(self.texts[doc_id])
            self._cache[doc_id] = set(token_shingles(toks, self.shingle_n))
        return self._cache[doc_id]

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        rows = {"doc_a": [], "doc_b": [], "c_ab_ppm": [], "c_ba_ppm": [], "jaccard_ppm": []}
        for a, b in zip(df["doc_a"], df["doc_b"]):
            if a < 0:  # degenerate-bucket sentinel — not a real pair
                continue
            cab, cba, jac = _containment_row(
                self._shingles(int(a)), self._shingles(int(b))
            )
            if max(cab, cba) >= self.threshold_ppm:
                rows["doc_a"].append(int(a))
                rows["doc_b"].append(int(b))
                rows["c_ab_ppm"].append(cab)
                rows["c_ba_ppm"].append(cba)
                rows["jaccard_ppm"].append(jac)
        return pd.DataFrame({k: pd.Series(v, dtype="int64") for k, v in rows.items()})


def _containment_verify_batch(
    df: pd.DataFrame, docs_ref, shingle_n: int, threshold_ppm: int
) -> pd.DataFrame:
    key = ("cont", docs_ref.hex(), shingle_n, threshold_ppm)
    return worker_cached(
        key, lambda: ContainmentVerifier(docs_ref, shingle_n, threshold_ppm)
    )(df)


def _verify_containment_by_join(
    uniq: ray.data.Dataset, sf_dir: str, shingle_n: int, threshold_ppm: int
) -> ray.data.Dataset:
    """Partitioned-join containment verify (the 10^12-doc path — same
    shape as _verify_pairs_by_join, shuffle volume O(pairs))."""
    from zerox_ray.pipelines.relational import hash_join

    docs = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    side_a = docs.map_batches(
        lambda df: df.rename(columns={"doc_id": "doc_a", "text": "text_a"}),
        batch_format="pandas",
    )
    side_b = docs.map_batches(
        lambda df: df.rename(columns={"doc_id": "doc_b", "text": "text_b"}),
        batch_format="pandas",
    )
    sane = uniq.map_batches(lambda df: df[df["doc_a"] >= 0], batch_format="pandas")
    joined = hash_join(hash_join(sane, side_a, on="doc_a"), side_b, on="doc_b")

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"doc_a": [], "doc_b": [], "c_ab_ppm": [], "c_ba_ppm": [], "jaccard_ppm": []}
        for a, b, ta, tb in zip(df["doc_a"], df["doc_b"], df["text_a"], df["text_b"]):
            sa = set(token_shingles(TOKEN_RE.findall(ta), shingle_n))
            sb = set(token_shingles(TOKEN_RE.findall(tb), shingle_n))
            cab, cba, jac = _containment_row(sa, sb)
            if max(cab, cba) >= threshold_ppm:
                rows["doc_a"].append(int(a))
                rows["doc_b"].append(int(b))
                rows["c_ab_ppm"].append(cab)
                rows["c_ba_ppm"].append(cba)
                rows["jaccard_ppm"].append(jac)
        return pd.DataFrame({k: pd.Series(v, dtype="int64") for k, v in rows.items()})

    return joined.map_batches(verify, batch_format="pandas")


def containment_pairs(
    sf_dir: str,
    k: int = 64,
    n_bands: int = 16,
    shingle_n: int = 3,
    threshold_ppm: int = 900_000,
) -> ray.data.Dataset:
    """Asymmetric near-dup detection: shingle CONTAINMENT re-scoring of
    the MinHash-LSH candidate pairs — C(A,B) = |S(A)∩S(B)| / |S(A)|
    (Broder 1997's second resemblance measure). Jaccard misses the
    quote-inclusion / superset case (a short doc fully embedded in a
    long one scores low Jaccard but containment 1.0); training-data
    dedup cares because the contained copy still leaks the contained
    text twice. Output: (doc_a, doc_b, c_ab_ppm, c_ba_ppm, jaccard_ppm)
    for pairs with max(C(A,B), C(B,A)) ≥ threshold.

    Exact integer arithmetic ((1e6·inter) // n, empty set ppm = 1e6) so
    the DuckDB oracle replays every row bit-for-bit.

    Scale + recall posture: candidates come from the SAME banding as
    minhash_lsh_pairs (one signature pass, bucketed banding, pair dedupe
    before verify; the oracle mirrors the banding, so recall is part of
    the contract, not a hidden loss). The banding targets Jaccard, so an
    extreme-size-ratio containment (tiny A inside huge B) can fall below
    LSH recall — the documented trade for never going O(n²); lower the
    band width or shingle the small side only (fuzzy_match's workload
    shape) when hunting those. The corpus size picks broadcast vs
    partitioned-join lookup, exactly like the siblings."""
    path = f"{sf_dir}/documents.parquet"
    ds = read_table(path, columns=["doc_id", "text"])
    bands = ds.map_batches(
        MinHashBander(k, n_bands, shingle_n), batch_format="pyarrow"
    )
    cands = bands.groupby("bucket").map_groups(
        _coarse_bucket_pairs, batch_format="pandas"
    )
    uniq = (
        cands.map_batches(_pair_bucket, batch_format="pandas")
        .groupby("pb")
        .map_groups(_dedupe_pairs, batch_format="pandas")
    )
    if not fits_broadcast(os.path.getsize(path)):
        return _verify_containment_by_join(uniq, sf_dir, shingle_n, threshold_ppm)
    docs_ref = ray.put(pq.read_table(path, columns=["doc_id", "text"]))
    return uniq.map_batches(
        _containment_verify_batch,
        fn_kwargs={
            "docs_ref": docs_ref,
            "shingle_n": shingle_n,
            "threshold_ppm": threshold_ppm,
        },
        batch_format="pandas",
    )


# --- SimHash -----------------------------------------------------------------


def _simhash_batch(df: pd.DataFrame) -> pd.DataFrame:
    # shingle features, not unigrams: unigram simhash is degenerate on
    # small-vocabulary corpora (every doc votes with the same words)
    sigs = [
        simhash64(token_shingles(TOKEN_RE.findall(t))) for t in df["text"]
    ]
    out = pd.DataFrame({"doc_id": df["doc_id"].astype("int64")})
    # store as int64 bit-pattern (Arrow-friendly); 4×16-bit block keys for
    # hamming-distance blocking (docs within hamming k<=3 share >=1 block)
    s = np.array(sigs, dtype=np.uint64)
    out["simhash"] = s.astype(np.int64)
    for blk in range(4):
        out[f"block{blk}"] = ((s >> np.uint64(16 * blk)) & np.uint64(0xFFFF)).astype(
            "int64"
        )
    return out


def simhash_signatures(sf_dir: str) -> ray.data.Dataset:
    """Per-doc 64-bit simhash + the 4 16-bit block keys used for
    hamming-≤3 candidate blocking. Output: (doc_id, simhash, block0..3)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(_simhash_batch, batch_format="pandas")


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array."""
    return (
        np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1)
        .sum(axis=1)
        .astype(np.int64)
    )


def _coarse_simhash_pairs(g: pd.DataFrame, max_hamming: int) -> pd.DataFrame:
    """One coarse bucket of exploded simhash block rows → verified
    hamming-≤k pairs, vectorized (self-merge + xor-popcount). Degenerate
    blocks are truncated with a sentinel row (doc_a = doc_b = -1,
    hamming = block size) so the cap is visible, never silent."""
    keys = ["block_id", "key"]
    sizes = g.groupby(keys)["doc_id"].transform("size")
    parts = []
    big = sizes > MAX_BUCKET_DOCS
    if big.any():
        gb = g[big].sort_values(keys + ["doc_id"], kind="mergesort")
        big_sizes = gb.groupby(keys)["doc_id"].size()
        parts.append(
            pd.DataFrame(
                {
                    "doc_a": np.full(len(big_sizes), -1, dtype=np.int64),
                    "doc_b": np.full(len(big_sizes), -1, dtype=np.int64),
                    "hamming": big_sizes.to_numpy().astype(np.int64),
                }
            )
        )
        g = pd.concat([g[~big], gb.groupby(keys).head(MAX_BUCKET_DOCS)])
    m = g.merge(g, on=keys)
    m = m[m["doc_id_x"] < m["doc_id_y"]]
    if len(m):
        x = m["simhash_x"].to_numpy(dtype=np.int64).view(np.uint64)
        y = m["simhash_y"].to_numpy(dtype=np.int64).view(np.uint64)
        h = _popcount64(x ^ y)
        m = pd.DataFrame(
            {
                "doc_a": m["doc_id_x"].to_numpy(),
                "doc_b": m["doc_id_y"].to_numpy(),
                "hamming": h,
            }
        )
        m = m[m["hamming"] <= max_hamming].drop_duplicates(["doc_a", "doc_b"])
        parts.append(m)
    out = (
        pd.concat(parts, ignore_index=True)
        if parts
        else pd.DataFrame({"doc_a": [], "doc_b": [], "hamming": []})
    )
    return out.astype({"doc_a": "int64", "doc_b": "int64", "hamming": "int64"})


def _explode_simhash_blocks(df: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, simhash, block0..3) → 4 rows (doc_id, simhash, block_id,
    key, bucket).

    One exploded table + ONE coarse groupby replaces four groupby
    branches over a shared upstream — at scale a union of N groupbys
    re-executes the signature stage N times and runs N shuffles."""
    parts = []
    for blk in range(4):
        parts.append(
            pd.DataFrame(
                {
                    "doc_id": df["doc_id"].astype("int64"),
                    "simhash": df["simhash"].astype("int64"),
                    "block_id": np.full(len(df), blk, dtype=np.int64),
                    "key": df[f"block{blk}"].astype("int64"),
                }
            )
        )
    out = pd.concat(parts, ignore_index=True)
    out["bucket"] = ((out["key"] * 1_000_003 + out["block_id"]) % N_COARSE).astype(
        "int64"
    )
    return out


def simhash_pairs(sf_dir: str, max_hamming: int = 3) -> ray.data.Dataset:
    """SimHash near-dup pairs: block on the 4 16-bit sub-keys (pigeonhole:
    hamming ≤3 ⇒ at least one identical block), verify exact hamming
    within blocks, dedupe. Output: (doc_a, doc_b, hamming)."""
    exploded = simhash_signatures(sf_dir).map_batches(
        _explode_simhash_blocks, batch_format="pandas"
    )
    pairs = exploded.groupby("bucket").map_groups(
        lambda g: _coarse_simhash_pairs(g, max_hamming), batch_format="pandas"
    )
    # a pair surfaces once per colliding block — dedupe keeping the
    # (identical) hamming via coarse pair-hash buckets. Cap sentinels
    # (doc_a = -1) are intermediate markers only: filtered here so no
    # phantom document leaks into the public pair set
    return (
        pairs.map_batches(_pair_bucket, batch_format="pandas")
        .groupby("pb")
        .map_groups(
            lambda g: g[g["doc_a"] >= 0]
            .sort_values(["doc_a", "doc_b", "hamming"])
            .drop_duplicates(["doc_a", "doc_b"])[["doc_a", "doc_b", "hamming"]],
            batch_format="pandas",
        )
    )


# --- n-gram Jaccard with cheap blocking --------------------------------------


def _block_key_batch(df: pd.DataFrame, shingle_n: int) -> pd.DataFrame:
    """Blocking key = md5_64 of the doc's lexicographically-smallest shingle
    (identical for any two docs sharing their rarest... smallest shingle);
    a cheap deterministic blocker that guarantees exact-dup capture."""
    keys = []
    for t in df["text"]:
        sh = token_shingles(TOKEN_RE.findall(t), shingle_n)
        keys.append(md5_64(min(sh) if sh else b"") & 0x7FFFFFFFFFFFFFFF)
    out = pd.DataFrame(
        {
            "doc_id": df["doc_id"].astype("int64"),
            "block": pd.Series(keys, dtype="int64"),
            "text": df["text"],
        }
    )
    out["bucket"] = (out["block"] % N_COARSE).astype("int64")
    return out


def _coarse_jaccard_pairs(
    g: pd.DataFrame, shingle_n: int, threshold_ppm: int
) -> pd.DataFrame:
    """Coarse bucket of blocked docs → exact-Jaccard pairs. Singleton
    blocks (the vast majority) are skipped BEFORE any shingle work."""
    rows = {"doc_a": [], "doc_b": [], "jaccard_ppm": []}
    sizes = g.groupby("block")["doc_id"].transform("size")
    # same degenerate-block cap as every sibling pair generator: an
    # oversized block (shared boilerplate prefix → shared min-shingle)
    # is truncated to its MAX_BUCKET_DOCS smallest doc ids with a
    # sentinel row, never an unbounded O(n²) Jaccard loop
    big = sizes > MAX_BUCKET_DOCS
    if big.any():
        gb = g[big].sort_values(["block", "doc_id"], kind="mergesort")
        for _ in range(gb.groupby("block").ngroups):
            rows["doc_a"].append(-1)
            rows["doc_b"].append(-1)
            rows["jaccard_ppm"].append(-1)
        g = pd.concat([g[~big], gb.groupby("block").head(MAX_BUCKET_DOCS)])
        sizes = g.groupby("block")["doc_id"].transform("size")
    for _, sub in g[sizes > 1].groupby("block", sort=True):
        recs = sorted(zip(sub["doc_id"].tolist(), sub["text"].tolist()))
        shingles = [
            set(token_shingles(TOKEN_RE.findall(t), shingle_n)) for _, t in recs
        ]
        for i in range(len(recs)):
            for j in range(i + 1, len(recs)):
                jp = int(jaccard(shingles[i], shingles[j]) * PPM)
                if jp >= threshold_ppm:
                    rows["doc_a"].append(recs[i][0])
                    rows["doc_b"].append(recs[j][0])
                    rows["jaccard_ppm"].append(jp)
    return pd.DataFrame({k: pd.Series(v, dtype="int64") for k, v in rows.items()})


def ngram_jaccard_pairs(
    sf_dir: str, shingle_n: int = 3, threshold_ppm: int = 800_000
) -> ray.data.Dataset:
    """Exact n-gram-Jaccard dedup within deterministic blocks.
    Output: (doc_a, doc_b, jaccard_ppm)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    blocked = ds.map_batches(
        lambda df: _block_key_batch(df, shingle_n), batch_format="pandas"
    )
    pairs = blocked.groupby("bucket").map_groups(
        lambda g: _coarse_jaccard_pairs(g, shingle_n, threshold_ppm),
        batch_format="pandas",
    )
    # cap sentinels are intermediate markers, not documents — the public
    # pair set must not leak a phantom doc_id -1 into joins/components
    return pairs.map_batches(
        lambda df: df[df["doc_a"] >= 0], batch_format="pandas"
    )


# --- embedding-cosine near-dup ----------------------------------------------


class HyperplaneBander:
    """Random-hyperplane (sign) LSH over an embedding column: 64-bit sign
    sketch split into 16-bit blocks as bucket keys (seeded planes built
    once per worker)."""

    def __init__(self, dim: int, n_bits: int = 64, seed: int = 42):
        if n_bits % 16 != 0 or n_bits <= 0:
            raise ValueError(
                f"n_bits must be a positive multiple of 16 (got {n_bits}): "
                "the sketch is blocked into 16-bit bucket keys"
            )
        rng = np.random.RandomState(seed)
        self.planes = rng.standard_normal((dim, n_bits))
        self.n_blocks = n_bits // 16

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:  # empty block → empty sketch rows, not a stack error
            return pd.DataFrame(
                {
                    c: pd.Series([], dtype="int64")
                    for c in ("vec_id", "block_id", "key", "bucket")
                }
            )
        emb = np.stack(df["embedding"].to_numpy())
        signs = ((emb @ self.planes) > 0).astype(np.int64)
        # (n, n_blocks, 16) → each block of 16 sign bits becomes a key
        n = len(df)
        bits = signs.reshape(n, self.n_blocks, 16)
        weights = (1 << np.arange(16, dtype=np.int64))[None, None, :]
        keys = (bits * weights).sum(axis=2)  # (n, n_blocks)
        # explode: n_blocks rows per vector (block_id, key) so candidate
        # generation is ONE groupby shuffle, not one per block
        vec_ids = df["vec_id"].astype("int64").to_numpy()
        out = pd.DataFrame(
            {
                "vec_id": np.repeat(vec_ids, self.n_blocks),
                "block_id": np.tile(np.arange(self.n_blocks, dtype=np.int64), n),
                "key": keys.reshape(-1),
            }
        )
        out["bucket"] = ((out["key"] * 1_000_003 + out["block_id"]) % N_COARSE).astype(
            "int64"
        )
        return out


class CosineVerifier:
    """Exact cosine over candidate pairs via a broadcast embedding matrix."""

    def __init__(self, emb_ref, threshold_ppm: int):
        table = ray.get(emb_ref)
        ids = np.asarray(table["vec_id"].to_pylist())
        mat = np.array(table["embedding"].to_pylist(), dtype=np.float64)
        self.row = {int(i): mat[j] for j, i in enumerate(ids)}
        self.norm = {int(i): float(np.sqrt(mat[j] @ mat[j])) for j, i in enumerate(ids)}
        self.threshold_ppm = threshold_ppm

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        rows = {"vec_a": [], "vec_b": [], "cosine_ppm": []}
        for a, b in zip(df["vec_a"], df["vec_b"]):
            if a < 0:  # degenerate-bucket sentinel
                continue
            a, b = int(a), int(b)
            denom = self.norm[a] * self.norm[b]
            if denom == 0.0:  # a zero vector has no direction — never a dup
                continue
            # dot/(|a|·|b|) order + round-half-up, exactly as the DuckDB
            # oracle computes it (pre-normalizing rows changes the float
            # op sequence and can flip the ppm truncation at the ulp)
            c = float(self.row[a] @ self.row[b]) / denom
            c = int(np.floor(c * PPM + 0.5))
            if c >= self.threshold_ppm:
                rows["vec_a"].append(int(a))
                rows["vec_b"].append(int(b))
                rows["cosine_ppm"].append(c)
        return pd.DataFrame({k: pd.Series(v, dtype="int64") for k, v in rows.items()})


def _coarse_vec_pairs(g: pd.DataFrame) -> pd.DataFrame:
    """Coarse bucket of sign-sketch block rows → candidate pairs (a < b),
    vectorized self-merge; degenerate blocks truncated with a sentinel."""
    keys = ["block_id", "key"]
    sizes = g.groupby(keys)["vec_id"].transform("size")
    parts = []
    big = sizes > MAX_BUCKET_DOCS
    if big.any():
        gb = g[big].sort_values(keys + ["vec_id"], kind="mergesort")
        n_big = gb.groupby(keys).ngroups
        parts.append(pd.DataFrame({"vec_a": [-1] * n_big, "vec_b": [-1] * n_big}))
        g = pd.concat([g[~big], gb.groupby(keys).head(MAX_BUCKET_DOCS)])
    m = g.merge(g, on=keys)
    m = m[m["vec_id_x"] < m["vec_id_y"]]
    parts.append(
        m.rename(columns={"vec_id_x": "vec_a", "vec_id_y": "vec_b"})[
            ["vec_a", "vec_b"]
        ].drop_duplicates()
    )
    return pd.concat(parts, ignore_index=True).astype(
        {"vec_a": "int64", "vec_b": "int64"}
    )


def _verify_vec_pairs_by_join(
    uniq: ray.data.Dataset, path: str, threshold_ppm: int
) -> ray.data.Dataset:
    """Scale verify path for embedding pairs: partitioned hash re-join of
    candidate pairs to the embeddings table on each side (pairs are the
    small side of both joins), then vectorized exact cosine per row."""
    from zerox_ray.pipelines.relational import hash_join

    emb = read_table(path, columns=["vec_id", "embedding"])

    # embeddings travel through the join as packed float64 bytes: a plain
    # binary Arrow column survives the tagged-union schema alignment that
    # an object column of ndarrays (with NaN fill on the other side's
    # blocks) does not
    def _pack(df: pd.DataFrame, idc: str, embc: str) -> pd.DataFrame:
        return pd.DataFrame(
            {
                idc: df["vec_id"].astype("int64"),
                embc: [
                    np.asarray(e, dtype=np.float64).tobytes()
                    for e in df["embedding"]
                ],
            }
        )

    side_a = emb.map_batches(
        lambda df: _pack(df, "vec_a", "emb_a"), batch_format="pandas"
    )
    side_b = emb.map_batches(
        lambda df: _pack(df, "vec_b", "emb_b"), batch_format="pandas"
    )
    sane = uniq.map_batches(lambda df: df[df["vec_a"] >= 0], batch_format="pandas")
    joined = hash_join(hash_join(sane, side_a, on="vec_a"), side_b, on="vec_b")

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {k: pd.Series([], dtype="int64") for k in ("vec_a", "vec_b", "cosine_ppm")}
            )
        a = np.stack([np.frombuffer(x, dtype=np.float64) for x in df["emb_a"]])
        b = np.stack([np.frombuffer(x, dtype=np.float64) for x in df["emb_b"]])
        # per-pair dot/(|a|·|b|) + round-half-up, the same float op order
        # as the broadcast CosineVerifier and the DuckDB oracle
        dots = np.array([float(ra @ rb) for ra, rb in zip(a, b)])
        na = np.array([float(np.sqrt(ra @ ra)) for ra in a])
        nb = np.array([float(np.sqrt(rb @ rb)) for rb in b])
        denom = na * nb
        # zero-norm vectors: cosine undefined → never a dup (matches the
        # broadcast verifier's skip, instead of nan→INT64_MIN wrap)
        cosf = np.where(denom > 0, dots / np.where(denom > 0, denom, 1.0), -1.0)
        cos = np.floor(cosf * PPM + 0.5).astype(np.int64)
        keep = cos >= threshold_ppm
        return pd.DataFrame(
            {
                "vec_a": df["vec_a"].to_numpy()[keep].astype(np.int64),
                "vec_b": df["vec_b"].to_numpy()[keep].astype(np.int64),
                "cosine_ppm": cos[keep],
            }
        )

    return joined.map_batches(verify, batch_format="pandas")


def embedding_near_dup(
    sf_dir: str,
    threshold_ppm: int = 900_000,
    n_bits: int = 64,
) -> ray.data.Dataset:
    """Embedding-cosine near-dup: sign-LSH bucketing → candidate pairs →
    exact cosine verify. Output: (vec_a, vec_b, cosine_ppm). Verify by
    broadcast or partitioned join, by size as in minhash_lsh_pairs."""
    path = f"{sf_dir}/embeddings.parquet"
    # vector dim from the FIRST row group only — a full-column driver
    # read here would defeat the join-verify path's no-central-load point
    meta = pq.ParquetFile(path).read_row_group(0, columns=["embedding"])
    dim = len(meta["embedding"][0].as_py())
    ds = read_table(path, columns=["vec_id", "embedding"])
    # instance → task mode: plane state is a pure function of the seed,
    # rebuilt cheaply per worker; avoids per-query actor-pool startup
    sk = ds.map_batches(
        HyperplaneBander(dim=dim, n_bits=n_bits), batch_format="pandas"
    )
    cands = sk.groupby("bucket").map_groups(_coarse_vec_pairs, batch_format="pandas")
    uniq = (
        cands.map_batches(
            lambda df: df.assign(
                pb=((df["vec_a"] * 1_000_003 + df["vec_b"]) % N_COARSE).astype("int64")
            ),
            batch_format="pandas",
        )
        .groupby("pb")
        .map_groups(
            lambda g: g.drop_duplicates(["vec_a", "vec_b"])[["vec_a", "vec_b"]],
            batch_format="pandas",
        )
    )
    if not fits_broadcast(os.path.getsize(path)):
        return _verify_vec_pairs_by_join(uniq, path, threshold_ppm)
    emb_ref = ray.put(pq.read_table(path, columns=["vec_id", "embedding"]))
    return uniq.map_batches(
        _cosine_verify_batch,
        fn_kwargs={"emb_ref": emb_ref, "threshold_ppm": threshold_ppm},
        batch_format="pandas",
    )


# --- document fingerprint ----------------------------------------------------


def _fingerprint_batch(df: pd.DataFrame) -> pd.DataFrame:
    fps = [rolling_fingerprint(TOKEN_RE.findall(t)) for t in df["text"]]
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"].astype("int64"),
            # int64 bit-pattern of the uint64 fingerprint (Arrow-friendly)
            "fingerprint": pd.Series(
                np.array(fps, dtype=np.uint64).astype(np.int64), dtype="int64"
            ),
        }
    )


def doc_fingerprints(sf_dir: str) -> ray.data.Dataset:
    """Order-sensitive rolling-hash fingerprints (exact-dup detection that
    survives column pruning: fingerprint equality ⇔ same token stream).
    Output: (doc_id, fingerprint)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return ds.map_batches(_fingerprint_batch, batch_format="pandas")


# --- duplicate-cluster keeper selection --------------------------------------


def _union_find_components(pairs: pd.DataFrame) -> dict[int, int]:
    """doc_id → component keeper (min id), single-process union-find.
    Kept as the REFERENCE implementation (test golden) for the
    distributed ``minlabel_components`` below — the pipeline itself never
    collects pairs to the driver."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in list(parent)}


def _edges_batch(df: pd.DataFrame) -> pd.DataFrame:
    """Verified pairs → undirected edge rows (both directions), dropping
    degenerate-bucket sentinels."""
    real = df[df["doc_a"] >= 0]
    a = real["doc_a"].to_numpy(dtype=np.int64)
    b = real["doc_b"].to_numpy(dtype=np.int64)
    return pd.DataFrame(
        {
            "src": np.concatenate([a, b]),
            "dst": np.concatenate([b, a]),
        }
    )


def _propagate_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """One coarse bucket of mixed rows (label rows have dst = -1, edge
    rows carry dst ≥ 0): attach each node's current label to its outgoing
    edges and emit (neighbor, label) messages plus the labels themselves."""
    lab = g.loc[g["dst"] < 0, ["node", "label"]]
    edg = g.loc[g["dst"] >= 0, ["node", "dst"]]
    msgs = edg.merge(lab, on="node")[["dst", "label"]].rename(columns={"dst": "node"})
    out = pd.concat([lab, msgs], ignore_index=True)
    return out.astype({"node": "int64", "label": "int64"})


def minlabel_components(
    pairs: ray.data.Dataset, max_rounds: int = 64
) -> ray.data.Dataset:
    """Distributed connected components over verified near-dup pairs:
    K-round min-label propagation (map_batches + groupby-min), the
    scale-out replacement for driver union-find. Returns (node, label)
    for every doc appearing in a pair; label = min reachable doc_id.

    Scale posture: the per-round datasets are O(nodes-in-pairs) — tiny
    next to the corpus — and are ``materialize()``d in the OBJECT STORE
    between rounds (never collected to the driver). Convergence check is
    a scalar Sum aggregate: labels are monotonically non-increasing, so
    an unchanged label sum is exactly the fixpoint."""
    edges = pairs.map_batches(_edges_batch, batch_format="pandas").materialize()
    # round 0 for free: label(x) = min(x, min direct neighbor)
    init = bucketed_group_agg(edges, ["src"], {"label": ("dst", "min")})
    labels = init.map_batches(
        lambda df: pd.DataFrame(
            {
                "node": df["src"].astype("int64"),
                "label": np.minimum(
                    df["src"].to_numpy(dtype=np.int64),
                    df["label"].to_numpy(dtype=np.int64),
                ),
            }
        ),
        batch_format="pandas",
    ).materialize()
    if labels.count() == 0:
        return labels

    n_nodes = labels.count()

    def label_sum(ds: ray.data.Dataset) -> int:
        # Convergence scalar. Labels are O(nodes-in-pairs): usually tiny,
        # but on a high-dup-rate web corpus nodes-in-pairs ~ O(corpus), so
        # streaming the table through the driver every round is an
        # O(corpus)-per-round driver network tax. Above a size threshold
        # use the distributed Sum aggregate (the driver sees one scalar);
        # below it, a driver-side block sum skips a whole Aggregate
        # operator per round — the right micro-optimization at small scale.
        if n_nodes > DRIVER_SUM_MAX_NODES:
            return int(ds.sum("label"))
        return sum(
            int(b["label"].sum())
            for b in ds.iter_batches(batch_format="pandas", batch_size=None)
        )

    # size-aware exchange width for the per-round shuffles (same
    # rationale as pagerank's loop: K rounds × 2 exchanges must not fan
    # a small label table into N_COARSE buckets of a few rows each)
    n_buckets = shuffle_width(n_nodes)

    total = label_sum(labels)
    for _ in range(max_rounds):
        tagged_lab = labels.map_batches(
            lambda df: df.assign(dst=np.int64(-1))[["node", "dst", "label"]],
            batch_format="pandas",
        )
        tagged_edg = edges.map_batches(
            lambda df: pd.DataFrame(
                {
                    "node": df["src"].astype("int64"),
                    "dst": df["dst"].astype("int64"),
                    "label": np.int64(-1),
                }
            ),
            batch_format="pandas",
        )
        # pointer-jumping: also treat the current label mapping as edges
        # label(x) → x, so each node receives label(label(x)) too and a
        # path of length D collapses in O(log D) rounds instead of D
        # (one-hop-only propagation stalled ~6 min on a 500-node chain
        # graph; web-graph components are long-chain-prone). Labels stay
        # mins over real node ids, so the fixpoint is unchanged.
        tagged_ptr = labels.map_batches(
            lambda df: pd.DataFrame(
                {
                    "node": df["label"].astype("int64"),
                    "dst": df["node"].astype("int64"),
                    "label": np.int64(-1),
                }
            ),
            batch_format="pandas",
        )
        mixed = tagged_lab.union(tagged_edg).union(tagged_ptr).map_batches(
            lambda df: df.assign(bucket=(df["node"] % n_buckets).astype("int64")),
            batch_format="pandas",
        )
        msgs = mixed.groupby("bucket").map_groups(
            _propagate_bucket, batch_format="pandas"
        )
        # coalesce before materializing: the round's shuffle emits as
        # many blocks as it receives, and labels feeds the next round
        # TWICE (tagged_lab + tagged_ptr) — without the coalesce the
        # block count doubles every round (observed 2→1024 blocks for
        # 500 rows, per-round wall time doubling with it). ~250k rows
        # per block keeps task overhead flat at any corpus size.
        n_parts = max(8, min(1024, n_nodes // 250_000 + 8))
        labels = (
            bucketed_group_agg(
                msgs, ["node"], {"label": ("label", "min")}, num_buckets=n_buckets
            )
            .repartition(n_parts)
            .materialize()
        )
        new_total = label_sum(labels)
        if new_total == total:
            return labels
        total = new_total
    raise RuntimeError(
        f"min-label propagation did not converge in {max_rounds} rounds "
        "(component diameter exceeds the cap) — raise max_rounds"
    )


def minhash_dedup_docs(sf_dir: str, **lsh_kwargs) -> ray.data.Dataset:
    """End-to-end near-dup REMOVAL: MinHash-LSH pairs → distributed
    min-label connected components → keep only each cluster's min doc_id.
    Output: (doc_id, cluster_id) for the SURVIVING documents
    (cluster_id = doc_id for docs with no near-dup).

    Nothing materializes on the driver: components come from
    ``minlabel_components`` (object-store rounds) and the keeper filter
    is a partitioned hash join of the corpus against the (small) label
    table — the 10^12-doc shape throughout."""
    from zerox_ray.pipelines.relational import hash_join

    pairs = minhash_lsh_pairs(sf_dir, **lsh_kwargs)
    comp = minlabel_components(pairs)
    docs = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    if comp.count() == 0:  # materialized + tiny — a cheap driver scalar
        return docs.map_batches(
            lambda df: pd.DataFrame(
                {
                    "doc_id": df["doc_id"].astype("int64"),
                    "cluster_id": df["doc_id"].astype("int64"),
                }
            ),
            batch_format="pandas",
        )
    labels = comp.map_batches(
        lambda df: df.rename(columns={"node": "doc_id", "label": "cluster_id"}),
        batch_format="pandas",
    )
    joined = hash_join(docs, labels, on="doc_id", how="left")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        cluster = df["cluster_id"].fillna(ids).astype("int64")
        keep = (ids == cluster).to_numpy()
        return pd.DataFrame(
            {"doc_id": ids[keep], "cluster_id": cluster[keep]}
        ).astype({"doc_id": "int64", "cluster_id": "int64"})

    return joined.map_batches(finish, batch_format="pandas")


def leakage_safe_split(
    sf_dir: str,
    test_ppm: int = 50_000,
    val_ppm: int = 100_000,
    **lsh_kwargs,
) -> ray.data.Dataset:
    """Train/val/test split at NEAR-DUP-CLUSTER granularity: every doc in
    a MinHash-LSH connected component gets the split of its component's
    min doc_id, so near-duplicates can never straddle train and held-out
    (the leakage mode a doc-hash split like ``dataops.corpus_split``
    cannot prevent — a near-copy of a training doc landing in valid).
    Split thresholds are the corpus_split hash-range ppm convention
    (md5(cluster_id) % 1e6), stable under corpus growth at cluster
    granularity.

    Scale shape: minhash_dedup_docs' exact chain (LSH pairs → min-label
    components → ONE doc_id hash join against the small label table)
    with the keeper filter replaced by a vectorized hash-range split
    map. Output: (doc_id, cluster_id, split), one row per document."""
    from zerox_ray.pipelines.relational import hash_join

    pairs = minhash_lsh_pairs(sf_dir, **lsh_kwargs)
    comp = minlabel_components(pairs)
    docs = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    if comp.count() == 0:  # materialized + tiny — a cheap driver scalar
        joined = docs.map_batches(
            lambda df: df.assign(cluster_id=df["doc_id"].astype("int64")),
            batch_format="pandas",
        )
    else:
        labels = comp.map_batches(
            lambda df: df.rename(columns={"node": "doc_id", "label": "cluster_id"}),
            batch_format="pandas",
        )
        joined = hash_join(docs, labels, on="doc_id", how="left")

    test_hi, val_hi = test_ppm, test_ppm + val_ppm

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        cluster = df["cluster_id"].fillna(ids).astype("int64") if "cluster_id" in df else ids
        h = md5_64_array(
            [str(int(c)).encode() for c in cluster]
        ) % np.uint64(1_000_000)
        split = np.where(
            h < test_hi, "test", np.where(h < val_hi, "val", "train")
        )
        return pd.DataFrame(
            {
                "doc_id": ids.to_numpy(),
                "cluster_id": cluster.to_numpy(),
                "split": split,
            }
        )

    return joined.map_batches(assign, batch_format="pandas")


# --- span-level exact dedup (repeated k-token windows) -----------------------


def _span_explode(df: pd.DataFrame, window: int) -> pd.DataFrame:
    """Docs → non-overlapping ``window``-token span rows. Tokenization is
    a plain single-space split (mirrors DuckDB ``string_split(text,' ')``
    so the oracle can replay it); the final span of a doc may be shorter
    than ``window``. Only narrow columns leave this stage — the span TEXT
    never ships, just its md5-derived 64-bit hash."""
    doc_ids: list[int] = []
    span_idx: list[int] = []
    n_toks: list[int] = []
    spans: list[bytes] = []
    for did, text in zip(df["doc_id"].astype("int64"), df["text"]):
        toks = text.split(" ")
        for si, i in enumerate(range(0, len(toks), window)):
            chunk = toks[i : i + window]
            doc_ids.append(did)
            span_idx.append(si)
            n_toks.append(len(chunk))
            spans.append(" ".join(chunk).encode())
    return pd.DataFrame(
        {
            "h": md5_64_array(spans),
            "doc_id": pd.Series(doc_ids, dtype="int64"),
            "span_index": pd.Series(span_idx, dtype="int64"),
            "n_toks": pd.Series(n_toks, dtype="int64"),
        }
    )


def _span_winner_partials(g: pd.DataFrame) -> pd.DataFrame:
    """One hash bucket: pick each span-hash's winner (lexicographic min
    (doc_id, span_index) — first occurrence in corpus order) and emit
    per-doc PARTIAL sums so the second exchange moves one narrow row per
    (bucket, doc) instead of one per span."""
    g = g.sort_values(["h", "doc_id", "span_index"], kind="mergesort")
    keep = ~g["h"].duplicated().to_numpy()
    part = pd.DataFrame(
        {
            "doc_id": g["doc_id"].to_numpy(),
            "n_spans": 1,
            "kept_spans": keep.astype("int64"),
            "kept_tokens": g["n_toks"].to_numpy() * keep,
        }
    )
    return (
        part.groupby("doc_id", as_index=False)
        .agg(
            n_spans=("n_spans", "sum"),
            kept_spans=("kept_spans", "sum"),
            kept_tokens=("kept_tokens", "sum"),
        )
        .astype("int64")
    )


def dedup_spans(sf_dir: str, window: int = 4) -> ray.data.Dataset:
    """Exact SPAN dedup à la "Deduplicating Training Data Makes Language
    Models Better" (Lee et al., 2022): every non-overlapping ``window``-token
    span is hashed corpus-wide and only its first occurrence (min
    (doc_id, span_index)) is kept; repeated spans elsewhere are dropped.
    The reference has no dedup at all (SURVEY §2.8) — this is an
    engine-added training-data operator.

    Scale shape: explode ships (hash, doc_id, span_index, n_toks) only
    (~32 B/span); ONE groupby on the span hash marks winners and
    pre-aggregates per doc inside the bucket; ONE tiny groupby on doc_id
    merges bucket partials. No driver materialization, no text through
    either shuffle. Output: (doc_id, n_spans, kept_spans, dup_spans,
    kept_tokens), one row per document."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    exploded = ds.map_batches(
        lambda df: _span_explode(df, window), batch_format="pandas"
    )
    partials = bucketed_group_map(exploded, "h", _span_winner_partials)
    agg = bucketed_group_agg(
        partials,
        ["doc_id"],
        {
            "n_spans": ("n_spans", "sum"),
            "kept_spans": ("kept_spans", "sum"),
            "kept_tokens": ("kept_tokens", "sum"),
        },
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df[["doc_id", "n_spans", "kept_spans", "kept_tokens"]].copy()
        df["dup_spans"] = df["n_spans"] - df["kept_spans"]
        return df[["doc_id", "n_spans", "kept_spans", "dup_spans", "kept_tokens"]].astype(
            "int64"
        )

    return agg.map_batches(finish, batch_format="pandas")


# --- substring scrub (rolling duplicated-gram REMOVAL with text output) -------


def _gram_explode(df: pd.DataFrame, k: int) -> pd.DataFrame:
    """Docs → ROLLING ``k``-token gram rows (one per start position, full
    grams only; docs shorter than ``k`` tokens emit none). Tokenization
    is the plain single-space split shared with ``_span_explode`` so the
    DuckDB oracle replays it. Only (hash, doc_id, pos) leaves — ~24 B per
    position; the gram text never ships."""
    doc_ids: list[int] = []
    positions: list[int] = []
    grams: list[bytes] = []
    for did, text in zip(df["doc_id"].astype("int64"), df["text"]):
        toks = text.split(" ")
        for i in range(len(toks) - k + 1):
            doc_ids.append(did)
            positions.append(i)
            grams.append(" ".join(toks[i : i + k]).encode())
    return pd.DataFrame(
        {
            "h": md5_64_array(grams),
            "doc_id": pd.Series(doc_ids, dtype="int64"),
            "pos": pd.Series(positions, dtype="int64"),
        }
    )


def _gram_dup_seeds(g: pd.DataFrame) -> pd.DataFrame:
    """One hash bucket: per gram hash, the first occurrence in corpus
    order (min (doc_id, pos)) is the keeper; every LATER occurrence is a
    removal seed. Emits only the non-winners — at realistic dup rates a
    small fraction of positions, so the second exchange is narrow."""
    g = g.sort_values(["h", "doc_id", "pos"], kind="mergesort")
    dup = g["h"].duplicated().to_numpy()
    out = g.loc[dup, ["doc_id", "pos"]]
    return out.astype({"doc_id": "int64", "pos": "int64"})


def _seed_position_lists(g: pd.DataFrame) -> pd.DataFrame:
    """Seeds → one row per doc carrying its sorted removal positions as a
    comma-joined string column (ragged int lists trip Ray's pandas-block
    tensor-extension cast), so the text join stays one-row-per-doc (text
    is never replicated per seed)."""
    grouped = g.groupby("doc_id")["pos"].apply(
        lambda s: ",".join(map(str, np.sort(s.to_numpy(np.int64))))
    )
    return pd.DataFrame(
        {
            "doc_id": pd.Series(grouped.index, dtype="int64"),
            "positions": grouped.to_numpy(),
        }
    )


def substring_scrub(sf_dir: str, k: int = 8) -> ray.data.Dataset:
    """Exact SUBSTRING dedup with cleaned-text output, the rolling-window
    form of "Deduplicating Training Data Makes Language Models Better"
    (Lee et al., 2022): every k-token gram (EVERY start position, unlike
    ``dedup_spans``'s non-overlapping windows) is hashed corpus-wide;
    occurrences after the first (min (doc_id, pos) per hash) mark their k
    token positions for removal, and each document's surviving tokens are
    re-joined into ``text_clean``. The winner occurrence keeps its text,
    so one copy of every duplicated substring survives somewhere in the
    corpus. The reference has no dedup at all (SURVEY §2.8).

    Scale shape: the explode ships (hash, doc_id, pos) only (~24 B per
    token position ≈ the tokenized corpus width, same order as
    dedup_spans' explode); exchange 1 groups by gram hash and emits ONLY
    the non-winner seeds (narrow — the corpus dup fraction); exchange 2
    folds seeds into per-doc position lists (≤1 row per affected doc).
    The seed lists then attach to the text either by BROADCAST (below
    the 1 GiB gate the affected-doc map ships once via ``ray.put`` and
    the document text NEVER enters an exchange) or, above it, by the
    partitioned doc_id hash join where text moves exactly once —
    paragraph_dedup's size gate, both paths output-identical. No driver
    text materialization; removal/rebuild is vectorized numpy coverage
    masking per batch.

    Output: (doc_id, n_tokens, n_removed, text_clean), one row per
    document (docs shorter than k tokens pass through unchanged)."""
    docs = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    exploded = docs.map_batches(
        lambda df: _gram_explode(df, k), batch_format="pandas"
    )
    seeds = bucketed_group_map(exploded, "h", _gram_dup_seeds)
    seed_lists = bucketed_group_map(
        seeds, "doc_id", _seed_position_lists
    ).materialize()  # ≤1 narrow row per affected doc — gate-sized below

    # broadcast-vs-join gate for the seed-list attach (the
    # paragraph_dedup idiom): when the (doc_id → positions) state fits,
    # the seeds ship once via ray.put and the text join disappears
    sz = seed_lists.map_batches(
        lambda df: pd.DataFrame(
            {"b": [int(df["positions"].str.len().sum()) + 16 * len(df)]}
        ),
        batch_format="pandas",
    ).sum("b") or 0
    if fits_broadcast(sz):
        parts = seed_lists.to_pandas()
        seed_ref = ray.put(dict(zip(parts["doc_id"], parts["positions"])))

        def attach(df: pd.DataFrame) -> pd.DataFrame:
            m = ray.get(seed_ref)
            df = df.copy()
            df["positions"] = [m.get(d) for d in df["doc_id"].astype("int64")]
            return df

        joined = docs.map_batches(attach, batch_format="pandas")
    else:
        from zerox_ray.pipelines.relational import hash_join

        joined = hash_join(docs, seed_lists, on="doc_id", how="left")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        out = {"doc_id": [], "n_tokens": [], "n_removed": [], "text_clean": []}
        for did, text, pos in zip(
            df["doc_id"].astype("int64"), df["text"], df["positions"]
        ):
            toks = text.split(" ")
            n = len(toks)
            if pos is None or (isinstance(pos, float) and pd.isna(pos)):
                removed, clean = 0, text
            else:
                starts = np.fromiter(map(int, pos.split(",")), dtype=np.int64)
                covered = np.zeros(n, dtype=bool)
                idx = (starts[:, None] + np.arange(k)).ravel()
                covered[idx] = True
                removed = int(covered.sum())
                clean = " ".join(t for t, c in zip(toks, covered) if not c)
            out["doc_id"].append(int(did))
            out["n_tokens"].append(n)
            out["n_removed"].append(removed)
            out["text_clean"].append(clean)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(out["doc_id"], dtype="int64"),
                "n_tokens": pd.Series(out["n_tokens"], dtype="int64"),
                "n_removed": pd.Series(out["n_removed"], dtype="int64"),
                "text_clean": out["text_clean"],
            }
        )

    return joined.map_batches(finish, batch_format="pandas")


# --- cross-set fuzzy match (LSH similarity search) ----------------------------


def fuzzy_match(
    sf_dir: str,
    query_mod: int = 50,
    query_rem: int = 1,
    k: int = 64,
    n_bands: int = 16,
    shingle_n: int = 3,
    threshold_ppm: int = 500_000,
) -> ray.data.Dataset:
    """Cross-set fuzzy matching: find corpus documents similar to a QUERY
    workload — the similarity-search shape, distinct from within-corpus
    dedup. Queries here are deterministic stand-ins for a user workload:
    the first ceil(4n/5) tokens of every ``doc_id % query_mod ==
    query_rem`` document (a truncated near-dup of its source, so every
    query has at least one true match and the oracle can rebuild the
    workload in SQL).

    Scale shape — NO shuffle at all: the query side is the broadcastable
    small side (a workload, not the corpus); its LSH band index + shingle
    sets are built once on the driver and ``ray.put`` once; the corpus
    scan minhashes each doc, probes the index for shared (band, key)
    entries, and exact-Jaccard-verifies candidates in place. Matching the
    full corpus costs one streaming pass regardless of corpus size.
    Output: (query_id, doc_id, jaccard_ppm) for pairs ≥ threshold."""
    from zerox_ray.functions.hashing import (
        band_keys,
        jaccard,
        md5_64_array,
        minhash_params,
        minhash_signature,
        token_shingles,
    )

    path = f"{sf_dir}/documents.parquet"
    a, b = minhash_params(k)

    # query side: filtered ON the cluster, collected bounded (the slice
    # is the workload; take_all is bounded by it, never the corpus)
    def q_filter(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        keep = _pc.equal(
            _pc.subtract(
                t["doc_id"],
                _pc.multiply(_pc.divide(t["doc_id"], query_mod), query_mod),
            ),
            query_rem,
        )
        return t.filter(keep)

    qrows = (
        read_table(path, columns=["doc_id", "text"])
        .map_batches(q_filter, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )
    index: dict[tuple[int, int], list[int]] = {}
    qshingles: dict[int, set] = {}
    for r in qrows:
        toks = TOKEN_RE.findall(r["text"])
        toks = toks[: (4 * len(toks) + 4) // 5]  # ceil(4n/5), int math
        sh = token_shingles(toks, shingle_n)
        qid = int(r["doc_id"])
        qshingles[qid] = set(sh)
        sig = minhash_signature(md5_64_array(sh), a, b)
        for band_id, key in enumerate(band_keys(sig, n_bands)):
            index.setdefault((band_id, key), []).append(qid)
    state_ref = ray.put((index, qshingles))

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        idx, qsh = worker_cached(
            ("fuzzy", state_ref.hex()), lambda: ray.get(state_ref)
        )
        qids_out, dids_out, ppms = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            sh_list = token_shingles(TOKEN_RE.findall(text), shingle_n)
            sig = minhash_signature(md5_64_array(sh_list), a, b)
            cand: set[int] = set()
            for band_id, key in enumerate(band_keys(sig, n_bands)):
                hit = idx.get((band_id, key))
                if hit:
                    cand.update(hit)
            if not cand:
                continue
            s = set(sh_list)
            for qid in sorted(cand):
                jp = int(jaccard(s, qsh[qid]) * PPM)
                if jp >= threshold_ppm:
                    qids_out.append(qid)
                    dids_out.append(int(doc_id))
                    ppms.append(jp)
        return pd.DataFrame(
            {
                "query_id": pd.Series(qids_out, dtype="int64"),
                "doc_id": pd.Series(dids_out, dtype="int64"),
                "jaccard_ppm": pd.Series(ppms, dtype="int64"),
            }
        )

    return read_table(path, columns=["doc_id", "text"]).map_batches(
        probe, batch_format="pandas"
    )


def neardup_cluster_sizes(sf_dir: str, **lsh_kwargs) -> ray.data.Dataset:
    """Near-duplicate cluster-size histogram — the dedup family's
    release diagnostic (how much of the corpus sits in 2×, 3×, N×
    near-dup clusters decides the dedup budget): MinHash-LSH verified
    pairs → distributed min-label components → per-label size (combiner
    → ONE grouped sum) → size histogram (ONE tiny exchange); documents
    in no pair count as singleton clusters, folded in from two scalar
    counts. Output: (cluster_size, n_clusters)."""
    import pyarrow as pa

    pairs = minhash_lsh_pairs(sf_dir, **lsh_kwargs)
    comp = minlabel_components(pairs)  # (node, label); materialized, tiny
    from zerox_ray.sources.tables import read_table

    n_docs = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"]).count()
    n_nodes = comp.count()
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "cluster_size": pa.array([1], pa.int64()),
                    "n_clusters": pa.array([n_docs], pa.int64()),
                }
            )
        )

    def size_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("label", as_index=False).size()
        return out.rename(columns={"size": "sz"}).astype({"sz": "int64"})

    sizes = bucketed_group_agg(
        comp.map_batches(size_partial, batch_format="pandas"),
        ["label"],
        {"sz": ("sz", "sum")},
    )

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["sz"].value_counts()
        return pd.DataFrame(
            {
                "cluster_size": vc.index.to_numpy(np.int64),
                "n_clusters": vc.to_numpy(np.int64),
            }
        )

    hist = bucketed_group_agg(
        sizes.map_batches(hist_partial, batch_format="pandas"),
        ["cluster_size"],
        {"n_clusters": ("n_clusters", "sum")},
    ).to_pandas()  # O(distinct cluster sizes) rows — bounded driver state
    singles = n_docs - n_nodes
    if singles > 0:
        hist = pd.concat(
            [hist, pd.DataFrame({"cluster_size": [1], "n_clusters": [singles]})]
        )
        hist = hist.groupby("cluster_size", as_index=False).sum()
    return ray.data.from_arrow(
        pa.Table.from_pandas(
            hist.astype({"cluster_size": "int64", "n_clusters": "int64"}),
            preserve_index=False,
        )
    )


# --- winnowing fingerprints (Schleimer et al. 2003, MOSS) ----------------------

WINNOW_K = 4  # gram size
WINNOW_W = 4  # window of consecutive gram hashes per selection
#: drop fingerprint hashes shared by more than this many docs before
#: pairing (ubiquitous-chrome guard — bounds per-group pair fanout)
WINNOW_DF_CAP = 8
WINNOW_MIN_SHARED = 2


def _winnow_doc(hs: np.ndarray, w: int) -> np.ndarray:
    """Indices selected by winnowing over one doc's gram-hash sequence:
    per window of ``w`` consecutive hashes, the RIGHTMOST minimum (the
    standard tie rule — consecutive windows then reselect the same gram,
    giving the guaranteed-density fingerprint set). Returns unique
    selected positions, ascending."""
    n = len(hs)
    if n == 0:
        return np.array([], dtype=np.int64)
    w_eff = min(w, n)
    win = np.lib.stride_tricks.sliding_window_view(hs, w_eff)
    rev_arg = win[:, ::-1].argmin(axis=1)
    pos = np.arange(len(win), dtype=np.int64) + (w_eff - 1 - rev_arg)
    return np.unique(pos)


def _winnow_batch(df: pd.DataFrame, k: int, w: int) -> pd.DataFrame:
    out_doc: list[np.ndarray] = []
    out_pos: list[np.ndarray] = []
    out_h: list[np.ndarray] = []
    for did, text in zip(df["doc_id"].astype("int64"), df["text"]):
        toks = text.split(" ")
        grams = [
            " ".join(toks[i : i + k]).encode() for i in range(len(toks) - k + 1)
        ]
        if not grams:
            continue
        hs = (md5_64_array(grams) >> np.uint64(1)).astype(np.int64)
        sel = _winnow_doc(hs, w)
        out_doc.append(np.full(len(sel), did, dtype=np.int64))
        out_pos.append(sel)
        out_h.append(hs[sel])
    if not out_doc:
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64") for c in ("doc_id", "pos", "h")}
        )
    return pd.DataFrame(
        {
            "doc_id": np.concatenate(out_doc),
            "pos": np.concatenate(out_pos),
            "h": np.concatenate(out_h),
        }
    )


def winnow_fingerprints(
    sf_dir: str, k: int = WINNOW_K, w: int = WINNOW_W
) -> ray.data.Dataset:
    """Winnowing document fingerprints (Schleimer, Wilkerson, Aiken,
    SIGMOD 2003 — the MOSS algorithm): hash every rolling ``k``-token
    gram, then per window of ``w`` consecutive gram hashes select the
    rightmost minimum. Guarantees any shared substring of ≥ k + w − 1
    tokens yields at least one shared fingerprint, with expected density
    2/(w+1) — the local-selection sketch between "hash everything"
    (substring_scrub's explode) and "hash one thing" (doc_fingerprints).

    Scale shape: ZERO shuffles — selection is per-document local, so
    this is one streaming map over the corpus emitting ~2n/(w+1) narrow
    rows per n-gram doc; downstream consumers (fingerprint_matches)
    pay the exchanges. Output: (doc_id, pos, h) — gram start position
    and 63-bit fingerprint hash."""
    docs = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(
        lambda df: _winnow_batch(df, k, w), batch_format="pandas"
    )


def _fp_pair_partials(g: pd.DataFrame, df_cap: int) -> pd.DataFrame:
    """One hash bucket: per fingerprint hash, the distinct docs carrying
    it (≤ df_cap, else dropped as chrome) pair up — ≤ C(df_cap, 2) rows
    per hash leave the bucket."""
    out_a: list[int] = []
    out_b: list[int] = []
    for _, sub in g.groupby("h", sort=False):
        docs = np.unique(sub["doc_id"].to_numpy(np.int64))
        if len(docs) < 2 or len(docs) > df_cap:
            continue
        ia, ib = np.triu_indices(len(docs), k=1)
        out_a += docs[ia].tolist()
        out_b += docs[ib].tolist()
    return pd.DataFrame(
        {
            "doc_a": pd.Series(out_a, dtype="int64"),
            "doc_b": pd.Series(out_b, dtype="int64"),
            "n_shared": pd.Series(np.ones(len(out_a), dtype=np.int64)),
        }
    )


def fingerprint_matches(
    sf_dir: str,
    k: int = WINNOW_K,
    w: int = WINNOW_W,
    df_cap: int = WINNOW_DF_CAP,
    min_shared: int = WINNOW_MIN_SHARED,
) -> ray.data.Dataset:
    """Cross-document match candidates from shared winnowing fingerprints
    (the MOSS pairing step): doc pairs sharing ≥ ``min_shared`` DISTINCT
    fingerprint hashes, after dropping hashes present in more than
    ``df_cap`` documents (boilerplate chrome would otherwise pair
    everything with everything).

    Scale shape: fingerprints (already ~2/(w+1) of gram volume) →
    exchange 1 groups by hash and emits ≤ C(df_cap, 2) pair rows per
    hash (the cap bounds the quadratic fanout BEFORE it ships);
    exchange 2 is a tiny (doc_a, doc_b) grouped sum. Text never moves.
    Output: (doc_a, doc_b, n_shared), doc_a < doc_b."""
    fps = winnow_fingerprints(sf_dir, k=k, w=w)

    def distinct_doc_hash(df: pd.DataFrame) -> pd.DataFrame:
        return df[["doc_id", "h"]].drop_duplicates()

    fp = fps.map_batches(distinct_doc_hash, batch_format="pandas")
    pairs = bucketed_group_map(
        fp, "h", lambda g: _fp_pair_partials(g, df_cap)
    )
    agg = bucketed_group_agg(
        pairs, ["doc_a", "doc_b"], {"n_shared": ("n_shared", "sum")}
    )
    return agg.map_batches(
        lambda df: df[df["n_shared"] >= min_shared], batch_format="pandas"
    )
