"""Similarity search over an embedding column (list<float>).

Two paths:
- ``ann_bruteforce_topk`` — exact cosine top-k: the query matrix is
  broadcast ONCE via ``ray.put``; each batch does one numpy matmul and
  emits only its per-query top-k partials; a tiny groupby(qid) reduce
  finishes. The shuffle moves O(Q × k × n_batches) rows, never the
  corpus.
- ``ann_ivf_topk`` — the scale path: seeded k-means centroids (driver,
  one pass over a bounded sample), cluster assignment per batch, search
  restricted to each query's ``n_probe`` nearest clusters. Same partial
  top-k + tiny final reduce. Recall < 1 by design; measured in tests
  against the brute-force baseline.

All ranking is float64 with deterministic (sim desc, vec_id asc)
tie-breaking so results are stable across batch layouts.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from zerox_ray.pipelines.agg import bucketed_group_agg, cached_get, worker_cached
from zerox_ray.sources.tables import read_table


def _load_queries(path: str, n_queries: int):
    """Driver-side load of the (small) query set only — row-group predicate
    pushdown, never the full corpus."""
    cols = pq.read_table(
        path, columns=["vec_id", "embedding"], filters=[("vec_id", "<", n_queries)]
    )
    ids = np.asarray(cols["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.array(cols["embedding"].to_pylist(), dtype=np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    return ids, mat


def _load_train_sample(path: str, n: int) -> np.ndarray:
    """First ``n`` rows via streamed record batches — bounded driver memory
    regardless of corpus size."""
    pf = pq.ParquetFile(path)
    got = []
    remaining = n
    for rb in pf.iter_batches(batch_size=min(n, 4096), columns=["embedding"]):
        got.append(np.array(rb["embedding"].to_pylist(), dtype=np.float64))
        remaining -= rb.num_rows
        if remaining <= 0:
            break
    mat = np.concatenate(got)[:n]
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


class _TopKPartial:
    """map_batches: one matmul per batch → per-query top-k partial rows."""

    def __init__(self, queries_ref, k: int):
        self.qids, self.qmat = ray.get(queries_ref)
        self.k = k

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        ids = df["vec_id"].to_numpy(dtype=np.int64)
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        sims = self.qmat @ mat.T  # (Q, batch)
        out = {"qid": [], "neighbor_id": [], "sim": []}
        for qi, qid in enumerate(self.qids):
            s = sims[qi]
            mask = ids != qid  # exclude self-match
            cand_ids, cand_s = ids[mask], s[mask]
            if cand_ids.size == 0:
                continue
            k = min(self.k, cand_ids.size)
            part = np.argpartition(-cand_s, k - 1)[:k]
            out["qid"] += [int(qid)] * k
            out["neighbor_id"] += cand_ids[part].tolist()
            out["sim"] += cand_s[part].tolist()
        return pd.DataFrame(
            {
                "qid": pd.Series(out["qid"], dtype="int64"),
                "neighbor_id": pd.Series(out["neighbor_id"], dtype="int64"),
                "sim": pd.Series(out["sim"], dtype="float64"),
            }
        )


# per-worker state caches (agg.worker_cached): one zero-copy ray.get per
# worker


def _topk_partial_batch(df, queries_ref, k):
    key = ("bf", queries_ref.hex(), k)
    return worker_cached(key, lambda: _TopKPartial(queries_ref, k))(df)


def _ivf_partial_batch(df, state_ref, k):
    key = ("ivf", state_ref.hex(), k)
    return worker_cached(key, lambda: _IvfPartial(state_ref, k))(df)


def _final_topk(df: pd.DataFrame, k: int) -> pd.DataFrame:
    df = df.sort_values(["sim", "neighbor_id"], ascending=[False, True], kind="mergesort")
    df = df.head(k).reset_index(drop=True)
    df["rank"] = pd.Series(range(1, len(df) + 1), dtype="int64")
    return df[["qid", "neighbor_id", "rank"]]


def ann_bruteforce_topk(
    sf_dir: str, n_queries: int = 8, k: int = 5
) -> ray.data.Dataset:
    """Exact cosine top-k for the first ``n_queries`` vectors (vec_id <
    n_queries) over the whole embeddings table.
    Output: (qid, neighbor_id, rank), rank 1 = most similar."""
    path = f"{sf_dir}/embeddings.parquet"
    queries_ref = ray.put(_load_queries(path, n_queries))
    ds = read_table(path, columns=["vec_id", "embedding"])
    partials = ds.map_batches(
        _topk_partial_batch,
        fn_kwargs={"queries_ref": queries_ref, "k": k},
        batch_format="pandas",
        batch_size=2048,
    )
    return partials.groupby("qid").map_groups(
        lambda g: _final_topk(g, k), batch_format="pandas"
    )


# --- radius (range) search ----------------------------------------------------

PPM = 1_000_000
#: ppm slack for the matmul prefilter: blocked-sum matmul and the exact
#: sequential dot differ by ≲1e-12 relative — 10 ppm is orders beyond it
_RADIUS_FILTER_SLACK_PPM = 10


class _RadiusPartial:
    """map_batches radius search: ONE matmul prefilters each batch with a
    slack margin, then the few surviving candidates are re-scored with
    the exact sequential dot/(|a|·|b|) + round-half-up ppm arithmetic the
    DuckDB oracle mirrors (same formulation as dedup.py's cosine verify —
    matmul's blocked summation is NOT bit-stable across layouts, the
    per-pair dot is)."""

    def __init__(self, queries_ref, threshold_ppm: int):
        qids, qraw = ray.get(queries_ref)
        self.qids = qids
        self.qraw = qraw  # UN-normalized float64 rows
        self.qnorm = np.array([float(np.sqrt(q @ q)) for q in qraw])
        self.qmat = qraw / self.qnorm[:, None]
        self.threshold_ppm = threshold_ppm

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        ids = df["vec_id"].to_numpy(dtype=np.int64)
        raw = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", raw, raw))
        sims = (self.qmat @ raw.T) / norms[None, :]  # (Q, batch), approx
        cut = (self.threshold_ppm - _RADIUS_FILTER_SLACK_PPM) / PPM
        out = {"qid": [], "neighbor_id": [], "cosine_ppm": []}
        for qi, qid in enumerate(self.qids):
            cand = np.flatnonzero((sims[qi] >= cut) & (ids != qid))
            for j in cand:
                c = float(self.qraw[qi] @ raw[j]) / (
                    self.qnorm[qi] * float(np.sqrt(raw[j] @ raw[j]))
                )
                ppm = int(np.floor(c * PPM + 0.5))
                if ppm >= self.threshold_ppm:
                    out["qid"].append(int(qid))
                    out["neighbor_id"].append(int(ids[j]))
                    out["cosine_ppm"].append(ppm)
        return pd.DataFrame(
            {
                "qid": pd.Series(out["qid"], dtype="int64"),
                "neighbor_id": pd.Series(out["neighbor_id"], dtype="int64"),
                "cosine_ppm": pd.Series(out["cosine_ppm"], dtype="int64"),
            }
        )


def _radius_partial_batch(df, queries_ref, threshold_ppm):
    key = ("radius", queries_ref.hex(), threshold_ppm)
    return worker_cached(key, lambda: _RadiusPartial(queries_ref, threshold_ppm))(df)


def _load_raw_queries(path: str, n_queries: int):
    cols = pq.read_table(
        path, columns=["vec_id", "embedding"], filters=[("vec_id", "<", n_queries)]
    )
    ids = np.asarray(cols["vec_id"].to_pylist(), dtype=np.int64)
    return ids, np.array(cols["embedding"].to_pylist(), dtype=np.float64)


def ann_radius_search(
    sf_dir: str, n_queries: int = 8, threshold_ppm: int = 250_000
) -> ray.data.Dataset:
    """Range similarity search: ALL corpus vectors within cosine ≥
    threshold of each query (vec_id < n_queries), not just the top k —
    the retrieval shape dedup/contamination sweeps need. Pure map: the
    query matrix broadcasts once via ``ray.put``; each batch emits only
    its in-radius rows, so there is NO exchange at all downstream.
    Output: (qid, neighbor_id, cosine_ppm), self-matches excluded."""
    path = f"{sf_dir}/embeddings.parquet"
    queries_ref = ray.put(_load_raw_queries(path, n_queries))
    ds = read_table(path, columns=["vec_id", "embedding"])
    return ds.map_batches(
        _radius_partial_batch,
        fn_kwargs={"queries_ref": queries_ref, "threshold_ppm": threshold_ppm},
        batch_format="pandas",
        batch_size=2048,
    )


# --- IVF (inverted-file) variant --------------------------------------------


def _kmeans(mat: np.ndarray, n_clusters: int, iters: int, seed: int) -> np.ndarray:
    rng = np.random.RandomState(seed)
    centroids = mat[rng.choice(len(mat), size=min(n_clusters, len(mat)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(mat @ centroids.T, axis=1)
        for c in range(centroids.shape[0]):
            members = mat[assign == c]
            if len(members):
                v = members.mean(axis=0)
                centroids[c] = v / (np.linalg.norm(v) or 1.0)
    return centroids


class _IvfPartial:
    """Per-batch IVF search: assign batch rows to centroids, score each
    query only against rows in its probe clusters."""

    def __init__(self, state_ref, k: int):
        self.qids, self.qmat, self.centroids, self.probes = ray.get(state_ref)
        self.k = k

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        ids = df["vec_id"].to_numpy(dtype=np.int64)
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        assign = np.argmax(mat @ self.centroids.T, axis=1)
        out = {"qid": [], "neighbor_id": [], "sim": []}
        for qi, qid in enumerate(self.qids):
            mask = np.isin(assign, self.probes[qi]) & (ids != qid)
            if not mask.any():
                continue
            cand_ids, cand = ids[mask], mat[mask]
            s = cand @ self.qmat[qi]
            k = min(self.k, len(cand_ids))
            part = np.argpartition(-s, k - 1)[:k]
            out["qid"] += [int(qid)] * k
            out["neighbor_id"] += cand_ids[part].tolist()
            out["sim"] += s[part].tolist()
        return pd.DataFrame(
            {
                "qid": pd.Series(out["qid"], dtype="int64"),
                "neighbor_id": pd.Series(out["neighbor_id"], dtype="int64"),
                "sim": pd.Series(out["sim"], dtype="float64"),
            }
        )


def ann_ivf_topk(
    sf_dir: str,
    n_queries: int = 8,
    k: int = 5,
    n_clusters: int = 16,
    n_probe: int = 4,
    train_sample: int = 4096,
    seed: int = 42,
) -> ray.data.Dataset:
    """IVF approximate top-k: seeded k-means over a bounded driver-side
    sample (NOT the full corpus — at 10^12 rows the sample stays 4096),
    then probe-limited batch search. Output: (qid, neighbor_id, rank)."""
    path = f"{sf_dir}/embeddings.parquet"
    train = _load_train_sample(path, train_sample)
    centroids = _kmeans(train, n_clusters, iters=5, seed=seed)
    qids, qmat = _load_queries(path, n_queries)
    probe_order = np.argsort(-(qmat @ centroids.T), axis=1)[:, :n_probe]
    state_ref = ray.put((qids, qmat, centroids, probe_order))
    ds = read_table(path, columns=["vec_id", "embedding"])
    partials = ds.map_batches(
        _ivf_partial_batch,
        fn_kwargs={"state_ref": state_ref, "k": k},
        batch_format="pandas",
        batch_size=2048,
    )
    return partials.groupby("qid").map_groups(
        lambda g: _final_topk(g, k), batch_format="pandas"
    )


# --- distributed k-means (iterative synchronous clustering) -------------------

KMEANS_K = 8
KMEANS_ITERS = 3
_Q_SCALE = 1_000_000  # micro-unit quantization (exact in float64/int64)


def _quantize(mat: np.ndarray) -> np.ndarray:
    """floor(1e6·x) micro-units: |x| < 1 ⇒ |q| ≤ 1e6, so every product
    and 64-dim sum below stays < 2^53 — bit-exact in BOTH numpy int64
    and DuckDB DOUBLE, which is what lets the oracle replay the whole
    iteration (same trick as lang_embedding_centroids)."""
    return np.floor(mat.astype(np.float64) * _Q_SCALE).astype(np.int64)


def _assign(q: np.ndarray, cl_ids: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Nearest centroid by integer L2², ties → lowest cluster id
    (cl_ids is sorted ascending; argmin keeps the first minimum)."""
    d = (
        (q * q).sum(axis=1, keepdims=True)
        - 2 * (q @ cents.T)
        + (cents * cents).sum(axis=1)[None, :]
    )
    return cl_ids[np.argmin(d, axis=1)]


def kmeans_clusters(
    sf_dir: str, k: int = KMEANS_K, iters: int = KMEANS_ITERS
) -> ray.data.Dataset:
    """Distributed Lloyd's k-means over the embeddings table — the
    engine's iterative-algorithm shape. Fully deterministic: centroids
    are quantized int64 micro-units, init is the first ``k`` vectors by
    vec_id, updates are element-wise integer floor-division means, and
    tie-breaks go to the lowest cluster id — so a fixed-iteration DuckDB
    oracle replays every round bit-for-bit.

    Scale shape per iteration: the k×dim centroid plane (scalar-sized)
    broadcasts via ``ray.put``; each batch assigns locally and emits ONE
    (cluster, sum-vector, count) partial row per cluster — the exchange
    moves ≤ k rows per batch, never vectors; a tiny bucketed reduce +
    driver floor-div closes the round (the per-round driver artifact is
    k×dim ints — same contract as the Bloom/IVF broadcasts). Empty
    clusters drop out (their id simply stops being assignable). The
    final pass re-assigns and emits (vec_id, cluster).

    The corpus is quantized ONCE and ``materialize()``-d: each of the
    ``iters``+1 passes re-scans those spill-backed object-store blocks
    instead of re-reading + re-quantizing the parquet per round — the
    standard persist-the-working-set trade for iterative algorithms
    (the one place mid-pipeline materialization is the right call)."""
    from zerox_ray.pipelines.agg import bucketed_group_map

    path = f"{sf_dir}/embeddings.parquet"

    def quantize_rows(df: pd.DataFrame) -> pd.DataFrame:
        qm = _quantize(np.array(df["embedding"].to_list(), dtype=np.float64))
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].astype("int64"),
                "qb": [row.tobytes() for row in qm],
            }
        )

    ds = (
        read_table(path, columns=["vec_id", "embedding"])
        .map_batches(quantize_rows, batch_format="pandas")
        .materialize()
    )

    init = pq.read_table(
        path, columns=["vec_id", "embedding"], filters=[("vec_id", "<", k)]
    )
    order = np.argsort(np.asarray(init["vec_id"].to_pylist(), dtype=np.int64))
    cl_ids = np.asarray(init["vec_id"].to_pylist(), dtype=np.int64)[order]
    cents = _quantize(np.array(init["embedding"].to_pylist(), dtype=np.float64))[order]

    dim = cents.shape[1]

    def _unpack(df: pd.DataFrame) -> np.ndarray:
        # one frombuffer over the concatenated fixed-width rows — this
        # sits in the per-batch inner loop of every Lloyd round
        return np.frombuffer(b"".join(df["qb"]), dtype=np.int64).reshape(
            len(df), dim
        )

    for _ in range(iters):
        state_ref = ray.put((cl_ids, cents))

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:  # empty block → empty partial, not AxisError
                return pd.DataFrame(
                    {
                        "cl": pd.Series([], dtype="int64"),
                        "s": pd.Series([], dtype=object),
                        "n": pd.Series([], dtype="int64"),
                    }
                )
            ids, c = ray.get(state_ref)
            q = _unpack(df)
            cl = _assign(q, ids, c)
            rows = []
            for u in np.unique(cl):
                m = cl == u
                rows.append(
                    {
                        "cl": int(u),
                        "s": q[m].sum(axis=0).tobytes(),
                        "n": int(m.sum()),
                    }
                )
            out = pd.DataFrame(rows)
            return out.astype({"cl": "int64", "n": "int64"})

        def merge(g: pd.DataFrame) -> pd.DataFrame:
            out_rows = []
            for u, h in g.groupby("cl", sort=True):
                s = np.stack(
                    [np.frombuffer(b, dtype=np.int64) for b in h["s"]]
                ).sum(axis=0)
                out_rows.append(
                    {"cl": int(u), "s": s.tobytes(), "n": int(h["n"].sum())}
                )
            return pd.DataFrame(out_rows).astype({"cl": "int64", "n": "int64"})

        reduced = bucketed_group_map(
            ds.map_batches(partial, batch_format="pandas"), "cl", merge
        ).to_pandas()  # ≤ k rows — scalar-sized per-round artifact
        reduced = reduced.sort_values("cl")
        cl_ids = reduced["cl"].to_numpy(dtype=np.int64)
        cents = np.stack(
            [
                np.frombuffer(b, dtype=np.int64) // n
                for b, n in zip(reduced["s"], reduced["n"])
            ]
        )
        assert cents.shape[1] == dim

    final_ref = ray.put((cl_ids, cents))

    def final_assign(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "vec_id": pd.Series([], dtype="int64"),
                    "cluster": pd.Series([], dtype="int64"),
                }
            )
        ids, c = ray.get(final_ref)
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].astype("int64"),
                "cluster": _assign(_unpack(df), ids, c).astype(np.int64),
            }
        )

    return ds.map_batches(final_assign, batch_format="pandas")


# --- semantic dedup (SemDeDup) ------------------------------------------------

#: coarser quantization for the cosine stage: |q| ≤ 1e4 keeps integer
#: dots ≤ dim·1e8 = 6.4e9 — exact in DOUBLE whatever the summation
#: order, so the DuckDB oracle's list_dot_product reproduces them
_SEM_Q_SCALE = 10_000
#: the synthetic embeddings top out near cos ≈ 0.51, so the default sits
#: where real drops happen at every sf (the operator's semantics are
#: threshold-independent; production SemDeDup uses ~0.95+)
SEM_THRESHOLD_PPM = 400_000


def _semantic_group(g: pd.DataFrame, threshold_ppm: int) -> pd.DataFrame:
    """One k-means cluster → (vec_id, cluster, kept, dup_of): a vector is
    a duplicate iff some LOWER-id vector in the same cluster has cosine
    ≥ threshold (deterministic, order-free — unlike the paper's greedy
    keep-one-per-component sweep, every (a,b) decision depends only on
    that pair, which is what makes the rule SQL-mirrorable).

    Exactness: cos(a,b) ≥ t/1e6 ⟺ dot ≥ 0 ∧ dot²·1e12 ≥ t²·|a|²·|b|².
    Both sides reach ~4e31 — beyond float64 — so the compare runs in
    float64 with a relative guard band and only band-straddling pairs
    re-check in exact (unbounded) Python ints; the oracle's HUGEINT
    arithmetic (≤ 2^126) is exact outright."""
    ids = g["vec_id"].to_numpy(dtype=np.int64)
    order = np.argsort(ids)
    ids = ids[order]
    qb = g["q4b"].to_numpy()[order]
    q = np.frombuffer(b"".join(qb), dtype=np.int64).reshape(len(ids), -1)
    dots = q @ q.T
    n2 = np.einsum("ij,ij->i", q, q)
    tp = int(threshold_ppm)
    lhs = dots.astype(np.float64) ** 2 * 1e12
    rhs = float(tp) ** 2 * np.outer(
        n2.astype(np.float64), n2.astype(np.float64)
    )
    ge = (dots >= 0) & (lhs >= rhs)
    band = (dots >= 0) & (
        np.abs(lhs - rhs) <= 1e-6 * np.maximum(np.abs(lhs), np.abs(rhs))
    )
    for i, j in zip(*np.nonzero(band)):
        d = int(dots[i, j])
        ge[i, j] = d >= 0 and d * d * 10**12 >= tp * tp * int(n2[i]) * int(n2[j])
    # ids are sorted ascending, so "lower-id dup source" = strict upper
    # triangle rows
    sim = ge & np.triu(np.ones_like(ge, dtype=bool), k=1)
    has = sim.any(axis=0)
    dup_of = np.full(len(ids), -1, dtype=np.int64)
    if has.any():
        first = sim.argmax(axis=0)  # lowest row index = lowest vec_id
        dup_of[has] = ids[first[has]]
    return pd.DataFrame(
        {
            "vec_id": ids,
            "cluster": np.full(len(ids), int(g["cluster"].iloc[0]), np.int64),
            "kept": (~has).astype(np.int64),
            "dup_of": dup_of,
        }
    )


def semantic_dedup(
    sf_dir: str,
    k: int = KMEANS_K,
    iters: int = KMEANS_ITERS,
    threshold_ppm: int = SEM_THRESHOLD_PPM,
) -> ray.data.Dataset:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): embedding-space
    near-duplicate pruning at corpus scale — k-means partitions the
    embedding space so the O(n²) cosine comparison runs WITHIN clusters
    only, never across the corpus.

    Scale shape: the distributed Lloyd's rounds come from
    ``kmeans_clusters`` (≤k partial rows per batch per round); the
    narrow (vec_id, cluster) assignment is looked up from the streamed
    1e-4-quantized vectors (``lookup_join``: a broadcast while it fits,
    so the vector payload never enters a join exchange); ONE
    groupby(cluster) co-locates
    each cluster, and the pairwise check is a vectorized integer matmul
    per cluster. Cluster size bounds the quadratic term — at 10^12 docs
    pick k ~ n/5k like the paper so a cluster's vectors fit one task.
    Output: (vec_id, cluster, kept, dup_of) — dup_of = lowest-id
    same-cluster vector with cosine ≥ threshold, else -1."""
    from zerox_ray.pipelines.relational import lookup_join

    clusters = kmeans_clusters(sf_dir, k, iters)

    def quantize4(df: pd.DataFrame) -> pd.DataFrame:
        qm = np.floor(
            np.array(df["embedding"].to_list(), dtype=np.float64) * _SEM_Q_SCALE
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].astype("int64"),
                "q4b": [row.tobytes() for row in qm],
            }
        )

    qemb = read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(quantize4, batch_format="pandas")
    joined = lookup_join(qemb, clusters, on="vec_id")
    return joined.groupby("cluster").map_groups(
        _semantic_group,
        batch_format="pandas",
        fn_kwargs={"threshold_ppm": threshold_ppm},
    )


#: embedding_moments quantization — milli-units, not the _Q_SCALE micro
#: used by the distance kernels: moment sums accumulate over EVERY row
#: of the corpus, and |q| ≤ 1e3 keeps Σ q_i·q_j inside int64 out to
#: ~3.7e13 rows (micro-units would cap exactness at ~9e6 rows)
_MOM_SCALE = 1_000


def embedding_moments(sf_dir: str) -> ray.data.Dataset:
    """Distributed covariance sufficient statistics over the embedding
    column — the (n, Σx_i, Σx_j, Σx_i·x_j) moment table feeding PCA /
    whitening / drift monitoring of an embedding corpus (LeCun-style
    input normalization, SemDeDup's pre-clustering whitening step).
    Consumers form cov(i,j) = (n·s_ij − s_i·s_j) / n² without ever
    touching the vectors again.

    Scale shape: the classic one-pass moment reduce — each batch
    contributes one d×d integer Gram matrix (ONE int64 matmul, fully
    vectorized) flattened to its d(d+1)/2 upper triangle, then ONE
    grouped sum on (dim_i, dim_j). The exchange moves ≤ 2,080 rows per
    batch (d = 64) regardless of corpus size, and the result is 2,080
    rows total — never a driver pull of data rows. Values are
    floor(1e3·x) milli-units so numpy int64 and DuckDB HUGEINT agree
    bit-for-bit (see _MOM_SCALE for the exactness bound).

    Output: (dim_i, dim_j, n_rows, s_i, s_j, s_ij) for dim_i ≤ dim_j."""
    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(df["embedding"].to_numpy())
        q = np.floor(mat.astype(np.float64) * _MOM_SCALE).astype(np.int64)
        g = q.T @ q
        s1 = q.sum(axis=0)
        iu, ju = np.triu_indices(q.shape[1])
        return pd.DataFrame(
            {
                "dim_i": iu.astype(np.int64),
                "dim_j": ju.astype(np.int64),
                "n_rows": np.int64(len(q)),
                "s_i": s1[iu],
                "s_j": s1[ju],
                "s_ij": g[iu, ju],
            }
        )

    return bucketed_group_agg(
        ds.map_batches(partial, batch_format="pandas"),
        ["dim_i", "dim_j"],
        {
            "n_rows": ("n_rows", "sum"),
            "s_i": ("s_i", "sum"),
            "s_j": ("s_j", "sum"),
            "s_ij": ("s_ij", "sum"),
        },
    )


PCA_ROUNDS = 3  # fixed power-iteration rounds (SQL-unrolled)


def embedding_principal(sf_dir: str, rounds: int = PCA_ROUNDS) -> ray.data.Dataset:
    """Top principal direction of the embedding corpus via fixed-round
    integer power iteration over the one-pass covariance — the
    drift-monitoring / whitening primitive downstream of
    ``embedding_moments`` (ABBA/mean-shift detectors track this vector
    across corpus snapshots; SemDeDup-style pipelines whiten along it).
    Output: (dim, component_milli) — the iterate after ``rounds``
    multiplications by the scaled covariance n·Σxx − ΣxΣxᵀ, renormalized
    each round to max-abs = 1000 with truncation toward zero, from the
    all-1000 start vector. Fully deterministic integer arithmetic, so a
    ``rounds``-unrolled SQL oracle (HUGEINT) replays it bit-for-bit; the
    float eigenvector is the rounds→∞ limit of component_milli / 1000.

    Scale shape: ALL the data-proportional work is ``embedding_moments``
    (per batch ONE int64 Gram matmul, exchange ≤ d(d+1)/2 rows/batch);
    the driver pull is the d(d+1)/2-row moment table (2,080 rows at
    d = 64 — a scalar-sized model, never data rows) and the iteration is
    O(rounds·d²) Python big-int work on the driver, exactly the k-means
    "model on driver, data in the cluster" contract. Big-int covariance
    entries are REQUIRED at scale: n·s_ij overflows int64 beyond ~10⁹
    rows, which pandas would silently wrap — hence the object-dtype
    pull."""
    mom = embedding_moments(sf_dir).to_pandas()
    if len(mom) == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "dim": pa.array([], pa.int64()),
                    "component_milli": pa.array([], pa.int64()),
                }
            )
        )
    d = int(mom["dim_j"].max()) + 1
    # exact big-int scaled covariance: C = n·s_ij − s_i·s_j (symmetric)
    C = [[0] * d for _ in range(d)]
    for dim_i, dim_j, n_rows, s_i, s_j, s_ij in mom[
        ["dim_i", "dim_j", "n_rows", "s_i", "s_j", "s_ij"]
    ].itertuples(index=False):
        c = int(n_rows) * int(s_ij) - int(s_i) * int(s_j)
        C[int(dim_i)][int(dim_j)] = c
        C[int(dim_j)][int(dim_i)] = c

    v = [1000] * d
    for _ in range(rounds):
        w = [sum(C[i][j] * v[j] for j in range(d)) for i in range(d)]
        m = max(abs(x) for x in w)
        if m == 0:
            v = [0] * d
            break
        # truncate toward zero (DuckDB // semantics; Python // floors)
        v = [(1000 * abs(x) // m) * (1 if x >= 0 else -1) for x in w]

    return ray.data.from_arrow(
        pa.table(
            {
                "dim": pa.array(list(range(d)), pa.int64()),
                "component_milli": pa.array(v, pa.int64()),
            }
        )
    )


# --- int8 affine quantization (the ANN memory-shrink primitive) ---------------


def _affine_quant_params(ds: ray.data.Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension (qmin, rng) of the milli-quantized corpus — the
    affine-quantizer codebook shared by ``embedding_quantize`` and
    ``ann_quantized_topk``. One grouped min/max exchange, a d-row
    (=64) driver pull; rng floored at 1 so constant dimensions still
    divide cleanly."""

    def mm_partial(df: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack(df["embedding"].to_numpy())
        q = np.floor(mat.astype(np.float64) * 1000).astype(np.int64)
        d = q.shape[1]
        return pd.DataFrame(
            {
                "dim": np.arange(d, dtype=np.int64),
                "qmin": q.min(axis=0),
                "qmax": q.max(axis=0),
            }
        )

    mm = (
        bucketed_group_agg(
            ds.map_batches(mm_partial, batch_format="pandas"),
            ["dim"],
            {"qmin": ("qmin", "min"), "qmax": ("qmax", "max")},
        )
        .to_pandas()  # d rows — bounded driver state
        .sort_values("dim")
    )
    qmin = mm["qmin"].to_numpy(np.int64)
    rng = np.maximum(mm["qmax"].to_numpy(np.int64) - qmin, 1)
    return qmin, rng


def _dequant_milli(mat: np.ndarray, qmin: np.ndarray, rng: np.ndarray) -> np.ndarray:
    """float rows → affine uint8 codes → dequantized int64 milli rows
    (the exact values the quantized scan scores with)."""
    q = np.floor(mat.astype(np.float64) * 1000).astype(np.int64)
    c = ((q - qmin) * 255) // rng
    return qmin + (c * rng) // 255


def embedding_quantize(sf_dir: str) -> ray.data.Dataset:
    """Per-dimension affine uint8 quantization of the embedding corpus —
    the standard memory-shrink step in front of large-scale ANN (a
    billion float32×64 vectors are 256 GB; their uint8 codes are 64 GB,
    and IVF/scan kernels read codes, not floats). Scalar quantization is
    the 1-sub-quantizer case of product quantization (Jégou et al. 2011,
    "Product Quantization for Nearest Neighbor Search").

    Two passes, both bounded:
    1. per-dimension (qmin, qmax) over milli-quantized values
       (floor(1e3·x), the embedding_moments exactness idiom) — per-batch
       partials, ONE grouped min/max exchange, a d-row (=64) driver pull
       broadcast back via ray.put;
    2. a shuffle-free streaming pass computing each vector's codes
       c_j = ⌊(q_j − qmin_j)·255 / rng_j⌋ — every operand non-negative,
       so numpy and DuckDB floor division agree exactly.

    Output per vector: (vec_id, code_l1, code_chk, recon_err_milli) —
    code_chk = Σ (j+1)·c_j is an order-sensitive checksum that pins
    EVERY code value; recon_err_milli = Σ |q_j − dequant(c_j)| is the
    exact-integer reconstruction error the oracle replays."""

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qmin, rng = _affine_quant_params(ds)
    ref = ray.put((qmin, rng))

    def quantize(df: pd.DataFrame) -> pd.DataFrame:
        lo, r = cached_get("eqnt", ref)
        mat = np.stack(df["embedding"].to_numpy())
        q = np.floor(mat.astype(np.float64) * 1000).astype(np.int64)
        c = ((q - lo) * 255) // r
        deq = lo + (c * r) // 255
        w = np.arange(1, q.shape[1] + 1, dtype=np.int64)
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].astype("int64"),
                "code_l1": c.sum(axis=1),
                "code_chk": (c * w).sum(axis=1),
                "recon_err_milli": np.abs(q - deq).sum(axis=1),
            }
        )

    return ds.map_batches(quantize, batch_format="pandas")


def ann_quantized_topk(
    sf_dir: str, n_queries: int = 8, k: int = 5
) -> ray.data.Dataset:
    """Top-k maximum-inner-product search over the QUANTIZED corpus —
    the scan that justifies ``embedding_quantize``: scores are integer
    dot products of dequantized uint8 codes (what a production
    IVF/PQ scan computes from its code tables), so a 100 TB float
    corpus is searched while touching only its 1/4-size code
    representation. All arithmetic is int64 end-to-end, so the DuckDB
    oracle replays every score bit-for-bit — this value-checks the
    whole quantized path (codebook, codes, scoring), not just row
    shapes.

    Scale shape: codebook = one d-row exchange (_affine_quant_params);
    queries (vec_id < n_queries) are quantized once on the driver and
    ray.put-broadcast; each batch computes ONE (Q × batch) int64 matmul
    and emits its local top-k per query (~Q·k rows per batch); ONE tiny
    groupby on qid merges partials. Ties break on neighbor_id so ranks
    are deterministic. Output: (qid, neighbor_id, rank, score)."""

    path = f"{sf_dir}/embeddings.parquet"
    ds = read_table(path, columns=["vec_id", "embedding"])
    qmin, rng = _affine_quant_params(ds)
    ids, qraw = _load_raw_queries(path, n_queries)
    qdeq = _dequant_milli(qraw, qmin, rng)  # (Q, d) int64
    ref = ray.put((ids, qdeq, qmin, rng))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        qids, qd, lo, r = cached_get("annq", ref)
        vids = df["vec_id"].to_numpy(dtype=np.int64)
        deq = _dequant_milli(np.stack(df["embedding"].to_numpy()), lo, r)
        s = qd @ deq.T  # (Q, batch) exact int64
        out_q, out_n, out_s = [], [], []
        for qi, qid in enumerate(qids):
            keep = vids != qid  # exclude self
            row, nb = s[qi][keep], vids[keep]
            take = min(k, len(nb))
            if take <= 0:
                continue
            # local top-k with the global (−score, neighbor_id) order;
            # scores are bounded (milli² · d), so negation is safe
            order = np.lexsort((nb, -row))[:take]
            out_q += [int(qid)] * take
            out_n += nb[order].tolist()
            out_s += row[order].tolist()
        return pd.DataFrame(
            {
                "qid": pd.Series(out_q, dtype="int64"),
                "neighbor_id": pd.Series(out_n, dtype="int64"),
                "score": pd.Series(out_s, dtype="int64"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=2048)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for qid, grp in g.groupby("qid", sort=False):
            top = grp.sort_values(
                ["score", "neighbor_id"], ascending=[False, True]
            ).head(k)
            out.append(
                pd.DataFrame(
                    {
                        "qid": top["qid"].astype("int64"),
                        "neighbor_id": top["neighbor_id"].astype("int64"),
                        "rank": pd.Series(
                            range(1, len(top) + 1), dtype="int64", index=top.index
                        ),
                        "score": top["score"].astype("int64"),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    return partials.groupby("qid").map_groups(final, batch_format="pandas")


def hard_negatives(
    sf_dir: str, n_queries: int = 8, k: int = 5
) -> ray.data.Dataset:
    """Hard-negative mining for metric-learning / embedding-model
    training data: for each query vector, the top-k most similar
    corpus vectors with a DIFFERENT label — the highest-loss negatives
    a contrastive trainer wants (the ANN shape of dataset curation,
    not search). Output: (qid, neighbor_id, rank).

    Scale shape: identical to ``ann_bruteforce_topk`` — queries
    broadcast once, per-batch matmul + label-mask + local top-k
    partials, one tiny qid reduce. The label filter is a vectorized
    mask, so mining cost equals plain search cost."""
    path = f"{sf_dir}/embeddings.parquet"
    cols = pq.read_table(
        path,
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "<", n_queries)],
    )
    qids = np.asarray(cols["vec_id"].to_pylist(), dtype=np.int64)
    qmat = np.array(cols["embedding"].to_pylist(), dtype=np.float64)
    qmat = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    qlabels = np.asarray(cols["label"].to_pylist(), dtype=np.int64)
    ref = ray.put((qids, qmat, qlabels))

    ds = read_table(path, columns=["vec_id", "embedding", "label"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ids_q, qm, ql = cached_get("hardneg", ref)
        vids = df["vec_id"].to_numpy(dtype=np.int64)
        labels = df["label"].to_numpy(dtype=np.int64)
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        sims = qm @ mat.T
        out = {"qid": [], "neighbor_id": [], "sim": []}
        for qi, qid in enumerate(ids_q):
            keep = (labels != ql[qi]) & (vids != qid)
            cand_ids, cand_s = vids[keep], sims[qi][keep]
            if cand_ids.size == 0:
                continue
            kk = min(k, cand_ids.size)
            part = np.argpartition(-cand_s, kk - 1)[:kk]
            out["qid"] += [int(qid)] * kk
            out["neighbor_id"] += cand_ids[part].tolist()
            out["sim"] += cand_s[part].tolist()
        return pd.DataFrame(
            {
                "qid": pd.Series(out["qid"], dtype="int64"),
                "neighbor_id": pd.Series(out["neighbor_id"], dtype="int64"),
                "sim": pd.Series(out["sim"], dtype="float64"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=2048)
    return partials.groupby("qid").map_groups(
        lambda g: _final_topk(g, k), batch_format="pandas"
    )


def contrastive_triplets(sf_dir: str, n_queries: int = 8) -> ray.data.Dataset:
    """(anchor, positive, negative) training triplets for contrastive /
    metric learning: per query vector, the nearest SAME-label neighbor
    (positive) and the nearest DIFFERENT-label neighbor (the hardest
    negative) — the dataset-prep op behind triplet-loss training.
    Output: (qid, positive_id, negative_id).

    Scale shape: one broadcast-query streaming pass emitting BOTH
    per-batch partials (a top-1 per side per query), one tiny qid
    reduce — mining cost is one corpus scan total, not one per side."""
    path = f"{sf_dir}/embeddings.parquet"
    cols = pq.read_table(
        path,
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "<", n_queries)],
    )
    qids = np.asarray(cols["vec_id"].to_pylist(), dtype=np.int64)
    qmat = np.array(cols["embedding"].to_pylist(), dtype=np.float64)
    qmat = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    qlabels = np.asarray(cols["label"].to_pylist(), dtype=np.int64)
    ref = ray.put((qids, qmat, qlabels))

    ds = read_table(path, columns=["vec_id", "embedding", "label"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ids_q, qm, ql = cached_get("triplets", ref)
        vids = df["vec_id"].to_numpy(dtype=np.int64)
        labels = df["label"].to_numpy(dtype=np.int64)
        mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        sims = qm @ mat.T
        rows = {"qid": [], "side": [], "neighbor_id": [], "sim": []}
        for qi, qid in enumerate(ids_q):
            nonself = vids != qid
            for side, mask in (
                (1, nonself & (labels == ql[qi])),   # positive side
                (0, nonself & (labels != ql[qi])),   # negative side
            ):
                cand = np.flatnonzero(mask)
                if cand.size == 0:
                    continue
                s = sims[qi][cand]
                # batch-local best with the global (−sim, id) order
                j = cand[np.lexsort((vids[cand], -s))[0]]
                rows["qid"].append(int(qid))
                rows["side"].append(side)
                rows["neighbor_id"].append(int(vids[j]))
                rows["sim"].append(float(sims[qi][j]))
        return pd.DataFrame(
            {
                "qid": pd.Series(rows["qid"], dtype="int64"),
                "side": pd.Series(rows["side"], dtype="int64"),
                "neighbor_id": pd.Series(rows["neighbor_id"], dtype="int64"),
                "sim": pd.Series(rows["sim"], dtype="float64"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=2048)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for qid, grp in g.groupby("qid", sort=False):
            best = {}
            for side in (0, 1):
                s = grp[grp["side"] == side].sort_values(
                    ["sim", "neighbor_id"], ascending=[False, True],
                    kind="mergesort",
                )
                if len(s):
                    best[side] = int(s["neighbor_id"].iloc[0])
            if 0 in best and 1 in best:
                out.append((int(qid), best[1], best[0]))
        return pd.DataFrame(
            out, columns=["qid", "positive_id", "negative_id"]
        ).astype("int64")

    return partials.groupby("qid").map_groups(final, batch_format="pandas")


# --- truncated-dimension recall (Matryoshka evaluation) ------------------------

TRUNC_DIMS = (64, 32, 16, 8)


class _TruncTopKPartial:
    """map_batches: per truncation dim, one matmul over the PREFIX
    coordinates → per-(dim, query) top-k partial rows. The batch matrix
    is loaded once; each dim reuses its prefix (no extra scan)."""

    def __init__(self, queries_ref, dims: tuple[int, ...], k: int):
        qids, qraw = ray.get(queries_ref)
        self.qids = qids
        self.dims = dims
        self.k = k
        # per-dim prefix-normalized query matrices
        self.qmats = {
            d: qraw[:, :d] / np.linalg.norm(qraw[:, :d], axis=1, keepdims=True)
            for d in dims
        }

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        ids = df["vec_id"].to_numpy(dtype=np.int64)
        raw = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        frames = []
        for d in self.dims:
            mat = raw[:, :d]
            mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
            sims = self.qmats[d] @ mat.T
            out = {"dim": [], "qid": [], "neighbor_id": [], "sim": []}
            for qi, qid in enumerate(self.qids):
                s = sims[qi]
                mask = ids != qid
                cand_ids, cand_s = ids[mask], s[mask]
                if cand_ids.size == 0:
                    continue
                k = min(self.k, cand_ids.size)
                part = np.argpartition(-cand_s, k - 1)[:k]
                out["dim"] += [d] * k
                out["qid"] += [int(qid)] * k
                out["neighbor_id"] += cand_ids[part].tolist()
                out["sim"] += cand_s[part].tolist()
            frames.append(pd.DataFrame(out))
        res = pd.concat(frames, ignore_index=True)
        return res.astype(
            {"dim": "int64", "qid": "int64", "neighbor_id": "int64", "sim": "float64"}
        )


def _trunc_partial_batch(df, queries_ref, dims, k):
    key = ("trunc", queries_ref.hex(), dims, k)
    return worker_cached(key, lambda: _TruncTopKPartial(queries_ref, dims, k))(df)


def ann_truncated_recall(
    sf_dir: str,
    dims: tuple[int, ...] = TRUNC_DIMS,
    n_queries: int = 8,
    k: int = 5,
) -> pd.DataFrame:
    """Matryoshka-style truncation evaluation: exact cosine top-k using
    only the first ``d`` embedding coordinates, for each d in ``dims``,
    and the overlap of each truncated result set with the FULL-dimension
    top-k (dims[0] must be the full dim — its n_hits is k by
    construction, pinning the join). The operator a training pipeline
    runs before committing to a cheaper truncated index.

    Scale shape: identical to ann_bruteforce_topk — broadcast query
    prefixes, ONE corpus scan computing |dims| prefix matmuls per batch
    (the batch matrix is loaded once), per-(dim, qid) top-k partials →
    tiny (dim, qid) reduce; the driver only sees |dims|·n_queries·k rows.
    Output: (dim, qid, n_hits) — overlap size with the full-dim top-k."""
    path = f"{sf_dir}/embeddings.parquet"
    _load_queries(path, n_queries)  # validates query slice exists
    cols = pq.read_table(
        path, columns=["vec_id", "embedding"], filters=[("vec_id", "<", n_queries)]
    )
    qids = np.asarray(cols["vec_id"].to_pylist(), dtype=np.int64)
    qraw = np.array(cols["embedding"].to_pylist(), dtype=np.float64)
    queries_ref = ray.put((qids, qraw))

    ds = read_table(path, columns=["vec_id", "embedding"])
    partials = ds.map_batches(
        _trunc_partial_batch,
        fn_kwargs={"queries_ref": queries_ref, "dims": tuple(dims), "k": k},
        batch_format="pandas",
        batch_size=2048,
    )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["sim", "neighbor_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return g[["dim", "qid", "neighbor_id"]].astype("int64")

    topk = (
        partials.groupby(["dim", "qid"])
        .map_groups(final, batch_format="pandas")
        .to_pandas()  # |dims|·n_queries·k rows — bounded driver state
    )
    full = topk[topk["dim"] == dims[0]][["qid", "neighbor_id"]]
    full_sets = full.groupby("qid")["neighbor_id"].agg(set).to_dict()
    rows = []
    for (d, qid), sub in topk.groupby(["dim", "qid"]):
        hits = len(set(sub["neighbor_id"]) & full_sets.get(qid, set()))
        rows.append((int(d), int(qid), hits))
    return pd.DataFrame(
        rows, columns=["dim", "qid", "n_hits"]
    ).astype("int64")


# --- product quantization (Jégou et al., TPAMI 2011) ---------------------------

PQ_M = 4      # subspaces
PQ_K = 4      # centroids per subspace
PQ_ITERS = 2  # Lloyd rounds per subspace


def pq_codes(
    sf_dir: str, m: int = PQ_M, k: int = PQ_K, iters: int = PQ_ITERS
) -> ray.data.Dataset:
    """Product quantization: the embedding space is split into ``m``
    contiguous subspaces and a ``k``-centroid integer Lloyd codebook is
    trained PER SUBSPACE (same micro-unit quantization, L2² assignment,
    lowest-id tie break and floor-div centroid update as
    ``kmeans_clusters`` — the replayable-iteration conventions); each
    vector's code is its m nearest sub-centroids. k^m cells from m·k
    centroids — the codebook structure behind every billion-scale ANN
    index (vs ``embedding_quantize``'s m=dim scalar special case).

    Scale shape: the quantized corpus is materialized ONCE; every Lloyd
    round trains ALL m codebooks in a single pass — per batch, m
    assignments against the broadcast (m·k)×(dim/m) centroid planes emit
    ≤ m·k (subspace, cluster, sum-vector, count) partial rows; one tiny
    composite-key reduce + driver floor-div closes the round (driver
    artifact: m·k·(dim/m) = dim·k ints). iters+1 total passes. The
    final pass emits (vec_id, c0..c{m-1}).

    Fully deterministic → the DuckDB oracle replays every round of all
    m codebooks bit-for-bit (unrolled CTE chains per subspace)."""
    path = f"{sf_dir}/embeddings.parquet"
    ds, books, sub, dim, unpack = _train_pq(path, m, k, iters)
    final_ref = ray.put(books)

    def final_codes(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"vec_id": df["vec_id"].astype("int64")}
        if len(df) == 0:
            for si in range(m):
                cols[f"c{si}"] = pd.Series([], dtype="int64")
            return pd.DataFrame(cols)
        bks = ray.get(final_ref)
        q = unpack(df)
        for si, (ids, cents) in enumerate(bks):
            cols[f"c{si}"] = _assign(
                q[:, si * sub : (si + 1) * sub], ids, cents
            ).astype(np.int64)
        return pd.DataFrame(cols)

    return ds.map_batches(final_codes, batch_format="pandas")


def _train_pq(path: str, m: int, k: int, iters: int):
    """Shared PQ training loop (design notes on ``pq_codes``). Returns
    (quantized corpus dataset, per-subspace (ids, centroids) codebooks,
    subspace width, full dim, row-unpack fn)."""
    from zerox_ray.pipelines.agg import bucketed_group_map

    def quantize_rows(df: pd.DataFrame) -> pd.DataFrame:
        qm = _quantize(np.array(df["embedding"].to_list(), dtype=np.float64))
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].astype("int64"),
                "qb": [row.tobytes() for row in qm],
            }
        )

    ds = (
        read_table(path, columns=["vec_id", "embedding"])
        .map_batches(quantize_rows, batch_format="pandas")
        .materialize()
    )

    init = pq.read_table(
        path, columns=["vec_id", "embedding"], filters=[("vec_id", "<", k)]
    )
    order = np.argsort(np.asarray(init["vec_id"].to_pylist(), dtype=np.int64))
    init_ids = np.asarray(init["vec_id"].to_pylist(), dtype=np.int64)[order]
    full = _quantize(np.array(init["embedding"].to_pylist(), dtype=np.float64))[order]
    dim = full.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    sub = dim // m
    # per-subspace codebooks: (cluster ids, centroid plane)
    books = [(init_ids.copy(), full[:, s * sub : (s + 1) * sub].copy()) for s in range(m)]

    def _unpack(df: pd.DataFrame) -> np.ndarray:
        return np.frombuffer(b"".join(df["qb"]), dtype=np.int64).reshape(
            len(df), dim
        )

    _SKEY = 1 << 20  # composite (subspace, cluster) reduce key

    for _ in range(iters):
        state_ref = ray.put(books)

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:
                return pd.DataFrame(
                    {
                        "scl": pd.Series([], dtype="int64"),
                        "s": pd.Series([], dtype=object),
                        "n": pd.Series([], dtype="int64"),
                    }
                )
            bks = ray.get(state_ref)
            q = _unpack(df)
            rows = []
            for si, (ids, cents) in enumerate(bks):
                qs = q[:, si * sub : (si + 1) * sub]
                cl = _assign(qs, ids, cents)
                for u in np.unique(cl):
                    mm = cl == u
                    rows.append(
                        {
                            "scl": si * _SKEY + int(u),
                            "s": qs[mm].sum(axis=0).tobytes(),
                            "n": int(mm.sum()),
                        }
                    )
            return pd.DataFrame(rows).astype({"scl": "int64", "n": "int64"})

        def merge(g: pd.DataFrame) -> pd.DataFrame:
            out_rows = []
            for u, h in g.groupby("scl", sort=True):
                sv = np.stack(
                    [np.frombuffer(b, dtype=np.int64) for b in h["s"]]
                ).sum(axis=0)
                out_rows.append(
                    {"scl": int(u), "s": sv.tobytes(), "n": int(h["n"].sum())}
                )
            return pd.DataFrame(out_rows).astype({"scl": "int64", "n": "int64"})

        reduced = bucketed_group_map(
            ds.map_batches(partial, batch_format="pandas"), "scl", merge
        ).to_pandas()  # ≤ m·k rows — scalar-sized per-round artifact
        reduced = reduced.sort_values("scl")
        new_books = []
        for si in range(m):
            rs = reduced[reduced["scl"] // _SKEY == si]
            ids = (rs["scl"] % _SKEY).to_numpy(np.int64)
            cents = np.stack(
                [
                    np.frombuffer(b, dtype=np.int64) // n
                    for b, n in zip(rs["s"], rs["n"])
                ]
            )
            new_books.append((ids, cents))
        books = new_books

    return ds, books, sub, dim, _unpack


def ann_pq_adc_topk(
    sf_dir: str,
    n_queries: int = 8,
    k_neighbors: int = 5,
    m: int = PQ_M,
    k: int = PQ_K,
    iters: int = PQ_ITERS,
) -> ray.data.Dataset:
    """Asymmetric-distance (ADC) top-k over the PQ codes — the search
    half of product quantization: each corpus vector is represented by
    its m sub-centroids, each query stays EXACT (micro-unit ints), and
    distance(q, x) ≈ Σ_s L2²(q_s, centroid[code_s(x)]) comes from m
    table lookups instead of a dim-wide dot. The approximation whose
    accuracy ``pq_codes``' codebooks determine.

    Scale shape: train once (shared ``_train_pq`` — iters+1 passes of
    scalar-sized partials), then ONE scan: per batch, m assigns give the
    codes and the per-query m×k integer lookup tables (built once per
    query set, broadcast) turn scoring into adds; per-(query) local
    top-k partials → tiny qid reduce. Deterministic (dist, neighbor_id)
    order. Output: (qid, neighbor_id, rank)."""
    path = f"{sf_dir}/embeddings.parquet"
    ds, books, sub, dim, unpack = _train_pq(path, m, k, iters)

    qcols = pq.read_table(
        path, columns=["vec_id", "embedding"], filters=[("vec_id", "<", n_queries)]
    )
    qids = np.asarray(qcols["vec_id"].to_pylist(), dtype=np.int64)
    qmat = _quantize(np.array(qcols["embedding"].to_pylist(), dtype=np.float64))
    # per-(query, subspace) lookup tables: L2² to every sub-centroid
    luts = []
    for si, (_ids, cents) in enumerate(books):
        qs = qmat[:, si * sub : (si + 1) * sub]
        d = (
            (qs * qs).sum(axis=1, keepdims=True)
            - 2 * (qs @ cents.T)
            + (cents * cents).sum(axis=1)[None, :]
        )
        luts.append(d)  # (n_queries, k_s)
    state_ref = ray.put((qids, books, luts))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = {"qid": [], "neighbor_id": [], "dist": []}
        if len(df) == 0:
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64") for c in out}
            )
        q_ids, bks, lts = ray.get(state_ref)
        ids = df["vec_id"].to_numpy(np.int64)
        q = unpack(df)
        # code INDEX (position in the codebook) per subspace
        dist = np.zeros((len(q_ids), len(ids)), dtype=np.int64)
        for si, (cids, cents) in enumerate(bks):
            qs = q[:, si * sub : (si + 1) * sub]
            d = (
                (qs * qs).sum(axis=1, keepdims=True)
                - 2 * (qs @ cents.T)
                + (cents * cents).sum(axis=1)[None, :]
            )
            idx = np.argmin(d, axis=1)  # same tie rule as _assign
            dist += lts[si][:, idx]
        for qi, qid in enumerate(q_ids):
            mask = ids != qid
            cand_ids, cand_d = ids[mask], dist[qi][mask]
            if cand_ids.size == 0:
                continue
            kk = min(k_neighbors, cand_ids.size)
            part = np.argpartition(cand_d, kk - 1)[:kk]
            out["qid"] += [int(qid)] * kk
            out["neighbor_id"] += cand_ids[part].tolist()
            out["dist"] += cand_d[part].tolist()
        return pd.DataFrame(
            {
                "qid": pd.Series(out["qid"], dtype="int64"),
                "neighbor_id": pd.Series(out["neighbor_id"], dtype="int64"),
                "dist": pd.Series(out["dist"], dtype="int64"),
            }
        )

    partials = ds.map_batches(partial, batch_format="pandas")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["dist", "neighbor_id"], kind="mergesort").head(
            k_neighbors
        )
        g = g.reset_index(drop=True)
        g["rank"] = pd.Series(range(1, len(g) + 1), dtype="int64")
        return g[["qid", "neighbor_id", "rank"]]

    return partials.groupby("qid").map_groups(final, batch_format="pandas")


def pq_distortion(
    sf_dir: str, m: int = PQ_M, k: int = PQ_K, iters: int = PQ_ITERS
) -> ray.data.Dataset:
    """Per-vector product-quantization distortion: the integer L2² gap
    between each vector and its m assigned sub-centroids (Σ_s min_c
    L2²(x_s, c)) — the number that decides whether the codebook is good
    enough to search with (``ann_pq_adc_topk``) or needs more
    centroids/subspaces. Completes the PQ triad: codes, search, error.

    Scale shape: shared ``_train_pq`` (iters+1 scalar-partial passes),
    then ONE scan — per batch m small matmuls against the broadcast
    codebooks, row-min per subspace, integer add. Output:
    (vec_id, err)."""
    path = f"{sf_dir}/embeddings.parquet"
    ds, books, sub, dim, unpack = _train_pq(path, m, k, iters)
    state_ref = ray.put(books)

    def per_vec(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64") for c in ("vec_id", "err")}
            )
        bks = ray.get(state_ref)
        q = unpack(df)
        err = np.zeros(len(q), dtype=np.int64)
        for si, (_ids, cents) in enumerate(bks):
            qs = q[:, si * sub : (si + 1) * sub]
            d = (
                (qs * qs).sum(axis=1, keepdims=True)
                - 2 * (qs @ cents.T)
                + (cents * cents).sum(axis=1)[None, :]
            )
            err += d.min(axis=1).astype(np.int64)
        return pd.DataFrame(
            {"vec_id": df["vec_id"].astype("int64"), "err": err}
        )

    return ds.map_batches(per_vec, batch_format="pandas")
