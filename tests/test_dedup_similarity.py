"""Tests for near-dup detection, similarity search, media, lang-id —
validated against independently-computed ground truth."""

import itertools
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from zerox_ray.functions.hashing import (
    hamming64,
    jaccard,
    rolling_fingerprint,
    simhash64,
    token_shingles,
)
from zerox_ray.functions.text import TOKEN_RE
from zerox_ray.pipelines.dataops import lang_id
from zerox_ray.pipelines.dedup import (
    dedup_spans,
    doc_fingerprints,
    embedding_near_dup,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    simhash_pairs,
)
from zerox_ray.pipelines.media import media_features, media_thumbnails
from zerox_ray.pipelines.similarity import ann_bruteforce_topk, ann_ivf_topk


def _truth_pairs(sf_dir, threshold):
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    sh = {
        d: set(token_shingles(TOKEN_RE.findall(x)))
        for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
    }
    return {
        (a, b)
        for a, b in itertools.combinations(sorted(sh), 2)
        if jaccard(sh[a], sh[b]) >= threshold
    }


class TestMinHashLSH:
    def test_finds_planted_neardups_exactly(self, sf_dir):
        got = minhash_lsh_pairs(sf_dir).to_pandas()
        truth = _truth_pairs(sf_dir, 0.5)
        assert set(zip(got.doc_a, got.doc_b)) == truth
        assert (got.jaccard_ppm >= 500_000).all()

    def test_deterministic(self, sf_dir):
        a = minhash_lsh_pairs(sf_dir).to_pandas().sort_values(["doc_a", "doc_b"])
        b = minhash_lsh_pairs(sf_dir).to_pandas().sort_values(["doc_a", "doc_b"])
        pd.testing.assert_frame_equal(a.reset_index(drop=True), b.reset_index(drop=True))


class TestSimHash:
    def test_simhash_distribution_sane(self):
        rng = np.random.RandomState(7)
        docs = [[bytes(rng.bytes(8)) for _ in range(50)] for _ in range(30)]
        sigs = [simhash64(d) for d in docs]
        hs = [hamming64(a, b) for a, b in itertools.combinations(sigs, 2)]
        assert 24 < np.mean(hs) < 40  # independent docs ≈ 32

    def test_near_dup_low_hamming(self):
        # seeded, not os.urandom: the 12-bit bound is probabilistic and a
        # random draw occasionally exceeds it (observed flake)
        rng = np.random.RandomState(7)
        base = [rng.bytes(8) for _ in range(60)]
        dup = base[:57] + [rng.bytes(8) for _ in range(3)]
        assert hamming64(simhash64(base), simhash64(dup)) <= 12

    def test_pipeline_pairs_are_real_neardups(self, sf_dir):
        got = simhash_pairs(sf_dir).to_pandas()
        got = got[got.doc_a >= 0]
        truth = _truth_pairs(sf_dir, 0.5)
        # simhash(h<=3) is a high-precision subset of the jaccard>=0.5 truth
        assert len(got) > 0
        assert set(zip(got.doc_a, got.doc_b)) <= truth


class TestJaccardAndFingerprint:
    def test_ngram_jaccard_high_precision(self, sf_dir):
        got = ngram_jaccard_pairs(sf_dir).to_pandas()
        truth = _truth_pairs(sf_dir, 0.8)
        assert set(zip(got.doc_a, got.doc_b)) <= truth
        assert len(got) >= 0.8 * len(truth)  # cheap blocking may miss a few

    def test_fingerprint_properties(self, sf_dir):
        got = doc_fingerprints(sf_dir).to_pandas()
        assert got.doc_id.is_unique and len(got) == 500
        assert rolling_fingerprint(["a", "b"]) != rolling_fingerprint(["b", "a"])
        assert rolling_fingerprint(["a", "b"]) == rolling_fingerprint(["a", "b"])


class TestEmbeddingOps:
    def test_ann_bruteforce_matches_numpy(self, sf_dir):
        got = ann_bruteforce_topk(sf_dir, n_queries=4, k=3).to_pandas()
        t = pq.read_table(f"{sf_dir}/embeddings.parquet")
        ids = np.asarray(t["vec_id"].to_pylist())
        mat = np.array(t["embedding"].to_pylist(), dtype=np.float64)
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        for qid in range(4):
            sims = mat @ mat[list(ids).index(qid)]
            order = sorted(zip(-sims, ids), key=lambda p: (p[0], p[1]))
            exp = [i for _, i in order if i != qid][:3]
            g = got[got.qid == qid].sort_values("rank")
            assert list(g.neighbor_id) == exp

    def test_ann_ivf_recall(self, sf_dir):
        bf = ann_bruteforce_topk(sf_dir, n_queries=8, k=5).to_pandas()
        ivf = ann_ivf_topk(sf_dir, n_queries=8, k=5).to_pandas()
        inter = len(
            set(zip(bf.qid, bf.neighbor_id)) & set(zip(ivf.qid, ivf.neighbor_id))
        )
        assert inter / len(bf) >= 0.5  # n_probe=4 of 16 clusters

    @staticmethod
    def _planted_embeddings_dir():
        import tempfile

        rng = np.random.RandomState(3)
        base = rng.standard_normal((50, 16))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        # plant: vec 50 = vec 0 + tiny noise
        dup = base[0] + 0.01 * rng.standard_normal(16)
        dup /= np.linalg.norm(dup)
        mat = np.vstack([base, dup[None, :]]).astype(np.float32)
        d = tempfile.mkdtemp()
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(range(51), pa.int64()),
                    "embedding": pa.array([list(map(float, r)) for r in mat], pa.list_(pa.float32())),
                }
            ),
            os.path.join(d, "embeddings.parquet"),
        )
        return d

    def test_embedding_near_dup_finds_planted(self):
        d = self._planted_embeddings_dir()
        got = embedding_near_dup(d, threshold_ppm=990_000).to_pandas()
        assert (0, 50) in set(zip(got.vec_a, got.vec_b))

    def test_embedding_join_verify_equals_broadcast(self, monkeypatch):
        from zerox_ray.pipelines import agg

        d = self._planted_embeddings_dir()
        cols = ["vec_a", "vec_b", "cosine_ppm"]
        bc = (
            embedding_near_dup(d, threshold_ppm=990_000)
            .to_pandas().sort_values(cols[:2]).reset_index(drop=True)
        )
        monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)  # force the join path
        jn = (
            embedding_near_dup(d, threshold_ppm=990_000)
            .to_pandas().sort_values(cols[:2]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(jn[cols], bc[cols])


class TestMediaAndLang:
    def test_media_features(self, sf_dir):
        got = media_features(sf_dir).to_pandas()
        assert (got.status == "SUCCESS").all()
        img = got[got.kind == "image"]
        aud = got[got.kind == "audio"]
        assert len(img) > 0 and len(aud) > 0
        assert (img.n_units == img.width * img.height).all()
        assert (aud.sample_rate == 8000).all()

    def test_media_error_row(self):
        import ray.data

        from zerox_ray.pipelines.media import MediaFeatureExtractor

        df = pd.DataFrame({"media_id": [1], "payload": [b"NOTMEDIA"]})
        out = MediaFeatureExtractor()(df)
        assert list(out.status) == ["ERROR"]

    def test_thumbnails_halve_dimensions(self, sf_dir):
        feats = media_features(sf_dir).to_pandas().set_index("media_id")
        th = media_thumbnails(sf_dir).to_pandas()
        from zerox_ray.pipelines.media import decode_payload

        img_rows = [r for _, r in th.iterrows() if bytes(r.payload)[:5] == b"ZXIMG"][:5]
        for r in img_rows:
            d = decode_payload(bytes(r.payload))
            orig = feats.loc[r.media_id]
            assert d["width"] == (orig.width + 1) // 2
            assert d["height"] == (orig.height + 1) // 2

    def test_lang_id_deterministic_and_sane(self, sf_dir):
        got = lang_id(sf_dir).to_pandas()
        assert len(got) == 500
        # synthetic corpus is English-ish query words → 'the'/'a' dominate
        assert (got.pred_lang == "en").mean() > 0.9


class TestKeeperSelection:
    def test_minhash_dedup_docs(self, sf_dir):
        from zerox_ray.pipelines.dedup import (
            _union_find_components,
            minhash_dedup_docs,
        )

        pairs = minhash_lsh_pairs(sf_dir).to_pandas()
        kept = minhash_dedup_docs(sf_dir).to_pandas()
        # survivors: every doc except non-min members of any component
        comp = _union_find_components(pairs)
        dropped = {d for d, c in comp.items() if c != d}
        assert set(kept.doc_id) == set(range(500)) - dropped
        assert (kept.doc_id == kept.cluster_id).all()
        # transitivity: chain a-b, b-c → one cluster
        import pandas as pd

        chain = pd.DataFrame({"doc_a": [1, 2], "doc_b": [2, 3]})
        c = _union_find_components(chain)
        assert c[1] == c[2] == c[3] == 1

    def test_minlabel_components_matches_union_find(self):
        """The distributed propagation must equal the single-process
        union-find golden, including long chains (multi-round fixpoint)
        and sentinel rows."""
        import ray.data

        from zerox_ray.pipelines.dedup import (
            _union_find_components,
            minlabel_components,
        )

        # chain 0-1-2-...-9 (diameter 9), a disjoint triangle, a sentinel
        pairs = pd.DataFrame(
            {
                "doc_a": list(range(9)) + [20, 21, 20, -1],
                "doc_b": list(range(1, 10)) + [21, 22, 22, -1],
                "jaccard_ppm": 999_999,
            }
        )
        got = (
            minlabel_components(ray.data.from_pandas(pairs))
            .to_pandas().set_index("node")["label"].to_dict()
        )
        want = _union_find_components(pairs[pairs.doc_a >= 0])
        assert got == want
        assert got[9] == 0 and got[22] == 20

    def test_minlabel_distributed_convergence_sum(self, monkeypatch):
        """Above DRIVER_SUM_MAX_NODES the per-round convergence scalar must
        come from the distributed Sum aggregate, never from streaming the
        label table through the driver (O(corpus)/round at web scale)."""
        import ray.data

        from zerox_ray.pipelines import dedup as dd

        # force the distributed path for any non-empty label table
        monkeypatch.setattr(dd, "DRIVER_SUM_MAX_NODES", 0)
        calls = {"iter": 0}
        orig = ray.data.Dataset.iter_batches

        def counting_iter(self, *a, **k):
            calls["iter"] += 1
            return orig(self, *a, **k)

        monkeypatch.setattr(ray.data.Dataset, "iter_batches", counting_iter)
        # chain of diameter 12 → needs >3 propagation rounds to converge
        pairs = pd.DataFrame(
            {
                "doc_a": list(range(12)),
                "doc_b": list(range(1, 13)),
                "jaccard_ppm": 999_999,
            }
        )
        labels = dd.minlabel_components(ray.data.from_pandas(pairs))
        # ds.sum() must not have fallen back to driver-side block streaming
        # (the to_pandas below legitimately iterates — count only the run)
        in_run = calls["iter"]
        got = labels.to_pandas().set_index("node")["label"].to_dict()
        want = dd._union_find_components(pairs)
        assert got == want
        assert all(v == 0 for v in got.values())
        assert in_run == 0


def test_minhash_join_verify_equals_broadcast(sf_dir, monkeypatch):
    from zerox_ray.pipelines import agg

    bc = minhash_lsh_pairs(sf_dir).to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)  # force the join path
    jn = (
        minhash_lsh_pairs(sf_dir)
        .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(jn[bc.columns.tolist()], bc)


class TestSpanDedup:
    def _truth(self, sf_dir, window):
        """Independent pure-python replay of first-occurrence span keeping."""
        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        seen: set[str] = set()
        rows = {}
        for did, text in sorted(zip(t["doc_id"].to_pylist(), t["text"].to_pylist())):
            toks = text.split(" ")
            n = kept = ktoks = 0
            for i in range(0, len(toks), window):
                span = " ".join(toks[i : i + window])
                n += 1
                if span not in seen:
                    seen.add(span)
                    kept += 1
                    ktoks += len(toks[i : i + window])
            rows[did] = (n, kept, n - kept, ktoks)
        return rows

    def test_matches_sequential_truth(self, sf_dir):
        got = dedup_spans(sf_dir).to_pandas().set_index("doc_id").sort_index()
        truth = self._truth(sf_dir, 4)
        assert set(got.index) == set(truth)
        for did, (n, kept, dup, ktoks) in truth.items():
            r = got.loc[did]
            assert (r.n_spans, r.kept_spans, r.dup_spans, r.kept_tokens) == (
                n,
                kept,
                dup,
                ktoks,
            ), did

    def test_window_1_is_token_level(self, sf_dir):
        got = dedup_spans(sf_dir, window=1).to_pandas()
        # corpus-wide each distinct token is kept exactly once
        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
        vocab = set()
        for text in t["text"].to_pylist():
            vocab.update(text.split(" "))
        assert got.kept_spans.sum() == len(vocab)
        assert (got.n_spans == got.kept_spans + got.dup_spans).all()


class TestSubstringScrub:
    K = 8

    def _truth(self, sf_dir, k):
        """Sequential replay: rolling k-grams in (doc_id, pos) order;
        occurrences after a gram's first mark their k positions covered."""
        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        docs = dict(sorted(zip(t["doc_id"].to_pylist(), t["text"].to_pylist())))
        seen: set[str] = set()
        covered: dict[int, set[int]] = {}
        for did, text in docs.items():
            toks = text.split(" ")
            cov = covered.setdefault(did, set())
            for i in range(len(toks) - k + 1):
                gram = " ".join(toks[i : i + k])
                if gram in seen:
                    cov.update(range(i, i + k))
                else:
                    seen.add(gram)
        rows = {}
        for did, text in docs.items():
            toks = text.split(" ")
            cov = covered[did]
            clean = " ".join(t for j, t in enumerate(toks) if j not in cov)
            rows[did] = (len(toks), len(cov), clean)
        return rows

    def test_matches_sequential_truth(self, sf_dir):
        from zerox_ray.pipelines.dedup import substring_scrub

        got = substring_scrub(sf_dir, k=self.K).to_pandas().set_index("doc_id").sort_index()
        truth = self._truth(sf_dir, self.K)
        assert set(got.index) == set(truth)
        for did, (n, removed, clean) in truth.items():
            r = got.loc[did]
            assert (r.n_tokens, r.n_removed, r.text_clean) == (n, removed, clean), did

    def test_every_duplicated_gram_survives_somewhere(self, sf_dir):
        """One copy of every k-gram string must remain reconstructible:
        the union of all cleaned texts plus the winner occurrences covers
        the corpus gram vocabulary (spot-check the removal invariant —
        a doc's token is removed only if some earlier occurrence kept it)."""
        from zerox_ray.pipelines.dedup import substring_scrub

        got = substring_scrub(sf_dir, k=self.K).to_pandas()
        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
        # short docs pass through untouched
        for _, r in got.iterrows():
            if r.n_tokens < self.K:
                assert r.n_removed == 0 and r.text_clean == texts[r.doc_id]
            assert 0 <= r.n_removed <= r.n_tokens
        # at least one doc should have removals on the synthetic corpus
        assert got.n_removed.sum() > 0
        # and no doc loses everything unless it was entirely duplicated
        untouched = got[got.n_removed == 0]
        assert (untouched.text_clean == untouched.doc_id.map(texts)).all()


class TestRadiusSearch:
    def test_matches_bruteforce_set(self, sf_dir):
        import numpy as np
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.similarity import PPM, ann_radius_search

        thr = 150_000
        got = (
            ann_radius_search(sf_dir, n_queries=4, threshold_ppm=thr)
            .to_pandas()
            .sort_values(["qid", "neighbor_id"])
            .reset_index(drop=True)
        )
        t = pq.read_table(f"{sf_dir}/embeddings.parquet").to_pandas()
        mat = np.array(t.embedding.tolist(), dtype=np.float64)
        ids = t.vec_id.to_numpy(dtype=np.int64)
        exp = []
        for qi in range(4):
            q = mat[ids == qi][0]
            nq = float(np.sqrt(q @ q))
            for j in range(len(ids)):
                if ids[j] == qi:
                    continue
                c = float(q @ mat[j]) / (nq * float(np.sqrt(mat[j] @ mat[j])))
                ppm = int(np.floor(c * PPM + 0.5))
                if ppm >= thr:
                    exp.append((qi, int(ids[j]), ppm))
        exp.sort()
        assert list(zip(got.qid, got.neighbor_id, got.cosine_ppm)) == exp
        assert len(exp) > 0  # threshold low enough to be exercised

    def test_no_self_matches_and_threshold_respected(self, sf_dir):
        from zerox_ray.pipelines.similarity import ann_radius_search

        got = ann_radius_search(sf_dir, n_queries=2, threshold_ppm=100_000).to_pandas()
        assert (got.qid != got.neighbor_id).all()
        assert (got.cosine_ppm >= 100_000).all()


class TestKmeansClusters:
    def test_matches_sequential_lloyd(self, sf_dir):
        """Distributed rounds ≡ a single-process numpy replay of the same
        quantized Lloyd iterations (init = first k by vec_id)."""
        import numpy as np
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.similarity import (
            KMEANS_ITERS,
            KMEANS_K,
            _assign,
            _quantize,
            kmeans_clusters,
        )

        got = (
            kmeans_clusters(sf_dir)
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
        t = pq.read_table(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        q = _quantize(np.array(t["embedding"].to_pylist(), dtype=np.float64))[order]
        cl_ids = ids[: KMEANS_K]
        cents = q[: KMEANS_K]
        for _ in range(KMEANS_ITERS):
            cl = _assign(q, cl_ids, cents)
            keep = np.unique(cl)
            cents = np.stack(
                [
                    np.floor(q[cl == u].sum(axis=0) / (cl == u).sum()).astype(np.int64)
                    for u in keep
                ]
            )
            cl_ids = keep
        exp = _assign(q, cl_ids, cents)
        assert got.vec_id.to_numpy().tolist() == ids.tolist()
        assert got.cluster.to_numpy().tolist() == exp.tolist()
        # every cluster id is one of the surviving seeds, and clustering
        # is non-trivial (more than one cluster in use)
        assert set(got.cluster) <= set(cl_ids.tolist())
        assert got.cluster.nunique() > 1


class TestDedupEdgeFixes:
    def test_hyperplane_bander_empty_batch(self):
        from zerox_ray.pipelines.dedup import HyperplaneBander

        out = HyperplaneBander(dim=4)(pd.DataFrame({"vec_id": [], "embedding": []}))
        assert list(out.columns) == ["vec_id", "block_id", "key", "bucket"]
        assert len(out) == 0

    def test_cosine_verifier_zero_norm_pair_dropped(self):
        import pyarrow as pa
        import ray

        from zerox_ray.pipelines.dedup import CosineVerifier

        emb_ref = ray.put(
            pa.table(
                {
                    "vec_id": pa.array([0, 1], pa.int64()),
                    "embedding": pa.array(
                        [[0.0, 0.0], [1.0, 0.0]], pa.list_(pa.float32())
                    ),
                }
            )
        )
        v = CosineVerifier(emb_ref, threshold_ppm=0)
        out = v(pd.DataFrame({"vec_a": [0], "vec_b": [1]}))
        assert len(out) == 0  # undefined direction → never a dup, no crash

    def test_jaccard_block_cap_truncates_with_sentinel(self):
        from zerox_ray.pipelines.dedup import MAX_BUCKET_DOCS, _coarse_jaccard_pairs

        n = MAX_BUCKET_DOCS + 3
        g = pd.DataFrame(
            {
                "doc_id": pd.Series(range(n), dtype="int64"),
                "block": pd.Series([7] * n, dtype="int64"),
                "text": ["alpha beta gamma"] * n,
            }
        )
        out = _coarse_jaccard_pairs(g, shingle_n=3, threshold_ppm=500_000)
        sentinels = out[out.doc_a < 0]
        real = out[out.doc_a >= 0]
        assert len(sentinels) == 1  # cap fired, visibly
        # pairs bounded by the truncated head, and no truncated-out id
        assert len(real) == MAX_BUCKET_DOCS * (MAX_BUCKET_DOCS - 1) // 2
        assert real.doc_b.max() < MAX_BUCKET_DOCS

    def test_simhash_and_jaccard_outputs_sentinel_free(self, sf_dir):
        from zerox_ray.pipelines.dedup import ngram_jaccard_pairs, simhash_pairs

        sp = simhash_pairs(sf_dir).to_pandas()
        jp = ngram_jaccard_pairs(sf_dir).to_pandas()
        assert (sp.doc_a >= 0).all() and (sp.doc_b >= 0).all()
        assert (jp.doc_a >= 0).all() and (jp.doc_b >= 0).all()


class TestFuzzyMatch:
    def test_every_query_finds_its_source(self, sf_dir):
        """A query is a 4/5-token prefix of its source doc — the source
        must always be among its matches (high prefix Jaccard)."""
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.dedup import fuzzy_match

        got = fuzzy_match(sf_dir).to_pandas()
        docs = pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id"]
        ).to_pandas()
        qids = set(docs.doc_id[docs.doc_id % 50 == 1])
        assert qids  # the workload slice exists at every sf
        matched = set(got.query_id)
        # self-match guaranteed: prefix shingles ⊂ source shingles
        self_rows = got[got.query_id == got.doc_id]
        assert set(self_rows.query_id) == qids == matched | qids
        assert (got.jaccard_ppm >= 500_000).all()
        assert (got.jaccard_ppm <= 1_000_000).all()

    def test_matches_exact_jaccard(self, sf_dir):
        """Every emitted pair's ppm equals the exact prefix-vs-doc
        Jaccard (the probe's verify is exact, not approximate)."""
        import pyarrow.parquet as pq

        from zerox_ray.functions.hashing import jaccard, token_shingles
        from zerox_ray.functions.text import TOKEN_RE
        from zerox_ray.pipelines.dedup import fuzzy_match

        got = fuzzy_match(sf_dir).to_pandas()
        d = pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ).to_pandas().set_index("doc_id")["text"]

        def sh(tokens):
            return set(token_shingles(tokens, 3))

        for _, row in got.iterrows():
            qt = TOKEN_RE.findall(d[row.query_id])
            qs = sh(qt[: (4 * len(qt) + 4) // 5])
            ds_ = sh(TOKEN_RE.findall(d[row.doc_id]))
            assert row.jaccard_ppm == int(jaccard(ds_, qs) * 1_000_000)


class TestSemanticDedup:
    def test_matches_bruteforce_cosine_rule(self, sf_dir):
        """Independent replay: cluster with the engine's own kmeans
        output (pinned by its bit-exact SQL oracle), then check the
        keep/drop rule against brute-force float cosine — the band-exact
        integer compare must agree with plain float64 cosine except
        exactly AT the threshold (none of the synthetic pairs sit
        there)."""
        import numpy as np
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.similarity import (
            SEM_THRESHOLD_PPM,
            kmeans_clusters,
            semantic_dedup,
        )

        got = semantic_dedup(sf_dir).to_pandas().set_index("vec_id")
        cl = kmeans_clusters(sf_dir).to_pandas().set_index("vec_id")["cluster"]
        t = pq.read_table(f"{sf_dir}/embeddings.parquet")
        ids = np.array(t["vec_id"].to_pylist(), dtype=np.int64)
        q = np.floor(
            np.array(t["embedding"].to_pylist(), dtype=np.float64) * 10_000
        )
        n = q / np.linalg.norm(q, axis=1, keepdims=True)
        sims = n @ n.T
        thr = SEM_THRESHOLD_PPM / 1e6
        for j, vid in enumerate(ids):
            lower = [
                i
                for i, vid2 in enumerate(ids)
                if vid2 < vid and cl[vid2] == cl[vid] and sims[i, j] >= thr
            ]
            want_kept = 0 if lower else 1
            assert got.loc[vid, "kept"] == want_kept, vid
            if lower:
                assert got.loc[vid, "dup_of"] == min(ids[i] for i in lower)
            else:
                assert got.loc[vid, "dup_of"] == -1
        assert (got["kept"] == 0).sum() > 0  # the threshold actually fires

    def test_dup_of_same_cluster_and_lower_id(self, sf_dir):
        from zerox_ray.pipelines.similarity import semantic_dedup

        got = semantic_dedup(sf_dir).to_pandas()
        dropped = got[got.kept == 0]
        cl = got.set_index("vec_id")["cluster"]
        assert (dropped.dup_of < dropped.vec_id).all()
        assert all(cl[d] == c for d, c in zip(dropped.dup_of, dropped.cluster))


class TestImportanceSample:
    def test_matches_pure_python_replay(self, sf_dir):
        import pyarrow.parquet as pq

        from zerox_ray.functions.hashing import md5_64
        from zerox_ray.functions.text import TOKEN_RE
        from zerox_ray.pipelines.dataops import importance_sample

        # row order across buckets is incidental (threshold selection +
        # bucketed rank assignment) — the rank COLUMN is the contract
        got = (
            importance_sample(sf_dir)
            .to_pandas()
            .sort_values("rank")
            .reset_index(drop=True)
        )
        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        buckets: dict[int, int] = {}
        docs = {}
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            bs = [md5_64(x.encode()) % 256 for x in TOKEN_RE.findall(text)]
            docs[did] = bs
            for b in bs:
                buckets[b] = buckets.get(b, 0) + 1
        total = sum(buckets.values())
        rare = {b for b, c in buckets.items() if c * 256 < total}
        rows = [
            (did, len(bs), sum(1 for b in bs if b in rare))
            for did, bs in sorted(docs.items())
            if bs
        ]
        k = max(1, (len(docs) * 100_000 + 999_999) // 1_000_000)
        ranked = sorted(
            ((nr * 1_000_000) // nt, -did) for did, nt, nr in rows
        )
        want = [(-d, w) for w, d in sorted(ranked, reverse=True)[:k]]
        assert len(got) == k
        assert list(zip(got.doc_id, got.weight_ppm)) == want
        assert list(got["rank"]) == list(range(1, k + 1))

    def test_boundary_tie_refinement(self, tmp_path):
        """Every doc tied at one weight: the threshold filter must split
        the tie by doc_id through the bounded range-histogram refinement
        (doc_ids straddle two _SHARD_RANGE ranges to exercise the
        driver's prefix scan)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.dataops import importance_sample

        ids = list(range(10)) + list(range(5000, 5030))  # ranges 0 and 1
        t = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(["aaa bbb ccc"] * len(ids), pa.string()),
            }
        )
        pq.write_table(t, str(tmp_path / "documents.parquet"))
        got = (
            importance_sample(str(tmp_path))
            .to_pandas()
            .sort_values("rank")
            .reset_index(drop=True)
        )
        k = max(1, (len(ids) * 100_000 + 999_999) // 1_000_000)  # 4
        assert list(got["doc_id"]) == ids[:k]
        assert list(got["rank"]) == list(range(1, k + 1))
        assert got["weight_ppm"].nunique() == 1

    def test_selection_invariant_under_any_blocking(self, sf_dir):
        """The histogram-threshold selection must be invariant to block
        layout: partial histograms merge losslessly, so the threshold —
        and therefore the kept set and every rank — is blocking-free."""
        import ray.data

        from zerox_ray.pipelines.dataops import importance_sample

        a = importance_sample(sf_dir).to_pandas().sort_values("rank").reset_index(drop=True)
        # force a different blocking by overriding parallelism upstream
        import zerox_ray.pipelines.dataops as dd

        orig = dd.read_table
        try:
            dd.read_table = lambda path, columns=None: orig(
                path, columns=columns
            ).repartition(7)
            b = (
                importance_sample(sf_dir)
                .to_pandas()
                .sort_values("rank")
                .reset_index(drop=True)
            )
        finally:
            dd.read_table = orig
        import pandas as pd

        pd.testing.assert_frame_equal(a, b)


def test_embedding_moments_match_numpy(sf_dir):
    import numpy as np
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.similarity import embedding_moments

    got = (
        embedding_moments(sf_dir)
        .to_pandas()
        .sort_values(["dim_i", "dim_j"])
        .reset_index(drop=True)
    )
    mat = np.stack(
        pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
        .column(0)
        .to_pylist()
    )
    q = np.floor(mat.astype(np.float64) * 1000).astype(np.int64)
    iu, ju = np.triu_indices(q.shape[1])
    assert len(got) == len(iu)
    assert (got.n_rows == len(q)).all()
    g = q.T @ q
    s1 = q.sum(axis=0)
    assert (got.s_i.to_numpy() == s1[iu]).all()
    assert (got.s_j.to_numpy() == s1[ju]).all()
    assert (got.s_ij.to_numpy() == g[iu, ju]).all()
    # covariance recovered from the moments tracks numpy's (quantization
    # noise is ≤ ~1e-3 per element at the milli scale)
    n = len(q)
    cov_q = (n * got.s_ij.to_numpy() - got.s_i.to_numpy() * got.s_j.to_numpy()) / (
        n * n * 1e6
    )
    cov_f = np.cov(mat.astype(np.float64).T, bias=True)
    assert np.abs(cov_q - cov_f[iu, ju]).max() < 2e-3


class TestContainmentPairs:
    def test_broadcast_equals_join_path(self, sf_dir, monkeypatch):
        import pandas as pd

        from zerox_ray.pipelines import agg
        from zerox_ray.pipelines.dedup import containment_pairs

        a = (
            containment_pairs(sf_dir)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)  # force the join path
        b = (
            containment_pairs(sf_dir)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)
        assert len(a) > 0

    def test_catches_quote_inclusion_jaccard_misses(self, sf_dir, tmp_path):
        """A short doc fully embedded in a long one: containment 1e6 on
        the short side while Jaccard sits under the dedup threshold."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.dedup import containment_pairs

        short = "alpha beta gamma delta epsilon zeta"
        long = short + " " + " ".join(f"tok{i} filler{i} pad{i}" for i in range(40))
        decoy = " ".join(f"other{i} words{i} here{i}" for i in range(30))
        t = pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": pa.array([short, long, decoy], pa.string()),
            }
        )
        pq.write_table(t, tmp_path / "documents.parquet")
        got = containment_pairs(str(tmp_path), n_bands=32).to_pandas()
        row = got.loc[(got.doc_a == 1) & (got.doc_b == 2)]
        assert len(row) == 1
        assert int(row.c_ab_ppm.iloc[0]) == 1_000_000  # short ⊂ long
        assert int(row.c_ba_ppm.iloc[0]) < 900_000
        assert int(row.jaccard_ppm.iloc[0]) < 500_000  # Jaccard would miss it


def test_embedding_quantize_bounds(sf_dir):
    """Codes are genuine uint8 (checksum bounds) and reconstruction
    error per dimension is below one quantization step."""
    import numpy as np

    from zerox_ray.pipelines.similarity import embedding_quantize

    df = embedding_quantize(sf_dir).to_pandas()
    assert len(df) == 500
    d = 64
    # code_l1 ≤ 255·d; checksum ≤ 255·Σ(j+1)
    assert (df["code_l1"] >= 0).all() and (df["code_l1"] <= 255 * d).all()
    assert (df["code_chk"] <= 255 * (d * (d + 1) // 2)).all()
    # per-dim error < step = rng/255 (+1 for the milli floor), so the
    # total is far below the unquantized milli magnitude
    import pyarrow.parquet as pq

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    mat = np.stack(emb["embedding"].to_pylist())
    q = np.floor(mat.astype(np.float64) * 1000).astype(np.int64)
    step = (q.max(0) - q.min(0)) / 255.0
    assert (df["recon_err_milli"] <= (np.ceil(step).sum() + d)).all()
    assert (df["recon_err_milli"] > 0).any()


def test_ann_quantized_recall_vs_bruteforce(sf_dir):
    """The quantized scan's top-5 heavily overlaps the exact cosine
    top-5 (quantization noise may reorder the tail, not the head)."""
    from zerox_ray.pipelines.similarity import (
        ann_bruteforce_topk,
        ann_quantized_topk,
    )

    exact = ann_bruteforce_topk(sf_dir).to_pandas()
    quant = ann_quantized_topk(sf_dir).to_pandas()
    assert set(quant["qid"]) == set(exact["qid"])
    assert (quant.groupby("qid")["rank"].max() == 5).all()
    # rank-1 agreement isn't guaranteed (MIPS vs cosine + quantization),
    # but top-5 set recall should be high on a 500-vector corpus
    hits = tot = 0
    for q in set(exact["qid"]):
        e = set(exact.loc[exact["qid"] == q, "neighbor_id"])
        g = set(quant.loc[quant["qid"] == q, "neighbor_id"])
        hits += len(e & g)
        tot += len(e)
    assert hits / tot >= 0.5, (hits, tot)


def test_hard_negatives_cross_label_only(sf_dir):
    """Every mined negative carries a different label than its query;
    ranks are 1..5 per query."""
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.similarity import hard_negatives

    df = hard_negatives(sf_dir).to_pandas()
    labels = dict(
        zip(
            *[
                pq.read_table(
                    f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
                )[c].to_pylist()
                for c in ("vec_id", "label")
            ]
        )
    )
    assert sorted(df.groupby("qid")["rank"].apply(list).iloc[0]) == [1, 2, 3, 4, 5]
    for q, n in zip(df["qid"], df["neighbor_id"]):
        assert labels[q] != labels[n]
        assert q != n


def test_contrastive_triplets_sides(sf_dir):
    """Positive shares the anchor's label, negative does not; the
    positive is the brute-force same-label top-1."""
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.similarity import contrastive_triplets

    df = contrastive_triplets(sf_dir).to_pandas()
    assert len(df) == 8
    labels = dict(
        zip(
            *[
                pq.read_table(
                    f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
                )[c].to_pylist()
                for c in ("vec_id", "label")
            ]
        )
    )
    for q, p, n in zip(df["qid"], df["positive_id"], df["negative_id"]):
        assert labels[q] == labels[p] and labels[q] != labels[n]
        assert q != p and q != n


class TestTruncatedRecall:
    def test_full_dim_is_perfect_and_monotone_tendency(self, sf_dir):
        from zerox_ray.pipelines.similarity import ann_truncated_recall

        got = ann_truncated_recall(sf_dir)
        # the full-dim row set IS the reference: overlap = k by identity
        assert (got[got.dim == 64].n_hits == 5).all()
        assert set(got.dim) == {64, 32, 16, 8}
        assert got.n_hits.between(0, 5).all()
        # averaged over queries, more dims should never hurt much:
        means = got.groupby("dim").n_hits.mean()
        assert means[32] >= means[8] - 0.5

    def test_matches_bruteforce_at_full_dim(self, sf_dir):
        from zerox_ray.pipelines.similarity import (
            ann_bruteforce_topk,
            ann_truncated_recall,
        )

        got = ann_truncated_recall(sf_dir, dims=(64,))
        bf = ann_bruteforce_topk(sf_dir).to_pandas()
        # per query, the truncated op at the full dim reproduces
        # bruteforce's top-5 — n_hits == 5 for every query present
        assert set(got.qid) == set(bf.qid)
        assert (got.n_hits == 5).all()


class TestWinnowing:
    def _replay(self, sf_dir, k=4, w=4):
        """Independent per-doc winnowing replay (plain python loops)."""
        from zerox_ray.functions.hashing import md5_64

        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        out = {}
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            toks = text.split(" ")
            hs = [
                md5_64(" ".join(toks[i : i + k]).encode()) >> 1
                for i in range(len(toks) - k + 1)
            ]
            if not hs:
                out[did] = set()
                continue
            we = min(w, len(hs))
            sel = set()
            for s in range(len(hs) - we + 1):
                window = hs[s : s + we]
                m = min(window)
                # rightmost minimum
                j = max(i for i, v in enumerate(window) if v == m)
                sel.add((s + j, window[j]))
            out[did] = sel
        return out

    def test_matches_python_replay(self, sf_dir):
        from zerox_ray.pipelines.dedup import winnow_fingerprints

        got = winnow_fingerprints(sf_dir).to_pandas()
        truth = self._replay(sf_dir)
        by_doc = {
            did: set(zip(sub.pos, sub.h)) for did, sub in got.groupby("doc_id")
        }
        for did, sel in truth.items():
            assert by_doc.get(did, set()) == sel, did

    def test_shared_substring_guarantee(self, sf_dir):
        """Winnowing guarantee: docs sharing a ≥ k+w-1 token substring
        share at least one fingerprint hash. Build the truth from raw
        rolling grams: any gram hash that appears in both docs at
        'interior' density means overlap — check via substring_scrub's
        duplicated spans instead: every pair of docs sharing a 16-token
        exact run must appear connected through some common hash."""
        from zerox_ray.pipelines.dedup import winnow_fingerprints

        got = winnow_fingerprints(sf_dir).to_pandas()
        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        texts = dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))
        by_doc = {did: set(sub.h) for did, sub in got.groupby("doc_id")}
        # find doc pairs sharing an exact 7-token (k+w-1) window
        window = {}
        for did, text in texts.items():
            toks = text.split(" ")
            for i in range(len(toks) - 7 + 1):
                window.setdefault(" ".join(toks[i : i + 7]), set()).add(did)
        checked = 0
        for _, docs in window.items():
            if len(docs) >= 2:
                ds = sorted(docs)
                for a, b in zip(ds, ds[1:]):
                    assert by_doc.get(a, set()) & by_doc.get(b, set()), (a, b)
                    checked += 1
            if checked > 200:
                break
        assert checked > 0

    def test_fingerprint_matches_are_real(self, sf_dir):
        from zerox_ray.pipelines.dedup import fingerprint_matches, winnow_fingerprints

        got = fingerprint_matches(sf_dir).to_pandas()
        fp = winnow_fingerprints(sf_dir).to_pandas()
        by_doc = {did: set(sub.h) for did, sub in fp.groupby("doc_id")}
        df_count = fp.drop_duplicates(["doc_id", "h"]).groupby("h").size()
        ubiquitous = set(df_count[df_count > 8].index)
        assert len(got) > 0
        for _, r in got.iterrows():
            shared = (by_doc[r.doc_a] & by_doc[r.doc_b]) - ubiquitous
            assert len(shared) == r.n_shared
            assert r.n_shared >= 2 and r.doc_a < r.doc_b


def test_substring_scrub_join_equals_broadcast(sf_dir, monkeypatch):
    from zerox_ray.pipelines import agg
    from zerox_ray.pipelines.dedup import substring_scrub

    cols = ["doc_id", "n_tokens", "n_removed", "text_clean"]
    bc = (
        substring_scrub(sf_dir)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)  # force the join path
    jn = (
        substring_scrub(sf_dir)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(jn[cols], bc[cols])


class TestLeakageSafeSplit:
    def test_clusters_never_straddle_splits(self, sf_dir):
        from zerox_ray.pipelines.dedup import leakage_safe_split

        got = leakage_safe_split(sf_dir).to_pandas()
        assert len(got) == 500 and got.doc_id.is_unique
        # the leakage invariant: one split per cluster
        assert (got.groupby("cluster_id")["split"].nunique() == 1).all()
        # near-dup truth pairs land in the same cluster (and split)
        truth = _truth_pairs(sf_dir, 0.5)
        by_doc = dict(zip(got.doc_id, got.cluster_id))
        sp = dict(zip(got.doc_id, got.split))
        for a, b in truth:
            assert by_doc[a] == by_doc[b], (a, b)
            assert sp[a] == sp[b]

    def test_unpaired_docs_match_corpus_split(self, sf_dir):
        """Docs in no near-dup cluster (cluster_id == doc_id) must get
        EXACTLY the corpus_split assignment — same hash, same ranges."""
        from zerox_ray.pipelines.dataops import corpus_split
        from zerox_ray.pipelines.dedup import leakage_safe_split

        lss = leakage_safe_split(sf_dir).to_pandas()
        cs = corpus_split(sf_dir).to_pandas().set_index("doc_id")["split"]
        solo = lss[lss.cluster_id == lss.doc_id]
        assert len(solo) > 0
        assert (solo.set_index("doc_id")["split"] == cs.loc[solo.doc_id]).all()


class TestProductQuantization:
    def test_matches_numpy_replay(self, sf_dir):
        """Independent in-memory replay of the m per-subspace integer
        Lloyd loops — every code must agree."""
        import numpy as np
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.similarity import _assign, _quantize, pq_codes

        m, k, iters = 4, 4, 2
        got = pq_codes(sf_dir).to_pandas().set_index("vec_id").sort_index()
        t = pq.read_table(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )
        ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        q = _quantize(np.array(t["embedding"].to_pylist(), dtype=np.float64))[order]
        dim = q.shape[1]
        sub = dim // m
        for s in range(m):
            qs = q[:, s * sub : (s + 1) * sub]
            cl_ids = ids[ids < k]
            cents = qs[ids < k]
            for _ in range(iters):
                cl = _assign(qs, cl_ids, cents)
                uniq = np.unique(cl)
                cents = np.stack(
                    [qs[cl == u].sum(axis=0) // (cl == u).sum() for u in uniq]
                )
                cl_ids = uniq
            want = _assign(qs, cl_ids, cents)
            assert (got[f"c{s}"].to_numpy() == want).all(), f"subspace {s}"

    def test_codes_are_valid_and_informative(self, sf_dir):
        from zerox_ray.pipelines.similarity import pq_codes

        got = pq_codes(sf_dir).to_pandas()
        assert len(got) == 500 and got.vec_id.is_unique
        for s in range(4):
            c = got[f"c{s}"]
            assert c.isin(range(4)).all()
            assert c.nunique() > 1  # codebook actually separates vectors


class TestPqAdc:
    def test_recall_against_exact(self, sf_dir):
        """ADC over 4×4 codebooks is coarse, but the top-5 should still
        overlap the exact cosine top-5 well above chance."""
        from zerox_ray.pipelines.similarity import ann_bruteforce_topk, ann_pq_adc_topk

        adc = ann_pq_adc_topk(sf_dir).to_pandas()
        bf = ann_bruteforce_topk(sf_dir).to_pandas()
        assert set(adc.qid) == set(bf.qid)
        assert adc.groupby("qid")["rank"].max().eq(5).all()
        inter = len(
            set(zip(adc.qid, adc.neighbor_id)) & set(zip(bf.qid, bf.neighbor_id))
        )
        assert inter / len(bf) >= 0.1  # far above the ~1% chance rate

    def test_deterministic(self, sf_dir):
        from zerox_ray.pipelines.similarity import ann_pq_adc_topk

        a = ann_pq_adc_topk(sf_dir).to_pandas().sort_values(["qid", "rank"]).reset_index(drop=True)
        b = ann_pq_adc_topk(sf_dir).to_pandas().sort_values(["qid", "rank"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


def test_pq_distortion_consistent_with_codes(sf_dir):
    """Distortion equals the direct L2² between each vector and the
    centroids its codes name — recomputed independently from pq_codes'
    output and a replayed codebook."""
    import numpy as np
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.similarity import (
        _assign,
        _quantize,
        pq_codes,
        pq_distortion,
    )

    m, k, iters = 4, 4, 2
    dist = pq_distortion(sf_dir).to_pandas().set_index("vec_id").sort_index()
    codes = pq_codes(sf_dir).to_pandas().set_index("vec_id").sort_index()
    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    order = np.argsort(ids)
    ids = ids[order]
    q = _quantize(np.array(t["embedding"].to_pylist(), dtype=np.float64))[order]
    sub = q.shape[1] // m
    # replay codebooks (same loop as TestProductQuantization)
    books = []
    for s in range(m):
        qs = q[:, s * sub : (s + 1) * sub]
        cl_ids, cents = ids[ids < k], qs[ids < k]
        for _ in range(iters):
            cl = _assign(qs, cl_ids, cents)
            uniq = np.unique(cl)
            cents = np.stack(
                [qs[cl == u].sum(axis=0) // (cl == u).sum() for u in uniq]
            )
            cl_ids = uniq
        books.append((cl_ids, cents))
    for vid in ids:
        row_q = q[np.searchsorted(ids, vid)]
        total = 0
        for s, (cl_ids, cents) in enumerate(books):
            qs = row_q[s * sub : (s + 1) * sub]
            c = cents[np.searchsorted(cl_ids, codes.loc[vid, f"c{s}"])]
            d = qs - c
            total += int((d * d).sum())
        assert dist.loc[vid, "err"] == total, vid
    assert (dist["err"] >= 0).all()
