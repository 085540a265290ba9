"""Tests for the training-data ops (token stats, quality, dedup, windows)
cross-checked against DuckDB on the same parquet."""

import duckdb
import pandas as pd
import ray.data

from zerox_ray.pipelines.dataops import (
    dedup_exact,
    events_hourly,
    quality_scores,
    token_stats,
)


def _duck(sf_dir, sql):
    con = duckdb.connect()
    for t in ("documents", "events"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    return con.execute(sql).df()


def _cmp(got: pd.DataFrame, exp: pd.DataFrame, keys):
    got = got.sort_values(keys).reset_index(drop=True)[sorted(got.columns)]
    exp = exp.sort_values(keys).reset_index(drop=True)[sorted(exp.columns)]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_token_stats(sf_dir):
    got = token_stats(sf_dir).to_pandas()
    exp = _duck(
        sf_dir,
        "SELECT lang, count(*) n_docs, sum(len(regexp_extract_all(text,'[a-z]+'))) total_tokens, "
        "sum(length(text)) total_chars FROM documents GROUP BY lang",
    )
    _cmp(got, exp, ["lang"])


def test_quality_scores(sf_dir):
    got = quality_scores(sf_dir).to_pandas()
    assert (got.n_tokens > 0).all()
    assert ((got.stop_ratio_ppm >= 0) & (got.stop_ratio_ppm <= 1_000_000)).all()
    exp = _duck(
        sf_dir,
        r"SELECT doc_id, len(regexp_extract_all(text,'\b(?:the|a|and|of|to)\b')) n_stopwords FROM documents",
    )
    _cmp(got[["doc_id", "n_stopwords"]], exp, ["doc_id"])


def test_dedup_exact_with_real_duplicates():
    df = pd.DataFrame(
        {"doc_id": [5, 1, 2, 3, 4], "text": ["aa", "aa", "bb", "aa", "bb"]}
    )
    import pyarrow.parquet as pq
    import pyarrow as pa
    import tempfile, os

    d = tempfile.mkdtemp()
    pq.write_table(pa.Table.from_pandas(df), os.path.join(d, "documents.parquet"))
    got = dedup_exact(d).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(got.doc_id) == [1, 2] and list(got.n_copies) == [3, 2]


def test_events_hourly(sf_dir):
    got = events_hourly(sf_dir).to_pandas()
    exp = _duck(
        sf_dir,
        "SELECT user_id, epoch_us(ts) // 3600000000 hour_id, count(*) n_events, "
        "sum(CAST(floor(value*100) AS BIGINT)) sum_value_cents FROM events GROUP BY user_id, hour_id",
    )
    _cmp(got, exp, ["user_id", "hour_id"])


def test_token_counts_bpe_sane(sf_dir):
    from zerox_ray.pipelines.dataops import token_counts_bpe

    got = token_counts_bpe(sf_dir).to_pandas()
    assert len(got) == 500
    # BPE-ish pretokens are at least as numerous as whitespace tokens
    assert (got.n_bpe_tokens >= got.n_ws_tokens).all()


def test_top_spenders_deterministic_topk(sf_dir):
    import numpy as np
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.dataops import top_spenders

    got = top_spenders(sf_dir, k=10).to_pandas()
    o = pq.read_table(f"{sf_dir}/orders.parquet").to_pandas()
    o["cents"] = np.floor(o.o_totalprice * 100).astype("int64")
    exp = (
        o.groupby("o_custkey")["cents"].sum().reset_index(name="total_cents")
        .sort_values(["total_cents", "o_custkey"], ascending=[False, True])
        .head(10).reset_index(drop=True)
    )
    assert list(got.o_custkey) == list(exp.o_custkey)
    assert list(got.total_cents) == list(exp.total_cents)


def test_top_orders_per_priority(sf_dir):
    import numpy as np
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.dataops import top_orders_per_priority

    got = top_orders_per_priority(sf_dir, k=3).to_pandas()
    o = pq.read_table(f"{sf_dir}/orders.parquet").to_pandas()
    o["total_cents"] = np.floor(o.o_totalprice * 100).astype("int64")
    for prio, g in got.groupby("o_orderpriority"):
        exp = (
            o[o.o_orderpriority == prio]
            .sort_values(["total_cents", "o_orderkey"], ascending=[False, True])
            .head(3)
        )
        g = g.sort_values("rank")
        assert list(g.o_orderkey) == list(exp.o_orderkey)


def test_sample_documents_deterministic(sf_dir):
    from zerox_ray.pipelines.dataops import sample_documents

    a = set(sample_documents(sf_dir, 200_000).to_pandas().doc_id)
    b = set(sample_documents(sf_dir, 200_000).to_pandas().doc_id)
    assert a == b
    assert 0.1 < len(a) / 500 < 0.35  # ~20% nominal rate


def test_decontaminate_drops_benchmark_members(sf_dir):
    from zerox_ray.pipelines.dataops import decontaminate

    out = decontaminate(sf_dir).to_pandas()
    # every held-out benchmark doc overlaps itself 100% → dropped
    assert not any(out.doc_id % 97 == 3)
    # overlap values are ppm-bounded and survivors respect the ceiling
    assert out.overlap_ppm.between(0, 800_000).all()
    # non-benchmark docs survive (the filter is targeted, not a purge)
    assert len(out) > 0


def test_token_shards_pack_in_order(sf_dir):
    from zerox_ray.pipelines.dataops import token_shards

    out = token_shards(sf_dir, tokens_per_shard=5_000).to_pandas().sort_values("doc_id")
    # shard ids are non-decreasing in doc order and start at 0
    assert out.shard_id.iloc[0] == 0
    assert (out.shard_id.diff().dropna() >= 0).all()
    # every shard except the last crosses the budget once its docs sum
    totals = out.groupby("shard_id")["n_tokens"].sum()
    assert (totals.iloc[:-1] >= 5_000 - out.n_tokens.max()).all()
    # exclusive-prefix definition: first doc of shard k starts below k*budget + its own tokens
    assert len(totals) > 1


def test_repetition_scores_flags_repeats(sf_dir):
    from zerox_ray.pipelines.dataops import repetition_scores

    out = repetition_scores(sf_dir).to_pandas()
    assert len(out) > 0
    assert out.top_bigram_ppm.between(0, 1_000_000).all()
    # docs with <2 tokens score 0
    assert (out.loc[out.n_tokens < 2, "top_bigram_ppm"] == 0).all()


def test_top_ngrams_deterministic_order(sf_dir):
    from zerox_ray.pipelines.dataops import top_ngrams

    a = top_ngrams(sf_dir).to_pandas()
    b = top_ngrams(sf_dir).to_pandas()
    assert a.equals(b)
    assert len(a) == 20
    # counts are non-increasing; ties broken by ngram ascending
    assert (a.n_occurrences.diff().dropna() <= 0).all()


def test_top_ngrams_matches_replay(sf_dir):
    from collections import Counter

    import pyarrow.parquet as pq

    from zerox_ray.functions.text import TOKEN_RE
    from zerox_ray.pipelines.dataops import top_ngrams

    got = top_ngrams(sf_dir).to_pandas()
    c: Counter = Counter()
    for text in pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])["text"].to_pylist():
        toks = TOKEN_RE.findall(text)
        c.update(" ".join(toks[i : i + 2]) for i in range(len(toks) - 1))
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    assert list(zip(got.ngram, got.n_occurrences)) == want


class TestPiiScrub:
    def test_scrub_batch_cases(self):
        from zerox_ray.pipelines.dataops import scrub_pii_batch

        out = scrub_pii_batch(
            pd.Series(
                [
                    "write to a.b+tag@mail-host.co.uk today",
                    "server at 192.168.0.1 and 10.0.0.255",
                    "call +1-555-0147 or +44-20-7946-0958",
                    "no pii here",
                    "mixed x@y.io 1.2.3.4 +9-111-2222",
                ]
            )
        )
        assert list(out.n_emails) == [1, 0, 0, 0, 1]
        assert list(out.n_ips) == [0, 2, 0, 0, 1]
        assert list(out.n_phones) == [0, 0, 2, 0, 1]
        assert out.clean_text[0] == "write to <EMAIL> today"
        assert out.clean_text[1] == "server at <IP> and <IP>"
        assert out.clean_text[2] == "call <PHONE> or <PHONE>"
        assert out.clean_text[4] == "mixed <EMAIL> <IP> <PHONE>"

    def test_sequential_no_rescan(self):
        # a redaction token must never be re-matched by a later pattern
        from zerox_ray.pipelines.dataops import scrub_pii_batch

        out = scrub_pii_batch(pd.Series(["ip-ish mail 1.2.3.4@host.com end"]))
        # the email pattern eats the whole thing (local part allows dots)
        assert out.clean_text[0] == "ip-ish mail <EMAIL> end"
        assert list(out.n_ips) == [0]

    def test_pipeline_matches_duckdb_counts(self, sf_dir):
        from zerox_ray.pipelines.dataops import pii_scrub

        got = pii_scrub(sf_dir).to_pandas()
        exp = _duck(
            sf_dir,
            """SELECT count(*) FILTER (doc_id % 3 = 0) e,
                      count(*) FILTER (doc_id % 4 = 0) i,
                      count(*) FILTER (doc_id % 5 = 0) p FROM documents""",
        )
        assert got.n_emails.sum() == exp.iloc[0, 0]
        assert got.n_ips.sum() == exp.iloc[0, 1]
        assert got.n_phones.sum() == exp.iloc[0, 2]
        assert (got.clean_len == got.clean_text.str.len()).all()


class TestStratifiedSample:
    def test_quota_and_determinism(self, sf_dir):
        from zerox_ray.pipelines.dataops import stratified_sample

        a = stratified_sample(sf_dir, k=7).to_pandas()
        # every language hits its quota (each stratum has >= 7 docs here)
        assert (a.groupby("lang")["rank"].count() == 7).all()
        assert (a.groupby("lang")["rank"].max() == 7).all()
        assert a.doc_id.is_unique
        b = stratified_sample(sf_dir, k=7).to_pandas()
        keys = ["lang", "rank"]
        pd.testing.assert_frame_equal(
            a.sort_values(keys).reset_index(drop=True),
            b.sort_values(keys).reset_index(drop=True),
        )

    def test_selection_is_hash_ranked(self, sf_dir):
        from zerox_ray.functions.hashing import md5_64_array
        from zerox_ray.pipelines.dataops import stratified_sample
        import pyarrow.parquet as pq

        got = stratified_sample(sf_dir, k=3).to_pandas()
        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]).to_pandas()
        t["h"] = md5_64_array([str(int(d)).encode() for d in t.doc_id])
        for lang, g in t.groupby("lang"):
            exp = list(g.sort_values(["h", "doc_id"]).doc_id.head(3))
            sel = got[got.lang == lang].sort_values("rank")
            assert list(sel.doc_id) == exp


class TestTfidfTopTerms:
    def test_matches_local_computation(self, sf_dir):
        from collections import Counter

        import numpy as np
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.dataops import tfidf_top_terms

        got = tfidf_top_terms(sf_dir, k=3).to_pandas()
        t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
        n = len(t)
        tf = {int(r.doc_id): Counter(r.text.split(" ")) for r in t.itertuples()}
        df = Counter()
        for c in tf.values():
            df.update(c.keys())
        for did in list(tf)[:25]:
            scored = sorted(
                (
                    (-int(np.floor(1_000_000.0 * c * n / df[w])), w)
                    for w, c in tf[did].items()
                ),
            )[:3]
            g = got[got.doc_id == did].sort_values("rank")
            assert list(g.term) == [w for _, w in scored], did
            assert list(g.score_ppm) == [-s for s, _ in scored], did

    def test_rank_is_dense_per_doc(self, sf_dir):
        from zerox_ray.pipelines.dataops import tfidf_top_terms

        got = tfidf_top_terms(sf_dir, k=4).to_pandas()
        per = got.groupby("doc_id")["rank"].agg(["min", "max", "count"])
        assert (per["min"] == 1).all()
        assert (per["max"] == per["count"]).all()
        assert (per["count"] <= 4).all()


class TestNormalizeText:
    def test_output_is_clean_and_nfc(self, sf_dir):
        import unicodedata

        from zerox_ray.pipelines.dataops import normalize_text

        got = normalize_text(sf_dir).to_pandas()
        s = got.norm_text
        assert not s.str.contains(r"[\x00-\x08\x0b-\x1f\x7f]", regex=True).any()
        assert not s.str.contains(r"[ \t]{2,}", regex=True).any()
        assert not s.str.contains(r"\t", regex=True).any()
        assert not (s.str.startswith(" ") | s.str.endswith(" ")).any()
        # planted combining acute must arrive NFC-composed on even ids
        even = got[got.doc_id % 2 == 0].norm_text
        assert even.str.contains("café", regex=False).all()
        assert (s == s.map(lambda t: unicodedata.normalize("NFC", t))).all()
        assert (got.norm_len == s.str.len()).all()

    def test_changed_flags_plant_effect(self, sf_dir):
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.dataops import normalize_text

        got = normalize_text(sf_dir).to_pandas().set_index("doc_id")
        docs = (
            pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
            .to_pandas()
            .set_index("doc_id")
        )
        # ids untouched by content plants (odd, non-multiple-of-3) whose
        # text is already clean must round-trip unchanged
        quiet = [i for i in docs.index if i % 2 and i % 3]
        clean = [
            i for i in quiet
            if docs.text[i] == docs.text[i].strip(" ")
            and "  " not in docs.text[i] and "\t" not in docs.text[i]
        ]
        assert clean, "corpus unexpectedly has no clean quiet docs"
        assert (got.loc[clean, "changed"] == 0).all()
        assert (got.loc[clean, "norm_text"] == docs.text[clean]).all()


class TestCorpusMix:
    def test_rates_and_determinism(self, sf_dir):
        import pyarrow.parquet as pq

        from zerox_ray.functions.hashing import md5_64
        from zerox_ray.pipelines.dataops import corpus_mix

        got = corpus_mix(sf_dir).to_pandas()
        again = corpus_mix(sf_dir).to_pandas()
        assert sorted(got.doc_id) == sorted(again.doc_id)
        docs = pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
        ).to_pandas()
        exp_ids = [
            int(r.doc_id)
            for r in docs.itertuples()
            if md5_64(str(r.doc_id).encode()) % 1_000_000
            < ((int(r.source[3:]) * 37) % 10 + 1) * 100_000
        ]
        assert sorted(got.doc_id) == sorted(exp_ids)
        # mixture actually reweights: a 100k-ppm source keeps far fewer
        # docs than a 1M-ppm source
        rates = got.source.str.slice(3).astype(int).map(lambda i: (i * 37) % 10 + 1)
        kept = got.groupby(rates).size()
        assert kept.loc[10] > kept.loc[1]


def test_event_type_reach_matches_pandas(sf_dir):
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.dataops import event_type_reach

    got = (
        event_type_reach(sf_dir)
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    e = pq.read_table(f"{sf_dir}/events.parquet").to_pandas()
    exp = (
        e.groupby("event_type")["user_id"]
        .nunique()
        .rename("n_users")
        .reset_index()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(got, exp.astype({"n_users": "int64"}))


def test_quality_percentiles_are_rank_consistent(sf_dir):
    from zerox_ray.pipelines.dataops import quality_percentiles

    got = quality_percentiles(sf_dir).to_pandas()
    # monotone: a higher score never gets a lower percentile
    s = got.sort_values("score_ppm").reset_index(drop=True)
    assert s.percentile_ppm.is_monotonic_increasing
    # bounded, and percentile ≈ exact strictly-below rank within one
    # bin's mass (the histogram's resolution guarantee)
    n = len(got)
    assert got.percentile_ppm.between(0, 1_000_000).all()
    exact_below = got.score_ppm.rank(method="min").astype(int) - 1
    err = (got.percentile_ppm - exact_below * 1_000_000 // n).abs()
    bin_mass = got.groupby(got.score_ppm // 976).size().max()
    assert (err <= bin_mass * 1_000_000 // n).all()


class TestSourceReport:
    def test_matches_pandas(self, sf_dir):
        import numpy as np
        import pandas as pd
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.dataops import source_report

        got = (
            source_report(sf_dir)
            .to_pandas()
            .sort_values("source")
            .reset_index(drop=True)
        )
        d = pq.read_table(f"{sf_dir}/documents.parquet").to_pandas()
        exp = (
            d.assign(total_tokens=d.text.str.count(" ") + 1)
            .groupby("source", as_index=False)
            .agg(
                n_docs=("source", "size"),
                total_chars=("n_chars", "sum"),
                total_tokens=("total_tokens", "sum"),
            )
            .sort_values("source")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got.astype({"n_docs": "int64"}), exp.astype({"n_docs": "int64"})
        )


class TestShuffledShards:
    def test_deterministic_and_complete(self, sf_dir):
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.dataops import shuffled_shards

        a = shuffled_shards(sf_dir).to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = shuffled_shards(sf_dir).to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert a.equals(b)  # hash-derived: identical across runs
        n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
        assert len(a) == n and a.doc_id.nunique() == n
        # positions are 0..size-1 within each shard
        for shard, g in a.groupby("shard"):
            assert sorted(g.pos.tolist()) == list(range(len(g)))
        # the hash spreads docs over many shards
        assert a.shard.nunique() > 32

    def test_order_is_not_doc_id_order(self, sf_dir):
        from zerox_ray.pipelines.dataops import shuffled_shards

        a = shuffled_shards(sf_dir).to_pandas()
        one = a[a.shard == a.shard.iloc[0]].sort_values("pos")
        assert not one.doc_id.is_monotonic_increasing  # actually shuffled


class TestGlobalRank:
    def test_matches_row_number(self, sf_dir):
        import pandas as pd
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.dataops import global_rank_docs

        got = (
            global_rank_docs(sf_dir)
            .to_pandas()
            .sort_values("rank")
            .reset_index(drop=True)
        )
        d = pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
        ).to_pandas()
        exp = d.sort_values(
            ["n_chars", "doc_id"], ascending=[False, True]
        ).reset_index(drop=True)
        exp["rank"] = pd.Series(range(1, len(exp) + 1), dtype="int64")
        pd.testing.assert_frame_equal(
            got, exp.astype({"doc_id": "int64", "n_chars": "int64"})
        )
        # a permutation: every rank exactly once
        assert got["rank"].tolist() == list(range(1, len(d) + 1))


def test_cohort_retention_matches_pandas(sf_dir):
    import numpy as np
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.dataops import cohort_retention

    got = (
        cohort_retention(sf_dir)
        .to_pandas()
        .sort_values(["cohort_wk", "week_offset"])
        .reset_index(drop=True)
    )
    e = pq.read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts"]).to_pandas()
    days = e["ts"].to_numpy().astype("datetime64[D]").astype(np.int64)
    uw = pd.DataFrame({"user_id": e["user_id"], "wk": (days - 4) // 7}).drop_duplicates()
    cohort = uw.groupby("user_id")["wk"].transform("min")
    cells = pd.DataFrame({"cohort_wk": cohort, "week_offset": uw["wk"] - cohort})
    exp = (
        cells.groupby(["cohort_wk", "week_offset"], as_index=False)
        .size()
        .rename(columns={"size": "n_users"})
        .astype("int64")
        .sort_values(["cohort_wk", "week_offset"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp)
    # offset-0 cell of a cohort counts every user of that cohort: it must
    # be the row-max of its cohort
    base = got[got.week_offset == 0].set_index("cohort_wk")["n_users"]
    assert (got.groupby("cohort_wk")["n_users"].max() <= base).all()


def test_above_median_docs_threshold_semantics(sf_dir):
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.dataops import above_median_docs

    got = above_median_docs(sf_dir).to_pandas()
    d = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    ).to_pandas()
    for lang, g in d.groupby("lang"):
        v = g["n_chars"].sort_values().to_numpy()
        med = v[(len(v) - 1) * 50 // 100]
        exp = set(g.loc[g["n_chars"] > med, "doc_id"])
        assert set(got.loc[got["lang"] == lang, "doc_id"]) == exp
    # strictly-above semantics: every lang loses at least its median row
    assert len(got) < len(d)


def test_props_partial_identity_elements_merge_correctly():
    """The all-missing identity path: min/max sentinels must be the TRUE
    int64 extremes (a float64 round-trip would wrap INT64_MAX negative
    and invert the min-merge) and a later real value must win the merge."""
    import numpy as np

    from zerox_ray.pipelines.dataops import _props_partial

    all_missing = _props_partial(
        pd.DataFrame({"event_type": ["b", "b"], "props": ["not json", "{}"]})
    )
    assert all_missing.n_missing.tolist() == [2]
    assert all_missing.min_k.tolist() == [np.iinfo(np.int64).max]
    assert all_missing.max_k.tolist() == [np.iinfo(np.int64).min]
    assert all_missing.sum_k.tolist() == [0]

    real = _props_partial(
        pd.DataFrame({"event_type": ["b", "b"], "props": ['{"k": 3}', '{"k": -2}']})
    )
    merged = pd.concat([all_missing, real]).groupby("event_type").agg(
        n_events=("n_events", "sum"),
        n_missing=("n_missing", "sum"),
        sum_k=("sum_k", "sum"),
        min_k=("min_k", "min"),
        max_k=("max_k", "max"),
    )
    row = merged.loc["b"]
    assert (row.n_events, row.n_missing, row.sum_k, row.min_k, row.max_k) == (
        4, 2, 1, -2, 3,
    )


def test_props_field_stats_matches_pandas(sf_dir):
    import json

    import pyarrow.parquet as pq

    from zerox_ray.pipelines.dataops import props_field_stats

    got = (
        props_field_stats(sf_dir)
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    e = pq.read_table(f"{sf_dir}/events.parquet", columns=["event_type", "props"]).to_pandas()
    e["k"] = [json.loads(p)["k"] for p in e["props"]]
    exp = (
        e.groupby("event_type")["k"]
        .agg(n_events="size", sum_k="sum", min_k="min", max_k="max")
        .reset_index()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    assert (got.n_missing == 0).all()
    for c in ("n_events", "sum_k", "min_k", "max_k"):
        assert got[c].tolist() == exp[c].tolist(), c


def test_curate_corpus_composes_the_gates(sf_dir):
    """End-to-end curation ≡ applying each oracled stage independently."""
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.dataops import (
        curate_corpus,
        decontaminate,
        dedup_exact,
        quality_filter,
    )

    got = curate_corpus(sf_dir).to_pandas()
    q = set(quality_filter(sf_dir).to_pandas().doc_id)
    d = set(decontaminate(sf_dir).to_pandas().doc_id)
    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    ).to_pandas()
    # keepers among quality∩decon survivors (first occurrence per text)
    surv = docs[docs.doc_id.isin(q & d)].sort_values("doc_id")
    keepers = set(surv.drop_duplicates("text").doc_id)
    assert set(got.doc_id) <= keepers
    # per-lang quota respected, ranks contiguous from 1
    for lang, g in got.groupby("lang"):
        assert len(g) <= 50
        assert sorted(g["rank"]) == list(range(1, len(g) + 1))


def test_mad_outliers_matches_numpy(sf_dir):
    import numpy as np
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.dataops import mad_outliers

    got = (
        mad_outliers(sf_dir)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    v = np.sort(
        pq.read_table(f"{sf_dir}/documents.parquet", columns=["n_chars"])
        .column("n_chars")
        .to_numpy()
    ).astype(np.int64)
    med = int(v[(len(v) - 1) // 2])  # lower median
    ad = np.sort(np.abs(v - med))
    mad = int(ad[(len(ad) - 1) // 2])
    assert (got["abs_dev"] == np.abs(got["n_chars"] - med)).all()
    assert (got["is_outlier"] == (got["abs_dev"] > 2 * mad).astype(int)).all()
    # both flag values must occur, else the gate is degenerate on the
    # synthetic corpus and the oracle comparison proves nothing
    assert set(got["is_outlier"].unique()) == {0, 1}


def test_lang_confusion_matrix_conserves_mass(sf_dir):
    from zerox_ray.pipelines.dataops import lang_confusion, lang_id
    import pyarrow.parquet as pq

    got = lang_confusion(sf_dir).to_pandas()
    n_docs = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    # every document lands in exactly one (lang, pred_lang) cell
    assert got["n_docs"].sum() == n_docs
    assert not got.duplicated(["lang", "pred_lang"]).any()
    # the matrix marginals agree with the per-doc lang_id output
    pred_marginal = (
        lang_id(sf_dir).to_pandas().groupby("pred_lang").size().to_dict()
    )
    got_marginal = got.groupby("pred_lang")["n_docs"].sum().to_dict()
    assert got_marginal == pred_marginal


def test_corpus_split_stable_and_disjoint(sf_dir):
    from zerox_ray.functions.hashing import md5_64
    from zerox_ray.pipelines.dataops import (
        SPLIT_TEST_PPM,
        SPLIT_VAL_PPM,
        corpus_split,
    )

    got = corpus_split(sf_dir).to_pandas()
    # exactly one assignment per doc; all three splits occur
    assert not got.duplicated("doc_id").any()
    assert set(got["split"].unique()) == {"train", "val", "test"}
    # membership is a pure function of doc_id (stable under corpus
    # growth): replay the hash rule per row
    for doc_id, split in zip(got["doc_id"], got["split"]):
        h = md5_64(str(doc_id).encode()) % 1_000_000
        want = (
            "test"
            if h < SPLIT_TEST_PPM
            else "val" if h < SPLIT_TEST_PPM + SPLIT_VAL_PPM else "train"
        )
        assert split == want, doc_id


def test_packed_sequences_is_a_partition_of_the_stream(sf_dir):
    """Every sequence except the last is exactly full; per-doc pieces
    tile the doc's token count; pieces within a sequence are disjoint."""
    from zerox_ray.pipelines.dataops import packed_sequences

    df = packed_sequences(sf_dir).to_pandas()
    assert (df["n_tok"] > 0).all()
    # per-sequence fill: sum of pieces == 128 for all but the last seq
    fill = df.groupby("seq_id")["n_tok"].sum().sort_index()
    assert (fill.iloc[:-1] == 128).all()
    assert 0 < fill.iloc[-1] <= 128
    # per-doc: pieces sum to the doc's token count, contiguous seq ids
    import re

    import pyarrow.parquet as pq

    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ntok = {
        d: len(re.findall(r"[a-z]+", t))
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    per_doc = df.groupby("doc_id")["n_tok"].sum()
    for d, s in per_doc.items():
        assert s == ntok[d]
    seqs = df.groupby("doc_id")["seq_id"].agg(["min", "max", "count"])
    assert (seqs["max"] - seqs["min"] + 1 == seqs["count"]).all()
    # a boundary-straddling doc exists (the point of wrap-around packing)
    assert (seqs["count"] > 1).any()
