"""Relational operators (broadcast join, hash join, as-of, sessions)
validated against independent pandas/duckdb computations, plus
adversarial combiner-reassembly cases."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from zerox_ray.pipelines.relational import (
    asof_purchase_view,
    events_sessions,
    hash_join,
    orders_by_nation,
    revenue_by_priority,
)


class TestJoins:
    def test_orders_by_nation_matches_pandas(self, sf_dir):
        got = orders_by_nation(sf_dir).to_pandas().sort_values("n_name").reset_index(drop=True)
        o = pq.read_table(f"{sf_dir}/orders.parquet").to_pandas()
        c = pq.read_table(f"{sf_dir}/customer.parquet").to_pandas()
        n = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
        j = o.merge(c, left_on="o_custkey", right_on="c_custkey").merge(
            n, left_on="c_nationkey", right_on="n_nationkey"
        )
        j["cents"] = np.floor(j.o_totalprice * 100).astype("int64")
        exp = (
            j.groupby("n_name")
            .agg(n_orders=("cents", "size"), total_cents=("cents", "sum"))
            .reset_index()
            .sort_values("n_name")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got.astype({"n_orders": "int64", "total_cents": "int64"}), exp.astype({"n_orders": "int64", "total_cents": "int64"})
        )

    def test_hash_join_matches_pandas_merge(self, sf_dir):
        import ray.data

        o = pq.read_table(f"{sf_dir}/orders.parquet").to_pandas()[
            ["o_orderkey", "o_orderpriority"]
        ]
        li = pq.read_table(f"{sf_dir}/lineitem.parquet").to_pandas()[
            ["l_orderkey", "l_linenumber"]
        ]
        left = ray.data.from_pandas(li.rename(columns={"l_orderkey": "k"}))
        right = ray.data.from_pandas(o.rename(columns={"o_orderkey": "k"}))
        got = (
            hash_join(left, right, on="k", num_buckets=8)
            .to_pandas()
            .sort_values(["k", "l_linenumber"])
            .reset_index(drop=True)
        )
        exp = (
            li.rename(columns={"l_orderkey": "k"})
            .merge(o.rename(columns={"o_orderkey": "k"}), on="k")
            .sort_values(["k", "l_linenumber"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp)

    def test_revenue_by_priority_totals(self, sf_dir):
        got = revenue_by_priority(sf_dir).to_pandas()
        li = pq.read_table(f"{sf_dir}/lineitem.parquet").to_pandas()
        assert got.n_items.sum() == len(li)
        assert len(got) == 5  # five priorities


class TestAsofAndSessions:
    def test_asof_matches_bruteforce(self, sf_dir):
        got = asof_purchase_view(sf_dir).to_pandas().set_index("event_id")
        ev = pq.read_table(f"{sf_dir}/events.parquet").to_pandas()
        buys = ev[ev.event_type == "purchase"]
        views = ev[ev.event_type == "view"]
        assert len(got) == len(buys)
        rng = np.random.RandomState(0)
        for _, b in buys.iloc[rng.choice(len(buys), 25, replace=False)].iterrows():
            prior = views[(views.user_id == b.user_id) & (views.ts <= b.ts)]
            exp = prior.ts.max().value // 1000 if len(prior) else -1
            # pandas .value is ns; parquet ts is us-resolution
            if len(prior):
                exp = prior.ts.astype("int64").max()
            assert got.loc[b.event_id, "view_ts_us"] == exp

    def test_sessions_partition_events_exactly(self, sf_dir):
        got = events_sessions(sf_dir).to_pandas()
        ev = pq.read_table(f"{sf_dir}/events.parquet").to_pandas()
        assert got.n_events.sum() == len(ev)
        # session invariants per user: non-overlapping, gap-separated
        gap_us = 8 * 3600 * 1_000_000
        for uid, g in got.groupby("user_id"):
            g = g.sort_values("session_id")
            assert (g.end_us >= g.start_us).all()
            assert (g.start_us.values[1:] - g.end_us.values[:-1] > gap_us).all()


class TestCombinerReassembly:
    """partial_reassemble + merge must equal single-shot reassembly for
    ANY split of a url's page rows across blocks (giant-doc path)."""

    def _page_rows(self, n_urls=3, pages_per_url=40, with_errors=True):
        rows = []
        for u in range(n_urls):
            for p in range(1, pages_per_url + 1):
                err = with_errors and u == 1 and p % 7 == 0
                rows.append(
                    {
                        "url": f"u{u}",
                        "pid": u % 2,
                        "page_index": p,
                        "content": "" if err else f"c{u}-{p}",
                        "content_length": 0 if err else len(f"c{u}-{p}"),
                        "status": "ERROR" if err else "SUCCESS",
                        "error": "boom" if err else "",
                        "input_tokens": 1,
                        "output_tokens": 1,
                    }
                )
        return pd.DataFrame(rows)

    @pytest.mark.parametrize("cut_points", [[7], [1, 2, 3], [39, 41, 100], [60], [40, 80]])
    def test_arbitrary_block_splits_byte_identical(self, cut_points):
        """Cuts may fall ANYWHERE in the stream — including mid-url —
        as long as the stream itself is per-url-contiguous in page order
        (the pipeline invariant: splitter emits each url's fragments as
        one ordered run, and blocks slice the stream contiguously)."""
        from zerox_ray.stages.reassemble import (
            merge_partials_bucket,
            partial_reassemble_block,
            reassemble_bucket,
        )

        df = self._page_rows()  # grouped per url, page order ascending
        expected = (
            reassemble_bucket(df).sort_values("url").reset_index(drop=True)
        )
        cuts = [0] + cut_points + [len(df)]
        partials = pd.concat(
            [
                partial_reassemble_block(df.iloc[a:b])
                for a, b in zip(cuts, cuts[1:])
                if b > a
            ],
            ignore_index=True,
        )
        got = (
            merge_partials_bucket(partials).sort_values("url").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[expected.columns.tolist()], expected)

    def test_overlapping_partials_fail_loudly(self):
        """A reordered stream (broken invariant) must raise, never emit
        silently-wrong markdown."""
        from zerox_ray.stages.reassemble import (
            merge_partials_bucket,
            partial_reassemble_block,
        )

        df = self._page_rows(n_urls=1, pages_per_url=10, with_errors=False)
        # interleave: block A gets odd pages, block B even → overlapping ranges
        a, b = df.iloc[::2], df.iloc[1::2]
        partials = pd.concat(
            [partial_reassemble_block(a), partial_reassemble_block(b)],
            ignore_index=True,
        )
        with pytest.raises(ValueError, match="overlapping partial"):
            merge_partials_bucket(partials)

    def test_giant_doc_end_to_end(self, tmp_path):
        """A 600-page 'giant' url survives the full pipeline with tiny
        batch sizes (forcing many blocks) byte-identically."""
        import pyarrow as pa
        import ray.data

        from zerox_ray import ZeroxConfig, run_ocr
        from zerox_ray.testgen import EPOCH_US, build_html

        chunks = [f"page {i} body" for i in range(1, 601)]
        payload = build_html(1, chunks, False)
        t = pa.table(
            {
                "url": pa.array(["https://example.org/giant/1"]),
                "warc_ts": pa.array([EPOCH_US], pa.timestamp("us")),
                "html": pa.array([payload], pa.binary()),
                "text": pa.array(["x"]),
                "lang": pa.array(["en"]),
            }
        )
        import pyarrow.parquet as pq2

        pq2.write_table(t, str(tmp_path / "pages-00000.parquet"))
        cfg = ZeroxConfig(split_batch_size=1, score_batch_size=16)
        docs = run_ocr(str(tmp_path), cfg).to_pandas()
        assert len(docs) == 1
        assert docs.total_pages.iloc[0] == 600
        assert docs.markdown.iloc[0] == "\n\n".join(chunks)


def test_sliding_windows_cover_each_event_twice(sf_dir):
    import pyarrow.parquet as pq

    from zerox_ray.pipelines.relational import events_sliding

    got = events_sliding(sf_dir).to_pandas()
    n_events = pq.read_metadata(f"{sf_dir}/events.parquet").num_rows
    # window=2h slide=1h → every event counted in exactly 2 windows
    assert got.n_events.sum() == 2 * n_events
    assert (got.window_start_us % 3_600_000_000 == 0).all()


def test_hash_join_preserves_int64_above_2_53(sf_dir):
    """Regression: pass-through int64 columns above 2^53 must survive the
    join exactly. The tagged union used to null-fill each side's missing
    columns; blocks mixing sides then upcast those ints to float64 in
    pandas, rounding the low bits (graph.link_components lost 1327 of
    1338 edges to this). Covers both the inner pass-through case and the
    left-join NaN-upcast-inside-pd.merge case."""
    import ray.data

    rng = np.random.default_rng(7)
    # keys/payloads drawn from [2^62, 2^63): none representable in float64
    big = lambda n: rng.integers(1 << 62, 1 << 63, size=n, dtype=np.int64)
    keys = big(500)
    payload = big(500)
    left = pd.DataFrame({"k": keys, "big_l": payload})
    # right covers only half the keys → left join exercises NaN upcast
    right = pd.DataFrame({"k": keys[:250], "big_r": big(250)})
    for how in ("inner", "left"):
        got = (
            hash_join(
                ray.data.from_pandas(left),
                ray.data.from_pandas(right),
                on="k",
                how=how,
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        # reference merge in nullable Int64 end-to-end: a plain pd.merge
        # with how='left' suffers the very float64 upcast under test
        want = (
            left.astype("Int64")
            .merge(right.astype("Int64"), on="k", how=how)
            .sort_values("k")
            .reset_index(drop=True)
        )
        assert [int(v) for v in got["k"]] == [int(v) for v in want["k"]]
        assert [int(v) for v in got["big_l"]] == [int(v) for v in want["big_l"]]
        assert set(int(v) for v in got["big_r"].dropna()) == set(
            int(v) for v in want["big_r"].dropna()
        )
        assert int(got["big_r"].isna().sum()) == int(want["big_r"].isna().sum())


class TestEventsFunnel:
    def test_matches_sequential_scan(self, sf_dir):
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.relational import events_funnel

        got = (
            events_funnel(sf_dir, within_hours=24)
            .to_pandas()
            .set_index("user_id")
            .sort_index()
        )
        ev = pq.read_table(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
        ).to_pandas()
        ev["us"] = ev.ts.astype("int64")
        w = 24 * 3600 * 1_000_000
        for uid, g in ev.groupby("user_id"):
            g = g.sort_values("us")
            cur, reach = None, []
            for step in ("view", "click", "purchase"):
                if cur is None:
                    c = g[g.event_type == step]
                else:
                    c = g[(g.event_type == step) & (g.us > cur) & (g.us <= cur + w)]
                if c.empty:
                    break
                cur = int(c.us.min())
                reach.append(cur)
            if not reach:
                assert uid not in got.index
                continue
            r = got.loc[uid]
            assert (r.depth, r.start_us, r.end_us) == (len(reach), reach[0], reach[-1])

    def test_strictness_and_window(self):
        import pandas as pd

        from zerox_ray.pipelines.relational import _funnel_bucket

        h = 3600 * 1_000_000
        g = pd.DataFrame(
            {
                "user_id": [1, 1, 1, 2, 2, 3, 3],
                "ts": [0, 0, h, 0, 25 * h, 0, h],
                "event_type": [
                    "view", "click", "purchase",   # click ties view → no advance
                    "view", "click",               # click outside 24h window
                    "view", "click",               # clean 2-step
                ],
            }
        )
        out = _funnel_bucket(g, ("view", "click", "purchase"), 24 * h)
        out = out.set_index("user_id")
        assert out.loc[1].depth == 1  # tie does not advance
        assert out.loc[2].depth == 1  # window excludes late click
        assert out.loc[3].depth == 2


class TestSemiAntiJoins:
    """hash_join(how='semi'/'anti') + the customer-activity queries."""

    def _sides(self, sf_dir):
        c = pq.read_table(f"{sf_dir}/customer.parquet").to_pandas()
        o = pq.read_table(f"{sf_dir}/orders.parquet").to_pandas()
        recent = o.loc[o.o_orderdate >= pd.Timestamp("2001-06-01"), "o_custkey"]
        return c, set(recent)

    def test_semi_anti_match_isin(self, sf_dir):
        import ray.data

        c, recent = self._sides(sf_dir)
        left = ray.data.from_pandas(c[["c_custkey", "c_name"]])
        right = ray.data.from_pandas(
            pd.DataFrame({"c_custkey": sorted(recent)})
        )
        for how in ("semi", "anti"):
            got = (
                hash_join(left, right, on="c_custkey", how=how, num_buckets=8)
                .to_pandas()
                .sort_values("c_custkey")
                .reset_index(drop=True)
            )
            mask = c.c_custkey.isin(recent)
            exp = (
                c.loc[mask if how == "semi" else ~mask, ["c_custkey", "c_name"]]
                .sort_values("c_custkey")
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, exp)
            assert str(got.c_custkey.dtype) == "int64"  # no NaN upcast

    def test_dormant_and_active_partition_customers(self, sf_dir):
        from zerox_ray.pipelines.relational import (
            active_segments,
            dormant_customers,
        )

        c, recent = self._sides(sf_dir)
        dormant = dormant_customers(sf_dir).to_pandas()
        segs = active_segments(sf_dir).to_pandas()
        assert len(dormant) == len(c) - len(recent)
        assert segs.n_customers.sum() == len(recent)
        assert not set(dormant.c_custkey) & recent
        # cents are floor(acctbal*100) — spot-check against pandas
        exp = c.set_index("c_custkey").c_acctbal
        got = dormant.set_index("c_custkey").acctbal_cents
        assert (got == np.floor(exp.loc[got.index] * 100).astype("int64")).all()


class TestUserEventLedger:
    def test_matches_pandas_window(self, sf_dir):
        from zerox_ray.pipelines.relational import user_event_ledger

        got = (
            user_event_ledger(sf_dir)
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        e = pq.read_table(f"{sf_dir}/events.parquet").to_pandas()
        e = e.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
        e["cents"] = np.floor(e.value * 100).astype("int64")
        e["running_cents"] = e.groupby("user_id").cents.cumsum()
        ts_us = e.ts.astype("int64")
        e["gap_us"] = (
            ts_us.groupby(e.user_id).diff().fillna(-1).astype("int64")
        )
        exp = (
            pd.DataFrame(
                {
                    "event_id": e.event_id,
                    "user_id": e.user_id,
                    "ts_us": ts_us,
                    "running_cents": e.running_cents,
                    "gap_us": e.gap_us,
                }
            )
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, exp)
        # every row of the input is present exactly once
        assert len(got) == len(e)


class TestPricingSummary:
    def test_matches_pandas_rollup(self, sf_dir):
        from zerox_ray.pipelines.relational import pricing_summary

        got = (
            pricing_summary(sf_dir)
            .to_pandas()
            .sort_values(["l_returnflag", "l_linestatus"])
            .reset_index(drop=True)
        )
        li = pq.read_table(f"{sf_dir}/lineitem.parquet").to_pandas()
        li = li[li.l_shipdate <= pd.Timestamp("1999-01-01")]
        price, disc, tax = (
            li.l_extendedprice.to_numpy(),
            li.l_discount.to_numpy(),
            li.l_tax.to_numpy(),
        )
        tmp = pd.DataFrame(
            {
                "l_returnflag": li.l_returnflag,
                "l_linestatus": li.l_linestatus,
                "sum_qty": np.floor(li.l_quantity.to_numpy()).astype("int64"),
                "sum_base_cents": np.floor(price * 100.0).astype("int64"),
                "sum_disc_cents": np.floor(price * (1.0 - disc) * 100.0).astype("int64"),
                "sum_charge_cents": np.floor(
                    price * (1.0 - disc) * (1.0 + tax) * 100.0
                ).astype("int64"),
                "n_rows": 1,
            }
        )
        exp = (
            tmp.groupby(["l_returnflag", "l_linestatus"], as_index=False)
            .sum()
            .astype({"n_rows": "int64"})
            .sort_values(["l_returnflag", "l_linestatus"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[exp.columns.tolist()], exp)


class TestEventsNeighbors:
    def test_matches_duckdb_range_join(self, sf_dir):
        import duckdb

        from zerox_ray.pipelines.relational import events_neighbors

        got = (
            events_neighbors(sf_dir)
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        exp = duckdb.sql(
            f"""SELECT e1.event_id,
                       CAST(count(e2.event_id) AS BIGINT) n_neighbors,
                       CAST(COALESCE(sum(CAST(floor(e2.value*100) AS BIGINT)), 0) AS BIGINT) neighbor_cents
                FROM read_parquet('{sf_dir}/events.parquet') e1
                LEFT JOIN read_parquet('{sf_dir}/events.parquet') e2
                  ON e1.user_id = e2.user_id AND e2.event_id <> e1.event_id
                 AND e2.ts >= e1.ts - INTERVAL 4 HOUR AND e2.ts <= e1.ts + INTERVAL 4 HOUR
                GROUP BY e1.event_id ORDER BY e1.event_id"""
        ).fetchdf()
        pd.testing.assert_frame_equal(got, exp)

    def test_bucket_kernel_vs_bruteforce(self):
        from zerox_ray.pipelines.relational import _neighbors_bucket

        rng = np.random.RandomState(7)
        n = 400
        g = pd.DataFrame(
            {
                "event_id": np.arange(n, dtype="int64"),
                "user_id": rng.randint(0, 5, n).astype("int64"),
                "ts": rng.randint(0, 1000, n).astype("int64"),
                "value": rng.rand(n) * 10,
            }
        )
        w = 50
        got = _neighbors_bucket(g, w).sort_values("event_id").reset_index(drop=True)
        cents = np.floor(g.value.to_numpy() * 100).astype("int64")
        exp_n, exp_c = [], []
        for i in range(n):
            m = (
                (g.user_id == g.user_id[i])
                & (g.ts >= g.ts[i] - w)
                & (g.ts <= g.ts[i] + w)
                & (g.event_id != g.event_id[i])
            ).to_numpy()
            exp_n.append(int(m.sum()))
            exp_c.append(int(cents[m].sum()))
        assert got.n_neighbors.tolist() == exp_n
        assert got.neighbor_cents.tolist() == exp_c

    def test_duplicate_timestamps_inclusive_bounds(self):
        from zerox_ray.pipelines.relational import _neighbors_bucket

        g = pd.DataFrame(
            {
                "event_id": [1, 2, 3, 4],
                "user_id": [1, 1, 1, 2],
                "ts": [100, 100, 150, 100],
                "value": [1.0, 2.0, 3.0, 4.0],
            }
        )
        got = _neighbors_bucket(g, 50).set_index("event_id")
        assert got.loc[1].n_neighbors == 2  # same-ts twin + boundary event
        assert got.loc[3].n_neighbors == 2  # both ts=100 events at -50 bound
        assert got.loc[4].n_neighbors == 0  # other user
        assert got.loc[1].neighbor_cents == 200 + 300


class TestGroupedQuantiles:
    def test_matches_sorted_order_statistics(self, sf_dir):
        from zerox_ray.pipelines.relational import priority_price_quantiles

        got = (
            priority_price_quantiles(sf_dir)
            .to_pandas()
            .sort_values(["o_orderpriority", "q_pct"])
            .reset_index(drop=True)
        )
        o = pq.read_table(
            f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
        ).to_pandas()
        o["cents"] = np.floor(o.o_totalprice * 100).astype("int64")
        for (prio, q), grp in got.groupby(["o_orderpriority", "q_pct"]):
            v = np.sort(o.loc[o.o_orderpriority == prio, "cents"].to_numpy())
            exp = int(v[(len(v) - 1) * q // 100])
            assert grp.value_cents.iloc[0] == exp, (prio, q)
        assert len(got) == got.o_orderpriority.nunique() * 3

    def test_single_row_group(self):
        from zerox_ray.pipelines.relational import _group_quantiles

        g = pd.DataFrame({"o_orderpriority": ["X"], "cents": [123]})
        out = _group_quantiles(g, (25, 50, 75))
        assert out.value_cents.tolist() == [123, 123, 123]


class TestLangCentroids:
    def test_matches_pandas_quantized_sums(self, sf_dir):
        from zerox_ray.pipelines.relational import lang_embedding_centroids

        got = (
            lang_embedding_centroids(sf_dir)
            .to_pandas()
            .sort_values(["lang", "dim"])
            .reset_index(drop=True)
        )
        e = pq.read_table(f"{sf_dir}/embeddings.parquet").to_pandas()
        d = pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
        ).to_pandas()
        j = e.merge(d, left_on="vec_id", right_on="doc_id")
        mat = np.floor(
            np.stack(j.embedding.to_numpy()).astype(np.float64) * 1e6
        ).astype("int64")
        for lang, idx in j.groupby("lang").indices.items():
            sub = got[got.lang == lang].sort_values("dim")
            assert sub.sum_q.tolist() == mat[idx].sum(axis=0).tolist()
            assert (sub.n_vecs == len(idx)).all()
        assert len(got) == d.lang.nunique() * mat.shape[1]


def test_brand_region_revenue_matches_duckdb(sf_dir):
    import duckdb

    from zerox_ray.pipelines.relational import brand_region_revenue

    got = (
        brand_region_revenue(sf_dir)
        .to_pandas()
        .sort_values(["p_brand", "r_name"])
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        f"""select p.p_brand, r.r_name,
                   cast(count(*) as bigint) n_items,
                   cast(sum(cast(floor(l.l_extendedprice * (1 - l.l_discount) * 100)
                                 as bigint)) as bigint) revenue_cents
            from read_parquet('{sf_dir}/lineitem.parquet') l
            join read_parquet('{sf_dir}/part.parquet') p on p.p_partkey = l.l_partkey
            join read_parquet('{sf_dir}/supplier.parquet') s on s.s_suppkey = l.l_suppkey
            join read_parquet('{sf_dir}/nation.parquet') n on n.n_nationkey = s.s_nationkey
            join read_parquet('{sf_dir}/region.parquet') r on r.r_regionkey = n.n_regionkey
            group by 1, 2 order by 1, 2"""
    ).fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_revenue_cube_matches_duckdb_grouping_sets(sf_dir):
    import duckdb

    from zerox_ray.pipelines.relational import revenue_cube

    got = (
        revenue_cube(sf_dir)
        .to_pandas()
        .sort_values(["n_name", "o_orderpriority"])
        .reset_index(drop=True)
    )
    exp = duckdb.sql(
        f"""select coalesce(n_name, 'ALL') n_name,
                   coalesce(o_orderpriority, 'ALL') o_orderpriority,
                   cast(count(*) as bigint) n_orders,
                   cast(sum(cast(floor(o_totalprice * 100) as bigint)) as bigint)
                       total_cents
            from read_parquet('{sf_dir}/orders.parquet') o
            join read_parquet('{sf_dir}/customer.parquet') c on o.o_custkey = c.c_custkey
            join read_parquet('{sf_dir}/nation.parquet') n on c.c_nationkey = n.n_nationkey
            group by grouping sets ((n_name, o_orderpriority), (n_name),
                                    (o_orderpriority), ())
            order by 1, 2"""
    ).fetchdf()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # the grand-total row equals the sum of the finest grain — the
    # partition identity the remask derivation rests on
    fine = got[(got.n_name != "ALL") & (got.o_orderpriority != "ALL")]
    total = got[(got.n_name == "ALL") & (got.o_orderpriority == "ALL")]
    assert int(total.n_orders.iloc[0]) == int(fine.n_orders.sum())
    assert int(total.total_cents.iloc[0]) == int(fine.total_cents.sum())


class TestIntervalJoin:
    def _truth(self, sf_dir):
        """Pure-python O(n²)-free replay via the same two sorted arrays,
        computed WITHOUT bucketing (one global bucket)."""
        import numpy as np
        import pyarrow.parquet as pq

        t = pq.read_table(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
        )
        key = np.asarray(t["o_orderkey"].to_pylist(), dtype=np.int64)
        day = (
            np.asarray(t["o_orderdate"].cast("int64").to_pylist(), dtype=np.int64)
            // 86_400_000_000
        )
        dur = 1 + key % 20
        starts = np.sort(day)
        ends = np.sort(day + dur)
        n = np.searchsorted(starts, day, side="right") - np.searchsorted(
            ends, day, side="right"
        )
        return dict(zip(key.tolist(), n.tolist()))

    def test_matches_unbucketed_truth(self, sf_dir):
        from zerox_ray.pipelines.relational import interval_join

        got = interval_join(sf_dir).to_pandas()
        truth = self._truth(sf_dir)
        assert dict(zip(got.o_orderkey, got.n_windows)) == truth
        # every order's own window contains its start date
        assert (got.n_windows >= 1).all()

    def test_bucket_width_invariance(self, sf_dir):
        from zerox_ray.pipelines.relational import interval_join

        a = (
            interval_join(sf_dir, bucket_days=5)
            .to_pandas().sort_values("o_orderkey").reset_index(drop=True)
        )
        b = (
            interval_join(sf_dir, bucket_days=64)
            .to_pandas().sort_values("o_orderkey").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)


class TestEventTransitions:
    def test_matches_python_replay(self, sf_dir):
        from collections import Counter

        import pyarrow.parquet as pq

        from zerox_ray.pipelines.relational import event_transitions

        got = event_transitions(sf_dir).to_pandas()
        t = pq.read_table(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "event_type"],
        ).to_pandas()
        t = t.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        c = Counter()
        prev_u, prev_t = None, None
        for u, et in zip(t["user_id"], t["event_type"]):
            if u == prev_u:
                c[(prev_t, et)] += 1
            prev_u, prev_t = u, et
        assert dict(zip(zip(got.from_type, got.to_type), got.n)) == dict(c)
        # conservation: total transitions = total events − distinct users
        # (each user's chain has len−1 pairs)
        assert got.n.sum() == len(t) - t["user_id"].nunique()


class TestSessionAttribution:
    def test_consistent_with_sessions_and_ledger(self, sf_dir):
        """Cross-check against events_sessions (session count) and the
        raw purchase total (revenue conservation)."""
        import numpy as np
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.relational import (
            events_sessions,
            session_attribution,
        )

        got = session_attribution(sf_dir).to_pandas()
        sess = events_sessions(sf_dir).to_pandas()
        assert got.n_sessions.sum() == len(sess)
        t = pq.read_table(
            f"{sf_dir}/events.parquet", columns=["event_type", "value"]
        ).to_pandas()
        purchases = t[t.event_type == "purchase"]
        total = int(np.floor(purchases.value.to_numpy() * 100).sum())
        assert got.revenue_cents.sum() == total

    def test_single_user_replay(self, sf_dir):
        import numpy as np
        import pyarrow.parquet as pq

        from zerox_ray.pipelines.relational import session_attribution

        got = session_attribution(sf_dir).to_pandas()
        t = (
            pq.read_table(
                f"{sf_dir}/events.parquet",
                columns=["event_id", "user_id", "ts", "event_type", "value"],
            )
            .to_pandas()
            .sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        )
        gap = 8 * 3600 * 1_000_000
        from collections import defaultdict

        agg = defaultdict(lambda: [0, 0])
        for _, u in t.groupby("user_id"):
            ts = u["ts"].astype("int64").to_numpy()
            first = None
            rev = 0
            for i in range(len(u)):
                if i == 0 or ts[i] - ts[i - 1] > gap:
                    if first is not None:
                        agg[first][0] += 1
                        agg[first][1] += rev
                    first, rev = u["event_type"].iloc[i], 0
                if u["event_type"].iloc[i] == "purchase":
                    rev += int(np.floor(u["value"].iloc[i] * 100))
            agg[first][0] += 1
            agg[first][1] += rev
        want = {k: tuple(v) for k, v in agg.items()}
        have = {
            r.first_type: (int(r.n_sessions), int(r.revenue_cents))
            for _, r in got.iterrows()
        }
        assert have == want


def _shipping_replay(sf_dir: str, segment: str = "BUILDING") -> pd.DataFrame:
    """Q3 in plain pandas: the reference ``shipping_priority`` must equal."""
    cust = pq.read_table(f"{sf_dir}/customer.parquet").to_pandas()
    orders = pq.read_table(f"{sf_dir}/orders.parquet").to_pandas()
    li = pq.read_table(f"{sf_dir}/lineitem.parquet").to_pandas()
    cutoff = pd.Timestamp("1998-06-01")
    keys = set(cust[cust.c_mktsegment == segment].c_custkey)
    o = orders[(orders.o_custkey.isin(keys)) & (orders.o_orderdate < cutoff)]
    l = li[li.l_shipdate > cutoff].copy()
    l["rm"] = np.floor(l.l_extendedprice * 100).astype("int64") * (
        10_000 - np.floor(l.l_discount * 10_000).astype("int64")
    )
    j = l.merge(o, left_on="l_orderkey", right_on="o_orderkey")
    return (
        j.groupby(["l_orderkey", "o_orderdate", "o_orderpriority"], as_index=False)
        .agg(revenue_micro=("rm", "sum"))
        .sort_values(
            ["revenue_micro", "o_orderdate", "l_orderkey"],
            ascending=[False, True, True],
        )
        .head(10)
        .reset_index(drop=True)
    )


class TestShippingPriority:
    """``shipping_priority`` on its two lookup paths: the kept orders
    broadcast (default) and ``hash_join`` (``BROADCAST_MAX_BYTES = -1``);
    either way one bucket reduce keeps each bucket's top-k and the
    driver merges them."""

    @pytest.mark.parametrize("path", ["broadcast", "join"])
    def test_matches_pandas_replay(self, sf_dir, path, monkeypatch):
        from zerox_ray.pipelines import agg
        from zerox_ray.pipelines.relational import shipping_priority

        if path == "join":
            monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)
        got = shipping_priority(sf_dir).to_pandas().reset_index(drop=True)
        want = _shipping_replay(sf_dir)
        assert len(want) == 10
        assert list(got.columns) == [
            "l_orderkey", "o_orderdate_us", "o_orderpriority", "revenue_micro"
        ]
        assert list(got.l_orderkey) == list(want.l_orderkey)
        assert list(got.revenue_micro) == list(want.revenue_micro)
        assert list(got.o_orderpriority) == list(want.o_orderpriority)
        assert (got.o_orderdate_us.to_numpy()
                == want.o_orderdate.astype("int64").to_numpy()).all()

    @pytest.mark.parametrize("path", ["broadcast", "join"])
    def test_tie_at_kth_place_breaks_as_the_oracle(self, tmp_path, path, monkeypatch):
        """Six orders tie on revenue across places 7-12, on orderkeys in
        six different buckets: the kept four are the earliest dates, and
        on an equal date the lower orderkey, as DuckDB's ORDER BY keeps
        them."""
        import duckdb
        import pyarrow as pa

        import __ray_entry__ as e
        from zerox_ray.pipelines import agg
        from zerox_ray.pipelines.relational import shipping_priority

        if path == "join":
            monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)
        day = pd.Timestamp("1997-01-01")
        top = [101, 102, 103, 104, 105, 106]  # distinct revenues, all above the tie
        tied = [7, 24, 41, 58, 75, 92]
        dates = [day + pd.Timedelta(days=d) for d in (3, 1, 1, 2, 1, 0)]
        assert len({o % agg.shuffle_width() for o in tied}) == len(tied)
        okeys = top + tied + [200]  # 200: an order of the other segment
        pq.write_table(
            pa.table({
                "c_custkey": pa.array([1, 2], pa.int64()),
                "c_mktsegment": ["BUILDING", "MACHINERY"],
            }),
            tmp_path / "customer.parquet",
        )
        pq.write_table(
            pa.table({
                "o_orderkey": pa.array(okeys, pa.int64()),
                "o_custkey": pa.array([1] * 12 + [2], pa.int64()),
                "o_orderdate": pa.array([day] * 6 + dates + [day], pa.timestamp("us")),
                "o_orderpriority": [f"{o % 5 + 1}-P" for o in okeys],
            }),
            tmp_path / "orders.parquet",
        )
        price = [900.0 + i for i in range(6)] + [500.0] * 6 + [9999.0]
        # two lineitems per order, so the revenue is a sum across batches
        pq.write_table(
            pa.table({
                "l_orderkey": pa.array(okeys * 2, pa.int64()),
                "l_extendedprice": [p / 2 for p in price] * 2,
                "l_discount": [0.0] * 26,
                "l_shipdate": pa.array(
                    [pd.Timestamp("1998-07-01")] * 26, pa.timestamp("us")
                ),
            }),
            tmp_path / "lineitem.parquet",
        )
        con = duckdb.connect()
        for t in ("customer", "orders", "lineitem"):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tmp_path}/{t}.parquet')"
            )
        want = con.execute(e.oracle_sql()["shipping_priority"]).df()
        got = shipping_priority(str(tmp_path)).to_pandas()
        assert list(want.l_orderkey) == [106, 105, 104, 103, 102, 101, 92, 24, 41, 75]
        for c in want.columns:
            assert list(got[c]) == list(want[c]), c

    def test_empty_segment_is_typed_and_rowless(self, sf_dir):
        import pyarrow as pa

        from zerox_ray.pipelines.relational import shipping_priority

        ds = shipping_priority(sf_dir, segment="NO SUCH SEGMENT")
        assert ds.count() == 0
        schema = ds.schema()
        assert list(schema.names) == [
            "l_orderkey", "o_orderdate_us", "o_orderpriority", "revenue_micro"
        ]
        assert list(schema.types) == [pa.int64(), pa.int64(), pa.string(), pa.int64()]


def test_conversion_paths_matches_replay(sf_dir):
    from collections import Counter

    import pyarrow.parquet as pq

    from zerox_ray.pipelines.relational import conversion_paths

    got = conversion_paths(sf_dir).to_pandas()
    t = (
        pq.read_table(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "event_type"],
        )
        .to_pandas()
        .sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    )
    c = Counter()
    hist: dict[int, tuple] = {}
    for u, et in zip(t["user_id"], t["event_type"]):
        p = hist.get(u, ())
        if et == "purchase" and len(p) == 2:
            c[p] += 1
        hist[u] = (p + (et,))[-2:]
    assert dict(zip(zip(got.prev2_type, got.prev1_type), got.n)) == dict(c)
    assert (got.n >= 1).all()
