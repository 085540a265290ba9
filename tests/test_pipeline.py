"""End-to-end pipeline tests: golden conformance (byte-identity), error
semantics, maintain_format fold, select_pages, extraction merge.

Golden oracle = pure-python expected_* builders in zerox_ray/testgen.py,
computed straight from the deterministic plan WITHOUT the HTML/PDF
round-trip — independent of the parser/extractor code under test.
"""

import json

import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from zerox_ray import ZeroxConfig, run_ocr
from zerox_ray.pipelines.extraction import extract_documents, extract_pages
from zerox_ray.pipelines.ocr import extracted_pages
from zerox_ray.testgen import (
    build_html,
    expected_documents_rows,
    expected_pages_rows,
)

PAGE_COLS = ["url", "page_index", "content", "content_length", "status"]
DOC_COLS = ["url", "markdown", "total_pages", "ocr_successful", "ocr_failed"]


def _pages_table(rows: list[tuple[str, bytes]]) -> ray.data.Dataset:
    """In-memory pages table from (url, payload) pairs."""
    return ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array([r[0] for r in rows], pa.string()),
                "warc_ts": pa.array([0] * len(rows), pa.timestamp("us")),
                "html": pa.array([r[1] for r in rows], pa.binary()),
                "text": pa.array([""] * len(rows), pa.string()),
                "lang": pa.array(["en"] * len(rows), pa.string()),
            }
        )
    )


def _sorted(df: pd.DataFrame, by) -> pd.DataFrame:
    return df.sort_values(by).reset_index(drop=True)


class TestGoldenConformance:
    def test_documents_byte_identical(self, pages_dir, sf_dir):
        got = _sorted(run_ocr(pages_dir).to_pandas()[DOC_COLS], "url")
        exp = _sorted(
            pd.DataFrame(expected_documents_rows(f"{sf_dir}/documents.parquet")), "url"
        ).astype(got.dtypes.to_dict())
        pd.testing.assert_frame_equal(got, exp)

    def test_pages_byte_identical(self, pages_dir, sf_dir):
        got = _sorted(
            extracted_pages(pages_dir).to_pandas()[PAGE_COLS], ["url", "page_index"]
        )
        exp = _sorted(
            pd.DataFrame(expected_pages_rows(f"{sf_dir}/documents.parquet")),
            ["url", "page_index"],
        ).astype(got.dtypes.to_dict())
        pd.testing.assert_frame_equal(got, exp)

    def test_actor_pool_path_identical(self, pages_dir):
        """Capping the model stages at one concurrent task (the setting a
        rate-limited endpoint uses) must produce identical bytes to the
        uncapped default."""
        cfg = ZeroxConfig(actor_concurrency=1)
        a = _sorted(run_ocr(pages_dir, cfg).to_pandas()[DOC_COLS], "url")
        b = _sorted(run_ocr(pages_dir).to_pandas()[DOC_COLS], "url")
        pd.testing.assert_frame_equal(a, b)

    def test_partitioning_invariance(self, pages_dir):
        """Byte-identity must not depend on how the kernel cuts its work
        (north rule: identical output at different parallelism shapes):
        one doc row per step or 64, every doc walked in one-page ranges
        or whole."""
        runs = [
            _sorted(run_ocr(pages_dir, cfg).to_pandas()[DOC_COLS], "url")
            for cfg in (
                ZeroxConfig(split_batch_size=1, giant_page_threshold=1),
                ZeroxConfig(split_batch_size=64, giant_page_threshold=None),
            )
        ]
        pd.testing.assert_frame_equal(*runs)


class TestErrorSemantics:
    def test_corrupt_payload_error_row(self):
        ds = _pages_table([("u1", b"\x00garbage"), ("u2", build_html(0, ["fine text"], False))])
        pages = extracted_pages(ds).to_pandas()
        err = pages[pages.url == "u1"]
        assert list(err.status) == ["ERROR"] and list(err.page_index) == [1]
        assert list(err.content) == [""]
        ok = pages[pages.url == "u2"]
        assert list(ok.status) == ["SUCCESS"]

    def test_throw_mode_raises(self):
        ds = _pages_table([("u1", b"\x00garbage")])
        with pytest.raises(Exception):
            run_ocr(ds, ZeroxConfig(error_mode="THROW")).to_pandas()

    def test_page_level_model_error_kept_as_row(self):
        payload = build_html(0, ["good page", "BOOMPAGE here", "after"], False)
        ds = _pages_table([("u1", payload)])
        pages = extracted_pages(ds, ZeroxConfig(model_provider="flaky")).to_pandas()
        pages = _sorted(pages, "page_index")
        assert list(pages.status) == ["SUCCESS", "ERROR", "SUCCESS"]
        docs = run_ocr(ds, ZeroxConfig(model_provider="flaky")).to_pandas()
        r = docs.iloc[0]
        # failed page dropped from markdown but counted (zerox.py:162 analogue)
        assert r.markdown == "good page\n\nafter"
        assert (r.total_pages, r.ocr_successful, r.ocr_failed) == (3, 2, 1)

    def test_retry_recovers_transient_failure(self):
        payload = build_html(0, ["BOOMPAGE transient"], False)
        ds = _pages_table([("u1", payload)])
        cfg = ZeroxConfig(model_provider="flaky_once", max_retries=1)
        pages = extracted_pages(ds, cfg).to_pandas()
        assert list(pages.status) == ["SUCCESS"]
        assert "BOOMPAGE transient" in pages.content.iloc[0]


class TestMaintainFormat:
    def test_fold_conditions_on_prior_tail(self):
        payload = build_html(0, ["first page text", "second page text"], False)
        ds = _pages_table([("u1", payload)])
        pages = extracted_pages(ds, ZeroxConfig(maintain_format=True)).to_pandas()
        pages = _sorted(pages, "page_index")
        assert pages.content.iloc[0] == "first page text"
        tail = "first page text"[-16:]
        assert pages.content.iloc[1] == f"<!-- cont:{tail} -->\nsecond page text"

    def test_error_breaks_chain(self):
        payload = build_html(0, ["one ok", "BOOMPAGE bad", "three never scored"], False)
        ds = _pages_table([("u1", payload)])
        cfg = ZeroxConfig(maintain_format=True, model_provider="flaky")
        pages = _sorted(extracted_pages(ds, cfg).to_pandas(), "page_index")
        # page 3 is NOT emitted: the reference breaks the loop on first
        # error (index.ts:357-365)
        assert list(pages.page_index) == [1, 2]
        assert list(pages.status) == ["SUCCESS", "ERROR"]

    def test_retry_recovers_transient_failure(self):
        # the fold path retries a page exactly like the Scorer: one retry
        # absorbs flaky_once's single failure; with none, the error
        # breaks the chain (a fresh fragment per run, since flaky_once
        # remembers the fragments it has failed)
        for max_retries, status in ((1, ["SUCCESS"] * 3), (0, ["SUCCESS", "ERROR"])):
            payload = build_html(
                0, ["one ok", f"BOOMPAGE retries={max_retries}", "three"], False
            )
            cfg = ZeroxConfig(
                maintain_format=True, model_provider="flaky_once", max_retries=max_retries
            )
            pages = extracted_pages(_pages_table([("u1", payload)]), cfg).to_pandas()
            assert list(_sorted(pages, "page_index").status) == status, max_retries

    def test_single_page_docs_unchanged(self):
        payload = build_html(0, ["only page"], False)
        ds = _pages_table([("u1", payload)])
        docs = run_ocr(ds, ZeroxConfig(maintain_format=True)).to_pandas()
        assert docs.markdown.iloc[0] == "only page"


class TestSelectPages:
    def test_bounds_filter_keeps_original_numbers(self):
        payload = build_html(0, ["p1", "p2", "p3", "p4"], False)
        ds = _pages_table([("u1", payload)])
        pages = extracted_pages(ds, ZeroxConfig(select_pages=[2, 4, 99])).to_pandas()
        assert sorted(pages.page_index) == [2, 4]
        assert sorted(pages.content) == ["p2", "p4"]

    def test_normalizes_scalar(self):
        cfg = ZeroxConfig(select_pages=3)
        assert cfg.select_pages == [3]


class TestExtraction:
    SCHEMA = {
        "type": "object",
        "properties": {
            "first_token": {"type": "string"},
            "n_tokens": {"type": "integer"},
        },
    }

    def test_extract_pages_typed_columns(self):
        payload = build_html(0, ["alpha beta", "gamma"], False)
        ds = _pages_table([("u1", payload)])
        out = _sorted(
            extract_pages(ds, ZeroxConfig(schema=self.SCHEMA)).to_pandas(), "page_index"
        )
        assert list(out.first_token) == ["alpha", "gamma"]
        assert list(out.n_tokens) == [2, 1]

    def test_extract_documents_per_page_merge(self):
        payload = build_html(0, ["alpha beta", "gamma"], False)
        ds = _pages_table([("u1", payload)])
        cfg = ZeroxConfig(schema=self.SCHEMA, extract_per_page=["first_token"])
        out = extract_documents(ds, cfg).to_pandas()
        merged = json.loads(out.extracted.iloc[0])
        # per-page key → ordered [{page, value}]; full-doc key shallow-merged
        assert merged["first_token"] == [
            {"page": 1, "value": "alpha"},
            {"page": 2, "value": "gamma"},
        ]
        # n_tokens came from the full-doc pass over "alpha beta\n<hr><hr>\ngamma"
        assert merged["n_tokens"] == 5

    def test_requires_schema(self):
        with pytest.raises(ValueError):
            extract_pages(_pages_table([("u", b"<p>x</p>")]), ZeroxConfig())

    def test_extract_only_uses_raw_fragments(self):
        """extractOnly / directImageExtraction (index.ts:125): extraction
        runs over the RAW fragment bytes, so markup tokens count and the
        first token comes from the fragment's leading markup, not the
        boilerplate-stripped markdown."""
        from zerox_ray.functions.htmlx import split_html_pages
        from zerox_ray.functions.text import TOKEN_RE

        payload = build_html(0, ["alpha beta", "gamma"], False)
        ds = _pages_table([("u1", payload)])
        cfg = ZeroxConfig(schema=self.SCHEMA, extract_only=True)
        out = _sorted(extract_pages(ds, cfg).to_pandas(), "page_index")
        # pure-python golden straight from the splitter output
        frags = [f.decode() for f in split_html_pages(payload)]
        assert list(out.first_token) == [TOKEN_RE.findall(f)[0] for f in frags]
        assert list(out.n_tokens) == [len(TOKEN_RE.findall(f)) for f in frags]
        # direct tokens ≫ OCR'd tokens (markup counted)
        ocr = _sorted(
            extract_pages(ds, ZeroxConfig(schema=self.SCHEMA)).to_pandas(),
            "page_index",
        )
        assert (out.n_tokens.to_numpy() > ocr.n_tokens.to_numpy()).all()

    def test_extract_only_requires_schema(self):
        with pytest.raises(ValueError):
            ZeroxConfig(extract_only=True)


class TestPromptOverride:
    def test_prompt_reaches_model(self):
        """cfg.prompt must thread into the scorer model (reference
        index.ts:76): the deterministic model emits a stable marker
        derived from the custom prompt; no marker under the default."""
        import zlib

        payload = build_html(0, ["alpha beta"], False)
        custom = "Extract tables only."
        marker = f"<!-- prompt:{zlib.crc32(custom.encode()):08x} -->"
        base = run_ocr(_pages_table([("u1", payload)])).to_pandas()
        over = run_ocr(
            _pages_table([("u1", payload)]), ZeroxConfig(prompt=custom)
        ).to_pandas()
        assert marker not in base.markdown.iloc[0]
        assert over.markdown.iloc[0].startswith(marker)

    def test_prompt_reaches_provider_stub(self):
        from zerox_ray.models.base import create_model
        from zerox_ray.functions.prompts import SYSTEM_PROMPT_BASE

        m = create_model(
            "openai", credentials={"api_key": "k"}, prompt="custom sys"
        )
        assert m.system_prompt == "custom sys"
        assert create_model(
            "openai", credentials={"api_key": "k"}
        ).system_prompt == SYSTEM_PROMPT_BASE


class TestMarkdownSink:
    def test_write_markdown_files(self, pages_dir, tmp_path):
        import os

        from zerox_ray.pipelines.ocr import run_ocr, write_markdown_files
        from zerox_ray.testgen import expected_documents_rows

        docs = run_ocr(pages_dir)
        n = write_markdown_files(docs, str(tmp_path / "md"))
        assert n == 500
        files = os.listdir(tmp_path / "md")
        assert len(files) == 500 and all(f.endswith(".md") for f in files)
        # spot-check: file content equals the golden markdown
        import zlib

        from zerox_ray.functions.text import sanitize_filename

        exp = expected_documents_rows("/root/testdata/sf0.001/documents.parquet")
        for row in exp[:5]:
            name = f"{sanitize_filename(row['url'])}-{zlib.crc32(row['url'].encode()):08x}.md"
            p = tmp_path / "md" / name
            assert p.read_text(encoding="utf-8") == row["markdown"]


class TestSnapshotUniqueness:
    @staticmethod
    def _dup_table(tmp_path=None):
        old = build_html(0, ["old version"], False)
        new = build_html(0, ["new version"], False)
        table = pa.table(
            {
                "url": pa.array(["u1", "u1", "u2"], pa.string()),
                "warc_ts": pa.array([1, 2, 1], pa.timestamp("us")),
                "html": pa.array([old, new, build_html(0, ["other"], False)], pa.binary()),
                "text": pa.array([""] * 3, pa.string()),
                "lang": pa.array(["en"] * 3, pa.string()),
            }
        )
        return table

    def test_duplicate_urls_fail_loudly(self):
        """Multiple snapshots of a url must never silently interleave —
        both reassembly paths raise (ADVICE: warc_ts makes duplicate
        snapshots realistic)."""
        ds = ray.data.from_arrow(self._dup_table())
        for cfg in (ZeroxConfig(), ZeroxConfig(maintain_format=True)):
            with pytest.raises(Exception, match="one-row-per-url|duplicate"):
                run_ocr(ds.drop_columns(["warc_ts", "text", "lang"]), cfg).to_pandas()

    @staticmethod
    def _one_row_blocks(table: pa.Table) -> list[pa.Table]:
        return [table.slice(i, 1) for i in range(table.num_rows)]

    @pytest.mark.parametrize(
        "entry, mf",
        [
            (run_ocr, False),
            (run_ocr, True),
            (extracted_pages, True),
            (extract_documents, False),
        ],
    )
    def test_duplicate_urls_in_different_blocks_raise(self, entry, mf):
        """One row per block and one doc row per kernel call: no block
        or call ever holds both rows of u1, yet the url check names it
        (the maintain_format page table and the document extraction run
        the same check)."""
        blocks = self._one_row_blocks(self._dup_table().select(["url", "html"]))
        ds = ray.data.from_arrow(blocks)
        assert ds.num_blocks() == 3
        cfg = ZeroxConfig(
            maintain_format=mf, split_batch_size=1, schema=TestExtraction.SCHEMA
        )
        with pytest.raises(ValueError, match="'u1'.*one-row-per-url"):
            entry(ds, cfg)

    @pytest.mark.parametrize(
        "entry, mf",
        [
            pytest.param(run_ocr, False, id="False"),
            pytest.param(run_ocr, True, id="True"),
            pytest.param(extract_documents, False, id="extract_documents-False"),
        ],
    )
    def test_duplicate_urls_in_different_files_raise(self, entry, mf, tmp_path):
        """Path input: one file per row; one Ray task reads the url
        column and names the duplicate."""
        import pyarrow.parquet as pq

        for i, block in enumerate(self._one_row_blocks(self._dup_table())):
            pq.write_table(block, str(tmp_path / f"pages-{i}.parquet"))
        cfg = ZeroxConfig(
            maintain_format=mf, split_batch_size=1, schema=TestExtraction.SCHEMA
        )
        with pytest.raises(ValueError, match="'u1'.*one-row-per-url"):
            entry(str(tmp_path), cfg)

    def test_url_check_above_the_gate_counts_by_exchange(self, tmp_path, monkeypatch):
        """Above agg.GATHER_MAX_BYTES the check is a bucketed count: it
        still names the duplicate, for a path and a Dataset input, and
        passes unique input."""
        import pyarrow.parquet as pq

        from zerox_ray.pipelines import agg
        from zerox_ray.sources.pages import require_unique_urls

        monkeypatch.setattr(agg, "GATHER_MAX_BYTES", -1)
        table = self._dup_table()
        for i, block in enumerate(self._one_row_blocks(table)):
            pq.write_table(block, str(tmp_path / f"pages-{i}.parquet"))
        for pages in (str(tmp_path), ray.data.from_arrow(self._one_row_blocks(table))):
            with pytest.raises(ValueError, match="'u1'"):
                require_unique_urls(pages)
        require_unique_urls(ray.data.from_arrow(table.slice(1)))

    def test_latest_snapshot_only_collapses(self, tmp_path):
        import pyarrow.parquet as pq

        from zerox_ray.sources.pages import read_pages

        path = str(tmp_path / "pages.parquet")
        pq.write_table(self._dup_table(), path)
        ds = read_pages(path, latest_snapshot_only=True)
        out = _sorted(run_ocr(ds).to_pandas(), "url")
        assert list(out.url) == ["u1", "u2"]
        assert out[out.url == "u1"].markdown.iloc[0] == "new version"


class TestGiantDocChunking:
    def test_chunk_stage_ranges_partition_pages(self):
        """chunk_giant_docs: rows replicate into adjacent page-range
        chunks covering [1..page_count] with the last chunk open-ended;
        small docs pass through as one open row."""
        import pyarrow as pa

        from zerox_ray.stages.split import chunk_giant_docs

        batch = pa.table(
            {
                "url": ["giant", "small"],
                "page_count": pa.array([24, 2], pa.int64()),
            }
        )
        out = chunk_giant_docs(batch, chunk_pages=8).to_pandas()
        g = out[out.url == "giant"]
        assert list(g.first_page) == [1, 9, 17]
        assert list(g.last_page) == [8, 16, -1]
        s = out[out.url == "small"]
        assert list(s.first_page) == [1] and list(s.last_page) == [-1]
        # adjacency invariant: chunk rows of a url are consecutive
        assert list(out.url) == ["giant"] * 3 + ["small"]

    def test_end_to_end_equal_with_and_without_chunking(self, pages_dir):
        """Chunked execution must be byte-identical to unchunked, on both
        kernel paths (free-order and maintain_format) — the skew fix
        changes scheduling, never results. The corpus includes 24-page
        giant docs (doc_id % 50 == 0) and corrupt docs."""
        for mf in (False, True):
            on = _sorted(
                run_ocr(
                    pages_dir,
                    ZeroxConfig(maintain_format=mf, giant_page_threshold=4),
                ).to_pandas()[DOC_COLS],
                "url",
            )
            off = _sorted(
                run_ocr(
                    pages_dir,
                    ZeroxConfig(maintain_format=mf, giant_page_threshold=None),
                ).to_pandas()[DOC_COLS],
                "url",
            )
            pd.testing.assert_frame_equal(on, off)

    @pytest.mark.parametrize("mf", [False, True])
    def test_kernel_join_matches_reassemble_bucket(self, pages_dir, mf):
        """The kernel's per-url join against the bucket reassembly over
        the page rows, with giant docs chunked into 4-page ranges and one
        range per step, so a url's pages straddle steps (the corpus has
        24-page docs and corrupt docs)."""
        from zerox_ray.stages.reassemble import reassemble_bucket

        cfg = ZeroxConfig(maintain_format=mf, giant_page_threshold=4, split_batch_size=1)
        got = _sorted(run_ocr(pages_dir, cfg).to_pandas(), "url")
        pages = extracted_pages(pages_dir, cfg).to_pandas()
        assert (pages.groupby("url").page_index.max() > 4).any()
        want = _sorted(reassemble_bucket(pages), "url")
        pd.testing.assert_frame_equal(got, want)

    def test_split_cost_per_row_is_bounded(self):
        """The point of the chunking: after chunk_giant_docs, no single
        splitter input row yields more than chunk_pages fragments."""
        import pyarrow as pa

        from zerox_ray.stages.classify import ClassifyPayload
        from zerox_ray.stages.split import PageSplitter, chunk_giant_docs
        from zerox_ray.testgen import build_html

        payload = build_html(0, [f"page {i}" for i in range(1, 25)], False)
        batch = pa.table(
            {
                "url": pa.array(["u1"], pa.string()),
                "html": pa.array([payload], pa.binary()),
            }
        )
        classified = ClassifyPayload(16)(batch)
        assert classified["page_count"][0].as_py() == 24
        chunked = chunk_giant_docs(classified, chunk_pages=8)
        split = PageSplitter()
        per_row_pages = [
            split(chunked.slice(i, 1)).num_rows for i in range(chunked.num_rows)
        ]
        assert per_row_pages == [8, 8, 8]
        # union of chunk outputs = the unchunked split, same page indexes
        full = split(classified)
        merged = pa.concat_tables(
            [split(chunked.slice(i, 1)) for i in range(chunked.num_rows)]
        )
        assert merged.sort_by("page_index").equals(full.sort_by("page_index"))


def test_extracted_pages_maintain_format_combiner(pages_dir):
    """Page-rows maintain_format path (combiner fold): conditioning
    markers appear from page 2 onward and page sets stay complete."""
    from zerox_ray import ZeroxConfig
    from zerox_ray.pipelines.ocr import extracted_pages

    got = extracted_pages(pages_dir, ZeroxConfig(maintain_format=True)).to_pandas()
    base = extracted_pages(pages_dir).to_pandas()
    assert len(got) == len(base)
    # marker appears exactly when the PRIOR page produced a non-empty
    # tail (empty trailing chunks of 24-page docs yield empty tails)
    prior = base.set_index(["url", "page_index"]).content
    multi = got[(got.page_index > 1) & (got.status == "SUCCESS")]
    prior_content = prior.reindex(
        list(zip(multi.url, multi.page_index - 1))
    ).to_numpy()
    has_marker = multi.content.str.startswith("<!-- cont:").to_numpy()
    import numpy as np

    expect_marker = np.array([bool(p) for p in prior_content])
    assert (has_marker == expect_marker).all()
    assert expect_marker.sum() > 500  # substantial coverage
    first = got[(got.page_index == 1) & (got.status == "SUCCESS")]
    assert not first.content.str.startswith("<!-- cont:").any()


class TestLogprobs:
    """logprobs opt-in (reference types.ts:234-242): the column exists iff
    the model was asked for logprobs, stable across success AND error rows."""

    def test_logprobs_column_present_and_deterministic(self):
        ds = _pages_table(
            [("u1", build_html(0, ["alpha beta gamma"], False)), ("u2", b"\x00garbage")]
        )
        cfg = ZeroxConfig(model_kwargs={"logprobs": True})
        pages = _sorted(extracted_pages(ds, cfg).to_pandas(), "url")
        assert "logprobs" in pages.columns
        ok = pages[pages.url == "u1"].iloc[0]
        assert len(ok.logprobs) > 0
        # deterministic scoring: -len(token)/10 per content token
        first = ok.logprobs[0]
        assert first["logprob"] == -len(first["token"]) / 10.0
        err = pages[pages.url == "u2"].iloc[0]
        assert err.status == "ERROR" and len(err.logprobs) == 0

    def test_logprobs_absent_by_default(self):
        ds = _pages_table([("u1", build_html(0, ["alpha"], False))])
        pages = extracted_pages(ds).to_pandas()
        assert "logprobs" not in pages.columns

    def test_logprob_stats_rollup(self):
        from zerox_ray.pipelines.ocr import logprob_stats

        ds = _pages_table(
            [("u1", build_html(0, ["alpha be c"], False)), ("u2", b"\x00garbage")]
        )
        cfg = ZeroxConfig(model_kwargs={"logprobs": True})
        got = _sorted(
            logprob_stats(extracted_pages(ds, cfg)).to_pandas(), "url"
        )
        ok = got[got.url == "u1"].iloc[0]
        # lp_chars comes from rint(-10*logprob): wrong FLOATS break this
        assert ok.lp_tokens >= 3
        assert ok.first_lp_token == "alpha"
        assert ok.lp_chars >= len("alphabec")
        err = got[got.url == "u2"].iloc[0]
        assert (err.lp_tokens, err.lp_chars, err.first_lp_token) == (0, 0, "")


class TestCfbRouting:
    """M2→M3: CFB payloads route through the office→pdf convert seam; in
    this runtime (no libreoffice) they become ERROR rows carrying the
    seam's reason, not a generic unsupported-kind message."""

    def test_cfb_error_row_names_the_convert_seam(self):
        cfb = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1" + b"fakedoc" * 10
        ds = _pages_table([("u1", cfb)])
        pages = extracted_pages(ds).to_pandas()
        row = pages.iloc[0]
        assert row.status == "ERROR"
        assert "libreoffice" in row.error

    def test_cfb_throw_mode_raises(self):
        cfb = b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1" + b"fakedoc" * 10
        ds = _pages_table([("u1", cfb)])
        with pytest.raises(Exception):
            extracted_pages(ds, ZeroxConfig(error_mode="THROW")).to_pandas()


def test_maintain_format_skips_marker_on_empty_prior_tail():
    """Reference parity (index.ts falsy priorPage check): a page whose
    BASE content is empty contributes NO continuity marker to the next
    page — short docs with empty trailing pages must not grow phantom
    '<!-- cont: -->' decorations."""
    payload = build_html(0, ["tiny", "", ""], False)
    ds = _pages_table([("u1", payload)])
    docs = run_ocr(ds, ZeroxConfig(maintain_format=True)).to_pandas()
    md = docs.iloc[0].markdown
    assert "<!-- cont:tiny -->" in md  # page 2 conditioned on page 1
    assert "<!-- cont: -->" not in md  # page 3 gets nothing from empty page 2


class TestSnapshotIngest:
    def test_collapses_to_single_snapshot_corpus(self, sf_dir, pages_dir):
        """Multi-snapshot corpus + latest_snapshot_only ≡ plain corpus,
        byte-identical markdown (stale/tied decoys would differ loudly)."""
        from zerox_ray.sources.pages import read_pages
        from zerox_ray.testgen import snapshot_pages_dir_for

        snap = read_pages(
            snapshot_pages_dir_for(sf_dir),
            columns=("url", "html"),
            latest_snapshot_only=True,
        )
        got = (
            run_ocr(snap).to_pandas().sort_values("url").reset_index(drop=True)
        )
        exp = (
            run_ocr(pages_dir).to_pandas().sort_values("url").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, exp)

    def test_snapshot_table_shape(self, sf_dir):
        import pyarrow.parquet as pq

        from zerox_ray.testgen import snapshot_pages_dir_for

        t = pq.read_table(snapshot_pages_dir_for(sf_dir)).to_pandas()
        per_url = t.groupby("url").size()
        assert per_url.min() >= 1 and per_url.max() <= 4  # ≤3 snaps + tie decoy
        # tie decoys exist: some url has two rows sharing its max warc_ts
        dup_ts = t.groupby(["url", "warc_ts"]).size()
        assert (dup_ts > 1).any()


class TestSnapshotChurn:
    def test_matches_generator_closed_form(self, sf_dir):
        """n_snapshots/n_versions/ts_span against the generator plan —
        INCLUDING the %7 tie-decoy docs the SQL oracle must skip (here we
        recompute the crc32 search, so the full corpus is covered)."""
        import zlib

        from zerox_ray.sources.pages import snapshot_churn
        from zerox_ray.testgen import (
            URL_PREFIX,
            build_payload,
            snapshot_pages_dir_for,
        )
        import pyarrow.parquet as pq

        got = snapshot_churn(snapshot_pages_dir_for(sf_dir)).to_pandas()
        got["doc_id"] = got["url"].str.slice(len(URL_PREFIX)).astype("int64")
        docs = pq.read_table(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        ).to_pandas()
        for d, t in zip(docs.doc_id, docs.text):
            row = got[got.doc_id == d].iloc[0]
            n_snap = 1 + d % 3
            n_ver = 1 if d % 101 == 13 else n_snap
            if d % 7 == 0:  # replay the generator's crc32 decoy search
                real = build_payload(d, t, len(docs))
                decoy = build_payload(d, f"TIED STALE {t}")
                for _ in range(64):
                    if zlib.crc32(decoy) < zlib.crc32(real):
                        n_snap += 1
                        # the decoy payload is always distinct (corrupt
                        # docs' decoys get '#'-padded past the identical
                        # real payload before the crc32 can sort below)
                        n_ver += 1
                        break
                    decoy += b"#"
            assert row.n_snapshots == n_snap, d
            assert row.n_versions == n_ver, d
            assert row.ts_span_us == d % 3, d


class TestIncrementalOcr:
    """run_ocr_incremental: OCR only first-seen/changed urls of a
    multi-snapshot corpus; replay built from the REAL generated table
    (independent of the %-closed-forms)."""

    @staticmethod
    def _want(sf_dir):
        import glob
        from collections import defaultdict

        import pyarrow.parquet as pq

        from zerox_ray.testgen import (
            expected_documents_rows,
            snapshot_pages_dir_for,
        )

        snaps = defaultdict(list)
        for f in sorted(glob.glob(f"{snapshot_pages_dir_for(sf_dir)}/*.parquet")):
            t = pq.read_table(f, columns=["url", "warc_ts", "html"])
            for u, ts, pl in zip(
                t["url"].to_pylist(), t["warc_ts"].to_pylist(), t["html"].to_pylist()
            ):
                snaps[u].append((ts, __import__("zlib").crc32(pl), pl))
        skip = set()
        for u, rows in snaps.items():
            rows.sort(reverse=True)  # the latest_snapshots keep-order
            if len(rows) > 1 and rows[0][2] == rows[1][2]:
                skip.add(u)
        docs = expected_documents_rows(f"{sf_dir}/documents.parquet")
        return {r["url"]: r for r in docs if r["url"] not in skip}

    def test_matches_golden_minus_unchanged(self):
        from zerox_ray.pipelines.ocr import run_ocr_incremental
        from zerox_ray.testgen import snapshot_pages_dir_for

        sf_dir = "/root/testdata/sf0.001"
        want = self._want(sf_dir)
        got = run_ocr_incremental(snapshot_pages_dir_for(sf_dir)).to_pandas()
        assert len(got) == len(want) < 500  # something was actually skipped
        for url, md, tp in zip(got.url, got.markdown, got.total_pages):
            w = want[url]
            assert (w["markdown"], w["total_pages"]) == (md, tp), url

    def test_join_path_matches_broadcast_path(self, monkeypatch):
        import pandas as pd

        from zerox_ray.pipelines import agg
        from zerox_ray.pipelines.ocr import run_ocr_incremental
        from zerox_ray.testgen import snapshot_pages_dir_for

        path = snapshot_pages_dir_for("/root/testdata/sf0.001")
        a = (
            run_ocr_incremental(path)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        monkeypatch.setattr(agg, "BROADCAST_MAX_BYTES", -1)  # force the join path
        b = (
            run_ocr_incremental(path)
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)
