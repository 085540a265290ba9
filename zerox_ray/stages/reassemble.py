"""Per-url reassembly: the doc-local OCR kernel and the maintain_format
ordered fold.

``DocumentOCR`` is the per-document stage of every OCR entry point:
``run_ocr``, the page table and both extraction pipelines. zerox keeps
no state across documents (document → page images → per-page OCR →
markdown joined per document, SURVEY §1.1), so each classified doc row
is split, scored and finished (joined, emitted as page rows or
extracted) inside the one map call that holds it: no OCR plan has an
exchange or a barrier before its sink. Distinct urls are the
precondition of the per-url finish steps
(``sources.pages.require_unique_urls`` checks it before the plan runs);
a url's fragments then arrive contiguous and in page order, which is
all the join and the extraction merge need.

Byte-identity invariant: a url's markdown is its SUCCESS pages' content
in page order, so it is identical across block layouts, batch sizes and
cluster sizes.

Parity:
- markdown join "\\n\\n": node index.ts:566 / py zerox.py:172. Failed pages
  are dropped from the markdown but counted (py zerox.py:162 filters
  failures out of the aggregation; summary counters index.ts:592-606).
- maintain_format fold (§2.11): sequential per-url loop carrying the prior
  page's tail (index.ts:357-365; CONSISTENCY_PROMPT constants.ts:8-9),
  BREAKING the chain on the first page error (index.ts:361-364) — pages
  after an error in the same url are not scored. Concurrency comes from
  many urls (batches), exactly the reference's "synchronous per doc,
  concurrent across docs" trade-off (README.md:135).

``reassemble_bucket`` (one bucket of page rows → documents) is the
reference the kernel's join is tested against. ``partial_reassemble_block``
and ``merge_partials_bucket`` are the combiner pair of the exchange-based
plan this kernel replaced; no pipeline calls them, and they stay for the
benchmark's single-process replay and the property tests.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import groupby
from operator import itemgetter

import pandas as pd
import pyarrow as pa

from zerox_ray.stages.score import STATUS_SUCCESS, Scorer, completion_to_row
from zerox_ray.stages.split import FRAGMENT_SCHEMA, PageSplitter, chunk_giant_docs

PAGE_JOIN = "\n\n"
DOC_JOIN = "\n<hr><hr>\n"  # full-doc extraction separator (index.ts:482-491)


def reassemble_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """One pid bucket of extracted page rows → one row per url.

    Output: url, markdown, total_pages, ocr_successful, ocr_failed,
    input_tokens, output_tokens (the documents table, SURVEY §1.2).
    """
    df = df.sort_values(["url", "page_index"], kind="mergesort")
    is_ok = df["status"].to_numpy() == STATUS_SUCCESS
    ok = df[is_ok]
    md = ok.groupby("url", sort=True)["content"].agg(PAGE_JOIN.join)
    # cython-path agg; a per-group python lambda here dominated the profile
    agg_in = pd.DataFrame(
        {
            "url": df["url"],
            "page_index": df["page_index"],
            "n_ok": is_ok.astype("int64"),
            "input_tokens": df["input_tokens"],
            "output_tokens": df["output_tokens"],
        }
    )
    out = (
        agg_in.groupby("url", sort=True)
        .agg(
            total_pages=("page_index", "size"),
            ocr_successful=("n_ok", "sum"),
            input_tokens=("input_tokens", "sum"),
            output_tokens=("output_tokens", "sum"),
        )
        .astype("int64")
    )
    out["ocr_failed"] = (out["total_pages"] - out["ocr_successful"]).astype("int64")
    out["markdown"] = md.reindex(out.index, fill_value="")
    out = out.reset_index()
    return out[
        [
            "url",
            "markdown",
            "total_pages",
            "ocr_successful",
            "ocr_failed",
            "input_tokens",
            "output_tokens",
        ]
    ]


# --- combiner pair of the replaced exchange plan ----------------------------
#
# The exchange-based plan pre-aggregated each block of page rows into
# per-url PARTIAL document rows, exchanged them on pid and merged the
# partials by first_page (byte-identical even when a url's fragments
# straddle blocks). No pipeline runs it any more; see the module
# docstring.


def partial_reassemble_block(df: pd.DataFrame) -> pd.DataFrame:
    """One BLOCK of extracted page rows → per-url partial doc rows.

    Output adds ``first_page`` (partial ordering key for the merge).
    Rows within a url arrive in emission order (page_index ascending) —
    sorted here anyway for safety at trivial in-block cost.

    GUARD (url uniqueness, sources/pages.py): duplicate (url, page_index)
    rows inside a block — unmerged WARC snapshots of the same url — would
    silently interleave duplicated markdown; fail loudly instead (the
    cross-block case is caught by merge_partials_bucket's overlap guard)."""
    df = df.sort_values(["url", "page_index"], kind="mergesort")
    dup = df.duplicated(["url", "page_index"])
    if dup.any():
        raise ValueError(
            f"url {df.loc[dup, 'url'].iloc[0]!r} has duplicate page rows: "
            "input violates the one-row-per-url precondition (read_pages "
            "latest_snapshot_only=True collapses snapshots)"
        )
    is_ok = df["status"].to_numpy() == STATUS_SUCCESS
    ok = df[is_ok]
    md = ok.groupby("url", sort=True)["content"].agg(PAGE_JOIN.join)
    # one cython-path agg over numeric columns (the per-group python
    # lambda this replaces was ~70% of this function's profile)
    agg_in = pd.DataFrame(
        {
            "url": df["url"],
            "pid": df["pid"],
            "page_index": df["page_index"],
            "n_ok": is_ok.astype("int64"),
            "input_tokens": df["input_tokens"],
            "output_tokens": df["output_tokens"],
        }
    )
    g = agg_in.groupby("url", sort=True).agg(
        pid=("pid", "first"),
        first_page=("page_index", "min"),
        last_page=("page_index", "max"),
        total_pages=("page_index", "size"),
        ocr_successful=("n_ok", "sum"),
        input_tokens=("input_tokens", "sum"),
        output_tokens=("output_tokens", "sum"),
    )
    out = g.astype("int64")
    out["ocr_failed"] = (out["total_pages"] - out["ocr_successful"]).astype("int64")
    out["markdown"] = md.reindex(out.index, fill_value="")
    return out.reset_index()[
        [
            "url",
            "pid",
            "first_page",
            "last_page",
            "markdown",
            "total_pages",
            "ocr_successful",
            "ocr_failed",
            "input_tokens",
            "output_tokens",
        ]
    ]


def merge_partials_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """One pid bucket of partial doc rows → final documents rows.

    Partials of a url are ordered by first_page; empty-markdown partials
    (all pages failed) are skipped from the join exactly as failed pages
    are dropped from the page-level concat (py zerox.py:162).

    PRECONDITION (guaranteed by the pipeline, checked here): a url's
    partials cover disjoint, ordered page ranges — fragments are emitted
    per-url-contiguous in page order and blocks only split the stream at
    contiguous cuts. An overlap means something upstream reordered rows;
    that cannot be repaired at this stage, so fail loudly rather than
    concatenate wrong bytes."""
    df = df.sort_values(["url", "first_page"], kind="mergesort")
    prev_url = df["url"].shift()
    prev_last = df["last_page"].shift()
    bad = (df["url"] == prev_url) & (df["first_page"] <= prev_last)
    if bad.any():
        culprit = df.loc[bad, "url"].iloc[0]
        raise ValueError(
            f"overlapping partial page ranges for url {culprit!r}: upstream "
            "row order violated the contiguous-fragment invariant"
        )
    # partials with zero successful pages contribute nothing to the page
    # concat (failed pages are dropped, not joined as empties) — gate on
    # the success COUNT, not on markdown truthiness: a successful page
    # with empty content still owes its join separator.
    md = (
        df[df["ocr_successful"] > 0]
        .groupby("url", sort=True)["markdown"]
        .agg(PAGE_JOIN.join)
    )
    grouped = df.groupby("url", sort=True)
    out = pd.DataFrame(
        {
            "total_pages": grouped["total_pages"].sum().astype("int64"),
            "ocr_successful": grouped["ocr_successful"].sum().astype("int64"),
            "ocr_failed": grouped["ocr_failed"].sum().astype("int64"),
            "input_tokens": grouped["input_tokens"].sum().astype("int64"),
            "output_tokens": grouped["output_tokens"].sum().astype("int64"),
        }
    )
    out["markdown"] = md.reindex(out.index, fill_value="")
    return out.reset_index()[
        [
            "url",
            "markdown",
            "total_pages",
            "ocr_successful",
            "ocr_failed",
            "input_tokens",
            "output_tokens",
        ]
    ]


# --- the doc-local kernel ----------------------------------------------------

#: the documents table (SURVEY §1.2), as ``DocumentOCR`` emits it
DOCUMENT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("markdown", pa.large_string()),
        ("total_pages", pa.int64()),
        ("ocr_successful", pa.int64()),
        ("ocr_failed", pa.int64()),
        ("input_tokens", pa.int64()),
        ("output_tokens", pa.int64()),
    ]
)


def join_pages(pages: list[dict]) -> pa.Table:
    """Extracted page rows, each url's rows contiguous and in page order
    → one documents row per url: its SUCCESS pages' content joined with
    ``PAGE_JOIN``, every page counted."""
    cols: dict[str, list] = {name: [] for name in DOCUMENT_SCHEMA.names}
    for url, rows in groupby(pages, key=itemgetter("url")):
        rows = list(rows)
        ok = [r["content"] for r in rows if r["status"] == STATUS_SUCCESS]
        cols["url"].append(url)
        cols["markdown"].append(PAGE_JOIN.join(ok))
        cols["total_pages"].append(len(rows))
        cols["ocr_successful"].append(len(ok))
        cols["ocr_failed"].append(len(rows) - len(ok))
        cols["input_tokens"].append(sum(r["input_tokens"] for r in rows))
        cols["output_tokens"].append(sum(r["output_tokens"] for r in rows))
    return pa.table(cols, schema=DOCUMENT_SCHEMA)


class DocumentOCR:
    """Task map_batches UDF: classified doc rows → ``finish`` of their
    extracted page rows; every url is scored and finished inside the
    call that holds its row.

    ``finish`` takes the call's page rows, each url's contiguous and in
    page order, and returns the call's output table: ``join_pages`` (the
    documents table), ``rows_to_table`` (the page table) or
    ``extraction.DocumentExtractor`` (one extraction per url).
    ``scorer`` is a ``Scorer`` or a stand-in with its ``score_rows`` and
    ``complete`` (extract_only's model-free ``extraction.DirectContent``).

    Each row's pages are walked in the page ranges ``chunk_giant_docs``
    makes (``chunk_pages`` None: one range per row), at most ``step``
    ranges per step. A step splits its ranges and scores their
    fragments, so ``step`` ranges of fragments are the most alive at
    once, and the scorer keeps ``model.inflight`` requests open across
    all of them. Under ``maintain_format`` the fragments are folded
    instead: each url's in page order, conditioned on the prior page's
    tail, its chain stopped at its first error; the chain carries over
    a step boundary."""

    def __init__(
        self,
        splitter: PageSplitter,
        scorer: Scorer,
        finish: Callable[[list[dict]], pa.Table],
        chunk_pages: int | None,
        step: int,
        maintain_format: bool = False,
    ):
        self.splitter = splitter
        self.scorer = scorer
        self.finish = finish
        self.chunk_pages = chunk_pages
        self.step = step
        self.maintain_format = maintain_format

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.chunk_pages is not None:
            batch = chunk_giant_docs(batch, self.chunk_pages)
        steps = (
            self.splitter(batch.slice(start, self.step))
            for start in range(0, batch.num_rows, self.step)
        )
        if self.maintain_format:
            pages = self._fold(steps)
        else:
            pages = [row for frags in steps for row in self.scorer.score_rows(frags)]
        return self.finish(pages)

    def _fold(self, steps) -> list[dict]:
        """The maintain_format fold over every step's fragments."""
        rows: list[dict] = []
        url, tail, broken = None, "", False
        for frags in steps:
            for u, pid, idx, kind, frag in zip(
                *(frags[c].to_pylist() for c in FRAGMENT_SCHEMA.names)
            ):
                if u != url:
                    url, tail, broken = u, "", False
                elif broken:
                    continue  # error breaks the chain (index.ts:361-364)
                comp = self.scorer.complete(
                    u, kind, frag, maintain_format=True, prior_tail=tail
                )
                rows.append(completion_to_row(u, pid, idx, comp))
                tail, broken = comp.tail, comp.error is not None
        return rows
