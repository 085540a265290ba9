"""The flagship OCR pipeline: pages table → documents table.

Dataflow (SURVEY §3.4), all lazy/streaming until a sink consumes it:

    read_parquet(pages, columns=[url, html])      # pruned scan
      → map_batches(ClassifyPayload)              # vectorized sniff + pid
      → map_batches(DocumentOCR)                  # per doc: split → score
                                                  # → finish, in one call

No all-to-all: zerox keeps no state across documents (SURVEY §1.1), and
``stages.reassemble.DocumentOCR`` finishes every url inside the map call
that holds its doc row, so the sink takes each batch's documents as soon
as they are scored. maintain_format runs the same kernel, folding each
url's pages in order (§2.11). The url-uniqueness precondition the
kernel relies on is checked before the plan runs, on keys only
(``sources.pages.require_unique_urls``).

Every OCR entry point runs this plan and differs only in the kernel's
finish step: ``run_ocr`` joins each url's pages, ``extracted_pages``
emits them, and pipelines/extraction.py extracts from them (under
extract_only from the raw fragments, with no OCR model).

Scale notes (100 TB design):
- ``pid`` (crc32(url) % P, P derived from cluster CPUs at build time)
  still tags the page table's rows; no pipeline exchanges on it. It
  stays for that column and for the benchmark's single-process replay
  (perfbench/layers.py). Resume granularity is the input-file shard
  (state/manifest.py);
- every stage is a stateless task UDF (an instance built once on the
  driver, or a function), so Ray fuses classify and the kernel into one
  map operator; the kernel takes ``split_batch_size`` doc rows per call
  and splits at most that many page ranges at once, so batch ×
  concurrency fits worker heaps;
- nothing materializes the full dataset: consume with write_parquet /
  iter_batches / aggregates.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import pyarrow as pa
import ray
import ray.data

from zerox_ray.config import ZeroxConfig
from zerox_ray.sources.pages import read_pages, require_unique_urls
from zerox_ray.stages.classify import (
    DEFAULT_NUM_PARTITIONS,  # noqa: F401 — re-exported for callers/tests
    ClassifyPayload,
    default_num_partitions,
)
from zerox_ray.stages.reassemble import DocumentOCR, join_pages
from zerox_ray.stages.score import Scorer, rows_to_table
from zerox_ray.stages.split import PageSplitter


def _as_dataset(pages) -> ray.data.Dataset:
    if isinstance(pages, (str, list, tuple)):
        return read_pages(pages)
    return pages


def _stage_kwargs(cfg: ZeroxConfig, batch_size: int) -> dict:
    """map_batches kwargs for the split/score/extract stages and the
    document kernel (task UDF instances built once on the driver):
    Arrow batches of ``batch_size`` rows, capped at
    ``cfg.actor_concurrency`` concurrent tasks when that is set."""
    kwargs = {
        "batch_format": "pyarrow",
        "batch_size": batch_size,
        "zero_copy_batch": True,
    }
    if cfg.actor_concurrency is not None:
        kwargs["concurrency"] = cfg.actor_concurrency
    return kwargs


def _classified(pages, num_partitions: int | None) -> ray.data.Dataset:
    """pages → classified doc rows (kind, pid, page_count appended).
    ``num_partitions`` None → derived from cluster CPUs at build time."""
    if num_partitions is None:
        num_partitions = default_num_partitions()
    return _as_dataset(pages).map_batches(
        ClassifyPayload(num_partitions), batch_format="pyarrow", zero_copy_batch=True
    )


def _splitter(cfg: ZeroxConfig) -> PageSplitter:
    return PageSplitter(select_pages=cfg.select_pages, error_mode=cfg.error_mode)


def _fold_kwargs(cfg: ZeroxConfig) -> dict:
    return {
        "model_provider": cfg.model_provider,
        "model_kwargs": cfg.resolved_model_kwargs(),
        "error_mode": cfg.error_mode,
        "max_retries": cfg.max_retries,
    }


def _documents(
    pages: ray.data.Dataset | str | list[str],
    cfg: ZeroxConfig,
    finish: Callable[[list[dict]], pa.Table],
    num_partitions: int | None = None,
    scorer=None,
) -> ray.data.Dataset:
    """pages → ``DocumentOCR``'s ``finish`` rows, each url's fragments
    scored by ``scorer`` (None: a ``Scorer`` of ``cfg``'s model).
    ``num_partitions`` sets the ``pid`` column, which only the page table
    shows. A per-url finish step needs url-unique input: the entry points
    that use one call ``require_unique_urls`` after building this plan,
    whose read has validated a path's schema by then."""
    ds = _classified(pages, num_partitions)
    kernel = DocumentOCR(
        _splitter(cfg),
        scorer or Scorer(**_fold_kwargs(cfg)),
        finish,
        chunk_pages=cfg.giant_page_threshold,
        step=cfg.split_batch_size,
        maintain_format=cfg.maintain_format,
    )
    return ds.map_batches(kernel, **_stage_kwargs(cfg, cfg.split_batch_size))


def _page_table(
    pages: ray.data.Dataset | str | list[str],
    cfg: ZeroxConfig,
    num_partitions: int | None,
    scorer,
) -> ray.data.Dataset:
    """pages → extracted page rows scored by ``scorer``. maintain_format
    folds each url's pages in order, so it runs ``run_ocr``'s url check."""
    finish = partial(rows_to_table, with_logprobs=scorer.with_logprobs)
    rows = _documents(pages, cfg, finish, num_partitions, scorer)
    if cfg.maintain_format:
        require_unique_urls(pages)
    return rows


def extracted_pages(
    pages: ray.data.Dataset | str | list[str],
    cfg: ZeroxConfig | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Per-page extracted table (the reference's Page rows,
    types.ts:124-133): (url, pid, page_index, content, content_length,
    status, error, input_tokens, output_tokens).

    Page order across blocks is NOT meaningful — order is a per-url
    property, restored wherever a url's rows are colocated (O1).

    Each url's pages are scored inside ``DocumentOCR`` (one map call per
    batch of docs, no exchange); maintain_format folds them in order,
    after the same url check as ``run_ocr``."""
    cfg = cfg or ZeroxConfig()
    return _page_table(pages, cfg, num_partitions, Scorer(**_fold_kwargs(cfg)))


def logprob_stats(pages_ds: ray.data.Dataset) -> ray.data.Dataset:
    """Per-page rollup of the optional ``logprobs`` column
    (list<struct<token,logprob>>, reference types.ts:234-242 — emitted by
    extracted_pages when ``model_kwargs={"logprobs": True}``).

    Value-checks the PAYLOAD, not just its shape: ``lp_chars`` is derived
    from the logprob FLOATS (the deterministic model scores each token
    ``-len(token)/10``, so ``rint(-10·logprob)`` recovers the token
    length — any wrong logprob value breaks the oracle), while
    ``lp_tokens``/``first_lp_token`` check the token list itself.
    Vectorized flatten: list offsets → prefix-sum segment sums, no Python
    loop over rows."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def flatten(t: pa.Table) -> pa.Table:
        col = t["logprobs"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = pc.list_value_length(col).fill_null(0).to_numpy(zero_copy_only=False)
        n = n.astype(np.int64)
        flat = pc.list_flatten(col)
        lpv = flat.field("logprob").to_numpy(zero_copy_only=False)
        chars = np.rint(-10.0 * lpv).astype(np.int64)
        csum = np.concatenate([[0], np.cumsum(chars)])
        offsets = np.zeros(len(n) + 1, dtype=np.int64)
        np.cumsum(n, out=offsets[1:])
        lp_chars = csum[offsets[1:]] - csum[offsets[:-1]]
        toks = flat.field("token").to_pylist()
        first = [toks[offsets[i]] if n[i] > 0 else "" for i in range(len(n))]
        return pa.table(
            {
                "url": t["url"],
                "page_index": t["page_index"],
                "lp_tokens": pa.array(n, pa.int64()),
                "lp_chars": pa.array(lp_chars, pa.int64()),
                "first_lp_token": pa.array(first, pa.string()),
            }
        )

    return pages_ds.map_batches(flatten, batch_format="pyarrow")


def run_ocr(
    pages: ray.data.Dataset | str | list[str],
    cfg: ZeroxConfig | None = None,
) -> ray.data.Dataset:
    """pages → documents table (url, markdown, total_pages, ocr_successful,
    ocr_failed, input_tokens, output_tokens); markdown byte-identical per
    url regardless of parallelism (north-star invariant).

    One map operator after the scan: every url is split, scored and
    joined inside ``DocumentOCR`` (maintain_format: folded), with no
    exchange. A url that appears in more than one input row raises
    ``ValueError`` naming it, before the plan runs."""
    docs = _documents(pages, cfg or ZeroxConfig(), join_pages)
    require_unique_urls(pages)
    return docs


def write_markdown_files(docs: ray.data.Dataset, out_dir: str) -> int:
    """S4 parity (node index.ts:556-568 / py zerox.py:169-172): one
    ``<sanitized-url>.md`` file per document, written from the workers
    (distributed sink, no driver collection). Returns files written."""
    import os

    from zerox_ray.functions.text import sanitize_filename

    os.makedirs(out_dir, exist_ok=True)

    def write_batch(df):
        import zlib

        import pandas as pd

        n = 0
        for url, md in zip(df["url"], df["markdown"]):
            # crc suffix: sanitization is lossy (case, punctuation), so
            # distinct urls could otherwise collapse to one path and
            # silently clobber each other
            name = f"{sanitize_filename(url)}-{zlib.crc32(url.encode()):08x}.md"
            path = os.path.join(out_dir, name)
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(md)
            os.replace(tmp, path)  # atomic per file (resume-safe)
            n += 1
        return pd.DataFrame({"files_written": [n]})

    counts = docs.map_batches(write_batch, batch_format="pandas")
    return int(sum(r["files_written"] for r in counts.take_all()))


def run_ocr_incremental(
    path: str | list[str],
    cfg: ZeroxConfig | None = None,
) -> ray.data.Dataset:
    """Incremental re-extraction over a MULTI-snapshot pages table: OCR
    only the urls whose newest snapshot is first-seen or changed
    (``snapshot_delta`` status 'single'/'changed'); 'unchanged' urls —
    the bulk of a steady-state recrawl — skip extraction entirely. This
    is the incremental mode of the north-rule pipeline: re-run the crawl,
    pay extraction only for churn. Output: the run_ocr documents schema,
    restricted to the re-extracted urls.

    Scale shape: ``snapshot_delta`` already moves no payloads (md5/crc
    partials only); the collapsed pages keep the changed urls through a
    semi ``relational.lookup_join`` on 63-bit url keys. While the
    changed set fits the broadcast gate (the CHANGED urls are the
    minority in a low-churn recrawl, which is exactly when incremental
    extraction pays) no payload enters an exchange; above it the
    partitioned semi-join moves the payloads once, still strictly
    cheaper than extracting the unchanged majority. Both paths are
    output-identical and tested."""
    from zerox_ray.pipelines.graph import _h63
    from zerox_ray.pipelines.relational import lookup_join
    from zerox_ray.sources.pages import read_pages, snapshot_delta

    delta = snapshot_delta(path)

    def changed_keys(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = t.filter(pc.not_equal(t["status"], "unchanged"))
        return pa.table(
            {"k": pa.array(_h63(keep["url"].to_pylist()), pa.int64())}
        )

    changed = delta.map_batches(changed_keys, batch_format="pyarrow")
    keyed = read_pages(path, latest_snapshot_only=True).map_batches(
        lambda t: t.append_column("k", pa.array(_h63(t["url"].to_pylist()), pa.int64())),
        batch_format="pyarrow",
    )
    todo = lookup_join(keyed, changed, on="k", how="semi").drop_columns(["k"])
    # url-unique by construction (one snapshot per url, and a semi-join
    # keeps each row at most once), so run_ocr's url check, which would
    # run the delta and the snapshot collapse again, is skipped
    return _documents(todo, cfg or ZeroxConfig(), join_pages)
