"""The flagship OCR pipeline: pages table → documents table.

Dataflow (SURVEY §3.4), all lazy/streaming until a sink consumes it:

    read_parquet(pages, columns=[url, html])      # pruned scan
      → map_batches(ClassifyPayload)              # vectorized sniff + pid
      → map_batches(PageSplitter,  actor pool)    # 1 doc → N fragment rows
      → map_batches(Scorer,        actor pool)    # fragment → markdown row
      → groupby(pid).map_groups(reassemble)       # the ONE shuffle
                                                  # (url-hash buckets)

maintain_format mode replaces the free-order Scorer with a per-url
sequential fold inside the same bucketed shuffle (§2.11) — scoring AND
reassembly then happen in one map_groups call; still exactly one shuffle.

Scale notes (100 TB design):
- the only all-to-all is the pid exchange; P (num_partitions) is the
  shuffle width, derived from cluster CPUs at build time (resume
  granularity is separate: input-file shards, state/manifest.py);
- splitter/scorer are autoscaling actor pools sized from cluster CPUs;
  payload-heavy stages use small batch sizes so batch × concurrency fits
  worker heaps;
- nothing materializes the full dataset: consume with write_parquet /
  iter_batches / aggregates.
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data

from zerox_ray.config import ZeroxConfig
from zerox_ray.sources.pages import read_pages
from zerox_ray.stages.classify import (
    DEFAULT_NUM_PARTITIONS,  # noqa: F401 — re-exported for callers/tests
    ClassifyPayload,
    default_num_partitions,
)
from zerox_ray.stages.reassemble import (
    maintain_format_fold_bucket,
    merge_partials_bucket,
    partial_reassemble_block,
    reassemble_bucket,
)
from zerox_ray.stages.score import Scorer
from zerox_ray.stages.split import PageSplitter


def _cluster_cpus() -> int:
    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", 4)))
    return 4


def _concurrency(cfg: ZeroxConfig) -> tuple[int, int] | int:
    if cfg.actor_concurrency is not None:
        return cfg.actor_concurrency
    return (1, _cluster_cpus())


def _as_dataset(pages) -> ray.data.Dataset:
    if isinstance(pages, str):
        return read_pages(pages)
    return pages


def _stateful(cfg: ZeroxConfig) -> bool:
    """Actor pools vs fusable tasks: pay actor startup only when the model
    actually holds per-process state (see ScorerModel.stateful). With the
    deterministic model, task mode lets Ray fuse classify→split→score
    into ONE map operator — measured 4-6× faster end-to-end at sf0.1."""
    if cfg.stateful_stages is not None:
        return cfg.stateful_stages
    from zerox_ray.models.base import is_stateful_provider

    return is_stateful_provider(cfg.model_provider)


def _stage_kwargs(cfg: ZeroxConfig, cls, ctor_kwargs: dict, batch_size: int) -> tuple:
    """(fn, map_batches kwargs) for a stage: actor-pool class or task UDF
    instance depending on the statefulness decision."""
    common = {
        "batch_format": "pyarrow",
        "batch_size": batch_size,
        "zero_copy_batch": True,
    }
    if _stateful(cfg):
        return cls, {
            **common,
            "fn_constructor_kwargs": ctor_kwargs,
            "concurrency": _concurrency(cfg),
            "num_cpus": 1,
        }
    return cls(**ctor_kwargs), common


def _fragments(
    pages: ray.data.Dataset | str,
    cfg: ZeroxConfig,
    num_partitions: int | None,
) -> ray.data.Dataset:
    """pages → page-fragment rows (classify + split). ``num_partitions``
    None → derived from cluster CPUs at build time."""
    if num_partitions is None:
        num_partitions = default_num_partitions()
    ds = _as_dataset(pages)
    ds = ds.map_batches(
        ClassifyPayload(num_partitions), batch_format="pyarrow", zero_copy_batch=True
    )
    if cfg.giant_page_threshold is not None:
        # page_count-aware skew repartition: giant docs become bounded
        # page-range work items (task-fusable map, no shuffle)
        from zerox_ray.stages.split import chunk_giant_docs

        ds = ds.map_batches(
            chunk_giant_docs,
            fn_kwargs={"chunk_pages": cfg.giant_page_threshold},
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    fn, kwargs = _stage_kwargs(
        cfg,
        PageSplitter,
        {"select_pages": cfg.select_pages, "error_mode": cfg.error_mode},
        cfg.split_batch_size,
    )
    return ds.map_batches(fn, **kwargs)


def _fold_kwargs(cfg: ZeroxConfig) -> dict:
    return {
        "model_provider": cfg.model_provider,
        "model_kwargs": cfg.resolved_model_kwargs(),
        "error_mode": cfg.error_mode,
        "max_retries": cfg.max_retries,
    }


def fold_and_reassemble_bucket(df, **fold_kwargs):
    """maintain_format: score (ordered fold) and reassemble one pid bucket
    in a single call — avoids a second pid shuffle."""
    return reassemble_bucket(maintain_format_fold_bucket(df, **fold_kwargs))


# --- maintain_format combiner: fold interior urls before the shuffle ---------
#
# The per-url fold carries NO cross-url state (prior_tail resets to ""
# per url), so any url whose fragments are all inside one block can fold
# locally, byte-identically. Only urls touching a block edge (whose
# completeness the block cannot prove) ship their raw fragments through
# the pid exchange. The shuffle then moves ~1 doc row per interior url
# plus ≤2 urls' fragments per block — not every page payload.

_MF_DOC_COLS = [
    "url",
    "markdown",
    "total_pages",
    "ocr_successful",
    "ocr_failed",
    "input_tokens",
    "output_tokens",
]


def mf_fold_block(df, **fold_kwargs):
    """One BLOCK of fragment rows → mixed rows: folded doc rows for
    interior urls (row_kind='doc') + raw fragment rows for the block's
    first/last urls (row_kind='frag')."""
    import pandas as pd

    if len(df) == 0:
        # TYPED empty frame: untyped (all-object) columns would clash
        # with non-empty blocks' schemas at the pid exchange
        empty = {
            "row_kind": pd.Series([], dtype="string"),
            "pid": pd.Series([], dtype="int64"),
            "page_index": pd.Series([], dtype="int64"),
            "frag_kind": pd.Series([], dtype="string"),
            "fragment": pd.Series([], dtype=object),
        }
        for c in _MF_DOC_COLS:
            empty[c] = pd.Series(
                [], dtype="string" if c in ("url", "markdown") else "int64"
            )
        return pd.DataFrame(empty)
    urls = df["url"]
    edge = (urls == urls.iloc[0]) | (urls == urls.iloc[-1])
    out_parts = []
    interior = df[~edge]
    if len(interior):
        docs = fold_and_reassemble_bucket(interior, **fold_kwargs)
        docs.insert(0, "row_kind", "doc")
        docs["pid"] = interior.groupby("url", sort=True)["pid"].first().reindex(docs["url"]).to_numpy()
        docs["page_index"] = 0
        docs["frag_kind"] = ""
        docs["fragment"] = b""
        out_parts.append(docs)
    boundary = df[edge]
    if len(boundary):
        frags = pd.DataFrame(
            {
                "row_kind": "frag",
                "url": boundary["url"],
                "pid": boundary["pid"],
                "page_index": boundary["page_index"],
                "frag_kind": boundary["kind"],
                "fragment": boundary["fragment"],
            }
        )
        for c in _MF_DOC_COLS[1:]:
            frags[c] = 0 if c != "markdown" else ""
        out_parts.append(frags)
    cols = ["row_kind", "pid", "page_index", "frag_kind", "fragment"] + _MF_DOC_COLS
    return pd.concat(out_parts, ignore_index=True)[cols]


_PAGE_COLS = [
    "url",
    "pid",
    "page_index",
    "content",
    "content_length",
    "status",
    "error",
    "input_tokens",
    "output_tokens",
]


def mf_fold_block_pages(df, **fold_kwargs):
    """Page-rows variant of the maintain_format combiner: interior urls
    fold to extracted PAGE rows in-block; edge urls pass raw fragments
    (row_kind='frag') to the pid exchange."""
    import pandas as pd

    from zerox_ray.stages.reassemble import maintain_format_fold_bucket

    if len(df) == 0:
        # TYPED empty frame (see mf_fold_block): schema-stable at the
        # pid exchange
        str_cols = {"row_kind", "frag_kind", "url", "content", "status", "error"}
        empty = {"row_kind": pd.Series([], dtype="string"),
                 "frag_kind": pd.Series([], dtype="string"),
                 "fragment": pd.Series([], dtype=object)}
        for c in _PAGE_COLS:
            empty[c] = pd.Series(
                [], dtype="string" if c in str_cols else "int64"
            )
        return pd.DataFrame(empty)
    urls = df["url"]
    edge = (urls == urls.iloc[0]) | (urls == urls.iloc[-1])
    parts = []
    interior = df[~edge]
    if len(interior):
        pages = maintain_format_fold_bucket(interior, **fold_kwargs)
        pages.insert(0, "row_kind", "page")
        pages["frag_kind"] = ""
        pages["fragment"] = b""
        parts.append(pages)
    boundary = df[edge]
    if len(boundary):
        frags = pd.DataFrame(
            {
                "row_kind": "frag",
                "url": boundary["url"],
                "pid": boundary["pid"],
                "page_index": boundary["page_index"],
                "frag_kind": boundary["kind"],
                "fragment": boundary["fragment"],
            }
        )
        for c in ("content", "status", "error"):
            frags[c] = ""
        for c in ("content_length", "input_tokens", "output_tokens"):
            frags[c] = 0
        parts.append(frags)
    return pd.concat(parts, ignore_index=True)[
        ["row_kind", "frag_kind", "fragment"] + _PAGE_COLS
    ]


def mf_merge_bucket_pages(df, **fold_kwargs):
    """One pid bucket of mixed rows → extracted page rows."""
    import pandas as pd

    from zerox_ray.stages.reassemble import maintain_format_fold_bucket

    pages = df[df["row_kind"] == "page"][_PAGE_COLS]
    frag = df[df["row_kind"] == "frag"]
    parts = [pages]
    if len(frag):
        raw = frag.rename(columns={"frag_kind": "kind"})[
            ["url", "pid", "page_index", "kind", "fragment"]
        ]
        parts.append(maintain_format_fold_bucket(raw, **fold_kwargs)[_PAGE_COLS])
    out = pd.concat(parts, ignore_index=True)
    dup = out.duplicated(["url", "page_index"])
    if dup.any():
        raise ValueError(
            f"url {out.loc[dup, 'url'].iloc[0]!r} produced duplicate page "
            "rows: input violates the one-row-per-url precondition "
            "(read_pages latest_snapshot_only=True collapses snapshots)"
        )
    return out.sort_values(["url", "page_index"], kind="mergesort").reset_index(
        drop=True
    )


def mf_merge_bucket(df, **fold_kwargs):
    """One pid bucket of mixed rows → final doc rows: doc rows pass
    through; frag rows (boundary urls, now complete) fold here.

    GUARD (url uniqueness, see sources/pages.py): a url folded as
    interior in one block must not reappear anywhere else — a duplicate
    here means the input carried multiple rows per url (unmerged WARC
    snapshots) and the outputs would silently duplicate. Fail loudly."""
    import pandas as pd

    docs = df[df["row_kind"] == "doc"][_MF_DOC_COLS]
    frag = df[df["row_kind"] == "frag"]
    parts = [docs]
    if len(frag):
        raw = frag.rename(columns={"frag_kind": "kind"})[
            ["url", "pid", "page_index", "kind", "fragment"]
        ]
        parts.append(fold_and_reassemble_bucket(raw, **fold_kwargs)[_MF_DOC_COLS])
    out = pd.concat(parts, ignore_index=True)
    dup = out["url"].duplicated()
    if dup.any():
        raise ValueError(
            f"url {out.loc[dup, 'url'].iloc[0]!r} produced multiple document "
            "rows: input violates the one-row-per-url precondition "
            "(read_pages latest_snapshot_only=True collapses snapshots)"
        )
    return out.sort_values("url", kind="mergesort").reset_index(drop=True)


def scored_fragments(
    pages: ray.data.Dataset | str,
    cfg: ZeroxConfig | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """pages → extracted per-page rows (url, pid, page_index, content,
    content_length, status, error, input_tokens, output_tokens).

    Page order across blocks is NOT meaningful — order is a per-url
    property, restored wherever a url's rows are colocated (O1)."""
    cfg = cfg or ZeroxConfig()
    frags = _fragments(pages, cfg, num_partitions)
    if cfg.maintain_format:
        # ordered per-url fold: sequential within url, concurrent across
        # buckets (§2.11) — combiner folds interior urls in-block, only
        # block-edge urls colocate raw fragments via the shuffle.
        mixed = frags.map_batches(
            mf_fold_block_pages,
            batch_format="pandas",
            batch_size=None,
            fn_kwargs=_fold_kwargs(cfg),
        )
        return mixed.groupby("pid").map_groups(
            mf_merge_bucket_pages,
            batch_format="pandas",
            fn_kwargs=_fold_kwargs(cfg),
        )
    fn, kwargs = _stage_kwargs(cfg, Scorer, _fold_kwargs(cfg), cfg.score_batch_size)
    return frags.map_batches(fn, **kwargs)


def extracted_pages(
    pages: ray.data.Dataset | str,
    cfg: ZeroxConfig | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Per-page extracted table (the reference's Page rows, types.ts:124-133)."""
    return scored_fragments(pages, cfg, num_partitions)


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
    pages: ray.data.Dataset | str,
    cfg: ZeroxConfig | None = None,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """pages → documents table (url, markdown, total_pages, ocr_successful,
    ocr_failed, input_tokens, output_tokens); markdown byte-identical per
    url regardless of parallelism (north-star invariant)."""
    cfg = cfg or ZeroxConfig()
    if cfg.maintain_format:
        # combiner fold: interior urls fold inside their block; only
        # block-edge urls ship raw fragments through the pid exchange
        frags = _fragments(pages, cfg, num_partitions)
        mixed = frags.map_batches(
            mf_fold_block,
            batch_format="pandas",
            batch_size=None,
            fn_kwargs=_fold_kwargs(cfg),
        )
        return mixed.groupby("pid").map_groups(
            mf_merge_bucket,
            batch_format="pandas",
            fn_kwargs=_fold_kwargs(cfg),
        )
    # combiner reassembly: pre-aggregate page rows → per-url partials
    # inside each block (batch_size=None → whole block), THEN exchange on
    # pid and merge. The shuffle moves ~1 row per url instead of 1 per
    # page; merge order comes from first_page, so the markdown is
    # byte-identical whatever the block layout (reassemble.py combiner
    # notes). reassemble_bucket stays the single-shuffle reference path.
    scored = scored_fragments(pages, cfg, num_partitions)
    partials = scored.map_batches(
        partial_reassemble_block, batch_format="pandas", batch_size=None
    )
    return partials.groupby("pid").map_groups(
        merge_partials_bucket, batch_format="pandas"
    )


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
    partials only); the re-extract url set ships as a broadcast of
    sorted 63-bit keys when it fits the 1 GiB gate (8 bytes per CHANGED
    url — the minority in a low-churn recrawl, which is exactly when
    incremental extraction pays). Above the gate, fall back to a
    url-keyed hash semi-join of the collapsed pages against the changed
    set — one payload exchange, still strictly cheaper than extracting
    the unchanged majority. ``agg.fits_broadcast`` picks the path (both
    output-identical, both tested)."""
    import numpy as np

    from zerox_ray.pipelines.agg import fits_broadcast
    from zerox_ray.pipelines.graph import _h63
    from zerox_ray.sources.pages import read_pages, snapshot_delta

    delta = snapshot_delta(path)

    def changed_keys(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = t.filter(pc.not_equal(t["status"], "unchanged"))
        return pa.table(
            {"k": pa.array(_h63(keep["url"].to_pylist()), pa.int64())}
        )

    changed = delta.map_batches(changed_keys, batch_format="pyarrow").materialize()
    pages = read_pages(path, latest_snapshot_only=True)

    if fits_broadcast(changed.count() * 8):
        keys = np.sort(changed.to_pandas()["k"].to_numpy(np.int64))
        keys_ref = ray.put(keys)

        def keep_changed(t: pa.Table) -> pa.Table:
            ks = _h63(t["url"].to_pylist())
            return t.filter(
                pa.array(np.isin(ks, ray.get(keys_ref)))
            )

        todo = pages.map_batches(keep_changed, batch_format="pyarrow")
    else:
        from zerox_ray.pipelines.relational import hash_join

        keyed = pages.map_batches(
            lambda t: t.append_column(
                "k", pa.array(_h63(t["url"].to_pylist()), pa.int64())
            ),
            batch_format="pyarrow",
        )
        todo = hash_join(keyed, changed, on="k", how="semi").drop_columns(["k"])
    return run_ocr(todo, cfg)
