"""Pages-table source: schema-validated, column-pruned parquet read.

The input contract is fixed by BASELINE.json input_hint:
(url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string).
The reference's downloadFile/temp-dir ingest (node-zerox/src/utils/
file.ts:32-86; index.ts:141-157) collapses to ``ray.data.read_parquet`` —
payloads are already in the ``html`` column, no per-row fetch.

Column pruning at the read is mandatory at 100 TB: the OCR pipeline needs
only (url, html); ``text``/``lang``/``warc_ts`` never leave storage unless
a stage asks for them.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def parquet_files(path: str | list[str]) -> list[str]:
    """The parquet files of a pages input: an explicit file list, every
    ``*.parquet`` under a directory, or the one file."""
    if isinstance(path, (list, tuple)):
        files = list(path)
    elif os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
    else:
        files = [path]
    if not files:
        raise FileNotFoundError(f"no parquet files under {path}")
    return files


def validate_pages_schema(path: str | list[str]) -> None:
    """Fail fast (driver-side, one footer read) if the input does not carry
    the input_hint columns with the expected types. Extra columns are
    allowed; missing/mistyped ones are an error (SURVEY §1.2: the engine
    validates the fixed schema on read)."""
    actual = pq.read_schema(parquet_files(path)[0])
    for field in PAGES_SCHEMA:
        idx = actual.get_field_index(field.name)
        if idx < 0:
            raise ValueError(f"pages input missing column {field.name!r} ({path})")
        got = actual.field(idx).type
        if got != field.type and not (
            pa.types.is_large_binary(got) and pa.types.is_binary(field.type)
        ) and not (pa.types.is_large_string(got) and pa.types.is_string(field.type)):
            raise ValueError(
                f"pages column {field.name!r} has type {got}, expected {field.type}"
            )


def read_pages(
    path: str | list[str],
    columns: tuple[str, ...] = ("url", "html"),
    latest_snapshot_only: bool = False,
) -> ray.data.Dataset:
    """Streaming parquet scan of the pages table (dir, file, or explicit
    file list — the checkpoint runner passes per-shard lists), pruned to
    ``columns``.

    PRECONDITION (url uniqueness): the OCR pipeline assumes each url
    appears ONCE in its input — duplicates (multiple WARC snapshots of a
    url, which ``warc_ts`` makes realistic) would become two documents
    of one url. ``run_ocr`` (and the maintain_format page table) refuse
    such input before their plan runs: ``require_unique_urls`` raises
    naming the url. Pass ``latest_snapshot_only=True`` to collapse
    snapshots to the newest per url at ingest (one bucketed groupby —
    the snapshot-corpus path), or pre-deduplicate upstream. The same
    assumption underpins shard independence in state/manifest.py (all
    rows of a url in one shard)."""
    validate_pages_schema(path)
    cols = list(columns)
    # the snapshot collapse needs warc_ts (recency), url (the key) and
    # html (the crc32 tie-break) regardless of the caller's pruning;
    # the extra columns are dropped again after the collapse
    read_cols = cols if not latest_snapshot_only else list(
        dict.fromkeys(["warc_ts", "url", "html", *cols])
    )
    from zerox_ray.sources.tables import clean_read_schema

    paths = list(path) if isinstance(path, (list, tuple)) else path
    ds = ray.data.read_parquet(
        paths, columns=read_cols, schema=clean_read_schema(paths, read_cols)
    )
    if latest_snapshot_only:
        ds = latest_snapshots(ds, keep_columns=cols)
    return ds


def _first_duplicate(urls: pa.ChunkedArray | pa.Array) -> str | None:
    """The first url, in input order, that appears more than once."""
    counts = pc.value_counts(urls)
    dups = counts.field("values").filter(pc.greater(counts.field("counts"), 1))
    return dups[0].as_py() if len(dups) else None


def _url_column_bytes(files: list[str]) -> int:
    """Uncompressed bytes of the ``url`` column, from the parquet footers."""
    nbytes = 0
    for f in files:
        meta = pq.read_metadata(f)
        for g in range(meta.num_row_groups):
            group = meta.row_group(g)
            for c in range(group.num_columns):
                if group.column(c).path_in_schema == "url":
                    nbytes += group.column(c).total_uncompressed_size
    return nbytes


@ray.remote
def _duplicate_in_files(files: list[str]) -> str | None:
    cols = [pq.read_table(f, columns=["url"])["url"].cast(pa.large_string()) for f in files]
    return _first_duplicate(
        pa.chunked_array([c for col in cols for c in col.chunks], pa.large_string())
    )


@ray.remote
def _duplicate_in_blocks(*blocks) -> str | None:
    from zerox_ray.pipelines.agg import concat_blocks

    keys = concat_blocks(blocks)
    return _first_duplicate(keys["url"]) if keys.num_rows else None


def _duplicate_by_exchange(keys: ray.data.Dataset) -> str | None:
    """A duplicate url through one ``bucketed_group_agg`` count, for key
    columns above the one-task gate."""
    from zerox_ray.pipelines.agg import bucketed_group_agg

    counts = bucketed_group_agg(keys, ["url"], {"n": ("url", "size")})
    dups = counts.filter(expr="n > 1").take(1)
    return dups[0]["url"] if dups else None


def require_unique_urls(pages: ray.data.Dataset | str | list[str]) -> None:
    """Raise ``ValueError`` naming a url that appears in more than one
    row of ``pages`` (the url-uniqueness precondition of ``read_pages``).

    The check reads keys only and runs outside the OCR plan, so that plan
    keeps no exchange:

    - a path input: one Ray task reads the parquet ``url`` column and
      counts it with ``pc.value_counts``; no Ray Data execution, and only
      the footers are read on the driver;
    - a Dataset input: one Ray Data execution materializes its ``url``
      column (re-running the input's own plan), then one Ray task counts
      the blocks.

    Above ``agg.fits_gathered`` (``GATHER_MAX_BYTES`` of url column, from
    the parquet metadata for a path, the block metadata for a Dataset)
    the count is a ``bucketed_group_agg`` exchange instead: one more
    execution."""
    from zerox_ray.pipelines.agg import block_refs, fits_gathered

    if isinstance(pages, ray.data.Dataset):
        keys = pages.select_columns(["url"]).materialize()
        if fits_gathered(keys.size_bytes()):
            dup = ray.get(_duplicate_in_blocks.remote(*block_refs(keys)))
        else:
            dup = _duplicate_by_exchange(keys)
    else:
        files = parquet_files(pages)
        if fits_gathered(_url_column_bytes(files)):
            dup = ray.get(_duplicate_in_files.remote(files))
        else:
            dup = _duplicate_by_exchange(read_pages(files, columns=("url",)))
    if dup is not None:
        raise ValueError(
            f"url {dup!r} appears in more than one input row: input violates "
            "the one-row-per-url precondition (read_pages "
            "latest_snapshot_only=True collapses snapshots)"
        )


def latest_snapshots(
    ds: ray.data.Dataset, keep_columns: list[str] | None = None
) -> ray.data.Dataset:
    """Collapse multiple snapshots of a url to the newest (max warc_ts).

    Shape: the canonical coarse url-hash exchange
    (pipelines/agg.bucketed_group_map) → vectorized per-bucket "keep
    last" (sort + tail(1) per url). Ties on warc_ts break
    deterministically on payload crc32 so the kept row is identical
    across runs and block layouts."""
    import zlib

    from zerox_ray.pipelines.agg import bucketed_group_map

    def pick(g):
        g = g.copy()
        g["__h"] = [zlib.crc32(p) for p in g["html"]]
        g = g.sort_values(["url", "warc_ts", "__h"], kind="mergesort")
        out = g.groupby("url", sort=False).tail(1)
        cols = keep_columns or [c for c in out.columns if not c.startswith("__")]
        return out[cols]

    return bucketed_group_map(ds, "url", pick)


def snapshot_churn(path: str | list[str]) -> ray.data.Dataset:
    """Per-url crawl-churn statistics over a MULTI-snapshot pages table:
    how often was each url recrawled, how many distinct payload versions
    exist, and how far apart are the snapshots — the rollup a crawl
    operator runs before deciding recrawl budgets (and the profiling
    step before ``latest_snapshots`` collapses the corpus).

    Scale shape: per-batch combiner dedups (url, payload-hash) and
    pre-aggregates counts/ts-extents, so the ONE url-keyed exchange
    moves ≤ one row per (url, version) per batch — never payload bytes
    (the md5-64 hash travels instead of the html). The reduce merges
    partials per url. Output: (url, n_snapshots, n_versions,
    ts_span_us)."""
    import numpy as np
    import pandas as pd

    from zerox_ray.functions.hashing import md5_64_array
    from zerox_ray.pipelines.agg import bucketed_group_map

    ds = read_pages(path, columns=("url", "warc_ts", "html"))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = md5_64_array(list(df["html"])).astype(np.int64)  # two's-complement view
        ts = df["warc_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        rows = pd.DataFrame({"url": df["url"], "h": h, "ts": ts})
        return rows.groupby(["url", "h"], as_index=False).agg(
            n=("ts", "size"), min_ts=("ts", "min"), max_ts=("ts", "max")
        ).astype({"h": "int64", "n": "int64", "min_ts": "int64", "max_ts": "int64"})

    partials = ds.map_batches(partial, batch_format="pandas")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("url", as_index=False).agg(
            n_snapshots=("n", "sum"),
            n_versions=("h", "nunique"),
            min_ts=("min_ts", "min"),
            max_ts=("max_ts", "max"),
        )
        out["ts_span_us"] = out["max_ts"] - out["min_ts"]
        return out[["url", "n_snapshots", "n_versions", "ts_span_us"]].astype(
            {"n_snapshots": "int64", "n_versions": "int64", "ts_span_us": "int64"}
        )

    return bucketed_group_map(partials, "url", finish)


def snapshot_delta(path: str | list[str]) -> ray.data.Dataset:
    """Newest-vs-previous crawl diff per url over a MULTI-snapshot pages
    table: did the latest recrawl change the page? The per-url signal an
    incremental pipeline gates on — 'unchanged' urls skip re-extraction
    entirely, 'changed' ones re-enter the OCR chain, 'single' ones are
    first-seen. Snapshot order is (warc_ts, crc32) — the exact
    ``latest_snapshots`` keep-order, so "newest" here IS the row that
    collapse would keep.

    Output: (url, n_snapshots, status, delta_us) where status ∈
    {'single','changed','unchanged'} compares the newest two payloads'
    md5-64 and delta_us is the warc_ts gap between them (0 for single).

    Scale shape: the snapshot_churn combiner discipline — each batch
    pre-shrinks to ≤2 candidate rows per url (top-2 by the keep-order)
    plus a partial count, so the ONE url-keyed exchange moves ≤ 2 rows
    per (url, batch) and the payload bytes never travel (md5-64 + crc32
    ride instead). The reduce re-ranks the ≤2-per-batch candidates and
    sums the counts."""
    import numpy as np
    import pandas as pd

    from zerox_ray.functions.hashing import md5_64_array
    from zerox_ray.pipelines.agg import bucketed_group_map

    ds = read_pages(path, columns=("url", "warc_ts", "html"))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        import zlib

        h = md5_64_array(list(df["html"])).astype(np.int64)
        crc = np.fromiter(
            (zlib.crc32(p) for p in df["html"]), dtype=np.int64, count=len(df)
        )
        ts = df["warc_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        rows = pd.DataFrame(
            {"url": df["url"], "ts": ts, "crc": crc, "h": h, "n": 1}
        )
        # keep-order rank: top-2 per url by (ts, crc) descending; the
        # count partial rides on every kept row's n-sum contribution, so
        # collapse dropped rows' counts into the kept tail row
        rows = rows.sort_values(["url", "ts", "crc"], kind="mergesort")
        grp = rows.groupby("url", sort=False)
        tail2 = grp.tail(2).copy()
        dropped = (
            rows.groupby("url", as_index=False)["n"].sum().rename(
                columns={"n": "n_total"}
            )
        )
        tail2 = tail2.merge(dropped, on="url")
        # the lowest-ranked kept row absorbs the dropped count
        first_of_url = ~tail2.duplicated("url", keep="first")
        kept_per_url = tail2.groupby("url")["n"].transform("size")
        tail2["n"] = np.where(
            first_of_url, tail2["n_total"] - (kept_per_url - 1), 1
        ).astype(np.int64)
        return tail2[["url", "ts", "crc", "h", "n"]].astype(
            {"ts": "int64", "crc": "int64", "h": "int64", "n": "int64"}
        )

    partials = ds.map_batches(partial, batch_format="pandas")

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["url", "ts", "crc"], kind="mergesort")
        counts = g.groupby("url", as_index=False)["n"].sum().rename(
            columns={"n": "n_snapshots"}
        )
        top2 = g.groupby("url", sort=False).tail(2)
        is_newest = ~top2.duplicated("url", keep="last")
        newest = top2[is_newest].set_index("url")
        prev = top2[~is_newest].set_index("url")  # absent for singles
        out = counts.set_index("url")
        out["status"] = "single"
        out["delta_us"] = 0
        if len(prev):
            pu = prev.index
            changed = prev["h"].to_numpy() != newest.loc[pu, "h"].to_numpy()
            out.loc[pu, "status"] = np.where(changed, "changed", "unchanged")
            out.loc[pu, "delta_us"] = (
                newest.loc[pu, "ts"].to_numpy() - prev["ts"].to_numpy()
            )
        out = out.reset_index()
        return out[["url", "n_snapshots", "status", "delta_us"]].astype(
            {"n_snapshots": "int64", "status": "string", "delta_us": "int64"}
        )

    return bucketed_group_map(partials, "url", finish)
