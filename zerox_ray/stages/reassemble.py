"""Per-url reassembly and the maintain_format ordered fold.

The ONLY shuffle in the OCR pipeline: page rows are exchanged on ``pid``
(crc32(url) % P — assigned once in classify) and each bucket is processed
as a single vectorized pandas call. Grouping by the hash bucket instead of
by raw ``url`` (a) amortizes per-group Python overhead over thousands of
urls per call and (b) makes the shuffle partition ids STABLE — the same
ids the checkpoint/resume manifests use (SURVEY §4).

Byte-identity invariant: group order comes ONLY from the
(url, page_index) sort inside the bucket — never from block arrival order
— so the concatenated markdown is identical across cluster sizes.

Parity:
- markdown join "\\n\\n": node index.ts:566 / py zerox.py:172. Failed pages
  are dropped from the markdown but counted (py zerox.py:162 filters
  failures out of the aggregation; summary counters index.ts:592-606).
- summary counters (G3-G4): groupby aggregate instead of closure ints
  (index.ts:83-88, 325-337).
- maintain_format fold (§2.11): sequential per-url loop carrying the prior
  page's tail (index.ts:357-365; CONSISTENCY_PROMPT constants.ts:8-9),
  BREAKING the chain on the first page error (index.ts:361-364) — pages
  after an error in the same url are not scored. Concurrency comes from
  many urls (buckets), exactly the reference's "synchronous per doc,
  concurrent across docs" trade-off (README.md:135).
"""

from __future__ import annotations

import pandas as pd

from zerox_ray.models.base import create_model
from zerox_ray.pipelines.agg import worker_cached
from zerox_ray.stages.score import STATUS_SUCCESS, complete_with_retries, completion_to_row

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


# --- combiner: partial reassembly before the shuffle -------------------------
#
# The splitter emits every fragment of a url contiguously inside one
# block, so each block can be pre-aggregated into per-url PARTIAL
# document rows before the pid exchange (the classic combiner: shuffle
# 1 row per (url, block) instead of 1 per page). The merge stage orders
# partials by first_page, so the result is byte-identical even when a
# giant url's fragments straddle block boundaries — this doubles as the
# hierarchical-concat path for 10^5-page documents (SURVEY §7).


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


# --- maintain_format: per-url ordered fold over raw fragments ----------------

def _cached_model(provider: str, kwargs: dict | None):
    """One model per (worker process, config) — map_groups runs as tasks, so
    actor-style __init__ state is emulated with the per-worker cache.
    Key is repr-based: model_kwargs legitimately contain unhashable
    values (e.g. a credentials dict for networked providers)."""
    key = ("model", provider, repr(sorted((kwargs or {}).items())))
    return worker_cached(key, lambda: create_model(provider, **(kwargs or {})))


def maintain_format_fold_bucket(
    df: pd.DataFrame,
    model_provider: str = "deterministic",
    model_kwargs: dict | None = None,
    error_mode: str = "IGNORE",
    max_retries: int = 1,
) -> pd.DataFrame:
    """One pid bucket of FRAGMENT rows → extracted page rows, scored
    sequentially per url with prior-tail conditioning (§2.11)."""
    from zerox_ray.models.base import Completion

    model = _cached_model(model_provider, model_kwargs)
    df = df.sort_values(["url", "page_index"], kind="mergesort")
    # url-uniqueness guard (sources/pages.py): duplicate fragments would
    # interleave into one fold and corrupt the chain silently
    dup = df.duplicated(["url", "page_index"])
    if dup.any():
        raise ValueError(
            f"url {df.loc[dup, 'url'].iloc[0]!r} has duplicate page "
            "fragments: input violates the one-row-per-url precondition "
            "(read_pages latest_snapshot_only=True collapses snapshots)"
        )
    rows: list[dict] = []
    for url, g in df.groupby("url", sort=True):
        prior_tail = ""
        broken = False
        for pid, page_index, kind, fragment in zip(
            g["pid"].to_numpy(), g["page_index"].to_numpy(), g["kind"], g["fragment"]
        ):
            if broken:
                break  # error breaks the chain (index.ts:361-364)
            if kind == "error":
                err = (fragment or b"corrupt payload").decode("utf-8", "replace")
                if error_mode == "THROW":
                    raise ValueError(f"{url}: {err}")
                comp = Completion("", 0, 0, error=err)
            else:
                comp = complete_with_retries(
                    model,
                    bytes(fragment),
                    kind,
                    max_retries,
                    error_mode,
                    maintain_format=True,
                    prior_tail=prior_tail,
                )
            rows.append(completion_to_row(url, pid, page_index, comp))
            if comp.error is not None:
                broken = True
            else:
                prior_tail = comp.tail
    return pd.DataFrame(
        rows,
        columns=[
            "url",
            "pid",
            "page_index",
            "content",
            "content_length",
            "status",
            "error",
            "input_tokens",
            "output_tokens",
        ],
    )
