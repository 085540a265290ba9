"""Schema-driven structured extraction (the reference's extraction mode).

Parity map:
- splitSchema plan step (node-zerox/src/utils/common.ts:85-121) decides the
  per-page vs full-doc stages at pipeline-BUILD time (driver-side).
- per-page extraction (index.ts:381-479): here a task map_batches
  over the scored page rows — input is the page's extracted markdown (the
  directImageExtraction variant would feed the fragment bytes instead;
  same stage, different input column).
- full-doc extraction (index.ts:482-537): pages joined with
  "\\n<hr><hr>\\n" (G2) inside the pid-bucket group (``_merge_bucket``, a
  pid exchange of its own), then one model call.
- merge (index.ts:435-443, 539-552): per-page results become
  {key: [{page, value}, ...]}, full-doc results shallow-merge on top —
  an order-sensitive grouped reduce (sorted by page_index).

Output of ``extract_documents``: (url, extracted) where ``extracted`` is a
canonical JSON string (sorted keys) — deterministic for value-hash checks.
``extract_pages`` emits typed flat columns per schema property instead.
"""

from __future__ import annotations

import json

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from zerox_ray.config import ZeroxConfig
from zerox_ray.functions.schema import split_schema
from zerox_ray.models.base import create_model
from zerox_ray.pipelines.ocr import extracted_pages
from zerox_ray.stages.reassemble import DOC_JOIN
from zerox_ray.stages.score import STATUS_ERROR, STATUS_SUCCESS, map_rows

_ARROW_TYPES = {
    "string": pa.string(),
    "integer": pa.int64(),
    "number": pa.float64(),
    "boolean": pa.bool_(),
}


def _prop_type(prop_schema: dict) -> pa.DataType:
    t = prop_schema.get("type", "string")
    if t not in _ARROW_TYPES:
        # fail at pipeline BUILD (extract_pages validates every property
        # through here) — a silent string fallback would instead crash
        # inside map_batches when a model returns a list/dict value
        raise ValueError(
            f"unsupported extraction property type {t!r}; supported: "
            f"{sorted(_ARROW_TYPES)} (nest complex values as JSON strings)"
        )
    return _ARROW_TYPES[t]


class PageExtractor:
    """Task map_batches UDF: SUCCESS page rows → per-property columns
    (handleExtraction analogue, openAI.ts:159-215; schema and model
    captured in the ctor on the driver, like A4)."""

    def __init__(self, schema: dict, model_provider: str = "deterministic", model_kwargs: dict | None = None):
        self.schema = schema
        self.model = create_model(model_provider, **(model_kwargs or {}))
        self.props = list(schema.get("properties", {}))

    def __call__(self, batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["status"], STATUS_SUCCESS))
        found = map_rows(
            lambda content: self.model.extract(content, self.schema).extracted,
            batch["content"].to_pylist(),
            self.model.inflight,
        )
        cols = {
            "url": batch["url"].cast(pa.string()),
            "pid": batch["pid"].cast(pa.int64()),
            "page_index": batch["page_index"].cast(pa.int64()),
        }
        for k in self.props:
            cols[k] = pa.array(
                [ex.get(k) for ex in found], _prop_type(self.schema["properties"][k])
            )
        return pa.table(cols)


def _direct_rows(batch: pa.Table) -> pa.Table:
    """Fragment rows → extractor-input rows with the RAW page payload as
    ``content`` (directImageExtraction/extractOnly parity, reference
    index.ts:125, 457-459: extraction consumes the page directly; the OCR
    model never runs). Error fragments become status=ERROR rows."""
    content = [
        f.decode("utf-8", errors="replace") for f in batch["fragment"].to_pylist()
    ]
    status = [
        STATUS_ERROR if k == "error" else STATUS_SUCCESS
        for k in batch["kind"].to_pylist()
    ]
    return pa.table(
        {
            "url": batch["url"],
            "pid": batch["pid"],
            "page_index": batch["page_index"],
            "content": pa.array(content, pa.large_string()),
            "status": pa.array(status, pa.string()),
        }
    )


def _content_rows(pages, cfg: ZeroxConfig, num_partitions: int | None):
    """The extractor's input rows: OCR'd page markdown normally, raw
    fragment text when ``cfg.extract_only`` — same columns either way, so
    both extraction pipelines are mode-agnostic downstream."""
    if not cfg.extract_only:
        return extracted_pages(pages, cfg, num_partitions)
    from zerox_ray.pipelines.ocr import _fragments

    frags = _fragments(pages, cfg, num_partitions)
    return frags.map_batches(
        _direct_rows, batch_format="pyarrow", zero_copy_batch=True
    )


def extract_pages(
    pages,
    cfg: ZeroxConfig,
    num_partitions: int | None = None,
):
    """Per-page structured extraction table: (url, pid, page_index,
    <one typed column per schema property>). Uses the page schema from
    split_schema when extract_per_page is set, else the whole schema."""
    if cfg.schema is None:
        raise ValueError("extraction requires cfg.schema (index.ts:118-123)")
    _, per_page = split_schema(cfg.schema, cfg.extract_per_page)
    schema = per_page if per_page is not None else cfg.schema
    from zerox_ray.pipelines.ocr import _stage_kwargs

    for prop in schema.get("properties", {}).values():
        _prop_type(prop)  # build-time validation (clear driver error)
    rows = _content_rows(pages, cfg, num_partitions)
    extractor = PageExtractor(
        schema=schema,
        model_provider=cfg.model_provider,
        model_kwargs=cfg.resolved_model_kwargs(),
    )
    return rows.map_batches(extractor, **_stage_kwargs(cfg, cfg.score_batch_size))


def _cached_model(provider: str, kwargs: dict | None):
    """One model per (worker process, config): ``_merge_bucket`` runs in
    the exchange's reduce tasks, so the model is built once per worker
    through the per-worker cache. Key is repr-based: model_kwargs
    legitimately contain unhashable values (e.g. a credentials dict for
    networked providers)."""
    from zerox_ray.pipelines.agg import worker_cached

    key = ("model", provider, repr(sorted((kwargs or {}).items())))
    return worker_cached(key, lambda: create_model(provider, **(kwargs or {})))


def _merge_bucket(
    df: pd.DataFrame,
    full_doc_schema: dict | None,
    per_page_schema: dict | None,
    model_provider: str,
    model_kwargs: dict | None,
) -> pd.DataFrame:
    """One pid bucket of scored page rows → (url, extracted-JSON) rows.

    The G5 grouped reduce: per-page values appended in page order as
    {key: [{page, value}...]}, full-doc values shallow-merged on top
    (index.ts:435-443, 539-552)."""
    model = _cached_model(model_provider, model_kwargs)
    all_urls = set(df["url"])
    df = df[df["status"] == STATUS_SUCCESS].sort_values(
        ["url", "page_index"], kind="mergesort"
    )
    out_urls: list = []
    out_json: list = []
    # urls whose pages ALL failed still get a row with an empty
    # extraction object — mirroring run_ocr, which keeps one documents
    # row per url (empty markdown) rather than dropping the url
    for url in sorted(all_urls - set(df["url"])):
        out_urls.append(url)
        out_json.append("{}")
    for url, g in df.groupby("url", sort=True):
        merged: dict = {}
        if per_page_schema is not None:
            # column zip, not iterrows — measured ~10× faster in the
            # maintain_format fold loop
            for pi, content in zip(
                g["page_index"].to_numpy(), g["content"].tolist()
            ):
                ex = model.extract(content, per_page_schema)
                for k, v in ex.extracted.items():
                    merged.setdefault(k, []).append({"page": int(pi), "value": v})
        if full_doc_schema is not None:
            doc_content = DOC_JOIN.join(g["content"])  # G2 separator
            ex = model.extract(doc_content, full_doc_schema)
            merged.update(ex.extracted)  # shallow merge (index.ts:548-552)
        out_urls.append(url)
        out_json.append(json.dumps(merged, sort_keys=True, separators=(",", ":")))
    # typed columns: an empty group block must carry (string, string),
    # not the float64 default, for schema-stable exchange output
    return pd.DataFrame(
        {
            "url": pd.Series(out_urls, dtype="string"),
            "extracted": pd.Series(out_json, dtype="string"),
        }
    )


def extract_documents(
    pages,
    cfg: ZeroxConfig,
    num_partitions: int | None = None,
):
    """Document-level extraction: (url, extracted) with the per-page /
    full-doc split driven by cfg.extract_per_page (splitSchema)."""
    if cfg.schema is None:
        raise ValueError("extraction requires cfg.schema")
    full_doc, per_page = split_schema(cfg.schema, cfg.extract_per_page)
    rows = _content_rows(pages, cfg, num_partitions)
    return rows.groupby("pid").map_groups(
        _merge_bucket,
        batch_format="pandas",
        fn_kwargs={
            "full_doc_schema": full_doc,
            "per_page_schema": per_page,
            "model_provider": cfg.model_provider,
            "model_kwargs": cfg.resolved_model_kwargs(),
        },
    )
