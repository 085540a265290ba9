"""Schema-driven structured extraction (the reference's extraction mode).

Both pipelines run the OCR plan (pipelines/ocr.py): every url is split
and scored inside ``stages.reassemble.DocumentOCR``, with no exchange.

Parity map:
- splitSchema plan step (node-zerox/src/utils/common.ts:85-121) decides the
  per-page vs full-doc stages at pipeline-BUILD time (driver-side).
- per-page extraction (index.ts:381-479): ``extract_pages`` runs a task
  map_batches over the kernel's page rows; ``extract_documents`` makes
  the per-page calls in the kernel's finish step (``DocumentExtractor``).
  Input is the page's extracted markdown, or under extract_only
  (directImageExtraction, index.ts:125, 457-459) the raw fragment,
  which ``DirectContent`` hands the kernel in place of the OCR model.
- full-doc extraction (index.ts:482-537): a url's SUCCESS pages joined
  with "\\n<hr><hr>\\n" (G2), then one model call, in the same finish
  step, whose requests all overlap through ``score.map_rows``.
- merge (index.ts:435-443, 539-552): per-page results become
  {key: [{page, value}, ...]} in page order, full-doc results
  shallow-merge on top.

Output of ``extract_documents``: (url, extracted) where ``extracted`` is a
canonical JSON string (sorted keys) — deterministic for value-hash checks.
``extract_pages`` emits typed flat columns per schema property instead.
"""

from __future__ import annotations

import json
from itertools import groupby
from operator import itemgetter

import pyarrow as pa
import pyarrow.compute as pc

from zerox_ray.config import ZeroxConfig
from zerox_ray.functions.schema import split_schema
from zerox_ray.models.base import Completion, create_model
from zerox_ray.pipelines.ocr import (
    _documents,
    _fold_kwargs,
    _page_table,
    _stage_kwargs,
)
from zerox_ray.sources.pages import require_unique_urls
from zerox_ray.stages.reassemble import DOC_JOIN
from zerox_ray.stages.score import (
    STATUS_SUCCESS,
    Scorer,
    completion_to_row,
    map_rows,
)
from zerox_ray.stages.split import FRAGMENT_SCHEMA

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


class DirectContent:
    """Model-free stand-in for ``DocumentOCR``'s scorer under
    ``cfg.extract_only`` (directImageExtraction/extractOnly parity,
    reference index.ts:125, 457-459: extraction consumes the page
    directly; the OCR model never runs): a fragment's raw bytes, decoded,
    are its page's content, and a splitter error fragment becomes an
    ERROR page row."""

    with_logprobs = False

    def complete(self, url: str, kind: str, frag: bytes, **kwargs) -> Completion:
        text = frag.decode("utf-8", errors="replace")
        if kind == "error":
            return Completion("", 0, 0, error=text or "corrupt payload")
        return Completion(text, 0, 0)

    def score_rows(self, frags: pa.Table) -> list[dict]:
        return [
            completion_to_row(url, pid, idx, self.complete(url, kind, frag))
            for url, pid, idx, kind, frag in zip(
                *(frags[c].to_pylist() for c in FRAGMENT_SCHEMA.names)
            )
        ]


def _scorer(cfg: ZeroxConfig):
    """The kernel's scorer: the OCR model, or the raw fragments under
    ``cfg.extract_only``."""
    return DirectContent() if cfg.extract_only else Scorer(**_fold_kwargs(cfg))


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
    for prop in schema.get("properties", {}).values():
        _prop_type(prop)  # build-time validation (clear driver error)
    rows = _page_table(pages, cfg, num_partitions, _scorer(cfg))
    extractor = PageExtractor(
        schema=schema,
        model_provider=cfg.model_provider,
        model_kwargs=cfg.resolved_model_kwargs(),
    )
    return rows.map_batches(extractor, **_stage_kwargs(cfg, cfg.score_batch_size))


class DocumentExtractor:
    """``DocumentOCR``'s finish step for ``extract_documents``: page rows,
    each url's contiguous and in page order → one (url, extracted-JSON)
    row per url (the G5 merge, index.ts:435-443, 539-552).

    A url's SUCCESS pages give its per-page values, appended in page
    order as {key: [{page, value}, ...]}, and one full-doc extraction of
    their content joined with ``DOC_JOIN`` (G2), shallow-merged on top.
    Every request of the call goes through one ``map_rows``, so up to
    ``model.inflight`` are open at once. A url with no SUCCESS page gets
    "{}", as ``run_ocr`` keeps its documents row with empty markdown. The
    model is built once, on the driver."""

    def __init__(
        self,
        full_doc_schema: dict | None,
        per_page_schema: dict | None,
        model_provider: str = "deterministic",
        model_kwargs: dict | None = None,
    ):
        self.full_doc = full_doc_schema
        self.per_page = per_page_schema
        self.model = create_model(model_provider, **(model_kwargs or {}))

    def __call__(self, pages: list[dict]) -> pa.Table:
        docs = [
            (url, [r for r in rows if r["status"] == STATUS_SUCCESS])
            for url, rows in groupby(pages, key=itemgetter("url"))
        ]
        asks = []
        for _, ok in docs:
            if self.per_page is not None:
                asks += [(r["content"], self.per_page) for r in ok]
            if self.full_doc is not None and ok:
                asks.append((DOC_JOIN.join(r["content"] for r in ok), self.full_doc))
        found = iter(
            map_rows(
                lambda ask: self.model.extract(*ask).extracted,
                asks,
                self.model.inflight,
            )
        )
        out = []
        for _, ok in docs:
            merged: dict = {}
            if self.per_page is not None:
                for r in ok:
                    for k, v in next(found).items():
                        value = {"page": r["page_index"], "value": v}
                        merged.setdefault(k, []).append(value)
            if self.full_doc is not None and ok:
                merged.update(next(found))  # shallow merge (index.ts:548-552)
            out.append(json.dumps(merged, sort_keys=True, separators=(",", ":")))
        return pa.table(
            {
                "url": pa.array([url for url, _ in docs], pa.string()),
                "extracted": pa.array(out, pa.string()),
            }
        )


def extract_documents(pages, cfg: ZeroxConfig):
    """Document-level extraction: (url, extracted) with the per-page /
    full-doc split driven by cfg.extract_per_page (splitSchema). Every
    url is scored and extracted inside ``DocumentOCR``, with no exchange.
    A url that appears in more than one input row raises ``ValueError``
    naming it, before the plan runs."""
    if cfg.schema is None:
        raise ValueError("extraction requires cfg.schema")
    full_doc, per_page = split_schema(cfg.schema, cfg.extract_per_page)
    extractor = DocumentExtractor(
        full_doc, per_page, cfg.model_provider, cfg.resolved_model_kwargs()
    )
    docs = _documents(pages, cfg, extractor, scorer=_scorer(cfg))
    require_unique_urls(pages)
    return docs
