"""Pipeline configuration (the engine's ZeroxArgs analogue,
node-zerox/src/types.ts:4-44; py_zerox/pyzerox/core/zerox.py:26-39).

Field parity map:
- maintain_format  ← maintainFormat (types.ts:28)
- select_pages     ← pagesToConvertAsImages / select_pages (types.ts:35;
                     zerox.py:89-95) — normalized + sorted at build time
                     (index.ts:159-163)
- error_mode       ← errorMode THROW/IGNORE (types.ts:172-175)
- max_retries      ← maxRetries (types.ts:27; utils/common.ts:62-80)
- model_provider / model_kwargs ← createModel args (models/index.ts:48-80)
- extraction schema fields ← schema/extractPerPage/extractOnly (types.ts:41,25,21)
- prompt           ← custom system prompt override (index.ts:76)
- actor_concurrency caps concurrent split/score/extract tasks, a Ray
  setting. The reference's concurrency=10 (index.ts:48) is the model's
  ``inflight``: requests one task keeps open at once (10 for the
  networked providers, 1 for the deterministic model). Requests in
  flight across a run = concurrent tasks × ``model.inflight``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ZeroxConfig:
    # semantics
    maintain_format: bool = False
    select_pages: list[int] | None = None
    error_mode: str = "IGNORE"  # "IGNORE" keeps ERROR rows; "THROW" raises
    max_retries: int = 1
    # model (scorer stage) — class resolved via models.base.create_model
    model_provider: str = "deterministic"
    model_kwargs: dict = field(default_factory=dict)
    prompt: str | None = None
    # structured extraction (pipelines/extraction.py)
    schema: dict | None = None
    extract_per_page: list[str] | None = None
    extract_only: bool = False
    # physical knobs (per-stage Ray Data settings)
    # doc rows per split call (and per DocumentOCR call, which also
    # splits at most this many page ranges per step): payload-heavy
    # rows → small batches
    split_batch_size: int = 64
    # page rows per extract call of extract_pages' PageExtractor (the
    # kernel scores each batch of docs' pages in its own call)
    score_batch_size: int = 256
    # page_count-aware page ranges: docs estimated above this many
    # pages are walked in page ranges of this size, so the fragments
    # alive per split/score step stay bounded (stages/split.py:
    # chunk_giant_docs; the ranges stay in their doc's task).
    # None disables chunking. Default 64 = pathological-PDF guard that
    # never fires on typical web documents (see GIANT_PAGE_THRESHOLD).
    giant_page_threshold: int | None = 64
    # cap on concurrent split/score/extract tasks; None → Ray schedules
    # as many as fit the CPUs. Each score/extract task keeps up to
    # model.inflight requests open, so an endpoint sees at most
    # actor_concurrency × model.inflight at once
    actor_concurrency: int | None = None

    def resolved_model_kwargs(self) -> dict:
        """Model ctor kwargs with the custom system-prompt override
        threaded in (reference: ``prompt`` replaces the OCR system prompt,
        index.ts:76; py zerox.py:82-83). Every stage that constructs a
        model goes through this — prompt is config, never dead weight."""
        kwargs = dict(self.model_kwargs)
        if self.prompt is not None:
            kwargs["prompt"] = self.prompt
        return kwargs

    def __post_init__(self) -> None:
        if self.error_mode not in ("IGNORE", "THROW"):
            raise ValueError(f"error_mode must be IGNORE or THROW, got {self.error_mode!r}")
        if self.select_pages is not None:
            # normalize int → [int], sort, dedupe (index.ts:159-163; zerox.py:89-95)
            if isinstance(self.select_pages, int):
                self.select_pages = [self.select_pages]
            self.select_pages = sorted(set(int(p) for p in self.select_pages))
            if any(p < 1 for p in self.select_pages):
                raise ValueError("select_pages are 1-indexed and must be >= 1")
        if self.extract_only and self.schema is None:
            # mode invariant (index.ts:118-123)
            raise ValueError("extract_only requires a schema")
