"""Scorer: per-page model stage (fragment → markdown content row).

Parity: processOCR (node-zerox/src/index.ts:256-355) — per page: cleanup →
model completion with retries → CompletionProcessor.process normalization
(utils/model.ts:26-59) → Page row. Runs as a stateless task UDF: the
model is built ONCE, on the driver, in __init__ (reference builds one
model per run, index.ts:248-253; litellm validations run at init,
modellitellm.py:53-68 — here they fail fast at plan build), and the
instance ships to every task.

Concurrency parity: the reference runs a document's pages through
``pLimit(concurrency=10)`` (index.ts:48, 366-377) and places each result
at its page index (index.ts:371-375). Here ``map_rows`` keeps up to
``model.inflight`` calls of one batch in flight and returns the rows in
input order. Networked providers set ``inflight = 10``; the deterministic
model keeps 1, a plain loop on the task's own thread. Requests in flight
across a run = concurrent score tasks × ``model.inflight``.

Retry parity: runRetries (utils/common.ts:62-80) — in-UDF retry loop with
page granularity, layered under Ray's own task retries.

Error rows are DATA (status/error columns), never poisoned blocks
(errorMode IGNORE, index.ts:338-352); THROW re-raises.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pyarrow as pa

from zerox_ray.models.base import Completion, create_model
from zerox_ray.stages.split import FRAGMENT_SCHEMA

EXTRACTED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("pid", pa.int64()),
        ("page_index", pa.int64()),
        ("content", pa.large_string()),
        ("content_length", pa.int64()),
        ("status", pa.string()),
        ("error", pa.string()),
        ("input_tokens", pa.int64()),
        ("output_tokens", pa.int64()),
    ]
)

#: logprobs column type (reference types.ts:234-242: LogprobsToken[]);
#: present only when the model was asked for logprobs — the reference
#: likewise omits the field unless llmParams request it
LOGPROBS_TYPE = pa.list_(
    pa.struct([("token", pa.string()), ("logprob", pa.float64())])
)
EXTRACTED_SCHEMA_LOGPROBS = EXTRACTED_SCHEMA.append(
    pa.field("logprobs", LOGPROBS_TYPE)
)

STATUS_SUCCESS = "SUCCESS"
STATUS_ERROR = "ERROR"


def completion_to_row(url, pid, page_index, completion) -> dict:
    """CompletionProcessor.process analogue (utils/model.ts:26-59)."""
    failed = completion.error is not None
    content = "" if failed else completion.content
    return {
        "url": url,
        "pid": pid,
        "page_index": page_index,
        "content": content,
        "content_length": len(content),
        "status": STATUS_ERROR if failed else STATUS_SUCCESS,
        "error": completion.error or "",
        "input_tokens": completion.input_tokens,
        "output_tokens": completion.output_tokens,
        "logprobs": completion.logprobs or [],
    }


def complete_with_retries(model, fragment, kind, max_retries, error_mode, **kwargs):
    """runRetries parity (utils/common.ts:62-80): up to ``1 + max_retries``
    ``model.complete`` attempts for one page; the last failure raises
    under THROW, else becomes an error Completion. ``kwargs`` reach
    ``complete`` unchanged (the maintain_format fold passes
    ``maintain_format=True, prior_tail=...``)."""
    attempt = 0
    while True:
        try:
            return model.complete(fragment, kind, **kwargs)
        except Exception as exc:  # noqa: BLE001
            if attempt >= max_retries:
                if error_mode == "THROW":
                    raise
                return Completion("", 0, 0, error=str(exc)[:256])
            attempt += 1


def map_rows(fn, rows: list, inflight: int) -> list:
    """``[fn(r) for r in rows]``, with up to ``inflight`` calls at once.

    pLimit parity (index.ts:48, 366-377): results keep the input order
    whatever order the calls finish in, and the first failing row (in
    input order) raises. The pool is built per call and gone on return,
    so no thread or lock lives on a stage instance that Ray pickles.
    ``inflight == 1`` is the plain loop on the calling thread."""
    if inflight <= 1 or len(rows) <= 1:
        return [fn(r) for r in rows]
    pool = ThreadPoolExecutor(min(inflight, len(rows)))
    try:
        return list(pool.map(fn, rows))
    finally:
        # after a raise, rows not yet started are dropped, not sent
        pool.shutdown(cancel_futures=True)


def rows_to_table(rows: list[dict], with_logprobs: bool = False) -> pa.Table:
    schema = EXTRACTED_SCHEMA_LOGPROBS if with_logprobs else EXTRACTED_SCHEMA
    cols = {name: [r[name] for r in rows] for name in schema.names}
    return pa.table(
        {n: pa.array(cols[n], schema.field(n).type) for n in schema.names}
    )


class Scorer:
    """Task map_batches UDF: fragment rows → extracted page rows."""

    def __init__(
        self,
        model_provider: str = "deterministic",
        model_kwargs: dict | None = None,
        error_mode: str = "IGNORE",
        max_retries: int = 1,
    ):
        # once, on the driver: model construction + validation
        self.model = create_model(model_provider, **(model_kwargs or {}))
        self.error_mode = error_mode
        self.max_retries = max_retries
        # schema is config-stable: the logprobs column exists iff the
        # model was asked for logprobs, for EVERY batch (error rows emit
        # an empty list) — per-batch schema drift would break the union
        self.with_logprobs = bool((model_kwargs or {}).get("logprobs"))

    def __call__(self, batch: pa.Table) -> pa.Table:
        return rows_to_table(self.score_rows(batch), with_logprobs=self.with_logprobs)

    def score_rows(self, frags: pa.Table) -> list[dict]:
        """Fragment rows → extracted page row dicts, in input order, with
        up to ``model.inflight`` requests open across all of them."""
        rows = zip(*(frags[c].to_pylist() for c in FRAGMENT_SCHEMA.names))
        return map_rows(self._score_row, list(rows), self.model.inflight)

    def complete(self, url: str, kind: str, frag: bytes, **kwargs) -> Completion:
        """One fragment's Completion: a splitter error row becomes an
        error Completion (raised under THROW), any other fragment goes
        through ``complete_with_retries`` with ``kwargs``."""
        if kind == "error":
            err = frag.decode("utf-8", errors="replace") or "corrupt payload"
            if self.error_mode == "THROW":
                raise ValueError(f"{url}: {err}")
            return Completion("", 0, 0, error=err)
        return complete_with_retries(
            self.model, frag, kind, self.max_retries, self.error_mode, **kwargs
        )

    def _score_row(self, row: tuple) -> dict:
        url, pid, idx, kind, frag = row
        return completion_to_row(url, pid, idx, self.complete(url, kind, frag))
