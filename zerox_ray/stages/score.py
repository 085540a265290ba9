"""Scorer: per-page model stage (fragment → markdown content row).

Parity: processOCR (node-zerox/src/index.ts:256-355) — per page: cleanup →
model completion with retries → CompletionProcessor.process normalization
(utils/model.ts:26-59) → Page row. Runs as an ACTOR POOL: the model client
is built ONCE per actor in __init__ (reference builds one model per run,
index.ts:248-253; litellm validations run at init,
modellitellm.py:53-68 — here they fail fast at pool start).

Retry parity: runRetries (utils/common.ts:62-80) — in-UDF retry loop with
page granularity, layered under Ray's own task retries.

Error rows are DATA (status/error columns), never poisoned blocks
(errorMode IGNORE, index.ts:338-352); THROW re-raises.
"""

from __future__ import annotations

import pyarrow as pa

from zerox_ray.models.base import Completion, create_model

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


def rows_to_table(rows: list[dict], with_logprobs: bool = False) -> pa.Table:
    schema = EXTRACTED_SCHEMA_LOGPROBS if with_logprobs else EXTRACTED_SCHEMA
    cols = {name: [r[name] for r in rows] for name in schema.names}
    return pa.table(
        {n: pa.array(cols[n], schema.field(n).type) for n in schema.names}
    )


class Scorer:
    """Actor-pool map_batches: fragment rows → extracted page rows."""

    def __init__(
        self,
        model_provider: str = "deterministic",
        model_kwargs: dict | None = None,
        error_mode: str = "IGNORE",
        max_retries: int = 1,
    ):
        # once per actor: model client construction + validation
        self.model = create_model(model_provider, **(model_kwargs or {}))
        self.error_mode = error_mode
        self.max_retries = max_retries
        # schema is config-stable: the logprobs column exists iff the
        # model was asked for logprobs, for EVERY batch (error rows emit
        # an empty list) — per-batch schema drift would break the union
        self.with_logprobs = bool((model_kwargs or {}).get("logprobs"))

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = []
        for url, pid, idx, kind, frag in zip(
            batch["url"].to_pylist(),
            batch["pid"].to_pylist(),
            batch["page_index"].to_pylist(),
            batch["kind"].to_pylist(),
            batch["fragment"].to_pylist(),
        ):
            if kind == "error":
                err = frag.decode("utf-8", errors="replace") or "corrupt payload"
                if self.error_mode == "THROW":
                    raise ValueError(f"{url}: {err}")
                comp = Completion("", 0, 0, error=err)
            else:
                comp = complete_with_retries(
                    self.model, frag, kind, self.max_retries, self.error_mode
                )
            rows.append(completion_to_row(url, pid, idx, comp))
        return rows_to_table(rows, with_logprobs=self.with_logprobs)
