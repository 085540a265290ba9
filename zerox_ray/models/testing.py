"""Test-only model providers (the engine's analogue of the reference's
mocked OpenAIModel in node-zerox/tests/performance.test.ts:16-36).

Registered as real providers so the scoring tasks can construct them by
name in worker processes; they exist to exercise error-row and retry semantics
deterministically.
"""

from __future__ import annotations

from zerox_ray.models.base import register_model
from zerox_ray.models.mock import DeterministicExtractorModel

BOOM = b"BOOMPAGE"


@register_model("flaky")
class FlakyModel(DeterministicExtractorModel):
    """Raises on any fragment containing BOOMPAGE — exercises errorMode
    (index.ts:338-352) and the maintain_format chain break (index.ts:361-364)."""

    def complete(self, fragment, kind, maintain_format=False, prior_tail=""):
        if BOOM in fragment:
            raise ValueError("boom: flaky model failure")
        return super().complete(fragment, kind, maintain_format, prior_tail)


@register_model("flaky_once")
class FlakyOnceModel(DeterministicExtractorModel):
    """Fails the FIRST attempt per fragment, succeeds on retry — exercises
    the runRetries analogue (utils/common.ts:62-80) with page granularity."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._seen: set[bytes] = set()

    def complete(self, fragment, kind, maintain_format=False, prior_tail=""):
        if BOOM in fragment and fragment not in self._seen:
            self._seen.add(bytes(fragment))
            raise ValueError("transient failure, retry me")
        return super().complete(fragment, kind, maintain_format, prior_tail)
