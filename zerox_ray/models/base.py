"""Model interface for the per-page scorer stage.

Mirrors the reference's ``ModelInterface`` / ``createModel`` factory
(node-zerox/src/models/index.ts:48-80) and the ``customModelFunction``
injection point (node-zerox/src/types.ts:9-15, index.ts:286-298): the
scorer stage accepts ANY class implementing this interface; the default is
the deterministic extractor (mock vision model) so the pipeline is
reproducible and offline-testable.

A model instance is constructed ONCE per stage on the driver (the Scorer /
PageExtractor / DocumentExtractor ctor) and shipped to the tasks,
matching the reference's one-model-per-run lifecycle (index.ts:248-253).
"""

from __future__ import annotations

from dataclasses import dataclass

from zerox_ray.functions.prompts import SYSTEM_PROMPT_BASE


@dataclass
class Completion:
    """Per-page model result (CompletionResponse, node types.ts:151-156).

    ``tail`` is the conditioning context the NEXT page should receive in
    maintain_format mode — the prior page's BASE content tail, computed by
    the model (which knows the content before any continuity decoration).
    """

    content: str
    input_tokens: int
    output_tokens: int
    error: str | None = None
    tail: str = ""
    #: optional per-token logprobs (reference types.ts:234-242: emitted
    #: only when llmParams request them); None = not requested
    logprobs: list[dict] | None = None


@dataclass
class Extraction:
    """Structured-extraction result (ExtractionResponse, types.ts:188-193)."""

    extracted: dict
    input_tokens: int
    output_tokens: int


class ScorerModel:
    """Interface of the page-scoring stage's model.

    ``complete`` = handleOCR (openAI.ts:93-157): page fragment → markdown.
    ``extract``  = handleExtraction (openAI.ts:159-215): content + JSON
    schema → dict.
    """

    system_prompt: str = SYSTEM_PROMPT_BASE
    #: calls one stage task may keep in flight (``stages.score.map_rows``);
    #: 1 = one call at a time on the task's thread. A model that sets more
    #: must be safe to call from that many threads at once.
    inflight: int = 1

    def complete(
        self,
        fragment: bytes,
        kind: str,
        maintain_format: bool = False,
        prior_tail: str = "",
    ) -> Completion:
        raise NotImplementedError

    def extract(self, content: str, schema: dict) -> Extraction:
        raise NotImplementedError


#: registry for provider selection (models/index.ts:48-80)
_REGISTRY: dict[str, type] = {}


def register_model(name: str):
    def deco(cls: type) -> type:
        _REGISTRY[name] = cls
        return cls

    return deco


def create_model(provider: str = "deterministic", **kwargs) -> ScorerModel:
    """Factory mirroring createModel's provider switch
    (node-zerox/src/models/index.ts:48-80)."""
    # imported for registration side effects
    import zerox_ray.models.mock  # noqa: F401
    import zerox_ray.models.providers  # noqa: F401
    import zerox_ray.models.testing  # noqa: F401

    try:
        cls = _REGISTRY[provider]
    except KeyError:
        raise ValueError(
            f"unknown model provider {provider!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)

