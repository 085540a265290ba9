"""LLM provider models — real request assembly + a real HTTP transport.

Parity targets: OpenAIModel (node-zerox/src/models/openAI.ts:93-215),
AzureModel (models/azure.ts:22-197), BedrockModel (models/bedrock.ts:25-220),
GoogleModel (models/google.ts:21-169), litellm PY model
(py_zerox/pyzerox/models/modellitellm.py:17-155).

Each provider builds the EXACT request its live transport would send —
message shaping, base64 image parts, ``response_format: json_schema``,
Bedrock's forced ``tool_choice: {name: "json"}`` — through the pure
builders in models/requests.py (golden-fixture tested offline). ``_send``
is a plain ``urllib`` JSON POST with exponential-backoff retries
(``max_retries``, the reference's runRetries loop at utils/common.ts:62-80
applied at the transport layer); tests exercise it end-to-end against a
localhost stub server, no external network. Per-provider ``_wire``/
``_unwire`` hooks adapt the built request dict to the provider's REST
shape and normalize the wire JSON back to what the parsers expect.

Constructors perform the reference's fail-fast credential/param validation
(modellitellm.py:53-68 runs validations at init — here: at plan build,
where the stage's model is constructed on the driver). The scorer stage
treats these classes identically to the deterministic model: swap the
class, keep the pipeline.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request

from zerox_ray.functions.schema import validate_llm_params
from zerox_ray.models import requests as rq
from zerox_ray.models.base import Completion, Extraction, ScorerModel, register_model

#: transient HTTP statuses the transport retries; 4xx auth/validation
#: errors surface immediately (openAI.ts surfaces API errors; the retry
#: loop in utils/common.ts:62-80 re-runs the page — here the transport
#: retries only what a re-send can fix)
_RETRYABLE_STATUSES = frozenset({408, 409, 429, 500, 502, 503, 504})


class _NetworkedModel(ScorerModel):
    provider = "base"
    #: the reference's default ``concurrency`` (index.ts:48); ``_send``
    #: keeps no per-request state on the instance, so threads may share it
    inflight = 10

    def __init__(
        self,
        model: str = "",
        credentials: dict | None = None,
        prompt: str | None = None,
        max_retries: int = 1,
        retry_backoff_s: float = 1.0,
        timeout_s: float = 60.0,
        **llm_params,
    ):
        credentials = credentials or {}
        missing = [k for k in self.required_credentials if not credentials.get(k)]
        if missing:
            raise ValueError(
                f"{self.provider}: missing credentials {missing} "
                "(reference: createModel validation, models/index.ts:48-80)"
            )
        self.model = model
        self.credentials = credentials
        # ZeroxConfig.prompt override (index.ts:76): the system prompt the
        # transport sends in place of SYSTEM_PROMPT_BASE
        self.prompt = prompt
        if prompt is not None:
            self.system_prompt = prompt
        # ZeroxConfig.max_retries (types.ts:27) honored at the transport:
        # max_retries RE-SENDS after the first attempt, so attempts = 1+N
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.timeout_s = float(timeout_s)
        self.llm_params = validate_llm_params(llm_params, self.provider)

    required_credentials: tuple[str, ...] = ()

    # -- request assembly (pure, overridden per provider) ----------------
    def build_ocr_request(
        self,
        buffers: list[bytes],
        maintain_format: bool = False,
        prior_page: str = "",
    ) -> dict:
        raise NotImplementedError

    def build_extraction_request(self, input, schema: dict) -> dict:
        raise NotImplementedError

    # -- response parsing (pure, overridden per provider) ----------------
    def parse_ocr_response(self, data: dict) -> dict:
        raise NotImplementedError

    def parse_extraction_response(self, data: dict) -> dict:
        raise NotImplementedError

    # -- wire adaptation (overridden where the REST shape differs) --------
    def _wire(self, request: dict) -> tuple[str, dict, dict]:
        """Built request dict → (url, headers, json_body) for the POST.

        Default covers the OpenAI-shaped providers whose builders already
        emit url/headers/body; ``credentials["base_url"]`` reroutes the
        call (proxies, gateways, the localhost stub in tests)."""
        url = self.credentials.get("base_url") or request["url"]
        return url, request["headers"], request["body"]

    def _unwire(self, data: dict) -> dict:
        """Wire-format response JSON → the dict the parsers expect."""
        return data

    # -- the transport: a plain JSON POST with retry/backoff -------------
    def _send(self, request: dict) -> dict:
        """POST the built request; retry transient failures.

        runRetries parity (utils/common.ts:62-80): up to ``max_retries``
        re-sends after the first attempt, exponential backoff
        ``retry_backoff_s · 2^attempt`` between tries. Retries cover
        connection errors, timeouts and transient statuses
        (408/409/429/5xx); auth/validation 4xx surface immediately."""
        url, headers, body = self._wire(request)
        payload = json.dumps(body).encode()
        attempt = 0
        while True:
            try:
                req = urllib.request.Request(
                    url, data=payload, headers=dict(headers), method="POST"
                )
                with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                    return self._unwire(json.loads(resp.read().decode("utf-8")))
            except urllib.error.HTTPError as exc:
                if exc.code not in _RETRYABLE_STATUSES or attempt >= self.max_retries:
                    raise
            except (urllib.error.URLError, TimeoutError, ConnectionError):
                if attempt >= self.max_retries:
                    raise
            time.sleep(self.retry_backoff_s * (2**attempt))
            attempt += 1

    def complete(
        self, fragment, kind, maintain_format=False, prior_tail=""
    ) -> Completion:
        request = self.build_ocr_request(
            [fragment], maintain_format=maintain_format, prior_page=prior_tail
        )
        data = self._send(request)
        parsed = self.parse_ocr_response(data)
        return Completion(
            content=parsed["content"],
            input_tokens=parsed["input_tokens"],
            output_tokens=parsed["output_tokens"],
            logprobs=parsed.get("logprobs"),
        )

    def extract(self, content, schema) -> Extraction:
        request = self.build_extraction_request(content, schema)
        data = self._send(request)
        parsed = self.parse_extraction_response(data)
        extracted = parsed["extracted"]
        if isinstance(extracted, str):  # OpenAI returns the raw JSON string
            import json

            extracted = json.loads(extracted)
        return Extraction(
            extracted=extracted,
            input_tokens=parsed["input_tokens"],
            output_tokens=parsed["output_tokens"],
        )

    @property
    def _want_logprobs(self) -> bool:
        return bool(self.llm_params.get("logprobs"))


@register_model("openai")
class OpenAIModel(_NetworkedModel):
    provider = "openai"
    required_credentials = ("api_key",)

    def build_ocr_request(self, buffers, maintain_format=False, prior_page=""):
        return rq.openai_ocr_request(
            model=self.model,
            api_key=self.credentials["api_key"],
            llm_params=self.llm_params,
            buffers=buffers,
            maintain_format=maintain_format,
            prior_page=prior_page,
            prompt=self.prompt,
        )

    def build_extraction_request(self, input, schema):
        return rq.openai_extraction_request(
            model=self.model,
            api_key=self.credentials["api_key"],
            llm_params=self.llm_params,
            input=input,
            schema=schema,
            prompt=self.prompt,
        )

    def parse_ocr_response(self, data):
        return rq.parse_openai_completion(data, want_logprobs=self._want_logprobs)

    def parse_extraction_response(self, data):
        return rq.parse_openai_extraction(data, want_logprobs=self._want_logprobs)


@register_model("azure")
class AzureModel(_NetworkedModel):
    provider = "azure"
    required_credentials = ("api_key", "endpoint")

    def build_ocr_request(self, buffers, maintain_format=False, prior_page=""):
        return rq.azure_ocr_request(
            deployment=self.model,
            api_key=self.credentials["api_key"],
            endpoint=self.credentials["endpoint"],
            llm_params=self.llm_params,
            buffers=buffers,
            maintain_format=maintain_format,
            prior_page=prior_page,
            prompt=self.prompt,
        )

    def build_extraction_request(self, input, schema):
        return rq.azure_extraction_request(
            deployment=self.model,
            api_key=self.credentials["api_key"],
            endpoint=self.credentials["endpoint"],
            llm_params=self.llm_params,
            input=input,
            schema=schema,
            prompt=self.prompt,
        )

    def parse_ocr_response(self, data):
        return rq.parse_openai_completion(data, want_logprobs=self._want_logprobs)

    def parse_extraction_response(self, data):
        return rq.parse_openai_extraction(data, want_logprobs=self._want_logprobs)


@register_model("bedrock")
class BedrockModel(_NetworkedModel):
    provider = "bedrock"
    required_credentials = ("region",)

    def build_ocr_request(self, buffers, maintain_format=False, prior_page=""):
        return rq.bedrock_ocr_request(
            model_id=self.model,
            llm_params=self.llm_params,
            buffers=buffers,
            maintain_format=maintain_format,
            prior_page=prior_page,
            prompt=self.prompt,
        )

    def build_extraction_request(self, input, schema):
        return rq.bedrock_extraction_request(
            model_id=self.model,
            llm_params=self.llm_params,
            input=input,
            schema=schema,
            prompt=self.prompt,
        )

    def parse_ocr_response(self, data):
        return rq.parse_bedrock_completion(data)

    def parse_extraction_response(self, data):
        return rq.parse_bedrock_extraction(data)

    def _wire(self, request):
        """InvokeModel REST shape (bedrock.ts:151-155 via the AWS SDK):
        POST body to ``/model/{modelId}/invoke`` on the bedrock-runtime
        regional endpoint. The reference's SDK signs with SigV4; this
        plain transport does NOT sign — point ``credentials["endpoint"]``
        at a signing proxy / gateway (or the localhost stub in tests),
        or subclass with a boto3 ``invoke_model`` _send for direct AWS."""
        base = self.credentials.get("endpoint") or (
            f"https://bedrock-runtime.{self.credentials['region']}.amazonaws.com"
        )
        model_path = urllib.parse.quote(request["modelId"], safe="")
        url = f"{base.rstrip('/')}/model/{model_path}/invoke"
        headers = {
            "Accept": request["accept"],
            "Content-Type": request["contentType"],
        }
        return url, headers, request["body"]


@register_model("google")
class GoogleModel(_NetworkedModel):
    provider = "google"
    required_credentials = ("api_key",)

    def build_ocr_request(self, buffers, maintain_format=False, prior_page=""):
        return rq.google_ocr_request(
            model=self.model,
            llm_params=self.llm_params,
            buffers=buffers,
            maintain_format=maintain_format,
            prior_page=prior_page,
            prompt=self.prompt,
        )

    def build_extraction_request(self, input, schema):
        return rq.google_extraction_request(
            model=self.model,
            llm_params=self.llm_params,
            input=input,
            schema=schema,
            prompt=self.prompt,
        )

    def parse_ocr_response(self, data):
        return rq.parse_google_completion(data)

    def parse_extraction_response(self, data):
        return rq.parse_google_extraction(data)

    def _wire(self, request):
        """generateContent REST shape (the @google/genai SDK the
        reference uses, google.ts:110-118, speaks the same v1beta REST
        API): ``models/{model}:generateContent?key=...`` with the parts
        under ``contents`` and the config under ``generationConfig``."""
        base = self.credentials.get("endpoint") or (
            "https://generativelanguage.googleapis.com"
        )
        key = urllib.parse.quote(self.credentials["api_key"], safe="")
        url = (
            f"{base.rstrip('/')}/v1beta/models/"
            f"{urllib.parse.quote(request['model'], safe='')}"
            f":generateContent?key={key}"
        )
        body = {
            "contents": [{"parts": request["contents"]}],
            "generationConfig": request["config"],
        }
        return url, {"Content-Type": "application/json"}, body

    def _unwire(self, data):
        """REST candidates → the SDK-convenience shape the parsers read
        (``response.text`` joins the first candidate's text parts,
        google.ts:122)."""
        cands = data.get("candidates") or []
        parts = (cands[0].get("content") or {}).get("parts", []) if cands else []
        text = "".join(p.get("text", "") for p in parts)
        return {"text": text, "usageMetadata": data.get("usageMetadata") or {}}


@register_model("litellm")
class LiteLLMModel(_NetworkedModel):
    """litellm PY model (modellitellm.py:17-155): kwargs pass straight to
    ``litellm.acompletion`` (the reference does NO param-key validation
    for this provider — litellm validates downstream per backing model),
    and every request carries exactly ONE image."""

    provider = "litellm"
    required_credentials = ()

    def __init__(
        self,
        model: str = "",
        credentials=None,
        prompt=None,
        max_retries: int = 1,
        retry_backoff_s: float = 1.0,
        timeout_s: float = 60.0,
        **kwargs,
    ):
        self.model = model
        self.credentials = credentials or {}
        self.prompt = prompt
        if prompt is not None:
            self.system_prompt = prompt
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.timeout_s = float(timeout_s)
        self.llm_params = dict(kwargs)  # passthrough, modellitellm.py:95
        # The reference ALSO runs validate_environment / validate_model /
        # validate_access at init (modellitellm.py:35-37); those need the
        # litellm package + network, so they are deferred to
        # validate_runtime() — call it before a run when a live
        # transport is plugged in.

    def validate_runtime(self) -> None:
        """The reference's init-time litellm validations, deferred
        (modellitellm.py:35-68): env keys present for the model
        (validate_environment), model recognized + vision-capable
        (validate_model via litellm.supports_vision). Raises ValueError
        with the same failure intent; requires the litellm package."""
        litellm = self._litellm()
        env = litellm.validate_environment(model=self.model)
        if not env.get("keys_in_environment"):
            raise ValueError(
                f"litellm: missing environment keys {env.get('missing_keys')} "
                f"for model {self.model!r} (modellitellm.py:53-57)"
            )
        if not litellm.supports_vision(model=self.model):
            raise ValueError(
                f"litellm: model {self.model!r} is not vision-capable "
                "(modellitellm.py:59-63)"
            )

    @staticmethod
    def _litellm():
        try:
            import litellm
        except ImportError as exc:
            raise NotImplementedError(
                "the litellm provider transports through the litellm "
                "package (modellitellm.py:142-153), not installed in this "
                "environment"
            ) from exc
        return litellm

    def _send(self, request):
        """litellm.completion with the runRetries loop (the PY reference
        wraps acompletion in its own retry at processing level); the
        response object is normalized to the OpenAI dict shape."""
        litellm = self._litellm()
        attempt = 0
        while True:
            try:
                resp = litellm.completion(
                    model=request["model"],
                    messages=request["messages"],
                    **request["kwargs"],
                )
                if hasattr(resp, "model_dump"):
                    resp = resp.model_dump()
                return resp
            except Exception:
                if attempt >= self.max_retries:
                    raise
            time.sleep(self.retry_backoff_s * (2**attempt))
            attempt += 1

    def build_ocr_request(self, buffers, maintain_format=False, prior_page=""):
        if len(buffers) != 1:
            raise ValueError(
                "litellm OCR sends exactly one image per request "
                "(modellitellm.py:142-153)"
            )
        return {
            "model": self.model,
            "messages": rq.litellm_ocr_messages(
                system_prompt=self.prompt,
                maintain_format=maintain_format,
                prior_page=prior_page,
                image_buffer=buffers[0],
            ),
            "kwargs": dict(self.llm_params),
        }

    def parse_ocr_response(self, data):
        return rq.parse_openai_completion(data)

    def build_extraction_request(self, input, schema):
        raise NotImplementedError(
            "the reference litellm model is OCR-only (modellitellm.py has "
            "no extraction handler) — use the openai/azure/bedrock/google "
            "providers for structured extraction"
        )
