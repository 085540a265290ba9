"""Localhost stand-in for an OpenAI-compatible chat-completions endpoint.

The server runs in a thread of the benchmark's driver process and serves
the ``openai`` model provider of ``zerox_ray`` through
``credentials["base_url"]``. It is built to make the networked scoring
path measurable and checkable:

- every successful reply is a pure function of the request's image
  bytes: the page text the deterministic model would extract from them,
  so the pipeline's per-url markdown can be checked against the golden
  documents of ``zerox_ray.testgen``;
- a seeded share of images is answered with 429 or 503 on their first
  one or two attempts; the provider's transport retries them, so no page
  fails, but the retry path runs;
- each reply is held for a fixed latency, standing in for model time;
- attempts, injected faults, useful replies and handler busy time are
  counted exactly, under a lock.
"""

from __future__ import annotations

import base64
import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from zerox_ray.models.mock import DeterministicExtractorModel

_MODEL = DeterministicExtractorModel()
#: seconds each successful reply is held, standing in for model time
LATENCY_S = 0.005
#: share of images refused on their first one or two attempts
FAULT_SHARE = 0.1


def reply_text(image: bytes) -> str:
    """The stub's answer for one page image: the page text the
    deterministic model extracts (html fragments start with ``<``; every
    other fragment is a text page)."""
    kind = "html" if image.lstrip()[:1] == b"<" else "pdf"
    return _MODEL.complete(image, kind).content


def planned_faults(seed: int, image: bytes) -> int:
    """How many leading attempts for ``image`` are refused: 0 for most
    images, 1 or 2 for a ``FAULT_SHARE`` of them, fixed by (seed, image)."""
    h = int.from_bytes(hashlib.blake2b(image, digest_size=8, key=seed.to_bytes(8, "little")).digest(), "little")
    if (h & 0xFFFFFFFF) / 2**32 >= FAULT_SHARE:
        return 0
    return 1 + (h >> 32) % 2


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server API)
        started = time.perf_counter()
        stub: StubServer = self.server.stub
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        url = body["messages"][-1]["content"][0]["image_url"]["url"]
        image = base64.b64decode(url.split(",", 1)[1])
        key = hashlib.blake2b(image, digest_size=16).digest()
        with stub.lock:
            attempt = stub.attempts_by_image.get(key, 0) + 1
            stub.attempts_by_image[key] = attempt
            stub.attempts += 1
            fault = attempt <= planned_faults(stub.seed, image)
            if fault:
                stub.faults += 1
        if fault:
            status = 429 if attempt == 1 else 503
            payload = {"error": {"message": "injected", "code": status}}
        else:
            time.sleep(LATENCY_S)
            text = reply_text(image)
            status = 200
            payload = {
                "choices": [{"message": {"content": text}}],
                "usage": {"prompt_tokens": len(image) // 4, "completion_tokens": len(text) // 4},
            }
        data = json.dumps(payload).encode()
        # counted before the reply leaves, so a client that has its answer
        # always finds it counted
        with stub.lock:
            stub.busy_s += time.perf_counter() - started
            stub.replies += status == 200
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class StubServer:
    """Start with ``start()``, stop with ``stop()`` (idempotent)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.lock = threading.Lock()
        self.reset()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def reset(self) -> None:
        """Zero the counters (the fault plan restarts for every image)."""
        with self.lock:
            self.attempts_by_image: dict[bytes, int] = {}
            self.attempts = 0
            self.faults = 0
            self.replies = 0
            self.busy_s = 0.0

    def counters(self) -> dict:
        with self.lock:
            return {
                "attempts": self.attempts,
                "faults": self.faults,
                "replies": self.replies,
                "busy_s": self.busy_s,
            }

    def start(self) -> str:
        """Bind to a free localhost port; returns the completions URL."""
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.daemon_threads = True
        self._server.stub = self
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return f"http://127.0.0.1:{self._server.server_address[1]}/v1/chat/completions"

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join(timeout=10)
            self._server = self._thread = None
