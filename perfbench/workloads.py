"""The three benchmark workloads.

Each workload is driven through the public API of ``zerox_ray`` in a
closed loop: one client, the next iteration starts only after the
previous one has completed and its output has been checked.

- ``ocr_flagship``: ``run_ocr`` with the deterministic model over a
  seeded pages corpus, written with ``write_parquet``. Chosen because
  most of its time goes to the OCR stages (classify, split, score,
  reassemble) and it has one small exchange (the pid shuffle).
- ``ocr_http_model``: the same pipeline with ``model_provider="openai"``
  against the localhost stub of ``stub.py`` (5 ms per reply, a seeded
  tenth of the images refused once or twice with 429/503). The stages
  then run as stateful actor pools of a pinned size (1 splitter, 1
  scorer); scoring waits on the network instead of the CPU. Chosen
  because it uses the score layer in that other way: a concurrent
  scorer should move this workload and not ``ocr_flagship``. At 2 or
  fewer logical CPUs the actor-pool path makes no progress (NOTES.md).
- ``exchange_joins``: ``shipping_priority``, ``paragraph_dedup``,
  ``bigram_logprobs`` and ``kcore``, each collected with ``to_pandas``.
  Chosen because its time goes to ``hash_join``, ``bucketed_group_agg``
  / ``bucketed_group_map``, the broadcast gates and the driver pulls,
  while the OCR stages barely run.

Every workload runs Ray with 4 logical CPUs, the 4 vCPUs the benchmark
box allows; with 1, the many short Ray executions of ``exchange_joins``
ran slower and spread about twice as wide from run to run.
"""

from __future__ import annotations

import os
import shutil
import time

from perfbench import checks


class Workload:
    name = ""
    num_cpus = 4
    #: input sizes, passed to gen.generate
    sizes: dict = {}
    #: queries whose DuckDB oracle results gen.generate stores
    oracles: tuple[str, ...] = ()

    def __init__(self, inputs_dir: str, work_dir: str, seed: int):
        self.inputs_dir = inputs_dir
        self.pages_dir = os.path.join(inputs_dir, "pages")
        self.sf_dir = os.path.join(inputs_dir, "sf")
        self.expected_dir = os.path.join(inputs_dir, "expected")
        self.work_dir = work_dir
        self.seed = seed
        self.expected_docs = checks.expected_documents(self.expected_dir)
        #: pages in the corpus one iteration processes
        self.pages = sum(r["total_pages"] for r in self.expected_docs.values())

    def start(self) -> None:
        """Per set-up resources, started before ``ray.init``."""

    def stop(self) -> None:
        """Release what ``start`` started (idempotent)."""

    def before(self, i: int) -> None:
        """Untimed preparation of iteration ``i``."""

    def run(self, i: int):
        """The timed iteration; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    def counters(self) -> dict:
        """Per-iteration counters taken right after ``run``."""
        return {}

    def replay(self, out_path: str) -> dict[str, float] | None:
        """Self seconds per layer from a single-process replay, where the
        workload's layers can run without Ray."""
        return None

    def detail(self) -> dict:
        """Extra figures for the run's detail record."""
        return {}


class OcrFlagship(Workload):
    name = "ocr_flagship"
    sizes = {"docs": 4000}

    def config(self):
        from zerox_ray import ZeroxConfig

        return ZeroxConfig()

    def _out(self, i: int) -> str:
        return os.path.join(self.work_dir, "out", str(i))

    def before(self, i: int) -> None:
        shutil.rmtree(os.path.join(self.work_dir, "out"), ignore_errors=True)

    def run(self, i: int):
        from zerox_ray import run_ocr

        run_ocr(self.pages_dir, self.config()).write_parquet(self._out(i))
        return self._out(i)

    def check(self, result) -> list[str]:
        return checks.check_documents(checks.read_documents(result), self.expected_docs)

    def replay(self, out_path: str) -> dict[str, float]:
        from perfbench.layers import replay_ocr
        from zerox_ray.stages.classify import default_num_partitions

        return replay_ocr(self.pages_dir, self.config(), default_num_partitions(), out_path)


class OcrHttpModel(OcrFlagship):
    name = "ocr_http_model"
    sizes = {"docs": 60}

    def __init__(self, inputs_dir: str, work_dir: str, seed: int):
        super().__init__(inputs_dir, work_dir, seed)
        self.stub = None
        self.url = ""

    def start(self) -> None:
        from perfbench.stub import StubServer

        self.stub = StubServer(self.seed)
        self.url = self.stub.start()

    def stop(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None

    def config(self):
        from zerox_ray import ZeroxConfig

        return ZeroxConfig(
            model_provider="openai",
            model_kwargs={
                "model": "stub",
                "credentials": {"api_key": "sk-bench", "base_url": self.url},
                "max_retries": 3,
                "retry_backoff_s": 0.002,
            },
            actor_concurrency=1,
        )

    def before(self, i: int) -> None:
        super().before(i)
        self.stub.reset()

    def counters(self) -> dict:
        return self.stub.counters()

    def replay(self, out_path: str) -> dict[str, float]:
        self.stub.reset()
        return super().replay(out_path)

    def check(self, result) -> list[str]:
        return checks.check_model_documents(checks.read_documents(result), self.expected_docs, self.stub.counters())


class ExchangeJoins(Workload):
    name = "exchange_joins"
    sizes = {"docs": 1000, "orders": 15000}
    oracles = ("shipping_priority", "paragraph_dedup", "bigram_logprobs", "kcore")

    def __init__(self, inputs_dir: str, work_dir: str, seed: int):
        super().__init__(inputs_dir, work_dir, seed)
        self.expected = checks.oracle_frames(self.expected_dir, self.oracles)
        #: seconds per op, one dict per iteration
        self.op_seconds: list[dict[str, float]] = []

    def _datasets(self):
        from zerox_ray.pipelines.boilerplate import paragraph_dedup
        from zerox_ray.pipelines.graph import kcore
        from zerox_ray.pipelines.relational import shipping_priority
        from zerox_ray.pipelines.textqual import bigram_logprobs

        return {
            "shipping_priority": lambda: shipping_priority(self.sf_dir),
            "paragraph_dedup": lambda: paragraph_dedup(self.pages_dir),
            "bigram_logprobs": lambda: bigram_logprobs(self.sf_dir),
            "kcore": lambda: kcore(self.pages_dir),
        }

    def run(self, i: int):
        out, took = {}, {}
        for name, build in self._datasets().items():
            t0 = time.perf_counter()
            out[name] = build().to_pandas()
            took[name] = time.perf_counter() - t0
        self.op_seconds.append(took)
        return out

    def detail(self) -> dict:
        return {"op_seconds": self.op_seconds}

    def check(self, result) -> list[str]:
        problems = []
        for name in self.oracles:
            problems += checks.check_oracle(name, result[name], self.expected[name])
        return problems


WORKLOADS = {w.name: w for w in (OcrFlagship, OcrHttpModel, ExchangeJoins)}
