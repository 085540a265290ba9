"""Checkpointed, resumable execution: per-partition output + lineage
manifests (the capability the reference lacks entirely — rerunning a
failed zerox() call reprocesses the whole document; SURVEY §4).

Partition model
---------------
The resume unit is an INPUT SHARD: a fixed-size group of input parquet
files (WARC-style layout). This relies on one documented assumption,
true for Common-Crawl-style corpora: **all rows of a url live in one
input shard** (a page's fragments never span WARC files), so the per-url
groupby inside a shard is globally correct and shards are independent.

Protocol (crash-safe at every step):
1. enumerate input files → shards (deterministic order + grouping);
2. for each shard without a manifest:
   a. run the pipeline on just that shard's files;
   b. write output parquet to ``<out>/.tmp-<shard>``, then ATOMIC rename
      to ``<out>/shard=<id>``;
   c. write the manifest JSON to a temp file, then ATOMIC os.replace into
      ``<out>/_manifests/<id>.json`` — the manifest only becomes visible
      after its output directory is complete;
3. resume = rerun the same command: completed shards are skipped by the
   manifest diff (an anti-join on shard id, driver-side — SURVEY §2.8).

Manifests carry lineage (input files + engine version + config echo) and
per-shard metrics (docs, pages, errors, seconds) so stale partials are
detectable and run-level pages/sec is a SUM over manifests.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field

import pyarrow.parquet as pq

import zerox_ray
from zerox_ray.config import ZeroxConfig


@dataclass
class ShardResult:
    shard_id: int
    input_files: list[str]
    n_docs: int
    n_pages: int
    n_errors: int
    seconds: float
    engine_version: str
    config: dict = field(default_factory=dict)
    stage_stats: dict = field(default_factory=dict)


def _stage_stats(ds) -> dict:
    """Compact per-operator metrics from Ray's structured stats summary
    (G6: run metrics come from the execution engine, not wall-clock
    guesses): ``"<n>:<operator>"`` → {wall_s, udf_total_s, rows_out},
    operators numbered from 1 in execution order (upstream datasets
    first). ``wall_s`` / ``udf_total_s`` sum the operator's task times.
    A written dataset's stats live on its write dataset, as in
    ``Dataset.stats()``."""
    try:
        summary = (getattr(ds, "_write_ds", None) or ds)._get_stats_summary()
    except Exception:  # pragma: no cover - stats unavailable pre-execution
        return {}

    def operators(s) -> list:
        return [op for p in s.parents for op in operators(p)] + list(s.operators_stats)

    out: dict = {}
    for i, op in enumerate(operators(summary), start=1):
        entry: dict = {}
        if op.wall_time:
            entry["wall_s"] = round(op.wall_time["sum"], 3)
        if op.udf_time:
            entry["udf_total_s"] = round(op.udf_time["sum"], 3)
        if op.output_num_rows:
            entry["rows_out"] = int(op.output_num_rows["sum"])
        out[f"{i}:{op.operator_name[:60]}"] = entry
    return out


class CheckpointedOcrRunner:
    """Drive run_ocr shard-by-shard with resume.

    ``input_format``: 'parquet' (the canonical pages table) or 'warc'
    (raw Common-Crawl-style ``.warc`` / ``.warc.gz`` files parsed by
    sources/warc.py) — the shard plan, lineage manifests, and resume
    semantics are identical; only the per-shard read differs."""

    def __init__(
        self,
        input_dir: str,
        out_dir: str,
        cfg: ZeroxConfig | None = None,
        files_per_shard: int = 4,
        input_format: str = "parquet",
    ):
        if input_format not in ("parquet", "warc"):
            raise ValueError(f"unknown input_format {input_format!r}")
        self.input_dir = input_dir
        self.out_dir = out_dir
        self.cfg = cfg or ZeroxConfig()
        self.files_per_shard = files_per_shard
        self.input_format = input_format
        self.manifest_dir = os.path.join(out_dir, "_manifests")
        os.makedirs(self.manifest_dir, exist_ok=True)

    # -- planning -----------------------------------------------------------

    def shards(self) -> list[list[str]]:
        if self.input_format == "warc":
            files = sorted(
                glob.glob(os.path.join(self.input_dir, "*.warc"))
                + glob.glob(os.path.join(self.input_dir, "*.warc.gz"))
            )
        else:
            files = sorted(glob.glob(os.path.join(self.input_dir, "*.parquet")))
        if not files:
            raise FileNotFoundError(
                f"no {self.input_format} files under {self.input_dir}"
            )
        k = self.files_per_shard
        return [files[i : i + k] for i in range(0, len(files), k)]

    def completed_shards(self) -> set[int]:
        """Shard ids whose manifest exists AND whose recorded input_files
        lineage matches the current shard plan. Shard ids are positional
        over the sorted file list, so adding/removing input files between
        runs shifts them — a manifest whose lineage no longer matches its
        position is STALE and its shard is reprocessed (never silently
        skipped as if it covered different files)."""
        shards = self.shards()
        out = set()
        for f in glob.glob(os.path.join(self.manifest_dir, "*.json")):
            stem = os.path.splitext(os.path.basename(f))[0]
            if not stem.isdigit():
                continue  # stray non-shard json must not brick resume
            sid = int(stem)
            if sid >= len(shards):
                continue  # input shrank — positional id no longer exists
            try:
                with open(f) as fh:
                    recorded = json.load(fh).get("input_files")
            except (OSError, json.JSONDecodeError):
                continue  # unreadable manifest → treat as incomplete
            if recorded == shards[sid]:
                out.add(sid)
        return out

    def pending_shards(self) -> list[int]:
        done = self.completed_shards()
        return [i for i in range(len(self.shards())) if i not in done]

    # -- execution ----------------------------------------------------------

    def _run_shard(self, shard_id: int, files: list[str]) -> ShardResult:
        from zerox_ray.pipelines.ocr import run_ocr
        from zerox_ray.sources.pages import read_pages

        t0 = time.perf_counter()
        final = os.path.join(self.out_dir, f"shard={shard_id:05d}")
        tmp = os.path.join(self.out_dir, f".tmp-{shard_id:05d}")
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(final, ignore_errors=True)  # stale partial w/o manifest

        if self.input_format == "warc":
            from zerox_ray.sources.warc import read_warc_pages

            pages = read_warc_pages(files).select_columns(["url", "html"])
        else:
            pages = read_pages(files)
        docs = run_ocr(pages, self.cfg)
        docs.write_parquet(tmp)
        os.rename(tmp, final)  # atomic publish of the shard output

        n_docs = n_pages = n_errors = 0
        for f in glob.glob(os.path.join(final, "*.parquet")):
            t = pq.read_table(f, columns=["total_pages", "ocr_failed"])
            n_docs += t.num_rows
            n_pages += sum(t["total_pages"].to_pylist())
            n_errors += sum(t["ocr_failed"].to_pylist())

        result = ShardResult(
            shard_id=shard_id,
            input_files=files,
            n_docs=n_docs,
            n_pages=n_pages,
            n_errors=n_errors,
            seconds=round(time.perf_counter() - t0, 3),
            engine_version=zerox_ray.__version__,
            config={
                "maintain_format": self.cfg.maintain_format,
                "error_mode": self.cfg.error_mode,
                "model_provider": self.cfg.model_provider,
                "input_format": self.input_format,
            },
            stage_stats=_stage_stats(docs),
        )
        # manifest becomes visible only after the output rename above
        mtmp = os.path.join(self.manifest_dir, f".tmp-{shard_id:05d}.json")
        with open(mtmp, "w") as fh:
            json.dump(asdict(result), fh, indent=1)
        os.replace(mtmp, os.path.join(self.manifest_dir, f"{shard_id:05d}.json"))
        return result

    def run(self, max_shards: int | None = None) -> dict:
        """Process pending shards (all, or at most ``max_shards`` — the
        test hook for simulating interruption). Returns a run summary."""
        # capture the shard plan ONCE: re-globbing per iteration would let
        # files landing mid-run shift positional ids away from the plan
        # pending_shards() was computed from
        shards = self.shards()
        pending = self.pending_shards()
        processed = []
        for shard_id in pending[: max_shards if max_shards is not None else None]:
            processed.append(self._run_shard(shard_id, shards[shard_id]))
        return {
            "processed_shards": [r.shard_id for r in processed],
            "skipped_shards": sorted(self.completed_shards() - {r.shard_id for r in processed}),
            "n_docs": sum(r.n_docs for r in processed),
            "n_pages": sum(r.n_pages for r in processed),
            "n_errors": sum(r.n_errors for r in processed),
            "seconds": round(sum(r.seconds for r in processed), 3),
        }
