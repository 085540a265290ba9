"""One benchmark run, in its own process and process group.

``run.py`` starts this module with ``python3 -m perfbench.session`` and
one JSON argument, under a hard timeout, and tears down whatever it
leaves. This process is the Ray driver and hosts the stub model server.
It writes its result to the ``result`` path of its argument and, after
every iteration, its progress to ``progress``.

Untraced run (``trace`` 0), reporting the end-to-end metrics:

1. inputs and expected outputs for the seed: generated by a child
   process (``python3 -m perfbench.gen``), or taken from the per-seed
   cache;
2. one set-up: ``ray.init`` + the workload's per-set-up resources + one
   untimed warm-up iteration (actor pools start there). ``setup_s`` is
   the import time plus the input generation time plus the set-up;
3. closed-loop iterations for ``seconds``; each is timed from input to
   the complete result written or collected, then checked.

``driver_peak_rss_mb`` is the peak resident set of this process in one
iteration right after set-up: the resident set at the start of the
first timed iteration plus the median rise within a timed iteration.
The rise is read from the kernel's high-water mark (``VmHWM``), reset to
the current resident set right before each iteration and read right
after it, before its output is checked. The driver's resident set also
creeps up by about a megabyte per iteration; anchoring on the first
iteration keeps that creep, and so the number of iterations a run
manages, out of the figure. Input generation, the expected outputs and
DuckDB's queries stay in the child process of step 1, so the figure is
the driver's own memory while it runs the program (plus the stub model
server's threads on ``ocr_http_model``).

Traced run (``trace`` 1), reporting the per-layer metrics: one set-up,
untraced iterations for half of ``seconds``, traced iterations for the
other half, then the single-process replay of the OCR stages.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import ray  # noqa: E402

import zerox_ray  # noqa: E402,F401
from perfbench.workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START
OBJECT_STORE_BYTES = 512 << 20


def reset_peak_rss() -> None:
    """Reset this process's resident-set high-water mark to its current
    resident set."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def ensure_inputs(args: dict) -> tuple[str, float]:
    """(directory, generation seconds) of the workload's inputs for the
    seed, made by a child process so that none of it allocates here."""
    out = subprocess.run(
        [sys.executable, "-m", "perfbench.gen", args["cache"], args["workload"], str(args["seed"])],
        check=True,
        capture_output=True,
        text=True,
    )
    made = json.loads(out.stdout.strip().splitlines()[-1])
    return made["dir"], made["gen_s"]


def ray_start(num_cpus: int, temp_dir: str) -> None:
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=temp_dir,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


class Session:
    def __init__(self, args: dict):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.next_i = 0
        self.counters: list[dict] = []
        #: resident set (MB) at the start of each iteration and its peak
        self.bases_mb: list[float] = []
        self.peaks_mb: list[float] = []

    def _progress(self) -> None:
        tmp = self.args["progress"] + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"attempted": self.attempted, "failed": self.failed}, fh)
        os.replace(tmp, self.args["progress"])

    def iterate(self, wl) -> float | None:
        """One closed-loop iteration; its time if its output checked out."""
        i = self.next_i
        self.next_i += 1
        wl.before(i)
        self.attempted += 1
        dt = None
        try:
            reset_peak_rss()
            base_mb = peak_rss_mb()
            t0 = time.perf_counter()
            result = wl.run(i)
            dt = time.perf_counter() - t0
            self.bases_mb.append(base_mb)
            self.peaks_mb.append(peak_rss_mb())
            self.counters.append(wl.counters())
            problems = wl.check(result)
        except Exception:  # noqa: BLE001 — a failed iteration is data
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"iteration {i} FAILED:\n" + "\n".join(problems), file=sys.stderr, flush=True)
            dt = None
        self._progress()
        return dt

    def loop(self, wl, seconds: float, tracer=None) -> list[float]:
        times = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.iteration = self.next_i
            dt = self.iterate(wl)
            if dt is not None:
                times.append(dt)
        return times

    def setup(self, wl) -> float:
        t0 = time.perf_counter()
        wl.start()
        ray_start(wl.num_cpus, self.args["ray_tmp"])
        self.iterate(wl)
        return time.perf_counter() - t0

    def teardown(self, wl) -> None:
        ray.shutdown()
        wl.stop()

    def untraced(self, wl, gen_s: float) -> dict:
        setup_s = self.setup(wl)
        self.bases_mb, self.peaks_mb = [], []
        times = self.loop(wl, self.args["seconds"])
        metrics = {
            "setup_s": (IMPORT_S + gen_s + setup_s, "s"),
            "ok_frac": ((self.attempted - self.failed) / self.attempted, "ratio"),
        }
        if self.peaks_mb:
            rise = statistics.median(p - b for p, b in zip(self.peaks_mb, self.bases_mb))
            metrics["driver_peak_rss_mb"] = (self.bases_mb[0] + rise, "MB")
        if times:
            metrics["wall_s"] = (statistics.median(times), "s")
            metrics["pages_per_s"] = (wl.pages * len(times) / sum(times), "1/s")
        detail = {
            "import_s": IMPORT_S,
            "gen_s": gen_s,
            "setup_s": setup_s,
            "iterations_s": times,
            "bases_mb": self.bases_mb,
            "peaks_mb": self.peaks_mb,
        }
        return {"metrics": metrics, "detail": detail}

    def traced(self, wl) -> dict:
        from perfbench import layers
        from perfbench.trace import Tracer

        self.setup(wl)
        half = self.args["seconds"] / 2
        untraced = self.loop(wl, half)
        tracer = Tracer(os.path.join(self.args["work"], "spans"))
        tracer.install()
        self.counters = []
        try:
            traced = self.loop(wl, half, tracer)
        finally:
            tracer.uninstall()
        replay = wl.replay(os.path.join(self.args["work"], "replay.parquet"))
        untraced_s = statistics.median(untraced) if untraced else 0.0
        traced_s = statistics.median(traced) if traced else 0.0
        m = layers.per_layer(
            tracer.read_spans(), tracer.op_stats, len(traced), self.counters, replay, untraced_s, traced_s
        )
        metrics = {k: (v, layers.unit_of(k)) for k, v in m.items()}
        detail = {
            "untraced_s": untraced,
            "traced_s": traced,
            "replay_s": replay,
            "operators": layers.op_rows(tracer.op_stats),
        }
        return {"metrics": metrics, "detail": detail}


def main() -> int:
    args = json.loads(sys.argv[1])
    cls = WORKLOADS[args["workload"]]
    inputs, gen_s = ensure_inputs(args)
    wl = cls(inputs, args["work"], args["seed"])
    session = Session(args)
    try:
        out = session.traced(wl) if args["trace"] else session.untraced(wl, gen_s)
    finally:
        session.teardown(wl)
    out["detail"].update(wl.detail())
    out["detail"]["box"] = {
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_num_cpus": wl.num_cpus,
    }
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
        "detail": out["detail"],
    }
    tmp = args["result"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, args["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
