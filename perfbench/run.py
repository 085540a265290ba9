"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. One run: the
workload's inputs are made from the seed (cached per seed under
``.perfbench/inputs``), then ``perfbench.session`` runs in its own
process group under a hard timeout as the Ray driver. Whatever way it
ends, the session group is stopped and every process it left (Ray's
``gcs_server``, ``raylet``, ``default_worker``/``ray::`` workers) is
killed and reaped before this process exits; if one survives, the run
fails without a result. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Exit code 0 only for a run whose every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import procs  # noqa: E402

#: hard limit on one session beyond its --seconds of measuring: inputs,
#: set-up and the iteration still running when the time is up; with the
#: teardown below, a run of --seconds 20 ends within 180 s
SESSION_MARGIN_S = 115
#: time the session gets to shut Ray down itself after SIGINT
GRACE_S = 8
#: time the sweep gets to kill and reap what is left
SWEEP_S = 20
#: longest Ray temp dir whose socket paths stay under the AF_UNIX limit
MAX_RAY_TMP_LEN = 38
WORKLOADS = ("ocr_flagship", "ocr_http_model", "exchange_joins")
PROGRAM_FILES = ("zerox_ray/__init__.py", "__ray_entry__.py", "scripts/check_oracles.py")


def ray_tmp_dir(work_root: str, run_id: str) -> str:
    """Ray's temp dir: under the checkout when its path is short enough
    for Ray's unix sockets, else a fresh directory under the system temp
    dir (removed after the run either way)."""
    path = os.path.join(work_root, f"r{run_id[:6]}")
    if len(path) <= MAX_RAY_TMP_LEN:
        os.makedirs(path)
        return path
    return tempfile.mkdtemp(prefix="pb")


def run_session(workload: str, seed: int, seconds: int, trace: int, timeout_s: float | None = None) -> dict:
    """Run one session and tear it down, cutting it after ``timeout_s``
    (default: ``seconds`` + ``SESSION_MARGIN_S``). Returns ``{"result", "progress",
    "timed_out", "left", "log"}``; ``left`` lists the processes that
    survived the teardown (empty on success)."""
    if timeout_s is None:
        timeout_s = seconds + SESSION_MARGIN_S
    work_root = os.path.join(ROOT, ".perfbench")
    run_id = uuid.uuid4().hex
    work = os.path.join(work_root, "runs", f"{workload}-{seed}-{run_id[:8]}")
    os.makedirs(work)
    ray_tmp = ray_tmp_dir(work_root, run_id)
    args = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cache": os.path.join(work_root, "inputs"),
        "work": work,
        "ray_tmp": ray_tmp,
        "result": os.path.join(work, "result.json"),
        "progress": os.path.join(work, "progress.json"),
    }
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env.update(
        PYTHONPATH=os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p),
        RAY_TMPDIR=ray_tmp,
        RAY_USAGE_STATS_ENABLED="0",
        RAY_DATA_DISABLE_PROGRESS_BARS="1",
        **{procs.MARKER_ENV: run_id},
    )
    procs.become_subreaper()
    log_path = os.path.join(work, "session.log")
    timed_out = False
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.session", json.dumps(args)],
            cwd=ROOT,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                timed_out = True
        finally:
            procs.stop_session(proc, GRACE_S)
            left = procs.sweep(run_id, SWEEP_S) + procs.ray_processes(run_id)
    shutil.rmtree(ray_tmp, ignore_errors=True)
    out = {"result": None, "progress": None, "timed_out": timed_out, "left": left, "log": log_path}
    for key in ("result", "progress"):
        if os.path.isfile(args[key]):
            with open(args[key], encoding="utf-8") as fh:
                out[key] = json.load(fh)
    if out["result"] is not None:
        with open(os.path.join(work_root, f"last-{workload}-trace{trace}.json"), "w", encoding="utf-8") as fh:
            json.dump(out["result"], fh, indent=1)
    if not left and out["result"] is not None and out["result"]["correct"]:
        shutil.rmtree(work, ignore_errors=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = parser.parse_args()
    missing = [f for f in PROGRAM_FILES if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        print(f"perfbench: not in a checkout of the repository, missing {missing} under {ROOT}", file=sys.stderr)
        return 2
    if not 0 <= a.seed < 2**63 or a.seconds < 1:
        print("perfbench: --seed must be in [0, 2**63) and --seconds >= 1", file=sys.stderr)
        return 2
    out = run_session(a.workload, a.seed, a.seconds, a.trace)
    if out["left"]:
        print("perfbench: processes left after teardown:\n  " + "\n  ".join(out["left"]), file=sys.stderr)
        return 3
    result = out["result"]
    if result is None:
        with open(out["log"], encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-4000:]
        why = "timed out" if out["timed_out"] else "ended without a result"
        print(f"perfbench: session {why}; log tail:\n{tail}", file=sys.stderr)
        # the cut iteration (or set-up) counts as attempted and failed
        done = out["progress"] or {"attempted": 0, "failed": 0}
        result = {"correct": False, "attempted": done["attempted"] + 1, "failed": done["failed"] + 1, "metrics": {}}
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
