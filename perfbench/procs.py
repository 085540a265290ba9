"""Process teardown that leaves nothing behind, read from ``/proc``.

The orchestrator makes itself a child subreaper (``prctl``), so every
process the benchmark session starts — the driver, Ray's ``gcs_server``
and ``raylet``, the ``default_worker``/``ray::`` workers they spawn —
stays its descendant even after its own parent dies. Teardown then
signals the session's process group, kills every remaining descendant,
reaps them, and polls ``/proc`` until none is left. Every process of a
run also carries the run's marker in its environment, which catches a
process that escaped the tree.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time

PR_SET_CHILD_SUBREAPER = 36
MARKER_ENV = "PERFBENCH_RUN_MARKER"
RAY_NAMES = ("raylet", "gcs_server", "default_worker", "ray::")


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:  # the process ended, or is not ours to read
        return b""


def _pids() -> list[int]:
    return [int(d) for d in os.listdir("/proc") if d.isdigit()]


def _ppid_state(pid: int) -> tuple[int, str]:
    stat = _read(f"/proc/{pid}/stat").decode(errors="replace")
    if not stat:
        return -1, ""
    fields = stat[stat.rfind(")") + 2 :].split()
    return int(fields[1]), fields[0]


def descendants(root: int) -> list[int]:
    """Live (non-zombie) descendants of ``root``."""
    parent = {}
    for pid in _pids():
        ppid, state = _ppid_state(pid)
        if ppid >= 0 and state != "Z":
            parent[pid] = ppid
    out = []
    for pid in parent:
        p = parent.get(pid)
        while p is not None and p > 1:
            if p == root:
                out.append(pid)
                break
            p = parent.get(p)
    return out


def marked(marker: str) -> list[int]:
    """Live processes whose environment carries ``marker``."""
    needle = f"{MARKER_ENV}={marker}".encode()
    me = os.getpid()
    out = []
    for pid in _pids():
        if pid != me and _ppid_state(pid)[1] not in ("Z", "") and needle in _read(f"/proc/{pid}/environ").split(b"\0"):
            out.append(pid)
    return out


def describe(pid: int) -> str:
    cmd = _read(f"/proc/{pid}/cmdline").replace(b"\0", b" ").decode(errors="replace").strip()
    return f"{pid} {cmd[:120]}"


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _kill(pids: list[int], sig: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass


def stop_session(proc, grace_s: float) -> None:
    """Interrupt the session process (its ``finally`` shuts Ray down and
    stops the stub), give it ``grace_s`` to exit, then SIGKILL its whole
    process group."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def sweep(marker: str, timeout_s: float = 30.0) -> list[str]:
    """Kill and reap every descendant of this process and every process
    carrying ``marker``; poll until none is left. Returns the
    descriptions of processes still alive after ``timeout_s`` (empty on
    success)."""
    deadline = time.monotonic() + timeout_s
    while True:
        _reap()
        left = sorted(set(descendants(os.getpid())) | set(marked(marker)))
        if not left:
            return []
        if time.monotonic() >= deadline:
            return [describe(p) for p in left]
        _kill(left, signal.SIGKILL)
        time.sleep(0.1)


def ray_processes(marker: str) -> list[str]:
    """Descriptions of live Ray processes of the run with ``marker``
    (by environment) or descended from this process."""
    out = []
    for pid in set(descendants(os.getpid())) | set(marked(marker)):
        cmd = _read(f"/proc/{pid}/cmdline").decode(errors="replace")
        comm = _read(f"/proc/{pid}/comm").decode(errors="replace")
        if any(n in cmd or n in comm for n in RAY_NAMES):
            out.append(describe(pid))
    return out
