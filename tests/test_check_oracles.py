"""``scripts/check_oracles.py`` and ``scripts/bench_pairs.py`` refuse to
start beside a live Ray session: two local sessions crash each other."""

import sys

from scripts import check_oracles


def _proc(tmp_path, comms: dict) -> str:
    for pid, comm in comms.items():
        d = tmp_path / str(pid)
        d.mkdir()
        if comm is not None:
            (d / "comm").write_text(comm + "\n")
    (tmp_path / "self").mkdir()
    return str(tmp_path)


def test_raylet_pids_reads_comm(tmp_path):
    proc = _proc(tmp_path, {41: "python", 7: "raylet", 1200: "raylet", 9: "gcs_server", 3: None})
    assert check_oracles.raylet_pids(proc) == [7, 1200]


def test_raylet_pids_finds_the_live_session():
    # the suite's own Ray session runs a raylet
    assert check_oracles.raylet_pids()


def test_sweep_exits_2_naming_the_pid(monkeypatch, capsys):
    monkeypatch.setattr(check_oracles, "raylet_pids", lambda proc="/proc": [4242])
    monkeypatch.setattr(sys, "argv", ["check_oracles.py", "/nonexistent", "kcore"])
    assert check_oracles.main() == 2
    assert "raylet pid 4242" in capsys.readouterr().err


def test_no_raylet_lets_it_start(monkeypatch):
    monkeypatch.setattr(check_oracles, "raylet_pids", lambda proc="/proc": [])
    assert check_oracles.refuse_beside_live_ray("bench_pairs") == 0
