"""``scripts/check_oracles.py`` and ``scripts/bench_pairs.py`` refuse to
start beside a live Ray session: two local sessions crash each other;
and ``bench_pairs`` applies the gain rule to the pairs it ran."""

import os
import sys

import pytest

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


def _runs(xs):
    return [{"metrics": {"m": {"value": x}}} for x in xs]


def test_bench_pairs_gain_rule(monkeypatch):
    monkeypatch.syspath_prepend(os.path.dirname(check_oracles.__file__))
    import bench_pairs

    parent = [4.0, 4.2, 4.1, 4.3, 4.0, 4.4, 4.1, 4.2, 4.3, 4.1]
    faster = [x - 1.0 for x in parent]
    assert bench_pairs.quartiles(parent) == pytest.approx([4.1, 4.15, 4.275])
    assert bench_pairs.gain(_runs(parent), _runs(faster), "m", "lower") == {
        "wins": 10, "pairs": 10, "holds": True
    }
    # the same numbers read as a loss when higher is better
    assert bench_pairs.gain(_runs(parent), _runs(faster), "m", "higher")["wins"] == 0
    # two tied pairs count for neither side: 8 of 10 wins is no gain
    tied = faster[:8] + parent[8:]
    assert bench_pairs.gain(_runs(parent), _runs(tied), "m", "lower") == {
        "wins": 8, "pairs": 10, "holds": False
    }
    # every pair won, but by less than the parent's interquartile range
    close = [x - 0.01 for x in parent]
    assert bench_pairs.gain(_runs(parent), _runs(close), "m", "lower") == {
        "wins": 10, "pairs": 10, "holds": False
    }
