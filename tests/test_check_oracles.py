"""``scripts/check_oracles.py`` and ``scripts/bench_pairs.py`` refuse to
start beside a live Ray session: two local sessions crash each other;
``bench_pairs`` applies the gain rule to the pairs it ran; and
``check_oracles --against`` names each query that rises above a record."""

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


def test_against_names_each_query_above_the_record(tmp_path):
    record = tmp_path / "record.json"
    record.write_text(
        '{"sf_dir": "sf0.001", "queries": {'
        '"kcore": {"executions": 2, "all_to_all": 0},'
        ' "hits": {"executions": 24, "all_to_all": 26},'
        ' "pagerank": {"executions": 3, "all_to_all": 0}}}'
    )
    runs = {
        "kcore": {"executions": 3, "all_to_all": 0},  # one execution more
        "hits": {"executions": 20, "all_to_all": 27},  # fewer runs, one more exchange
        "pagerank": {"executions": 3, "all_to_all": 0},  # as recorded
        "new_query": {"executions": 9, "all_to_all": 9},  # not in the record
    }
    assert check_oracles.rises_above(runs, str(record)) == [
        "hits: all_to_all 27 > 26 recorded",
        "kcore: executions 3 > 2 recorded",
    ]
    assert check_oracles.rises_above({"pagerank": runs["pagerank"]}, str(record)) == []
