"""``scripts/check_oracles.py`` and ``scripts/bench_pairs.py`` refuse to
start beside a live Ray session: two local sessions crash each other;
``bench_pairs`` applies the gain rule to the pairs it ran;
``check_oracles --json`` records each query's schema probes;
``check_oracles --against`` names each query that rises above a record;
and a rowless result reaches ``compare`` with its columns."""

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


def test_against_names_a_query_whose_probes_rise(tmp_path):
    record = tmp_path / "record.json"
    record.write_text(
        '{"sf_dir": "sf0.001", "queries": {'
        '"hits": {"executions": 24, "all_to_all": 26, "probes": 0},'
        ' "kcore": {"executions": 2, "all_to_all": 0, "probes": 1},'
        ' "pagerank": {"executions": 3, "all_to_all": 0}}}'
    )
    runs = {
        "hits": {"executions": 20, "all_to_all": 20, "probes": 1},  # one schema probe more
        "kcore": {"executions": 2, "all_to_all": 0, "probes": 0},  # one fewer
        "pagerank": {"executions": 3, "all_to_all": 0, "probes": 2},  # not recorded
    }
    assert check_oracles.rises_above(runs, str(record)) == ["hits: probes 1 > 0 recorded"]


def test_json_records_probes_per_query(monkeypatch, tmp_path):
    """``--json`` writes each query's ``probes``: the ``limit(1)`` runs
    of a lazy plan by which Ray answers ``schema()``. An aggregate
    pulled with ``take(1)`` is a 1-row limit too, but no probe. ``main``
    runs in the suite's own Ray session, over two stand-in queries."""
    import json

    import ray
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    import __ray_entry__

    def lazy() -> ray.data.Dataset:
        return ray.data.range(8).map_batches(lambda b: b)

    def probing(sf_dir):
        ds = lazy()
        ds.schema()  # a limit(1) run of the plan
        return ds

    def clean(sf_dir):
        ds = lazy().materialize()
        ds.schema()  # known from the materialized blocks: no execution
        assert lazy().max("id") == 7  # an aggregate pulled by take(1)
        return ds.limit(3)  # a limit, but not of one row

    monkeypatch.setattr(StreamingExecutor, "execute", StreamingExecutor.execute)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(check_oracles, "raylet_pids", lambda proc="/proc": [])
    monkeypatch.setattr(ray, "init", lambda *a, **k: None)
    monkeypatch.setattr(ray, "shutdown", lambda: None)
    monkeypatch.setattr(__ray_entry__, "queries", lambda: {"probing": probing, "clean": clean})
    monkeypatch.setattr(__ray_entry__, "oracle_sql", lambda: {})
    out = tmp_path / "runs.json"
    monkeypatch.setattr(sys, "argv", ["check_oracles.py", str(tmp_path), "--json", str(out)])
    assert check_oracles.main() == 0
    runs = json.loads(out.read_text())["queries"]
    assert (runs["probing"]["probes"], runs["probing"]["executions"]) == (1, 2)
    assert (runs["clean"]["probes"], runs["clean"]["executions"]) == (0, 3)


def test_rowless_result_keeps_its_columns():
    """A pyarrow UDF that emits a typed empty table gives a rowless
    Dataset whose columns ``Dataset.to_pandas`` drops; the sweep pulls
    the blocks instead, in the result's one execution, so ``compare``
    sees the columns of an empty answer."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    src = pa.table({"url": ["a", "b"], "n": [1, 2]})

    def none_kept(t: pa.Table) -> pa.Table:
        return src.schema.empty_table()

    empty = ray.data.from_arrow([src, src]).map_batches(
        none_kept, batch_format="pyarrow"
    )
    unhooked = StreamingExecutor.execute
    try:
        calls = check_oracles._count_executions()
        got = check_oracles._to_pandas(empty)
    finally:
        StreamingExecutor.execute = unhooked
    assert calls == [1, 0, 0]
    assert list(got.columns) == ["url", "n"] and len(got) == 0
    want = pd.DataFrame(
        {"url": pd.Series([], dtype=object), "n": pd.Series([], dtype="int64")}
    )
    assert check_oracles.compare("none_kept", got, want) == []
    # rows keep the frame Dataset.to_pandas makes
    full = ray.data.from_arrow([src, src]).map_batches(
        lambda t: t, batch_format="pyarrow"
    )
    pd.testing.assert_frame_equal(check_oracles._to_pandas(full), full.to_pandas())
