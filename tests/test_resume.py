"""Checkpoint/resume tests: interruption, resume, idempotent rerun, and
equality with a one-shot run."""

import glob
import json
import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from zerox_ray import run_ocr
from zerox_ray.state.manifest import CheckpointedOcrRunner
from zerox_ray.testgen import generate_pages_table


@pytest.fixture(scope="module")
def sharded_input(tmp_path_factory):
    """sf0.001 pages split into 4 input files (one shard each)."""
    d = tmp_path_factory.mktemp("pages_sharded")
    table = generate_pages_table("/root/testdata/sf0.001/documents.parquet")
    n = table.num_rows // 4
    for i in range(4):
        part = table.slice(i * n, n if i < 3 else table.num_rows - 3 * n)
        pq.write_table(part, str(d / f"pages-{i:05d}.parquet"))
    return str(d)


def _read_all(out_dir: str) -> pd.DataFrame:
    files = glob.glob(os.path.join(out_dir, "shard=*", "*.parquet"))
    df = pd.concat([pd.read_parquet(f) for f in files], ignore_index=True)
    return df.sort_values("url").reset_index(drop=True)


def test_interrupt_resume_equals_oneshot(sharded_input, tmp_path):
    out = str(tmp_path / "out")
    runner = CheckpointedOcrRunner(sharded_input, out, files_per_shard=1)
    assert runner.pending_shards() == [0, 1, 2, 3]

    # "crash" after two shards
    first = runner.run(max_shards=2)
    assert first["processed_shards"] == [0, 1]
    assert runner.pending_shards() == [2, 3]

    # resume: only the remaining shards run
    second = CheckpointedOcrRunner(sharded_input, out, files_per_shard=1).run()
    assert second["processed_shards"] == [2, 3]
    assert second["skipped_shards"] == [0, 1]

    # combined output equals a one-shot distributed run
    got = _read_all(out)
    exp = (
        run_ocr(sharded_input)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)[got.columns]
    )
    pd.testing.assert_frame_equal(got, exp)


def test_rerun_is_noop(sharded_input, tmp_path):
    out = str(tmp_path / "out")
    CheckpointedOcrRunner(sharded_input, out, files_per_shard=2).run()
    again = CheckpointedOcrRunner(sharded_input, out, files_per_shard=2).run()
    assert again["processed_shards"] == [] and again["n_docs"] == 0


def test_manifest_lineage_and_metrics(sharded_input, tmp_path):
    out = str(tmp_path / "out")
    runner = CheckpointedOcrRunner(sharded_input, out, files_per_shard=1)
    runner.run(max_shards=1)
    [mf] = glob.glob(os.path.join(out, "_manifests", "*.json"))
    m = json.load(open(mf))
    assert m["shard_id"] == 0
    assert len(m["input_files"]) == 1 and m["input_files"][0].endswith("pages-00000.parquet")
    assert m["n_docs"] > 0 and m["n_pages"] >= m["n_docs"]
    assert m["engine_version"] and m["seconds"] > 0
    assert m["config"]["error_mode"] == "IGNORE"


def test_stale_partial_output_recovered(sharded_input, tmp_path):
    """Output dir present but no manifest → treated as stale partial and
    rebuilt (crash between output rename and manifest publish)."""
    out = str(tmp_path / "out")
    runner = CheckpointedOcrRunner(sharded_input, out, files_per_shard=1)
    runner.run(max_shards=1)
    # simulate crash-before-manifest on shard 1: fake partial output
    os.makedirs(os.path.join(out, "shard=00001"))
    with open(os.path.join(out, "shard=00001", "garbage.parquet"), "w") as f:
        f.write("not parquet")
    summary = CheckpointedOcrRunner(sharded_input, out, files_per_shard=1).run()
    assert 1 in summary["processed_shards"]
    df = _read_all(out)
    assert df.url.is_unique


def test_shifted_shard_lineage_reprocessed(sharded_input, tmp_path):
    """Adding an input file between runs shifts positional shard ids; a
    manifest whose recorded input_files no longer matches its position
    must be reprocessed, not silently trusted."""
    import shutil

    src = str(tmp_path / "input")
    shutil.copytree(sharded_input, src)
    out = str(tmp_path / "out")
    CheckpointedOcrRunner(src, out, files_per_shard=1).run()
    # a new file that sorts FIRST shifts every later shard id by one
    first = sorted(glob.glob(os.path.join(src, "*.parquet")))[0]
    shutil.copyfile(first, os.path.join(src, "pages-00000-a-early.parquet"))
    runner = CheckpointedOcrRunner(src, out, files_per_shard=1)
    # every manifest's lineage now mismatches its shifted position except
    # none — all 5 shards are pending again
    assert runner.pending_shards() == [0, 1, 2, 3, 4]


def test_manifest_carries_operator_stats(sharded_input, tmp_path):
    """Each shard manifest records Ray's per-operator metrics: every
    operator that ran has its summed task wall time and output rows."""
    out = str(tmp_path / "out")
    CheckpointedOcrRunner(sharded_input, out, files_per_shard=4).run()
    (path,) = glob.glob(os.path.join(out, "_manifests", "*.json"))
    stats = json.load(open(path))["stage_stats"]
    assert stats, "no operator stats recorded"
    for name, entry in stats.items():
        assert entry["wall_s"] >= 0 and entry["rows_out"] >= 0, name
    # the last operator writes the shard output
    assert list(stats)[-1].endswith("Write")
