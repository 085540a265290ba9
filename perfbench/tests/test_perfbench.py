"""The benchmark's own tests: its output checker, its stub model server
and its teardown.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pandas as pd
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import checks, gen, procs  # noqa: E402
from perfbench.stub import StubServer, planned_faults, reply_text  # noqa: E402


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    path, _ = gen.ensure_inputs(str(root), "t", 5, {"docs": 120, "orders": 400}, ("shipping_priority",))
    return path


def test_inputs_are_a_function_of_the_seed(tmp_path, inputs):
    again, _ = gen.ensure_inputs(str(tmp_path), "t", 5, {"docs": 120, "orders": 400})
    other, _ = gen.ensure_inputs(str(tmp_path), "t", 6, {"docs": 120, "orders": 400})
    for rel in ("sf/documents.parquet", "pages", "expected/documents.parquet"):
        a = pd.read_parquet(os.path.join(inputs, rel))
        assert a.equals(pd.read_parquet(os.path.join(again, rel)))
        assert not a.equals(pd.read_parquet(os.path.join(other, rel)))


def test_document_checker_rejects_a_corrupted_result(inputs):
    expected = checks.expected_documents(os.path.join(inputs, "expected"))
    rows = [dict(r) for r in expected.values()]
    assert checks.check_documents(rows, expected) == []

    i = next(i for i, r in enumerate(rows) if r["markdown"])
    flipped = [dict(r) for r in rows]
    flipped[i]["markdown"] = flipped[i]["markdown"][:-1] + "#"
    assert checks.check_documents(flipped, expected)
    assert checks.check_documents(rows[:i] + rows[i + 1 :], expected)
    assert checks.check_documents(rows + [rows[i]], expected)
    recounted = [dict(r) for r in rows]
    recounted[i]["ocr_failed"] += 1
    assert checks.check_documents(recounted, expected)


def test_model_checker_rejects_wrong_error_rows_and_stub_counts(inputs):
    expected = checks.expected_documents(os.path.join(inputs, "expected"))
    ok_pages = sum(r["ocr_successful"] for r in expected.values())
    stub = {"attempts": ok_pages + 3, "replies": ok_pages, "faults": 3, "busy_s": 0.0}
    rows = [dict(r) for r in expected.values()]
    assert checks.check_model_documents(rows, expected, stub) == []
    assert checks.check_model_documents(rows, expected, dict(stub, replies=ok_pages + 1))
    assert checks.check_model_documents(rows, expected, dict(stub, attempts=ok_pages))

    i = next(i for i, r in enumerate(rows) if r["ocr_failed"] == 0)
    rows[i].update(markdown="", ocr_successful=0, ocr_failed=rows[i]["total_pages"])
    assert any("ERROR rows" in p for p in checks.check_model_documents(rows, expected, stub))


def test_oracle_checker_rejects_a_corrupted_result(inputs):
    exp = checks.oracle_frames(os.path.join(inputs, "expected"), ["shipping_priority"])["shipping_priority"]
    assert checks.check_oracle("shipping_priority", exp.copy(), exp) == []
    bad = exp.copy()
    bad.loc[0, "revenue_micro"] += 1
    assert checks.check_oracle("shipping_priority", bad, exp)
    assert checks.check_oracle("shipping_priority", exp.iloc[1:], exp)


def test_stub_counts_attempts_exactly():
    from zerox_ray.models import create_model

    images = [f"<div class='page'><p>page {i} text</p></div>".encode() for i in range(40)]
    stub = StubServer(seed=11)
    url = stub.start()
    try:
        model = create_model(
            "openai",
            model="stub",
            credentials={"api_key": "sk-test", "base_url": url},
            max_retries=3,
            retry_backoff_s=0.0,
        )
        for _ in range(2):
            stub.reset()
            contents = [model.complete(img, "html").content for img in images]
            faults = sum(planned_faults(11, img) for img in images)
            assert 0 < faults < 2 * len(images)
            assert stub.counters()["attempts"] == len(images) + faults
            assert stub.counters()["faults"] == faults
            assert stub.counters()["replies"] == len(images)
            assert contents == [reply_text(img) for img in images]
    finally:
        stub.stop()


def test_forced_timeout_leaves_no_process_behind():
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); from perfbench import run; "
        "out = run.run_session('ocr_flagship', 3, 1, 0, timeout_s=6); "
        "print(json.dumps({'timed_out': out['timed_out'], 'left': out['left'], 'result': out['result']}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, ROOT], capture_output=True, text=True, timeout=120, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["timed_out"] and out["result"] is None
    assert out["left"] == []
    needle = f"{procs.MARKER_ENV}=".encode()
    survivors = []
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                with open(f"/proc/{pid}/environ", "rb") as fh:
                    if needle in fh.read():
                        survivors.append(procs.describe(int(pid)))
            except OSError:
                pass
    assert survivors == []
