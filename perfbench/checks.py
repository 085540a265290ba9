"""Output checks: every timed iteration's result is checked here, outside
the timed region. A check returns a list of problems; empty means the
output is correct."""

from __future__ import annotations

import glob
import os

import pyarrow.parquet as pq

DOC_FIELDS = ("markdown", "total_pages", "ocr_successful", "ocr_failed")


def expected_documents(expected_dir: str) -> dict[str, dict]:
    """Golden per-url document rows, by url, as ``gen.write_expected``
    stored them."""
    rows = pq.read_table(os.path.join(expected_dir, "documents.parquet")).to_pylist()
    return {r["url"]: r for r in rows}


def oracle_frames(expected_dir: str, names) -> dict:
    """Oracle result of each named query, as ``gen.write_expected``
    stored it."""
    import pandas as pd

    return {n: pd.read_parquet(os.path.join(expected_dir, f"{n}.parquet")) for n in names}


def read_documents(out_dir: str) -> list[dict]:
    rows = []
    for f in sorted(glob.glob(os.path.join(out_dir, "*.parquet"))):
        rows += pq.read_table(f, columns=["url", *DOC_FIELDS]).to_pylist()
    return rows


def check_documents(rows: list[dict], expected: dict[str, dict]) -> list[str]:
    """Per-url markdown byte-identical to the golden, page counts equal,
    no url missing, extra or repeated."""
    problems = []
    got = {r["url"]: r for r in rows}
    if len(got) != len(rows):
        problems.append(f"{len(rows) - len(got)} repeated url rows")
    missing = expected.keys() - got.keys()
    extra = got.keys() - expected.keys()
    if missing:
        problems.append(f"{len(missing)} urls missing, e.g. {sorted(missing)[:3]}")
    if extra:
        problems.append(f"{len(extra)} unexpected urls, e.g. {sorted(extra)[:3]}")
    wrong = [u for u in expected.keys() & got.keys() if any(got[u][f] != expected[u][f] for f in DOC_FIELDS)]
    if wrong:
        u = sorted(wrong)[0]
        diff = {f: (got[u][f], expected[u][f]) for f in DOC_FIELDS if got[u][f] != expected[u][f]}
        problems.append(f"{len(wrong)} urls differ from the golden, e.g. {u}: {str(diff)[:300]}")
    return problems


def check_model_documents(rows: list[dict], expected: dict[str, dict], stub: dict) -> list[str]:
    """The networked-model run: the golden check (each stub reply is the
    page text, so the stub replies joined in page order are the golden
    markdown), ERROR rows exactly on the corrupt documents, and every
    successful page answered by exactly one useful stub reply."""
    problems = check_documents(rows, expected)
    err_got = {r["url"] for r in rows if r["ocr_failed"] > 0}
    err_exp = {u for u, r in expected.items() if r["ocr_failed"] > 0}
    if err_got != err_exp:
        problems.append(f"ERROR rows on {sorted(err_got ^ err_exp)[:3]} differ from the corrupt documents")
    ok_pages = sum(r["ocr_successful"] for r in expected.values())
    if stub["replies"] != ok_pages:
        problems.append(f"stub sent {stub['replies']} useful replies for {ok_pages} pages")
    if stub["attempts"] != stub["replies"] + stub["faults"]:
        problems.append(f"stub attempts {stub['attempts']} != replies {stub['replies']} + faults {stub['faults']}")
    return problems


def check_oracle(name: str, got, expected) -> list[str]:
    """Compare one query result with its oracle exactly as
    ``scripts/check_oracles.py`` does (order-insensitive values)."""
    from scripts.check_oracles import compare

    return [f"{name}: {p}" for p in compare(name, got, expected)]
