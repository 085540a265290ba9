"""Seeded input generation for the benchmark workloads.

Every input is a pure function of ``(seed, sizes)``: the seed picks the
document texts, the table rows, and the row order of every table, which
also decides which rows share each of its files. The tables follow the schema
of the repository's synthetic star schema (``documents``, ``customer``,
``orders``, ``lineitem``), so the library's own SQL oracles
(``__ray_entry__.oracle_sql``) and golden generators
(``zerox_ray.testgen``) apply to them unchanged. The pages corpus the OCR
pipelines read is derived from ``documents`` with
``zerox_ray.testgen.generate_pages_table``.

The expected outputs are made with the inputs and stored beside them
(``expected/``): the golden document rows, and the DuckDB oracle result
of each query a workload checks. The benchmark session runs this module
as a child process (``python3 -m perfbench.gen``), so neither the
generation nor DuckDB ever allocates in the driver process whose peak
memory the benchmark reports.

Generated inputs are cached per seed under the checkout (see
``ensure_inputs``) and written atomically, so a cut run never leaves a
half-written input set behind.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

#: bump when the generator's output changes, so stale caches are ignored
GEN_VERSION = 3
FILES_PER_TABLE = 4

VOCAB = (
    "a the join hash row batch scan column customer filter small slow merge "
    "order vector line table data agg value key stream part query window "
    "group sort fast big spark count"
).split()
LANGS = ["en", "zh", "es", "de", "fr"]
LANG_P = [0.44, 0.15, 0.14, 0.14, 0.13]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
EPOCH_1995_US = 788_918_400_000_000  # 1995-01-01T00:00:00Z
DAY_US = 86_400_000_000


def documents_table(rng: np.random.Generator, n_docs: int) -> pa.Table:
    """documents(doc_id, text, lang, source, n_chars): space-separated
    words drawn uniformly from a small vocabulary, 8-91 words per doc.
    doc_ids are 0..n-1 because the link-graph closed form
    (``testgen.related_links``) wraps modulo the document count."""
    n_words = rng.integers(8, 92, n_docs)
    words = np.asarray(VOCAB, dtype=object)[rng.integers(0, len(VOCAB), int(n_words.sum()))]
    ends = np.cumsum(n_words)
    starts = ends - n_words
    texts = [" ".join(words[s:e]) for s, e in zip(starts, ends)]
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(rng.choice(LANGS, n_docs, p=LANG_P).tolist(), pa.string()),
            "source": pa.array([f"src{i}" for i in rng.integers(0, 20, n_docs)], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def _money(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def _dates(rng: np.random.Generator, n_days: int, n: int) -> pa.Array:
    days = rng.integers(0, n_days, n).astype(np.int64)
    return pa.array(EPOCH_1995_US + days * DAY_US, pa.timestamp("us"))


def customer_table(rng: np.random.Generator, n: int) -> pa.Table:
    return pa.table(
        {
            "c_custkey": pa.array(np.arange(n, dtype=np.int64)),
            "c_name": pa.array([f"Customer#{k:09d}" for k in range(n)], pa.string()),
            "c_nationkey": pa.array(rng.integers(0, 25, n).astype(np.int32)),
            "c_acctbal": pa.array(_money(rng, -999.99, 9999.99, n)),
            "c_mktsegment": pa.array(rng.choice(SEGMENTS, n).tolist(), pa.string()),
        }
    )


def orders_table(rng: np.random.Generator, n: int, n_customers: int) -> pa.Table:
    return pa.table(
        {
            "o_orderkey": pa.array(np.arange(n, dtype=np.int64)),
            "o_custkey": pa.array(rng.integers(0, n_customers, n).astype(np.int64)),
            "o_orderstatus": pa.array(rng.choice(["F", "O", "P"], n).tolist(), pa.string()),
            "o_totalprice": pa.array(_money(rng, 1000.0, 500000.0, n)),
            "o_orderdate": _dates(rng, 2400, n),
            "o_orderpriority": pa.array(rng.choice(PRIORITIES, n).tolist(), pa.string()),
        }
    )


def lineitem_table(rng: np.random.Generator, n: int, n_orders: int) -> pa.Table:
    return pa.table(
        {
            "l_orderkey": pa.array(rng.integers(0, n_orders, n).astype(np.int64)),
            "l_partkey": pa.array(rng.integers(0, 2000, n).astype(np.int64)),
            "l_suppkey": pa.array(rng.integers(0, 100, n).astype(np.int64)),
            "l_linenumber": pa.array(rng.integers(1, 8, n).astype(np.int32)),
            "l_quantity": pa.array(rng.integers(1, 51, n).astype(np.float64)),
            "l_extendedprice": pa.array(_money(rng, 900.0, 105000.0, n)),
            "l_discount": pa.array(rng.integers(0, 11, n) / 100.0),
            "l_tax": pa.array(rng.integers(0, 9, n) / 100.0),
            "l_returnflag": pa.array(rng.choice(["A", "N", "R"], n).tolist(), pa.string()),
            "l_linestatus": pa.array(rng.choice(["F", "O"], n).tolist(), pa.string()),
            "l_shipdate": _dates(rng, 2500, n),
        }
    )


def write_split(rng: np.random.Generator, table: pa.Table, out_dir: str, prefix: str) -> None:
    """Write ``table`` in a seeded row order as ``FILES_PER_TABLE``
    equal parquet files: the seed picks which rows share a file, the
    file count stays fixed (it sets Ray's read parallelism, so a seeded
    count would change the work from seed to seed)."""
    os.makedirs(out_dir)
    table = table.take(pa.array(rng.permutation(table.num_rows)))
    bounds = np.linspace(0, table.num_rows, FILES_PER_TABLE + 1).astype(int)
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        pq.write_table(table.slice(lo, hi - lo), os.path.join(out_dir, f"{prefix}-{i:05d}.parquet"))


def write_expected(out_dir: str, oracles: tuple[str, ...]) -> None:
    """Write the expected outputs of the input set in ``out_dir``:
    ``expected/documents.parquet``, the golden per-url document rows
    (``zerox_ray.testgen.expected_documents_rows``), and
    ``expected/<query>.parquet`` for each query in ``oracles``, its
    ``__ray_entry__`` DuckDB oracle over the generated tables (one view
    per table; a table written as a directory of files is one view)."""
    import duckdb

    import __ray_entry__
    from zerox_ray.testgen import expected_documents_rows

    sf = os.path.join(out_dir, "sf")
    exp = os.path.join(out_dir, "expected")
    os.makedirs(exp)
    docs = expected_documents_rows(os.path.join(sf, "documents.parquet"))
    pq.write_table(pa.Table.from_pylist(docs), os.path.join(exp, "documents.parquet"))
    if not oracles:
        return
    sqls = __ray_entry__.oracle_sql()
    con = duckdb.connect()
    try:
        for path in sorted(glob.glob(os.path.join(sf, "*.parquet"))):
            name = os.path.basename(path).removesuffix(".parquet")
            src = os.path.join(path, "*.parquet") if os.path.isdir(path) else path
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{src}')")
        for name in oracles:
            con.execute(sqls[name]).df().to_parquet(os.path.join(exp, f"{name}.parquet"), index=False)
    finally:
        con.close()


def generate(out_dir: str, seed: int, sizes: dict, oracles: tuple[str, ...] = ()) -> None:
    """Write one input set into ``out_dir`` (which must not exist):

    - ``sf/documents.parquet`` — the document sample (one file: the
      golden generator reads it as a single table);
    - ``pages/`` — the pages corpus derived from it, row-shuffled and
      split into files;
    - ``sf/{customer,orders,lineitem}.parquet/`` — when ``sizes`` asks
      for them, each a directory of row-shuffled files;
    - ``expected/`` — see ``write_expected``.
    """
    from zerox_ray.testgen import generate_pages_table

    rng = np.random.default_rng(seed)
    sf = os.path.join(out_dir, "sf")
    os.makedirs(sf)
    docs_path = os.path.join(sf, "documents.parquet")
    pq.write_table(documents_table(rng, sizes["docs"]), docs_path)
    write_split(rng, generate_pages_table(docs_path), os.path.join(out_dir, "pages"), "pages")
    if sizes.get("orders"):
        n_cust = sizes["orders"] // 10
        tables = {
            "customer": customer_table(rng, n_cust),
            "orders": orders_table(rng, sizes["orders"], n_cust),
            "lineitem": lineitem_table(rng, 4 * sizes["orders"], sizes["orders"]),
        }
        for name, table in tables.items():
            write_split(rng, table, os.path.join(sf, f"{name}.parquet"), name)
    write_expected(out_dir, oracles)


def ensure_inputs(
    cache_root: str, name: str, seed: int, sizes: dict, oracles: tuple[str, ...] = ()
) -> tuple[str, float]:
    """(directory, generation seconds) of the input set for (name, seed,
    sizes, oracles). Generated on first use and reused after; the generation time
    is recorded with the set, so a reused set reports the time it took to
    make. Written to a temporary sibling and renamed into place, so a
    reader sees either nothing or a complete set."""
    tag = "-".join([f"{k}{v}" for k, v in sorted(sizes.items())] + list(oracles))
    final = os.path.join(cache_root, f"v{GEN_VERSION}", f"{name}-{tag}", f"seed{seed}")
    meta = os.path.join(final, "meta.json")
    if not os.path.isfile(meta):
        tmp = f"{final}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            t0 = time.perf_counter()
            generate(tmp, seed, sizes, oracles)
            with open(os.path.join(tmp, "meta.json"), "w", encoding="utf-8") as fh:
                json.dump({"gen_s": time.perf_counter() - t0}, fh)
            shutil.rmtree(final, ignore_errors=True)
            os.rename(tmp, final)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    with open(meta, encoding="utf-8") as fh:
        return final, json.load(fh)["gen_s"]


def main() -> int:
    """``python3 -m perfbench.gen CACHE WORKLOAD SEED``: make (or find)
    the workload's input set for the seed; prints ``{"dir", "gen_s"}``."""
    from perfbench.workloads import WORKLOADS

    cache_root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    cls = WORKLOADS[name]
    path, gen_s = ensure_inputs(cache_root, name, seed, cls.sizes, cls.oracles)
    print(json.dumps({"dir": path, "gen_s": gen_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
