"""Ray executions per query stay at or below the committed record.

``scripts/oracle_runs_sf0.001.json`` is a ``scripts/check_oracles.py
--json`` record at sf0.001. At a given scale a query's count of
``StreamingExecutor.execute`` calls is deterministic, so a count above
the record means the plan gained a barrier (a materialize, a count or a
pull). The queries rerun here are the fast ones that go through the
keyed exchange (the per-user events queries and the dedup pair queries)
and the fixed points that run in one gathered task below the gathered
gate (kcore and the PageRank family), where a count above the record
means the loop fell back to its per-round barriers,
``shipping_priority``, whose one exchange is also counted by operator,
``random_walks``, whose per-step states are materialized so the final
union runs no step's join again (its all-to-alls are counted too), and
``hits``, ``local_clustering`` and ``crawl_depth``, whose keyed lookups
go through ``relational.lookup_join``, and the OCR queries
``ocr_documents``, ``ocr_maintain_format``, ``ocr_pages``,
``extract_structured``, ``extract_documents`` and ``extract_direct``,
whose plans run every url through one ``DocumentOCR`` map call (the
url check before the documents plans is a plain Ray task).

Every query here also runs with no schema probe: no ``limit(1)`` copy
of a lazy plan run to answer ``Dataset.schema()`` (``hash_join`` asks
for both of its sides' schemas; ``lookup_join`` below its broadcast
gate asks for none).
"""

import json
import os

import pytest

from scripts.check_oracles import _count_executions, _to_pandas

RECORD = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts",
    "oracle_runs_sf0.001.json",
)

QUERIES = [
    "asof_purchase_view",
    "events_neighbors",
    "events_sessions",
    "events_funnel",
    "user_event_ledger",
    "event_transitions",
    "session_attribution",
    "conversion_paths",
    "dedup_minhash_lsh",
    "containment_pairs",
    "dedup_simhash",
    "dedup_ngram_jaccard",
    "kcore",
    "pagerank",
    "personalized_pagerank",
    "host_rank",
    "shipping_priority",
    "random_walks",
    "hits",
    "local_clustering",
    "crawl_depth",
    "ocr_documents",
    "ocr_maintain_format",
    "ocr_pages",
    "extract_structured",
    "extract_documents",
    "extract_direct",
]


@pytest.fixture(scope="module")
def record(sf_dir):
    with open(RECORD) as f:
        rec = json.load(f)
    assert os.path.basename(rec["sf_dir"]) == os.path.basename(sf_dir)
    return rec["queries"]


@pytest.fixture(scope="module")
def executions():
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    unhooked = StreamingExecutor.execute
    yield _count_executions()
    StreamingExecutor.execute = unhooked


@pytest.mark.parametrize("name", QUERIES)
def test_executions_at_most_recorded(name, sf_dir, record, executions):
    import __ray_entry__ as e

    before = list(executions)
    _to_pandas(e.queries()[name](sf_dir))
    got, probes = executions[0] - before[0], executions[2] - before[2]
    assert got <= record[name]["executions"], (
        f"{name}: {got} Ray executions, recorded {record[name]['executions']}"
    )
    assert probes == 0, f"{name}: {probes} schema probes"


def test_shipping_priority_runs_one_all_to_all_below_the_gate(sf_dir, executions):
    """Below the broadcast gate the kept orders ship once, so the bucket
    reduce on ``l_orderkey`` is the query's only all-to-all: no join
    exchange, no schema probe and no global sort."""
    import __ray_entry__ as e

    before = list(executions)
    _to_pandas(e.queries()["shipping_priority"](sf_dir))
    assert executions[1] - before[1] == 1


def test_random_walks_runs_no_step_twice(sf_dir, executions):
    """Each step's state is materialized and ``ranked`` is attached by a
    lookup, so only ``ranked``'s own exchange (and nothing re-run per
    step in the final union) is left: at most 4 all-to-alls."""
    import __ray_entry__ as e

    before = list(executions)
    _to_pandas(e.queries()["random_walks"](sf_dir))
    assert executions[1] - before[1] <= 4


@pytest.mark.parametrize(
    "name", ["ocr_documents", "ocr_maintain_format", "extract_documents"]
)
def test_ocr_runs_no_all_to_all(name, sf_dir, executions):
    """Each url is split, scored and joined (or extracted) inside one map
    call, in both modes: the plan has no exchange and its url check no
    execution."""
    import __ray_entry__ as e

    before = list(executions)
    _to_pandas(e.queries()[name](sf_dir))
    assert executions[0] - before[0] == 1
    assert executions[1] - before[1] == 0
    assert executions[2] - before[2] == 0
