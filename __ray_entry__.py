"""Driver contract for the zerox_ray engine.

``entry``     — flagship OCR pipeline on sf0.001.
``queries``   — one callable per implemented operator/pipeline (SURVEY §2 +
                the training-data ops); each takes ``sf_dir``.
``oracle_sql``— DuckDB-runnable ANSI SQL over the pre-registered views
                (documents, events, embeddings, …) computing the SAME
                result. The pages input table is a deterministic pure
                function of the ``documents`` view (zerox_ray/testgen.py —
                THE PLAN in its docstring), which is what lets SQL
                recompute the expected extraction output exactly,
                including byte-identical markdown.

Ray is initialised by the driver before import; nothing here calls
ray.init/shutdown.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ray.data.aggregate import Count, Sum

from zerox_ray import ZeroxConfig, run_ocr
from zerox_ray.pipelines.ocr import run_ocr_incremental
from zerox_ray.pipelines.dataops import (
    above_median_docs,
    importance_sample,
    mad_outliers,
    cohort_retention,
    corpus_datacard,
    corpus_mix,
    curate_corpus,
    dup_class_sizes,
    quality_percentiles,
    decontaminate,
    dedup_exact,
    event_type_reach,
    normalize_text,
    repetition_scores,
    token_chunks,
    packed_sequences,
    token_shards,
    top_ngrams,
    events_hourly,
    lang_id,
    lang_confusion,
    corpus_split,
    quality_filter,
    pii_scrub,
    props_field_stats,
    quality_scores,
    stratified_sample,
    tfidf_top_terms,
    global_rank_docs,
    sample_documents,
    shuffled_shards,
    source_report,
    token_counts_bpe,
    token_stats,
    top_orders_per_priority,
    top_spenders,
)
from zerox_ray.pipelines.dedup import (
    containment_pairs,
    dedup_spans,
    doc_fingerprints,
    embedding_near_dup,
    fuzzy_match,
    minhash_dedup_docs,
    minhash_lsh_pairs,
    neardup_cluster_sizes,
    ngram_jaccard_pairs,
    fingerprint_matches,
    leakage_safe_split,
    simhash_pairs,
    simhash_signatures,
    substring_scrub,
    winnow_fingerprints,
)
from zerox_ray.pipelines.extraction import extract_documents, extract_pages
from zerox_ray.pipelines.media import (
    media_cleanup,
    media_cleanup_features,
    media_features,
    media_frame_features,
    media_frames,
    media_thumbnail_features,
    media_thumbnails,
)
from zerox_ray.pipelines.ocr import extracted_pages, logprob_stats
from zerox_ray.pipelines.graph import (
    anchor_augment,
    anchor_texts,
    cocitation_counts,
    crawl_budget,
    coupling_counts,
    crawl_depth,
    kcore,
    crawl_frontier,
    crawl_timeline,
    bowtie_census,
    degree_assortativity,
    degree_distribution,
    lpa_communities,
    hits,
    random_walks,
    triangle_stats,
    host_graph,
    mirror_hosts,
    host_schedule,
    robots_filter,
    host_quota,
    host_rank,
    host_stats,
    host_quality,
    component_sizes,
    inlink_counts,
    inlink_summaries,
    leaf_pages,
    link_components,
    link_graph,
    page_metadata,
    pagerank,
    reciprocal_links,
)
from zerox_ray.pipelines.boilerplate import (
    boilerplate_blocks,
    density_extract,
    dom_templates,
    host_template_skew,
    paragraph_dedup,
    raw_text_blocks,
)
from zerox_ray.pipelines.textqual import (
    bigram_counts,
    bigram_logprobs,
    corpus_drift,
    ngram_novelty,
    pmi_pairs,
    vocab_growth,
    bpe_encode,
    bpe_merges,
    c4_rules,
    classifier_scores,
    classifier_train,
    classifier_trained_scores,
    gopher_rules,
    inverted_index,
    perplexity_buckets,
    quality_curate,
    tier_shards,
    unigram_logprobs,
)
from zerox_ray.pipelines.urls import canonical_urls, url_dedup, url_features
from zerox_ray.pipelines.web import (
    extraction_parity,
    host_curate,
    rank_curate,
    web_curate,
)
from zerox_ray.pipelines.relational import (
    active_segments,
    asof_purchase_view,
    brand_region_revenue,
    dormant_customers,
    events_funnel,
    events_neighbors,
    events_sessions,
    conversion_paths,
    event_transitions,
    events_sliding,
    session_attribution,
    shipping_priority,
    interval_join,
    lang_embedding_centroids,
    priority_price_quantiles,
    orders_by_nation,
    pricing_summary,
    revenue_by_priority,
    revenue_cube,
    user_event_ledger,
)
from zerox_ray.pipelines.search import DEFAULT_K, DEFAULT_QUERY, search_bm25
from zerox_ray.pipelines.similarity import (
    ann_bruteforce_topk,
    ann_ivf_topk,
    ann_radius_search,
    ann_quantized_topk,
    ann_truncated_recall,
    contrastive_triplets,
    embedding_moments,
    hard_negatives,
    embedding_quantize,
    embedding_principal,
    ann_pq_adc_topk,
    kmeans_clusters,
    pq_codes,
    pq_distortion,
    semantic_dedup,
)
from zerox_ray.pipelines.sketches import (
    bloom_probe,
    bloom_semi_join,
    cms_probe,
    distinct_users_exact,
    distinct_users_hll,
    exact_price_select,
    grouped_distinct_hll,
    grouped_heavy_hitters,
    grouped_price_quantiles,
    heavy_hitters,
    price_histogram,
    price_quantiles,
)
from zerox_ray.testgen import (
    multihost_pages_dir_for,
    pages_dir_for,
    sheet_pages_dir_for,
    snapshot_pages_dir_for,
)

DOC_COLS = ["url", "markdown", "total_pages", "ocr_successful", "ocr_failed"]
_EXTRACT_SCHEMA = {
    "type": "object",
    "properties": {
        "first_token": {"type": "string"},
        "n_tokens": {"type": "integer"},
    },
}


def entry() -> Any:
    """Flagship pipeline: synthesize/cache the Common-Crawl-style pages
    table for sf0.001, run OCR, return the documents Dataset."""
    return run_ocr(pages_dir_for("/root/testdata/sf0.001"))


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------


def _q_ocr_documents(sf_dir: str):
    return run_ocr(pages_dir_for(sf_dir)).select_columns(DOC_COLS)


def _q_ocr_pages(sf_dir: str):
    return extracted_pages(pages_dir_for(sf_dir)).select_columns(
        ["url", "page_index", "content", "content_length", "status"]
    )


def _q_ocr_summary(sf_dir: str):
    return (
        extracted_pages(pages_dir_for(sf_dir))
        .groupby("status")
        .aggregate(
            Count(alias_name="n_pages"),
            Sum("content_length", alias_name="total_chars"),
        )
    )


def _q_ocr_totals(sf_dir: str):
    """Corpus-level rollup consumed as a streaming aggregate over the
    documents pipeline — no table ever materializes on the driver."""
    import pandas as pd

    docs = run_ocr(pages_dir_for(sf_dir))
    agg = docs.aggregate(
        Count(alias_name="n_docs"),
        Sum("total_pages", alias_name="total_pages"),
        Sum("ocr_successful", alias_name="ok_pages"),
        Sum("ocr_failed", alias_name="failed_pages"),
    )
    return pd.DataFrame([{k: int(v) for k, v in agg.items()}])


def _q_ocr_maintain_format(sf_dir: str):
    cfg = ZeroxConfig(maintain_format=True)
    return run_ocr(pages_dir_for(sf_dir), cfg).select_columns(["url", "markdown"])


def _q_ocr_select_pages(sf_dir: str):
    cfg = ZeroxConfig(select_pages=[1, 3])
    return extracted_pages(pages_dir_for(sf_dir), cfg).select_columns(
        ["url", "page_index", "content", "status"]
    )


def _q_ocr_logprobs(sf_dir: str):
    """Logprobs end-to-end (reference types.ts:234-242): the optional
    list<struct<token,logprob>> column requested via llm_params, rolled
    up per page — lp_chars is recovered FROM the logprob floats, so the
    oracle value-checks the payload, not just its presence."""
    cfg = ZeroxConfig(model_kwargs={"logprobs": True})
    return logprob_stats(extracted_pages(pages_dir_for(sf_dir), cfg))


def _q_link_graph(sf_dir: str):
    return link_graph(pages_dir_for(sf_dir))


def _q_page_inlinks(sf_dir: str):
    return inlink_counts(pages_dir_for(sf_dir))


def _q_pagerank(sf_dir: str):
    return pagerank(pages_dir_for(sf_dir))


def _q_triangle_stats(sf_dir: str):
    return triangle_stats(pages_dir_for(sf_dir))


def _q_degree_assortativity(sf_dir: str):
    return degree_assortativity(pages_dir_for(sf_dir))


def _q_lpa_communities(sf_dir: str):
    return lpa_communities(pages_dir_for(sf_dir))


def _q_bowtie_census(sf_dir: str):
    return bowtie_census(pages_dir_for(sf_dir))


def _q_random_walks(sf_dir: str):
    return random_walks(pages_dir_for(sf_dir))


def _q_link_components(sf_dir: str):
    return link_components(pages_dir_for(sf_dir))


def _q_hits(sf_dir: str):
    return hits(pages_dir_for(sf_dir))


def _q_reciprocal_links(sf_dir: str):
    return reciprocal_links(pages_dir_for(sf_dir))


def _q_cocitation_counts(sf_dir: str):
    return cocitation_counts(pages_dir_for(sf_dir))


def _q_coupling_counts(sf_dir: str):
    return coupling_counts(pages_dir_for(sf_dir))


def _q_kcore(sf_dir: str):
    return kcore(pages_dir_for(sf_dir))


def _q_anchor_texts(sf_dir: str):
    return anchor_texts(pages_dir_for(sf_dir))


def _q_anchor_augment(sf_dir: str):
    return anchor_augment(pages_dir_for(sf_dir))


def _q_leaf_pages(sf_dir: str):
    return leaf_pages(pages_dir_for(sf_dir))


def _q_inlink_summaries(sf_dir: str):
    return inlink_summaries(pages_dir_for(sf_dir))


def _q_page_metadata(sf_dir: str):
    return page_metadata(pages_dir_for(sf_dir))


def _q_host_graph(sf_dir: str):
    """Host-level family runs over the MULTIHOST corpus (23 synthetic
    hosts, testgen.mh_url) — the smallest table where host granularity
    differs from page granularity."""
    return host_graph(multihost_pages_dir_for(sf_dir))


def _q_host_rank(sf_dir: str):
    return host_rank(multihost_pages_dir_for(sf_dir))


def _q_host_stats(sf_dir: str):
    return host_stats(multihost_pages_dir_for(sf_dir))


def _q_host_quota(sf_dir: str):
    return host_quota(multihost_pages_dir_for(sf_dir))


def _q_crawl_budget(sf_dir: str):
    """Hamilton largest-remainder apportionment of 1000 fetch slots
    across the 23 multihost authorities; Σalloc == 1000 exactly."""
    return crawl_budget(multihost_pages_dir_for(sf_dir))


def _q_host_quality(sf_dir: str):
    return host_quality(multihost_pages_dir_for(sf_dir))


def _q_component_sizes(sf_dir: str):
    return component_sizes(pages_dir_for(sf_dir))


def _q_raw_text_blocks(sf_dir: str):
    return raw_text_blocks(pages_dir_for(sf_dir))


def _q_dom_templates(sf_dir: str):
    """Structural template clusters parsed from the REAL payload bytes;
    the oracle rebuilds each tag sequence closed-form from the generator
    plan — hash equality is a parser-fidelity check."""
    return dom_templates(pages_dir_for(sf_dir))


def _q_host_template_skew(sf_dir: str):
    """Per-host template domination over the multihost corpus; oracle is
    the closed-form (host, page-count-template) rollup."""
    return host_template_skew(multihost_pages_dir_for(sf_dir))


def _q_paragraph_dedup(sf_dir: str):
    """CCNet-style corpus-frequency boilerplate removal: on this corpus
    the statistical pass must recover (nearly) the structural DOM strip
    — the nav/footer chrome repeats on every html page."""
    return paragraph_dedup(pages_dir_for(sf_dir))


def _q_boilerplate_blocks(sf_dir: str):
    return boilerplate_blocks(pages_dir_for(sf_dir))


def _q_density_extract(sf_dir: str):
    """jusText-style density-smoothed main-content extraction — the
    third boilerplate pass (DOM heuristics / corpus frequency / text
    density), cross-validating the other two."""
    return density_extract(pages_dir_for(sf_dir))


def _q_host_curate(sf_dir: str):
    """Domain-balanced curation over the multihost corpus: web_curate's
    keeper chain + a per-host anti-domination cap before shard packing."""
    return host_curate(multihost_pages_dir_for(sf_dir))


def _messy_urls(sf_dir: str):
    """Deterministic url-variant table (2 rows per doc: the canonical
    base + one noisy variant by doc_id % 6 — tracking params, fragment,
    host case, default port, or an exact duplicate) — the synthetic
    substrate for the url canonicalization family; every row is
    SQL-replayable from doc_id alone."""
    import ray.data

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    )

    def messy(t):
        urls = []
        for d in t["doc_id"].to_pylist():
            base = f"https://h{d % 23}.example.net/doc/{d}"
            urls.append(base)
            r = d % 6
            if r == 1:
                urls.append(base + "?utm_source=feed&utm_campaign=x")
            elif r == 2:
                urls.append(base + f"?id={d}&utm_medium=email")
            elif r == 3:
                urls.append(base + f"#frag{d}")
            elif r == 4:
                urls.append(f"https://H{d % 23}.EXAMPLE.NET/doc/{d}")
            elif r == 5:
                urls.append(f"https://h{d % 23}.example.net:443/doc/{d}")
            else:
                urls.append(base)
        import pyarrow as _pa

        return _pa.table({"url": _pa.array(urls, _pa.string())})

    return ds.map_batches(messy, batch_format="pyarrow")


def _q_canonical_urls(sf_dir: str):
    return canonical_urls(_messy_urls(sf_dir))


def _q_url_dedup(sf_dir: str):
    return url_dedup(_messy_urls(sf_dir))


def _q_url_features(sf_dir: str):
    """URL-level crawl-filter gate (RefinedWeb's filter-before-fetch)
    over the variant corpus — params/fragment/port/case diversity."""
    return url_features(_messy_urls(sf_dir))


def _q_ocr_incremental(sf_dir: str):
    """Incremental re-extraction over the multi-snapshot corpus: OCR
    only first-seen/changed urls; 'unchanged' (corrupt multi-snapshot,
    payload text-independent) urls skip extraction. The %7 tie-decoy
    docs are INCLUDED here (unlike snapshot_delta's value check): a
    decoy only ever makes a url 'changed' or leaves the base rule, and
    the only corrupt %7 doc in any test corpus (518 at sf0.1) carries a
    decoy — verified by replaying the crc-pad loop — so the skip set is
    exactly {corrupt ∧ multi-snapshot ∧ not %7} at every tested scale."""
    return run_ocr_incremental(snapshot_pages_dir_for(sf_dir)).select_columns(
        DOC_COLS
    )


def _q_host_schedule(sf_dir: str):
    return host_schedule(multihost_pages_dir_for(sf_dir))


def _q_robots_filter(sf_dir: str):
    """robots.txt Disallow gate (RFC 9309 prefix semantics) over the
    multihost corpus with the deterministic synthetic rule set."""
    return robots_filter(multihost_pages_dir_for(sf_dir))


def _q_mirror_hosts(sf_dir: str):
    return mirror_hosts(multihost_pages_dir_for(sf_dir))


def _q_degree_distribution(sf_dir: str):
    return degree_distribution(pages_dir_for(sf_dir))


def _q_snapshot_curate(sf_dir: str):
    """Incremental-corpus curation: the multi-snapshot pages table is
    collapsed to the newest snapshot per url at the read, then fed
    through the full web_curate chain — same output as curating the
    deduplicated corpus directly (the oracle reuses web_curate's SQL)."""
    from zerox_ray.sources.pages import read_pages

    pages = read_pages(
        snapshot_pages_dir_for(sf_dir),
        columns=("url", "html"),
        latest_snapshot_only=True,
    )
    return web_curate(pages)


def _crawl_seeds(sf_dir: str) -> list[str]:
    """The crawl-depth workload: every 50th doc url is a trusted seed.
    Derived from the documents table's row count only (closed form, like
    every other workload constant here)."""
    import pyarrow.parquet as pq

    n = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    return [f"https://example.org/doc/{d}" for d in range(0, n, 50)]


def _q_crawl_depth(sf_dir: str):
    return crawl_depth(pages_dir_for(sf_dir), seeds=_crawl_seeds(sf_dir))


def _q_personalized_pagerank(sf_dir: str):
    from zerox_ray.pipelines.graph import personalized_pagerank

    return personalized_pagerank(pages_dir_for(sf_dir), seeds=_crawl_seeds(sf_dir))


def _q_local_clustering(sf_dir: str):
    from zerox_ray.pipelines.graph import local_clustering

    return local_clustering(pages_dir_for(sf_dir))


def _q_adamic_adar(sf_dir: str):
    from zerox_ray.pipelines.graph import adamic_adar

    return adamic_adar(pages_dir_for(sf_dir))


def _q_crawl_timeline(sf_dir: str):
    return crawl_timeline(pages_dir_for(sf_dir))


def _q_crawl_frontier(sf_dir: str):
    """Recrawl-priority table: PageRank authority discounted by BFS
    distance from the seed set — the two graph signals joined."""
    return crawl_frontier(pages_dir_for(sf_dir), seeds=_crawl_seeds(sf_dir))


def _q_web_curate(sf_dir: str):
    """North-star capstone: raw html pages -> OCR -> quality gate ->
    exact dedup -> token-budget training shards, one streaming plan."""
    return web_curate(pages_dir_for(sf_dir))


def _q_rank_curate(sf_dir: str):
    """Authority-ordered curation: web_curate's keepers packed in global
    PageRank-descending order (crawl signal feeding data selection)."""
    return rank_curate(pages_dir_for(sf_dir))


def _q_extraction_parity(sf_dir: str):
    """North-rule invariant audit: stripped-markdown vs stripped-text
    fingerprint equality per url."""
    return extraction_parity(pages_dir_for(sf_dir))


def _q_extract_structured(sf_dir: str):
    cfg = ZeroxConfig(schema=_EXTRACT_SCHEMA)
    return extract_pages(pages_dir_for(sf_dir), cfg).select_columns(
        ["url", "page_index", "first_token", "n_tokens"]
    )


def _q_extract_documents(sf_dir: str):
    cfg = ZeroxConfig(schema=_EXTRACT_SCHEMA, extract_per_page=["first_token"])
    return extract_documents(pages_dir_for(sf_dir), cfg)


def _q_extract_direct(sf_dir: str):
    """extractOnly / directImageExtraction mode: the extractor consumes the
    RAW page fragments (no OCR stage at all — reference index.ts:125)."""
    cfg = ZeroxConfig(schema=_EXTRACT_SCHEMA, extract_only=True)
    return extract_pages(pages_dir_for(sf_dir), cfg).select_columns(
        ["url", "page_index", "first_token", "n_tokens"]
    )


def _q_ocr_snapshot_ingest(sf_dir: str):
    """Snapshot-corpus ingest: each url appears with 1-3 WARC snapshots
    (+ a same-ts crc32-tie decoy on every 7th doc); latest_snapshot_only
    collapses them at the read and the OCR output must be byte-identical
    to the single-snapshot corpus (testgen.generate_snapshot_pages_table)."""
    from zerox_ray.sources.pages import read_pages

    pages = read_pages(
        snapshot_pages_dir_for(sf_dir),
        columns=("url", "html"),
        latest_snapshot_only=True,
    )
    return run_ocr(pages).select_columns(DOC_COLS)


def _q_snapshot_churn(sf_dir: str):
    """Per-url churn stats over the multi-snapshot corpus, keyed back to
    doc_id. The generator's churn is closed-form (1 + doc_id%3 snapshots,
    all distinct versions, 1 µs apart) EXCEPT the crc32-searched tie
    decoy on every 7th doc — crc32 is not SQL-expressible, so those docs
    are excluded from the oracled slice (documented cap, visible here)."""
    import pandas as pd

    from zerox_ray.sources.pages import snapshot_churn
    from zerox_ray.testgen import URL_PREFIX

    churn = snapshot_churn(snapshot_pages_dir_for(sf_dir))

    def to_doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["doc_id"] = out["url"].str.slice(len(URL_PREFIX)).astype("int64")
        out = out[out["doc_id"] % 7 != 0]
        return out[["doc_id", "n_snapshots", "n_versions", "ts_span_us"]]

    return churn.map_batches(to_doc_rows, batch_format="pandas")


def _q_snapshot_delta(sf_dir: str):
    """Newest-vs-previous crawl diff over the multi-snapshot corpus,
    keyed back to doc_id. Closed form: 1 + doc_id%3 snapshots, 1 µs
    apart; corrupt docs' payloads are text-independent so every
    snapshot is identical ('unchanged'); all other multi-snapshot docs
    changed. The crc32-searched tie decoy on every 7th doc is excluded
    (crc32 is not SQL-expressible — the snapshot_churn cap)."""
    import pandas as pd

    from zerox_ray.sources.pages import snapshot_delta
    from zerox_ray.testgen import URL_PREFIX

    delta = snapshot_delta(snapshot_pages_dir_for(sf_dir))

    def to_doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = df.copy()
        out["doc_id"] = out["url"].str.slice(len(URL_PREFIX)).astype("int64")
        out = out[out["doc_id"] % 7 != 0]
        out["status"] = out["status"].astype(object)
        return out[["doc_id", "n_snapshots", "status", "delta_us"]]

    return delta.map_batches(to_doc_rows, batch_format="pandas")


def _q_structured_pages(sf_dir: str):
    """Spreadsheet branch: ZXSHEET payloads → sheet-as-page rows (S6/M12)."""
    return extracted_pages(sheet_pages_dir_for(sf_dir)).select_columns(
        ["url", "page_index", "content", "status"]
    )


def _q_ann_ivf_full_probe(sf_dir: str):
    """IVF search probing ALL clusters: algebraically identical to the
    brute-force top-k, which makes the whole IVF path (k-means centroid
    assignment, probe masking, per-batch partial top-k, grouped merge)
    checkable against the exact SQL oracle; the probe-limited variant
    stays a recall-tested rows-only query."""
    return ann_ivf_topk(sf_dir, n_probe=16)


def _q_embedding_cosine(sf_dir: str):
    """Sign-LSH + exact-cosine near-dup over embeddings. Registered with
    threshold_ppm=0: the synthetic corpus has no true near-dups (max
    pairwise cosine ≈0.51), so a production threshold yields an empty —
    trivially matching — result; at 0 the oracle actually verifies the
    hyperplane blocking and the cosine arithmetic on real rows."""
    return embedding_near_dup(sf_dir, threshold_ppm=0)


def _q_ocr_jsonl_roundtrip(sf_dir: str):
    """Flagship OCR over a JSONL-ingested corpus (sources/jsonl.py —
    base64 payloads, integer µs timestamps): value-checked against the
    SAME ocr_documents oracle, so the whole interchange format is
    verified end-to-end by the byte-identity invariant."""
    from zerox_ray.sources.jsonl import read_jsonl_pages
    from zerox_ray.testgen import jsonl_dir_for

    return run_ocr(
        read_jsonl_pages(jsonl_dir_for(sf_dir)).select_columns(["url", "html"])
    ).select_columns(DOC_COLS)


def _q_ocr_warc_roundtrip(sf_dir: str):
    """Flagship OCR over a WARC-ingested corpus: the pages table is
    serialized to standard .warc.gz files (Common Crawl's container,
    sources/warc.py), parsed back with read_warc_pages, and extracted —
    value-checked against the SAME ocr_documents oracle, so the whole
    source format (gzip members, WARC framing, HTTP blocks, µs
    timestamps) is verified end-to-end by the byte-identity invariant."""
    from zerox_ray.sources.warc import read_warc_pages
    from zerox_ray.testgen import warc_dir_for

    pages = read_warc_pages(warc_dir_for(sf_dir)).select_columns(["url", "html"])
    return run_ocr(pages).select_columns(DOC_COLS)


def _q_c4_rules(sf_dir: str):
    """C4 line/doc filtering (Raffel 2020 §2.2) over the extracted
    corpus: pages are the line unit, rules are the paper's own (≥5
    words/line, blocklist substring, ≥3 surviving lines/doc)."""
    return c4_rules(pages_dir_for(sf_dir))


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # OCR / extraction pipelines (reference parity)
        "ocr_documents": _q_ocr_documents,
        "ocr_warc_roundtrip": _q_ocr_warc_roundtrip,
        "ocr_jsonl_roundtrip": _q_ocr_jsonl_roundtrip,
        "ocr_pages": _q_ocr_pages,
        "ocr_summary": _q_ocr_summary,
        "ocr_totals": _q_ocr_totals,
        "ocr_maintain_format": _q_ocr_maintain_format,
        "ocr_select_pages": _q_ocr_select_pages,
        "ocr_logprobs": _q_ocr_logprobs,
        "web_curate": _q_web_curate,
        "extraction_parity": _q_extraction_parity,
        "rank_curate": _q_rank_curate,
        "link_graph": _q_link_graph,
        "page_inlinks": _q_page_inlinks,
        "pagerank": _q_pagerank,
        "personalized_pagerank": _q_personalized_pagerank,
        "local_clustering": _q_local_clustering,
        "adamic_adar": _q_adamic_adar,
        "host_graph": _q_host_graph,
        "host_rank": _q_host_rank,
        "host_stats": _q_host_stats,
        "host_quality": _q_host_quality,
        "component_sizes": _q_component_sizes,
        "host_quota": _q_host_quota,
        "crawl_budget": _q_crawl_budget,
        "host_schedule": _q_host_schedule,
        "robots_filter": _q_robots_filter,
        "mirror_hosts": _q_mirror_hosts,
        "degree_distribution": _q_degree_distribution,
        "triangle_stats": _q_triangle_stats,
        "degree_assortativity": _q_degree_assortativity,
        "lpa_communities": _q_lpa_communities,
        "bowtie_census": _q_bowtie_census,
        "random_walks": _q_random_walks,
        "raw_text_blocks": _q_raw_text_blocks,
        "density_extract": _q_density_extract,
        "paragraph_dedup": _q_paragraph_dedup,
        "dom_templates": _q_dom_templates,
        "host_template_skew": _q_host_template_skew,
        "boilerplate_blocks": _q_boilerplate_blocks,
        "host_curate": _q_host_curate,
        "canonical_urls": _q_canonical_urls,
        "url_dedup": _q_url_dedup,
        "url_features": _q_url_features,
        "ocr_incremental": _q_ocr_incremental,
        "hits": _q_hits,
        "reciprocal_links": _q_reciprocal_links,
        "cocitation_counts": _q_cocitation_counts,
        "coupling_counts": _q_coupling_counts,
        "kcore": _q_kcore,
        "link_components": _q_link_components,
        "anchor_texts": _q_anchor_texts,
        "anchor_augment": _q_anchor_augment,
        "leaf_pages": _q_leaf_pages,
        "inlink_summaries": _q_inlink_summaries,
        "page_metadata": _q_page_metadata,
        "snapshot_curate": _q_snapshot_curate,
        "crawl_depth": _q_crawl_depth,
        "crawl_frontier": _q_crawl_frontier,
        "crawl_timeline": _q_crawl_timeline,
        "extract_structured": _q_extract_structured,
        "extract_direct": _q_extract_direct,
        "structured_pages": _q_structured_pages,
        "ocr_snapshot_ingest": _q_ocr_snapshot_ingest,
        # per-url recrawl churn over the same multi-snapshot corpus
        "snapshot_churn": _q_snapshot_churn,
        # newest-vs-previous payload diff per url (incremental-crawl gate)
        "snapshot_delta": _q_snapshot_delta,
        "extract_documents": _q_extract_documents,
        # training-data ops (SQL-oracled)
        "token_stats": token_stats,
        "token_counts_bpe": token_counts_bpe,
        "top_spenders": top_spenders,
        "top_orders_per_priority": top_orders_per_priority,
        "quality_scores": quality_scores,
        "quality_percentiles": quality_percentiles,
        "pii_scrub": pii_scrub,
        "normalize_text": normalize_text,
        "corpus_mix": corpus_mix,
        "stratified_sample": stratified_sample,
        "tfidf_top_terms": tfidf_top_terms,
        # webtext quality / LM-scoring family (textqual.py)
        "gopher_rules": gopher_rules,
        "c4_rules": _q_c4_rules,
        "unigram_logprobs": unigram_logprobs,
        "perplexity_buckets": perplexity_buckets,
        "classifier_scores": classifier_scores,
        "classifier_train": classifier_train,
        "classifier_trained_scores": classifier_trained_scores,
        "bpe_merges": bpe_merges,
        "bpe_encode": bpe_encode,
        "inverted_index": inverted_index,
        "quality_curate": quality_curate,
        "bigram_counts": bigram_counts,
        "bigram_logprobs": bigram_logprobs,
        "vocab_growth": vocab_growth,
        "corpus_drift": corpus_drift,
        "ngram_novelty": ngram_novelty,
        "pmi_pairs": pmi_pairs,
        "dup_class_sizes": dup_class_sizes,
        "corpus_datacard": corpus_datacard,
        "tier_shards": tier_shards,
        "quality_filter": quality_filter,
        "dedup_exact": dedup_exact,
        "decontaminate": decontaminate,
        "token_shards": token_shards,
        "packed_sequences": packed_sequences,
        "token_chunks": token_chunks,
        "repetition_scores": repetition_scores,
        "top_ngrams": top_ngrams,
        "events_hourly": events_hourly,
        "event_type_reach": event_type_reach,
        # schema-on-read JSON field extraction + grouped rollup
        "props_field_stats": props_field_stats,
        # weekly cohort-retention matrix: user-keyed exchange emits
        # per-cell partials, tiny second exchange sums them
        "cohort_retention": cohort_retention,
        # grouped-threshold filter: exact per-lang median broadcast
        # once, then a shuffle-free filter scan
        "above_median_docs": above_median_docs,
        "mad_outliers": mad_outliers,
        # the data-curation capstone: quality → decontaminate → exact
        # dedup → per-lang quota, ONE streaming plan (each stage shrinks
        # the stream the next one exchanges)
        "curate_corpus": curate_corpus,
        "ann_cosine_topk": ann_bruteforce_topk,
        "orders_by_nation": orders_by_nation,
        "interval_join": interval_join,
        "event_transitions": event_transitions,
        "conversion_paths": conversion_paths,
        "session_attribution": session_attribution,
        "shipping_priority": shipping_priority,
        "revenue_by_priority": revenue_by_priority,
        "revenue_cube": revenue_cube,
        "pricing_summary": pricing_summary,
        "dormant_customers": dormant_customers,
        "active_segments": active_segments,
        "user_event_ledger": user_event_ledger,
        "asof_purchase_view": asof_purchase_view,
        "events_sessions": events_sessions,
        "events_funnel": events_funnel,
        "events_sliding": events_sliding,
        "price_histogram": price_histogram,
        "distinct_users_exact": distinct_users_exact,
        "lang_id": lang_id,
        "lang_confusion": lang_confusion,
        "corpus_split": corpus_split,
        "sample_documents": sample_documents,
        "doc_fingerprints": doc_fingerprints,
        # sketches + dedup family (SQL-oracled: md5-derived hashing and
        # seeded params are reproduced literally in the oracle SQL)
        "distinct_users_hll": distinct_users_hll,
        # grouped HLL: per-type approximate reach, ≤|groups|·4096 register
        # rows per batch on the wire vs event_type_reach's O(distinct
        # pairs) total
        "event_type_reach_hll": grouped_distinct_hll,
        # per-lang MG top sources: 20 distinct < k=32 → exact regime,
        # the grouped summary machinery gets a bit-exact oracle
        "lang_top_sources": grouped_heavy_hitters,
        "bloom_probe": bloom_probe,
        "cms_probe": cms_probe,
        # Misra-Gries: events carries ≤5 event types vs k=32, the exact
        # regime, so the oracle value-checks the whole summary machinery
        "mg_heavy_hitters": heavy_hitters,
        # BM25 keyword search (integer-exact scoring, see pipelines/search.py)
        "search_bm25": search_bm25,
        # range self-join (interval join): per-event ±4 h same-user neighbors
        "events_neighbors": events_neighbors,
        # radius similarity search: all in-cosine-range corpus vectors
        "ann_radius_search": ann_radius_search,
        # exact per-group order statistics (the shuffle-based complement
        # to the mergeable histogram sketch)
        "priority_price_quantiles": priority_price_quantiles,
        # star-schema fact rollup: three composed broadcast dims, the
        # fact table never shuffles
        "brand_region_revenue": brand_region_revenue,
        # embeddings ⋈ documents enrichment + quantized-exact centroids
        "lang_embedding_centroids": lang_embedding_centroids,
        # per-source corpus rollup + deterministic training-order shuffle
        "source_report": source_report,
        "shuffled_shards": shuffled_shards,
        # global total order via two-pass offsets (no global sort)
        "global_rank_docs": global_rank_docs,
        # sketch-accelerated semi-join: customers pre-filtered by an
        # 8 KiB broadcast Bloom filter over orders' buyer keys
        "bloom_semi_join": bloom_semi_join,
        "dedup_minhash_lsh": minhash_lsh_pairs,
        "containment_pairs": containment_pairs,
        # cross-set similarity search: broadcast query-side LSH index,
        # shuffle-free corpus probe with exact-Jaccard verify in place
        "fuzzy_match": fuzzy_match,
        "dedup_minhash_keepers": minhash_dedup_docs,
        "neardup_cluster_sizes": neardup_cluster_sizes,
        "dedup_simhash": simhash_pairs,
        "dedup_simhash_signatures": simhash_signatures,
        "dedup_ngram_jaccard": ngram_jaccard_pairs,
        "dedup_spans": dedup_spans,
        "substring_scrub": substring_scrub,
        "winnow_fingerprints": winnow_fingerprints,
        "fingerprint_matches": fingerprint_matches,
        "leakage_safe_split": leakage_safe_split,
        "dedup_embedding_cosine": _q_embedding_cosine,
        "price_quantiles_sketch": price_quantiles,
        "exact_price_select": exact_price_select,
        # grouped histogram sketch: per-group quantiles with only
        # (group, bin, count) rows on the wire, interpolation in-reduce
        "returnflag_price_quantiles": grouped_price_quantiles,
        # approximate ANN (rows-only: recall-tested vs brute force in pytest)
        "ann_ivf_topk": ann_ivf_topk,
        # iterative distributed Lloyd's k-means: per-round broadcast of
        # the k×dim int centroid plane, ≤k partial rows per batch on the
        # wire, bit-exact via quantized integer arithmetic
        "kmeans_clusters": kmeans_clusters,
        "pq_codes": pq_codes,
        "pq_distortion": pq_distortion,
        "ann_pq_adc_topk": ann_pq_adc_topk,
        "semantic_dedup": semantic_dedup,
        "embedding_moments": embedding_moments,
        "embedding_quantize": embedding_quantize,
        "ann_quantized_topk": ann_quantized_topk,
        "ann_truncated_recall": ann_truncated_recall,
        "hard_negatives": hard_negatives,
        "contrastive_triplets": contrastive_triplets,
        "embedding_principal": embedding_principal,
        "dsir_sample": importance_sample,
        # IVF with every centroid probed is EXACT — same answer as brute
        # force — so the full IVF machinery (centroid assignment, probe
        # masking, partial top-k, merge) gets a value-hash oracle too
        "ann_ivf_full_probe": _q_ann_ivf_full_probe,
        "media_features": media_features,
        "media_thumbnail_features": media_thumbnail_features,
        "media_thumbnails": media_thumbnails,
        "media_cleanup": media_cleanup,
        "media_cleanup_features": media_cleanup_features,
        # video ingest: frame rows are payload-bearing (rows-only);
        # the *_features twin value-checks the decode→sample→re-encode
        # path against the ZXVID generator's closed forms
        "media_frames": media_frames,
        "media_frame_features": media_frame_features,
    }


# --------------------------------------------------------------------------
# oracle SQL
# --------------------------------------------------------------------------

# --- dedup-family SQL builders ---------------------------------------------
# The dedup pipelines hash shingles with md5_64 (functions/hashing.py) and
# derive every other constant from seeded numpy params, so DuckDB can
# recompute each signature EXACTLY: md5 via substring(md5(s),1,16), the
# (a*x+b) mod 2^64 minhash family via 32-bit-split multiplication in
# HUGEINT, and the seeded params/planes inlined as literals by the very
# same Python constructors the engine uses.

_MOD64 = "18446744073709551616::HUGEINT"


def _sql_mulmod64(a: str, x: str) -> str:
    """SQL expr for (a*x) mod 2^64; a, x HUGEINT expressions < 2^64."""
    return (
        f"((({a})%4294967296)*(({x})%4294967296)"
        f" + (((({a})%4294967296)*(({x})//4294967296)"
        f" + (({a})//4294967296)*(({x})%4294967296)) % 4294967296) * 4294967296"
        f") % {_MOD64}"
    )


def _sql_md5_u64(expr: str) -> str:
    """SQL expr mirroring functions/hashing.py::md5_64 (UBIGINT)."""
    return f"('0x'||substring(md5({expr}),1,16))::UBIGINT"


def _sql_shingles(shingle_n: int) -> str:
    """SQL list expr mirroring hashing.token_shingles over regex tokens
    `t` (space-joined n-grams, multiset — wrap in list_distinct for sets)."""
    joined = " || ' ' || ".join(
        f"t[i+{j}]" if j else "t[i]" for j in range(shingle_n)
    )
    return (
        f"list_transform(range(1, greatest(len(t)-{shingle_n - 1},0)+1),"
        f" i -> {joined})"
    )


def _minhash_pairs_ctes(
    k: int = 64, n_bands: int = 16, shingle_n: int = 3, threshold_ppm: int = 500_000
) -> str:
    """CTE chain ending in mh_pairs(doc_a, doc_b, jaccard_ppm) — an exact
    mirror of pipelines/dedup.py::minhash_lsh_pairs (same default params,
    same md5 shingle hashes, same seeded (a,b) family, same band keys,
    same truncating jaccard→ppm arithmetic)."""
    from zerox_ray.functions.hashing import minhash_params

    a, b = minhash_params(k)
    params = ",".join(
        f"({i},{int(a[i])}::HUGEINT,{int(b[i])}::HUGEINT)" for i in range(k)
    )
    r = k // n_bands
    jac = "floor((CAST(inter AS DOUBLE)/CAST(uni AS DOUBLE))*1000000)"
    return f"""
mh_tk AS (
  SELECT doc_id, regexp_extract_all(text, '[a-z]+') AS t FROM documents
),
mh_sh AS (
  SELECT doc_id, list_distinct({_sql_shingles(shingle_n)}) AS sh FROM mh_tk
),
mh_xs AS (
  SELECT doc_id, CAST({_sql_md5_u64("u.s")} AS HUGEINT) AS x
  FROM mh_sh, unnest(mh_sh.sh) AS u(s)
),
mh_params(k, a, b) AS (VALUES {params}),
mh_sig AS (  -- empty shingle set → all-max signature (hashing.py:minhash_signature)
  SELECT d.doc_id, p.k,
         COALESCE(min(({_sql_mulmod64('p.a', 'xs.x')} + p.b) % {_MOD64}),
                  18446744073709551615::HUGEINT) AS h
  FROM (SELECT doc_id FROM documents) d
  CROSS JOIN mh_params p
  LEFT JOIN mh_xs xs ON xs.doc_id = d.doc_id
  GROUP BY d.doc_id, p.k
),
mh_bands AS (
  SELECT doc_id, k//{r} AS band_id,
         CAST({_sql_md5_u64(f"CAST(k//{r} AS VARCHAR) || ':' || string_agg(CAST(CAST(h AS UBIGINT) AS VARCHAR), ':' ORDER BY k)")}
              % 9223372036854775808 AS BIGINT) AS band_key
  FROM mh_sig GROUP BY doc_id, k//{r}
),
mh_cand AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM mh_bands x JOIN mh_bands y
    ON x.band_id = y.band_id AND x.band_key = y.band_key AND x.doc_id < y.doc_id
),
mh_ver AS (
  SELECT c.doc_a, c.doc_b,
         len(list_intersect(sa.sh, sb.sh)) AS inter,
         len(sa.sh) + len(sb.sh) - len(list_intersect(sa.sh, sb.sh)) AS uni
  FROM mh_cand c
  JOIN mh_sh sa ON sa.doc_id = c.doc_a
  JOIN mh_sh sb ON sb.doc_id = c.doc_b
),
mh_pairs AS (
  SELECT doc_a, doc_b,
         CAST(CASE WHEN uni = 0 THEN 1000000 ELSE {jac} END AS BIGINT) AS jaccard_ppm
  FROM mh_ver
  WHERE CASE WHEN uni = 0 THEN 1000000 ELSE {jac} END >= {threshold_ppm}
)"""


def _fuzzy_match_sql(
    query_mod: int = 50,
    query_rem: int = 1,
    k: int = 64,
    n_bands: int = 16,
    shingle_n: int = 3,
    threshold_ppm: int = 500_000,
) -> str:
    """Mirror of pipelines/dedup.py::fuzzy_match: the query workload is
    rebuilt in SQL (first ceil(4n/5) tokens of every %mod==rem doc),
    both sides minhash with the same seeded family, candidates share a
    (band, key), verification is exact shingle Jaccard."""
    from zerox_ray.functions.hashing import minhash_params

    a, b = minhash_params(k)
    params = ",".join(
        f"({i},{int(a[i])}::HUGEINT,{int(b[i])}::HUGEINT)" for i in range(k)
    )
    r = k // n_bands
    band_key = _sql_md5_u64(
        f"CAST(k//{r} AS VARCHAR) || ':' || "
        f"string_agg(CAST(CAST(h AS UBIGINT) AS VARCHAR), ':' ORDER BY k)"
    )
    jac = "floor((CAST(inter AS DOUBLE)/CAST(uni AS DOUBLE))*1000000)"
    return f"""
WITH fm_src AS (
  SELECT doc_id, regexp_extract_all(text, '[a-z]+') AS t FROM documents
),
fm_qt AS (  -- query workload: first ceil(4n/5) tokens of each query doc
  SELECT doc_id AS qid, t[1:(4*len(t)+4)//5] AS t
  FROM fm_src WHERE doc_id % {query_mod} = {query_rem}
),
fm_qsh AS (SELECT qid, list_distinct({_sql_shingles(shingle_n)}) AS sh FROM fm_qt),
fm_dsh AS (
  SELECT doc_id, list_distinct({_sql_shingles(shingle_n)}) AS sh FROM fm_src
),
fm_params(k, a, b) AS (VALUES {params}),
fm_qxs AS (
  SELECT qid, CAST({_sql_md5_u64("u.s")} AS HUGEINT) AS x
  FROM fm_qsh, unnest(fm_qsh.sh) AS u(s)
),
fm_dxs AS (
  SELECT doc_id, CAST({_sql_md5_u64("u.s")} AS HUGEINT) AS x
  FROM fm_dsh, unnest(fm_dsh.sh) AS u(s)
),
fm_qsig AS (
  SELECT q.qid, p.k,
         COALESCE(min(({_sql_mulmod64('p.a', 'xs.x')} + p.b) % {_MOD64}),
                  18446744073709551615::HUGEINT) AS h
  FROM (SELECT qid FROM fm_qsh) q
  CROSS JOIN fm_params p
  LEFT JOIN fm_qxs xs ON xs.qid = q.qid
  GROUP BY q.qid, p.k
),
fm_dsig AS (
  SELECT d.doc_id, p.k,
         COALESCE(min(({_sql_mulmod64('p.a', 'xs.x')} + p.b) % {_MOD64}),
                  18446744073709551615::HUGEINT) AS h
  FROM (SELECT doc_id FROM fm_dsh) d
  CROSS JOIN fm_params p
  LEFT JOIN fm_dxs xs ON xs.doc_id = d.doc_id
  GROUP BY d.doc_id, p.k
),
fm_qband AS (
  SELECT qid, k//{r} AS band_id,
         CAST({band_key} % 9223372036854775808 AS BIGINT) AS band_key
  FROM fm_qsig GROUP BY qid, k//{r}
),
fm_dband AS (
  SELECT doc_id, k//{r} AS band_id,
         CAST({band_key} % 9223372036854775808 AS BIGINT) AS band_key
  FROM fm_dsig GROUP BY doc_id, k//{r}
),
fm_cand AS (
  SELECT DISTINCT q.qid, d.doc_id
  FROM fm_qband q JOIN fm_dband d
    ON q.band_id = d.band_id AND q.band_key = d.band_key
),
fm_ver AS (
  SELECT c.qid, c.doc_id,
         len(list_intersect(ds.sh, qs.sh)) AS inter,
         len(ds.sh) + len(qs.sh) - len(list_intersect(ds.sh, qs.sh)) AS uni
  FROM fm_cand c
  JOIN fm_qsh qs ON qs.qid = c.qid
  JOIN fm_dsh ds ON ds.doc_id = c.doc_id
)
SELECT qid AS query_id, doc_id,
       CAST(CASE WHEN uni = 0 THEN 1000000 ELSE {jac} END AS BIGINT) AS jaccard_ppm
FROM fm_ver
WHERE CASE WHEN uni = 0 THEN 1000000 ELSE {jac} END >= {threshold_ppm}"""


def _simhash_ctes(shingle_n: int = 3) -> str:
    """CTE chain ending in sh_sig(doc_id, s_u, simhash, block0..3) — an
    exact mirror of pipelines/dedup.py::simhash_signatures (md5 shingle
    hashes, ±1 bit votes over the shingle MULTISET, little-endian bit
    packing, int64 bit-pattern output, 4×16-bit block keys)."""
    pows = ",".join(f"({j},{1 << j}::HUGEINT)" for j in range(64))
    return f"""
sh_tk AS (
  SELECT doc_id, regexp_extract_all(text, '[a-z]+') AS t FROM documents
),
sh_shl AS (  -- shingle MULTISET (duplicates vote, as in simhash64)
  SELECT doc_id, {_sql_shingles(shingle_n)} AS sh FROM sh_tk
),
sh_xs AS (
  SELECT doc_id, CAST({_sql_md5_u64("u.s")} AS HUGEINT) AS x
  FROM sh_shl, unnest(sh_shl.sh) AS u(s)
),
sh_pows(j, p) AS (VALUES {pows}),
sh_votes AS (
  SELECT xs.doc_id, pw.j,
         sum(CASE WHEN (xs.x // pw.p) % 2 = 1 THEN 1 ELSE -1 END) AS vote
  FROM sh_xs xs CROSS JOIN sh_pows pw
  GROUP BY xs.doc_id, pw.j
),
sh_raw AS (
  SELECT doc_id, sum(CASE WHEN vote > 0 THEN p ELSE 0::HUGEINT END) AS s
  FROM sh_votes v JOIN sh_pows pw ON pw.j = v.j
  GROUP BY doc_id
),
sh_s AS (  -- docs with no shingles → signature 0 (simhash64 empty case)
  SELECT d.doc_id, COALESCE(u.s, 0::HUGEINT) AS s
  FROM (SELECT doc_id FROM documents) d LEFT JOIN sh_raw u USING (doc_id)
),
sh_sig AS (
  SELECT doc_id, s AS s_u,
         CAST(CASE WHEN s >= 9223372036854775808::HUGEINT
                   THEN s - {_MOD64} ELSE s END AS BIGINT) AS simhash,
         CAST(s % 65536 AS BIGINT) AS block0,
         CAST((s // 65536) % 65536 AS BIGINT) AS block1,
         CAST((s // 4294967296) % 65536 AS BIGINT) AS block2,
         CAST((s // 281474976710656) % 65536 AS BIGINT) AS block3
  FROM sh_s
)"""


def _embed_cosine_sql(
    dim: int = 64, n_bits: int = 64, seed: int = 42, threshold_ppm: int = 0
) -> str:
    """Mirror of pipelines/dedup.py::embedding_near_dup: the seeded
    hyperplane matrix is regenerated HERE with the same RandomState call
    the engine's HyperplaneBander uses and inlined as float literals, so
    blocking and the dot/(|a|·|b|) + round-half-up ppm arithmetic are
    bit-identical."""
    import numpy as np

    planes = np.random.RandomState(seed).standard_normal((dim, n_bits))
    n_blocks = n_bits // 16
    block_exprs = []
    for b in range(n_blocks):
        terms = []
        for j in range(16):
            lit = "[" + ",".join(repr(float(v)) for v in planes[:, 16 * b + j]) + "]"
            terms.append(
                f"CASE WHEN list_dot_product(e, {lit}) > 0 THEN {1 << j} ELSE 0 END"
            )
        block_exprs.append("(" + " + ".join(terms) + f") AS key{b}")
    keys_cols = ",\n         ".join(block_exprs)
    key_case = " ".join(f"WHEN {b} THEN key{b}" for b in range(n_blocks))
    return f"""
WITH ec_e AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
),
ec_keys AS (
  SELECT vec_id, e,
         {keys_cols}
  FROM ec_e
),
ec_blocks AS (
  SELECT vec_id, b.block_id,
         CASE b.block_id {key_case} END AS key
  FROM ec_keys CROSS JOIN (SELECT unnest(range(0,{n_blocks})) AS block_id) b
),
ec_cand AS (
  SELECT DISTINCT x.vec_id AS vec_a, y.vec_id AS vec_b
  FROM ec_blocks x JOIN ec_blocks y
    ON x.block_id = y.block_id AND x.key = y.key AND x.vec_id < y.vec_id
),
ec_ver AS (
  SELECT c.vec_a, c.vec_b,
         CAST(floor(list_dot_product(ea.e, eb.e)
              / (sqrt(list_dot_product(ea.e, ea.e)) * sqrt(list_dot_product(eb.e, eb.e)))
              * 1000000 + 0.5) AS BIGINT) AS cosine_ppm
  FROM ec_cand c
  JOIN ec_e ea ON ea.vec_id = c.vec_a
  JOIN ec_e eb ON eb.vec_id = c.vec_b
)
SELECT vec_a, vec_b, cosine_ppm FROM ec_ver WHERE cosine_ppm >= {threshold_ppm}"""


def _bloom_sql(m: int = 1 << 16) -> str:
    """Mirror of pipelines/sketches.py::bloom_probe: md5-64 of the
    decimal id → splitmix64 avalanche (engine constants) → odd stride
    h2 → Kirsch–Mitzenmacher positions (h1 + i*h2) mod 2^64 mod m over
    the corpus (distinct = set bits) and the probe ids."""
    golden, c1, c2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    return f"""
WITH bl_keys AS (
  SELECT CAST(NULL AS BIGINT) AS probe_id,
         CAST({_sql_md5_u64("CAST(doc_id AS VARCHAR)")} AS HUGEINT) AS h1
  FROM documents
  UNION ALL
  SELECT p.probe_id,
         CAST({_sql_md5_u64("CAST(p.probe_id AS VARCHAR)")} AS HUGEINT) AS h1
  FROM (SELECT CAST(unnest(range(0, 100)) AS BIGINT) AS probe_id
        UNION ALL
        SELECT CAST(unnest(range(1000000000, 1000000100)) AS BIGINT)) p
),
bl_z0 AS (SELECT probe_id, h1, (h1 + {golden}) % {_MOD64} AS z FROM bl_keys),
bl_z1 AS (SELECT probe_id, h1, xor(z, z // 1073741824) AS z FROM bl_z0),
bl_z2 AS (SELECT probe_id, h1, {_sql_mulmod64(str(c1), 'z')} AS z FROM bl_z1),
bl_z3 AS (SELECT probe_id, h1, xor(z, z // 134217728) AS z FROM bl_z2),
bl_z4 AS (SELECT probe_id, h1, {_sql_mulmod64(str(c2), 'z')} AS z FROM bl_z3),
bl_h2 AS (
  SELECT probe_id, h1, (xor(z, z // 2147483648) // 2) * 2 + 1 AS h2 FROM bl_z4
),
bl_pos AS (
  SELECT probe_id, ((h1 + i.i * h2) % {_MOD64}) % {m} AS pos
  FROM bl_h2, (VALUES (0::HUGEINT),(1::HUGEINT),(2::HUGEINT),(3::HUGEINT)) i(i)
),
bl_set AS (SELECT DISTINCT pos FROM bl_pos WHERE probe_id IS NULL)
SELECT probe_id,
       CAST(CASE WHEN bool_and(pos IN (SELECT pos FROM bl_set))
                 THEN 1 ELSE 0 END AS BIGINT) AS present,
       CAST((SELECT count(*) FROM bl_set) AS BIGINT) AS n_set_bits
FROM bl_pos WHERE probe_id IS NOT NULL GROUP BY probe_id"""


def _cms_sql(d: int = 4, w: int = 1024) -> str:
    """Mirror of pipelines/sketches.py::cms_probe: md5-64 of the decimal
    user_id → splitmix64 → odd stride h2 → Kirsch–Mitzenmacher positions
    mod w per depth row; per-(j,pos) counter sums over ALL events; probe
    estimate = min over depth rows (0 for counters never touched)."""
    golden, c1, c2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    depth_rows = ",".join(f"({j}::HUGEINT)" for j in range(d))
    return f"""
WITH cm_keys AS (
  SELECT CAST(NULL AS BIGINT) AS probe_id,
         CAST({_sql_md5_u64("CAST(user_id AS VARCHAR)")} AS HUGEINT) AS h1
  FROM events
  UNION ALL
  SELECT p.probe_id,
         CAST({_sql_md5_u64("CAST(p.probe_id AS VARCHAR)")} AS HUGEINT) AS h1
  FROM (SELECT CAST(unnest(range(0, 50)) AS BIGINT) AS probe_id
        UNION ALL
        SELECT CAST(unnest(range(1000000000, 1000000010)) AS BIGINT)) p
),
cm_z0 AS (SELECT probe_id, h1, (h1 + {golden}) % {_MOD64} AS z FROM cm_keys),
cm_z1 AS (SELECT probe_id, h1, xor(z, z // 1073741824) AS z FROM cm_z0),
cm_z2 AS (SELECT probe_id, h1, {_sql_mulmod64(str(c1), 'z')} AS z FROM cm_z1),
cm_z3 AS (SELECT probe_id, h1, xor(z, z // 134217728) AS z FROM cm_z2),
cm_z4 AS (SELECT probe_id, h1, {_sql_mulmod64(str(c2), 'z')} AS z FROM cm_z3),
cm_h2 AS (
  SELECT probe_id, h1, (xor(z, z // 2147483648) // 2) * 2 + 1 AS h2 FROM cm_z4
),
cm_pos AS (
  SELECT probe_id, i.i AS j, ((h1 + i.i * h2) % {_MOD64}) % {w} AS pos
  FROM cm_h2, (VALUES {depth_rows}) i(i)
),
cm_counts AS (
  SELECT j, pos, count(*) AS n FROM cm_pos WHERE probe_id IS NULL GROUP BY j, pos
),
cm_est AS (
  SELECT pp.probe_id, min(COALESCE(c.n, 0)) AS est
  FROM (SELECT * FROM cm_pos WHERE probe_id IS NOT NULL) pp
  LEFT JOIN cm_counts c ON c.j = pp.j AND c.pos = pp.pos
  GROUP BY pp.probe_id
)
SELECT probe_id, CAST(est AS BIGINT) AS est_count,
       CAST((SELECT count(*) FROM events) AS BIGINT) AS total_events
FROM cm_est"""


def _bm25_sql(terms: tuple[str, ...] = DEFAULT_QUERY, k: int = DEFAULT_K) -> str:
    """Mirror of pipelines/search.py::search_bm25: the same exact-integer
    BM25 (k1=1.2, b=0.75 as the 22/10·3/10·9/10 ratios over 10·A, linear
    idf N/df, floored avgdl A = T // N), tokens = string_split(text, ' ')
    — see the module docstring there for the derivation. HUGEINT keeps
    the 1e6·22·A·tf·N numerator exact at any corpus size."""
    idx = range(len(terms))
    tf_cols = ",\n         ".join(
        f"CAST(len(list_filter(string_split(text, ' '), x -> x = '{t}')) AS HUGEINT) AS tf{i}"
        for i, t in enumerate(terms)
    )
    df_cols = ", ".join(
        f"CAST(count(*) FILTER (WHERE tf{i} > 0) AS HUGEINT) AS df{i}" for i in idx
    )
    score = "\n       + ".join(
        f"(CASE WHEN tf{i} = 0 OR df{i} = 0 THEN 0::HUGEINT"
        f" ELSE (1000000::HUGEINT * 22 * a * tf{i} * n)"
        f" // (df{i} * (10*a*tf{i} + 3*a + 9*dl)) END)"
        for i in idx
    )
    return f"""
WITH bm_c AS (SELECT CAST(count(*) AS HUGEINT) AS n,
                     CAST(sum(len(string_split(text, ' '))) AS HUGEINT) AS t
              FROM documents),
bm_p AS (SELECT n, greatest(1::HUGEINT, t // n) AS a FROM bm_c),
bm_tf AS (
  SELECT doc_id, CAST(len(string_split(text, ' ')) AS HUGEINT) AS dl,
         {tf_cols}
  FROM documents),
bm_df AS (SELECT {df_cols} FROM bm_tf),
bm_s AS (
  SELECT doc_id, {score} AS score
  FROM bm_tf CROSS JOIN bm_df CROSS JOIN bm_p)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(score AS BIGINT) AS score_ppm,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank
FROM bm_s WHERE score > 0 ORDER BY score DESC, doc_id LIMIT {k}"""


def _bloom_semi_sql(m: int = 1 << 16) -> str:
    """Mirror of pipelines/sketches.py::bloom_semi_join: the bl_ hash
    chain (md5-64 → splitmix64 → odd-stride Kirsch–Mitzenmacher) builds
    the bit set over orders.o_custkey and probes every c_custkey —
    deterministic false positives and all."""
    golden, c1, c2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    return f"""
WITH bs_keys AS (
  SELECT CAST(NULL AS BIGINT) AS probe_id,
         CAST({_sql_md5_u64("CAST(o_custkey AS VARCHAR)")} AS HUGEINT) AS h1
  FROM orders
  UNION ALL
  SELECT c_custkey AS probe_id,
         CAST({_sql_md5_u64("CAST(c_custkey AS VARCHAR)")} AS HUGEINT) AS h1
  FROM customer
),
bs_z0 AS (SELECT probe_id, h1, (h1 + {golden}) % {_MOD64} AS z FROM bs_keys),
bs_z1 AS (SELECT probe_id, h1, xor(z, z // 1073741824) AS z FROM bs_z0),
bs_z2 AS (SELECT probe_id, h1, {_sql_mulmod64(str(c1), 'z')} AS z FROM bs_z1),
bs_z3 AS (SELECT probe_id, h1, xor(z, z // 134217728) AS z FROM bs_z2),
bs_z4 AS (SELECT probe_id, h1, {_sql_mulmod64(str(c2), 'z')} AS z FROM bs_z3),
bs_h2 AS (
  SELECT probe_id, h1, (xor(z, z // 2147483648) // 2) * 2 + 1 AS h2 FROM bs_z4
),
bs_pos AS (
  SELECT probe_id, ((h1 + i.i * h2) % {_MOD64}) % {m} AS pos
  FROM bs_h2, (VALUES (0::HUGEINT),(1::HUGEINT),(2::HUGEINT),(3::HUGEINT)) i(i)
),
bs_set AS (SELECT DISTINCT pos FROM bs_pos WHERE probe_id IS NULL)
SELECT probe_id AS c_custkey
FROM bs_pos WHERE probe_id IS NOT NULL
GROUP BY probe_id
HAVING bool_and(pos IN (SELECT pos FROM bs_set))"""


def _shuffle_sql(n_shards: int = 64) -> str:
    """Mirror of pipelines/dataops.py::shuffled_shards: splitmix64 of
    doc_id (same avalanche chain as the HLL oracle), shard = z mod
    n_shards, rank of (z // 2, doc_id) within the shard."""
    golden, c1, c2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    return f"""
WITH sh_z0 AS (
  SELECT doc_id, (CAST(doc_id AS HUGEINT) + {golden}) % {_MOD64} AS z FROM documents
),
sh_z1 AS (SELECT doc_id, xor(z, z // 1073741824) AS z FROM sh_z0),
sh_z2 AS (SELECT doc_id, {_sql_mulmod64(str(c1), 'z')} AS z FROM sh_z1),
sh_z3 AS (SELECT doc_id, xor(z, z // 134217728) AS z FROM sh_z2),
sh_z4 AS (SELECT doc_id, {_sql_mulmod64(str(c2), 'z')} AS z FROM sh_z3),
sh_z5 AS (SELECT doc_id, xor(z, z // 2147483648) AS z FROM sh_z4),
sh_k AS (
  SELECT doc_id, CAST(z % {n_shards} AS BIGINT) AS shard,
         CAST(z // 2 AS BIGINT) AS k
  FROM sh_z5
)
SELECT doc_id, shard,
       CAST(row_number() OVER (PARTITION BY shard ORDER BY k, doc_id) - 1
            AS BIGINT) AS pos
FROM sh_k"""


def _hll_sql(p: int = 12) -> str:
    """Mirror of pipelines/sketches.py::distinct_users_hll: splitmix64 of
    user_id (the engine's exact avalanche constants, wrap-around multiply
    done with the 32-bit-split trick), register/rank split, register max,
    standard estimator with the linear-counting small-range switch."""
    m = 1 << p
    width = 64 - p
    golden, c1, c2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    pows = ",".join(f"({j},{1 << j}::HUGEINT)" for j in range(width))
    return f"""
WITH hll_ids AS (SELECT DISTINCT user_id FROM events),
hll_z0 AS (
  SELECT (CAST(user_id AS HUGEINT) + {golden}) % {_MOD64} AS z FROM hll_ids
),
hll_z1 AS (SELECT xor(z, z // 1073741824) AS z FROM hll_z0),   -- z ^= z>>30
hll_z2 AS (SELECT {_sql_mulmod64(str(c1), 'z')} AS z FROM hll_z1),
hll_z3 AS (SELECT xor(z, z // 134217728) AS z FROM hll_z2),    -- z ^= z>>27
hll_z4 AS (SELECT {_sql_mulmod64(str(c2), 'z')} AS z FROM hll_z3),
hll_h AS (SELECT xor(z, z // 2147483648) AS h FROM hll_z4),    -- z ^= z>>31
hll_parts AS (
  SELECT h % {m} AS register, h // {m} AS rest FROM hll_h
),
hll_pows(j, pw) AS (VALUES {pows}),
hll_rank AS (
  SELECT register,
         CASE WHEN rest = 0 THEN {width + 1}
              ELSE {width} - (SELECT max(j) FROM hll_pows WHERE pw <= rest) END AS rank
  FROM hll_parts
),
hll_regs AS (SELECT register, max(rank) AS rank FROM hll_rank GROUP BY register),
hll_stats AS (
  SELECT sum(pow(2.0, -CAST(rank AS DOUBLE))) AS sum_present,
         count(*) AS n_present
  FROM hll_regs
),
hll_est AS (
  SELECT ({m} - n_present) AS zeros,
         (0.7213/(1 + 1.079/{m})) * {m} * {m} / (sum_present + ({m} - n_present) * 1.0) AS raw
  FROM hll_stats
)
SELECT CAST(round(CASE WHEN raw <= 2.5*{m} AND zeros > 0
                       THEN {m} * ln({m} / CAST(zeros AS DOUBLE))
                       ELSE raw END) AS BIGINT) AS n_users_estimate
FROM hll_est"""


def _hll_grouped_sql(p: int = 12) -> str:
    """Mirror of pipelines/sketches.py::grouped_distinct_hll — the
    _hll_sql chain with event_type carried through and the estimator
    applied per group."""
    m = 1 << p
    width = 64 - p
    golden, c1, c2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    pows = ",".join(f"({j},{1 << j}::HUGEINT)" for j in range(width))
    return f"""
WITH ghl_ids AS (SELECT DISTINCT event_type, user_id FROM events),
ghl_z0 AS (
  SELECT event_type, (CAST(user_id AS HUGEINT) + {golden}) % {_MOD64} AS z FROM ghl_ids
),
ghl_z1 AS (SELECT event_type, xor(z, z // 1073741824) AS z FROM ghl_z0),
ghl_z2 AS (SELECT event_type, {_sql_mulmod64(str(c1), 'z')} AS z FROM ghl_z1),
ghl_z3 AS (SELECT event_type, xor(z, z // 134217728) AS z FROM ghl_z2),
ghl_z4 AS (SELECT event_type, {_sql_mulmod64(str(c2), 'z')} AS z FROM ghl_z3),
ghl_h AS (SELECT event_type, xor(z, z // 2147483648) AS h FROM ghl_z4),
ghl_parts AS (
  SELECT event_type, h % {m} AS register, h // {m} AS rest FROM ghl_h
),
ghl_pows(j, pw) AS (VALUES {pows}),
ghl_rank AS (
  SELECT event_type, register,
         CASE WHEN rest = 0 THEN {width + 1}
              ELSE {width} - (SELECT max(j) FROM ghl_pows WHERE pw <= rest) END AS rank
  FROM ghl_parts
),
ghl_regs AS (
  SELECT event_type, register, max(rank) AS rank
  FROM ghl_rank GROUP BY event_type, register
),
ghl_stats AS (
  SELECT event_type,
         sum(pow(2.0, -CAST(rank AS DOUBLE))) AS sum_present,
         count(*) AS n_present
  FROM ghl_regs GROUP BY event_type
),
ghl_est AS (
  SELECT event_type,
         ({m} - n_present) AS zeros,
         (0.7213/(1 + 1.079/{m})) * {m} * {m} / (sum_present + ({m} - n_present) * 1.0) AS raw
  FROM ghl_stats
)
SELECT event_type,
       CAST(round(CASE WHEN raw <= 2.5*{m} AND zeros > 0
                       THEN {m} * ln({m} / CAST(zeros AS DOUBLE))
                       ELSE raw END) AS BIGINT) AS n_users_estimate
FROM ghl_est"""


#: the synthetic web graph's closed form (testgen.related_links): html
#: docs (not corrupt, not pdf) emit 3 footer links to
#: (doc_id*31 + 7j + 3) mod n_docs, j = 0..2
_PR_EDGES_CTE = """
WITH pr_n AS (SELECT count(*) AS n FROM documents),
pr_edges AS (
  SELECT d.doc_id AS src,
         CAST((d.doc_id * 31 + 7 * j.j + 3) % pr_n.n AS BIGINT) AS dst
  FROM documents d, pr_n, (SELECT unnest(range(3)) AS j) j
  WHERE d.doc_id % 101 <> 13 AND d.doc_id % 10 <> 7
)"""



#: the MULTIHOST corpus closed form (testgen.mh_url / multihost_pages_dir_for
#: — keep in sync): host(d) = 'h' || (d % 23) || '.example.net', link targets
#: the same related_links closed form as pr_edges but host-mapped
_MH_EDGES_CTE = """
WITH mh_n AS (SELECT count(*) AS n FROM documents),
mh_edges AS (
  SELECT 'h' || (d.doc_id % 23) || '.example.net' AS src_host,
         'h' || (((d.doc_id * 31 + 7 * j.j + 3) % mh_n.n) % 23)
             || '.example.net' AS dst_host
  FROM documents d, mh_n, (SELECT unnest(range(3)) AS j) j
  WHERE d.doc_id % 101 <> 13 AND d.doc_id % 10 <> 7
)"""



#: raw-text-block replay (pipelines/boilerplate.py::raw_text_blocks):
#: html pages emit 4 nav blocks + the chunk (when non-empty, slot 4) +
#: the footer terms block, in scan order; pdf pages emit the page text
_RAW_BLOCKS_CTE = """
WITH bp AS (
  SELECT doc_id, text,
         'https://example.org/doc/' || doc_id AS url,
         CASE WHEN doc_id % 101 = 13 THEN 'corrupt'
              WHEN doc_id % 10 = 7 THEN 'pdf' ELSE 'html' END AS kind,
         CASE WHEN doc_id % 101 = 13 THEN 1
              WHEN doc_id % 50 = 0 THEN 24
              ELSE 1 + (doc_id % 4) END AS np
  FROM documents
),
bpg AS (
  SELECT url, kind, text,
         unnest(generate_series(1, np)) AS page_index,
         CAST(ceil(CAST(length(text) AS DOUBLE) / np) AS BIGINT) AS L
  FROM bp WHERE kind <> 'corrupt'
),
bpc AS (
  SELECT url, kind, page_index,
         substring(text, (page_index - 1) * L + 1, L) AS content
  FROM bpg
),
pb AS (
  SELECT url, page_index, CAST(j.j AS BIGINT) AS block_index,
         CASE j.j WHEN 0 THEN 'home' WHEN 1 THEN 'about us'
                  WHEN 2 THEN 'contact' WHEN 3 THEN 'log in'
                  WHEN 4 THEN content
                  ELSE 'terms of service privacy policy site map (c) example'
         END AS block
  FROM bpc, (SELECT unnest(range(6)) AS j) j
  WHERE kind = 'html' AND NOT (j.j = 4 AND content = '')
  UNION ALL
  SELECT url, page_index, CAST(0 AS BIGINT), content
  FROM bpc WHERE kind = 'pdf' AND content <> ''
)"""



#: the messy-url closed form (_messy_urls — keep in sync): 2 rows per
#: doc; canonicalization drops tracking params / fragment, lowercases
#: the host, strips the https default port
_MESSY_URLS_CTE = """
WITH mu AS (
  SELECT doc_id,
         'https://h' || (doc_id % 23) || '.example.net/doc/' || doc_id AS base,
         doc_id % 6 AS r
  FROM documents
),
raw AS (
  SELECT base AS url, base AS canonical FROM mu
  UNION ALL
  SELECT CASE r
           WHEN 1 THEN base || '?utm_source=feed&utm_campaign=x'
           WHEN 2 THEN base || '?id=' || doc_id || '&utm_medium=email'
           WHEN 3 THEN base || '#frag' || doc_id
           WHEN 4 THEN 'https://H' || (doc_id % 23) || '.EXAMPLE.NET/doc/'
                       || doc_id
           WHEN 5 THEN 'https://h' || (doc_id % 23)
                       || '.example.net:443/doc/' || doc_id
           ELSE base END AS url,
         CASE WHEN r = 2 THEN base || '?id=' || doc_id ELSE base END
           AS canonical
  FROM mu
)"""


def _host_rank_sql(iters: int = 3) -> str:
    """Mirror of pipelines/graph.py::host_rank — the pagerank recurrence
    over the host MULTIGRAPH (one edge per link occurrence, so outdeg =
    occurrence count and multi-links weigh proportionally)."""
    parts = [
        _MH_EDGES_CTE
        + """,
mh_hosts AS (SELECT DISTINCT 'h' || (doc_id % 23) || '.example.net' AS host
             FROM documents),
hr_deg AS (SELECT src_host, CAST(count(*) AS BIGINT) AS outdeg
           FROM mh_edges GROUP BY src_host),
hr_r0 AS (SELECT host, CAST(1000000 AS BIGINT) AS r FROM mh_hosts)""",
    ]
    for i in range(1, iters + 1):
        parts.append(f""",
hr_c{i} AS (
  SELECT e.dst_host AS host, CAST(sum(r.r // g.outdeg) AS BIGINT) AS s
  FROM mh_edges e
  JOIN hr_deg g ON e.src_host = g.src_host
  JOIN hr_r{i - 1} r ON e.src_host = r.host
  GROUP BY e.dst_host
),
hr_r{i} AS (
  SELECT h.host,
         CAST(150000 + (85 * COALESCE(c.s, 0)) // 100 AS BIGINT) AS r
  FROM mh_hosts h LEFT JOIN hr_c{i} c USING (host)
)""")
    return "".join(parts) + f"""
SELECT host, r AS rank FROM hr_r{iters}"""


def _pagerank_round_ctes(iters: int = 3) -> str:
    """The fixed-rounds pagerank CTE chain (pr_deg, pr_r0..pr_r{iters})
    — appended after pr_edges; shared by the pagerank and rank_curate
    oracles."""
    parts = [
        """,
pr_deg AS (SELECT src, CAST(count(*) AS BIGINT) AS outdeg FROM pr_edges GROUP BY src),
pr_r0 AS (SELECT doc_id, CAST(1000000 AS BIGINT) AS r FROM documents)""",
    ]
    for i in range(1, iters + 1):
        parts.append(f""",
pr_c{i} AS (
  SELECT e.dst AS doc_id, CAST(sum(r.r // g.outdeg) AS BIGINT) AS s
  FROM pr_edges e
  JOIN pr_deg g ON e.src = g.src
  JOIN pr_r{i - 1} r ON e.src = r.doc_id
  GROUP BY e.dst
),
pr_r{i} AS (
  SELECT n.doc_id,
         CAST(150000 + (85 * COALESCE(c.s, 0)) // 100 AS BIGINT) AS r
  FROM documents n LEFT JOIN pr_c{i} c USING (doc_id)
)""")
    return "".join(parts)


def _pagerank_sql(iters: int = 3) -> str:
    """Mirror of pipelines/graph.py::pagerank — fixed rounds unrolled;
    integer floor arithmetic end-to-end (DuckDB // truncates, every
    operand is non-negative, so it equals numpy's floor division)."""
    return (
        _PR_EDGES_CTE
        + _pagerank_round_ctes(iters)
        + f"""
SELECT 'https://example.org/doc/' || doc_id AS url, r AS rank FROM pr_r{iters}"""
    )


def _ppr_sql(iters: int = 3) -> str:
    """Mirror of pipelines/graph.py::personalized_pagerank — fixed
    rounds unrolled; teleport mass concentrated on the seed set (every
    50th doc, matching _crawl_seeds); floor arithmetic end-to-end (all
    operands non-negative, so DuckDB's // equals numpy's)."""
    parts = [
        _PR_EDGES_CTE
        + """,
ppr_deg AS (SELECT src, CAST(count(*) AS BIGINT) AS outdeg FROM pr_edges GROUP BY src),
ppr_r0 AS (SELECT doc_id,
                  CAST(CASE WHEN doc_id % 50 = 0 THEN 1000000 ELSE 0 END AS BIGINT) AS r
           FROM documents)""",
    ]
    for i in range(1, iters + 1):
        parts.append(f""",
ppr_c{i} AS (
  SELECT e.dst AS doc_id, CAST(sum(r.r // g.outdeg) AS BIGINT) AS s
  FROM pr_edges e
  JOIN ppr_deg g ON e.src = g.src
  JOIN ppr_r{i - 1} r ON e.src = r.doc_id
  GROUP BY e.dst
),
ppr_r{i} AS (
  SELECT n.doc_id,
         CAST(CASE WHEN n.doc_id % 50 = 0 THEN 150000 ELSE 0 END
              + (85 * COALESCE(c.s, 0)) // 100 AS BIGINT) AS r
  FROM documents n LEFT JOIN ppr_c{i} c USING (doc_id)
)""")
    return "".join(parts) + f"""
SELECT 'https://example.org/doc/' || doc_id AS url, r AS rank FROM ppr_r{iters}"""


#: mirror of pipelines/graph.py::local_clustering — per-node closed-wedge
#: count over the distinct undirected edge set (orientation-free triple
#: join; the engine's degree-oriented count is orientation-invariant),
#: zero-filled for linkless pages
_LOCAL_CLUSTERING_SQL = (
    _PR_EDGES_CTE
    + """,
lc_ud AS (
  SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
  FROM pr_edges WHERE src <> dst
),
lc_sym AS (SELECT a AS u, b AS v FROM lc_ud UNION ALL SELECT b AS u, a AS v FROM lc_ud),
lc_deg AS (SELECT u, CAST(count(*) AS BIGINT) AS deg FROM lc_sym GROUP BY u),
lc_tri AS (
  SELECT w1.u AS node, CAST(count(*) AS BIGINT) AS t
  FROM lc_sym w1
  JOIN lc_sym w2 ON w1.u = w2.u AND w1.v < w2.v
  JOIN lc_ud e ON e.a = w1.v AND e.b = w2.v
  GROUP BY w1.u
)
SELECT 'https://example.org/doc/' || d.doc_id AS url,
       COALESCE(g.deg, 0) AS degree,
       COALESCE(t.t, 0) AS n_triangles,
       CASE WHEN COALESCE(g.deg, 0) >= 2
            THEN (2 * COALESCE(t.t, 0) * 1000000) // (g.deg * (g.deg - 1))
            ELSE 0 END AS clustering_ppm
FROM documents d
LEFT JOIN lc_deg g ON g.u = d.doc_id
LEFT JOIN lc_tri t ON t.node = d.doc_id"""
)


#: mirror of pipelines/graph.py::adamic_adar — undirected url pairs,
#: per-center lexicographic neighbor cap 256, integer reciprocal-degree
#: contributions, non-adjacent pairs with ≥2 common neighbors
_ADAMIC_ADAR_SQL = (
    _PR_EDGES_CTE
    + """,
aa_ud AS (
  SELECT DISTINCT
    least('https://example.org/doc/' || src, 'https://example.org/doc/' || dst) AS a,
    greatest('https://example.org/doc/' || src, 'https://example.org/doc/' || dst) AS b
  FROM pr_edges WHERE src <> dst
),
aa_sym AS (SELECT a AS u, b AS v FROM aa_ud UNION ALL SELECT b AS u, a AS v FROM aa_ud),
aa_deg AS (SELECT u, CAST(count(*) AS BIGINT) AS deg FROM aa_sym GROUP BY u),
aa_nb AS (SELECT u, v, row_number() OVER (PARTITION BY u ORDER BY v) AS rn FROM aa_sym),
aa_cand AS (
  SELECT x.v AS a, y.v AS b, CAST(1000000 // d.deg AS BIGINT) AS c
  FROM aa_nb x
  JOIN aa_nb y ON x.u = y.u AND x.v < y.v
  JOIN aa_deg d ON d.u = x.u
  WHERE x.rn <= 256 AND y.rn <= 256
),
aa_agg AS (
  SELECT a, b, CAST(count(*) AS BIGINT) AS n_common,
         CAST(sum(c) AS BIGINT) AS aa_score
  FROM aa_cand GROUP BY a, b
)
SELECT a AS url_a, b AS url_b, n_common, aa_score
FROM aa_agg g
WHERE n_common >= 2
  AND NOT EXISTS (SELECT 1 FROM aa_ud e WHERE e.a = g.a AND e.b = g.b)"""
)


def _hits_sql(iters: int = 2) -> str:
    """Mirror of pipelines/graph.py::hits — fixed rounds unrolled,
    max-normalized integer recurrence (greatest(max, 1) matches the
    engine's divide-by-zero guard)."""
    s = 1_000_000
    parts = [
        _PR_EDGES_CTE
        + f""",
hh0 AS (SELECT doc_id, CAST({s} AS BIGINT) AS v FROM documents)""",
    ]
    for i in range(1, iters + 1):
        parts.append(f""",
har{i} AS (
  SELECT e.dst AS doc_id, CAST(sum(h.v) AS BIGINT) AS s
  FROM pr_edges e JOIN hh{i - 1} h ON e.src = h.doc_id GROUP BY e.dst
),
ha{i} AS (
  SELECT doc_id,
         CAST(s * {s} // greatest((SELECT max(s) FROM har{i}), 1) AS BIGINT) AS v
  FROM har{i}
),
hhr{i} AS (
  SELECT e.src AS doc_id, CAST(sum(a.v) AS BIGINT) AS s
  FROM pr_edges e JOIN ha{i} a ON e.dst = a.doc_id GROUP BY e.src
),
hh{i} AS (
  SELECT doc_id,
         CAST(s * {s} // greatest((SELECT max(s) FROM hhr{i}), 1) AS BIGINT) AS v
  FROM hhr{i}
)""")
    return "".join(parts) + f"""
SELECT 'https://example.org/doc/' || d.doc_id AS url,
       COALESCE(h.v, 0) AS hub,
       COALESCE(a.v, 0) AS authority
FROM documents d
LEFT JOIN hh{iters} h USING (doc_id)
LEFT JOIN ha{iters} a USING (doc_id)"""


#: mirror of pipelines/graph.py::reciprocal_links — distinct directed
#: pairs self-joined on the reversed pair, emitted once with url_a < url_b
_RECIPROCAL_LINKS_SQL = (
    _PR_EDGES_CTE
    + """,
rl_e AS (
  SELECT DISTINCT 'https://example.org/doc/' || src AS s,
                  'https://example.org/doc/' || dst AS d
  FROM pr_edges WHERE src <> dst
)
SELECT a.s AS url_a, a.d AS url_b
FROM rl_e a JOIN rl_e b ON a.s = b.d AND a.d = b.s
WHERE a.s < a.d"""
)


#: mirror of pipelines/graph.py::cocitation_counts — per-source distinct
#: url targets, lexicographic pairs, count of citing sources, min 2
_COCITATION_SQL = (
    _PR_EDGES_CTE
    + """,
cc_e AS (
  SELECT DISTINCT src, 'https://example.org/doc/' || dst AS u
  FROM pr_edges
)
SELECT a.u AS url_a, b.u AS url_b, CAST(count(*) AS BIGINT) AS n_sources
FROM cc_e a JOIN cc_e b ON a.src = b.src AND a.u < b.u
GROUP BY a.u, b.u HAVING count(*) >= 2"""
)


#: mirror of pipelines/graph.py::coupling_counts — per-target distinct
#: citers (first 256 by url), lexicographic source pairs, min 2 targets
_COUPLING_SQL = (
    _PR_EDGES_CTE
    + """,
bc_e AS (
  SELECT DISTINCT 'https://example.org/doc/' || src AS s, dst
  FROM pr_edges
),
bc_r AS (SELECT s, dst, row_number() OVER (PARTITION BY dst ORDER BY s) rn
         FROM bc_e),
bc_k AS (SELECT s, dst FROM bc_r WHERE rn <= 256)
SELECT a.s AS url_a, b.s AS url_b, CAST(count(*) AS BIGINT) AS n_targets
FROM bc_k a JOIN bc_k b ON a.dst = b.dst AND a.s < b.s
GROUP BY a.s, b.s HAVING count(*) >= 2"""
)


#: mirror of pipelines/graph.py::kcore — symmetrized distinct edges,
#: exactly KCORE_ROUNDS=3 unrolled peels at k=KCORE_K=4, final degree
#: counted in the surviving induced subgraph
_KCORE_SQL = (
    _PR_EDGES_CTE
    + """,
kc_e0 AS (
  SELECT DISTINCT a, b FROM (
    SELECT src AS a, dst AS b FROM pr_edges WHERE src <> dst
    UNION ALL
    SELECT dst AS a, src AS b FROM pr_edges WHERE src <> dst
  )
),
kc_d1 AS (SELECT a, count(*) d FROM kc_e0 GROUP BY a),
kc_s1 AS (SELECT a FROM kc_d1 WHERE d >= 4),
kc_e1 AS (SELECT e.a, e.b FROM kc_e0 e
          JOIN kc_s1 x ON e.a = x.a JOIN kc_s1 y ON e.b = y.a),
kc_d2 AS (SELECT a, count(*) d FROM kc_e1 GROUP BY a),
kc_s2 AS (SELECT a FROM kc_d2 WHERE d >= 4),
kc_e2 AS (SELECT e.a, e.b FROM kc_e1 e
          JOIN kc_s2 x ON e.a = x.a JOIN kc_s2 y ON e.b = y.a),
kc_d3 AS (SELECT a, count(*) d FROM kc_e2 GROUP BY a),
kc_s3 AS (SELECT a FROM kc_d3 WHERE d >= 4),
kc_e3 AS (SELECT e.a, e.b FROM kc_e2 e
          JOIN kc_s3 x ON e.a = x.a JOIN kc_s3 y ON e.b = y.a)
SELECT 'https://example.org/doc/' || a AS url,
       CAST(count(*) AS BIGINT) AS degree
FROM kc_e3 GROUP BY a"""
)


#: mirror of pipelines/graph.py::link_components — same-language edges,
#: recursive reachability closure, representative = arg_min by the
#: 63-bit md5 key (UBIGINT // 2 ≡ the engine's non-negative int64 key)
_LINK_COMPONENTS_SQL = (
    _PR_EDGES_CTE.replace("WITH pr_n", "WITH RECURSIVE pr_n")
    + """,
lc_el AS (
  SELECT e.src, e.dst FROM pr_edges e
  JOIN documents a ON a.doc_id = e.src
  JOIN documents b ON b.doc_id = e.dst
  WHERE a.lang = b.lang
),
lc_und AS (
  SELECT src, dst FROM lc_el
  UNION
  SELECT dst AS src, src AS dst FROM lc_el
),
lc_cl AS (
  SELECT doc_id AS a, doc_id AS b FROM documents
  UNION
  SELECT c.a, u.dst AS b FROM lc_cl c JOIN lc_und u ON c.b = u.src
),
lc_h AS (
  SELECT doc_id,
         'https://example.org/doc/' || doc_id AS url,
         ('0x'||substring(md5('https://example.org/doc/' || doc_id),1,16))::UBIGINT // 2 AS h63
  FROM documents
),
lc_rep AS (
  SELECT c.a AS doc_id, arg_min(h.url, h.h63) AS component
  FROM lc_cl c JOIN lc_h h ON h.doc_id = c.b
  GROUP BY c.a
)
SELECT h2.url AS url, r.component AS component
FROM lc_rep r JOIN lc_h h2 USING (doc_id)
"""
)


#: mirror of pipelines/graph.py::lpa_communities — 3 synchronous
#: label-propagation rounds over the symmetrized distinct edge set;
#: per round each node takes its neighbors' modal label (tie → min
#: 63-bit key); linkless pages are their own community
_LPA_ROUND = """
lp{r} AS (
  SELECT v, lab FROM (
    SELECT v, lab, row_number() OVER (PARTITION BY v ORDER BY c DESC, lab) rn
    FROM (SELECT e.v, l.lab, count(*) AS c
          FROM lp_e e JOIN lp{p} l ON l.v = e.u GROUP BY e.v, l.lab)
  ) WHERE rn = 1
)"""

_LPA_SQL = (
    _PR_EDGES_CTE
    + """,
lp_h AS (
  SELECT doc_id,
         'https://example.org/doc/' || doc_id AS url,
         ('0x'||substring(md5('https://example.org/doc/' || doc_id),1,16))::UBIGINT // 2 AS h
  FROM documents
),
lp_e AS (
  SELECT DISTINCT ha.h AS v, hb.h AS u
  FROM (
    SELECT src AS a, dst AS b FROM pr_edges WHERE src <> dst
    UNION ALL
    SELECT dst AS a, src AS b FROM pr_edges WHERE src <> dst
  ) e JOIN lp_h ha ON ha.doc_id = e.a JOIN lp_h hb ON hb.doc_id = e.b
),
lp0 AS (SELECT DISTINCT v, v AS lab FROM lp_e),"""
    + ",".join(_LPA_ROUND.format(r=r, p=r - 1) for r in (1, 2, 3))
    + """
SELECT h.url AS url, coalesce(hl.url, h.url) AS community
FROM lp_h h
LEFT JOIN lp3 l ON l.v = h.h
LEFT JOIN lp_h hl ON hl.h = l.lab"""
)


#: mirror of pipelines/similarity.py::embedding_principal — 3 unrolled
#: integer power-iteration rounds over the scaled covariance
#: n·s_ij − s_i·s_j, renormalized to max-abs 1000 with trunc-toward-zero
_PCA_ROUND = """
w{r} AS (SELECT c.i, sum(c.c * v.v) AS w FROM pc_cf c
         JOIN v{p} v ON v.i = c.j GROUP BY c.i),
m{r} AS (SELECT max(abs(w)) AS m FROM w{r}),
v{r} AS (SELECT i, CASE WHEN m = 0 THEN 0::HUGEINT
                        WHEN w >= 0 THEN (1000 * w) // m
                        ELSE -((1000 * (-w)) // m) END AS v
         FROM w{r}, m{r})"""

_PCA_SQL = (
    """
WITH pc_ev AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000) AS BIGINT) AS q
  FROM embeddings
),
pc_mom AS (
  SELECT a.i - 1 AS i, b.i - 1 AS j,
         count(*)::HUGEINT AS n, sum(a.q)::HUGEINT AS si,
         sum(b.q)::HUGEINT AS sj, sum(a.q * b.q)::HUGEINT AS sij
  FROM pc_ev a JOIN pc_ev b ON a.vec_id = b.vec_id AND a.i <= b.i
  GROUP BY 1, 2
),
pc_cm AS (SELECT i, j, n * sij - si * sj AS c FROM pc_mom),
pc_cf AS (SELECT i, j, c FROM pc_cm
          UNION ALL SELECT j AS i, i AS j, c FROM pc_cm WHERE i <> j),
v0 AS (SELECT DISTINCT i, 1000::HUGEINT AS v FROM pc_cf),"""
    + ",".join(_PCA_ROUND.format(r=r, p=r - 1) for r in (1, 2, 3))
    + """
SELECT CAST(i AS BIGINT) AS dim, CAST(v AS BIGINT) AS component_milli
FROM v3"""
)


#: mirror of pipelines/graph.py::bowtie_census — K=4 bounded BFS both
#: directions from the max-inlink seed (tie → min url), then the
#: CORE/IN/OUT/OTHER census over set sizes
_BT_ROUND = """
{s}{r} AS (
  SELECT DISTINCT v FROM (
    SELECT v FROM {s}{p}
    UNION ALL
    SELECT e.{emit} AS v FROM pr_edges e JOIN {s}{p} x ON x.v = e.{probe}
  )
)"""

_BOWTIE_SQL = (
    _PR_EDGES_CTE
    + """,
bt_in AS (SELECT dst, count(*) AS c FROM pr_edges GROUP BY dst),
bt_seed AS (SELECT dst AS s FROM bt_in
            ORDER BY c DESC, 'https://example.org/doc/' || dst ASC LIMIT 1),
f0 AS (SELECT s AS v FROM bt_seed),
b0 AS (SELECT s AS v FROM bt_seed),"""
    + ",".join(
        _BT_ROUND.format(s=s, r=r, p=r - 1, emit=emit, probe=probe)
        for s, emit, probe in (("f", "dst", "src"), ("b", "src", "dst"))
        for r in (1, 2, 3, 4)
    )
    + """,
bt_ct AS (SELECT
  (SELECT count(*) FROM f4 JOIN b4 USING (v)) AS core,
  (SELECT count(*) FROM f4) AS nf,
  (SELECT count(*) FROM b4) AS nb,
  (SELECT count(*) FROM documents) AS np)
SELECT (SELECT 'https://example.org/doc/' || s FROM bt_seed) AS seed_url,
       CAST(core AS BIGINT) AS core_pages,
       CAST(nb - core AS BIGINT) AS in_pages,
       CAST(nf - core AS BIGINT) AS out_pages,
       CAST(np - nf - nb + core AS BIGINT) AS other_pages
FROM bt_ct"""
)


#: mirror of pipelines/graph.py::anchor_texts — the testgen footer emits
#: anchor text 'related {j}' for link slot j (testgen.build_html), so the
#: edge CTE re-derives j alongside src/dst
_ANCHOR_CTES = """
WITH an_n AS (SELECT count(*) AS n FROM documents),
an_e AS (
  SELECT d.doc_id AS src,
         CAST((d.doc_id * 31 + 7 * j.j + 3) % an_n.n AS BIGINT) AS dst,
         j.j AS j
  FROM documents d, an_n, (SELECT unnest(range(3)) AS j) j
  WHERE d.doc_id % 101 <> 13 AND d.doc_id % 10 <> 7
),
an_t AS (
  SELECT 'https://example.org/doc/' || src AS src,
         'https://example.org/doc/' || dst AS dst,
         'related ' || j AS anchor
  FROM an_e
)"""

_ANCHOR_TEXTS_SQL = _ANCHOR_CTES + """
SELECT src, dst, anchor FROM an_t
"""

#: mirror of pipelines/graph.py::inlink_summaries — per-dst anchor
#: rollup in (anchor, src) order
_INLINK_SUMMARIES_SQL = _ANCHOR_CTES + """
SELECT dst, CAST(count(*) AS BIGINT) AS n_inlinks,
       string_agg(anchor, '|' ORDER BY anchor, src) AS anchors
FROM an_t GROUP BY dst
"""

#: mirror of pipelines/graph.py::anchor_augment — the inlink anchor
#: rollup left-joined onto the pages text (pages.text is documents.text
#: verbatim, testgen.make_pages)
_ANCHOR_AUGMENT_SQL = _ANCHOR_CTES + """,
an_roll AS (
  SELECT dst, CAST(count(*) AS BIGINT) AS n_inlinks,
         string_agg(anchor, '|' ORDER BY anchor, src) AS anchors
  FROM an_t GROUP BY dst
)
SELECT 'https://example.org/doc/' || d.doc_id AS url,
       CAST(coalesce(r.n_inlinks, 0) AS BIGINT) AS n_anchors,
       CASE WHEN r.dst IS NULL THEN d.text
            ELSE d.text || chr(10) || chr(10) || '[anchors] ' || r.anchors
       END AS aug_text
FROM documents d
LEFT JOIN an_roll r ON r.dst = 'https://example.org/doc/' || d.doc_id
"""

#: mirror of pipelines/graph.py::page_metadata — kind/title/link-count/
#: page_count are all closed-form per doc_id (testgen plan_doc +
#: build_html/build_pdf structure markers; Classifier sniffs the corrupt
#: payload as 'unknown' and floors page_count at 1)
_PAGE_METADATA_SQL = """
SELECT 'https://example.org/doc/' || doc_id AS url,
       CASE WHEN doc_id % 101 = 13 THEN 'unknown'
            WHEN doc_id % 10 = 7 THEN 'pdf'
            ELSE 'html' END AS kind,
       CASE WHEN doc_id % 101 <> 13 AND doc_id % 10 <> 7
            THEN 'doc ' || doc_id ELSE '' END AS title,
       CAST(CASE WHEN doc_id % 101 <> 13 AND doc_id % 10 <> 7
            THEN 3 ELSE 0 END AS BIGINT) AS n_links,
       CAST(CASE WHEN doc_id % 101 = 13 THEN 1
            WHEN doc_id % 50 = 0 THEN 24
            ELSE 1 + (doc_id % 4) END AS BIGINT) AS page_count
FROM documents
"""

#: mirror of pipelines/graph.py::leaf_pages — pages absent from the edge
#: srcs (pdf/corrupt payloads carry no hrefs)
_LEAF_PAGES_SQL = (
    _PR_EDGES_CTE
    + """
SELECT 'https://example.org/doc/' || doc_id AS url FROM documents
WHERE doc_id NOT IN (SELECT src FROM pr_edges)
"""
)


def _crawl_depth_ctes(max_hops: int = 4) -> str:
    """The K unrolled BFS-round CTEs (cd_d0..cd_d{K}) — appended after
    pr_edges; seeds = every 50th doc (matches _crawl_seeds). Shared by
    the crawl_depth and crawl_frontier oracles."""
    parts = [
        """,
cd_d0 AS (
  SELECT doc_id, CAST(0 AS BIGINT) AS depth FROM documents WHERE doc_id % 50 = 0
)""",
    ]
    for i in range(1, max_hops + 1):
        parts.append(f""",
cd_d{i} AS (
  SELECT doc_id, CAST(min(depth) AS BIGINT) AS depth FROM (
    SELECT doc_id, depth FROM cd_d{i - 1}
    UNION ALL
    SELECT e.dst AS doc_id, d.depth + 1 AS depth
    FROM cd_d{i - 1} d JOIN pr_edges e ON e.src = d.doc_id
  ) GROUP BY doc_id
)""")
    return "".join(parts)


def _crawl_depth_sql(max_hops: int = 4) -> str:
    """Mirror of pipelines/graph.py::crawl_depth — K BFS rounds unrolled
    (frontier ∪ one-hop expansion, grouped min)."""
    return (
        _PR_EDGES_CTE
        + _crawl_depth_ctes(max_hops)
        + f"""
SELECT 'https://example.org/doc/' || doc_id AS url, depth FROM cd_d{max_hops}"""
    )


def _crawl_frontier_sql(max_hops: int = 4, iters: int = 3) -> str:
    """Mirror of pipelines/graph.py::crawl_frontier — the pagerank and
    BFS chains joined, priority = rank // (1 + depth) in exact ints."""
    return (
        _PR_EDGES_CTE
        + _pagerank_round_ctes(iters)
        + _crawl_depth_ctes(max_hops)
        + f"""
SELECT 'https://example.org/doc/' || d.doc_id AS url,
       r.r AS rank, d.depth AS depth,
       CAST(r.r // (1 + d.depth) AS BIGINT) AS priority
FROM cd_d{max_hops} d JOIN pr_r{iters} r USING (doc_id)"""
    )


#: shared curation-keeper chain (appended after _PAGES_CTE): flagship
#: markdown reassembly -> quality gate -> min-url-per-markdown dedup —
#: mirrors pipelines/web.py::_curated_keepers
_WEB_KEEPER_CTES = """
, wd AS (
  SELECT url,
         COALESCE(string_agg(CASE WHEN is_err THEN NULL ELSE content END,
                             e'\n\n' ORDER BY page_index), '') AS markdown,
         CAST(sum(CASE WHEN is_err THEN 1 ELSE 0 END) AS BIGINT) AS ocr_failed
  FROM pages GROUP BY url
),
wg AS (
  SELECT url, markdown,
         CAST(len(regexp_extract_all(markdown, '[a-z]+')) AS BIGINT) AS n_tok
  FROM wd
  WHERE ocr_failed = 0 AND len(regexp_extract_all(markdown, '[a-z]+')) >= 5
),
wk AS (
  SELECT url, n_tok FROM (
    SELECT url, n_tok,
           row_number() OVER (PARTITION BY markdown ORDER BY url) AS rn
    FROM wg
  ) WHERE rn = 1
)"""


def _kmeans_sql(k: int = 8, iters: int = 3, final_as_cte: bool = False) -> str:
    """Mirror of pipelines/similarity.py::kmeans_clusters — the fixed
    ``iters`` Lloyd rounds unrolled as CTE chains. Micro-unit int
    centroids make every distance/sum exact in DOUBLE; centroid updates
    use floor(sum/n) (DuckDB's integer ``//`` truncates toward zero,
    numpy floors — floor() in DOUBLE matches the engine); assignment
    ties break on the lowest cluster id."""
    parts = [
        f"""
WITH km_q AS (
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * 1000000) AS BIGINT)) AS q
  FROM embeddings
),
km_qd AS (SELECT vec_id, q, CAST(q AS DOUBLE[]) AS qd FROM km_q),
km_c0 AS (
  SELECT vec_id AS cl, q, CAST(q AS DOUBLE[]) AS qd FROM km_q WHERE vec_id < {k}
)"""
    ]
    for i in range(1, iters + 1):
        parts.append(f""",
km_a{i} AS (
  SELECT vec_id, cl FROM (
    SELECT e.vec_id, c.cl,
           row_number() OVER (PARTITION BY e.vec_id ORDER BY
             list_dot_product(e.qd, e.qd)
             - 2 * list_dot_product(e.qd, c.qd)
             + list_dot_product(c.qd, c.qd), c.cl) AS rn
    FROM km_qd e CROSS JOIN km_c{i - 1} c
  ) WHERE rn = 1
),
km_s{i} AS (
  SELECT cl, dim, CAST(floor(CAST(sum(qv) AS DOUBLE) / count(*)) AS BIGINT) AS v
  FROM (
    SELECT a.cl, unnest(range(len(e.q))) AS dim, unnest(e.q) AS qv
    FROM km_q e JOIN km_a{i} a USING (vec_id)
  ) GROUP BY cl, dim
),
km_c{i} AS (
  SELECT cl, list(v ORDER BY dim) AS q,
         CAST(list(v ORDER BY dim) AS DOUBLE[]) AS qd
  FROM km_s{i} GROUP BY cl
)""")
    assign = f"""
SELECT vec_id, cl AS cluster FROM (
  SELECT e.vec_id, c.cl,
         row_number() OVER (PARTITION BY e.vec_id ORDER BY
           list_dot_product(e.qd, e.qd)
           - 2 * list_dot_product(e.qd, c.qd)
           + list_dot_product(c.qd, c.qd), c.cl) AS rn
  FROM km_qd e CROSS JOIN km_c{iters} c
) WHERE rn = 1"""
    if final_as_cte:
        # composition form: callers append their own CTEs + final SELECT
        parts.append(f""",
km_assign AS ({assign})""")
    else:
        parts.append(assign)
    return "".join(parts)


def _pq_sql(m: int = 4, k: int = 4, iters: int = 2, dim: int = 64) -> str:
    """Mirror of pipelines/similarity.py::pq_codes — the per-subspace
    integer Lloyd chains (same conventions as ``_kmeans_sql``: micro-unit
    ints exact in DOUBLE, floor(sum/n) updates, lowest-cl tie breaks)
    unrolled for ALL m subspaces, then joined on vec_id."""
    sub = dim // m
    parts = ["""
WITH pq_q AS (
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> CAST(floor(x * 1000000) AS BIGINT)) AS q
  FROM embeddings
)"""]
    for s in range(m):
        lo, hi = s * sub + 1, (s + 1) * sub
        parts.append(f""",
pq{s}_qd AS (SELECT vec_id, q[{lo}:{hi}] AS q,
                    CAST(q[{lo}:{hi}] AS DOUBLE[]) AS qd FROM pq_q),
pq{s}_c0 AS (SELECT vec_id AS cl, q[{lo}:{hi}] AS q,
                    CAST(q[{lo}:{hi}] AS DOUBLE[]) AS qd
             FROM pq_q WHERE vec_id < {k})""")
        for i in range(1, iters + 1):
            parts.append(f""",
pq{s}_a{i} AS (
  SELECT vec_id, cl FROM (
    SELECT e.vec_id, c.cl,
           row_number() OVER (PARTITION BY e.vec_id ORDER BY
             list_dot_product(e.qd, e.qd)
             - 2 * list_dot_product(e.qd, c.qd)
             + list_dot_product(c.qd, c.qd), c.cl) AS rn
    FROM pq{s}_qd e CROSS JOIN pq{s}_c{i - 1} c
  ) WHERE rn = 1
),
pq{s}_s{i} AS (
  SELECT cl, dim, CAST(floor(CAST(sum(qv) AS DOUBLE) / count(*)) AS BIGINT) AS v
  FROM (
    SELECT a.cl, unnest(range(len(e.q))) AS dim, unnest(e.q) AS qv
    FROM pq{s}_qd e JOIN pq{s}_a{i} a USING (vec_id)
  ) GROUP BY cl, dim
),
pq{s}_c{i} AS (
  SELECT cl, list(v ORDER BY dim) AS q,
         CAST(list(v ORDER BY dim) AS DOUBLE[]) AS qd
  FROM pq{s}_s{i} GROUP BY cl
)""")
        parts.append(f""",
pq{s}_assign AS (
  SELECT vec_id, cl FROM (
    SELECT e.vec_id, c.cl,
           row_number() OVER (PARTITION BY e.vec_id ORDER BY
             list_dot_product(e.qd, e.qd)
             - 2 * list_dot_product(e.qd, c.qd)
             + list_dot_product(c.qd, c.qd), c.cl) AS rn
    FROM pq{s}_qd e CROSS JOIN pq{s}_c{iters} c
  ) WHERE rn = 1
)""")
    joins = " ".join(
        f"JOIN pq{s}_assign a{s} USING (vec_id)" for s in range(1, m)
    )
    sel = ", ".join(f"a{s}.cl AS c{s}" for s in range(m))
    parts.append(f"""
SELECT vec_id, {sel}
FROM pq0_assign a0 {joins}""")
    return "".join(parts)


def _pq_adc_sql(
    m: int = 4, k: int = 4, iters: int = 2, dim: int = 64,
    n_queries: int = 8, topk: int = 5,
) -> str:
    """Mirror of similarity.ann_pq_adc_topk: the full PQ training chains
    (shared construction with ``_pq_sql``) + asymmetric distance — each
    corpus vector contributes its ASSIGNED sub-centroids, each query its
    exact micro-unit subvectors; rank by (Σ_s L2², vec_id)."""
    body = _pq_sql(m, k, iters, dim)
    # cut the codes SELECT off the shared body, keep the CTE chain
    body = body[: body.rindex("\nSELECT vec_id,")]
    sub = dim // m
    e_joins = []
    for s in range(m):
        if s == 0:
            e_joins.append(f"pq0_assign a0 JOIN pq0_c{iters} cc0 ON cc0.cl = a0.cl")
        else:
            e_joins.append(
                f"JOIN pq{s}_assign a{s} ON a{s}.vec_id = a0.vec_id "
                f"JOIN pq{s}_c{iters} cc{s} ON cc{s}.cl = a{s}.cl"
            )
    cd_sel = ", ".join(f"cc{s}.qd AS cd{s}" for s in range(m))
    q_sel = ", ".join(
        f"CAST(q[{s * sub + 1}:{(s + 1) * sub}] AS DOUBLE[]) AS qd{s}"
        for s in range(m)
    )
    dist = " + ".join(
        f"(list_dot_product(q.qd{s}, q.qd{s})"
        f" - 2 * list_dot_product(q.qd{s}, e.cd{s})"
        f" + list_dot_product(e.cd{s}, e.cd{s}))"
        for s in range(m)
    )
    return body + f""",
adc_e AS (
  SELECT a0.vec_id, {cd_sel}
  FROM {" ".join(e_joins)}
),
adc_q AS (SELECT vec_id AS qid, {q_sel} FROM pq_q WHERE vec_id < {n_queries})
SELECT qid, vec_id AS neighbor_id, CAST(rank AS BIGINT) AS rank FROM (
  SELECT q.qid, e.vec_id,
         row_number() OVER (PARTITION BY q.qid ORDER BY
           {dist}, e.vec_id) AS rank
  FROM adc_q q, adc_e e WHERE e.vec_id != q.qid
) WHERE rank <= {topk}"""


def _pq_distortion_sql(m: int = 4, k: int = 4, iters: int = 2, dim: int = 64) -> str:
    """Mirror of similarity.pq_distortion: per-vector Σ_s L2² to the
    ASSIGNED sub-centroid (== the assignment minimum), over the shared
    training chains."""
    body = _pq_sql(m, k, iters, dim)
    body = body[: body.rindex("\nSELECT vec_id,")]
    joins = []
    for s in range(m):
        if s == 0:
            joins.append(
                f"pq0_qd q0 JOIN pq0_assign a0 ON a0.vec_id = q0.vec_id "
                f"JOIN pq0_c{iters} cc0 ON cc0.cl = a0.cl"
            )
        else:
            joins.append(
                f"JOIN pq{s}_qd q{s} ON q{s}.vec_id = q0.vec_id "
                f"JOIN pq{s}_assign a{s} ON a{s}.vec_id = q0.vec_id "
                f"JOIN pq{s}_c{iters} cc{s} ON cc{s}.cl = a{s}.cl"
            )
    err = " + ".join(
        f"(list_dot_product(q{s}.qd, q{s}.qd)"
        f" - 2 * list_dot_product(q{s}.qd, cc{s}.qd)"
        f" + list_dot_product(cc{s}.qd, cc{s}.qd))"
        for s in range(m)
    )
    return body + f"""
SELECT q0.vec_id, CAST({err} AS BIGINT) AS err
FROM {" ".join(joins)}"""


#: exact cosine top-k — shared by ann_cosine_topk AND ann_ivf_full_probe
#: (full-probe IVF is exact by construction, so one oracle serves both)
# shared winnowing replay (dedup.winnow_fingerprints, k=4, w=4): rolling
# 4-gram 63-bit hashes; per window of 4 consecutive gram hashes the
# RIGHTMOST minimum is selected (ORDER BY h, pos DESC mirrors numpy's
# reversed argmin tie rule)
_WINNOW_CTE = """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
mx AS (SELECT max(len(t)) AS m FROM toks),
grams AS (
  SELECT doc_id, i AS pos,
         CAST(('0x'||substring(md5(array_to_string(t[i+1:i+4], ' ')),1,16))::UBIGINT // 2 AS BIGINT) AS h
  FROM toks, (SELECT unnest(range(0, (SELECT m FROM mx))) AS i)
  WHERE i + 4 <= len(t)
),
gcnt AS (SELECT doc_id, count(*) AS ng FROM grams GROUP BY doc_id),
weff AS (SELECT doc_id, least(4, ng) AS w, ng FROM gcnt),
winsel AS (
  SELECT g.doc_id, g2.pos AS fpos, g2.h AS fh,
         row_number() OVER (PARTITION BY g.doc_id, g.pos ORDER BY g2.h, g2.pos DESC) AS rk
  FROM grams g
  JOIN weff ON weff.doc_id = g.doc_id
  JOIN grams g2 ON g2.doc_id = g.doc_id AND g2.pos BETWEEN g.pos AND g.pos + weff.w - 1
  WHERE g.pos <= weff.ng - weff.w
)
"""

_ANN_EXACT_TOPK_SQL = """
WITH q AS (
  SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 8
), s AS (
  SELECT q.qid, e.vec_id, list_cosine_similarity(q.qe, e.embedding) AS sim
  FROM q, embeddings e WHERE e.vec_id != q.qid
)
SELECT qid, vec_id AS neighbor_id, CAST(rank AS BIGINT) AS rank FROM (
  SELECT qid, vec_id,
         row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rank
  FROM s
) WHERE rank <= 5
"""


_NGRAM_JACCARD_SQL = """
WITH nj_tk AS (
  SELECT doc_id, regexp_extract_all(text, '[a-z]+') AS t FROM documents
),
nj_sh AS (
  SELECT doc_id,
         list_distinct(list_transform(range(1, greatest(len(t)-2,0)+1),
           i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])) AS sh
  FROM nj_tk
),
nj_blk AS (  -- mirror of dedup._block_key_batch: md5_64(min shingle) & 2^63-1
  SELECT doc_id, sh,
         CAST(('0x'||substring(md5(CASE WHEN len(sh)=0 THEN ''
                ELSE list_aggregate(sh, 'min') END),1,16))::UBIGINT
              % 9223372036854775808 AS BIGINT) AS block
  FROM nj_sh
),
nj_ver AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         len(list_intersect(a.sh, b.sh)) AS inter,
         len(a.sh) + len(b.sh) - len(list_intersect(a.sh, b.sh)) AS uni
  FROM nj_blk a JOIN nj_blk b ON a.block = b.block AND a.doc_id < b.doc_id
)
SELECT doc_a, doc_b,
       CAST(CASE WHEN uni = 0 THEN 1000000
            ELSE floor((CAST(inter AS DOUBLE)/CAST(uni AS DOUBLE))*1000000) END AS BIGINT) AS jaccard_ppm
FROM nj_ver
WHERE CASE WHEN uni = 0 THEN 1000000
      ELSE floor((CAST(inter AS DOUBLE)/CAST(uni AS DOUBLE))*1000000) END >= 800000
"""

# The pages-plan CTEs — MUST mirror zerox_ray/testgen.py::plan_doc exactly.
_PAGES_CTE = """
WITH p AS (
  SELECT doc_id, text,
         'https://example.org/doc/' || doc_id AS url,
         (doc_id % 101 = 13) AS is_err,
         CASE WHEN doc_id % 101 = 13 THEN 1
              WHEN doc_id % 50 = 0 THEN 24
              ELSE 1 + (doc_id % 4) END AS np
  FROM documents
),
pg AS (
  SELECT url, np, is_err, text,
         unnest(generate_series(1, np)) AS page_index,
         CAST(ceil(CAST(length(text) AS DOUBLE) / np) AS BIGINT) AS L
  FROM p
),
pages AS (
  SELECT url, is_err, np, page_index,
         CASE WHEN is_err THEN ''
              ELSE substring(text, (page_index - 1) * L + 1, L) END AS content,
         CASE WHEN is_err THEN 'ERROR' ELSE 'SUCCESS' END AS status
  FROM pg
)
"""

#: full web_curate oracle: keepers + md5-hash-ordered prefix-sum packing
_WEB_CURATE_SQL = (
    _PAGES_CTE
    + _WEB_KEEPER_CTES
    + """,
wh AS (
  SELECT url, n_tok, ('0x'||substring(md5(url),1,16))::UBIGINT AS h FROM wk
),
wcum AS (
  SELECT url, n_tok,
         COALESCE(sum(n_tok) OVER (ORDER BY h, url
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS excl
  FROM wh
)
SELECT url, n_tok, CAST(excl // 20000 AS BIGINT) AS shard_id FROM wcum
"""
)




_OCR_DOCUMENTS_SQL = (
    _PAGES_CTE
    + """
SELECT url,
       COALESCE(string_agg(CASE WHEN is_err THEN NULL ELSE content END,
                           e'\n\n' ORDER BY page_index), '') AS markdown,
       CAST(count(*) AS BIGINT) AS total_pages,
       CAST(sum(CASE WHEN is_err THEN 0 ELSE 1 END) AS BIGINT) AS ocr_successful,
       CAST(sum(CASE WHEN is_err THEN 1 ELSE 0 END) AS BIGINT) AS ocr_failed
FROM pages GROUP BY url
"""
)


#: mirrors pipelines/web.py::extraction_parity — the OCR markdown replay
#: and the reference text, both whitespace-stripped, compared by md5
#: fingerprint (RE2 \s semantics on both sides)
_EXTRACTION_PARITY_SQL = (
    _PAGES_CTE
    + r""",
epd AS (
  SELECT url,
         COALESCE(string_agg(CASE WHEN is_err THEN NULL ELSE content END,
                             e'\n\n' ORDER BY page_index), '') AS markdown
  FROM pages GROUP BY url
),
eps AS (
  SELECT d.url,
         regexp_replace(d.markdown, '\s+', '', 'g') AS mds,
         regexp_replace(r.text, '\s+', '', 'g') AS rfs
  FROM epd d
  JOIN (SELECT 'https://example.org/doc/' || doc_id AS url, text
        FROM documents) r USING (url)
)
SELECT url,
       CAST(length(mds) AS BIGINT) AS md_chars,
       CAST(length(rfs) AS BIGINT) AS ref_chars,
       CAST(CASE WHEN substring(md5(mds), 1, 16) = substring(md5(rfs), 1, 16)
                 THEN 1 ELSE 0 END AS BIGINT) AS is_match
FROM eps
"""
)


def oracle_sql() -> dict[str, str]:
    return {
        "ocr_documents": _OCR_DOCUMENTS_SQL,
        # the WARC corpus round-trips to the identical pages table, so
        # the expected extraction is IDENTICAL to ocr_documents — any
        # framing/gzip/date-precision defect changes the markdown hash
        "ocr_warc_roundtrip": _OCR_DOCUMENTS_SQL,
        # the JSONL corpus round-trips to the identical pages table —
        # same byte-identity oracle (base64/precision defects fail it)
        "ocr_jsonl_roundtrip": _OCR_DOCUMENTS_SQL,
        "extraction_parity": _EXTRACTION_PARITY_SQL,
        # the snapshot corpus collapses to the repeat=1 corpus at ingest,
        # so the expected OCR output is IDENTICAL to ocr_documents — any
        # wrongly-kept stale/tied snapshot produces different markdown
        "ocr_snapshot_ingest": _OCR_DOCUMENTS_SQL,
        # generator churn is closed-form off doc_id (1 + d%3 snapshots,
        # 1 µs apart; versions all distinct EXCEPT corrupt docs, whose
        # payload ignores the text — there every snapshot is identical,
        # which exercises the engine's version dedup); %7 tie-decoy docs
        # excluded — their snapshot count depends on a crc32 search
        "snapshot_churn": """
SELECT doc_id,
       CAST(1 + doc_id % 3 AS BIGINT) AS n_snapshots,
       CAST(CASE WHEN doc_id % 101 = 13 THEN 1
            ELSE 1 + doc_id % 3 END AS BIGINT) AS n_versions,
       CAST(doc_id % 3 AS BIGINT) AS ts_span_us
FROM documents WHERE doc_id % 7 <> 0
""",
        # mirrors sources/pages.snapshot_delta over the generator's
        # closed form: corrupt payloads are text-independent (identical
        # snapshots → unchanged); everything multi-snapshot else changed
        "snapshot_delta": """
SELECT doc_id,
       CAST(1 + doc_id % 3 AS BIGINT) AS n_snapshots,
       CASE WHEN doc_id % 3 = 0 THEN 'single'
            WHEN doc_id % 101 = 13 THEN 'unchanged'
            ELSE 'changed' END AS status,
       CAST(CASE WHEN doc_id % 3 = 0 THEN 0 ELSE 1 END AS BIGINT) AS delta_us
FROM documents WHERE doc_id % 7 <> 0
""",
        "ocr_pages": _PAGES_CTE
        + """
SELECT url, CAST(page_index AS BIGINT) AS page_index, content,
       CAST(length(content) AS BIGINT) AS content_length, status
FROM pages
""",
        "ocr_summary": _PAGES_CTE
        + """
SELECT status, CAST(count(*) AS BIGINT) AS n_pages,
       CAST(sum(length(content)) AS BIGINT) AS total_chars
FROM pages GROUP BY status
""",
        "ocr_totals": _PAGES_CTE
        + """
SELECT CAST(count(DISTINCT url) AS BIGINT) AS n_docs,
       CAST(count(*) AS BIGINT) AS total_pages,
       CAST(sum(CASE WHEN is_err THEN 0 ELSE 1 END) AS BIGINT) AS ok_pages,
       CAST(sum(CASE WHEN is_err THEN 1 ELSE 0 END) AS BIGINT) AS failed_pages
FROM pages
""",
        "ocr_maintain_format": _PAGES_CTE
        + """
, mf AS (
  -- the continuity marker is skipped when the prior page's BASE content
  -- tail is EMPTY, mirroring the reference's falsy prior-page check
  -- (node index.ts maintainFormat && priorPage) and the engine's
  -- `if maintain_format and prior_tail:` (models/mock.py) — exercised
  -- by short docs whose trailing pages are empty (sf0.001)
  SELECT url, is_err, page_index,
         CASE WHEN page_index = 1
                OR COALESCE(right(lag(content) OVER w, 16), '') = ''
              THEN content
              ELSE '<!-- cont:' || right(lag(content) OVER w, 16)
                   || ' -->' || e'\n' || content END AS content
  FROM pages
  WINDOW w AS (PARTITION BY url ORDER BY page_index)
)
SELECT url,
       COALESCE(string_agg(CASE WHEN is_err THEN NULL ELSE content END,
                           e'\n\n' ORDER BY page_index), '') AS markdown
FROM mf GROUP BY url
""",
        "ocr_select_pages": _PAGES_CTE
        + """
SELECT url, CAST(page_index AS BIGINT) AS page_index, content, status
FROM pages WHERE page_index IN (1, 3)
""",
        # the mock scores each content token -len(token)/10, so the SQL
        # token lengths must equal rint(-10*logprob) — wrong logprob
        # values (not just a missing column) fail this oracle
        "ocr_logprobs": _PAGES_CTE
        + """
, lp_tk AS (
  SELECT url, page_index, regexp_extract_all(content, '[a-z]+') AS t
  FROM pages
)
SELECT url, CAST(page_index AS BIGINT) AS page_index,
       CAST(len(t) AS BIGINT) AS lp_tokens,
       CAST(COALESCE(list_aggregate(list_transform(t, s -> length(s)), 'sum'), 0)
            AS BIGINT) AS lp_chars,
       COALESCE(t[1], '') AS first_lp_token
FROM lp_tk
""",
        "extract_structured": _PAGES_CTE
        + """
SELECT url, CAST(page_index AS BIGINT) AS page_index,
       regexp_extract(content, '[a-z]+') AS first_token,
       CAST(len(regexp_extract_all(content, '[a-z]+')) AS BIGINT) AS n_tokens
FROM pages WHERE NOT is_err
""",
        # mirrors testgen.generate_sheet_pages_table's SHEET PLAN + the
        # sheetx.sheet_to_html rendering (escape = 3 nested replaces)
        "structured_pages": """
WITH p AS (
  SELECT doc_id, text,
         'https://example.org/sheet/' || doc_id AS url,
         1 + (doc_id % 3) AS ns
  FROM documents
),
pg AS (
  SELECT url, text,
         unnest(generate_series(1, ns)) AS page_index,
         CAST(ceil(CAST(length(text) AS DOUBLE) / ns) AS BIGINT) AS L
  FROM p
)
SELECT url, CAST(page_index AS BIGINT) AS page_index,
       '<h1>Sheet' || page_index || '</h1>' || chr(10) ||
       '<table><tr><td>' ||
       replace(replace(replace(substring(text, (page_index - 1) * L + 1, L),
               '&', '&amp;'), '<', '&lt;'), '>', '&gt;') ||
       '</td></tr></table>' AS content,
       'SUCCESS' AS status
FROM pg
""",
        "token_stats": """
SELECT lang,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(len(regexp_extract_all(text, '[a-z]+'))) AS BIGINT) AS total_tokens,
       CAST(sum(length(text)) AS BIGINT) AS total_chars
FROM documents GROUP BY lang
""",
        "token_counts_bpe": r"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text,
           '''(?:s|t|re|ve|m|ll|d)| ?[a-z]+| ?[0-9]+| ?[^\sa-z0-9'']+|\s+'
       )) AS BIGINT) AS n_bpe_tokens,
       CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_ws_tokens
FROM documents
""",
        "top_spenders": """
SELECT CAST(o_custkey AS BIGINT) AS o_custkey,
       CAST(sum(CAST(floor(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders GROUP BY o_custkey
ORDER BY total_cents DESC, o_custkey LIMIT 10
""",
        "top_orders_per_priority": """
SELECT o_orderpriority, o_orderkey, total_cents, CAST(rank AS BIGINT) AS rank FROM (
  SELECT o_orderpriority, o_orderkey,
         CAST(floor(o_totalprice * 100) AS BIGINT) AS total_cents,
         row_number() OVER (PARTITION BY o_orderpriority
                            ORDER BY floor(o_totalprice * 100) DESC, o_orderkey)
             AS rank
  FROM orders
) WHERE rank <= 3
""",
        # --- textqual.py family: integer micro/milli arithmetic and
        # md5-bucket weights on both sides, so every compare is exact ---
        # mirrors textqual.c4_rules over the pages plan: page == C4
        # "line"; ≥5 words ([a-z]+ — the TOKEN_RE parity kernel), no
        # 'slow' substring; doc kept iff ≥3 surviving lines; c4_text is
        # the surviving lines in page order. ERROR pages excluded, so
        # corrupt docs vanish from the output on both sides.
        "c4_rules": _PAGES_CTE + r""",
c4l AS (
  SELECT url, page_index, content,
         CAST(len(regexp_extract_all(content, '[a-z]+')) AS BIGINT) AS w,
         (content LIKE '%slow%') AS banned
  FROM pages WHERE NOT is_err
),
c4k AS (
  SELECT url, page_index, content, w,
         (w >= 5 AND NOT banned) AS kept
  FROM c4l
)
SELECT url,
       CAST(count(*) AS BIGINT) AS n_lines,
       CAST(sum(CASE WHEN kept THEN 1 ELSE 0 END) AS BIGINT) AS kept_lines,
       CAST(COALESCE(sum(CASE WHEN kept THEN w END), 0) AS BIGINT) AS kept_words,
       CAST(CASE WHEN sum(CASE WHEN kept THEN 1 ELSE 0 END) >= 3
                 THEN 1 ELSE 0 END AS BIGINT) AS keep,
       COALESCE(string_agg(CASE WHEN kept THEN content END, e'\n\n'
                           ORDER BY page_index), '') AS c4_text
FROM c4k GROUP BY url
""",
        # mirrors textqual.gopher_rules (thresholds are module constants)
        "gopher_rules": """
WITH w AS (
  SELECT doc_id, string_split(text, ' ') ws,
         len(string_split(text, ' ')) n_words,
         length(text) - (len(string_split(text, ' ')) - 1) AS chars
  FROM documents),
gr_tf AS (
  SELECT doc_id, max(c) top_tf FROM (
    SELECT doc_id, t, count(*) c
    FROM (SELECT doc_id, unnest(ws) t FROM w) GROUP BY doc_id, t
  ) GROUP BY doc_id),
gr_st AS (
  SELECT doc_id, count(*) FILTER (t IN ('a', 'the')) stop_hits
  FROM (SELECT doc_id, unnest(ws) t FROM w) GROUP BY doc_id),
gr AS (
  SELECT w.doc_id, w.n_words, 1000000 * w.chars // w.n_words mwl,
         1000000 * gr_tf.top_tf // w.n_words topppm, gr_st.stop_hits
  FROM w JOIN gr_tf USING (doc_id) JOIN gr_st USING (doc_id))
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(n_words AS BIGINT) AS n_words,
  CAST(mwl AS BIGINT) AS mean_word_len_ppm,
  CAST(topppm AS BIGINT) AS top_word_ppm,
  CAST(stop_hits AS BIGINT) AS stop_hits,
  CAST(n_words BETWEEN 20 AND 80 AS BIGINT) AS flag_word_count,
  CAST(mwl BETWEEN 4300000 AND 4700000 AS BIGINT) AS flag_word_len,
  CAST(topppm <= 120000 AS BIGINT) AS flag_top_word,
  CAST(stop_hits >= 2 AS BIGINT) AS flag_stopwords,
  CAST(n_words BETWEEN 20 AND 80 AND mwl BETWEEN 4300000 AND 4700000
       AND topppm <= 120000 AND stop_hits >= 2 AS BIGINT) AS keep
FROM gr""",
        # mirrors textqual.unigram_logprobs: corpus unigram model,
        # ic(t) = (1e6·T) // ctf(t), doc xent = Σic // n_words
        "unigram_logprobs": """
WITH tok AS (SELECT doc_id, lang, unnest(string_split(text, ' ')) t
             FROM documents),
ctf AS (SELECT t, count(*) c FROM tok GROUP BY t),
tot AS (SELECT count(*) n FROM tok),
ic AS (SELECT t, (1000000 * (SELECT n FROM tot)) // c AS ic FROM ctf),
doc AS (SELECT doc_id, any_value(lang) lang, count(*) n_words, sum(ic.ic) s
        FROM tok JOIN ic USING (t) GROUP BY doc_id)
SELECT CAST(doc_id AS BIGINT) AS doc_id, lang,
       CAST(n_words AS BIGINT) AS n_words, CAST(s AS BIGINT) AS ic_sum,
       CAST(s // n_words AS BIGINT) AS xent_micro
FROM doc""",
        # mirrors textqual.perplexity_buckets: per-lang 4096-bin
        # histogram percentile, tertile split on 3·pct vs 1M/2M
        "perplexity_buckets": """
WITH tok AS (SELECT doc_id, lang, unnest(string_split(text, ' ')) t
             FROM documents),
ctf AS (SELECT t, count(*) c FROM tok GROUP BY t),
tot AS (SELECT count(*) n FROM tok),
ic AS (SELECT t, (1000000 * (SELECT n FROM tot)) // c AS ic FROM ctf),
pp_scores AS (SELECT doc_id, any_value(lang) lang,
                     CAST(sum(ic.ic) // count(*) AS BIGINT) xent
              FROM tok JOIN ic USING (t) GROUP BY doc_id),
pp_mx AS (SELECT lang, max(xent) m, count(*) nl FROM pp_scores GROUP BY lang),
pp_b AS (SELECT s.doc_id, s.lang, s.xent,
                s.xent // (pp_mx.m // 4096 + 1) AS bin, pp_mx.nl
         FROM pp_scores s JOIN pp_mx USING (lang)),
pp_hist AS (SELECT lang, bin, count(*) hn FROM pp_b GROUP BY lang, bin),
pp_cum AS (SELECT lang, bin,
           coalesce(sum(hn) OVER (PARTITION BY lang ORDER BY bin
                    ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) below
           FROM pp_hist),
pp AS (SELECT pp_b.doc_id, pp_b.lang, pp_b.xent,
              pp_cum.below * 1000000 // pp_b.nl AS pct
       FROM pp_b JOIN pp_cum USING (lang, bin))
SELECT CAST(doc_id AS BIGINT) AS doc_id, lang,
       CAST(xent AS BIGINT) AS xent_micro, CAST(pct AS BIGINT) AS pct_ppm,
       CASE WHEN pct * 3 < 1000000 THEN 'head'
            WHEN pct * 3 < 2000000 THEN 'middle' ELSE 'tail' END AS bucket
FROM pp""",
        # mirrors textqual.classifier_scores: hashed linear model,
        # w(t) = md5_64(t) % 2001 milli-units, keep at mean ≥ 1000
        # mirrors textqual.bpe_merges: 3 unrolled BPE rounds — char-pair
        # counts (overlapping adjacent positions, the classic get_stats),
        # best pair by (count DESC, expanded left, expanded right), merge
        # applied as non-overlapping left-to-right replace with a
        # placeholder control char (DuckDB replace == str.replace)
        "bpe_merges": """
WITH bpw AS (
  SELECT unnest(regexp_extract_all(text, '[a-z]+')) AS w FROM documents
),
c1 AS (SELECT regexp_extract_all(w, '.') AS cs FROM bpw),
p1 AS (SELECT unnest(list_zip(cs[:-1], cs[2:])) AS z FROM c1),
g1 AS (SELECT z[1] AS l, z[2] AS r, count(*) AS n
       FROM p1 WHERE z[2] IS NOT NULL GROUP BY 1, 2),
b1 AS (SELECT l, r, n FROM g1 ORDER BY n DESC, l, r LIMIT 1),
w2 AS (SELECT replace(w, (SELECT l || r FROM b1), chr(1)) AS w FROM bpw),
c2 AS (SELECT regexp_extract_all(w, '.') AS cs FROM w2),
p2 AS (SELECT unnest(list_zip(cs[:-1], cs[2:])) AS z FROM c2),
g2 AS (SELECT z[1] AS l, z[2] AS r, count(*) AS n
       FROM p2 WHERE z[2] IS NOT NULL GROUP BY 1, 2),
e2 AS (SELECT l, r, n,
              replace(l, chr(1), (SELECT l || r FROM b1)) AS le,
              replace(r, chr(1), (SELECT l || r FROM b1)) AS re
       FROM g2),
b2 AS (SELECT l, r, le, re, n FROM e2 ORDER BY n DESC, le, re LIMIT 1),
w3 AS (SELECT replace(w, (SELECT l || r FROM b2), chr(2)) AS w FROM w2),
c3 AS (SELECT regexp_extract_all(w, '.') AS cs FROM w3),
p3 AS (SELECT unnest(list_zip(cs[:-1], cs[2:])) AS z FROM c3),
g3 AS (SELECT z[1] AS l, z[2] AS r, count(*) AS n
       FROM p3 WHERE z[2] IS NOT NULL GROUP BY 1, 2),
e3 AS (SELECT l, r, n,
              replace(replace(l, chr(2), (SELECT le || re FROM b2)),
                      chr(1), (SELECT l || r FROM b1)) AS le,
              replace(replace(r, chr(2), (SELECT le || re FROM b2)),
                      chr(1), (SELECT l || r FROM b1)) AS re
       FROM g3),
b3 AS (SELECT le, re, n FROM e3 ORDER BY n DESC, le, re LIMIT 1)
SELECT CAST(1 AS BIGINT) AS round, l AS left_sym, r AS right_sym,
       CAST(n AS BIGINT) AS pair_count FROM b1
UNION ALL
SELECT CAST(2 AS BIGINT), le, re, CAST(n AS BIGINT) FROM b2
UNION ALL
SELECT CAST(3 AS BIGINT), le, re, CAST(n AS BIGINT) FROM b3
""",
        # mirrors textqual.bpe_encode: the same three learned merges
        # applied to every word occurrence; n_subwords counts symbols
        # (placeholder control chars are single codepoints both sides)
        "bpe_encode": """
WITH bpw AS (
  SELECT unnest(regexp_extract_all(text, '[a-z]+')) AS w FROM documents
),
c1 AS (SELECT regexp_extract_all(w, '.') AS cs FROM bpw),
p1 AS (SELECT unnest(list_zip(cs[:-1], cs[2:])) AS z FROM c1),
g1 AS (SELECT z[1] AS l, z[2] AS r, count(*) AS n
       FROM p1 WHERE z[2] IS NOT NULL GROUP BY 1, 2),
b1 AS (SELECT l, r, n FROM g1 ORDER BY n DESC, l, r LIMIT 1),
w2 AS (SELECT replace(w, (SELECT l || r FROM b1), chr(1)) AS w FROM bpw),
c2 AS (SELECT regexp_extract_all(w, '.') AS cs FROM w2),
p2 AS (SELECT unnest(list_zip(cs[:-1], cs[2:])) AS z FROM c2),
g2 AS (SELECT z[1] AS l, z[2] AS r, count(*) AS n
       FROM p2 WHERE z[2] IS NOT NULL GROUP BY 1, 2),
e2 AS (SELECT l, r, n,
              replace(l, chr(1), (SELECT l || r FROM b1)) AS le,
              replace(r, chr(1), (SELECT l || r FROM b1)) AS re
       FROM g2),
b2 AS (SELECT l, r, n FROM e2 ORDER BY n DESC, le, re LIMIT 1),
w3p AS (SELECT replace(w, (SELECT l || r FROM b2), chr(2)) AS w FROM w2),
c3 AS (SELECT regexp_extract_all(w, '.') AS cs FROM w3p),
p3 AS (SELECT unnest(list_zip(cs[:-1], cs[2:])) AS z FROM c3),
g3 AS (SELECT z[1] AS l, z[2] AS r, count(*) AS n
       FROM p3 WHERE z[2] IS NOT NULL GROUP BY 1, 2),
e3 AS (SELECT l, r, n,
              replace(replace(l, chr(2),
                (SELECT replace(l, chr(1), (SELECT l || r FROM b1))
                        || replace(r, chr(1), (SELECT l || r FROM b1))
                 FROM b2)),
                chr(1), (SELECT l || r FROM b1)) AS le,
              replace(replace(r, chr(2),
                (SELECT replace(l, chr(1), (SELECT l || r FROM b1))
                        || replace(r, chr(1), (SELECT l || r FROM b1))
                 FROM b2)),
                chr(1), (SELECT l || r FROM b1)) AS re
       FROM g3),
b3 AS (SELECT l, r, n FROM e3 ORDER BY n DESC, le, re LIMIT 1),
dtk AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[a-z]+')) AS w
  FROM documents
),
dmg AS (
  SELECT doc_id,
         replace(
           replace(
             replace(w, (SELECT l || r FROM b1), chr(1)),
             (SELECT l || r FROM b2), chr(2)),
           (SELECT l || r FROM b3), chr(3)) AS m
  FROM dtk
)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_words,
       CAST(sum(length(m)) AS BIGINT) AS n_subwords
FROM dmg GROUP BY doc_id
""",
        # mirrors textqual.classifier_train: hashed-token NB counts with
        # Laplace-smoothed positive rate; positive class = lang='en'
        "classifier_train": """
WITH nbt AS (
  SELECT (lang = 'en') AS pos,
         unnest(regexp_extract_all(text, '[a-z]+')) AS t
  FROM documents
),
nbb AS (
  SELECT CAST(('0x'||substring(md5(t),1,16))::UBIGINT % 4096 AS BIGINT)
           AS bucket,
         pos
  FROM nbt
)
SELECT bucket,
       CAST(sum(CASE WHEN pos THEN 1 ELSE 0 END) AS BIGINT) AS n_pos,
       CAST(sum(CASE WHEN pos THEN 0 ELSE 1 END) AS BIGINT) AS n_neg,
       CAST(((sum(CASE WHEN pos THEN 1 ELSE 0 END) + 1) * 1000000)
            // (count(*) + 2) AS BIGINT) AS pos_rate_ppm
FROM nbb GROUP BY bucket
""",
        # mirrors textqual.classifier_trained_scores: the train→infer
        # composition — every queried bucket exists in the model (same
        # corpus), so the inner join is total
        "classifier_trained_scores": """
WITH nbt AS (
  SELECT (lang = 'en') AS pos,
         unnest(regexp_extract_all(text, '[a-z]+')) AS t
  FROM documents
),
nbb AS (
  SELECT CAST(('0x'||substring(md5(t),1,16))::UBIGINT % 4096 AS BIGINT)
           AS bucket,
         pos
  FROM nbt
),
nbm AS (
  SELECT bucket,
         CAST(((sum(CASE WHEN pos THEN 1 ELSE 0 END) + 1) * 1000000)
              // (count(*) + 2) AS BIGINT) AS pos_rate_ppm
  FROM nbb GROUP BY bucket
),
dtk AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[a-z]+')) AS t
  FROM documents
),
dbk AS (
  SELECT doc_id,
         CAST(('0x'||substring(md5(t),1,16))::UBIGINT % 4096 AS BIGINT)
           AS bucket
  FROM dtk
),
dsc AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tok,
         CAST(sum(m.pos_rate_ppm) AS BIGINT) AS s
  FROM dbk JOIN nbm m USING (bucket)
  GROUP BY doc_id
)
SELECT doc_id, n_tok,
       CAST(s // greatest(n_tok, 1) AS BIGINT) AS score_ppm,
       CAST(CASE WHEN s // greatest(n_tok, 1) >= 500000
                 THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM dsc
""",
        "classifier_scores": """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) t FROM documents),
cw AS (SELECT doc_id,
              ('0x' || substring(md5(t), 1, 16))::UBIGINT % 2001 AS w
       FROM tok),
doc AS (SELECT doc_id, count(*) n_words, sum(w) ws FROM cw GROUP BY doc_id)
SELECT CAST(doc_id AS BIGINT) AS doc_id, CAST(n_words AS BIGINT) AS n_words,
       CAST(ws AS BIGINT) AS w_sum,
       CAST(ws // n_words AS BIGINT) AS mean_milli,
       CASE WHEN ws // n_words >= 1000 THEN 'keep' ELSE 'drop' END AS label
FROM doc""",
        # mirrors textqual.inverted_index: first-8 ascending postings
        "inverted_index": """
WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) t FROM documents),
tf AS (SELECT t AS term, doc_id, count(*) c FROM tok GROUP BY 1, 2),
r AS (SELECT *, row_number() OVER (PARTITION BY term ORDER BY doc_id) rn
      FROM tf)
SELECT term, CAST(count(*) AS BIGINT) AS df, CAST(sum(c) AS BIGINT) AS ctf,
       string_agg(CASE WHEN rn <= 8 THEN CAST(doc_id AS VARCHAR) END,
                  ',' ORDER BY doc_id) AS top_docs
FROM r GROUP BY term""",
        # mirrors textqual.quality_curate: the full gate chain (Gopher
        # flags ∧ classifier ∧ non-tail tertile) + min-doc_id exact dedup
        "quality_curate": """
WITH tok AS (SELECT doc_id, lang, unnest(string_split(text, ' ')) t
             FROM documents),
ctf AS (SELECT t, count(*) c FROM tok GROUP BY t),
ic AS (SELECT t, (1000000 * (SELECT count(*) FROM tok)) // c AS ic FROM ctf),
qtf AS (SELECT doc_id, t, count(*) c FROM tok GROUP BY doc_id, t),
qtop AS (SELECT doc_id, max(c) top_tf FROM qtf GROUP BY doc_id),
qstop AS (SELECT doc_id, count(*) FILTER (t IN ('a', 'the')) sh
          FROM tok GROUP BY doc_id),
qdoc AS (SELECT d.doc_id, d.lang, len(string_split(d.text, ' ')) nw,
         length(d.text) - (len(string_split(d.text, ' ')) - 1) chars,
         ('0x' || substring(md5(d.text), 1, 16))::UBIGINT // 2 AS h
         FROM documents d),
qx AS (SELECT doc_id, sum(ic.ic) s,
              sum(('0x' || substring(md5(t), 1, 16))::UBIGINT % 2001) ws
       FROM tok JOIN ic USING (t) GROUP BY doc_id),
qm AS (SELECT qdoc.doc_id, qdoc.lang, qdoc.nw AS n_words, qdoc.h,
        CAST(qx.s // qdoc.nw AS BIGINT) AS xent,
        CAST(qx.ws // qdoc.nw AS BIGINT) AS mean_milli,
        (qdoc.nw BETWEEN 20 AND 80
          AND 1000000 * qdoc.chars // qdoc.nw BETWEEN 4300000 AND 4700000
          AND 1000000 * qtop.top_tf // qdoc.nw <= 120000
          AND qstop.sh >= 2
          AND qx.ws // qdoc.nw >= 1000) AS gate
        FROM qdoc JOIN qtop USING (doc_id) JOIN qstop USING (doc_id)
        JOIN qx USING (doc_id)),
qmx AS (SELECT lang, max(xent) m, count(*) nl FROM qm GROUP BY lang),
qb AS (SELECT qm.*, qm.xent // (qmx.m // 4096 + 1) AS bin, qmx.nl
       FROM qm JOIN qmx USING (lang)),
qh AS (SELECT lang, bin, count(*) hn FROM qb GROUP BY lang, bin),
qc AS (SELECT lang, bin, coalesce(sum(hn) OVER (PARTITION BY lang
        ORDER BY bin ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
        below FROM qh),
qp AS (SELECT qb.*, qc.below * 1000000 // qb.nl AS pct
       FROM qb JOIN qc USING (lang, bin)),
qg AS (SELECT *, CASE WHEN pct * 3 < 1000000 THEN 'head'
                      ELSE 'middle' END AS bucket
       FROM qp WHERE gate AND pct * 3 < 2000000),
qk AS (SELECT *, row_number() OVER (PARTITION BY h ORDER BY doc_id) rn
       FROM qg)
SELECT CAST(doc_id AS BIGINT) AS doc_id, lang,
       CAST(n_words AS BIGINT) AS n_words, CAST(xent AS BIGINT) AS xent_micro,
       CAST(mean_milli AS BIGINT) AS mean_milli, bucket
FROM qk WHERE rn = 1""",
        # mirrors textqual.bigram_counts: within-doc adjacent pairs,
        # global sum, min_count=2 filter AFTER the sum
        "bigram_counts": """
WITH bw AS (SELECT doc_id, string_split(text, ' ') ws FROM documents),
bz AS (SELECT doc_id, unnest(list_zip(ws[:-1], ws[2:])) z FROM bw)
SELECT z[1] AS w1, z[2] AS w2, CAST(count(*) AS BIGINT) AS n
FROM bz WHERE z[2] IS NOT NULL  -- list_zip pads the longer side w/ NULL
GROUP BY w1, w2 HAVING count(*) >= 2""",
        # mirrors textqual.ngram_novelty: distinct per-doc bigram keys
        # (63-bit md5 of w1||US||w2), df over those keys, novelty =
        # bigrams seen in no other doc; bigram-less docs get 0s
        "ngram_novelty": """
WITH nw AS (SELECT doc_id, string_split(text, ' ') ws FROM documents),
nz AS (SELECT doc_id, unnest(list_zip(ws[:-1], ws[2:])) z FROM nw),
nk AS (SELECT DISTINCT doc_id,
              ('0x'||substring(md5(z[1] || chr(31) || z[2]),1,16))::UBIGINT // 2 AS k
       FROM nz WHERE z[2] IS NOT NULL),
ndf AS (SELECT k, count(*) c FROM nk GROUP BY k),
nagg AS (SELECT doc_id, count(*) nb,
                sum(CASE WHEN ndf.c >= 2 THEN 1 ELSE 0 END) nc
         FROM nk JOIN ndf USING (k) GROUP BY doc_id)
SELECT CAST(d.doc_id AS BIGINT) AS doc_id,
       CAST(coalesce(a.nb, 0) AS BIGINT) AS n_bigrams,
       CAST(coalesce(a.nb - a.nc, 0) AS BIGINT) AS n_novel,
       CAST(CASE WHEN a.nb IS NULL THEN 0
            ELSE ((a.nb - a.nc) * 1000000) // a.nb END AS BIGINT) AS novelty_ppm
FROM documents d LEFT JOIN nagg a ON a.doc_id = d.doc_id""",
        # mirrors textqual.bigram_logprobs: stupid-backoff bigram LM —
        # seen (count>=2) pair ic = (1e6*ctf(w1)) // c(w1,w2); pruned
        # pair backs off to 2*((1e6*T) // ctf(w2))
        "bigram_logprobs": """
WITH bw AS (SELECT doc_id, lang, string_split(text, ' ') ws FROM documents),
tok AS (SELECT unnest(ws) t FROM bw),
c1 AS (SELECT t, count(*) c FROM tok GROUP BY t),
tot AS (SELECT count(*) n FROM tok),
bz AS (SELECT doc_id, lang, unnest(list_zip(ws[:-1], ws[2:])) z FROM bw),
bp AS (SELECT doc_id, lang, z[1] w1, z[2] w2 FROM bz WHERE z[2] IS NOT NULL),
c2 AS (SELECT w1, w2, count(*) c FROM bp GROUP BY w1, w2
       HAVING count(*) >= 2),
sc AS (SELECT bp.doc_id, bp.lang,
              coalesce((1000000 * u1.c) // c2.c,
                       2 * ((1000000 * (SELECT n FROM tot)) // u2.c)) AS ic
       FROM bp
       JOIN c1 u1 ON u1.t = bp.w1
       JOIN c1 u2 ON u2.t = bp.w2
       LEFT JOIN c2 ON c2.w1 = bp.w1 AND c2.w2 = bp.w2)
SELECT CAST(doc_id AS BIGINT) AS doc_id, any_value(lang) AS lang,
       CAST(count(*) AS BIGINT) AS n_bigrams,
       CAST(sum(ic) AS BIGINT) AS ic2_sum,
       CAST(sum(ic) // count(*) AS BIGINT) AS xent2_micro
FROM sc GROUP BY doc_id""",
        # mirrors textqual.pmi_pairs: window-3 canonical pairs,
        # HUGEINT PMI ratio (1e6*c_ab*T^2) // (P*c_a*c_b), min_count=2
        "pmi_pairs": """
WITH pw AS (SELECT string_split(text, ' ') ws FROM documents),
tok AS (SELECT unnest(ws) t FROM pw),
c1 AS (SELECT t, count(*) c FROM tok GROUP BY t),
tot AS (SELECT count(*) n FROM tok),
pz AS (
  SELECT unnest(list_zip(ws[:-1], ws[2:])) z FROM pw
  UNION ALL
  SELECT unnest(list_zip(ws[:-2], ws[3:])) z FROM pw
  UNION ALL
  SELECT unnest(list_zip(ws[:-3], ws[4:])) z FROM pw
),
pp AS (SELECT least(z[1], z[2]) w1, greatest(z[1], z[2]) w2
       FROM pz WHERE z[1] IS NOT NULL AND z[2] IS NOT NULL),
ptot AS (SELECT count(*) p FROM pp),
c2 AS (SELECT w1, w2, count(*) c FROM pp GROUP BY w1, w2
       HAVING count(*) >= 2)
SELECT w1, w2, CAST(c2.c AS BIGINT) AS n,
       CAST((1000000 * c2.c::HUGEINT * (SELECT n FROM tot)::HUGEINT
             * (SELECT n FROM tot)::HUGEINT)
            // ((SELECT p FROM ptot)::HUGEINT * u1.c * u2.c)
            AS BIGINT) AS pmi_ratio_ppm
FROM c2 JOIN c1 u1 ON u1.t = c2.w1 JOIN c1 u2 ON u2.t = c2.w2""",
        # mirrors textqual.vocab_growth: Heaps curve via the
        # min-first-occurrence trick at 8 even doc-id checkpoints
        # mirrors textqual.corpus_drift: exact integer total-variation
        # distance between the doc_id-parity unigram distributions
        # (HUGEINT numerator sum mirrors the engine's python-int total)
        "corpus_drift": """
WITH cd_tok AS (SELECT doc_id % 2 AS side, unnest(string_split(text, ' ')) AS w
                FROM documents),
cd_c AS (SELECT w, sum(CASE WHEN side = 0 THEN 1 ELSE 0 END) AS ca,
                sum(CASE WHEN side = 1 THEN 1 ELSE 0 END) AS cb
         FROM cd_tok GROUP BY w),
cd_t AS (SELECT sum(ca) AS na, sum(cb) AS nb FROM cd_c)
SELECT CAST(count(*) AS BIGINT) AS n_terms,
       CAST(na AS BIGINT) AS n_tokens_a, CAST(nb AS BIGINT) AS n_tokens_b,
       CAST(sum(abs(ca*nb - cb*na)) * 1000000 // (2*na*nb) AS BIGINT) AS tv_ppm
FROM cd_c, cd_t GROUP BY na, nb
""",
        "vocab_growth": """
WITH vg_n AS (SELECT count(*) c FROM documents),
vg_b AS (SELECT m, ((m + 1) * (SELECT c FROM vg_n)) // 8 AS nd
         FROM (SELECT unnest(range(8)) AS m)),
vg_tok AS (SELECT doc_id, unnest(string_split(text, ' ')) t FROM documents),
vg_fd AS (SELECT t, min(doc_id) f FROM vg_tok GROUP BY t),
vg_vs AS (SELECT b.m, count(*) v FROM vg_b b JOIN vg_fd ON vg_fd.f < b.nd
          GROUP BY b.m),
vg_tk AS (SELECT b.m, count(*) nt FROM vg_b b JOIN vg_tok
          ON vg_tok.doc_id < b.nd GROUP BY b.m)
SELECT CAST(b.m AS BIGINT) AS checkpoint, CAST(b.nd AS BIGINT) AS n_docs,
       CAST(coalesce(tk.nt, 0) AS BIGINT) AS n_tokens,
       CAST(coalesce(vs.v, 0) AS BIGINT) AS vocab_size
FROM vg_b b LEFT JOIN vg_tk tk ON tk.m = b.m
LEFT JOIN vg_vs vs ON vs.m = b.m""",
        # mirrors textqual.tier_shards: per-lang tertile tier, then an
        # exclusive token cumsum per tier in doc_id order // 2000
        "tier_shards": """
WITH tok AS (SELECT doc_id, lang, unnest(string_split(text, ' ')) t
             FROM documents),
ctf AS (SELECT t, count(*) c FROM tok GROUP BY t),
ic AS (SELECT t, (1000000 * (SELECT count(*) FROM tok)) // c AS ic FROM ctf),
ts_sc AS (SELECT doc_id, any_value(lang) lang, count(*) nw,
                 CAST(sum(ic.ic) // count(*) AS BIGINT) xent
          FROM tok JOIN ic USING (t) GROUP BY doc_id),
ts_mx AS (SELECT lang, max(xent) m, count(*) nl FROM ts_sc GROUP BY lang),
ts_b AS (SELECT s.*, s.xent // (ts_mx.m // 4096 + 1) AS bin, ts_mx.nl
         FROM ts_sc s JOIN ts_mx USING (lang)),
ts_h AS (SELECT lang, bin, count(*) hn FROM ts_b GROUP BY lang, bin),
ts_c AS (SELECT lang, bin, coalesce(sum(hn) OVER (PARTITION BY lang
         ORDER BY bin ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
         below FROM ts_h),
ts_p AS (SELECT b.doc_id, b.nw, ts_c.below * 1000000 // b.nl AS pct
         FROM ts_b b JOIN ts_c USING (lang, bin)),
ts_t AS (SELECT doc_id, nw, CASE WHEN pct * 3 < 1000000 THEN 'head'
              WHEN pct * 3 < 2000000 THEN 'middle' ELSE 'tail' END AS tier
         FROM ts_p),
ts_sh AS (SELECT doc_id, tier, nw,
          coalesce(sum(nw) OVER (PARTITION BY tier ORDER BY doc_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) excl
          FROM ts_t)
SELECT CAST(doc_id AS BIGINT) AS doc_id, tier,
       CAST(nw AS BIGINT) AS n_tokens,
       CAST(excl // 2000 AS BIGINT) AS shard_id
FROM ts_sh""",
        # mirrors dataops.dup_class_sizes: exact-dup class size histogram
        "dup_class_sizes": """
WITH dc AS (SELECT text, count(*) n_copies FROM documents GROUP BY text)
SELECT CAST(n_copies AS BIGINT) AS n_copies,
       CAST(count(*) AS BIGINT) AS n_classes
FROM dc GROUP BY n_copies""",
        # mirrors dataops.corpus_datacard: per-(lang, source) release
        # sheet; token count = single-space split, dup rate from exact
        # text-distinct counts, integer micro/ppm arithmetic
        "corpus_datacard": """
WITH dd AS (SELECT lang, source, text,
                   len(string_split(text, ' ')) AS nt, length(text) AS nc
            FROM documents),
ds AS (SELECT lang, source, count(*) n_docs, sum(nt) total_tokens,
              sum(nc) total_chars, count(DISTINCT text) n_distinct_texts
       FROM dd GROUP BY lang, source)
SELECT lang, source, CAST(n_docs AS BIGINT) AS n_docs,
       CAST(total_tokens AS BIGINT) AS total_tokens,
       CAST(total_chars AS BIGINT) AS total_chars,
       CAST(1000000 * total_tokens // n_docs AS BIGINT) AS mean_tokens_micro,
       CAST(n_distinct_texts AS BIGINT) AS n_distinct_texts,
       CAST(1000000 * (n_docs - n_distinct_texts) // n_docs AS BIGINT)
           AS dup_ppm
FROM ds""",
        # mirrors dataops.tfidf_top_terms: single-space tokenize, linear
        # idf (N/df), score = floor(((1e6*tf)*N)/df) in IEEE doubles —
        # identical association on both sides, so bit-exact
        "tfidf_top_terms": """
WITH tf AS (
  SELECT doc_id, t AS term, count(*) AS tf
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS t FROM documents)
  GROUP BY doc_id, t
),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
s AS (
  SELECT tf.doc_id, tf.term, tf.tf, df.df,
         CAST(floor(1000000.0 * tf.tf * (SELECT count(*) FROM documents) / df.df)
              AS BIGINT) AS score_ppm
  FROM tf JOIN df USING (term)
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, term, CAST(tf AS BIGINT) AS tf,
       CAST(df AS BIGINT) AS df, score_ppm, CAST(rank AS BIGINT) AS rank
FROM (
  SELECT *, row_number() OVER (
    PARTITION BY doc_id ORDER BY score_ppm DESC, term) AS rank
  FROM s
) WHERE rank <= 5
""",
        # mirrors dataops.stratified_sample: md5-derived rank hash of the
        # decimal doc_id, k smallest per language
        "stratified_sample": """
WITH h AS (
  SELECT lang, doc_id,
         ('0x'||substring(md5(CAST(doc_id AS VARCHAR)),1,16))::UBIGINT AS hh
  FROM documents
)
SELECT lang, CAST(doc_id AS BIGINT) AS doc_id, CAST(rank AS BIGINT) AS rank FROM (
  SELECT lang, doc_id,
         row_number() OVER (PARTITION BY lang ORDER BY hh, doc_id) AS rank
  FROM h
) WHERE rank <= 25
""",
        # mirrors dataops.pii_scrub: identical deterministic planting from
        # doc_id, then the identical RE2-safe patterns applied in the same
        # sequential order (emails → ips → phones)
        "corpus_mix": """
SELECT doc_id, source FROM documents
WHERE ('0x' || substring(md5(CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT % 1000000
      < ((CAST(substring(source, 4) AS BIGINT) * 37) % 10 + 1) * 100000
""",
        # mirrors _normalize_plant + normalize_text: chr(769)=U+0301
        # combining acute (NFC-composes onto the 'e'), chr(7)=BEL control,
        # chr(9)=TAB; identical RE2 classes both sides
        "normalize_text": r"""
WITH aug AS (
  SELECT doc_id, text,
         '  ' || text || ' ' || chr(9) || ' '
         || CASE WHEN doc_id % 2 = 0 THEN ' cafe' || chr(769) ELSE '' END
         || CASE WHEN doc_id % 3 = 0 THEN chr(9) || 'x' || chr(7) || 'y' ELSE '' END AS s
  FROM documents
), n AS (
  SELECT doc_id, text,
         trim(regexp_replace(regexp_replace(nfc_normalize(s),
              '[\x00-\x08\x0b-\x1f\x7f]', '', 'g'), '[ \t]+', ' ', 'g'), ' ')
             AS norm_text
  FROM aug
)
SELECT doc_id, norm_text,
       CAST(length(norm_text) AS BIGINT) AS norm_len,
       CAST(CASE WHEN norm_text != text THEN 1 ELSE 0 END AS BIGINT) AS changed
FROM n
""",
        "quality_percentiles": r"""
WITH qp AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '[a-z]+')) AS BIGINT) AS n_tokens,
         CAST(len(regexp_extract_all(text, '\b(?:the|a|and|of|to)\b')) AS BIGINT) AS n_stop
  FROM documents
), qs AS (
  SELECT doc_id,
         CAST(CASE WHEN n_tokens = 0 THEN 0
              ELSE (1000000 * n_stop) // n_tokens END AS BIGINT) AS score_ppm
  FROM qp
), qb AS (
  SELECT doc_id, score_ppm, least(score_ppm // 976, 1023) AS bin_id FROM qs
), qh AS (
  SELECT bin_id, count(*) AS n FROM qb GROUP BY bin_id
), qc AS (
  SELECT bin_id,
         COALESCE(sum(n) OVER (ORDER BY bin_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS below
  FROM qh
)
SELECT qb.doc_id, qb.score_ppm,
       CAST(qc.below * 1000000 // (SELECT count(*) FROM documents) AS BIGINT)
           AS percentile_ppm
FROM qb JOIN qc ON qb.bin_id = qc.bin_id
""",
        "pii_scrub": r"""
WITH aug AS (
  SELECT doc_id, text
    || CASE WHEN doc_id % 3 = 0 THEN ' mail user' || doc_id || '@example.com' ELSE '' END
    || CASE WHEN doc_id % 4 = 0 THEN ' from 10.' || (doc_id % 200) || '.0.' || (doc_id % 250 + 1) ELSE '' END
    || CASE WHEN doc_id % 5 = 0 THEN ' tel +1-555-' || (1000 + doc_id % 9000) ELSE '' END AS s
  FROM documents
),
e AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(s, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT) AS n_emails,
         regexp_replace(s, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS s
  FROM aug
),
i AS (
  SELECT doc_id, n_emails,
         CAST(len(regexp_extract_all(s, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS BIGINT) AS n_ips,
         regexp_replace(s, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g') AS s
  FROM e
),
p AS (
  SELECT doc_id, n_emails, n_ips,
         CAST(len(regexp_extract_all(s, '\+\d[\d-]{6,13}\d')) AS BIGINT) AS n_phones,
         regexp_replace(s, '\+\d[\d-]{6,13}\d', '<PHONE>', 'g') AS s
  FROM i
)
SELECT doc_id, s AS clean_text, n_emails, n_ips, n_phones,
       CAST(length(s) AS BIGINT) AS clean_len
FROM p
""",
        "quality_scores": r"""
WITH q AS (
  SELECT doc_id,
         CAST(length(text) AS BIGINT) AS n_chars,
         CAST(len(regexp_extract_all(text, '[a-z]+')) AS BIGINT) AS n_tokens,
         CAST(len(regexp_extract_all(text, '\b(?:the|a|and|of|to)\b')) AS BIGINT) AS n_stopwords,
         CAST(length(regexp_replace(text, '[^a-z]', '', 'g')) AS BIGINT) AS n_letters
  FROM documents
)
SELECT doc_id, n_chars, n_tokens, n_stopwords,
       CAST(CASE WHEN n_tokens = 0 THEN 0
            ELSE (1000000 * n_stopwords) // n_tokens END AS BIGINT) AS stop_ratio_ppm,
       CAST(CASE WHEN n_tokens = 0 THEN 0
            ELSE (1000000 * n_letters) // n_tokens END AS BIGINT) AS avg_token_len_ppm
FROM q
""",
        "quality_filter": r"""
WITH q AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '[a-z]+')) AS BIGINT) AS n_tokens,
         CAST(CASE WHEN len(regexp_extract_all(text, '[a-z]+')) = 0 THEN 0
              ELSE (1000000 * len(regexp_extract_all(text, '\b(?:the|a|and|of|to)\b')))
                   // len(regexp_extract_all(text, '[a-z]+')) END AS BIGINT) AS stop_ratio_ppm
  FROM documents
)
SELECT doc_id, n_tokens, stop_ratio_ppm FROM q
WHERE n_tokens >= 20 AND stop_ratio_ppm <= 500000
""",
        "dedup_exact": """
SELECT CAST(min(doc_id) AS BIGINT) AS doc_id, CAST(count(*) AS BIGINT) AS n_copies
FROM documents GROUP BY text
""",
        # mirrors dedup.dedup_spans (window=4): single-space tokenize,
        # non-overlapping 4-token windows (tail may be short), md5-64
        # span hash, first occurrence by (doc_id, span_index) wins
        "dedup_spans": """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
mx AS (SELECT max(len(t)) AS m FROM toks),
spans AS (
  SELECT doc_id, i // 4 AS span_index,
         ('0x'||substring(md5(array_to_string(t[i+1:i+4], ' ')),1,16))::UBIGINT AS h,
         least(4, len(t) - i) AS n_toks
  FROM toks, (SELECT unnest(range(0, (SELECT m FROM mx), 4)) AS i)
  WHERE i < len(t)
),
marked AS (
  SELECT doc_id, n_toks,
         row_number() OVER (PARTITION BY h ORDER BY doc_id, span_index) = 1 AS keep
  FROM spans
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(count(*) AS BIGINT) AS n_spans,
       CAST(sum(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT) AS kept_spans,
       CAST(sum(CASE WHEN keep THEN 0 ELSE 1 END) AS BIGINT) AS dup_spans,
       CAST(sum(CASE WHEN keep THEN n_toks ELSE 0 END) AS BIGINT) AS kept_tokens
FROM marked GROUP BY doc_id
""",
        # mirrors dedup.substring_scrub (k=8): ROLLING 8-token grams,
        # first occurrence per hash (min (doc_id, pos)) keeps its text,
        # later occurrences mark their 8 positions removed; surviving
        # tokens re-join with single spaces (fully-scrubbed docs → '')
        "substring_scrub": """
WITH toks AS (SELECT doc_id, string_split(text, ' ') AS t FROM documents),
mx AS (SELECT max(len(t)) AS m FROM toks),
grams AS (
  SELECT doc_id, i AS pos,
         ('0x'||substring(md5(array_to_string(t[i+1:i+8], ' ')),1,16))::UBIGINT AS h
  FROM toks, (SELECT unnest(range(0, (SELECT m FROM mx))) AS i)
  WHERE i + 8 <= len(t)
),
dups AS (
  SELECT doc_id, pos FROM (
    SELECT doc_id, pos, row_number() OVER (PARTITION BY h ORDER BY doc_id, pos) AS rk
    FROM grams) WHERE rk > 1
),
cover AS (
  SELECT DISTINCT doc_id, pos + j AS rpos
  FROM dups, (SELECT unnest(range(0, 8)) AS j)
),
tokrows AS (
  SELECT doc_id, i AS pos, t[i+1] AS tok
  FROM toks, (SELECT unnest(range(0, (SELECT m FROM mx))) AS i)
  WHERE i < len(t)
),
kept AS (
  SELECT tr.doc_id,
         string_agg(tr.tok, ' ' ORDER BY tr.pos) AS text_clean,
         count(*) AS n_kept
  FROM tokrows tr LEFT JOIN cover c ON tr.doc_id = c.doc_id AND tr.pos = c.rpos
  WHERE c.doc_id IS NULL
  GROUP BY tr.doc_id
)
SELECT d.doc_id,
       CAST(len(string_split(d.text, ' ')) AS BIGINT) AS n_tokens,
       CAST(len(string_split(d.text, ' ')) - coalesce(k.n_kept, 0) AS BIGINT) AS n_removed,
       coalesce(k.text_clean, '') AS text_clean
FROM documents d LEFT JOIN kept k USING (doc_id)
""",
        # mirrors boilerplate.dom_templates: the engine hashes the
        # opening-tag sequence parsed from REAL payload bytes; the oracle
        # rebuilds each template string closed-form from the generator
        # plan (testgen.build_html — np divs inside the fixed chrome;
        # filler is comments-only so it cannot split templates)
        "dom_templates": """
WITH dt_p AS (SELECT doc_id FROM documents
              WHERE doc_id % 101 <> 13 AND doc_id % 10 <> 7),
dt_t AS (SELECT doc_id, CASE WHEN doc_id % 50 = 0 THEN 24
                             ELSE 1 + doc_id % 4 END AS np FROM dt_p),
dt_tpl AS (SELECT doc_id,
   'html head title body nav ul li a li a li a li a article'
     || repeat(' div p', np) || ' footer p a a a footer a a a' AS seq
 FROM dt_t)
SELECT CAST(('0x'||substring(md5(seq),1,16))::UBIGINT // 2 AS BIGINT) AS template_h,
       CAST(count(*) AS BIGINT) AS n_docs
FROM dt_tpl GROUP BY 1
""",
        # mirrors boilerplate.host_template_skew: closed-form host and
        # page-count template (bijective with the tag-sequence hash on
        # this corpus) rolled up per host
        "host_template_skew": """
WITH hts_p AS (SELECT doc_id FROM documents
               WHERE doc_id % 101 <> 13 AND doc_id % 10 <> 7),
hts_t AS (SELECT doc_id, 'h' || (doc_id % 23) || '.example.net' AS host,
           CASE WHEN doc_id % 50 = 0 THEN 24 ELSE 1 + doc_id % 4 END AS np
          FROM hts_p),
hts_c AS (SELECT host, np, count(*) AS n FROM hts_t GROUP BY 1, 2),
hts_a AS (SELECT host, sum(n) AS n_docs, count(*) AS n_templates, max(n) AS mx
          FROM hts_c GROUP BY 1)
SELECT host, CAST(n_docs AS BIGINT) AS n_docs,
       CAST(n_templates AS BIGINT) AS n_templates,
       CAST(mx * 1000000 // n_docs AS BIGINT) AS top_share_ppm
FROM hts_a
""",
        "winnow_fingerprints": _WINNOW_CTE
        + """
SELECT DISTINCT doc_id, CAST(fpos AS BIGINT) AS pos, fh AS h
FROM winsel WHERE rk = 1
""",
        # mirrors dedup.fingerprint_matches: pairs sharing ≥2 distinct
        # winnowing fingerprints, after the df ≤ 8 chrome cap
        "fingerprint_matches": _WINNOW_CTE
        + """
, fpd AS (SELECT DISTINCT doc_id, fh AS h FROM winsel WHERE rk = 1),
hdf AS (SELECT h FROM (SELECT h, count(DISTINCT doc_id) AS df FROM fpd GROUP BY h)
        WHERE df BETWEEN 2 AND 8)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, CAST(count(*) AS BIGINT) AS n_shared
FROM fpd a JOIN fpd b ON a.h = b.h AND a.doc_id < b.doc_id JOIN hdf ON hdf.h = a.h
GROUP BY 1, 2 HAVING count(*) >= 2
""",
        "ann_cosine_topk": _ANN_EXACT_TOPK_SQL,
        # mirrors similarity.hard_negatives: the exact-topk query with a
        # different-label mask — contrastive-training data mining
        "hard_negatives": """
WITH q AS (
  SELECT vec_id AS qid, embedding AS qe, label AS ql
  FROM embeddings WHERE vec_id < 8
), s AS (
  SELECT q.qid, e.vec_id, list_cosine_similarity(q.qe, e.embedding) AS sim
  FROM q, embeddings e WHERE e.vec_id != q.qid AND e.label != q.ql
)
SELECT qid, vec_id AS neighbor_id, CAST(rank AS BIGINT) AS rank FROM (
  SELECT qid, vec_id,
         row_number() OVER (PARTITION BY qid ORDER BY sim DESC, vec_id) AS rank
  FROM s
) WHERE rank <= 5
""",
        # mirrors similarity.contrastive_triplets: per query the top-1
        # same-label (positive) and top-1 different-label (negative)
        "contrastive_triplets": """
WITH q AS (
  SELECT vec_id AS qid, embedding AS qe, label AS ql
  FROM embeddings WHERE vec_id < 8
), s AS (
  SELECT q.qid, e.vec_id, (e.label = q.ql) AS same,
         list_cosine_similarity(q.qe, e.embedding) AS sim
  FROM q, embeddings e WHERE e.vec_id != q.qid
), b AS (
  SELECT qid, vec_id, same,
         row_number() OVER (PARTITION BY qid, same
                            ORDER BY sim DESC, vec_id) AS rk
  FROM s
)
SELECT p.qid,
       p.vec_id AS positive_id,
       n.vec_id AS negative_id
FROM (SELECT qid, vec_id FROM b WHERE same AND rk = 1) p
JOIN (SELECT qid, vec_id FROM b WHERE NOT same AND rk = 1) n USING (qid)
""",
        # full-probe IVF is exact: same oracle as the brute-force query
        "ann_ivf_full_probe": _ANN_EXACT_TOPK_SQL,
        "orders_by_nation": """
SELECT n_name,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(floor(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name
""",
        # mirrors relational.interval_join: each order defines a window
        # [o_orderdate, +1 + o_orderkey % 20 days); count windows
        # containing each order's date point (self always matches)
        "interval_join": """
WITH o AS (SELECT o_orderkey,
                  datediff('day', DATE '1970-01-01', CAST(o_orderdate AS DATE)) AS d
           FROM orders),
w AS (SELECT d AS s, d + 1 + o_orderkey % 20 AS e FROM o)
SELECT p.o_orderkey, CAST(count(*) AS BIGINT) AS n_windows
FROM o p JOIN w ON p.d >= w.s AND p.d < w.e
GROUP BY p.o_orderkey
""",
        # mirrors relational.event_transitions: adjacent same-user pairs
        # in (ts, event_id) order, counted per (from, to) type cell
        "event_transitions": """
WITH et_o AS (SELECT user_id, event_type,
                     lead(event_type) OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id) AS nxt
              FROM events)
SELECT event_type AS from_type, nxt AS to_type, CAST(count(*) AS BIGINT) AS n
FROM et_o WHERE nxt IS NOT NULL GROUP BY 1, 2
""",
        # mirrors relational.conversion_paths: order-2 lag pairs anchored
        # on purchase events, per (prev2, prev1) cell
        "conversion_paths": """
WITH cp_o AS (SELECT user_id, event_type,
                     lag(event_type, 1) OVER w AS p1,
                     lag(event_type, 2) OVER w AS p2
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT p2 AS prev2_type, p1 AS prev1_type, CAST(count(*) AS BIGINT) AS n
FROM cp_o WHERE event_type = 'purchase' AND p1 IS NOT NULL AND p2 IS NOT NULL
GROUP BY 1, 2
""",
        # mirrors relational.shipping_priority (the TPC-H Q3 shape):
        # BUILDING segment ⋈ pre-cutoff orders ⋈ post-cutoff lineitems,
        # integer micro revenue, top-10 by (rev DESC, date, orderkey)
        "shipping_priority": """
WITH sp_c AS (SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING'),
sp_o AS (SELECT o_orderkey, o_custkey,
                CAST(epoch_us(o_orderdate) AS BIGINT) AS o_orderdate_us,
                o_orderpriority
         FROM orders WHERE o_orderdate < TIMESTAMP '1998-06-01'),
sp_l AS (SELECT l_orderkey,
                CAST(floor(l_extendedprice*100) AS BIGINT)
                  * (10000 - CAST(floor(l_discount*10000) AS BIGINT)) AS rm
         FROM lineitem WHERE l_shipdate > TIMESTAMP '1998-06-01')
SELECT sp_l.l_orderkey, sp_o.o_orderdate_us, sp_o.o_orderpriority,
       CAST(sum(rm) AS BIGINT) AS revenue_micro
FROM sp_l JOIN sp_o ON sp_l.l_orderkey = sp_o.o_orderkey
JOIN sp_c ON sp_o.o_custkey = sp_c.c_custkey
GROUP BY 1, 2, 3
ORDER BY revenue_micro DESC, o_orderdate_us, l_orderkey LIMIT 10
""",
        # mirrors relational.session_attribution: 8-hour-gap sessions,
        # purchase cents credited to each session's first event type
        "session_attribution": """
WITH sa_e AS (
  SELECT user_id, ts, event_id, event_type, value,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL 8 HOURS
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), sa_s AS (
  SELECT user_id, ts, event_id, event_type, value,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM sa_e
), sa_f AS (
  SELECT user_id, sid, event_type,
         row_number() OVER (PARTITION BY user_id, sid ORDER BY ts, event_id) AS rn
  FROM sa_s
), sa_ft AS (SELECT user_id, sid, event_type AS first_type FROM sa_f WHERE rn = 1),
sa_rev AS (
  SELECT user_id, sid,
         sum(CASE WHEN event_type = 'purchase'
                  THEN CAST(floor(value * 100) AS BIGINT) ELSE 0 END) AS cents
  FROM sa_s GROUP BY 1, 2
)
SELECT first_type, CAST(count(*) AS BIGINT) AS n_sessions,
       CAST(sum(cents) AS BIGINT) AS revenue_cents
FROM sa_ft JOIN sa_rev USING (user_id, sid) GROUP BY 1
""",
        # mirror of pipelines/relational.py::revenue_cube — the finest
        # (nation, priority) grain partitions every coarser set, so the
        # grouping-sets result equals the remasked rollup of base rows
        "revenue_cube": """
SELECT coalesce(n_name, 'ALL') AS n_name,
       coalesce(o_orderpriority, 'ALL') AS o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(floor(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY GROUPING SETS ((n_name, o_orderpriority), (n_name), (o_orderpriority), ())
""",
        "revenue_by_priority": """
SELECT o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_items,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
""",
        "pricing_summary": """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(floor(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(floor(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
           AS sum_base_cents,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT)
           AS sum_disc_cents,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * (1 + l_tax) * 100) AS BIGINT)) AS BIGINT)
           AS sum_charge_cents,
       CAST(count(*) AS BIGINT) AS n_rows
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1999-01-01'
GROUP BY l_returnflag, l_linestatus
""",
        "dormant_customers": """
SELECT c_custkey, c_name,
       CAST(floor(c_acctbal * 100) AS BIGINT) AS acctbal_cents
FROM customer c
WHERE NOT EXISTS (
  SELECT 1 FROM orders o
  WHERE o.o_custkey = c.c_custkey
    AND o.o_orderdate >= TIMESTAMP '2001-06-01'
)
""",
        "active_segments": """
SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n_customers
FROM customer c
WHERE EXISTS (
  SELECT 1 FROM orders o
  WHERE o.o_custkey = c.c_custkey
    AND o.o_orderdate >= TIMESTAMP '2001-06-01'
)
GROUP BY c_mktsegment
""",
        "user_event_ledger": """
SELECT event_id, user_id,
       CAST(epoch_us(ts) AS BIGINT) AS ts_us,
       CAST(sum(CAST(floor(value * 100) AS BIGINT))
                OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_cents,
       CAST(coalesce(epoch_us(ts) - lag(epoch_us(ts))
                OVER (PARTITION BY user_id ORDER BY ts, event_id), -1)
            AS BIGINT) AS gap_us
FROM events
""",
        "asof_purchase_view": """
WITH p AS (
  SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'
), v AS (
  SELECT user_id, ts FROM events WHERE event_type = 'view'
)
SELECT p.event_id, p.user_id,
       CAST(COALESCE(epoch_us(max(v.ts)), -1) AS BIGINT) AS view_ts_us
FROM p LEFT JOIN v ON v.user_id = p.user_id AND v.ts <= p.ts
GROUP BY p.event_id, p.user_id
""",
        # mirrors relational.events_funnel: greedy earliest-completion
        # view→click→purchase chain, each step strictly later than and
        # within 24h of the prior step's reach time
        "events_funnel": """
WITH t1 AS (
  SELECT user_id, min(epoch_us(ts)) AS ts1
  FROM events WHERE event_type = 'view' GROUP BY user_id
),
t2 AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS ts2
  FROM events e JOIN t1 ON e.user_id = t1.user_id
  WHERE e.event_type = 'click' AND epoch_us(e.ts) > t1.ts1
    AND epoch_us(e.ts) <= t1.ts1 + 86400000000
  GROUP BY e.user_id
),
t3 AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS ts3
  FROM events e JOIN t2 ON e.user_id = t2.user_id
  WHERE e.event_type = 'purchase' AND epoch_us(e.ts) > t2.ts2
    AND epoch_us(e.ts) <= t2.ts2 + 86400000000
  GROUP BY e.user_id
)
SELECT CAST(t1.user_id AS BIGINT) AS user_id,
       CAST(CASE WHEN ts3 IS NOT NULL THEN 3
                 WHEN ts2 IS NOT NULL THEN 2 ELSE 1 END AS BIGINT) AS depth,
       CAST(ts1 AS BIGINT) AS start_us,
       CAST(coalesce(ts3, ts2, ts1) AS BIGINT) AS end_us
FROM t1 LEFT JOIN t2 ON t1.user_id = t2.user_id
        LEFT JOIN t3 ON t1.user_id = t3.user_id
""",
        "events_sessions": """
WITH e AS (
  SELECT user_id, ts, event_id,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR ts - lag(ts) OVER w > INTERVAL 8 HOURS
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT user_id, ts,
         sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                          ROWS UNBOUNDED PRECEDING) AS session_id
  FROM e
)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(epoch_us(min(ts)) AS BIGINT) AS start_us,
       CAST(epoch_us(max(ts)) AS BIGINT) AS end_us
FROM s GROUP BY user_id, session_id
""",
        "events_sliding": """
SELECT user_id,
       CAST((epoch_us(ts) // 3600000000 - k) * 3600000000 AS BIGINT) AS window_start_us,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents
FROM events CROSS JOIN (SELECT unnest(generate_series(0, 1)) AS k)
GROUP BY user_id, window_start_us
""",
        "price_histogram": """
SELECT CAST(least(floor(l_extendedprice / (200000.0 / 256)), 255) AS BIGINT) AS bin_id,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem GROUP BY bin_id
""",
        "distinct_users_exact": """
SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS n_users FROM events
""",
        "events_hourly": """
SELECT user_id,
       CAST(epoch_us(ts) // 3600000000 AS BIGINT) AS hour_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_cents
FROM events GROUP BY user_id, hour_id
""",
        "event_type_reach": """
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type
""",
        # floor before the cents sum mirrors the engine's per-row
        # np.floor(ep·(1-disc)·100) — identical left-assoc DOUBLE ops
        "brand_region_revenue": """
SELECT p.p_brand, r.r_name,
       CAST(count(*) AS BIGINT) AS n_items,
       CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem l
JOIN part p ON p.p_partkey = l.l_partkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n ON n.n_nationkey = s.s_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
GROUP BY 1, 2
""",
        # json_extract mirrors the engine's regex field pull (flat
        # integer field; every row parses in this corpus)
        "props_field_stats": """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(0 AS BIGINT) AS n_missing,
       CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       CAST(min(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS min_k,
       CAST(max(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS max_k
FROM events GROUP BY event_type
""",
        # the full curation chain as CTEs: quality gate (same rule as
        # quality_filter) → decontaminate (same overlap rule) → exact
        # dedup (min doc_id per text) → md5-ranked per-lang quota
        "curate_corpus": """
WITH cc_q AS (
  SELECT doc_id, lang, text,
         len(regexp_extract_all(text, '[a-z]+')) AS nt,
         len(regexp_extract_all(text, '\\b(?:the|a|and|of|to)\\b')) AS ns
  FROM documents
),
cc_f AS (
  SELECT doc_id, lang, text FROM cc_q
  WHERE nt >= 20
    AND CASE WHEN nt = 0 THEN 0 ELSE (1000000 * ns) // nt END <= 500000
),
cc_tk AS (
  SELECT doc_id, lang, text, regexp_extract_all(text, '[a-z]+') AS t FROM cc_f
),
cc_sh AS (
  SELECT doc_id, lang, text,
         list_distinct(list_transform(range(1, greatest(len(t)-2,0)+1),
             i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])) AS sh
  FROM cc_tk
),
cc_ball AS (
  SELECT doc_id, regexp_extract_all(text, '[a-z]+') AS t FROM documents
  WHERE doc_id % 97 = 3
),
cc_bsh AS (
  SELECT doc_id, list_distinct(list_transform(range(1, greatest(len(t)-2,0)+1),
             i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])) AS sh
  FROM cc_ball
),
cc_bench AS (
  SELECT list(DISTINCT u.s) AS bs FROM cc_bsh, unnest(cc_bsh.sh) AS u(s)
),
cc_dc AS (
  SELECT d.doc_id, d.lang, d.text
  FROM cc_sh d CROSS JOIN cc_bench b
  WHERE CASE WHEN len(d.sh) = 0 THEN 0
        ELSE CAST(floor(CAST(len(list_intersect(d.sh, COALESCE(b.bs, []))) AS DOUBLE)
                  / len(d.sh) * 1000000) AS BIGINT) END <= 800000
),
cc_keep AS (SELECT min(doc_id) AS doc_id FROM cc_dc GROUP BY text),
cc_surv AS (SELECT d.doc_id, d.lang FROM cc_dc d JOIN cc_keep USING (doc_id)),
cc_h AS (
  SELECT lang, doc_id,
         ('0x'||substring(md5(CAST(doc_id AS VARCHAR)),1,16))::UBIGINT AS hh
  FROM cc_surv
)
SELECT lang, CAST(doc_id AS BIGINT) AS doc_id, CAST(rank AS BIGINT) AS rank FROM (
  SELECT lang, doc_id,
         row_number() OVER (PARTITION BY lang ORDER BY hh, doc_id) AS rank
  FROM cc_h
) WHERE rank <= 50
""",
        # zero-based rank (n-1)*50//100 of the per-lang sorted multiset —
        # tie-order independent, same convention as priority_price_quantiles
        "above_median_docs": """
WITH amd_r AS (
  SELECT lang, n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars) - 1 AS rn,
         count(*) OVER (PARTITION BY lang) AS n
  FROM documents
),
amd_med AS (
  SELECT lang, n_chars AS med FROM amd_r WHERE rn = ((n - 1) * 50) // 100
)
SELECT d.doc_id, d.lang, CAST(d.n_chars AS BIGINT) AS n_chars
FROM documents d JOIN amd_med m USING (lang)
WHERE d.n_chars > m.med
""",
        # mirror of pipelines/dataops.py::mad_outliers — LOWER medians
        # (zero-based order statistic (n−1)//2) for both the center and
        # the absolute deviation; Hampel-style gate at 2·MAD (≈3σ under
        # normality with the 1.4826 factor folded in), exact integers
        "mad_outliers": """
WITH mo_r AS (
  SELECT n_chars,
         row_number() OVER (ORDER BY n_chars) - 1 AS rn,
         count(*) OVER () AS n
  FROM documents
),
mo_med AS (SELECT n_chars AS med FROM mo_r WHERE rn = (n - 1) // 2),
mo_d AS (
  SELECT abs(d.n_chars - m.med) AS ad,
         row_number() OVER (ORDER BY abs(d.n_chars - m.med)) - 1 AS rn,
         count(*) OVER () AS n
  FROM documents d, mo_med m
),
mo_mad AS (SELECT ad AS mad FROM mo_d WHERE rn = (n - 1) // 2)
SELECT d.doc_id,
       CAST(d.n_chars AS BIGINT) AS n_chars,
       CAST(abs(d.n_chars - m.med) AS BIGINT) AS abs_dev,
       CAST(CASE WHEN abs(d.n_chars - m.med) > 2 * x.mad THEN 1 ELSE 0 END
            AS BIGINT) AS is_outlier
FROM documents d, mo_med m, mo_mad x
""",
        # Monday-truncated week index since 1970-01-05 mirrors the
        # engine's (epoch_days - 4) // 7 cohort arithmetic
        "cohort_retention": """
WITH cr_uw AS (
  SELECT DISTINCT user_id,
         CAST(datediff('day', DATE '1970-01-05',
                       CAST(date_trunc('week', ts) AS DATE)) // 7 AS BIGINT) AS wk
  FROM events
),
cr_c AS (SELECT user_id, min(wk) AS cohort_wk FROM cr_uw GROUP BY user_id)
SELECT c.cohort_wk, CAST(uw.wk - c.cohort_wk AS BIGINT) AS week_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM cr_uw uw JOIN cr_c c USING (user_id)
GROUP BY 1, 2
""",
        # G5 merge mirror (reference index.ts:435-443, 539-552): per-page
        # first_token entries in page order + full-doc n_tokens over the
        # "\n<hr><hr>\n"-joined content, exactly the key-sorted compact
        # JSON that extraction.py::DocumentExtractor emits.
        "extract_documents": _PAGES_CTE
        + r"""
, ok AS (SELECT * FROM pages WHERE NOT is_err),
agg AS (
  SELECT url,
         '{"first_token":['
         || string_agg('{"page":' || page_index || ',"value":"'
                       || regexp_extract(content, '[a-z]+') || '"}',
                       ',' ORDER BY page_index)
         || '],"n_tokens":'
         || len(regexp_extract_all(
                string_agg(content, e'\n<hr><hr>\n' ORDER BY page_index),
                '[a-z]+'))
         || '}' AS extracted
  FROM ok GROUP BY url
)
SELECT url, extracted FROM agg
UNION ALL
SELECT DISTINCT url, '{}' AS extracted FROM pages WHERE is_err
""",
        # direct extraction over RAW fragments: the fragment bytes are the
        # deterministic testgen containers — pdf pages are the bare text
        # chunk, html pages are nav + page-div(escaped chunk) + footer
        # (testgen.build_html / htmlx.split_html_pages)
        "extract_direct": """
WITH p AS (
  SELECT doc_id, text,
         'https://example.org/doc/' || doc_id AS url,
         (doc_id % 10 = 7) AS is_pdf,
         CASE WHEN doc_id % 50 = 0 THEN 24
              ELSE 1 + (doc_id % 4) END AS np,
         n.n AS n_docs
  FROM documents, (SELECT count(*) AS n FROM documents) n
  WHERE doc_id % 101 != 13
),
pg AS (
  SELECT url, is_pdf, text, doc_id, n_docs,
         unnest(generate_series(1, np)) AS page_index,
         CAST(ceil(CAST(length(text) AS DOUBLE) / np) AS BIGINT) AS L
  FROM p
),
fr AS (
  SELECT url, page_index,
         CASE WHEN is_pdf THEN substring(text, (page_index - 1) * L + 1, L)
              ELSE '<nav class="site-nav"><ul><li><a href="/">home</a></li><li><a href="/about">about us</a></li><li><a href="/contact">contact</a></li><li><a href="/login">log in</a></li></ul></nav>'
                   || chr(10) || '<div class="page" data-page="' || page_index || '"><p>'
                   || replace(replace(replace(substring(text, (page_index - 1) * L + 1, L),
                          '&', '&amp;'), '<', '&lt;'), '>', '&gt;')
                   || '</p></div>' || chr(10)
                   || '<footer><p><a href="/terms">terms of service</a> <a href="/privacy">privacy policy</a> <a href="/sitemap">site map</a> (c) example</p></footer>'
                   || chr(10)
                   || '<footer class="related">'
                   || '<a href="https://example.org/doc/' || ((doc_id * 31 + 3) % n_docs) || '">related 0</a> '
                   || '<a href="https://example.org/doc/' || ((doc_id * 31 + 10) % n_docs) || '">related 1</a> '
                   || '<a href="https://example.org/doc/' || ((doc_id * 31 + 17) % n_docs) || '">related 2</a> '
                   || '</footer>'
         END AS frag
  FROM pg
)
SELECT url, CAST(page_index AS BIGINT) AS page_index,
       regexp_extract(frag, '[a-z]+') AS first_token,
       CAST(len(regexp_extract_all(frag, '[a-z]+')) AS BIGINT) AS n_tokens
FROM fr
""",
        # mirrors dataops._lang_id_batch: count per function-word profile,
        # argmax with alphabetical tie-break (CASE order = column order of
        # the sorted profile dict), 'und' when nothing matches
        "lang_id": r"""
WITH c AS (
  SELECT doc_id,
    CAST(len(regexp_extract_all(text, '\b(?:der|die|und|das|ein|ist|zu|den|mit|nicht)\b')) AS BIGINT) AS de,
    CAST(len(regexp_extract_all(text, '\b(?:the|and|of|to|a|in|is|that|it|for)\b')) AS BIGINT) AS en,
    CAST(len(regexp_extract_all(text, '\b(?:el|de|que|y|en|un|ser|se|no|por)\b')) AS BIGINT) AS es,
    CAST(len(regexp_extract_all(text, '\b(?:le|la|et|les|des|un|est|une|dans|que)\b')) AS BIGINT) AS fr,
    CAST(len(regexp_extract_all(text, '\b(?:il|di|che|e|la|per|un|in|non|una)\b')) AS BIGINT) AS it
  FROM documents
)
SELECT doc_id,
       CASE WHEN greatest(de, en, es, fr, it) = 0 THEN 'und'
            WHEN de = greatest(de, en, es, fr, it) THEN 'de'
            WHEN en = greatest(de, en, es, fr, it) THEN 'en'
            WHEN es = greatest(de, en, es, fr, it) THEN 'es'
            WHEN fr = greatest(de, en, es, fr, it) THEN 'fr'
            ELSE 'it' END AS pred_lang,
       greatest(de, en, es, fr, it) AS n_matches
FROM c
""",
        # mirrors dataops.lang_confusion: the lang_id argmax joined back
        # to the metadata lang column, grouped into the agreement matrix
        "lang_confusion": r"""
WITH c AS (
  SELECT doc_id,
    CAST(len(regexp_extract_all(text, '\b(?:der|die|und|das|ein|ist|zu|den|mit|nicht)\b')) AS BIGINT) AS de,
    CAST(len(regexp_extract_all(text, '\b(?:the|and|of|to|a|in|is|that|it|for)\b')) AS BIGINT) AS en,
    CAST(len(regexp_extract_all(text, '\b(?:el|de|que|y|en|un|ser|se|no|por)\b')) AS BIGINT) AS es,
    CAST(len(regexp_extract_all(text, '\b(?:le|la|et|les|des|un|est|une|dans|que)\b')) AS BIGINT) AS fr,
    CAST(len(regexp_extract_all(text, '\b(?:il|di|che|e|la|per|un|in|non|una)\b')) AS BIGINT) AS it
  FROM documents
),
pl AS (
  SELECT doc_id,
         CASE WHEN greatest(de, en, es, fr, it) = 0 THEN 'und'
              WHEN de = greatest(de, en, es, fr, it) THEN 'de'
              WHEN en = greatest(de, en, es, fr, it) THEN 'en'
              WHEN es = greatest(de, en, es, fr, it) THEN 'es'
              WHEN fr = greatest(de, en, es, fr, it) THEN 'fr'
              ELSE 'it' END AS pred_lang
  FROM c
)
SELECT d.lang, pl.pred_lang, CAST(count(*) AS BIGINT) AS n_docs
FROM documents d JOIN pl USING (doc_id)
GROUP BY d.lang, pl.pred_lang
""",
        # mirrors dataops.corpus_split: md5-hash-range holdout assignment
        # (test < 50k ppm, val < 150k ppm, train otherwise)
        "corpus_split": """
SELECT doc_id,
       CASE WHEN h < 50000 THEN 'test'
            WHEN h < 150000 THEN 'val'
            ELSE 'train' END AS split
FROM (
  SELECT doc_id,
         ('0x' || substring(md5(CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT
           % 1000000 AS h
  FROM documents
)
""",
        # mirrors dataops.sample_documents: md5-derived 64-bit hash of the
        # decimal doc_id string, kept when h % 1e6 < rate_ppm
        "sample_documents": """
SELECT doc_id FROM documents
WHERE ('0x' || substring(md5(CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT
      % 1000000 < 100000
""",
        # mirrors hashing.rolling_fingerprint: Horner fold of md5-derived
        # 64-bit token hashes mod 2^64, emitted as the int64 bit pattern
        "doc_fingerprints": """
WITH f AS (
  SELECT doc_id,
         list_reduce(
           list_prepend(CAST(0 AS HUGEINT),
             list_transform(regexp_extract_all(text, '[a-z]+'),
               t -> CAST(('0x' || substring(md5(t), 1, 16))::UBIGINT AS HUGEINT))),
           (h, x) -> (h * 1000003 + x) % 18446744073709551616::HUGEINT
         ) AS fp
  FROM documents
)
SELECT doc_id,
       CAST(CASE WHEN fp >= 9223372036854775808::HUGEINT
                 THEN fp - 18446744073709551616::HUGEINT
                 ELSE fp END AS BIGINT) AS fingerprint
FROM f
""",
        # mirrors dedup.containment_pairs: the SAME banded candidates as
        # dedup_minhash_lsh, re-scored with exact-integer asymmetric
        # containment ((1e6·inter)//n; empty shingle set → 1e6)
        "containment_pairs": "WITH "
        + _minhash_pairs_ctes()
        + """,
ct AS (
  SELECT c.doc_a, c.doc_b,
         len(list_intersect(sa.sh, sb.sh)) AS inter,
         len(sa.sh) AS na, len(sb.sh) AS nb
  FROM mh_cand c
  JOIN mh_sh sa ON sa.doc_id = c.doc_a
  JOIN mh_sh sb ON sb.doc_id = c.doc_b
),
cts AS (
  SELECT doc_a, doc_b,
         CAST(CASE WHEN na = 0 THEN 1000000
              ELSE (1000000 * inter) // na END AS BIGINT) AS c_ab_ppm,
         CAST(CASE WHEN nb = 0 THEN 1000000
              ELSE (1000000 * inter) // nb END AS BIGINT) AS c_ba_ppm,
         CAST(CASE WHEN na + nb - inter = 0 THEN 1000000
              ELSE (1000000 * inter) // (na + nb - inter) END AS BIGINT) AS jaccard_ppm
  FROM ct
)
SELECT doc_a, doc_b, c_ab_ppm, c_ba_ppm, jaccard_ppm
FROM cts WHERE greatest(c_ab_ppm, c_ba_ppm) >= 900000
""",
        "dedup_minhash_lsh": "WITH "
        + _minhash_pairs_ctes()
        + "\nSELECT doc_a, doc_b, jaccard_ppm FROM mh_pairs",
        "fuzzy_match": _fuzzy_match_sql(),
        # connected components over the verified pairs via recursive
        # min-label closure; survivors = docs that are not a non-min
        # member of any component (dedup.minhash_dedup_docs semantics:
        # cluster_id == doc_id for every surviving row)
        # near-dup cluster-size histogram over the same components;
        # docs in no verified pair are singleton clusters
        "neardup_cluster_sizes": "WITH RECURSIVE "
        + _minhash_pairs_ctes()
        + """,
mh_edges AS (
  SELECT doc_a AS s, doc_b AS d FROM mh_pairs
  UNION ALL
  SELECT doc_b, doc_a FROM mh_pairs
),
mh_comp(node, label) AS (
  SELECT s, s FROM mh_edges
  UNION
  SELECT e.d, c.label FROM mh_comp c JOIN mh_edges e ON e.s = c.node
),
mh_lab AS (SELECT node, min(label) AS label FROM mh_comp GROUP BY node),
mh_sizes AS (SELECT label, count(*) sz FROM mh_lab GROUP BY label),
mh_hist AS (SELECT sz, count(*) nc FROM mh_sizes GROUP BY sz),
mh_single AS (SELECT (SELECT count(*) FROM documents)
                     - (SELECT count(*) FROM mh_lab) AS n)
SELECT CAST(cluster_size AS BIGINT) AS cluster_size,
       CAST(sum(n_clusters) AS BIGINT) AS n_clusters
FROM (
  SELECT sz AS cluster_size, nc AS n_clusters FROM mh_hist
  UNION ALL
  SELECT 1, n FROM mh_single WHERE n > 0
) GROUP BY cluster_size""",
        "dedup_minhash_keepers": "WITH RECURSIVE "
        + _minhash_pairs_ctes()
        + """,
mh_edges AS (
  SELECT doc_a AS s, doc_b AS d FROM mh_pairs
  UNION ALL
  SELECT doc_b, doc_a FROM mh_pairs
),
mh_comp(node, label) AS (
  SELECT s, s FROM mh_edges
  UNION
  SELECT e.d, c.label FROM mh_comp c JOIN mh_edges e ON e.s = c.node
),
mh_lab AS (SELECT node, min(label) AS label FROM mh_comp GROUP BY node)
SELECT doc_id, doc_id AS cluster_id FROM documents
WHERE doc_id NOT IN (SELECT node FROM mh_lab WHERE label < node)""",
        # mirrors dedup.leakage_safe_split: near-dup-component label per
        # doc (self if unpaired), split hashed at CLUSTER granularity so
        # near-dups never straddle train/held-out
        "leakage_safe_split": "WITH RECURSIVE "
        + _minhash_pairs_ctes()
        + """,
mh_edges AS (
  SELECT doc_a AS s, doc_b AS d FROM mh_pairs
  UNION ALL
  SELECT doc_b, doc_a FROM mh_pairs
),
mh_comp(node, label) AS (
  SELECT s, s FROM mh_edges
  UNION
  SELECT e.d, c.label FROM mh_comp c JOIN mh_edges e ON e.s = c.node
),
mh_lab AS (SELECT node, min(label) AS label FROM mh_comp GROUP BY node),
lss_lab AS (
  SELECT d.doc_id, coalesce(l.label, d.doc_id) AS cluster_id
  FROM documents d LEFT JOIN mh_lab l ON l.node = d.doc_id
)
SELECT doc_id, cluster_id,
       CASE WHEN h < 50000 THEN 'test'
            WHEN h < 150000 THEN 'val'
            ELSE 'train' END AS split
FROM (
  SELECT doc_id, cluster_id,
         ('0x' || substring(md5(CAST(cluster_id AS VARCHAR)), 1, 16))::UBIGINT
           % 1000000 AS h
  FROM lss_lab
)""",
        "dedup_simhash_signatures": "WITH "
        + _simhash_ctes()
        + "\nSELECT doc_id, simhash, block0, block1, block2, block3 FROM sh_sig",
        "dedup_simhash": "WITH "
        + _simhash_ctes()
        + """,
sh_blocks AS (
  SELECT doc_id, s_u, b.block_id,
         CASE b.block_id WHEN 0 THEN block0 WHEN 1 THEN block1
              WHEN 2 THEN block2 ELSE block3 END AS key
  FROM sh_sig CROSS JOIN (SELECT unnest(range(0,4)) AS block_id) b
),
sh_pairs AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b,
         CAST(bit_count(xor(x.s_u, y.s_u)) AS BIGINT) AS hamming
  FROM sh_blocks x JOIN sh_blocks y
    ON x.block_id = y.block_id AND x.key = y.key AND x.doc_id < y.doc_id
)
SELECT doc_a, doc_b, hamming FROM sh_pairs WHERE hamming <= 3""",
        "dedup_ngram_jaccard": _NGRAM_JACCARD_SQL,
        # mirrors dataops.repetition_scores: per-doc max bigram count,
        # integer ppm fraction (2*top*1e6 // n_tokens)
        "repetition_scores": """
WITH rs_tk AS (
  SELECT doc_id, regexp_extract_all(text, '[a-z]+') AS t FROM documents
),
rs_bg AS (
  SELECT doc_id, len(t) AS n,
         list_transform(range(1, greatest(len(t)-1,0)+1), i -> t[i] || ' ' || t[i+1]) AS bg
  FROM rs_tk
),
rs_cnt AS (
  SELECT doc_id, u.s AS bigram, count(*) AS c
  FROM rs_bg, unnest(rs_bg.bg) AS u(s)
  GROUP BY doc_id, u.s
),
rs_max AS (SELECT doc_id, max(c) AS top FROM rs_cnt GROUP BY doc_id)
SELECT b.doc_id, CAST(b.n AS BIGINT) AS n_tokens,
       CAST(CASE WHEN m.top IS NULL THEN 0
            ELSE (2 * m.top * 1000000) // b.n END AS BIGINT) AS top_bigram_ppm
FROM rs_bg b LEFT JOIN rs_max m USING (doc_id)
""",
        # mirrors dataops.top_ngrams: global bigram counts, top-20 with
        # the same deterministic tie-break (count DESC, ngram ASC)
        "top_ngrams": """
WITH tn_tk AS (
  SELECT regexp_extract_all(text, '[a-z]+') AS t FROM documents
),
tn_bg AS (
  SELECT unnest(list_transform(range(1, greatest(len(t)-1,0)+1),
                i -> t[i] || ' ' || t[i+1])) AS ngram
  FROM tn_tk
)
SELECT ngram, CAST(count(*) AS BIGINT) AS n_occurrences
FROM tn_bg GROUP BY ngram
ORDER BY n_occurrences DESC, ngram LIMIT 20
""",
        # mirrors dataops.token_shards: exclusive prefix token count in
        # doc_id order, integer-divided by the shard budget
        "token_shards": """
WITH ts_tok AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '[a-z]+')) AS BIGINT) AS n_tokens
  FROM documents
),
ts_cum AS (
  SELECT doc_id, n_tokens,
         COALESCE(sum(n_tokens) OVER (ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS excl
  FROM ts_tok
)
SELECT doc_id, n_tokens, CAST(excl // 50000 AS BIGINT) AS shard_id FROM ts_cum
""",
        # mirrors dataops.packed_sequences: global doc_id-order prefix
        # offsets, one row per (doc × 128-token sequence) overlap;
        # wrap-around packing, so docs straddle sequence boundaries
        "packed_sequences": """
WITH ps_tok AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '[a-z]+')) AS BIGINT) AS n
  FROM documents
),
ps_cum AS (
  SELECT doc_id, n,
         CAST(COALESCE(sum(n) OVER (ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS o
  FROM ps_tok
),
ps_seq AS (
  SELECT doc_id, n, o,
         unnest(range(o // 128, (o + n - 1) // 128 + 1)) AS seq_id
  FROM ps_cum WHERE n > 0
)
SELECT doc_id, CAST(seq_id AS BIGINT) AS seq_id,
       CAST(greatest(o, seq_id * 128) - seq_id * 128 AS BIGINT) AS seq_off,
       CAST(least(o + n, (seq_id + 1) * 128)
            - greatest(o, seq_id * 128) AS BIGINT) AS n_tok
FROM ps_seq
""",
        # mirrors dataops.token_chunks: sliding windows of 64 tokens
        # every 48 over the [a-z]+ token stream, 1-based list slicing
        "token_chunks": """
WITH tc_tok AS (
  SELECT doc_id, regexp_extract_all(text, '[a-z]+') AS ts,
         len(regexp_extract_all(text, '[a-z]+')) AS n
  FROM documents
),
tc_starts AS (
  SELECT doc_id, ts, n, unnest(range(0, n, 48)) AS s FROM tc_tok WHERE n > 0
)
SELECT doc_id,
       CAST(s // 48 AS BIGINT) AS chunk_id,
       CAST(least(n - s, 64) AS BIGINT) AS n_tok,
       array_to_string(ts[s + 1 : least(s + 64, n)], ' ') AS chunk_text
FROM tc_starts
""",
        # mirrors dataops.decontaminate: held-out slice doc_id%97==3 is
        # the benchmark; overlap = |sh ∩ bench| / |sh| (ppm floor, same
        # divide-then-multiply float order); survivors ≤ 800000 ppm
        "decontaminate": """
WITH dc_tk AS (
  SELECT doc_id, regexp_extract_all(text, '[a-z]+') AS t FROM documents
),
dc_sh AS (
  SELECT doc_id, list_distinct(list_transform(range(1, greatest(len(t)-2,0)+1),
      i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])) AS sh
  FROM dc_tk
),
dc_bench AS (
  SELECT list(DISTINCT u.s) AS bs
  FROM dc_sh, unnest(dc_sh.sh) AS u(s)
  WHERE doc_id % 97 = 3
),
dc_ov AS (
  SELECT d.doc_id,
         CASE WHEN len(d.sh) = 0 THEN 0
              ELSE CAST(floor(CAST(len(list_intersect(d.sh, COALESCE(b.bs, []))) AS DOUBLE)
                        / len(d.sh) * 1000000) AS BIGINT)
         END AS overlap_ppm
  FROM dc_sh d CROSS JOIN dc_bench b
)
SELECT doc_id, overlap_ppm FROM dc_ov WHERE overlap_ppm <= 800000
""",
        "dedup_embedding_cosine": _embed_cosine_sql(),
        "distinct_users_hll": _hll_sql(),
        "event_type_reach_hll": _hll_grouped_sql(),
        "kmeans_clusters": _kmeans_sql(),
        # mirrors similarity.pq_codes: m unrolled per-subspace Lloyd
        # chains (same integer conventions as kmeans), joined on vec_id
        "pq_codes": _pq_sql(),
        # mirrors similarity.ann_pq_adc_topk: asymmetric distance over
        # the same trained codebooks, rank by (Σ subspace L2², vec_id)
        "ann_pq_adc_topk": _pq_adc_sql(),
        # mirrors similarity.pq_distortion: per-vector assigned-centroid
        # L2² sum over the same chains
        "pq_distortion": _pq_distortion_sql(),
        # synthetic web graph: engine extracts hrefs from the real html
        # bytes; the oracle replays the generator closed form
        "link_graph": _PR_EDGES_CTE
        + """
SELECT 'https://example.org/doc/' || src AS src,
       'https://example.org/doc/' || dst AS dst
FROM pr_edges
""",
        "page_inlinks": _PR_EDGES_CTE
        + """
SELECT 'https://example.org/doc/' || dst AS dst,
       CAST(count(*) AS BIGINT) AS n_inlinks
FROM pr_edges GROUP BY dst
""",
        "pagerank": _pagerank_sql(),
        "personalized_pagerank": _ppr_sql(),
        "local_clustering": _LOCAL_CLUSTERING_SQL,
        "adamic_adar": _ADAMIC_ADAR_SQL,
        # host family: multihost corpus (testgen.mh_url — 23 hosts);
        # every edge replayable from doc_id via related_links + host map
        "host_graph": _MH_EDGES_CTE
        + """
SELECT src_host, dst_host, CAST(count(*) AS BIGINT) AS n_links
FROM mh_edges GROUP BY src_host, dst_host""",
        "host_rank": _host_rank_sql(),
        "degree_distribution": _PR_EDGES_CTE
        + """,
dd_out AS (SELECT src, count(*) AS deg FROM pr_edges GROUP BY src),
dd_in AS (SELECT dst, count(*) AS deg FROM pr_edges GROUP BY dst)
SELECT 'out' AS direction, CAST(deg AS BIGINT) AS degree,
       CAST(count(*) AS BIGINT) AS n_urls
FROM dd_out GROUP BY deg
UNION ALL
SELECT 'in', CAST(deg AS BIGINT), CAST(count(*) AS BIGINT)
FROM dd_in GROUP BY deg""",
        # undirected triangle census — the oracle counts with a plain
        # triple self-join (orientation-free); the engine's degree-
        # oriented node-iterator must land on the same invariant totals
        "triangle_stats": _PR_EDGES_CTE
        + """,
tr_e AS (SELECT DISTINCT least(src, dst) a, greatest(src, dst) b
         FROM pr_edges WHERE src <> dst),
tr_deg AS (SELECT v, count(*) deg
           FROM (SELECT a v FROM tr_e UNION ALL SELECT b FROM tr_e)
           GROUP BY v),
tr AS (SELECT
  (SELECT count(*) FROM tr_deg) n_nodes,
  (SELECT count(*) FROM tr_e) n_edges,
  (SELECT sum(deg * (deg - 1) // 2) FROM tr_deg) n_wedges,
  (SELECT count(*) FROM tr_e e1
     JOIN tr_e e2 ON e2.a = e1.a AND e2.b > e1.b
     JOIN tr_e e3 ON e3.a = e1.b AND e3.b = e2.b) n_triangles)
SELECT CAST(n_nodes AS BIGINT) AS n_nodes, CAST(n_edges AS BIGINT) AS n_edges,
       CAST(n_wedges AS BIGINT) AS n_wedges,
       CAST(n_triangles AS BIGINT) AS n_triangles,
       CAST(CASE WHEN n_wedges > 0
                 THEN 3 * n_triangles * 1000000 // n_wedges
                 ELSE 0 END AS BIGINT) AS global_clustering_ppm
FROM tr""",
        # degree assortativity: Pearson over endpoint degrees counted
        # once per direction — Σx=Σy makes the ratio exact-integer;
        # DuckDB // truncates toward zero, mirrored by the engine
        "degree_assortativity": _PR_EDGES_CTE
        + """,
da_e AS (
  SELECT DISTINCT a, b FROM (
    SELECT src AS a, dst AS b FROM pr_edges WHERE src <> dst
    UNION ALL
    SELECT dst AS a, src AS b FROM pr_edges WHERE src <> dst
  )
),
da_d AS (SELECT a, count(*) AS d FROM da_e GROUP BY a),
da_x AS (SELECT x.d AS dx, y.d AS dy
         FROM da_e e JOIN da_d x ON e.a = x.a JOIN da_d y ON e.b = y.a),
da_s AS (SELECT count(*)::HUGEINT AS n, sum(dx)::HUGEINT AS sx,
                sum(dx * dx)::HUGEINT AS sxx, sum(dx * dy)::HUGEINT AS sxy
         FROM da_x)
SELECT CAST((SELECT count(*) FROM da_d) AS BIGINT) AS n_nodes,
       CAST(n // 2 AS BIGINT) AS n_edges,
       CAST(CASE WHEN n * sxx - sx * sx = 0 THEN 0
            ELSE (1000 * (n * sxy - sx * sx)) // (n * sxx - sx * sx)
            END AS BIGINT) AS assortativity_milli
FROM da_s""",
        # deterministic walks: seed at h63(url) % 16 = 0, step s picks
        # out-edge rank (h63(cur)+s) mod outdeg in dst-url order —
        # unrolled to the engine's 3 steps; walks stop at leaf pages
        "random_walks": _PR_EDGES_CTE
        + f""",
rw_u AS (SELECT DISTINCT 'https://example.org/doc/' || doc_id AS url
         FROM documents),
rw_re AS (
  SELECT 'https://example.org/doc/' || src AS src_url,
         'https://example.org/doc/' || dst AS dst_url,
         row_number() OVER (PARTITION BY src
             ORDER BY 'https://example.org/doc/' || dst) - 1 AS rn,
         count(*) OVER (PARTITION BY src) AS outdeg
  FROM pr_edges),
rw_w0 AS (SELECT url AS walk, url AS cur FROM rw_u
          WHERE ({_sql_md5_u64("url")} // 2) % 16 = 0),
rw_w1 AS (SELECT w.walk, re.dst_url AS cur FROM rw_w0 w JOIN rw_re re
          ON re.src_url = w.cur
          AND re.rn = (({_sql_md5_u64("w.cur")} // 2) + 1) % re.outdeg),
rw_w2 AS (SELECT w.walk, re.dst_url AS cur FROM rw_w1 w JOIN rw_re re
          ON re.src_url = w.cur
          AND re.rn = (({_sql_md5_u64("w.cur")} // 2) + 2) % re.outdeg),
rw_w3 AS (SELECT w.walk, re.dst_url AS cur FROM rw_w2 w JOIN rw_re re
          ON re.src_url = w.cur
          AND re.rn = (({_sql_md5_u64("w.cur")} // 2) + 3) % re.outdeg)
SELECT walk, CAST(0 AS BIGINT) AS step, cur AS url FROM rw_w0
UNION ALL SELECT walk, 1, cur FROM rw_w1
UNION ALL SELECT walk, 2, cur FROM rw_w2
UNION ALL SELECT walk, 3, cur FROM rw_w3""",
        # per-host politeness schedule: slots serialize a host's urls
        # 1 s apart in (warc_ts, url) order; ts = epoch + doc_id seconds
        # mirrors graph.robots_filter over the multihost closed form:
        # host h{k}, path '/doc/'||doc_id; k%5==2 blocks /doc/,
        # k%7==3 blocks the /doc/1 prefix
        "robots_filter": """
WITH rf AS (
  SELECT 'https://h' || (doc_id % 23) || '.example.net/doc/' || doc_id AS url,
         'h' || (doc_id % 23) || '.example.net' AS host,
         doc_id % 23 AS k,
         '/doc/' || doc_id AS path
  FROM documents
)
SELECT url, host,
       CAST(CASE WHEN (k % 5 = 2)
                   OR (k % 7 = 3 AND path LIKE '/doc/1%')
                 THEN 0 ELSE 1 END AS BIGINT) AS allowed
FROM rf
""",
        # mirrors graph.crawl_budget: Hamilton largest-remainder over
        # closed-form host counts; cutoff rank via row_number
        # (rem DESC, 63-bit host key ASC) — Σalloc == 1000 exactly
        "crawl_budget": """
WITH cb_hc AS (SELECT 'h' || (doc_id % 23) || '.example.net' AS host,
                      count(*) AS n FROM documents GROUP BY 1),
cb_tot AS (SELECT sum(n) AS nt, CAST(1000 AS BIGINT) AS B FROM cb_hc),
cb_base AS (SELECT host, n, (B*n)//nt AS base, B*n - ((B*n)//nt)*nt AS rem,
            CAST(('0x'||substring(md5(host),1,16))::UBIGINT // 2 AS BIGINT) AS hkey
            FROM cb_hc, cb_tot),
cb_sb AS (SELECT sum(base) AS s FROM cb_base),
cb_rk AS (SELECT host, n, base,
          row_number() OVER (ORDER BY rem DESC, hkey ASC) AS rn FROM cb_base)
SELECT host, CAST(n AS BIGINT) AS n_docs,
       CAST(base + CASE WHEN rn <= (SELECT B FROM cb_tot) - (SELECT s FROM cb_sb)
                        THEN 1 ELSE 0 END AS BIGINT) AS alloc
FROM cb_rk
""",
        "host_schedule": """
WITH hs AS (
  SELECT 'h' || (doc_id % 23) || '.example.net' AS host,
         'https://h' || (doc_id % 23) || '.example.net/doc/' || doc_id AS url,
         1704067200000000 + doc_id * 1000000 AS ts_us
  FROM documents
)
SELECT host, url,
       CAST(row_number() OVER (PARTITION BY host ORDER BY ts_us, url) - 1
            AS BIGINT) AS slot,
       CAST(min(ts_us) OVER (PARTITION BY host)
            + (row_number() OVER (PARTITION BY host ORDER BY ts_us, url) - 1)
              * 1000000 AS BIGINT) AS planned_fetch_us
FROM hs""",
        # mirror of pipelines/graph.py::mirror_hosts — distinct
        # self-loop-free host edges; per-target linker cap 256
        # (row_number order = the engine's sorted-unique order);
        # truncating integer Jaccard in ppm, threshold 0.5
        "mirror_hosts": _MH_EDGES_CTE
        + """,
mi_e AS (
  SELECT DISTINCT src_host AS src, dst_host AS dst
  FROM mh_edges WHERE src_host <> dst_host
),
mi_deg AS (SELECT src, CAST(count(*) AS BIGINT) AS deg FROM mi_e GROUP BY src),
mi_nb AS (
  SELECT dst, src, row_number() OVER (PARTITION BY dst ORDER BY src) AS rn
  FROM mi_e
),
mi_pairs AS (
  SELECT x.src AS a, y.src AS b, CAST(count(*) AS BIGINT) AS n_common
  FROM mi_nb x
  JOIN mi_nb y ON x.dst = y.dst AND x.src < y.src
  WHERE x.rn <= 256 AND y.rn <= 256
  GROUP BY x.src, y.src
)
SELECT a AS host_a, b AS host_b, n_common,
       da.deg AS deg_a, db.deg AS deg_b,
       CAST(1000000 * n_common // (da.deg + db.deg - n_common) AS BIGINT)
           AS jaccard_ppm
FROM mi_pairs p
JOIN mi_deg da ON da.src = p.a
JOIN mi_deg db ON db.src = p.b
WHERE 1000000 * n_common // (da.deg + db.deg - n_common) >= 500000""",
        "canonical_urls": _MESSY_URLS_CTE
        + """
SELECT url, canonical FROM raw""",
        "url_dedup": _MESSY_URLS_CTE
        + """
SELECT canonical, min(url) AS kept_url,
       CAST(count(DISTINCT url) AS BIGINT) AS n_variants
FROM raw GROUP BY canonical""",
        # mirrors urls.url_features: vectorized string kernels + integer
        # ppm arithmetic; same regexes on both sides (RE2 class syntax)
        "url_features": _MESSY_URLS_CTE
        + r""",
uf AS (
  SELECT url,
         lower(regexp_extract(url, '^[a-z]+://([^/:?#]+)', 1)) AS host,
         regexp_extract(url, '^[a-z]+://[^/?#]*(/[^?#]*)', 1) AS path,
         regexp_extract(url, '\?([^#]*)', 1) AS q,
         CAST(length(url) AS BIGINT) AS url_len,
         CAST(len(regexp_extract_all(url, '[0-9]')) AS BIGINT) AS nd,
         CAST(CASE WHEN contains(url, '#') THEN 1 ELSE 0 END AS BIGINT)
           AS has_fragment
  FROM raw
),
uff AS (
  SELECT url, host,
         CAST(len(regexp_extract_all(path, '/')) AS BIGINT) AS path_depth,
         url_len,
         CAST(CASE WHEN q = '' THEN 0
                   ELSE len(string_split(q, '&')) END AS BIGINT) AS n_params,
         (nd * 1000000) // url_len AS digit_ppm,
         has_fragment
  FROM uf
)
SELECT url, host, path_depth, url_len, n_params, digit_ppm, has_fragment,
       CAST(CASE WHEN n_params = 0 AND has_fragment = 0
                  AND path_depth <= 3 AND digit_ppm <= 200000
                 THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM uff""",
        "raw_text_blocks": _RAW_BLOCKS_CTE
        + """
SELECT url, page_index, block_index, block FROM pb""",
        # frequency boilerplate removal: counts by block TEXT (the
        # engine's 63-bit hash would only diverge under md5-64 collision,
        # which this value gate would surface); string_agg skips the
        # NULLed duplicate blocks
        "paragraph_dedup": _RAW_BLOCKS_CTE
        + """,
bcnt AS (SELECT block, count(*) AS n FROM pb GROUP BY block),
bkb AS (
  SELECT pb.url, pb.page_index, pb.block_index, pb.block,
         (c.n >= 2) AS dup
  FROM pb JOIN bcnt c USING (block)
)
SELECT url,
       COALESCE(string_agg(CASE WHEN NOT dup THEN block END,
                           chr(10)||chr(10)
                           ORDER BY page_index, block_index), '')
         AS text_clean,
       CAST(count(*) AS BIGINT) AS n_blocks,
       CAST(sum(CASE WHEN dup THEN 1 ELSE 0 END) AS BIGINT) AS n_removed
FROM bkb GROUP BY url""",
        "boilerplate_blocks": _RAW_BLOCKS_CTE
        + """
SELECT block, CAST(count(*) AS BIGINT) AS n
FROM pb GROUP BY block HAVING count(*) >= 2""",
        # mirrors boilerplate.density_extract: 3-block word-count window
        # (lag + self + lead, missing neighbors = 0) over the block
        # stream in (page_index, block_index) order; threshold 15
        "density_extract": _RAW_BLOCKS_CTE
        + """,
dew AS (
  SELECT url, page_index, block_index, block,
         CAST(len(regexp_extract_all(block, '[a-z]+')) AS BIGINT) AS w
  FROM pb
),
des AS (
  SELECT url, page_index, block_index, block,
         COALESCE(lag(w) OVER win, 0) + w
           + COALESCE(lead(w) OVER win, 0) AS win3
  FROM dew
  WINDOW win AS (PARTITION BY url ORDER BY page_index, block_index)
)
SELECT url,
       CAST(count(*) AS BIGINT) AS n_blocks,
       CAST(sum(CASE WHEN win3 >= 15 THEN 1 ELSE 0 END) AS BIGINT)
         AS kept_blocks,
       COALESCE(string_agg(CASE WHEN win3 >= 15 THEN block END, e'\n\n'
                           ORDER BY page_index, block_index), '')
         AS dense_text
FROM des GROUP BY url""",
        # host profile over url/text/lang/warc_ts only (never payload);
        # ts = epoch + doc_id seconds (testgen), chars = codepoints
        "host_stats": """
SELECT 'h' || (doc_id % 23) || '.example.net' AS host,
       CAST(count(*) AS BIGINT) AS n_pages,
       CAST(count(DISTINCT lang) AS BIGINT) AS n_langs,
       CAST(sum(length(text)) AS BIGINT) AS total_chars,
       CAST(min(1704067200000000 + doc_id * 1000000) AS BIGINT) AS first_ts_us,
       CAST(max(1704067200000000 + doc_id * 1000000) AS BIGINT) AS last_ts_us
FROM documents GROUP BY host""",
        # per-host top-5 by (n_chars DESC, url) — the politeness quota
        "host_quota": """
WITH mq AS (
  SELECT 'h' || (doc_id % 23) || '.example.net' AS host,
         'https://h' || (doc_id % 23) || '.example.net/doc/' || doc_id AS url,
         CAST(length(text) AS BIGINT) AS n_chars
  FROM documents
),
mqr AS (
  SELECT host, url, n_chars,
         CAST(row_number() OVER (
           PARTITION BY host ORDER BY n_chars DESC, url) AS BIGINT) AS rank
  FROM mq
)
SELECT host, url, n_chars, rank FROM mqr WHERE rank <= 5""",
        "hits": _hits_sql(),
        "reciprocal_links": _RECIPROCAL_LINKS_SQL,
        "cocitation_counts": _COCITATION_SQL,
        "kcore": _KCORE_SQL,
        "coupling_counts": _COUPLING_SQL,
        "link_components": _LINK_COMPONENTS_SQL,
        # mirrors graph.component_sizes: per-component count over the
        # link_components output, then the size histogram
        "component_sizes": f"""
SELECT component_size, CAST(count(*) AS BIGINT) AS n_components
FROM (
  SELECT component, CAST(count(*) AS BIGINT) AS component_size
  FROM ({_LINK_COMPONENTS_SQL}) GROUP BY component
) GROUP BY component_size
""",
        # mirrors graph.host_quality: per-doc quality_filter gate rolled
        # up to the multihost domain grain, integer ppm throughout
        "host_quality": r"""
WITH hq AS (
  SELECT 'h' || (doc_id % 23) || '.example.net' AS host,
         CAST(len(regexp_extract_all(text, '[a-z]+')) AS BIGINT) AS n_tok,
         CAST(len(regexp_extract_all(text, '\b(?:the|a|and|of|to)\b')) AS BIGINT) AS n_stop
  FROM documents
),
hqd AS (
  SELECT host, n_tok,
         CAST(CASE WHEN n_tok = 0 THEN 0
              ELSE (1000000 * n_stop) // n_tok END AS BIGINT) AS stop_ppm
  FROM hq
),
hqh AS (
  SELECT host,
         CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(n_tok) AS BIGINT) AS n_tokens,
         CAST(sum(stop_ppm) // count(*) AS BIGINT) AS mean_stop_ppm,
         CAST(sum(CASE WHEN n_tok < 20 OR stop_ppm > 500000
                       THEN 1 ELSE 0 END) AS BIGINT) AS low_q_docs
  FROM hqd GROUP BY host
)
SELECT host, n_docs, n_tokens, mean_stop_ppm, low_q_docs,
       CAST((1000000 * low_q_docs) // n_docs AS BIGINT) AS low_q_ppm,
       CAST(CASE WHEN (1000000 * low_q_docs) // n_docs > 200000
                 THEN 1 ELSE 0 END AS BIGINT) AS flagged
FROM hqh
""",
        "lpa_communities": _LPA_SQL,
        "bowtie_census": _BOWTIE_SQL,
        "anchor_texts": _ANCHOR_TEXTS_SQL,
        "anchor_augment": _ANCHOR_AUGMENT_SQL,
        "leaf_pages": _LEAF_PAGES_SQL,
        "inlink_summaries": _INLINK_SUMMARIES_SQL,
        "page_metadata": _PAGE_METADATA_SQL,
        "crawl_depth": _crawl_depth_sql(),
        "crawl_frontier": _crawl_frontier_sql(),
        # pages warc_ts = epoch + doc_id seconds (testgen), payload is
        # html iff not corrupt and not pdf
        "crawl_timeline": """
WITH ct AS (
  SELECT ((1704067200000000 + doc_id * 1000000) // 3600000000) * 3600000000
           AS window_start_us,
         lang,
         CASE WHEN doc_id % 101 <> 13 AND doc_id % 10 <> 7 THEN 1 ELSE 0 END AS h
  FROM documents
)
SELECT window_start_us, lang,
       CAST(count(*) AS BIGINT) AS n_pages,
       CAST(sum(h) AS BIGINT) AS n_html
FROM ct GROUP BY window_start_us, lang
""",
        # capstone: flagship markdown -> gate -> min-url-per-markdown dedup
        # -> md5-ordered prefix-sum shard packing (mirrors web_curate)
        "web_curate": _WEB_CURATE_SQL,
        # the multi-snapshot corpus collapses (newest per url) to exactly
        # the base corpus, so the curation oracle is web_curate's —
        # the same identity ocr_snapshot_ingest relies on
        "snapshot_curate": _WEB_CURATE_SQL,
        # incremental extraction: the ocr_documents replay minus the
        # urls a steady-state recrawl skips (unchanged = corrupt docs
        # with >1 identical snapshot and no crc tie decoy — see
        # _q_ocr_incremental for why %7 reduces out)
        "ocr_incremental": _PAGES_CTE
        + """
SELECT url,
       COALESCE(string_agg(CASE WHEN is_err THEN NULL ELSE content END,
                           e'\n\n' ORDER BY page_index), '') AS markdown,
       CAST(count(*) AS BIGINT) AS total_pages,
       CAST(sum(CASE WHEN is_err THEN 0 ELSE 1 END) AS BIGINT) AS ocr_successful,
       CAST(sum(CASE WHEN is_err THEN 1 ELSE 0 END) AS BIGINT) AS ocr_failed
FROM pages
WHERE url NOT IN (
  SELECT 'https://example.org/doc/' || doc_id FROM documents
  WHERE doc_id % 101 = 13 AND doc_id % 3 <> 0 AND doc_id % 7 <> 0
)
GROUP BY url""",
        # host_curate: the web_curate keeper chain replayed in the
        # MULTIHOST url namespace (testgen.mh_url), capped at 10 keepers
        # per host (n_tok DESC, url), then the same hash-order cumsum
        "host_curate": """
WITH p AS (
  SELECT doc_id, text,
         'https://h' || (doc_id % 23) || '.example.net/doc/' || doc_id AS url,
         'h' || (doc_id % 23) || '.example.net' AS host,
         (doc_id % 101 = 13) AS is_err,
         CASE WHEN doc_id % 101 = 13 THEN 1
              WHEN doc_id % 50 = 0 THEN 24
              ELSE 1 + (doc_id % 4) END AS np
  FROM documents
),
pg AS (
  SELECT url, host, np, is_err, text,
         unnest(generate_series(1, np)) AS page_index,
         CAST(ceil(CAST(length(text) AS DOUBLE) / np) AS BIGINT) AS L
  FROM p
),
mpages AS (
  SELECT url, host, is_err, page_index,
         CASE WHEN is_err THEN ''
              ELSE substring(text, (page_index - 1) * L + 1, L) END AS content
  FROM pg
),
md AS (
  SELECT url, min(host) AS host,
         COALESCE(string_agg(CASE WHEN is_err THEN NULL ELSE content END,
                             e'\n\n' ORDER BY page_index), '') AS markdown,
         CAST(sum(CASE WHEN is_err THEN 1 ELSE 0 END) AS BIGINT) AS ocr_failed
  FROM mpages GROUP BY url
),
mg AS (
  SELECT url, host, markdown,
         CAST(len(regexp_extract_all(markdown, '[a-z]+')) AS BIGINT) AS n_tok
  FROM md
  WHERE ocr_failed = 0 AND len(regexp_extract_all(markdown, '[a-z]+')) >= 5
),
mk AS (
  SELECT url, host, n_tok FROM (
    SELECT url, host, n_tok,
           row_number() OVER (PARTITION BY markdown ORDER BY url) AS rn
    FROM mg
  ) WHERE rn = 1
),
mc AS (
  SELECT url, host, n_tok FROM (
    SELECT url, host, n_tok,
           row_number() OVER (PARTITION BY host ORDER BY n_tok DESC, url) AS hrn
    FROM mk
  ) WHERE hrn <= 10
),
mh2 AS (
  SELECT url, host, n_tok,
         ('0x'||substring(md5(url),1,16))::UBIGINT AS h
  FROM mc
),
mcum AS (
  SELECT url, host, n_tok,
         COALESCE(sum(n_tok) OVER (ORDER BY h, url
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS excl
  FROM mh2
)
SELECT url, host, n_tok, CAST(excl // 20000 AS BIGINT) AS shard_id FROM mcum""",
        # rank_curate: same keepers, shard packing in global
        # (pagerank DESC, md5-64(url), url) order (mirrors
        # pipelines/web.py::rank_curate)
        "rank_curate": _PAGES_CTE
        + _PR_EDGES_CTE.replace("WITH pr_n", ", pr_n")
        + _pagerank_round_ctes()
        + _WEB_KEEPER_CTES
        + """,
rcr AS (
  SELECT k.url, k.n_tok,
         ('0x'||substring(md5(k.url),1,16))::UBIGINT AS h,
         p.r AS rank
  FROM wk k
  JOIN (SELECT 'https://example.org/doc/' || doc_id AS url, r FROM pr_r3) p
    USING (url)
),
rcum AS (
  SELECT url, n_tok, rank,
         COALESCE(sum(n_tok) OVER (ORDER BY rank DESC, h, url
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS excl
  FROM rcr
)
SELECT url, n_tok, rank, CAST(excl // 20000 AS BIGINT) AS shard_id FROM rcum
""",
        # SemDeDup: kmeans assignment CTEs + within-cluster exact-integer
        # cosine threshold (dot**2 * 1e12 >= t**2 * |a|**2 * |b|**2 in HUGEINT,
        # embeddings floor-quantized at 1e4 so dots are exact in DOUBLE)
        "semantic_dedup": _kmeans_sql(final_as_cte=True)
        + """,
sd_q AS (
  SELECT vec_id,
         list_transform(CAST(embedding AS DOUBLE[]),
                        x -> floor(x * 10000)) AS q
  FROM embeddings
),
sd_n AS (SELECT vec_id, q, list_dot_product(q, q) AS n2 FROM sd_q),
sd_j AS (
  SELECT a.vec_id AS va, a.q AS qa, a.n2 AS na,
         b.vec_id AS vb, b.q AS qb, b.n2 AS nb
  FROM (SELECT s.*, k.cluster FROM sd_n s JOIN km_assign k USING (vec_id)) a
  JOIN (SELECT s.*, k.cluster FROM sd_n s JOIN km_assign k USING (vec_id)) b
    ON a.cluster = b.cluster AND a.vec_id < b.vec_id
),
sd_p AS (
  SELECT va, vb FROM (
    SELECT va, vb, list_dot_product(qa, qb) AS dot, na, nb FROM sd_j
  ) WHERE dot >= 0
    AND CAST(dot AS HUGEINT) * CAST(dot AS HUGEINT) * 1000000000000
        >= CAST(400000 AS HUGEINT) * CAST(400000 AS HUGEINT)
          * CAST(na AS HUGEINT) * CAST(nb AS HUGEINT)
),
sd_d AS (SELECT vb, MIN(va) AS m FROM sd_p GROUP BY vb)
SELECT k.vec_id, k.cluster,
       CAST(CASE WHEN d.m IS NULL THEN 1 ELSE 0 END AS BIGINT) AS kept,
       CAST(COALESCE(d.m, -1) AS BIGINT) AS dup_of
FROM km_assign k LEFT JOIN sd_d d ON k.vec_id = d.vb
""",
        # mirrors similarity.embedding_moments: milli-quantized one-pass
        # covariance sufficient statistics, upper-triangle dim pairs
        "embedding_moments": """
WITH ev AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000) AS BIGINT) AS q
  FROM embeddings
)
SELECT CAST(a.i - 1 AS BIGINT) AS dim_i, CAST(b.i - 1 AS BIGINT) AS dim_j,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(a.q) AS BIGINT) AS s_i,
       CAST(sum(b.q) AS BIGINT) AS s_j,
       CAST(sum(a.q * b.q) AS BIGINT) AS s_ij
FROM ev a JOIN ev b ON a.vec_id = b.vec_id AND a.i <= b.i
GROUP BY dim_i, dim_j""",
        "embedding_principal": _PCA_SQL,
        # mirrors similarity.embedding_quantize: per-dim affine uint8
        # codes over milli-quantized values; all operands non-negative,
        # so // (floor division) agrees between numpy and DuckDB
        "embedding_quantize": """
WITH ev AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000) AS BIGINT) AS q
  FROM embeddings
),
mm AS (
  SELECT i, min(q) AS qmin, greatest(max(q) - min(q), 1) AS rng
  FROM ev GROUP BY i
),
cd AS (
  SELECT e.vec_id, e.i, e.q, m.qmin, m.rng,
         ((e.q - m.qmin) * 255) // m.rng AS c
  FROM ev e JOIN mm m USING (i)
)
SELECT vec_id,
       CAST(sum(c) AS BIGINT) AS code_l1,
       CAST(sum(c * i) AS BIGINT) AS code_chk,
       CAST(sum(abs(q - (qmin + (c * rng) // 255))) AS BIGINT) AS recon_err_milli
FROM cd GROUP BY vec_id
""",
        # mirrors similarity.ann_truncated_recall: exact top-5 per prefix
        # dim vs the full-dim top-5 — overlap counts per (dim, query)
        "ann_truncated_recall": """
WITH tk AS (
  SELECT d.dim, q.vec_id AS qid, e.vec_id AS nid,
         row_number() OVER (PARTITION BY d.dim, q.vec_id
           ORDER BY list_cosine_similarity(q.embedding[1:d.dim], e.embedding[1:d.dim]) DESC,
                    e.vec_id) AS rk
  FROM (SELECT unnest([64,32,16,8]) AS dim) d,
       (SELECT * FROM embeddings WHERE vec_id < 8) q,
       embeddings e
  WHERE e.vec_id != q.vec_id
),
top AS (SELECT dim, qid, nid FROM tk WHERE rk <= 5),
fulltop AS (SELECT qid AS fqid, nid AS fnid FROM top WHERE dim = 64)
SELECT t.dim, t.qid, CAST(count(f.fnid) AS BIGINT) AS n_hits
FROM top t LEFT JOIN fulltop f ON t.qid = f.fqid AND t.nid = f.fnid
GROUP BY t.dim, t.qid
""",
        # mirrors similarity.ann_quantized_topk: integer MIPS over the
        # dequantized uint8 codes; ties break on neighbor_id
        "ann_quantized_topk": """
WITH ev AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1000) AS BIGINT) AS q
  FROM embeddings
),
mm AS (
  SELECT i, min(q) AS qmin, greatest(max(q) - min(q), 1) AS rng
  FROM ev GROUP BY i
),
dq AS (
  SELECT e.vec_id, e.i,
         m.qmin + ((((e.q - m.qmin) * 255) // m.rng) * m.rng) // 255 AS v
  FROM ev e JOIN mm m USING (i)
),
sc AS (
  SELECT q.vec_id AS qid, x.vec_id AS neighbor_id,
         CAST(sum(q.v * x.v) AS BIGINT) AS score
  FROM dq q JOIN dq x ON q.i = x.i AND x.vec_id <> q.vec_id
  WHERE q.vec_id < 8
  GROUP BY 1, 2
),
rk AS (
  SELECT qid, neighbor_id, score,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score DESC, neighbor_id) AS rank
  FROM sc
)
SELECT qid, neighbor_id, CAST(rank AS BIGINT) AS rank, score
FROM rk WHERE rank <= 5
""",
        # DSIR: hashed-feature rarity weights + global top-10% selection
        "dsir_sample": """
WITH ds_tok AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[a-z]+')) AS t
  FROM documents
),
ds_b AS (
  SELECT doc_id,
         CAST(('0x'||substring(md5(t),1,16))::UBIGINT % 256 AS BIGINT) AS bucket
  FROM ds_tok
),
ds_g AS (SELECT bucket, count(*) AS c FROM ds_b GROUP BY bucket),
ds_tot AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM ds_g),
ds_rare AS (SELECT bucket FROM ds_g, ds_tot WHERE c * 256 < n),
ds_d AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tok,
         CAST(sum(CASE WHEN bucket IN (SELECT bucket FROM ds_rare)
                       THEN 1 ELSE 0 END) AS BIGINT) AS n_rare
  FROM ds_b GROUP BY doc_id
),
ds_k AS (
  SELECT CAST((count(*) * 100000 + 999999) // 1000000 AS BIGINT) AS k
  FROM documents
),
ds_w AS (
  SELECT doc_id, n_tok, n_rare,
         CAST((n_rare * 1000000) // n_tok AS BIGINT) AS weight_ppm
  FROM ds_d
)
SELECT doc_id, n_tok, n_rare, weight_ppm, CAST(rank AS BIGINT) AS rank FROM (
  SELECT *, row_number() OVER (ORDER BY weight_ppm DESC, doc_id) AS rank
  FROM ds_w
), ds_k WHERE rank <= greatest(k, 1)
""",
        # exact-regime MG: the grouped summary equals the grouped count
        "lang_top_sources": """
SELECT lang, source AS key,
       CAST(count(*) AS BIGINT) AS est_count,
       CAST(0 AS BIGINT) AS err_bound
FROM documents GROUP BY lang, source
""",
        "bloom_probe": _bloom_sql(),
        "cms_probe": _cms_sql(),
        # exact regime (distinct event types ≤ k=32): zero decrements, so
        # the MG summary equals the grouped count with err_bound 0
        "mg_heavy_hitters": """
SELECT event_type AS key,
       CAST(count(*) AS BIGINT) AS est_count,
       CAST(0 AS BIGINT) AS err_bound
FROM events GROUP BY 1
""",
        "search_bm25": _bm25_sql(),
        # inclusive ±window range self-join; per-event cents floored first
        # so the neighbor sum is order-free (mirrors _neighbors_bucket)
        "events_neighbors": """
SELECT e1.event_id,
       CAST(count(e2.event_id) AS BIGINT) AS n_neighbors,
       CAST(COALESCE(sum(CAST(floor(e2.value * 100) AS BIGINT)), 0) AS BIGINT)
         AS neighbor_cents
FROM events e1
LEFT JOIN events e2
  ON e1.user_id = e2.user_id
 AND e2.event_id <> e1.event_id
 AND e2.ts >= e1.ts - INTERVAL 4 HOUR
 AND e2.ts <= e1.ts + INTERVAL 4 HOUR
GROUP BY e1.event_id
""",
        "source_report": """
SELECT source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS total_chars,
       CAST(sum(len(string_split(text, ' '))) AS BIGINT) AS total_tokens
FROM documents GROUP BY source
""",
        "shuffled_shards": _shuffle_sql(),
        "global_rank_docs": """
SELECT doc_id, n_chars,
       CAST(row_number() OVER (ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rank
FROM documents
""",
        "bloom_semi_join": _bloom_semi_sql(),
        # zero-based rank (n-1)*q//100 of the sorted multiset — tie-order
        # independent, so row_number over any order picks the same value
        "priority_price_quantiles": """
WITH pq_r AS (
  SELECT o_orderpriority,
         CAST(floor(o_totalprice * 100) AS BIGINT) AS cents,
         row_number() OVER (PARTITION BY o_orderpriority
                            ORDER BY floor(o_totalprice * 100)) - 1 AS rn,
         count(*) OVER (PARTITION BY o_orderpriority) AS n
  FROM orders
)
SELECT o_orderpriority, CAST(q.q_pct AS BIGINT) AS q_pct,
       cents AS value_cents
FROM pq_r JOIN (VALUES (25), (50), (75)) AS q(q_pct)
  ON pq_r.rn = ((pq_r.n - 1) * q.q_pct) // 100
""",
        # floor(1e6·x) micro-units summed per (lang, dim); parallel unnest
        # of (embedding, range(len)) gives the dim ordinal
        "lang_embedding_centroids": """
WITH lc_x AS (
  SELECT d.lang,
         unnest(range(len(e.embedding))) AS dim,
         CAST(floor(CAST(unnest(e.embedding) AS DOUBLE) * 1000000) AS BIGINT) AS q
  FROM embeddings e JOIN documents d ON e.vec_id = d.doc_id
)
SELECT lang, CAST(dim AS BIGINT) AS dim,
       CAST(sum(q) AS BIGINT) AS sum_q,
       CAST(count(*) AS BIGINT) AS n_vecs
FROM lc_x GROUP BY lang, dim
""",
        # same dot/(|a|·|b|) + round-half-up ppm arithmetic as the engine's
        # exact re-score pass (pipelines/similarity.py::_RadiusPartial)
        "ann_radius_search": """
WITH rs_q AS (
  SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
  WHERE vec_id < 8
),
rs_c AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
rs_s AS (
  SELECT q.qid, c.vec_id AS neighbor_id,
         CAST(floor(1000000.0 * list_dot_product(q.e, c.e)
               / (sqrt(list_dot_product(q.e, q.e)) * sqrt(list_dot_product(c.e, c.e)))
               + 0.5) AS BIGINT) AS cosine_ppm
  FROM rs_q q CROSS JOIN rs_c c
  WHERE q.qid <> c.vec_id
)
SELECT qid, neighbor_id, cosine_ppm FROM rs_s WHERE cosine_ppm >= 250000
""",
        # mirrors testgen.generate_media_table branch-by-branch (the
        # media table is a pure function of media_id and the documents
        # row count) + media.MediaFeatureExtractor's feature math; the
        # rotation branch uses mean-invariance under rot90
        "media_features": r"""
WITH md_n AS (SELECT greatest(64, count(*) // 2) AS n FROM documents),
md_ids AS (SELECT unnest(range((SELECT n FROM md_n))) AS i),
md_f AS (
  SELECT i,
    CASE
      WHEN i % 3 = 2 THEN 'audio'
      ELSE 'image'
    END AS kind,
    CASE
      WHEN i % 3 = 2 THEN 0
      WHEN i % 29 = 6  THEN 16
      WHEN i % 29 = 12 THEN 16
      WHEN i % 29 = 20 THEN 18
      ELSE 8 + i % 24
    END AS width,
    CASE
      WHEN i % 3 = 2 THEN 0
      WHEN i % 29 = 6  THEN 120
      WHEN i % 29 = 12 THEN 24
      WHEN i % 29 = 20 THEN 16
      ELSE 8 + (i * 7) % 24
    END AS height,
    CASE WHEN i % 3 = 2 THEN 8000 ELSE 0 END AS sample_rate,
    CASE
      WHEN i % 3 = 2 THEN 64 + (i % 17) * 8
      WHEN i % 29 = 6  THEN 1920
      WHEN i % 29 = 12 THEN 384
      WHEN i % 29 = 20 THEN 288
      ELSE (8 + i % 24) * (8 + (i * 7) % 24)
    END AS n_units,
    CASE
      -- audio: body[j] = (j*31+i) % 256
      WHEN i % 3 = 2 THEN list_aggregate(
        list_transform(range(64 + (i % 17) * 8), j -> (j * 31 + i) % 256), 'sum')
      -- tall 16x120: 4 bands of striped(16,22,seed=i+band); rows y in
      -- 0,4,...,20 have dw = max(1, 15-(seed+y)%3) px of 40+(seed+y)%30
      WHEN i % 29 = 6 THEN 1920 * 255 - list_aggregate(
        list_transform(range(24), t ->
          greatest(1, 15 - ((i + t // 6 + (t % 6) * 4) % 3))
          * (255 - (40 + ((i + t // 6 + (t % 6) * 4) % 30)))), 'sum')
      -- rotated striped(24,16,i): rows y in 0,4,8,12; mean invariant
      -- under rotation, so sum over the pre-rotation layout
      WHEN i % 29 = 12 THEN 384 * 255 - list_aggregate(
        list_transform(range(4), t ->
          greatest(1, 23 - ((i + 4 * t) % 3))
          * (255 - (40 + ((i + 4 * t) % 30)))), 'sum')
      -- padded striped(12,10,i) in a 16x18 white frame: rows y in 0,4,8
      WHEN i % 29 = 20 THEN 288 * 255 - list_aggregate(
        list_transform(range(3), t ->
          greatest(1, 11 - ((i + 4 * t) % 3))
          * (255 - (40 + ((i + 4 * t) % 30)))), 'sum')
      -- plain gradient: body[x] = (x*13+i) % 256
      ELSE list_aggregate(
        list_transform(range((8 + i % 24) * (8 + (i * 7) % 24)),
                       x -> (x * 13 + i) % 256), 'sum')
    END AS pix_sum
  FROM md_ids
)
SELECT CAST(i AS BIGINT) AS media_id, kind,
       CAST(width AS BIGINT) AS width, CAST(height AS BIGINT) AS height,
       CAST(sample_rate AS BIGINT) AS sample_rate,
       CAST(n_units AS BIGINT) AS n_units,
       CAST(floor(CAST(pix_sum AS DOUBLE) / n_units * 1000000) AS BIGINT) AS mean_value_ppm,
       'SUCCESS' AS status
FROM md_f
""",
        # mirrors media.media_cleanup_features over the closed-form
        # ZXVID generator closed forms (testgen.generate_video_table):
        # video i has w=8+i%13, h=8+(i*5)%11, nf=4+i%9 frames, frame f a
        # constant plane (i*31+f*7)%256; FrameSampler(k=4) picks
        # frame_index=(j*nf)//4 for j in 0..3 (distinct since nf>=4)
        "media_frame_features": """
WITH vn AS (SELECT greatest(64, count(*) // 4) AS n FROM documents),
v AS (SELECT unnest(range((SELECT n FROM vn))) AS i),
p AS (SELECT i, 8 + i % 13 AS w, 8 + (i * 5) % 11 AS h, 4 + i % 9 AS nf FROM v),
f AS (SELECT i, w, h, nf, unnest(range(4)) AS j FROM p)
SELECT CAST(i AS BIGINT) AS media_id,
       CAST((j * nf) // 4 AS BIGINT) AS frame_index,
       CAST(w AS BIGINT) AS width,
       CAST(h AS BIGINT) AS height,
       CAST(((i * 31 + ((j * nf) // 4) * 7) % 256) * 1000000 AS BIGINT)
           AS mean_value_ppm
FROM f
""",
        # branches: tall 16x120 (trim/orient no-op, split at empty-run
        # midpoints 25/55/85/115 -> 5 fragments, band b's 6 stripe rows
        # land in fragment b), rotated 24x16 (trim to 23x13 + 90deg
        # correction; pixel sum invariant under rotation), padded 16x18
        # (trim to 11x9 around the striped core). deficit per stripe row
        # = dark_width * (255 - dark_value); compress is a no-op (all
        # payloads far under the 15 MB cap)
        "media_cleanup_features": r"""
WITH mc_n AS (SELECT greatest(64, count(*) // 2) AS n FROM documents),
mc_ids AS (SELECT unnest(range((SELECT n FROM mc_n))) AS i),
mc_sel AS (SELECT i FROM mc_ids WHERE i % 3 != 2 AND i % 29 IN (6, 12, 20)),
mc_tall AS (
  SELECT i, f.fi AS fragment_index, 16 AS width, f.h AS height,
         16 * f.h AS n_units,
         255 * 16 * f.h - CASE WHEN f.fi < 4 THEN list_aggregate(
           list_transform(range(6), t ->
             greatest(1, 15 - ((i + f.fi + 4 * t) % 3))
             * (255 - (40 + ((i + f.fi + 4 * t) % 30)))), 'sum')
         ELSE 0 END AS pix_sum
  FROM mc_sel, (VALUES (0, 25), (1, 30), (2, 30), (3, 30), (4, 5)) AS f(fi, h)
  WHERE i % 29 = 6
),
mc_rot AS (
  SELECT i, 0 AS fragment_index, 23 AS width, 13 AS height, 299 AS n_units,
         255 * 299 - list_aggregate(
           list_transform(range(4), t ->
             (23 - ((i + 4 * t) % 3)) * (255 - (40 + ((i + 4 * t) % 30)))),
           'sum') AS pix_sum
  FROM mc_sel WHERE i % 29 = 12
),
mc_pad AS (
  SELECT i, 0 AS fragment_index, 11 AS width, 9 AS height, 99 AS n_units,
         255 * 99 - list_aggregate(
           list_transform(range(3), t ->
             greatest(1, 11 - ((i + 4 * t) % 3)) * (255 - (40 + ((i + 4 * t) % 30)))),
           'sum') AS pix_sum
  FROM mc_sel WHERE i % 29 = 20
),
mc_all AS (
  SELECT * FROM mc_tall UNION ALL SELECT * FROM mc_rot UNION ALL SELECT * FROM mc_pad
)
SELECT CAST(i AS BIGINT) AS media_id,
       CAST(fragment_index AS BIGINT) AS fragment_index,
       CAST(width AS BIGINT) AS width, CAST(height AS BIGINT) AS height,
       CAST(n_units AS BIGINT) AS n_units,
       CAST(floor(CAST(pix_sum AS DOUBLE) / n_units * 1000000) AS BIGINT) AS mean_value_ppm
FROM mc_all
""",
        # mirrors sketches.histogram_quantiles: full 0..255 bin axis,
        # cumulative counts, first bin with cum ≥ q·total, linear
        # interpolation inside it — the same float op order throughout
        # mirrors media.media_thumbnail_features: stride-2 dims are
        # ceil-halves, and the rotated/padded striped branches collapse
        # to all-white thumbs (dark rows sit at odd offsets only)
        "media_thumbnail_features": r"""
WITH mt_n AS (SELECT greatest(64, count(*) // 2) AS n FROM documents),
mt_ids AS (SELECT unnest(range((SELECT n FROM mt_n))) AS i),
mt_f AS (
  SELECT i,
    CASE WHEN i % 3 = 2 THEN 'audio' ELSE 'image' END AS kind,
    CASE WHEN i % 3 = 2 THEN 0
         WHEN i % 29 = 6  THEN 8
         WHEN i % 29 = 12 THEN 8
         WHEN i % 29 = 20 THEN 9
         ELSE (8 + i % 24 + 1) // 2 END AS width,
    CASE WHEN i % 3 = 2 THEN 0
         WHEN i % 29 = 6  THEN 60
         WHEN i % 29 = 12 THEN 12
         WHEN i % 29 = 20 THEN 8
         ELSE (8 + (i * 7) % 24 + 1) // 2 END AS height,
    CASE WHEN i % 3 = 2 THEN 8000 ELSE 0 END AS sample_rate,
    CASE WHEN i % 3 = 2 THEN 64 + (i % 17) * 8
         WHEN i % 29 = 6  THEN 480
         WHEN i % 29 = 12 THEN 96
         WHEN i % 29 = 20 THEN 72
         ELSE ((8 + i % 24 + 1) // 2) * ((8 + (i * 7) % 24 + 1) // 2) END AS n_units,
    CASE
      WHEN i % 3 = 2 THEN list_aggregate(
        list_transform(range(64 + (i % 17) * 8), j -> (j * 31 + i) % 256), 'sum')
      -- tall 16x120 -> 8x60 thumb: orig row r=2y dark iff r%30 < 22 and
      -- (r%30)%4 = 0; ceil(dw/2) of the 8 sampled cols are dark
      WHEN i % 29 = 6 THEN list_aggregate(
        list_transform(range(60), y -> CASE
          WHEN (2*y) % 30 < 22 AND ((2*y) % 30) % 4 = 0 THEN
            ((greatest(1, 15 - ((i + (2*y)//30 + (2*y)%30) % 3)) + 1) // 2)
              * (40 + ((i + (2*y)//30 + (2*y)%30) % 30))
            + (8 - (greatest(1, 15 - ((i + (2*y)//30 + (2*y)%30) % 3)) + 1) // 2) * 255
          ELSE 8 * 255 END), 'sum')
      -- rotated/padded striped pages have dark rows only at ODD offsets,
      -- which stride-2 never samples -> all-white thumbs
      WHEN i % 29 = 12 THEN 96 * 255
      WHEN i % 29 = 20 THEN 72 * 255
      ELSE list_aggregate(
        list_transform(range(((8 + i % 24 + 1) // 2) * ((8 + (i * 7) % 24 + 1) // 2)),
          t -> ((2 * (t // ((8 + i % 24 + 1) // 2)) * (8 + i % 24)
                 + 2 * (t % ((8 + i % 24 + 1) // 2))) * 13 + i) % 256), 'sum')
    END AS pix_sum
  FROM mt_ids
)
SELECT CAST(i AS BIGINT) AS media_id, kind,
       CAST(width AS BIGINT) AS width, CAST(height AS BIGINT) AS height,
       CAST(sample_rate AS BIGINT) AS sample_rate,
       CAST(n_units AS BIGINT) AS n_units,
       CAST(floor(CAST(pix_sum AS DOUBLE) / n_units * 1000000) AS BIGINT) AS mean_value_ppm,
       'SUCCESS' AS status
FROM mt_f
""",
        # mirrors sketches.exact_price_select: EXACT k-th order statistic
        # (k = ceil(q·n), integer cents) — the histogram-narrowing loop
        # must land on the true rank-k value, not an approximation
        "exact_price_select": """
WITH v AS (SELECT CAST(floor(l_extendedprice*100) AS BIGINT) c FROM lineitem),
cnt AS (SELECT count(*) n FROM v),
r AS (SELECT c, row_number() OVER (ORDER BY c) rk FROM v),
qs AS (SELECT unnest([500000, 900000, 990000]) AS q_ppm),
ks AS (SELECT q_ppm, (q_ppm * n + 999999) // 1000000 AS k FROM qs, cnt)
SELECT CAST(ks.q_ppm AS BIGINT) AS q_ppm, CAST(ks.k AS BIGINT) AS rank,
       r.c AS value_cents
FROM ks JOIN r ON r.rk = ks.k
""",
        "price_quantiles_sketch": """
WITH pq_h AS (
  SELECT CAST(least(floor(l_extendedprice / (200000.0 / 256)), 255) AS BIGINT) AS bin_id,
         count(*) AS n_items FROM lineitem GROUP BY bin_id
),
pq_bins AS (
  SELECT b.bin_id, COALESCE(h.n_items, 0) AS n_items,
         sum(COALESCE(h.n_items, 0)) OVER (ORDER BY b.bin_id) AS cum
  FROM (SELECT unnest(range(0,256)) AS bin_id) b LEFT JOIN pq_h h USING (bin_id)
),
pq_total AS (SELECT max(cum) AS total FROM pq_bins),
pq_qs(q_ppm, q) AS (VALUES (500000, 0.5::DOUBLE), (900000, 0.9::DOUBLE), (990000, 0.99::DOUBLE)),
pq_pick AS (
  SELECT q_ppm, q, min(bin_id) AS b
  FROM pq_qs, pq_bins, pq_total
  WHERE CAST(cum AS DOUBLE) >= q * total
  GROUP BY q_ppm, q
),
pq_val AS (
  SELECT p.q_ppm,
         (p.b + CASE WHEN bb.n_items = 0 THEN 0.0
                ELSE (p.q * t.total - CAST(COALESCE(prev.cum, 0) AS DOUBLE)) / bb.n_items END)
         * (200000.0 / 256) AS value
  FROM pq_pick p
  JOIN pq_bins bb ON bb.bin_id = p.b
  LEFT JOIN pq_bins prev ON prev.bin_id = p.b - 1
  CROSS JOIN pq_total t
)
SELECT q_ppm, value FROM pq_val
""",
        # grouped form of price_quantiles_sketch: identical binning /
        # cumsum / interpolation arithmetic, partitioned by l_returnflag
        "returnflag_price_quantiles": """
WITH gq_h AS (
  SELECT l_returnflag,
         CAST(least(floor(l_extendedprice / (200000.0 / 256)), 255) AS BIGINT) AS bin_id,
         count(*) AS n_items FROM lineitem GROUP BY 1, 2
),
gq_g AS (SELECT DISTINCT l_returnflag FROM lineitem),
gq_bins AS (
  SELECT g.l_returnflag, b.bin_id, COALESCE(h.n_items, 0) AS n_items,
         sum(COALESCE(h.n_items, 0)) OVER (
           PARTITION BY g.l_returnflag ORDER BY b.bin_id) AS cum
  FROM gq_g g CROSS JOIN (SELECT unnest(range(0,256)) AS bin_id) b
  LEFT JOIN gq_h h ON h.l_returnflag = g.l_returnflag AND h.bin_id = b.bin_id
),
gq_tot AS (SELECT l_returnflag, max(cum) AS total FROM gq_bins GROUP BY 1),
gq_qs(q_ppm, q) AS (VALUES (500000, 0.5::DOUBLE), (900000, 0.9::DOUBLE), (990000, 0.99::DOUBLE)),
gq_pick AS (
  SELECT bn.l_returnflag, q_ppm, q, min(bn.bin_id) AS b
  FROM gq_qs, gq_bins bn JOIN gq_tot t USING (l_returnflag)
  WHERE CAST(bn.cum AS DOUBLE) >= q * t.total
  GROUP BY 1, 2, 3
),
gq_val AS (
  SELECT p.l_returnflag, p.q_ppm,
         (p.b + CASE WHEN bb.n_items = 0 THEN 0.0
                ELSE (p.q * t.total - CAST(COALESCE(prev.cum, 0) AS DOUBLE)) / bb.n_items END)
         * (200000.0 / 256) AS value
  FROM gq_pick p
  JOIN gq_bins bb ON bb.l_returnflag = p.l_returnflag AND bb.bin_id = p.b
  LEFT JOIN gq_bins prev
    ON prev.l_returnflag = p.l_returnflag AND prev.bin_id = p.b - 1
  JOIN gq_tot t ON t.l_returnflag = p.l_returnflag
)
SELECT l_returnflag, CAST(q_ppm AS BIGINT) AS q_ppm, value FROM gq_val
""",
    }
