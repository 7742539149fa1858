"""Inference orchestration: generate, parse, retrieve per rewrite, fuse.

The generator is asked once per sample for the full serialized trajectory
(the trained model emits the whole chain); a step-wise mode drives the
clarify/rewrite prompts round by round for tests and untrained endpoints.
Each parsed rewrite is retrieved independently and the per-iteration runs
are fused; when parsing yields no rewrites the original query is used as
a fallback so every sample stays scoreable. Per-query runs are kept on
the result so fusion ablations can be recomputed without regenerating.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .corpus import CQRSample
from .crdg import _format_pairs, parse_trajectory
from .dense_index import DenseIndex, EmbeddingProvider, search_dense
from .errors import DataError
from .evaluation import MODE_RETRIEVERS
from .fusion import FusionConfig, fuse
from .genclient import (
    CLARIFY_KIND,
    REWRITE_KIND,
    clarify_fingerprint,
    generate_clarification,
    generate_rewrite,
    generate_trajectory_text,
    rewrite_fingerprint,
    run_in_order,
)
from .ranking import RankedList, write_run
from .sparse_index import SparseIndex, search_sparse

logger = logging.getLogger(__name__)

RETRIEVER_CHOICES = ("sparse", "dense", "both-report")

Searcher = Callable[[str, int, str], RankedList]


@dataclass
class InferenceConfig:
    max_iters: int = 10
    retrieval_k: int = 100
    fusion: FusionConfig = field(default_factory=FusionConfig)
    retriever: str = "sparse"
    step_wise: bool = False

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.retrieval_k < 1:
            raise ValueError(f"retrieval_k must be >= 1, got {self.retrieval_k}")
        if self.retriever not in RETRIEVER_CHOICES:
            raise ValueError(f"unknown retriever {self.retriever!r}")


@dataclass
class InferenceResult:
    sample_id: str
    trajectory_text: str
    queries: list[str]
    per_query_runs: list[RankedList]
    fused: RankedList
    latency_seconds: float = 0.0
    used_fallback: bool = False


def run_inference(sample: CQRSample, client, config: InferenceConfig) -> str:
    """Produce the raw serialized trajectory text for one sample."""
    if not config.step_wise:
        return generate_trajectory_text(client, sample.history, sample.query)
    pairs: list[tuple[str, str]] = []
    current = sample.query
    for _ in range(config.max_iters):
        if hasattr(client, "has_entry") and not client.has_entry(
            CLARIFY_KIND, clarify_fingerprint(current)
        ):
            break
        clarification = generate_clarification(client, current)
        if hasattr(client, "has_entry") and not client.has_entry(
            REWRITE_KIND, rewrite_fingerprint(current, clarification)
        ):
            break
        rewrite = generate_rewrite(client, sample.history, current, clarification)
        pairs.append((clarification, rewrite))
        if rewrite == current:
            break
        current = rewrite
    return _format_pairs(pairs)


def extract_queries(trajectory_text: str) -> list[str]:
    """Rewrites in iteration order; duplicates kept (fusion is position-indexed)."""
    return [rewrite for _, rewrite in parse_trajectory(trajectory_text).pairs]


def retrieve_and_fuse(
    queries: Sequence[str],
    searcher: Searcher,
    config: InferenceConfig,
    tag: str,
    original_query: str,
) -> tuple[list[RankedList], RankedList, bool]:
    """Retrieve per query (iteration order) and fuse; falls back to the
    original query when no rewrite was parsed."""
    used_fallback = False
    if not queries:
        logger.warning("sample %s: no rewrites parsed, retrieving the original query", tag)
        queries = [original_query]
        used_fallback = True
    runs = [searcher(q, config.retrieval_k, tag) for q in queries]
    fused = fuse(runs, config.fusion, tag=tag)
    return runs, fused, used_fallback


def sparse_searcher(index: SparseIndex) -> Searcher:
    return lambda query, k, tag: search_sparse(index, query, k, tag=tag)


def dense_searcher(index: DenseIndex, provider: EmbeddingProvider) -> Searcher:
    return lambda query, k, tag: search_dense(index, query, k, provider, tag=tag)


def _searchers(
    config: InferenceConfig,
    sparse: SparseIndex | None,
    dense: DenseIndex | None,
    provider: EmbeddingProvider | None,
) -> dict[str, Searcher]:
    want_sparse, want_dense = MODE_RETRIEVERS[config.retriever]
    if want_sparse and sparse is None:
        raise DataError("retriever requires a sparse index")
    if want_dense and (dense is None or provider is None):
        raise DataError("retriever requires a dense index and embedding provider")
    out: dict[str, Searcher] = {}
    if want_sparse:
        out["sparse"] = sparse_searcher(sparse)
    if want_dense:
        out["dense"] = dense_searcher(dense, provider)
    return out


def run_batch(
    samples: Sequence[CQRSample],
    client,
    config: InferenceConfig,
    sparse: SparseIndex | None = None,
    dense: DenseIndex | None = None,
    provider: EmbeddingProvider | None = None,
) -> dict[str, list[InferenceResult]]:
    """Run inference over samples; results keyed by retriever name, in
    sample order.

    Generation happens once per sample and its wall-clock time (retrieval
    excluded) is recorded on every retriever's result. Samples run
    concurrently up to the client's ``max_in_flight``, which never exceeds
    its in-flight slots, so the time measured is the generator's own.
    """
    searchers = _searchers(config, sparse, dense, provider)

    def infer(client, sample: CQRSample) -> dict[str, InferenceResult]:
        start = time.perf_counter()
        text = run_inference(sample, client, config)
        latency = time.perf_counter() - start
        queries = extract_queries(text)
        out = {}
        for name, searcher in searchers.items():
            runs, fused, used_fallback = retrieve_and_fuse(
                queries, searcher, config, sample.sample_id, sample.query
            )
            out[name] = InferenceResult(
                sample_id=sample.sample_id,
                trajectory_text=text,
                queries=list(queries),
                per_query_runs=runs,
                fused=fused,
                latency_seconds=latency,
                used_fallback=used_fallback,
            )
        return out

    results: dict[str, list[InferenceResult]] = {name: [] for name in searchers}
    for per_retriever in run_in_order(client, infer, samples):
        for name, result in per_retriever.items():
            results[name].append(result)
    return results


def emit_run(results: Sequence[InferenceResult], path: str, tag: str = "ICR") -> int:
    """Write fused lists as a TREC run; returns the count of empty lists."""
    empty = write_run((r.fused for r in results), path, tag=tag)
    if empty:
        logger.warning("%d sample(s) produced an empty fused list", empty)
    return empty


def emit_per_query_runs(results: Sequence[InferenceResult], directory: str, tag: str = "ICR") -> list[str]:
    """Write one TREC run file per iteration index (iter_01.trec, ...).

    Samples with fewer rewrites simply do not appear in the later files, so
    fusing the files in name order reproduces the in-memory fusion.
    """
    os.makedirs(directory, exist_ok=True)
    depth = max((len(r.per_query_runs) for r in results), default=0)
    paths = []
    for i in range(depth):
        path = os.path.join(directory, f"iter_{i + 1:02d}.trec")
        lists = [r.per_query_runs[i] for r in results if len(r.per_query_runs) > i]
        write_run(lists, path, tag=tag)
        paths.append(path)
    return paths


def measure_latency(
    samples: Sequence[CQRSample], client, config: InferenceConfig
) -> dict:
    """Wall-clock seconds around trajectory generation only, per sample."""
    per_sample: dict[str, float] = {}
    for sample in samples:
        start = time.perf_counter()
        run_inference(sample, client, config)
        per_sample[sample.sample_id] = time.perf_counter() - start
    mean = sum(per_sample.values()) / len(per_sample) if per_sample else None
    return {"per_sample": per_sample, "mean_seconds": mean}
