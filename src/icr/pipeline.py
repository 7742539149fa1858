"""Inference orchestration: generate, parse, retrieve per rewrite, fuse.

The generator is asked once per sample for the full serialized trajectory
(the trained model emits the whole chain); a step-wise mode drives the
clarify/rewrite prompts round by round for tests and untrained endpoints,
through the step that trajectory construction uses, with one attempt per
round and every usable rewrite accepted. It ends at ``max_iters`` rounds,
on a rewrite that echoes its input, on an empty or marker-holding
generation, or when a scripted generator has no next step; the pairs
gathered until then are kept.
Each parsed rewrite is retrieved independently and the per-iteration runs
are fused; when parsing yields no rewrites the original query is used as
a fallback so every sample stays scoreable. Per-query runs are kept on
the result so fusion ablations can be recomputed without regenerating.
"""

from __future__ import annotations

import functools
import logging
import os
import re
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .config import InferenceConfig
from .corpus import CQRSample, replacing
from .crdg import _format_pairs, _next_step, parse_trajectory
from .errors import MissingScriptEntry
from .evaluation import Indexes
from .genclient import generate_trajectory_text, run_in_order

if TYPE_CHECKING:
    from .ranking import RankedList

# fusion and ranking, which load numpy, are imported where they run, so
# ``icr latency``, which only generates, loads no numpy

logger = logging.getLogger(__name__)

Searcher = Callable[[str, int, str], "RankedList"]


@dataclass
class InferenceResult:
    sample_id: str
    trajectory_text: str
    queries: list[str]
    per_query_runs: list[RankedList]
    fused: RankedList
    used_fallback: bool = False


def run_inference(sample: CQRSample, client, config: InferenceConfig) -> str:
    """Produce the raw serialized trajectory text for one sample."""
    if not config.step_wise:
        return generate_trajectory_text(client, sample.history, sample.query)
    pairs: list[tuple[str, str]] = []
    current = sample.query
    for _ in range(config.max_iters):
        try:
            step = _next_step(client, sample, current, 0)
        except MissingScriptEntry:  # a scripted generator has no next step
            break
        if step is None:
            break
        pairs.append((step.clarification, step.rewrite))
        if step.rewrite == current:
            break
        current = step.rewrite
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
    from .fusion import fuse

    used_fallback = False
    if not queries:
        logger.warning("sample %s: no rewrites parsed, retrieving the original query", tag)
        queries = [original_query]
        used_fallback = True
    runs = [searcher(q, config.retrieval_k, tag) for q in queries]
    fused = fuse(runs, config.fusion, tag=tag)
    return runs, fused, used_fallback


def run_batch(
    samples: Sequence[CQRSample],
    client,
    config: InferenceConfig,
    indexes: Indexes,
) -> dict[str, list[InferenceResult]]:
    """Run inference over samples; results keyed by retriever name, in
    sample order.

    Generation happens once per sample, and every retriever's result
    shares it. Samples run concurrently up to the client's
    ``max_in_flight``, which never exceeds its in-flight slots.
    """
    searchers = {name: functools.partial(indexes.search, name) for name in indexes.searched(config.retriever)}

    def infer(client, sample: CQRSample) -> dict[str, InferenceResult]:
        text = run_inference(sample, client, config)
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
    from .ranking import write_run

    with replacing(path) as temp:
        empty = write_run((r.fused for r in results), temp, tag=tag)
    if empty:
        logger.warning("%d sample(s) produced an empty fused list", empty)
    return empty


def emit_per_query_runs(results: Sequence[InferenceResult], directory: str, tag: str = "ICR") -> list[str]:
    """Write one TREC run file per iteration index (iter_01.trec, ...) and
    remove any deeper one that an earlier run left.

    Samples with fewer rewrites simply do not appear in the later files, so
    fusing the files in name order reproduces the in-memory fusion.
    """
    from .ranking import write_run

    os.makedirs(directory, exist_ok=True)
    depth = max((len(r.per_query_runs) for r in results), default=0)
    for name in os.listdir(directory):
        if re.fullmatch(r"iter_(0[1-9]|[1-9]\d+)\.trec", name) and int(name[5:-5]) > depth:
            os.remove(os.path.join(directory, name))
    paths = []
    for i in range(depth):
        path = os.path.join(directory, f"iter_{i + 1:02d}.trec")
        lists = [r.per_query_runs[i] for r in results if len(r.per_query_runs) > i]
        with replacing(path) as temp:
            write_run(lists, temp, tag=tag)
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
