"""IR metrics, the composite query-quality score, and process diagnostics.

Metrics are MRR (full retrieved depth, no extra cutoff), NDCG@3 with gain
equal to the relevance grade, and Recall@K. The composite quality score of
a rewritten query sums the four metrics over sparse and/or dense retrieval
at depth 100 against the sample's gold passages, so it lies in [0, 8] in
the combined mode and [0, 4] in the single-retriever modes.

Samples with no relevant judged passages score 0 and are flagged as
degenerate rather than skipped, keeping dataset size stable. All functions
here are pure over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import CQRSample, Qrels
from .dense_index import DenseIndex, EmbeddingProvider, search_dense
from .errors import GoldMissingFromCollection
from .ranking import RankedList
from .sparse_index import SparseIndex, search_sparse

F_MODES = ("both", "sparse_only", "dense_only")

#: (uses sparse, uses dense) for each F mode and each inference retriever.
MODE_RETRIEVERS = {
    "both": (True, True), "sparse_only": (True, False), "dense_only": (False, True),  # F modes
    "sparse": (True, False), "dense": (False, True), "both-report": (True, True),  # inference
}

#: Retrieval depth used for quality scoring; Recall@100 requires it.
F_DEPTH = 100


@dataclass(frozen=True)
class MetricSet:
    mrr: float = 0.0
    ndcg3: float = 0.0
    recall10: float = 0.0
    recall100: float = 0.0

    def total(self) -> float:
        return self.mrr + self.ndcg3 + self.recall10 + self.recall100

    def as_dict(self) -> dict[str, float]:
        return {
            "mrr": self.mrr,
            "ndcg3": self.ndcg3,
            "recall10": self.recall10,
            "recall100": self.recall100,
        }


ZERO_METRICS = MetricSet()


@dataclass(frozen=True)
class QualityScore:
    f: float
    sparse: MetricSet
    dense: MetricSet
    mode: str

    def as_dict(self) -> dict:
        return {
            "f": self.f,
            "sparse": self.sparse.as_dict(),
            "dense": self.dense.as_dict(),
            "mode": self.mode,
        }


def quality_from_dict(obj: Mapping) -> QualityScore:
    return QualityScore(
        f=float(obj["f"]),
        sparse=MetricSet(**obj["sparse"]),
        dense=MetricSet(**obj["dense"]),
        mode=str(obj["mode"]),
    )


def mrr(ranked: RankedList, relevant: set[str]) -> float:
    """Reciprocal rank of the first relevant entry; 0 if none retrieved."""
    for rank, (pid, _) in enumerate(ranked.entries, 1):
        if pid in relevant:
            return 1.0 / rank
    return 0.0


def _dcg(gains: Sequence[float]) -> float:
    return sum(g / math.log2(i + 1) for i, g in enumerate(gains, 1))


def ndcg_at_3(ranked: RankedList, grades: Mapping[str, int]) -> float:
    """NDCG@3 with gain equal to the grade; 0 when nothing relevant is judged."""
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)[:3]
    idcg = _dcg(ideal)
    if idcg <= 0.0:
        return 0.0
    got = [float(grades.get(pid, 0)) for pid, _ in ranked.entries[:3]]
    return _dcg(got) / idcg


def recall_at_k(ranked: RankedList, relevant: set[str], k: int) -> float:
    """Fraction of relevant ids in the top-k; 0 for an empty relevant set."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not relevant:
        return 0.0
    top = {pid for pid, _ in ranked.entries[:k]}
    return len(relevant & top) / len(relevant)


def metric_set(ranked: RankedList, relevant: set[str], grades: Mapping[str, int] | None = None) -> MetricSet:
    """The four metrics of one ranked list; binary grades unless given."""
    if grades is None:
        grades = {pid: 1 for pid in relevant}
    return MetricSet(
        mrr=mrr(ranked, relevant),
        ndcg3=ndcg_at_3(ranked, grades),
        recall10=recall_at_k(ranked, relevant, 10),
        recall100=recall_at_k(ranked, relevant, 100),
    )


def f_score(
    query_text: str,
    sample: CQRSample,
    sparse: SparseIndex | None = None,
    dense: DenseIndex | None = None,
    provider: EmbeddingProvider | None = None,
    mode: str = "both",
) -> QualityScore:
    """Composite quality of a (rewritten) query against the sample's gold set.

    Runs the retrievers the mode asks for at depth 100 and sums their
    metric sets; the unused side is reported as zeros in single-retriever
    modes. Raises GoldMissingFromCollection when a gold passage is absent
    from an index that is about to be searched.
    """
    if mode not in F_MODES:
        raise ValueError(f"unknown f mode {mode!r}")
    gold = set(sample.gold_passage_ids)
    use_sparse, use_dense = MODE_RETRIEVERS[mode]
    if use_sparse and sparse is None:
        raise ValueError("mode requires a sparse index")
    if use_dense and (dense is None or provider is None):
        raise ValueError("mode requires a dense index and provider")
    missing: set[str] = set()
    if use_sparse:
        missing |= {g for g in gold if g not in sparse}
    if use_dense:
        missing |= {g for g in gold if g not in dense}
    if missing:
        raise GoldMissingFromCollection(missing)
    sparse_metrics = (
        metric_set(search_sparse(sparse, query_text, F_DEPTH, tag=sample.sample_id), gold)
        if use_sparse
        else ZERO_METRICS
    )
    dense_metrics = (
        metric_set(search_dense(dense, query_text, F_DEPTH, provider, tag=sample.sample_id), gold)
        if use_dense
        else ZERO_METRICS
    )
    return QualityScore(
        f=sparse_metrics.total() + dense_metrics.total(),
        sparse=sparse_metrics,
        dense=dense_metrics,
        mode=mode,
    )


def lsr(paths: Sequence[Sequence[float]]) -> float:
    """Local success rate over quality paths ``[F(r^0), F(r^1), ...]``.

    Per sample: the fraction of adjacent steps that strictly improve.
    Samples with no steps count as fraction 1 by convention.
    """
    if not paths:
        return 0.0
    fractions = []
    for path in paths:
        steps = len(path) - 1
        if steps <= 0:
            fractions.append(1.0)
            continue
        wins = sum(1 for j in range(1, len(path)) if path[j - 1] < path[j])
        fractions.append(wins / steps)
    return sum(fractions) / len(fractions)


def gsr(paths: Sequence[Sequence[float]]) -> float:
    """Global success rate: fraction of paths improving at every step."""
    if not paths:
        return 0.0
    wins = sum(
        1
        for path in paths
        if all(path[j - 1] < path[j] for j in range(1, len(path)))
    )
    return wins / len(paths)


def delta_f_profile(
    paths: Sequence[Sequence[float]], lengths: Iterable[int]
) -> dict[int, list[float]]:
    """Mean quality change per adjacent step, grouped by trajectory length.

    For each requested length n, averages ``F(r^j) - F(r^j-1)`` over all
    paths with exactly n steps, position by position. Lengths with no
    matching path map to an empty list.
    """
    out: dict[int, list[float]] = {}
    for n in lengths:
        deltas = [
            [path[j] - path[j - 1] for j in range(1, len(path))]
            for path in paths
            if len(path) - 1 == n
        ]
        if not deltas:
            out[n] = []
            continue
        out[n] = [sum(row[j] for row in deltas) / len(deltas) for j in range(n)]
    return out


def evaluate_run(run: Mapping[str, RankedList], qrels: Qrels) -> dict:
    """Score a run against qrels: per-sample metrics plus aggregates.

    Every query in the run or the qrels is scored (``trec_eval -c``): a
    judged query missing from the run scores zeros and is counted in
    ``missing_from_run``, so a query that retrieved nothing cannot drop
    out of the aggregates. Queries with no relevant judged passage get
    zeros and ``degenerate: true``.
    """
    per_sample: dict[str, dict] = {}
    missing = {qid: RankedList(qid) for qid in qrels.sample_ids() if qid not in run}
    for qid, ranked in {**run, **missing}.items():
        relevant = qrels.relevant_ids(qid)
        grades = qrels.for_sample(qid)
        ms = metric_set(ranked, relevant, grades)
        per_sample[qid] = {**ms.as_dict(), "degenerate": not relevant}
    n = len(per_sample)
    aggregate = {
        key: (sum(s[key] for s in per_sample.values()) / n if n else 0.0)
        for key in ("mrr", "ndcg3", "recall10", "recall100")
    }
    return {
        "num_samples": n,
        "missing_from_run": len(missing),
        "degenerate_count": sum(1 for s in per_sample.values() if s["degenerate"]),
        "aggregate": aggregate,
        "per_sample": per_sample,
    }
