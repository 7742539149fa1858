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
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .config import MODE_RETRIEVERS
from .corpus import CQRSample, Qrels
from .errors import DataError, GoldMissingFromCollection

if TYPE_CHECKING:  # the index modules load numpy, so they load on first search
    from .dense_index import DenseIndex, EmbeddingProvider
    from .ranking import RankedList
    from .sparse_index import SparseIndex

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
        # field by field: dataclasses.asdict deep-copies recursively
        return {"mrr": self.mrr, "ndcg3": self.ndcg3, "recall10": self.recall10, "recall100": self.recall100}


ZERO_METRICS = MetricSet()


@dataclass(frozen=True)
class QualityScore:
    f: float
    sparse: MetricSet
    dense: MetricSet
    mode: str

    def as_dict(self) -> dict:
        return {"f": self.f, "sparse": self.sparse.as_dict(), "dense": self.dense.as_dict(), "mode": self.mode}


def quality_from_dict(obj: Mapping) -> QualityScore:
    return QualityScore(
        f=float(obj["f"]),
        sparse=MetricSet(**obj["sparse"]),
        dense=MetricSet(**obj["dense"]),
        mode=str(obj["mode"]),
    )


def metric_set(ranked: RankedList, relevant: set[str], grades: Mapping[str, int] | None = None) -> MetricSet:
    """The four metrics of one ranked list; binary grades unless given."""
    if grades is None:
        grades = {pid: 1 for pid in relevant}
    return _metrics(ranked.ids(), relevant, grades)


# The metrics over a ranked list's passage ids, best first: ``evaluate_run``
# reads them from a Run's id column, and no (id, score) pair is built.


def _metrics(ids: Sequence[str], relevant: set[str], grades: Mapping[str, int]) -> MetricSet:
    return MetricSet(_mrr(ids, relevant), _ndcg3(ids, grades), _recall(ids, relevant, 10), _recall(ids, relevant, 100))


def _mrr(ids: Sequence[str], relevant: set[str]) -> float:
    for rank, pid in enumerate(ids, 1):
        if pid in relevant:
            return 1.0 / rank
    return 0.0


def _dcg(gains: Sequence[float]) -> float:
    return sum(g / math.log2(i + 1) for i, g in enumerate(gains, 1))


def _ndcg3(ids: Sequence[str], grades: Mapping[str, int]) -> float:
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)[:3]
    idcg = _dcg(ideal)
    if idcg <= 0.0:
        return 0.0
    return _dcg([float(grades.get(pid, 0)) for pid in ids[:3]]) / idcg


def _recall(ids: Sequence[str], relevant: set[str], k: int) -> float:
    if not relevant:
        return 0.0
    return len(relevant.intersection(ids[:k])) / len(relevant)


@dataclass(frozen=True)
class Indexes:
    """The indexes that F and inference search; a side left None is never
    searched, and the dense side embeds queries with ``provider``."""

    sparse: SparseIndex | None = None
    dense: DenseIndex | None = None
    provider: EmbeddingProvider | None = None

    def searched(self, mode: str) -> tuple[str, ...]:
        """The sides an F mode or an inference retriever searches, sparse
        first; raises DataError when one of them is missing."""
        if mode not in MODE_RETRIEVERS:
            raise ValueError(f"unknown mode {mode!r}")
        names = tuple(name for name, used in zip(("sparse", "dense"), MODE_RETRIEVERS[mode]) if used)
        if "sparse" in names and self.sparse is None:
            raise DataError(f"{mode!r} requires a sparse index")
        if "dense" in names and (self.dense is None or self.provider is None):
            raise DataError(f"{mode!r} requires a dense index and embedding provider")
        return names

    def search(self, name: str, query: str, k: int, tag: str | None = None) -> RankedList:
        """Top-k of one side, ``"sparse"`` or ``"dense"``."""
        if name == "sparse":
            from .sparse_index import search_sparse

            return search_sparse(self.sparse, query, k, tag=tag)
        from .dense_index import search_dense

        return search_dense(self.dense, query, k, self.provider, tag=tag)


def f_score(query_text: str, sample: CQRSample, indexes: Indexes, mode: str = "both") -> QualityScore:
    """Composite quality of a (rewritten) query against the sample's gold set.

    Runs the retrievers the mode asks for at depth 100 and sums their
    metric sets; the unused side is reported as zeros in single-retriever
    modes. Raises GoldMissingFromCollection when a gold passage is absent
    from an index that is about to be searched.
    """
    names = indexes.searched(mode)
    gold = set(sample.gold_passage_ids)
    missing = {g for name in names for g in gold if g not in getattr(indexes, name)}
    if missing:
        raise GoldMissingFromCollection(missing)
    metrics = {name: metric_set(indexes.search(name, query_text, F_DEPTH, sample.sample_id), gold) for name in names}
    sparse, dense = metrics.get("sparse", ZERO_METRICS), metrics.get("dense", ZERO_METRICS)
    return QualityScore(f=sparse.total() + dense.total(), sparse=sparse, dense=dense, mode=mode)


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
    return run_report(score_queries(run, qrels), qrels)


def score_queries(run: Mapping[str, RankedList], qrels: Qrels) -> dict[str, dict]:
    """The ``per_sample`` entry of every query in ``run``, in run order. A
    ``ranking.Run`` is scored from its id column (its ``ids`` method)."""
    ids = getattr(run, "ids", None) or (lambda qid: run[qid].ids())
    return {qid: _sample_metrics(ids(qid), qrels, qid) for qid in run}


def _sample_metrics(ids: Sequence[str], qrels: Qrels, qid: str) -> dict:
    relevant = qrels.relevant_ids(qid)
    return {**_metrics(ids, relevant, qrels.for_sample(qid)).as_dict(), "degenerate": not relevant}


def run_report(per_sample: dict[str, dict], qrels: Qrels) -> dict:
    """``evaluate_run``'s report from ``score_queries`` of the run: the
    judged queries missing from it are added, as zeros, to ``per_sample``,
    and the aggregates summed in that order."""
    missing = [qid for qid in qrels.sample_ids() if qid not in per_sample]
    for qid in missing:
        per_sample[qid] = _sample_metrics([], qrels, qid)
    n = len(per_sample)
    aggregate = {
        f.name: (sum(s[f.name] for s in per_sample.values()) / n if n else 0.0)
        for f in fields(MetricSet)
    }
    return {
        "num_samples": n,
        "missing_from_run": len(missing),
        "degenerate_count": sum(1 for s in per_sample.values() if s["degenerate"]),
        "aggregate": aggregate,
        "per_sample": per_sample,
    }
