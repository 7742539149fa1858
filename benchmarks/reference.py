"""Reference calculations for the benchmark's output checks.

Written from the definitions in the icr README and module docstrings, not
imported from ``icr``: BM25 with smoothed idf, the CRC32 hash embedding,
MRR / NDCG@3 (graded gain) / Recall@K, the composite quality score F and
prrf fusion. BM25 sums each document's contributions in query-token order
with the same arithmetic as the definition, so its scores agree with a
correct index bit for bit; ties are broken by passage id ascending.
"""

from __future__ import annotations

import math
import re
import zlib
from collections import Counter

import numpy as np

TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
F_DEPTH = 100


def tokenize(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


class Collection:
    """A passage collection with BM25 postings and hash-embedding vectors."""

    def __init__(self, ids: list[str], texts: list[str], k1: float = 0.9, b: float = 0.4, dim: int = 256):
        self.ids = ids
        self.k1, self.b, self.dim = k1, b, dim
        self.n = len(ids)
        # position of each id in ascending id order, for the canonical tie-break
        self.id_rank = np.empty(self.n, dtype=np.int64)
        self.id_rank[np.argsort(np.array(ids))] = np.arange(self.n)
        lengths = []
        postings: dict[str, tuple[list[int], list[int]]] = {}
        for i, text in enumerate(texts):
            tokens = tokenize(text)
            lengths.append(len(tokens))
            for term, tf in Counter(tokens).items():
                ords, tfs = postings.setdefault(term, ([], []))
                ords.append(i)
                tfs.append(tf)
        self.doc_len = np.array(lengths, dtype=np.float64)
        self.avg_len = sum(lengths) / len(lengths)
        self.postings = {
            t: (np.array(o, dtype=np.int64), np.array(f, dtype=np.float64)) for t, (o, f) in postings.items()
        }
        self.texts = texts
        self._vectors: np.ndarray | None = None

    # --- BM25 ---------------------------------------------------------------
    def bm25_scores(self, query: str) -> tuple[np.ndarray, np.ndarray]:
        """(score per passage, matched-at-least-one-term mask)."""
        scores = np.zeros(self.n, dtype=np.float64)
        matched = np.zeros(self.n, dtype=bool)
        k1, b = self.k1, self.b
        for term in tokenize(query):
            hit = self.postings.get(term)
            if hit is None:
                continue
            ords, tfs = hit
            df = len(ords)
            idf = math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))
            norm = tfs + k1 * (1.0 - b + b * self.doc_len[ords] / self.avg_len)
            scores[ords] += idf * tfs * (k1 + 1.0) / norm
            matched[ords] = True
        return scores, matched

    def bm25_topk(self, query: str, k: int) -> list[tuple[str, float]]:
        scores, matched = self.bm25_scores(query)
        return self._topk(scores, np.nonzero(matched)[0], k)

    # --- hash embedding -----------------------------------------------------
    def embed(self, text: str) -> np.ndarray:
        """Token counts in CRC32 buckets, L2-normalised (zero stays zero)."""
        v = np.zeros(self.dim, dtype=np.float64)
        for token in tokenize(text):
            v[zlib.crc32(token.encode("utf-8")) % self.dim] += 1.0
        norm = float(np.linalg.norm(v))
        if norm > 0.0:
            v /= norm
        return v

    @property
    def vectors(self) -> np.ndarray:
        if self._vectors is None:
            self._vectors = np.stack([self.embed(t) for t in self.texts])
        return self._vectors

    def dense_topk(self, query: str, k: int) -> list[tuple[str, float]]:
        scores = self.vectors @ self.embed(query)
        return self._topk(scores, np.arange(self.n), k)

    def _topk(self, scores: np.ndarray, candidates: np.ndarray, k: int) -> list[tuple[str, float]]:
        order = np.lexsort((self.id_rank[candidates], -scores[candidates]))[:k]
        return [(self.ids[i], float(scores[i])) for i in candidates[order]]

    # --- composite quality --------------------------------------------------
    def f_score(self, query: str, gold: set[str], mode: str = "both") -> dict:
        out = {"sparse": ZERO, "dense": ZERO}
        if mode in ("both", "sparse_only"):
            out["sparse"] = metric_set([p for p, _ in self.bm25_topk(query, F_DEPTH)], {g: 1 for g in gold})
        if mode in ("both", "dense_only"):
            out["dense"] = metric_set([p for p, _ in self.dense_topk(query, F_DEPTH)], {g: 1 for g in gold})
        out["f"] = sum(out["sparse"].values()) + sum(out["dense"].values())
        return out


ZERO = {"mrr": 0.0, "ndcg3": 0.0, "recall10": 0.0, "recall100": 0.0}


def mrr(ranked: list[str], relevant: set[str]) -> float:
    for rank, pid in enumerate(ranked, 1):
        if pid in relevant:
            return 1.0 / rank
    return 0.0


def _dcg(gains: list[float]) -> float:
    return sum(g / math.log2(i + 1) for i, g in enumerate(gains, 1))


def ndcg3(ranked: list[str], grades: dict[str, int]) -> float:
    ideal = _dcg(sorted((float(g) for g in grades.values() if g > 0), reverse=True)[:3])
    if ideal <= 0.0:
        return 0.0
    return _dcg([float(grades.get(pid, 0)) for pid in ranked[:3]]) / ideal


def recall(ranked: list[str], relevant: set[str], k: int) -> float:
    if not relevant:
        return 0.0
    return len(relevant & set(ranked[:k])) / len(relevant)


def metric_set(ranked: list[str], grades: dict[str, int]) -> dict[str, float]:
    relevant = {pid for pid, g in grades.items() if g >= 1}
    return {
        "mrr": mrr(ranked, relevant),
        "ndcg3": ndcg3(ranked, grades),
        "recall10": recall(ranked, relevant, 10),
        "recall100": recall(ranked, relevant, 100),
    }


def prrf(lists: list[list[str]], k: float = 60.0, depth: int = 100) -> list[tuple[str, float]]:
    """score(d) = sum over lists i (1-based) of i / (rank_i(d) + k)."""
    scores: dict[str, float] = {}
    for i, ranked in enumerate(lists, 1):
        for rank, pid in enumerate(ranked, 1):
            scores[pid] = scores.get(pid, 0.0) + i / (rank + k)
    return sorted(scores.items(), key=lambda e: (-e[1], e[0]))[:depth]


def evaluate(run: dict[str, list[str]], qrels: dict[str, dict[str, int]]) -> dict:
    """Per-query metrics over every judged query and every run query."""
    per = {}
    for qid in sorted(set(run) | set(qrels)):
        grades = qrels.get(qid, {})
        per[qid] = metric_set(run.get(qid, []), grades)
        per[qid]["degenerate"] = not any(g >= 1 for g in grades.values())
    n = len(per)
    agg = {key: sum(m[key] for m in per.values()) / n for key in ZERO}
    return {"num_samples": n, "aggregate": agg, "per_sample": per}
